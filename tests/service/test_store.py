"""Canonical plan hashing and the content-addressed result store."""

import json
import multiprocessing
import threading

import pytest

from repro.plans import (
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    canonical_plan_json,
    plan_hash,
)
from repro.service.store import (
    ResultStore,
    canonical_payload_bytes,
    decode_result,
    encode_result,
    is_cacheable,
)


def search_plan(seed=0, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


class TestPlanHash:
    def test_equal_plans_hash_equal(self):
        assert plan_hash(search_plan()) == plan_hash(search_plan())

    def test_any_field_change_changes_the_hash(self):
        base = plan_hash(search_plan())
        assert plan_hash(search_plan(seed=1)) != base
        assert plan_hash(search_plan(trials=5)) != base

    def test_hash_survives_json_round_trip(self):
        plan = search_plan()
        replayed = RunPlan.from_json(plan.to_json())
        assert plan_hash(replayed) == plan_hash(plan)

    def test_canonical_json_is_key_order_independent(self):
        plan = search_plan()
        shuffled = json.loads(plan.to_json())
        shuffled = dict(reversed(list(shuffled.items())))
        assert (canonical_plan_json(RunPlan.from_dict(shuffled))
                == canonical_plan_json(plan))


class TestCodecs:
    def test_cacheable_workloads(self):
        assert is_cacheable(search_plan())
        assert not is_cacheable(RunPlan(workload="figure8"))

    def test_output_bearing_plans_are_not_cacheable(self):
        """A plan promising an artifact write must always execute."""
        import dataclasses

        with_output = dataclasses.replace(search_plan(), output="out.json")
        assert not is_cacheable(with_output)

    def test_search_codec_round_trips_ledgers(self):
        from repro.api import run_plan
        from repro.core.serialization import search_result_to_dict

        plan = search_plan()
        result = run_plan(plan)
        payload = encode_result(plan, result)
        restored = decode_result(plan, json.loads(json.dumps(payload)))
        assert (search_result_to_dict(restored)
                == search_result_to_dict(result))

    def test_uncacheable_workload_rejected(self):
        with pytest.raises(ValueError, match="no result codec"):
            encode_result(RunPlan(workload="figure8"), object())


class TestResultStore:
    def test_miss_then_hit(self):
        store = ResultStore()
        assert store.get_bytes("k") is None
        blob = store.put("k", {"b": 2, "a": 1})
        assert store.get_bytes("k") == blob == b'{"a":1,"b":2}'
        assert "k" in store and len(store) == 1

    def test_put_is_idempotent_first_write_wins(self):
        store = ResultStore()
        first = store.put("k", {"a": 1})
        second = store.put("k", {"a": 999})
        assert first == second == store.get_bytes("k")

    def test_persistence_across_instances(self, tmp_path):
        blob = ResultStore(tmp_path).put("deadbeef", {"x": [1, 2]})
        reopened = ResultStore(tmp_path)
        assert reopened.get_bytes("deadbeef") == blob
        assert reopened.get_payload("deadbeef") == {"x": [1, 2]}
        assert len(reopened) == 1


class TestTornStore:
    """A persisted entry truncated at *any* byte offset is a miss.

    The disk-corruption wall (mirrors the journal's torn-tail
    property): reads never raise and never serve torn bytes, and the
    next ``put`` atomically repairs the damaged file.
    """

    PAYLOAD = {"shard_id": "mnist-pynq-z1-fnas5ms-s0",
               "result": {"trials": [1, 2, 3], "wall_seconds": 0.5},
               "resumed_from": None}

    def test_every_truncation_offset_is_a_silent_miss(self, tmp_path):
        blob = ResultStore(tmp_path).put("k", self.PAYLOAD)
        path = tmp_path / "k.json"
        assert path.read_bytes() == blob
        for offset in range(len(blob)):
            path.write_bytes(blob[:offset])
            fresh = ResultStore(tmp_path)  # no memory cache to mask disk
            assert fresh.get_bytes("k") is None, f"offset {offset}"
            assert fresh.get_payload("k") is None
            assert "k" not in fresh
        path.write_bytes(blob)  # untruncated bytes still serve
        assert ResultStore(tmp_path).get_bytes("k") == blob

    def test_put_atomically_repairs_a_torn_entry(self, tmp_path):
        blob = ResultStore(tmp_path).put("k", self.PAYLOAD)
        (tmp_path / "k.json").write_bytes(blob[: len(blob) // 2])
        repaired = ResultStore(tmp_path)
        assert repaired.get_bytes("k") is None
        # First-write-wins does not apply to invalid entries: the put
        # goes through and overwrites via the atomic rename.
        assert repaired.put("k", self.PAYLOAD) == blob
        assert (tmp_path / "k.json").read_bytes() == blob
        assert ResultStore(tmp_path).get_bytes("k") == blob

    def test_non_object_json_is_a_miss(self, tmp_path):
        (tmp_path / "k.json").write_bytes(b'[1,2,3]')
        assert ResultStore(tmp_path).get_bytes("k") is None

    def test_unreadable_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_bytes("missing") is None

    def test_memory_cache_is_not_poisoned_by_disk_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        blob = store.put("k", self.PAYLOAD)
        # Corrupt the file under a live store: the already-validated
        # in-memory bytes still serve (the hit contract), but a fresh
        # instance sees the miss.
        (tmp_path / "k.json").write_bytes(b"{tor")
        assert store.get_bytes("k") == blob
        assert ResultStore(tmp_path).get_bytes("k") is None


class TestFailedPut:
    """A put whose write or rename raises leaves no staging file."""

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                            step):
        import errno
        import os
        from pathlib import Path

        def no_space(*args, **kwargs):
            if step == "write":
                args[0].write_text("{")  # a torn half-written temp file
            raise OSError(errno.ENOSPC, "No space left on device")

        if step == "write":
            monkeypatch.setattr(Path, "write_bytes", no_space)
        else:
            monkeypatch.setattr(os, "replace", no_space)
        store = ResultStore(tmp_path)
        with pytest.raises(OSError, match="No space"):
            store.put("k", {"a": 1})
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == []
        # Nothing unpersisted is served, and the next put writes again.
        assert store.get_bytes("k") is None
        blob = store.put("k", {"a": 1})
        assert ResultStore(tmp_path).get_bytes("k") == blob


def _race_payload(index):
    return {"index": index, "pad": "x" * 2048}


def _put_in_lockstep(directory, barrier, errors, keys):
    """Put every key once, meeting the other writer at each key."""
    store = ResultStore(directory)
    for index in range(keys):
        barrier.wait()
        try:
            store.put(f"k{index}", _race_payload(index))
        except OSError:
            with errors.get_lock():
                errors.value += 1


class TestConcurrentWriters:
    """Two writers putting one key into one directory race benignly:
    each stages its bytes in its own temp file, and both renames land
    the same content-addressed bytes."""

    KEYS = 200

    def _assert_every_entry_intact(self, directory):
        names = sorted(p.name for p in directory.iterdir())
        assert names == sorted(f"k{i}.json" for i in range(self.KEYS))
        store = ResultStore(directory)
        for index in range(self.KEYS):
            assert store.get_bytes(f"k{index}") == canonical_payload_bytes(
                _race_payload(index))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_two_processes_put_the_same_keys(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2, timeout=30)
        errors = ctx.Value("i", 0)
        writers = [
            ctx.Process(target=_put_in_lockstep,
                        args=(str(tmp_path), barrier, errors, self.KEYS))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            if writer.is_alive():
                writer.kill()
                writer.join()
        assert [w.exitcode for w in writers] == [0, 0]
        assert errors.value == 0
        self._assert_every_entry_intact(tmp_path)

    def test_two_threads_put_the_same_keys(self, tmp_path):
        """One process, two stores on one directory: the thread id in
        the temp name keeps same-pid writers apart too."""
        barrier = threading.Barrier(2, timeout=30)
        errors = multiprocessing.Value("i", 0)
        writers = [
            threading.Thread(target=_put_in_lockstep,
                             args=(str(tmp_path), barrier, errors, self.KEYS),
                             daemon=True)
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert not any(writer.is_alive() for writer in writers)
        assert errors.value == 0
        self._assert_every_entry_intact(tmp_path)
