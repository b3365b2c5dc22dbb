"""Tests for JSON serialization of architectures and search ledgers."""

import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import serialization
from repro.core.architecture import Architecture
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import NasSearch
from repro.core.search_space import SearchSpace
from repro.core.serialization import (
    architecture_from_dict,
    architecture_to_dict,
    load_architecture,
    save_architecture,
    save_search_result,
    search_result_to_dict,
    trial_to_dict,
)
from repro.configs import MNIST_CONFIG


class TestArchitectureRoundtrip:
    def test_roundtrip_identity(self):
        arch = Architecture.from_choices(
            [3, 5, 7], [4, 8, 16], input_size=20, input_channels=3,
            num_classes=12, strides=[1, 2, 1],
        )
        clone = architecture_from_dict(architecture_to_dict(arch))
        assert clone.fingerprint() == arch.fingerprint()

    def test_roundtrip_through_json_text(self):
        arch = Architecture.from_choices([5], [9], input_size=28)
        text = json.dumps(architecture_to_dict(arch))
        clone = architecture_from_dict(json.loads(text))
        assert clone.fingerprint() == arch.fingerprint()

    def test_file_roundtrip(self, tmp_path):
        arch = Architecture.from_choices([3, 3], [8, 8], input_size=14)
        path = tmp_path / "arch.json"
        save_architecture(arch, path)
        assert load_architecture(path).fingerprint() == arch.fingerprint()

    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="missing"):
            architecture_from_dict({"schema": 1, "layers": []})

    def test_wrong_schema_raises(self):
        data = architecture_to_dict(
            Architecture.from_choices([3], [4], input_size=8))
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            architecture_from_dict(data)


class TestSearchResultSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        space = SearchSpace.from_config(MNIST_CONFIG)
        evaluator = SurrogateAccuracyEvaluator(space)
        return NasSearch(space, evaluator).run(5, np.random.default_rng(0))

    def test_dict_summary_fields(self, result):
        data = search_result_to_dict(result)
        assert data["trained_count"] == 5
        assert data["pruned_count"] == 0
        assert len(data["trials"]) == 5
        assert data["simulated_seconds"] == pytest.approx(
            result.simulated_seconds)

    def test_trials_embed_architectures(self, result):
        data = trial_to_dict(result.trials[0])
        clone = architecture_from_dict(data["architecture"])
        assert clone.fingerprint() == result.trials[0].architecture.fingerprint()

    def test_save_writes_valid_json(self, result, tmp_path):
        path = tmp_path / "search.json"
        save_search_result(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "nas"
        assert len(loaded["trials"]) == 5


def _write_in_lockstep(path, barrier, errors, writes, writer):
    """Write ``path`` ``writes`` times, meeting the other writers each time."""
    payload = {"writer": writer, "pad": "x" * 4096}
    for _ in range(writes):
        barrier.wait()
        try:
            serialization.atomic_write_json(payload, path)
        except OSError:
            with errors.get_lock():
                errors.value += 1


class TestConcurrentAtomicWrites:
    """Two writers of one path -- e.g. two holders of one checkpoint
    after a lease expired -- each stage in their own temp file, so
    neither moves the other's file out from under its rename."""

    def test_write_racing_inside_another_writers_replace(
        self, tmp_path, monkeypatch
    ):
        """Writer A's rename runs only after writer B, on another thread,
        has completed a whole write of the same path."""
        path = tmp_path / "ck.json"
        real_replace = os.replace
        raced, errors = [], []

        def write_b():
            try:
                serialization.atomic_write_json({"writer": "B"}, path)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def replace_after_b(src, dst):
            if not raced:
                raced.append(True)
                other = threading.Thread(target=write_b)
                other.start()
                other.join()
            real_replace(src, dst)

        monkeypatch.setattr(serialization.os, "replace", replace_after_b)
        serialization.atomic_write_json({"writer": "A"}, path)
        assert raced and errors == []
        assert json.loads(path.read_text()) == {"writer": "A"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_failed_replace_removes_its_temp_file(self, tmp_path,
                                                  monkeypatch):
        def refuse(src, dst):
            raise PermissionError("refused")

        monkeypatch.setattr(serialization.os, "replace", refuse)
        with pytest.raises(PermissionError):
            serialization.atomic_write_json({"a": 1}, tmp_path / "ck.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_two_processes_write_one_path(self, tmp_path):
        writes = 200
        path = tmp_path / "ck.json"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2, timeout=30)
        errors = ctx.Value("i", 0)
        writers = [
            ctx.Process(target=_write_in_lockstep,
                        args=(str(path), barrier, errors, writes, name))
            for name in ("A", "B")
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
        assert json.loads(path.read_text())["writer"] in ("A", "B")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_four_threads_write_one_path(self, tmp_path):
        """More writers than cores, switching threads every microsecond."""
        writes = 100
        path = tmp_path / "ck.json"
        barrier = threading.Barrier(4, timeout=30)
        errors = multiprocessing.Value("i", 0)
        writers = [
            threading.Thread(target=_write_in_lockstep,
                             args=(path, barrier, errors, writes, name),
                             daemon=True)
            for name in "ABCD"
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert errors.value == 0
        assert json.loads(path.read_text())["writer"] in "ABCD"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]
