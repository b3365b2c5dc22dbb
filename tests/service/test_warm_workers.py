"""Warm pool workers: one estimator per platform across a worker's jobs.

A pool worker keeps the latency estimator it builds for a platform and
hands it to every later search on that platform, keyed on the resolved
estimator factory and the frozen device values -- never on registry
names.  Sharing it must not move a stored byte or a snapshot's counts.
The coordinator keeps a process-backend result as its stored bytes and
decodes it when it is first read, and encodes an agent's upload before
it takes the service lock.
"""

import dataclasses
import itertools
import json
import threading

import numpy as np
import pytest

from repro import api
from repro.core.search import SearchCancelled
from repro.core.serialization import search_result_to_dict
from repro.fpga.device import PYNQ_Z1
from repro.fpga.dram import DramModel
from repro.orchestration.shards import ShardSpec
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    canonical_plan_json,
)
from repro.registry import DEVICES
from repro.service import SearchService, WorkerDied, WorkerPool, execute_plan
from repro.service import store as store_mod


def search_plan(seed=0, trials=5, device="pynq-z1", spec=5.0, boards=1,
                **execution):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=(device,),
                              specs_ms=(spec,), boards=boards),
    )


@pytest.fixture
def warm(monkeypatch):
    """This process keeps estimators warm, as a pool worker does."""
    monkeypatch.setattr(api, "_warm_estimators", {})


def _estimator_of(plan):
    return api.build_search(plan).latency_estimator


#: Pool submission crosses callables by module reference.
def _cached_before_pricing(plan_json):
    """Pool task: how many architectures the job's estimator already
    held, then price one more."""
    search = api.build_search(RunPlan.from_json(plan_json))
    estimator = search.latency_estimator
    cached = estimator.cache_size
    estimator.estimate(search.space.decode([0] * search.space.num_decisions))
    return cached


def _run_task(pool, fn, *args):
    values = []

    def on_death(calls, exitcode):
        raise WorkerDied(f"lost {calls} (exit code {exitcode})", exitcode)

    pool.map(fn, [[args]], on_item=lambda call, value: values.append(value),
             on_death=on_death)
    return values[0]


class TestEstimatorTable:
    def test_fresh_estimator_per_search_outside_pool_workers(self):
        plan = search_plan()
        assert _estimator_of(plan) is not _estimator_of(plan)

    def test_one_estimator_per_platform(self, warm):
        shared = _estimator_of(search_plan())
        assert _estimator_of(search_plan(seed=1, spec=8.0)) is shared
        assert _estimator_of(search_plan(device="xc7z020")) is not shared
        assert _estimator_of(search_plan(boards=2)) is not shared

    def test_device_reregistered_with_other_fields_gets_its_own(self, warm):
        plan = search_plan()
        before = _estimator_of(plan)
        variant = dataclasses.replace(
            PYNQ_Z1, dram=DramModel(port_width_bits=32, burst_beats=16,
                                    frequency_mhz=100.0))
        DEVICES.register("pynq-z1", variant, replace=True)
        try:
            after = _estimator_of(plan)
        finally:
            DEVICES.register("pynq-z1", PYNQ_Z1, replace=True)
        assert after is not before
        assert after.platform.devices == (variant,)
        assert _estimator_of(plan) is before

    def test_pool_worker_keeps_its_estimator_across_tasks(self):
        first = canonical_plan_json(search_plan(seed=1))
        second = canonical_plan_json(search_plan(seed=2, spec=8.0))
        with WorkerPool(1) as pool:
            assert _run_task(pool, _cached_before_pricing, first) == 0
            assert _run_task(pool, _cached_before_pricing, second) == 1


def _snapshot_stats(path):
    return json.loads(path.read_text())["cache_stats"]


class TestSnapshotCounts:
    """Snapshots count the probes of their own search only."""

    def _warm_worker(self, monkeypatch):
        """A worker that has already run an unrelated job."""
        monkeypatch.setattr(api, "_warm_estimators", {})
        plan = search_plan(seed=1, trials=30)
        api.build_search(plan).run(30, np.random.default_rng(1))

    def test_job_after_another_snapshots_only_its_own_probes(
            self, monkeypatch, tmp_path):
        def counts(name):
            path = tmp_path / name
            api.build_search(search_plan(seed=2, trials=30)).run(
                30, np.random.default_rng(2), checkpoint_every=10,
                checkpoint_path=path)
            return _snapshot_stats(path)

        cold = counts("cold.json")
        self._warm_worker(monkeypatch)
        warm = counts("warm.json")
        # FNAS prices every trial once: 30 probes, none of the first job's.
        arch = warm["architecture_tier"]
        assert arch["hits"] + arch["misses"] == 30
        # The layer tier probes as often as on a fresh estimator, and the
        # first job's entries answer some of the cold run's misses.
        layer, cold_layer = warm["layer_tier"], cold["layer_tier"]
        assert (layer["hits"] + layer["misses"]
                == cold_layer["hits"] + cold_layer["misses"])
        assert layer["hits"] > cold_layer["hits"]

    def test_resumed_job_counts_as_an_uninterrupted_one(
            self, monkeypatch, tmp_path):
        plan = search_plan(seed=2, trials=40)
        self._warm_worker(monkeypatch)
        full_path = tmp_path / "full.json"
        full = api.build_search(plan).run(
            40, np.random.default_rng(2), checkpoint_every=10,
            checkpoint_path=full_path)

        self._warm_worker(monkeypatch)
        cut_path = tmp_path / "cut.json"
        calls = itertools.count()  # the first poll comes before trial 1
        with pytest.raises(SearchCancelled):
            api.build_search(plan).run(
                40, np.random.default_rng(2), checkpoint_every=10,
                checkpoint_path=cut_path,
                should_stop=lambda: next(calls) == 17)
        assert json.loads(cut_path.read_text())["next_index"] == 17
        resumed = api.build_search(plan).resume(cut_path)

        assert (search_result_to_dict(resumed)["trials"]
                == search_result_to_dict(full)["trials"])
        assert _snapshot_stats(cut_path) == _snapshot_stats(full_path)

    def test_checkpointed_job_on_a_pool_worker(self, tmp_path):
        plan = search_plan(seed=2, trials=30, checkpoint_dir=str(tmp_path),
                           checkpoint_every=10)
        path = ShardSpec.from_plan(plan).checkpoint_path(tmp_path)
        with WorkerPool(1) as pool:
            for job in (search_plan(seed=1, trials=30), plan):
                pool.run_plan(job, emit=lambda event: None,
                              cancel_requested=lambda: False)
        arch = _snapshot_stats(path)["architecture_tier"]
        assert arch["hits"] + arch["misses"] == 30


class TestDecodeOnRead:
    def test_finished_process_job_holds_no_decoded_result(self):
        with SearchService(workers=1, backend="process") as service:
            handle = service.submit(search_plan(seed=8))
            assert handle.wait(timeout=300) == "done"
            job = handle._job
            stored = handle.result_bytes()
            assert job.result_obj is None  # reading bytes decodes nothing
            result = handle.result()
            assert result.wall_seconds > 0
            assert handle.result() is result
        assert store_mod.canonical_payload_bytes(
            store_mod.encode_result(handle.plan, result)) == stored

    def test_encoded_result_puts_back_every_scrubbed_value(self):
        payload = {"wall_seconds": 1.5, "shards": [
            {"resumed_from": "a.json", "result": {"wall_seconds": 2.5}},
            {"resumed_from": None, "result": {"wall_seconds": 0.0}},
        ]}
        encoded = store_mod.EncodedResult.of(payload)
        assert encoded.blob == store_mod.canonical_payload_bytes(payload)
        assert encoded.zeroed == (
            (("wall_seconds",), 1.5),
            (("shards", 0, "resumed_from"), "a.json"),
            (("shards", 0, "result", "wall_seconds"), 2.5),
        )
        report = RunPlan(workload="report")
        restored = store_mod.EncodedResult.of({"text": payload}).decode(report)
        assert restored == payload


class TestAgentCompletion:
    def test_encoding_happens_off_the_service_lock(self, monkeypatch):
        plan = search_plan(seed=7, trials=4)
        payload = store_mod.encode_result(
            plan, execute_plan(plan, emit=lambda event: None))
        encoding, release = threading.Event(), threading.Event()
        real = store_mod.canonical_payload_bytes

        def slow(*args, **kwargs):
            encoding.set()
            release.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_mod, "canonical_payload_bytes", slow)
        infos = []
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            completer = threading.Thread(
                target=service.complete_job,
                args=(agent_id, claim["job_id"], "done"),
                kwargs={"payload": payload})
            completer.start()
            try:
                assert encoding.wait(30)
                reader = threading.Thread(
                    target=lambda: infos.append(handle.info()))
                reader.start()
                reader.join(5)
                blocked = reader.is_alive()
            finally:
                release.set()
                completer.join(30)
            reader.join(30)
            assert not blocked, "info() waited for the encoding"
            assert infos[0]["state"] == "running"
            assert handle.wait(timeout=10) == "done"
            assert handle.result_bytes() == real(payload)

    def test_uncached_service_returns_the_agents_result(self):
        plan = search_plan(seed=3, trials=4)
        payload = store_mod.encode_result(
            plan, execute_plan(plan, emit=lambda event: None))
        with SearchService(workers=1, cache_results=False) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "done",
                                 payload=payload)
            result = handle.result(timeout=10)
            assert handle.stored_result_bytes() is None
        assert len(result.trials) == 4
        assert result.wall_seconds == payload["wall_seconds"] > 0
