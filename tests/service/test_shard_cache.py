"""Cancel-then-resubmit at shard granularity, on both backends.

The memoization satellite of the service's cancellation story: cancel a
pooled sweep mid-run, resubmit the identical plan, and the shards that
completed before the cancel are served from the result store
(:class:`~repro.events.ShardCached`) instead of re-executing -- with
the final ``/result`` bytes identical to an uninterrupted run.
"""

import threading

import pytest

from repro.events import SearchFinished, ShardCached
from repro.orchestration.shards import ShardSpec
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.service import ResultStore, SearchService
from repro.service import store as store_mod

#: Per-shard budget: large enough (~1s of surrogate search) that the
#: cancel lands before the last shard's pool future is collected, on
#: both backends (the process backend adds ~0.1s of pipe latency).
TRIALS = 1000


def sweep_plan(backend):
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=TRIALS),
        execution=ExecutionPolicy(shard_workers=2, backend=backend),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0, 7.5, 10.0)),
    )


def reference_bytes(plan, tmp_path):
    """Canonical result bytes of an uninterrupted run (own store)."""
    with SearchService(
        workers=1, store=ResultStore(tmp_path / "reference-store"),
        checkpoint_dir=str(tmp_path / "reference-ckpt"),
    ) as service:
        return service.submit(plan).result_bytes(timeout=600)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cancelled_sweeps_completed_shards_serve_from_the_store(
    tmp_path, backend
):
    plan = sweep_plan(backend)
    store_dir = tmp_path / "store"
    first_shard_done = threading.Event()

    def trip(event):
        if isinstance(event, SearchFinished):
            first_shard_done.set()

    with SearchService(
        workers=1, store=ResultStore(store_dir),
        checkpoint_dir=str(tmp_path / "ckpt"),
    ) as service:
        service.bus.subscribe(trip)
        handle = service.submit(plan)
        assert first_shard_done.wait(timeout=120), "no shard ever finished"
        handle.cancel()
        assert handle.wait(timeout=120) == "cancelled"

        # Completed shards were written through before the cancel; the
        # store holds strictly fewer than all three (the interrupted
        # sweep never merged, so there is no whole-plan entry yet).
        assert 1 <= len(ResultStore(store_dir)) < 3

        # Resubmit: the same job re-queues; its finished shards come
        # straight from the store.
        resumed = service.submit(plan)
        assert resumed.job_id == handle.job_id
        interrupted_bytes = resumed.result_bytes(timeout=600)
        cached = [e for e in resumed.events() if isinstance(e, ShardCached)]
        assert 1 <= len(cached) <= 2
        shard_ids = {e.scope for e in cached}
        assert all(s.startswith("mnist-pynq-z1-fnas") for s in shard_ids)

    assert interrupted_bytes == reference_bytes(plan, tmp_path)


def test_shard_results_shared_across_plans_not_just_jobs(tmp_path):
    """A different sweep overlapping in shards reuses their results."""
    store = ResultStore(tmp_path / "store")
    narrow = RunPlan(
        workload="sweep",
        search=SearchPlan(trials=5),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )
    wide = RunPlan(
        workload="sweep",
        search=SearchPlan(trials=5),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0, 7.5)),
    )
    with SearchService(workers=1, store=store) as service:
        service.submit(narrow).result(timeout=120)
        wide_handle = service.submit(wide)
        wide_handle.result(timeout=120)
        cached = [e for e in wide_handle.events()
                  if isinstance(e, ShardCached)]
        # Different plan hash (no whole-plan dedup), shared shard.
        assert [e.scope for e in cached] == ["mnist-pynq-z1-fnas5ms-s0"]


def test_search_and_sweep_share_one_shard_namespace(tmp_path):
    """A single search seeds the store entry a sweep then reuses."""
    store = ResultStore(tmp_path / "store")
    single = RunPlan(
        workload="search",
        search=SearchPlan(trials=5),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )
    sweep = RunPlan(
        workload="sweep",
        search=SearchPlan(trials=5),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0, 7.5)),
    )
    with SearchService(workers=1, store=store) as service:
        service.submit(single).result(timeout=120)
        handle = service.submit(sweep)
        handle.result(timeout=120)
        cached = [e for e in handle.events() if isinstance(e, ShardCached)]
        assert [e.scope for e in cached] == ["mnist-pynq-z1-fnas5ms-s0"]


def test_caching_disabled_disables_shard_memoization(tmp_path):
    plan = RunPlan(
        workload="sweep",
        search=SearchPlan(trials=5),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )
    with SearchService(
        workers=1, store=ResultStore(tmp_path / "store"), cache_results=False,
    ) as service:
        service.submit(plan).result(timeout=120)
        again = service.submit(plan)
        again.result(timeout=120)
        assert not [e for e in again.events() if isinstance(e, ShardCached)]
    assert len(ResultStore(tmp_path / "store")) == 0


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_canonical_search_plan_keeps_its_shard_entry_apart(tmp_path, backend):
    """A ``search`` plan submitted in canonical form (``spec.to_plan()``)
    stores its plan-level entry and its shard entry under two keys: the
    job serves the ledger, and so does a restarted service's cache hit,
    instead of the shard wrapper written first under one shared key."""
    plan = ShardSpec(dataset="mnist", device="pynq-z1", spec_ms=5.0,
                     trials=5).to_plan()
    with SearchService(workers=1, backend=backend,
                       store=ResultStore(tmp_path)) as service:
        handle = service.submit(plan)
        result = handle.result(timeout=300)
        blob = handle.result_bytes()
    assert len(result.trials) == 5
    assert blob == store_mod.canonical_payload_bytes(
        store_mod.encode_result(plan, result))

    with SearchService(workers=1, backend=backend,
                       store=ResultStore(tmp_path)) as restarted:
        again = restarted.submit(plan)
        assert again.cached
        assert again.result_bytes() == blob
        assert len(again.result(timeout=10).trials) == 5
