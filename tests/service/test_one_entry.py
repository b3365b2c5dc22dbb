"""One entry per search: a ``search`` job's result has one store key.

:func:`~repro.service.store.result_key` keys a ``search`` plan by its
shard's hash (``ShardSpec.from_plan(plan).shard_hash``), the service is
the only reader and writer of that entry, and the entry is the
``search`` codec's payload -- the bytes ``/result`` serves.  So a job
leaves exactly one entry on either backend and for an agent's upload,
every spelling of one search is answered from it, and so is a search
whose shard a sweep stored.
"""

import hashlib

import pytest

from repro.events import CacheHit, JobCompleted
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan, plan_hash
from repro.service import ResultStore, SearchService, WorkerPool
from repro.service import store as store_mod
from repro.service.journal import JOURNAL_FILENAME

#: SHA-256 of the bytes :func:`search_plan`'s job stores and ``/result``
#: serves, on both backends.
PINNED_SHA256 = (
    "5686cc9097901ed9ab7ec722a2ee412e58c8fde824731e2cf82faeacef7ed953"
)


def search_plan(**execution):
    """Seed 77, 20 trials, MNIST on the PYNQ at 5 ms, B=1."""
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=77, trials=20),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def entries(directory):
    """A store directory's entries as ``{key: bytes}``, journal aside."""
    return {path.stem: path.read_bytes()
            for path in sorted(directory.iterdir())
            if path.name != JOURNAL_FILENAME}


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_search_result_bytes_are_pinned(tmp_path, backend):
    with SearchService(workers=1, backend=backend,
                       store=ResultStore(tmp_path)) as service:
        blob = service.submit(search_plan()).result_bytes(timeout=300)
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256


class TestResultKey:
    def test_a_search_plan_is_keyed_by_its_shard(self):
        from repro.orchestration.shards import ShardSpec

        plan = search_plan()
        spec = ShardSpec.from_plan(plan)
        assert store_mod.result_key(plan) == spec.shard_hash
        assert spec.shard_hash == plan_hash(spec.to_plan())
        # ``seeds=()`` and ``surrogate_seed=None`` are spelled out in
        # the canonical plan, so this spelling's own hash differs.
        assert store_mod.result_key(plan) != plan_hash(plan)

    def test_any_other_plan_is_keyed_by_its_plan_hash(self):
        sweep = RunPlan(workload="sweep", search=search_plan().search,
                        scenario=search_plan().scenario)
        assert store_mod.result_key(sweep) == plan_hash(sweep)

    def test_a_search_plan_of_two_searches_is_refused_at_submit(self):
        plan = RunPlan(
            workload="search",
            search=SearchPlan(trials=3),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0, 7.5)),
        )
        with pytest.raises(ValueError, match="one search"):
            store_mod.result_key(plan)
        with SearchService(workers=1) as service:
            with pytest.raises(ValueError, match="one search"):
                service.submit(plan)
            assert service.jobs() == []


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_search_job_leaves_one_entry(tmp_path, backend):
    plan = search_plan()
    with SearchService(workers=1, backend=backend,
                       store=ResultStore(tmp_path)) as service:
        blob = service.submit(plan).result_bytes(timeout=300)
    stored = entries(tmp_path)
    assert list(stored.values()) == [blob]
    assert list(stored) == [store_mod.result_key(plan)]


def test_an_agents_upload_leaves_one_entry(tmp_path):
    """The agent's worker runs the claimed plan with the shared store
    directory, as ``WorkerAgent`` does, and uploads the payload; the
    coordinator's put is the only write."""
    plan = search_plan()
    with SearchService(workers=1, store=ResultStore(tmp_path)) as service:
        agent_id = service.register_agent(name="one-entry")["agent_id"]
        handle = service.submit(plan)
        claim = service.claim_job(agent_id)
        assert claim["store_dir"] == str(tmp_path)
        with WorkerPool(1, name="agent-leg") as pool:
            encoded = pool.run_plan(
                RunPlan.from_dict(claim["plan"]), emit=lambda event: None,
                cancel_requested=lambda: False,
                fallback_checkpoint_dir=claim["checkpoint_dir"],
                store_dir=claim["store_dir"],
            )
        assert entries(tmp_path) == {}
        service.complete_job(agent_id, handle.job_id, "done",
                             payload=encoded.payload())
        assert handle.wait(timeout=60) == "done"
        blob = handle.result_bytes()
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256
    assert entries(tmp_path) == {store_mod.result_key(plan): blob}


@pytest.mark.parametrize("execution", [
    {"eval_workers": 2},
    {"shard_workers": 2, "shard_batch_trials": 5},
    {"backend": "process"},
    {"checkpoint_dir": "ckpt", "checkpoint_every": 5},
])
def test_an_execution_variant_is_a_cache_hit(tmp_path, execution):
    """Knobs the canonical plan normalizes away change the plan hash,
    hence the job, but not the result key: the variant is answered
    from the first job's entry, with its bytes."""
    if "checkpoint_dir" in execution:  # were it run, under tmp_path
        execution = {**execution, "checkpoint_dir": str(tmp_path / "ckpt")}
    plan, variant = search_plan(), search_plan(**execution)
    assert plan_hash(variant) != plan_hash(plan)
    with SearchService(workers=1, store=ResultStore(tmp_path)) as service:
        first = service.submit(plan)
        blob = first.result_bytes(timeout=300)
        again = service.submit(variant)
        assert again.job_id != first.job_id
        assert again.cached and again.state == "done"
        assert [type(e) for e in again.events()] == [CacheHit, JobCompleted]
        assert again.result_bytes() == blob
        assert ([t.tokens for t in again.result().trials]
                == [t.tokens for t in first.result().trials])
    assert len(entries(tmp_path)) == 1


def test_a_search_whose_shard_a_sweep_stored_is_a_cache_hit(tmp_path):
    sweep = RunPlan(
        workload="sweep",
        search=SearchPlan(seed=77, trials=20),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0, 7.5), surrogate_seed=77),
    )
    with SearchService(workers=1, store=ResultStore(tmp_path)) as service:
        service.submit(sweep).result(timeout=300)
        handle = service.submit(search_plan())
        assert handle.cached
        assert hashlib.sha256(handle.result_bytes()).hexdigest() \
            == PINNED_SHA256
