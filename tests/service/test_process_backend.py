"""The process execution backend: parity with the thread backend.

The backend contract is *observational equivalence*: whatever backend
runs a job, callers must see the same typed event sequence, the same
byte-identical stored result, the same cancel/resume semantics and the
same error propagation.  The only permitted difference is throughput.
"""

import json
import os
import time

import pytest

from repro.core.search import SearchCancelled
from repro.events import JobCancelled, JobCompleted, JobStarted
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.registry import EVALUATORS
from repro.service import ResultStore, SearchService, WorkerDied, WorkerPool
from repro.service.journal import JOURNAL_FILENAME
from repro.service.store import result_key


def search_plan(seed=0, trials=5, **execution):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def comparable(events):
    return [(type(e).__name__, e.scope, e.message) for e in events]


def exit_in_child(parent_pid):
    """An evaluator factory that kills the pool worker building it."""
    def factory(space, config, seed):
        if os.getpid() != parent_pid:
            os._exit(3)
        raise RuntimeError("the dying evaluator ran in the test process")
    return factory


@pytest.fixture
def dying_plan():
    EVALUATORS.register("exit-in-child", exit_in_child(os.getpid()),
                        replace=True)
    try:
        yield RunPlan(
            workload="search",
            search=SearchPlan(seed=0, trials=3, evaluator="exit-in-child"),
            scenario=search_plan().scenario,
        )
    finally:
        EVALUATORS.unregister("exit-in-child")


class TestParity:
    def test_result_bytes_and_events_match_thread_backend(self):
        plan = search_plan(seed=3)
        observed = {}
        for backend in ("thread", "process"):
            with SearchService(workers=1, backend=backend) as service:
                handle = service.submit(plan)
                observed[backend] = (
                    handle.result_bytes(timeout=300),
                    comparable(handle.events()),
                )
        assert observed["thread"][0] == observed["process"][0]
        assert observed["thread"][1] == observed["process"][1]

    def test_result_object_carries_real_wall_clock(self):
        """Parity covers handle.result(), not just stored bytes: the
        payload crosses the pipe unscrubbed, so the decoded object
        keeps the child's measured wall_seconds (the *stored* bytes
        are scrubbed to stay a pure function of the plan)."""
        with SearchService(workers=1, backend="process") as service:
            handle = service.submit(search_plan())
            result = handle.result(timeout=300)
            assert len(result.trials) == 5
            assert result.wall_seconds > 0
            stored = handle.result_bytes()
        import json

        assert json.loads(stored)["wall_seconds"] == 0.0

    def test_persistent_store_holds_only_results_and_journal(
            self, tmp_path):
        """Workers keep tilings in memory: a job on a persistent store
        leaves its result entries and the journal, and nothing else."""
        with SearchService(workers=1, backend="process",
                           store=ResultStore(tmp_path)) as service:
            handle = service.submit(search_plan(seed=5))
            stored = handle.result_bytes(timeout=300)
        assert (tmp_path / JOURNAL_FILENAME).is_file()
        entries = [p for p in tmp_path.iterdir() if p.name != JOURNAL_FILENAME]
        assert all(p.is_file() and p.suffix == ".json" for p in entries), \
            sorted(p.name for p in entries)
        store = ResultStore(tmp_path)
        assert all(store.get_bytes(p.stem) is not None for p in entries)
        assert store.get_bytes(result_key(handle.plan)) == stored

    def test_caching_off_still_returns_the_result_object(self):
        with SearchService(workers=1, backend="process",
                           cache_results=False) as service:
            handle = service.submit(search_plan())
            result = handle.result(timeout=300)
            assert len(result.trials) == 5
            # No cached bytes, exactly like the thread backend.
            assert handle.stored_result_bytes() is None

    def test_plan_level_backend_overrides_the_service_default(self):
        plan = search_plan(backend="process")
        with SearchService(workers=1, backend="thread") as service:
            assert service._backend_for(service.submit(plan)._job) == "process"
            with SearchService(workers=1, backend="process") as other:
                thread_plan = search_plan(seed=9, backend="thread")
                job = other.submit(thread_plan)._job
                assert other._backend_for(job) == "thread"

    def test_unknown_service_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SearchService(workers=1, backend="fiber")

    def test_unknown_plan_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPolicy(backend="fiber")


class TestCancellation:
    def test_cancel_running_process_job_checkpoints_and_resumes(
        self, tmp_path
    ):
        plan = search_plan(seed=2, trials=600)
        with SearchService(workers=1, backend="process",
                           checkpoint_dir=str(tmp_path)) as service:
            handle = service.submit(plan)
            job_dir = tmp_path / handle.plan_hash
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if (handle.state == "running"
                        and list(job_dir.glob("*.checkpoint.json"))):
                    break
                time.sleep(0.02)
            handle.cancel()
            assert handle.wait(timeout=120) == "cancelled"
            kinds = [type(e) for e in handle.events()]
            assert kinds.count(JobCancelled) == 1
            # Resubmit resumes from the snapshot to the full budget.
            resumed = service.submit(plan)
            assert resumed.job_id == handle.job_id
            result = resumed.result(timeout=600)
            assert len(result.trials) == 600


class TestFailurePropagation:
    def test_child_exception_reraises_in_the_parent(self):
        def broken(space, config, seed):
            raise RuntimeError("evaluator exploded in the child")

        EVALUATORS.register("broken-child", broken, replace=True)
        try:
            plan = search_plan(seed=0)
            plan = RunPlan(
                workload="search",
                search=SearchPlan(seed=0, trials=3,
                                  evaluator="broken-child"),
                scenario=plan.scenario,
            )
            with SearchService(workers=1, backend="process") as service:
                handle = service.submit(plan)
                assert handle.wait(timeout=120) == "failed"
                with pytest.raises(RuntimeError, match="exploded in the child"):
                    handle.result(timeout=10)
        finally:
            EVALUATORS.unregister("broken-child")

    def test_dead_worker_fails_the_job_and_the_pool_recovers(
        self, dying_plan
    ):
        with SearchService(workers=1, backend="process") as service:
            handle = service.submit(dying_plan)
            assert handle.wait(timeout=120) == "failed"
            with pytest.raises(WorkerDied) as died:
                handle.result(timeout=10)
            assert died.value.exitcode == 3
            # The pool replaces the dead worker for the next job.
            after = service.submit(search_plan(seed=6))
            assert len(after.result(timeout=300).trials) == 5
            assert service.pool_stats()["worker.death"] == 1

    def test_run_plan_raises_worker_died(self, dying_plan):
        with WorkerPool(1) as pool:
            with pytest.raises(WorkerDied) as died:
                pool.run_plan(dying_plan, emit=lambda e: None,
                              cancel_requested=lambda: False)
        assert died.value.exitcode == 3


class TestRunJobInProcess:
    """One job on a pool worker process, via ``WorkerPool.run_plan``."""

    def test_streams_events_and_returns_the_canonical_payload(self):
        from repro.service.store import EncodedResult

        events = []
        with WorkerPool(1) as pool:
            encoded = pool.run_plan(
                search_plan(seed=4, trials=3),
                emit=events.append,
                cancel_requested=lambda: False,
            )
        assert isinstance(encoded, EncodedResult)
        payload = encoded.payload()
        assert len(payload["trials"]) == 3
        # The bytes are scrubbed; the payload gets the wall clock back.
        assert json.loads(encoded.blob)["wall_seconds"] == 0.0
        assert payload["wall_seconds"] > 0
        names = [type(e).__name__ for e in events]
        assert names[0] == "RunStarted" and names[-1] == "RunFinished"
        assert "SearchStarted" in names and "SearchFinished" in names

    def test_cancel_before_start_raises_search_cancelled(self):
        with WorkerPool(1) as pool:
            with pytest.raises(SearchCancelled):
                pool.run_plan(
                    search_plan(seed=5, trials=50),
                    emit=lambda e: None,
                    cancel_requested=lambda: True,
                )
            # The cancelled worker went back to the pool idle.
            assert pool.available() == 1
