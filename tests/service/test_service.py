"""SearchService behavior: queueing, dedup, cancellation, concurrency.

Covers the redesign's acceptance criteria directly:

* resubmitting an identical plan returns the stored result without
  re-executing (asserted via an evaluator-factory call counter);
* cancellation checkpoints, and a resubmit *resumes* instead of
  restarting;
* four concurrent jobs on a two-worker pool all complete with intact,
  correctly ordered event streams.
"""

import json
import threading

import pytest

from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.events import (
    CacheHit,
    JobCancelled,
    JobCompleted,
    JobQueued,
    JobStarted,
    SearchFinished,
    SearchStarted,
)
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.registry import EVALUATORS
from repro.service import (
    JobCancelledError,
    ResultStore,
    SearchService,
    UnknownJobError,
)

#: Module-level counters the "counting" evaluator ticks (evaluator
#: builds and child evaluations), keyed so tests can reset them.
COUNTS = {"builds": 0, "evaluations": 0}


class _CountingEvaluator(SurrogateAccuracyEvaluator):
    """Surrogate evaluator that ticks COUNTS on every evaluation."""

    def __init__(self, space, config, seed):
        COUNTS["builds"] += 1
        super().__init__(space, config, seed=seed)

    def evaluate(self, architecture):
        COUNTS["evaluations"] += 1
        return super().evaluate(architecture)


@pytest.fixture()
def counting_evaluator():
    """Register the counting evaluator for a test and reset counters."""
    COUNTS["builds"] = COUNTS["evaluations"] = 0
    EVALUATORS.register("counting", _CountingEvaluator, replace=True)
    yield "counting"
    EVALUATORS.unregister("counting")


#: Shard ids of a default ``table1`` plan, NAS first.
TABLE1_SHARDS = (
    "mnist-pynq-z1-nas-s0",
    "mnist-pynq-z1-fnas10ms-s1-ss0",
    "mnist-pynq-z1-fnas5ms-s2-ss0",
    "mnist-pynq-z1-fnas2ms-s3-ss0",
)


def search_plan(seed=0, trials=5, evaluator="surrogate", **execution):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials, evaluator=evaluator),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


class TestSubmitAndDedup:
    def test_submit_runs_and_returns_result(self):
        with SearchService(workers=1) as service:
            handle = service.submit(search_plan())
            result = handle.result(timeout=120)
            assert len(result.trials) == 5
            assert handle.state == "done"

    def test_duplicate_submit_does_not_rerun(self, counting_evaluator):
        plan = search_plan(evaluator=counting_evaluator)
        with SearchService(workers=1) as service:
            first = service.submit(plan)
            first.result(timeout=120)
            runs_after_first = COUNTS["evaluations"]
            # FNAS prunes spec violators before training, so <= trials,
            # but something must actually have run.
            assert 0 < runs_after_first <= 5
            second = service.submit(plan)
            second.result(timeout=120)
            assert second.job_id == first.job_id  # coalesced, not re-run
            assert COUNTS["evaluations"] == runs_after_first

    def test_coalesced_resubmission_derives_no_result_key(self, monkeypatch):
        """A plan the service has seen reuses its job's store key, so a
        coalesced resubmission builds no shard spec; a new plan does."""
        from repro.orchestration.shards import ShardSpec

        plan, other = search_plan(seed=0), search_plan(seed=1)
        built = []
        real = ShardSpec.from_plan.__func__

        def counting(cls, plan):
            built.append(plan)
            return real(cls, plan)

        with SearchService(workers=1) as service:
            first = service.submit(plan)
            assert first.wait(timeout=120) == "done"
            monkeypatch.setattr(ShardSpec, "from_plan", classmethod(counting))
            assert service.submit(plan).job_id == first.job_id
            assert built == []
            service.submit(other)
            assert built[:1] == [other]

    def test_store_hit_across_service_instances_is_byte_identical(
        self, counting_evaluator, tmp_path
    ):
        plan = search_plan(evaluator=counting_evaluator)
        store = ResultStore(tmp_path)
        with SearchService(workers=1, store=store) as service:
            original = service.submit(plan).result_bytes(timeout=120)
        evaluations = COUNTS["evaluations"]
        with SearchService(workers=1, store=ResultStore(tmp_path)) as fresh:
            handle = fresh.submit(plan)
            assert handle.cached
            assert handle.state == "done"
            replayed = handle.result_bytes()
            kinds = [type(e) for e in handle.events()]
            assert kinds == [CacheHit, JobCompleted]
        assert replayed == original  # byte-identical, straight from disk
        assert COUNTS["evaluations"] == evaluations  # nothing re-ran

    def test_different_plans_do_not_dedup(self):
        with SearchService(workers=1) as service:
            a = service.submit(search_plan(seed=0))
            b = service.submit(search_plan(seed=1))
            assert a.job_id != b.job_id
            assert a.result(timeout=120).trials != b.result(timeout=120).trials

    def test_unknown_job_raises_listing_error(self):
        with SearchService(workers=1) as service:
            with pytest.raises(UnknownJobError, match="unknown job"):
                service.job("nope")


class TestCancellation:
    def test_cancel_queued_job(self):
        # One worker busy with a real job keeps the victim queued.
        with SearchService(workers=1) as service:
            service.submit(search_plan(seed=0, trials=20))
            victim = service.submit(search_plan(seed=1, trials=20))
            state = victim.cancel()
            assert state == "cancelled"
            with pytest.raises(JobCancelledError):
                victim.result(timeout=10)

    def test_cancel_running_job_checkpoints_and_resubmit_resumes(
        self, counting_evaluator, tmp_path
    ):
        """The headline property: cancel -> snapshot -> resume."""
        trials = 30
        plan = search_plan(evaluator=counting_evaluator, trials=trials,
                           checkpoint_dir=str(tmp_path / "ckpt"),
                           checkpoint_every=2)
        release = threading.Event()
        with SearchService(workers=1) as service:
            seen = threading.Event()

            def trip(event):
                if isinstance(event, JobStarted):
                    seen.set()
            service.bus.subscribe(trip)
            handle = service.submit(plan)
            assert seen.wait(timeout=60)
            # Let a few trials land, then cancel mid-run.
            while COUNTS["evaluations"] < 4 and handle.state == "running":
                release.wait(0.01)
            handle.cancel()
            assert handle.wait(timeout=120) == "cancelled"
            done_before = COUNTS["evaluations"]
            assert 0 < done_before < trials
            snapshots = list((tmp_path / "ckpt").glob("*.checkpoint.json"))
            assert snapshots, "cancellation must leave a snapshot behind"
            snapshot = json.loads(snapshots[0].read_text())
            assert snapshot["next_index"] >= done_before - 1
            # Resubmit: same job re-queues and resumes from the snapshot.
            resumed = service.submit(plan)
            assert resumed.job_id == handle.job_id
            result = resumed.result(timeout=300)
            assert len(result.trials) == trials
            # A restart would re-evaluate everything; a resume only the
            # remaining trials (modulo the cancelled batch's remainder).
            assert COUNTS["evaluations"] < trials + done_before

    def test_cancel_reaches_running_paired_workloads(self, counting_evaluator):
        """table1/figure/paired jobs also stop at trial boundaries."""
        plan = RunPlan(
            workload="table1",
            search=SearchPlan(trials=500, evaluator=counting_evaluator),
        )
        with SearchService(workers=1) as service:
            handle = service.submit(plan)
            import time

            deadline = time.monotonic() + 60
            while COUNTS["evaluations"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            handle.cancel()
            assert handle.wait(timeout=120) == "cancelled"
            assert COUNTS["evaluations"] < 4 * 500  # stopped early
            with pytest.raises(JobCancelledError):
                handle.result(timeout=10)

    def test_table1_job_checkpoints_each_shard_under_the_root(
        self, tmp_path
    ):
        plan = RunPlan(workload="table1", search=SearchPlan(trials=3))
        with SearchService(workers=1,
                           checkpoint_dir=str(tmp_path)) as service:
            handle = service.submit(plan)
            handle.result(timeout=120)
        snapshots = (tmp_path / handle.plan_hash).glob("*.checkpoint.json")
        assert sorted(p.name for p in snapshots) == sorted(
            f"{shard}.checkpoint.json" for shard in TABLE1_SHARDS)

    def test_cancelled_table1_job_resumes_from_its_shards(self, tmp_path):
        """Cancel once the NAS shard is done; the resubmit resumes it."""
        from repro.api import run_plan
        from repro.plans import plan_hash
        from repro.service.store import canonical_payload_bytes

        plan = RunPlan(workload="table1", search=SearchPlan(trials=3))
        uninterrupted = run_plan(plan)
        with SearchService(workers=1,
                           checkpoint_dir=str(tmp_path)) as service:
            def cancel_after_nas(event):
                # Runs on the job's thread before its next shard starts.
                if (isinstance(event, SearchFinished)
                        and event.scope == TABLE1_SHARDS[0]):
                    service.job_by_hash(plan_hash(plan)).cancel()
            service.bus.subscribe(cancel_after_nas)
            handle = service.submit(plan)
            assert handle.wait(timeout=120) == "cancelled"
            snapshots = (tmp_path / handle.plan_hash).glob(
                "*.checkpoint.json")
            assert [p.name for p in snapshots] == [
                f"{TABLE1_SHARDS[0]}.checkpoint.json"]
            service.bus.unsubscribe(cancel_after_nas)
            resumed = service.submit(plan)
            assert resumed.job_id == handle.job_id
            result = resumed.result(timeout=120)
        assert result.rows == uninterrupted.rows
        assert (canonical_payload_bytes(result.outcome.to_dict())
                == canonical_payload_bytes(uninterrupted.outcome.to_dict()))

    def test_service_checkpoint_root_covers_plans_without_one(
        self, tmp_path
    ):
        plan = search_plan(trials=8)
        with SearchService(workers=1,
                           checkpoint_dir=str(tmp_path)) as service:
            handle = service.submit(plan)
            handle.result(timeout=120)
        per_job = list(tmp_path.glob("*/*.checkpoint.json"))
        assert per_job, "service root must collect per-hash job snapshots"
        assert per_job[0].parent.name == handle.plan_hash


class TestConcurrencyAndOrdering:
    def test_four_jobs_on_two_workers_all_complete_in_order(self):
        plans = [search_plan(seed=s, trials=4) for s in range(4)]
        with SearchService(workers=2) as service:
            handles = [service.submit(p) for p in plans]
            results = [h.result(timeout=300) for h in handles]
        assert all(len(r.trials) == 4 for r in results)
        for handle in handles:
            events = handle.events()
            kinds = [type(e) for e in events]
            # Intact lifecycle, correctly ordered, nothing interleaved
            # from other jobs (job logs are per-job).
            assert kinds[0] is JobQueued
            assert kinds.index(JobStarted) < kinds.index(JobCompleted)
            starts = [i for i, k in enumerate(kinds) if k is SearchStarted]
            finishes = [i for i, k in enumerate(kinds)
                        if k is SearchFinished]
            assert len(starts) == len(finishes) == 1
            assert starts[0] < finishes[0]
            assert all(e.scope == handle.job_id or not e.scope.startswith("j-")
                       for e in events)

    def test_priority_orders_the_queue(self):
        order = []
        with SearchService(workers=1) as service:
            blocker = service.submit(search_plan(seed=9, trials=10))
            low = service.submit(search_plan(seed=1, trials=3), priority=0)
            high = service.submit(search_plan(seed=2, trials=3), priority=5)

            def record(event):
                if isinstance(event, JobStarted):
                    order.append(event.scope)
            service.bus.subscribe(record)
            low.result(timeout=300)
            high.result(timeout=300)
            blocker.result(timeout=300)
        assert order.index(high.job_id) < order.index(low.job_id)


class TestLifecycleAndErrors:
    def test_failed_job_reraises_original_exception(self):
        # An impossible budget: ScenarioPlan rejects non-positive specs
        # at validation, so force a failure through a bogus evaluator.
        def broken(space, config, seed):
            raise RuntimeError("evaluator exploded")

        EVALUATORS.register("broken", broken, replace=True)
        try:
            with SearchService(workers=1) as service:
                handle = service.submit(search_plan(evaluator="broken"))
                assert handle.wait(timeout=120) == "failed"
                with pytest.raises(RuntimeError, match="evaluator exploded"):
                    handle.result(timeout=10)
                assert any(e.kind == "failed" for e in handle.events())
        finally:
            EVALUATORS.unregister("broken")

    def test_store_failure_still_terminates_the_job(self):
        """Regression: a result post-processing failure (store write,
        codec) must land the job in a terminal state -- leaving it
        'running' would hang every waiter and kill the worker thread."""
        class ExplodingStore(ResultStore):
            def put(self, key, payload):
                raise OSError("disk full")

        with SearchService(workers=1, store=ExplodingStore()) as service:
            handle = service.submit(search_plan(trials=3))
            assert handle.wait(timeout=120) == "failed"
            with pytest.raises(OSError, match="disk full"):
                handle.result(timeout=10)
            assert any("post-processing" in e.message
                       for e in handle.events() if e.kind == "failed")

    def test_shutdown_cancels_queued_jobs_and_rejects_new_ones(self):
        import time

        # The first job holds the only worker on a gate until shutdown
        # has begun, so the second is provably still queued then.
        entered, gate = threading.Event(), threading.Event()

        class GatedEvaluator(SurrogateAccuracyEvaluator):
            def __init__(self, space, config, seed):
                super().__init__(space, config, seed=seed)

            def evaluate(self, architecture):
                entered.set()
                assert gate.wait(timeout=60), "gate never opened"
                return super().evaluate(architecture)

        EVALUATORS.register("gated", GatedEvaluator, replace=True)
        try:
            service = SearchService(workers=1)
            running = service.submit(
                search_plan(seed=0, trials=15, evaluator="gated"))
            queued = service.submit(search_plan(seed=1, trials=15))
            assert entered.wait(timeout=60), "the first job never started"
            stopper = threading.Thread(target=service.shutdown,
                                       kwargs={"wait": True})
            stopper.start()
            try:
                deadline = time.monotonic() + 60
                while queued.state != "cancelled":
                    assert time.monotonic() < deadline, "shutdown never began"
                    time.sleep(0.005)
            finally:
                gate.set()
                stopper.join(timeout=120)
            assert not stopper.is_alive()
            assert running.state == "done"
            assert queued.state == "cancelled"
            with pytest.raises(RuntimeError, match="shut down"):
                service.submit(search_plan(seed=2))
        finally:
            EVALUATORS.unregister("gated")
