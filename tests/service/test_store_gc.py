"""Store garbage collection: budgets, journal liveness, crash safety.

The GC's one inviolable rule -- entries referenced by the journal's
non-terminal jobs are never removed -- is exercised the way it matters:
against the journal a SIGKILLed coordinator leaves behind, and against
a lease held by a remote agent that has already uploaded shard results
into the shared store.
"""

import json
import os
import time

import pytest

from repro.orchestration import run_shard
from repro.orchestration.shards import ShardSpec, plan_shards
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan, plan_hash
from repro.service import ResultStore, SearchService
from repro.service.journal import JobJournal
from repro.service.store import STAGING_GRACE_SECONDS, live_store_keys


def sweep_plan(trials=3, specs=(5.0, 7.5), **execution):
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=trials),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=tuple(specs)),
    )


def _age(path, seconds):
    """Backdate a store entry's mtime."""
    past = time.time() - seconds
    os.utime(path, (past, past))


class TestGCBudgets:
    def test_in_memory_store_refuses_gc(self):
        with pytest.raises(ValueError, match="persistent"):
            ResultStore().gc()

    def test_without_budgets_only_corrupt_entries_go(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("valid", {"a": 1})
        (tmp_path / "torn.json").write_bytes(b'{"a"')
        report = store.gc()
        assert report.removed_corrupt == ("torn",)
        assert report.removed_expired == ()
        assert report.kept == 1
        assert not (tmp_path / "torn.json").exists()
        assert (tmp_path / "valid.json").exists()

    def test_max_age_zero_reclaims_every_dead_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("dead1", {"a": 1})
        store.put("dead2", {"a": 2})
        report = store.gc(max_age_seconds=0)
        assert sorted(report.removed_expired) == ["dead1", "dead2"]
        assert len(store) == 0

    def test_max_age_spares_young_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("old", {"a": 1})
        store.put("young", {"a": 2})
        _age(tmp_path / "old.json", 3600)
        report = store.gc(max_age_seconds=600)
        assert report.removed_expired == ("old",)
        assert store.get_payload("young") == {"a": 2}

    def test_live_entries_survive_every_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("pinned", {"a": 1})
        store.put("dead", {"a": 2})
        _age(tmp_path / "pinned.json", 7200)
        _age(tmp_path / "dead.json", 7200)
        report = store.gc(live={"pinned"}, max_age_seconds=0, max_bytes=0)
        assert report.removed_expired == ("dead",)
        assert report.live == 1
        assert store.get_payload("pinned") == {"a": 1}

    def test_byte_budget_evicts_dead_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        blob = store.put("oldest", {"pad": "x" * 100})
        store.put("middle", {"pad": "y" * 100})
        store.put("newest", {"pad": "z" * 100})
        _age(tmp_path / "oldest.json", 300)
        _age(tmp_path / "middle.json", 200)
        _age(tmp_path / "newest.json", 100)
        report = store.gc(max_bytes=2 * len(blob))
        assert report.removed_over_budget == ("oldest",)
        report = store.gc(max_bytes=0)
        assert sorted(report.removed_over_budget) == ["middle", "newest"]

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("dead", {"a": 1})
        (tmp_path / "torn.json").write_bytes(b"{")
        report = store.gc(max_age_seconds=0, dry_run=True)
        assert report.dry_run
        assert report.removed == 2
        assert report.reclaimed_bytes > 0
        assert (tmp_path / "dead.json").exists()
        assert (tmp_path / "torn.json").exists()
        assert "would reclaim" in report.format()

    def test_gc_purges_the_memory_cache_too(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("dead", {"a": 1})
        assert store.gc(max_age_seconds=0).removed == 1
        assert store.get_bytes("dead") is None

    def test_report_round_trips_to_dict(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("dead", {"a": 1})
        report = store.gc(max_age_seconds=0)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["removed"] == 1
        assert document["removed_expired"] == ["dead"]

    def test_journal_file_is_not_a_store_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "journal.jsonl").write_text('{"schema":1}\n')
        report = store.gc(max_age_seconds=0)
        assert report.examined == 0
        assert (tmp_path / "journal.jsonl").exists()

    def test_leftover_tiling_cache_is_inert(self, tmp_path):
        """Older releases cached tilings under ``<store>/tiling``; gc
        neither counts nor removes what is left there."""
        leftover = tmp_path / "tiling" / "abc.json"
        leftover.parent.mkdir()
        leftover.write_text('{"tiling":{}}')
        store = ResultStore(tmp_path)
        report = store.gc(max_age_seconds=0)
        assert report.examined == 0
        assert leftover.exists()

    def test_torn_leftover_tiling_file_is_not_swept_as_corrupt(
            self, tmp_path):
        torn = tmp_path / "tiling" / "abc.json"
        torn.parent.mkdir()
        torn.write_bytes(b'{"til')
        report = ResultStore(tmp_path).gc()
        assert report.removed_corrupt == ()
        assert torn.exists()

    def test_leftover_tiling_files_do_not_count_toward_byte_budget(
            self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("live", {"pad": "x" * 4096})
        store.put("dead", {"pad": "y" * 1024})
        budget = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        leftover = tmp_path / "tiling" / "abc.json"
        leftover.parent.mkdir()
        leftover.write_text('{"tiling":"' + "z" * 8192 + '"}')
        _age(leftover, 3600)   # older than every result entry
        report = store.gc(live={"live"}, max_bytes=budget)
        assert report.removed == 0
        assert report.examined == 2
        assert leftover.exists()
        assert store.get_payload("dead") is not None


class TestStagingFiles:
    """Staging files a failed or killed writer left behind."""

    def _plant(self, directory, key, age):
        """A staging file as ``put`` names it, ``age`` seconds old."""
        path = directory / f"{key}.json.4242.140000000000.tmp"
        path.write_bytes(b'{"half":')
        _age(path, age)
        return path

    def test_gc_removes_old_staging_files_and_keeps_fresh_ones(
            self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("entry", {"a": 1})
        old = self._plant(tmp_path, "k1", STAGING_GRACE_SECONDS + 60)
        fresh = self._plant(tmp_path, "k2", 0)
        report = store.gc()
        assert report.removed_staging == (old.name,)
        assert report.reclaimed_bytes == len(b'{"half":')
        assert report.examined == report.kept == 1
        assert not old.exists()
        assert fresh.exists()
        assert store.get_payload("entry") == {"a": 1}
        assert "1 stale staging file(s)" in report.format()
        assert report.to_dict()["removed_staging"] == [old.name]

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("dead", {"a": 1})
        old = self._plant(tmp_path, "k1", STAGING_GRACE_SECONDS + 60)
        report = store.gc(max_age_seconds=0, max_bytes=0, dry_run=True)
        assert report.removed_staging == (old.name,)
        assert report.removed_expired == ("dead",)
        assert old.exists()
        assert (tmp_path / "dead.json").exists()

    def test_staging_files_do_not_count_as_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        self._plant(tmp_path, "k1", STAGING_GRACE_SECONDS + 60)
        assert len(store) == 0
        assert store.gc(max_age_seconds=0, max_bytes=0).examined == 0


class TestJournalLiveness:
    def _journal(self, tmp_path, transitions):
        journal = JobJournal(tmp_path / "journal.jsonl")
        for op, digest, plan_doc in transitions:
            kwargs = {}
            if op == "queued":
                kwargs = {"plan_doc": plan_doc, "priority": 0}
            elif op == "leased":
                kwargs = {"agent": "a1"}
            journal.record(op, digest, f"job-{digest}", **kwargs)
        journal.close()
        return JobJournal.replay(journal.path)

    def test_non_terminal_sweep_pins_whole_plan_and_shard_hashes(
        self, tmp_path
    ):
        plan = sweep_plan()
        entries = self._journal(tmp_path, [
            ("queued", plan_hash(plan), plan.to_dict()),
            ("running", plan_hash(plan), None),
        ])
        live = live_store_keys(entries)
        assert plan_hash(plan) in live
        for shard in plan_shards(plan):
            assert shard.shard_hash in live

    def test_terminal_jobs_pin_nothing(self, tmp_path):
        plan = sweep_plan()
        for terminal in ("done", "failed", "cancelled"):
            entries = self._journal(tmp_path, [
                ("queued", plan_hash(plan), plan.to_dict()),
                (terminal, plan_hash(plan), None),
            ])
            assert live_store_keys(entries) == frozenset()
            (tmp_path / "journal.jsonl").unlink()

    def test_leased_and_lease_expired_jobs_stay_live(self, tmp_path):
        plan = sweep_plan()
        for non_terminal in ("leased", "lease-expired"):
            entries = self._journal(tmp_path, [
                ("queued", plan_hash(plan), plan.to_dict()),
                (non_terminal, plan_hash(plan), None),
            ])
            assert plan_hash(plan) in live_store_keys(entries)
            (tmp_path / "journal.jsonl").unlink()

    def test_search_plan_pins_its_single_shard(self, tmp_path):
        plan = RunPlan(
            workload="search",
            search=SearchPlan(trials=3),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        entries = self._journal(tmp_path, [
            ("queued", plan_hash(plan), plan.to_dict()),
        ])
        live = live_store_keys(entries)
        assert live == {plan_hash(plan), ShardSpec.from_plan(plan).shard_hash}

    def test_unparseable_plan_keeps_the_recorded_hash(self, tmp_path):
        entries = self._journal(tmp_path, [
            ("queued", "cafe", {"workload": "not-a-workload"}),
        ])
        assert live_store_keys(entries) == frozenset({"cafe"})

    def test_state_marker_without_submission_stays_live(self, tmp_path):
        entries = self._journal(tmp_path, [("running", "feed", None)])
        assert live_store_keys(entries) == frozenset({"feed"})


class TestGCSafety:
    """The satellite wall: GC against crashed-coordinator journals."""

    def test_sigkilled_coordinator_leaves_live_entries_alone(self, tmp_path):
        """Journal says non-terminal -> nothing that job needs is GC'd."""
        plan = sweep_plan()
        shards = plan_shards(plan)
        store = ResultStore(tmp_path)
        # One shard finished (write-through landed) before the
        # coordinator was SIGKILLed mid-sweep; the whole-plan entry of
        # an unrelated *finished* job is dead.
        store.put(shards[0].shard_hash, run_shard(shards[0]).to_payload())
        store.put("dead-finished-job", {"old": True})
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.record("queued", plan_hash(plan), "job-1",
                       plan_doc=plan.to_dict(), priority=0)
        journal.record("running", plan_hash(plan), "job-1")
        journal.close()  # SIGKILL: no terminal entry ever lands

        live = live_store_keys(JobJournal.replay(journal.path))
        report = store.gc(live=live, max_age_seconds=0, max_bytes=0)
        assert report.removed_expired == ("dead-finished-job",)
        assert store.get_payload(shards[0].shard_hash) is not None

        # The recovered job completes; a second sweep reclaims.
        with JobJournal(journal.path) as reopened:
            reopened.record("done", plan_hash(plan), "job-1")
        live = live_store_keys(JobJournal.replay(journal.path))
        report = store.gc(live=live, max_age_seconds=0)
        assert shards[0].shard_hash in report.removed_expired
        assert len(store) == 0

    def test_recovering_service_resumes_from_gc_survivors(self, tmp_path):
        """End-to-end: crash mid-sweep, GC, restart -> cached shards serve."""
        from repro.events import EventBus, ShardCached

        store_dir = tmp_path / "store"
        plan = sweep_plan()
        shards = plan_shards(plan)
        # Simulate the crashed run's footprint: one shard stored, the
        # journal non-terminal (exactly what a SIGKILL preserves).
        ResultStore(store_dir).put(shards[0].shard_hash,
                                   run_shard(shards[0]).to_payload())
        journal = JobJournal(store_dir / "journal.jsonl")
        journal.record("queued", plan_hash(plan), "job-1",
                       plan_doc=plan.to_dict(), priority=0)
        journal.record("running", plan_hash(plan), "job-1")
        journal.close()

        live = live_store_keys(JobJournal.replay(journal.path))
        ResultStore(store_dir).gc(live=live, max_age_seconds=0)

        events = []
        # Subscribe before the service starts: recovery runs the job
        # on a worker thread as soon as the constructor returns.
        bus = EventBus()
        bus.subscribe(events.append)
        with SearchService(workers=1, store=ResultStore(store_dir),
                           bus=bus) as svc:
            (job_id,) = svc.recovered_jobs
            svc.job(job_id).result(timeout=300)
        cached = [e for e in events if isinstance(e, ShardCached)]
        assert [e.scope for e in cached] == [shards[0].shard_id]

    def test_remote_agents_shard_uploads_stay_live_under_lease(
        self, tmp_path
    ):
        """Federation variant: a leased job pins its shards' entries."""
        store_dir = tmp_path / "store"
        plan = sweep_plan()
        shards = plan_shards(plan)
        with SearchService(workers=1, store=ResultStore(store_dir)) as svc:
            agent_id = svc.register_agent(name="gc-test")["agent_id"]
            handle = svc.submit(plan)
            claim = svc.claim_job(agent_id)
            assert claim is not None
            assert claim["store_dir"] == str(store_dir)

            # The agent's job child writes one shard through the shared
            # store, then the agent dies before completing the job.
            remote_store = ResultStore(claim["store_dir"])
            remote_store.put(shards[0].shard_hash,
                             run_shard(shards[0]).to_payload())

            live = live_store_keys(JobJournal.replay(
                store_dir / "journal.jsonl"
            ))
            report = ResultStore(store_dir).gc(live=live, max_age_seconds=0)
            assert report.removed == 0  # leased: everything is live

            # The agent finishes after all; now nothing pins the entries.
            from repro.service.store import encode_result

            result = run_campaign_result(plan)
            svc.complete_job(agent_id, handle.job_id, "done",
                             payload=encode_result(plan, result))
            assert handle.wait(timeout=60) == "done"
            live = live_store_keys(JobJournal.replay(
                store_dir / "journal.jsonl"
            ))
            report = ResultStore(store_dir).gc(live=live, max_age_seconds=0)
            assert shards[0].shard_hash in report.removed_expired


def run_campaign_result(plan):
    """Execute a sweep plan locally (the remote agent's stand-in)."""
    from repro.service.executor import execute_plan

    return execute_plan(plan)
