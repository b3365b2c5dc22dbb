"""The crash-consistent job journal: appends, replay, recovery.

The property under test is the restart contract: a service killed with
work in flight must, on restart over the same ``store_dir``, re-queue
every job whose last journaled state is non-terminal -- and those jobs
must *resume* from their per-hash checkpoints to a result
byte-identical to an uninterrupted run's.
"""

import json
import time

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service import JobJournal, SearchService
from repro.service.journal import TERMINAL_STATES, PendingJob
from repro.service.service import JOURNAL_FILENAME


def search_plan(seed=0, trials=5):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def wait_for(predicate, timeout=60.0, interval=0.02):
    """Poll ``predicate`` until true (returning True) or timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestJournalFile:
    def test_appends_are_replayable_in_order(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("queued", "abc", "j-abc", priority=2,
                           plan_doc={"workload": "search"})
            journal.record("running", "abc", "j-abc")
            journal.record("done", "abc", "j-abc")
        entries = JobJournal.replay(path)
        assert [e["op"] for e in entries] == ["queued", "running", "done"]
        assert entries[0]["plan"] == {"workload": "search"}
        assert entries[0]["priority"] == 2

    def test_record_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record("queued", "abc", "j-abc", priority=0, plan_doc={})
        journal.close()
        journal.record("done", "abc", "j-abc")
        assert [e["op"] for e in JobJournal.replay(path)] == ["queued"]

    def test_queued_requires_a_plan(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        with pytest.raises(ValueError, match="must carry the plan"):
            journal.record("queued", "abc", "j-abc")

    def test_unknown_op_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        with pytest.raises(ValueError, match="unknown journal op"):
            journal.record("paused", "abc", "j-abc")

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("queued", "abc", "j-abc", priority=0,
                           plan_doc={})
        with open(path, "a") as f:
            f.write('{"schema": 1, "op": "done", "hash": "ab')  # torn write
        entries = JobJournal.replay(path)
        assert [e["op"] for e in entries] == ["queued"]

    def test_appending_after_a_torn_tail_truncates_it_first(self, tmp_path):
        """Regression: appending must not glue onto a torn trailing line.

        A crash can tear the last line; a restarted service then
        appends recovery entries.  Writing straight after the partial
        text would produce *mid-file* corruption that every later
        replay refuses -- bricking restarts over that store dir.  The
        torn (never-acknowledged) fragment is dropped instead.
        """
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("queued", "abc", "j-abc", priority=0,
                           plan_doc={})
        with open(path, "a") as f:
            f.write('{"schema": 1, "op": "done", "hash": "ab')  # torn write
        with JobJournal(path) as journal:  # the restarted process
            journal.record("queued", "def", "j-def", priority=1,
                           plan_doc={})
        entries = JobJournal.replay(path)  # must not raise
        assert [(e["op"], e["hash"]) for e in entries] == [
            ("queued", "abc"), ("queued", "def"),
        ]

    def test_torn_tail_with_no_complete_line_truncates_to_empty(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"schema": 1, "op":')  # torn very first entry
        with JobJournal(path) as journal:
            journal.record("queued", "abc", "j-abc", priority=0,
                           plan_doc={})
        assert [e["hash"] for e in JobJournal.replay(path)] == ["abc"]

    def test_corruption_followed_by_valid_lines_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            'not json\n'
            '{"schema": 1, "op": "done", "hash": "abc", "job": "j-abc"}\n'
        )
        with pytest.raises(ValueError, match="trailing"):
            JobJournal.replay(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"schema": 99, "op": "done", "hash": "a", '
                        '"job": "j-a"}\n')
        with pytest.raises(ValueError, match="schema"):
            JobJournal.replay(path)


class TestPendingReduction:
    def entry(self, op, digest, **extra):
        return {"schema": 1, "op": op, "hash": digest,
                "job": f"j-{digest}"} | extra

    def test_terminal_jobs_are_not_pending(self):
        entries = [
            self.entry("queued", "a", plan={"w": 1}, priority=0),
            self.entry("running", "a"),
            self.entry("done", "a"),
            self.entry("queued", "b", plan={"w": 2}, priority=1),
            self.entry("running", "b"),
        ]
        pending = JobJournal.pending_jobs(entries)
        assert [p.plan_hash for p in pending] == ["b"]
        assert pending[0] == PendingJob(
            plan_doc={"w": 2}, plan_hash="b", priority=1,
            last_state="running",
        )

    def test_cancel_resubmit_cycle_keeps_the_latest_submission(self):
        entries = [
            self.entry("queued", "a", plan={"w": 1}, priority=0),
            self.entry("running", "a"),
            self.entry("cancelled", "a"),
            self.entry("queued", "a", plan={"w": 1}, priority=7),
        ]
        pending = JobJournal.pending_jobs(entries)
        assert len(pending) == 1
        assert pending[0].priority == 7
        assert pending[0].last_state == "queued"

    def test_cancelled_without_resubmit_is_not_recovered(self):
        entries = [
            self.entry("queued", "a", plan={"w": 1}, priority=0),
            self.entry("cancelled", "a"),
        ]
        assert JobJournal.pending_jobs(entries) == []


class TestTruncationProperty:
    """Replay over a prefix of the journal cut at *every* byte offset.

    A SIGKILL can stop the file at any byte.  Whatever the cut, replay
    must never raise, and a job whose terminal entry landed fully
    before the cut must never be resurrected by the pending reduction.
    """

    def write_history(self, path):
        """A journal exercising every op, including the lease cycle."""
        plan = search_plan().to_dict()
        with JobJournal(path) as journal:
            # a: leased, expired, re-queued, finished locally.
            journal.record("queued", "aaa", "j-aaa", priority=0,
                           plan_doc=plan)
            journal.record("running", "aaa", "j-aaa")
            journal.record("leased", "aaa", "j-aaa", agent="agent-x",
                           lease_seconds=5.0)
            journal.record("lease-expired", "aaa", "j-aaa")
            journal.record("queued", "aaa", "j-aaa", priority=0,
                           plan_doc=plan)
            journal.record("running", "aaa", "j-aaa")
            journal.record("done", "aaa", "j-aaa")
            # b: leased and failed remotely.
            journal.record("queued", "bbb", "j-bbb", priority=1,
                           plan_doc=plan)
            journal.record("leased", "bbb", "j-bbb", agent="agent-y",
                           lease_seconds=2.0)
            journal.record("failed", "bbb", "j-bbb")
            # c: cancelled, then resubmitted (legitimately pending).
            journal.record("queued", "ccc", "j-ccc", priority=0,
                           plan_doc=plan)
            journal.record("running", "ccc", "j-ccc")
            journal.record("cancelled", "ccc", "j-ccc")
            journal.record("queued", "ccc", "j-ccc", priority=3,
                           plan_doc=plan)
            # d: leased, then the lease expired after a cancel request.
            journal.record("queued", "ddd", "j-ddd", priority=0,
                           plan_doc=plan)
            journal.record("leased", "ddd", "j-ddd", agent="agent-z",
                           lease_seconds=1.0)
            journal.record("lease-expired", "ddd", "j-ddd", agent="agent-z")
            journal.record("cancelled", "ddd", "j-ddd")
        return path.read_bytes()

    def terminal_offsets(self, raw):
        """hash -> byte offset just past its *last* terminal entry."""
        offsets = {}
        position = 0
        for line in raw.splitlines(keepends=True):
            position += len(line)
            entry = json.loads(line)
            if entry["op"] in ("done", "failed", "cancelled"):
                offsets[entry["hash"]] = position
            elif entry["op"] == "queued":
                offsets.pop(entry["hash"], None)  # resubmitted
        return offsets

    def test_every_byte_offset_replays_cleanly(self, tmp_path):
        full = self.write_history(tmp_path / "full.jsonl")
        terminal_at = self.terminal_offsets(full)
        cut_path = tmp_path / "cut.jsonl"
        for offset in range(len(full) + 1):
            cut_path.write_bytes(full[:offset])
            entries = JobJournal.replay(cut_path)  # must never raise
            jobs, _ = JobJournal.fold(entries)
            states = {digest: job.last_state for digest, job in jobs.items()
                      if job.last_state not in TERMINAL_STATES}
            for digest, end in terminal_at.items():
                if offset >= end:
                    assert digest not in states, (
                        f"offset {offset}: terminal job {digest} "
                        f"resurrected as {states[digest]!r}")
            pending = JobJournal.pending_jobs(entries)
            assert [p.plan_hash for p in pending] == list(states)
            for item in pending:
                assert item.plan_doc is not None
                assert item.last_state in ("queued", "running")
        # Sanity: the *un*cut journal recovers exactly the open job.
        final = JobJournal.pending_jobs(JobJournal.replay(cut_path))
        assert [(p.plan_hash, p.priority) for p in final] == [("ccc", 3)]

    def test_truncated_lease_entry_still_recovers_the_job(self, tmp_path):
        """Cutting mid-'leased' leaves the prior 'running' state live."""
        full = self.write_history(tmp_path / "full.jsonl")
        lines = full.splitlines(keepends=True)
        leased_line = next(ln for ln in lines if b'"leased"' in ln)
        upto = full.index(leased_line) + len(leased_line) // 2
        cut_path = tmp_path / "cut.jsonl"
        cut_path.write_bytes(full[:upto])
        pending = JobJournal.pending_jobs(JobJournal.replay(cut_path))
        assert [(p.plan_hash, p.last_state) for p in pending] == [
            ("aaa", "running")]
        assert pending[0].agent is None  # the torn lease never happened


class TestServiceRecovery:
    def test_journal_lands_next_to_a_persistent_store(self, tmp_path):
        with SearchService(workers=1, store_dir=str(tmp_path)) as service:
            service.submit(search_plan(trials=3)).result(timeout=120)
        entries = JobJournal.replay(tmp_path / JOURNAL_FILENAME)
        assert [e["op"] for e in entries] == ["queued", "running", "done"]
        # The queued entry carries the canonical plan document.
        assert RunPlan.from_dict(entries[0]["plan"]) == search_plan(trials=3)

    def test_in_memory_service_has_no_journal(self):
        with SearchService(workers=1) as service:
            assert service._journal is None

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_killed_service_recovers_and_resumes_byte_identically(
        self, tmp_path, backend
    ):
        """The headline crash contract, simulated in-process.

        'Crash' = the journal stops receiving entries (as if the
        process died) while a checkpointed job is running; the work is
        then stopped.  A fresh service over the same directories must
        re-queue the job, resume it from its per-hash checkpoint, and
        produce result bytes identical to an uninterrupted run.
        """
        store_dir = tmp_path / "store"
        ckpt_dir = tmp_path / "ckpt"
        plan = search_plan(seed=2, trials=400)
        crashed = SearchService(
            workers=1, store_dir=str(store_dir),
            checkpoint_dir=str(ckpt_dir), backend=backend,
        )
        handle = crashed.submit(plan)
        job_dir = ckpt_dir / handle.plan_hash
        assert wait_for(lambda: handle.state == "running"
                        and list(job_dir.glob("*.checkpoint.json")))
        # Simulate the SIGKILL: no further journal writes land, and the
        # in-flight work is torn down without a terminal journal entry.
        crashed._journal.close()
        handle.cancel()
        handle.wait(timeout=120)
        snapshot = json.loads(
            next(job_dir.glob("*.checkpoint.json")).read_text()
        )
        assert 0 < snapshot["next_index"] < 400

        restarted = SearchService(
            workers=1, store_dir=str(store_dir),
            checkpoint_dir=str(ckpt_dir), backend=backend,
        )
        try:
            assert restarted.recovered_jobs == [handle.job_id]
            assert restarted.recovery_errors == []
            recovered = restarted.job(handle.job_id)
            queued = [e for e in recovered.events()
                      if type(e).__name__ == "JobQueued"]
            assert "recovered from journal" in queued[-1].message
            recovered_bytes = recovered.result_bytes(timeout=600)
        finally:
            restarted.shutdown()

        with SearchService(workers=1) as reference:
            reference_bytes = reference.submit(plan).result_bytes(timeout=600)
        assert recovered_bytes == reference_bytes

    def test_recovery_skips_unparseable_entries_without_failing(
        self, tmp_path
    ):
        journal_path = tmp_path / JOURNAL_FILENAME
        good = search_plan(seed=1, trials=3)
        bad_doc = good.to_dict()
        bad_doc["search"]["evaluator"] = "no-such-evaluator"
        with JobJournal(journal_path) as journal:
            journal.record("queued", "deadbeef", "j-deadbeef", priority=0,
                           plan_doc=bad_doc)
            journal.record("queued", "feedface", "j-feedface", priority=0,
                           plan_doc=good.to_dict())
        with SearchService(workers=1, store_dir=str(tmp_path)) as service:
            assert len(service.recovered_jobs) == 1
            assert len(service.recovery_errors) == 1
            assert "no-such-evaluator" in service.recovery_errors[0]
            handle = service.job(service.recovered_jobs[0])
            assert len(handle.result(timeout=120).trials) == 3

    def test_recover_false_leaves_the_queue_forgotten(self, tmp_path):
        with JobJournal(tmp_path / JOURNAL_FILENAME) as journal:
            journal.record("queued", "cafe", "j-cafe", priority=0,
                           plan_doc=search_plan().to_dict())
        with SearchService(workers=1, store_dir=str(tmp_path),
                           recover=False) as service:
            assert service.recovered_jobs == []
            assert service.jobs() == []
