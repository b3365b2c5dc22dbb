"""The job lifecycle table, checked against a model of the coordinator.

A Hypothesis ``RuleBasedStateMachine`` drives one coordinator the way
clients and agents do: submissions (new, duplicate and cached), cancels
(queued and running), claims, heartbeats, lease expiry, uploads (a good
one and an undecodable one), a shutdown, and a crash followed by a
restart from the journal.  After every step it checks the service
against the model, and the journal against both:

* the journal holds the lines the model expects, and replaying it
  gives each job's state and lease holder;
* each run publishes exactly one terminal event;
* a terminal job leaves its terminal state only by resubmission;
* ``tenant_accounting`` equals the model's own per-tenant counts.

The coordinator's local workers take no job here, so agents run every
job and no step races a thread; each plan's upload is computed once
per module.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.events import (
    CacheHit,
    Event,
    EventBus,
    JobCancelled,
    JobCompleted,
    JobEvent,
    JobFailed,
    JobQueued,
)
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    plan_hash,
)
from repro.service import (
    SearchService,
    StaleLeaseError,
    UnknownAgentError,
    execute_plan,
    tenant_accounting,
)
from repro.service import store as store_mod
from repro.service.journal import (
    JOB_STATES,
    JOURNAL_FILENAME,
    JOURNAL_OPS,
    TERMINAL_STATES,
    TRANSITIONS,
    JobJournal,
)

SEEDS = (0, 1)
AGENTS = ("a1", "a2")
TENANTS = (None, "acme", "beta")
TERMINAL_EVENTS = (JobCompleted, JobFailed, JobCancelled)


def search_plan(seed: int, variant: int) -> RunPlan:
    """Variant 1 differs from 0 only in a knob the result key ignores."""
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=2),
        execution=ExecutionPolicy(eval_workers=1 + variant),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


_PAYLOADS: dict[int, dict] = {}


def payload(seed: int) -> dict:
    """The honest upload for a seed's plans, computed once."""
    if seed not in _PAYLOADS:
        plan = search_plan(seed, 0)
        result = execute_plan(plan, emit=lambda event: None)
        _PAYLOADS[seed] = store_mod.encode_result(plan, result)
    return _PAYLOADS[seed]


class _AgentsOnly(SearchService):
    """A coordinator whose local workers take no job."""

    def _worker_loop(self) -> None:
        return


@dataclass
class ModelJob:
    """What the model expects of one job."""

    job_id: str
    seed: int
    tenant: str | None
    state: str
    holder: str | None = None
    runs: int = 0
    terminals: int = 0
    cancel_requested: bool = False


class JobLifecycle(RuleBasedStateMachine):
    """The coordinator against its model, one step at a time."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="job-machine-"))
        self.journal_path = self.root / JOURNAL_FILENAME
        self.jobs: dict[str, ModelJob] = {}  # by plan hash
        self.agents: set[str] = set()
        self.stored: set[int] = set()  # seeds whose result is stored
        self.owners: dict[str, str] = {}  # hash -> last queued tenant
        self.counts: dict[str, dict[str, int]] = {}
        self.lines: list[tuple[str, str]] = []  # the journal's (op, hash)
        self.first_seen: dict[str, int] = {}  # hash -> its first line
        # The service's queue: an entry per enqueue, in order.  Leaving
        # the queue leaves the entry behind; it is skipped when popped,
        # and so is every entry of a job queued again but its latest,
        # which is the place the job is claimed at.
        self.queue: list[tuple[int, str]] = []
        self.latest: dict[str, int] = {}  # hash -> its latest entry
        self.entries = itertools.count()
        self.shut = False
        self.submitted: str | None = None  # hash this step submitted
        self.observed: dict[str, str] = {}
        self.service = self._start()

    def _start(self) -> SearchService:
        """A coordinator over the store and journal (recovering them)."""
        bus = EventBus()
        self.published: list[Event] = []
        bus.subscribe(self.published.append)
        return _AgentsOnly(workers=1, store_dir=str(self.root), bus=bus,
                           lease_seconds=3600.0)

    def teardown(self):
        self.service.shutdown(wait=True)
        self.service._journal.close()  # a non-waiting shutdown left it open
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the model's bookkeeping ---------------------------------------------

    def _line(self, op: str, digest: str, tenant: str | None = None) -> None:
        """One journal line, and the tenant counter it moves: that of
        the ``tenant`` the line names, else its hash's latest owner."""
        self.lines.append((op, digest))
        self.first_seen.setdefault(digest, len(self.lines))
        if op == "queued":
            self.owners[digest] = self.jobs[digest].tenant or "anonymous"
            counter = "submitted"
        elif op in TERMINAL_STATES:
            counter = op
        else:
            return
        counts = self.counts.setdefault(
            tenant or self.owners.get(digest, "anonymous"),
            dict.fromkeys(("submitted", *TERMINAL_STATES), 0))
        counts[counter] += 1

    def _queue(self, digest: str) -> None:
        job = self.jobs[digest]
        job.state, job.holder, job.cancel_requested = "queued", None, False
        self.latest[digest] = next(self.entries)
        self.queue.append((self.latest[digest], digest))
        self._line("queued", digest)

    def _pop_queued(self) -> str | None:
        while self.queue:
            entry, digest = self.queue.pop(0)
            job = self.jobs.get(digest)
            if (job and job.state == "queued"
                    and entry == self.latest[digest]):
                return digest
        return None

    def _lease(self, digest: str, agent: str) -> None:
        job = self.jobs[digest]
        job.state, job.holder = "running", agent
        job.runs += 1
        self._line("leased", digest)

    def _end(self, digest: str, state: str, cache_hit: bool = False) -> None:
        """A run ends; a cache hit's ``done`` line names the job's tenant."""
        job = self.jobs[digest]
        job.state, job.holder, job.cancel_requested = state, None, False
        job.terminals += 1
        self._line(state, digest, job.tenant if cache_hit else None)

    def _held(self, agent: str | None = None) -> list[str]:
        return sorted(digest for digest, job in self.jobs.items()
                      if job.holder is not None
                      and agent in (None, job.holder))

    # -- rules ---------------------------------------------------------------

    @rule(seed=st.sampled_from(SEEDS), variant=st.integers(0, 1),
          tenant=st.sampled_from(TENANTS))
    def submit(self, seed, variant, tenant):
        plan = search_plan(seed, variant)
        digest = plan_hash(plan)
        if self.shut:
            with pytest.raises(RuntimeError, match="shut down"):
                self.service.submit(plan, tenant=tenant)
            return
        handle = self.service.submit(plan, tenant=tenant)
        self.submitted = digest
        job = self.jobs.get(digest)
        if job is not None and job.state not in ("failed", "cancelled"):
            assert handle.job_id == job.job_id  # coalesced
            return
        if job is None:
            job = self.jobs[digest] = ModelJob(
                handle.job_id, seed, tenant, state="")
        if seed in self.stored:
            self._end(digest, "done", cache_hit=True)
            assert handle.cached
        else:
            job.tenant = job.tenant or tenant
            self._queue(digest)

    @rule(agent=st.sampled_from(AGENTS))
    def register(self, agent):
        if self.shut:
            with pytest.raises(RuntimeError, match="shut down"):
                self.service.register_agent(name=agent, agent_id=agent)
            return
        self.service.register_agent(name=agent, agent_id=agent)
        self.agents.add(agent)

    @rule(agent=st.sampled_from(AGENTS))
    def claim(self, agent):
        if agent not in self.agents and not self.shut:
            self.register(agent)  # an agent registers before it claims
        if agent not in self.agents:
            with pytest.raises(UnknownAgentError):
                self.service.claim_job(agent)
            return
        claim = self.service.claim_job(agent)
        digest = None if self.shut else self._pop_queued()
        if digest is None:
            assert claim is None
            return
        assert claim["plan_hash"] == digest
        self._lease(digest, agent)

    @rule(agent=st.sampled_from(AGENTS))
    def heartbeat(self, agent):
        if agent not in self.agents:
            with pytest.raises(UnknownAgentError):
                self.service.heartbeat(agent, [])
            return
        held = self._held(agent)
        others = [self.jobs[digest].job_id for digest in self._held()
                  if digest not in held]
        ids = [self.jobs[digest].job_id for digest in held]
        answer = self.service.heartbeat(agent, ids + others + ["j-nothing"])
        assert answer == {
            "lost": others + ["j-nothing"],
            "cancel": [self.jobs[digest].job_id for digest in held
                       if self.jobs[digest].cancel_requested],
        }

    @rule(agent=st.sampled_from(AGENTS))
    def expire(self, agent):
        """A lease expiry: the agent leaves, and its leases with it."""
        self.service.deregister_agent(agent)
        for digest in self._held(agent):
            self._line("lease-expired", digest)
            if self.jobs[digest].cancel_requested or self.shut:
                self._end(digest, "cancelled")
            else:
                self._queue(digest)
        self.agents.discard(agent)

    @rule(index=st.integers(0, 5))
    def cancel(self, index):
        if not self.jobs:
            return
        digest = sorted(self.jobs)[index % len(self.jobs)]
        job = self.jobs[digest]
        state = self.service.cancel(job.job_id)
        if job.state == "queued":
            self._end(digest, "cancelled")
        elif job.state == "running":
            job.cancel_requested = True
        assert state == job.state

    @precondition(lambda self: self._held())
    @rule(index=st.integers(0, 5),
          outcome=st.sampled_from(("done", "undecodable", "failed",
                                   "cancelled")))
    def complete(self, index, outcome):
        held = self._held()
        digest = held[index % len(held)]
        job = self.jobs[digest]
        call = {"done": ("done", {"payload": payload(job.seed)}),
                "undecodable": ("done", {"payload": {"bogus": 1}}),
                "failed": ("failed", {"message": "boom"}),
                "cancelled": ("cancelled", {"completed": 1})}[outcome]
        info = self.service.complete_job(job.holder, job.job_id, call[0],
                                         **call[1])
        state = {"done": "done", "undecodable": "failed"}.get(
            outcome, outcome)
        self._end(digest, state)
        if outcome == "done":
            self.stored.add(job.seed)
        assert info["state"] == state

    @precondition(lambda self: self.jobs)
    @rule(index=st.integers(0, 5), agent=st.sampled_from(AGENTS))
    def stale_upload(self, index, agent):
        digest = sorted(self.jobs)[index % len(self.jobs)]
        job = self.jobs[digest]
        if job.holder == agent:
            return
        with pytest.raises(StaleLeaseError):
            self.service.complete_job(agent, job.job_id, "failed")

    @precondition(lambda self: not self.shut)
    @rule(cancel_running=st.booleans())
    def shutdown(self, cancel_running):
        self.service.shutdown(wait=False, cancel_running=cancel_running)
        self.shut = True
        while (digest := self._pop_queued()) is not None:
            self._end(digest, "cancelled")
        for job in self.jobs.values():
            if job.state == "running" and cancel_running:
                job.cancel_requested = True

    @rule()
    def crash_and_restart(self):
        old = self.service
        old._monitor_stop.set()
        if old._journal is not None:
            old._journal.close()  # the crash: nothing more is journaled
        old.shutdown(wait=True)
        self.service = self._start()
        assert self.service.recovery_errors == []
        # Recovery replays the jobs in the order the journal first saw
        # them: a leased one is restored to its holder, any other one
        # is submitted again (and answered from the store if it can).
        self.jobs = {
            digest: job for digest, job in sorted(
                self.jobs.items(), key=lambda item: self.first_seen[item[0]])
            if job.state not in TERMINAL_STATES
        }
        self.queue = []
        for digest, job in self.jobs.items():
            holder = job.holder
            job.terminals, job.cancel_requested, job.runs = 0, False, 0
            if holder is not None:
                self._line("queued", digest)
                self._lease(digest, holder)
            elif job.seed in self.stored:
                self._end(digest, "done", cache_hit=True)
            else:
                self._queue(digest)
        self.agents = {job.holder for job in self.jobs.values()
                       if job.holder is not None}
        self.shut = False
        self.observed = {}
        assert self.service.recovered_jobs == [
            job.job_id for job in self.jobs.values()]

    # -- invariants ----------------------------------------------------------

    @invariant()
    def service_matches_model(self):
        handles = {handle.plan_hash: handle for handle in self.service.jobs()}
        assert set(handles) == set(self.jobs)
        for digest, job in self.jobs.items():
            info = handles[digest].info()
            assert (info["state"], info["agent"], info["runs"]) == (
                job.state, job.holder, job.runs), digest

    @invariant()
    def journal_replays_the_model(self):
        if not self.journal_path.exists():
            assert not self.jobs
            return
        entries = JobJournal.replay(self.journal_path)
        assert [(e["op"], e["hash"]) for e in entries] == self.lines
        folded, tenants = JobJournal.fold(entries)
        live = {digest for digest, job in folded.items()
                if job.last_state not in TERMINAL_STATES}
        assert live == {digest for digest, job in self.jobs.items()
                        if job.state not in TERMINAL_STATES}
        for digest, job in self.jobs.items():
            assert (folded[digest].last_state, folded[digest].agent) == (
                job.state, job.holder), digest
        assert tenants == tenant_accounting(entries) == self.counts

    @invariant()
    def each_run_publishes_one_terminal_event(self):
        for job in self.jobs.values():
            lifecycle = [event for event in self.service.job(
                job.job_id).events() if isinstance(event, JobEvent)]
            published = [event for event in self.published
                         if event.scope == job.job_id]
            assert published == lifecycle
            terminal = [i for i, event in enumerate(lifecycle)
                        if isinstance(event, TERMINAL_EVENTS)]
            assert len(terminal) == job.terminals
            for i in terminal[:-1]:  # a new run starts with a submission
                assert isinstance(lifecycle[i + 1], (JobQueued, CacheHit))
            assert (job.state in TERMINAL_STATES) == bool(
                terminal and terminal[-1] == len(lifecycle) - 1)

    @invariant()
    def terminal_jobs_leave_only_by_resubmission(self):
        for handle in self.service.jobs():
            before = self.observed.get(handle.plan_hash)
            if before in TERMINAL_STATES and handle.state != before:
                assert handle.plan_hash == self.submitted
            self.observed[handle.plan_hash] = handle.state
        self.submitted = None


JobLifecycle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None)
TestJobLifecycle = JobLifecycle.TestCase


class TestTheTable:
    def test_states_and_ops_come_from_the_rows(self):
        rows = TRANSITIONS.values()
        assert JOB_STATES == ("queued", "running", "done", "failed",
                              "cancelled")
        assert set(JOURNAL_OPS) == {line for row in rows for line in row.lines}
        assert set(TERMINAL_STATES) < set(JOB_STATES)
        ends: dict[str, str] = {}  # the rows ending with an op agree
        for row in rows:
            assert set(row.leaves) <= {None, *JOB_STATES}
            assert ends.setdefault(row.lines[-1], row.enters) == row.enters

    def test_only_a_submission_leaves_a_terminal_state(self):
        leaving = {op for op, row in TRANSITIONS.items()
                   if set(row.leaves) & set(TERMINAL_STATES)}
        assert leaving == {"resubmit", "cache-hit"}

    def test_a_pair_the_table_lacks_raises(self):
        with SearchService(workers=1) as service:
            handle = service.submit(search_plan(0, 0))
            assert handle.wait(timeout=120) == "done"
            with service._lock, pytest.raises(
                    RuntimeError, match="no 'claim' transition from 'done'"):
                service._transition(handle._job, "claim", agent="a1",
                                    lease_seconds=1.0)
            assert handle.state == "done"
