"""The asynchronous job service: queue, dedupe, run, cache, cancel.

:class:`SearchService` accepts :class:`~repro.plans.RunPlan` submissions
and executes them on a bounded pool of workers:

* **priority queue** -- higher ``priority`` runs first, FIFO within a
  priority level;
* **dedup** -- submissions are keyed by the canonical
  :func:`repro.plans.plan_hash`; a plan identical to a queued/running
  one coalesces onto that job, and one whose result is stored (at its
  :func:`~repro.service.store.result_key`) is answered from the
  :class:`~repro.service.store.ResultStore` as a byte-identical cache
  hit, without re-running;
* **lifecycle** -- every change of a job's state is one row of
  :data:`~repro.service.journal.TRANSITIONS`, applied by one lock-held
  function: the row's events are recorded in the job's own event log
  and published on the service's typed
  :class:`~repro.events.EventBus`, and (when the service has a
  journal) its lines are appended to the crash-consistent
  :class:`~repro.service.journal.JobJournal`, from which a restarted
  service re-queues unfinished work;
* **execution back-ends** -- every claimed job runs through
  :func:`~repro.service.executor.execute_plan`, either directly on the
  worker thread (``backend="thread"``, the exactness-first default) or
  on a long-lived :class:`~repro.service.pool.WorkerPool` process
  streaming typed events back over a pipe (``backend="process"``, see
  :meth:`~repro.service.pool.WorkerPool.run_plan`), which is what lets
  the serve worker count scale GIL-bound searches with cores; the two
  back-ends produce identical event sequences and byte-identical
  stored results;
* **cancellation that checkpoints** -- a cancelled running job stops
  cooperatively between trials *after* forcing a snapshot (see
  :class:`~repro.core.search.SearchCancelled`), and resubmitting the
  same plan re-queues the job, whose shards then **resume** from those
  snapshots instead of restarting.

:meth:`repro.api.Session.run` is a one-job instance of exactly this
machinery, so the service is not a parallel implementation -- it *is*
the execution engine.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.events import AgentJoined, AgentLost, Event, EventBus
from repro.plans import EXECUTION_BACKENDS, RunPlan, plan_hash
from repro.service import store as store_mod
from repro.service.executor import execute_plan
from repro.service.journal import (
    JOURNAL_FILENAME,
    TERMINAL_STATES,
    TRANSITIONS,
    JobJournal,
)
from repro.service.store import ResultStore

#: Default lease term for agent-claimed jobs, in seconds.
DEFAULT_LEASE_SECONDS = 15.0

#: Heartbeats the coordinator expects per lease term; the advertised
#: heartbeat interval is ``lease / HEARTBEATS_PER_LEASE``, so a lease
#: expires after missing roughly this many heartbeats in a row.
HEARTBEATS_PER_LEASE = 3


class UnknownJobError(KeyError):
    """Raised when a job id does not name a job of this service."""


class UnknownAgentError(KeyError):
    """Raised when an agent id is not (or no longer) registered.

    Agents that miss enough heartbeats are deregistered, so a slow
    agent can see this on its next call -- the remedy is simply to
    re-register under the same id and re-claim work.
    """


class StaleLeaseError(RuntimeError):
    """Raised when an agent acts on a lease it no longer holds.

    Covers event uploads and completions for jobs whose lease expired
    (and possibly re-queued or finished elsewhere).  The HTTP layer
    maps it to ``409 Conflict``; agents drop the work on receipt --
    the coordinator has already arranged for the job to finish
    elsewhere, byte-identically.
    """


class RemoteJobError(RuntimeError):
    """A job failed on a remote agent; ``message`` carries the cause."""

    def __init__(self, message: str, agent: str | None = None):
        super().__init__(message)
        self.agent = agent


class JobCancelledError(RuntimeError):
    """Raised by :meth:`JobHandle.result` when the job was cancelled."""


class _Job:
    """Internal mutable job record (guarded by the service lock)."""

    #: The lifecycle state: ``None`` until the job's first transition,
    #: and changed only by :meth:`SearchService._transition`.
    state: str | None = None

    def __init__(self, plan: RunPlan, digest: str, key: str, priority: int,
                 tenant: str | None = None):
        self.id = f"j-{digest[:12]}"
        self.plan = plan
        self.plan_hash = digest
        #: Where the result is stored (:func:`store.result_key`).
        self.result_key = key
        self.priority = priority
        self.tenant = tenant
        self.error: BaseException | None = None
        #: The result object: the live one a thread-backend run
        #: returned, the one decoded from an agent's upload, or the one
        #: decoded from ``result_encoded`` on the first
        #: :meth:`JobHandle.result` call.
        self.result_obj: Any = None
        #: The stored canonical bytes (``None`` when not cached).
        self.result_bytes: bytes | None = None
        #: The result as canonical bytes plus the values scrubbing
        #: zeroed (:class:`~repro.service.store.EncodedResult`).
        self.result_encoded: store_mod.EncodedResult | None = None
        self.cached = False
        self.runs = 0
        self.events: list[Event] = []
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        #: Lease bookkeeping: the holding agent's id (None when the job
        #: runs locally or is not running), the lease term, and the
        #: monotonic deadline a heartbeat must renew before.
        self.agent: str | None = None
        self.lease_seconds: float | None = None
        self.lease_deadline: float | None = None
        #: The sequence number of the job's latest queue entry; its
        #: earlier entries are stale.
        self.queue_seq: int | None = None

    def info(self) -> dict[str, Any]:
        """JSON-compatible status summary (the HTTP ``/jobs`` shape)."""
        return {
            "job_id": self.id,
            "state": self.state,
            "plan_hash": self.plan_hash,
            "workload": self.plan.workload,
            "priority": self.priority,
            "cached": self.cached,
            "runs": self.runs,
            "events": len(self.events),
            "error": None if self.error is None else repr(self.error),
            "agent": self.agent,
            "tenant": self.tenant,
        }


class _Agent:
    """Internal mutable agent record (guarded by the service lock)."""

    def __init__(self, agent_id: str, name: str, now: float):
        self.id = agent_id
        self.name = name
        self.joined_at = now
        self.last_seen = now
        #: Ids of jobs currently leased to this agent.
        self.jobs: set[str] = set()
        #: True when the record was rebuilt from the journal after a
        #: coordinator restart and the agent has not checked in yet.
        self.restored = False

    def info(self) -> dict[str, Any]:
        """JSON-compatible agent summary (the HTTP ``/agents`` shape)."""
        return {
            "agent_id": self.id,
            "name": self.name,
            "jobs": sorted(self.jobs),
            "restored": self.restored,
        }


def _line_fields(op: str, line: str, job: _Job,
                 agent: str) -> dict[str, Any]:
    """The fields of ``job``'s journal line ``line`` beyond its op: a
    ``queued`` line carries the submission, a lease line its agent, and
    a cache hit's ``done`` line the tenant it answered (a hash it may
    never have queued)."""
    if line == "queued":
        return {"priority": job.priority, "plan_doc": job.plan.to_dict(),
                "tenant": job.tenant}
    if line == "leased":
        return {"agent": agent, "lease_seconds": job.lease_seconds}
    if line == "lease-expired":
        return {"agent": agent}
    if op == "cache-hit":
        return {"tenant": job.tenant}
    return {}


class JobHandle:
    """The caller's view of one submitted job.

    Thin and safe to share: every accessor reads the live job record,
    so a handle obtained at submit time keeps reflecting the job as it
    progresses (and across cancel/resubmit cycles, which re-queue the
    same job).
    """

    def __init__(self, service: "SearchService", job: _Job):
        self._service = service
        self._job = job

    @property
    def job_id(self) -> str:
        """Stable job identifier (derived from the plan hash)."""
        return self._job.id

    @property
    def plan(self) -> RunPlan:
        """The submitted plan."""
        return self._job.plan

    @property
    def plan_hash(self) -> str:
        """Canonical plan hash (the store/dedup key)."""
        return self._job.plan_hash

    @property
    def state(self) -> str:
        """Current lifecycle state (one of
        :data:`~repro.service.journal.JOB_STATES`)."""
        return self._job.state

    @property
    def cached(self) -> bool:
        """Whether the job was answered from the result store."""
        return self._job.cached

    def info(self) -> dict[str, Any]:
        """JSON-compatible status summary, read under the service lock.

        The one sanctioned way to snapshot a job's state: every field
        (state, error, run count, event count, ...) comes from a single
        locked read, so callers never observe a torn combination such
        as ``state="done"`` alongside a stale error from an earlier
        run.  The HTTP ``/jobs`` routes serve exactly this dict.
        """
        with self._service._lock:
            return self._job.info()

    def events(self, since: int = 0) -> list[Event]:
        """The job's typed event log from index ``since`` onwards."""
        with self._service._lock:
            return list(self._job.events[since:])

    def wait(self, timeout: float | None = None) -> str:
        """Block until the job reaches a terminal state; returns it.

        Waits in short slices so the main thread stays interruptible;
        on timeout the current (possibly non-terminal) state comes
        back.
        """
        deadline = None
        if timeout is not None:
            deadline = time.monotonic() + timeout
        while not self._job.done_event.is_set():
            remaining = 0.1
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    break
            self._job.done_event.wait(remaining)
        return self._job.state

    def result(self, timeout: float | None = None) -> Any:
        """The job's result object (blocking).

        Raises :class:`JobCancelledError` for cancelled jobs,
        re-raises the original exception for failed ones, and
        :class:`TimeoutError` when ``timeout`` elapses first.  Cache
        hits and process-backend jobs decode their result here, on the
        first call, through the workload's codec; a process-backend
        result gets its run's wall clock back, as a thread-backend
        run's live object has it.
        """
        job = self._done(timeout)
        encoded = job.result_encoded
        if job.result_obj is None and encoded is not None:
            job.result_obj = encoded.decode(job.plan)
        return job.result_obj

    def result_bytes(self, timeout: float | None = None) -> bytes | None:
        """Canonical serialized result bytes (None when not cacheable).

        Byte-identical across every submission of the same plan -- the
        property the HTTP ``/result`` endpoint serves directly.  Raises
        as :meth:`result` does, and decodes nothing.
        """
        return self._done(timeout).result_bytes

    def _done(self, timeout: float | None) -> _Job:
        """Wait for the job; return its record if it is done, else raise
        what :meth:`result` documents."""
        state = self.wait(timeout)
        job = self._job
        if state == "done":
            return job
        if state == "cancelled":
            raise JobCancelledError(
                f"job {job.id} was cancelled; resubmit the plan to resume"
            )
        if state == "failed":
            assert job.error is not None
            raise job.error
        raise TimeoutError(f"job {job.id} still {state} after {timeout}s")

    def stored_result_bytes(self) -> bytes | None:
        """The stored canonical bytes right now, without waiting.

        ``None`` both for unfinished jobs and for workloads without a
        result codec; the non-blocking read the HTTP ``/result`` route
        uses (under the service lock, so it never observes a partially
        applied terminal transition).
        """
        with self._service._lock:
            return self._job.result_bytes

    def cancel(self) -> str:
        """Request cancellation; returns the (possibly new) state."""
        return self._service.cancel(self.job_id)


class SearchService:
    """Bounded-worker, priority-queued, deduping plan execution service.

    Parameters:
        workers: concurrent jobs in flight at once.  Each job may
            still fan out internally per its plan's execution policy.
        store: a :class:`~repro.service.store.ResultStore` to share;
            default builds one (in-memory, or under ``store_dir``).
        store_dir: persistence directory for the default store.
        checkpoint_dir: root under which jobs whose plans name no
            checkpoint directory snapshot (per plan hash).  Without it
            such jobs run un-checkpointed, exactly as their plan says.
        cache_results: store/serve results for cacheable workloads
            (turn off to make every submit re-run).
        bus: an :class:`~repro.events.EventBus` to share (exposed as
            :attr:`bus`); it delivers every job event to its
            subscribers and keeps none -- per-job logs live on the
            jobs themselves, which keeps a long-lived service's
            footprint proportional to its jobs, not its event volume.
        backend: default execution back-end for jobs whose plans do
            not choose one -- ``"thread"`` runs the job on its worker
            thread (the exactness-first default), ``"process"`` on a
            long-lived worker process drawn from the service's shared
            :class:`~repro.service.pool.WorkerPool`, which is what
            makes GIL-bound searches scale with cores.  A worker that
            dies mid-job fails the job with
            :class:`~repro.service.pool.WorkerDied`.
        journal_path: crash-consistent job journal location (see
            :class:`~repro.service.journal.JobJournal`).  Defaults to
            ``journal.jsonl`` inside the store's directory when the
            store is persistent; ``None`` with an in-memory store
            disables journaling.
        recover: replay an existing journal at startup, re-queueing
            every job whose last recorded state is non-terminal (those
            jobs then resume from their per-hash checkpoints).
            Recovered job ids land in :attr:`recovered_jobs`; entries
            that no longer parse (e.g. a third-party component key not
            registered in this process) are skipped into
            :attr:`recovery_errors` instead of failing startup.  Jobs
            whose last journaled transition is a *lease* are restored
            leased -- the coordinator grants the recorded agent a
            fresh lease term of grace, so an agent that kept running
            through the coordinator outage keeps its claim (and its
            completion upload lands normally); only if the agent never
            heartbeats does the lease expire and the job re-queue.
        lease_seconds: default lease term for agent-claimed jobs
            (plans can override via
            :attr:`~repro.plans.ExecutionPolicy.lease_seconds`).  A
            lease not renewed within the term expires: the job
            re-queues and resumes elsewhere from its checkpoint, and
            the holding agent -- having effectively missed
            :data:`HEARTBEATS_PER_LEASE` heartbeats -- is presumed
            dead and deregistered.
        heartbeat_seconds: heartbeat interval advertised to agents
            (default: ``lease_seconds / HEARTBEATS_PER_LEASE``).
    """

    def __init__(
        self,
        workers: int = 1,
        store: ResultStore | None = None,
        store_dir: str | None = None,
        checkpoint_dir: str | None = None,
        cache_results: bool = True,
        bus: EventBus | None = None,
        backend: str = "thread",
        journal_path: str | None = None,
        recover: bool = True,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        heartbeat_seconds: float | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                + ", ".join(EXECUTION_BACKENDS)
            )
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        if heartbeat_seconds is not None and not (
                0 < heartbeat_seconds < lease_seconds):
            raise ValueError(
                f"heartbeat_seconds must be in (0, lease_seconds), got "
                f"{heartbeat_seconds} vs lease {lease_seconds}"
            )
        self.bus = bus if bus is not None else EventBus()
        self.store = store if store is not None else ResultStore(store_dir)
        self.checkpoint_dir = checkpoint_dir
        self.cache_results = cache_results
        self.backend = backend
        #: One persistent WorkerPool for every process-backend job this
        #: service runs, created lazily on the first such job so
        #: thread-only deployments never fork anything.
        self._pool: Any = None
        self._pool_size = workers
        self._pool_lock = threading.Lock()
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_seconds = (
            float(heartbeat_seconds) if heartbeat_seconds is not None
            else self.lease_seconds / HEARTBEATS_PER_LEASE
        )
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._queue: list[tuple[int, int, _Job]] = []
        self._seq = itertools.count()
        self._jobs: dict[str, _Job] = {}
        self._by_hash: dict[str, _Job] = {}
        self._agents: dict[str, _Agent] = {}
        self._agent_seq = itertools.count()
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._shutdown = False
        self._recovering = False
        self._job_listeners: list[Callable[[str], None]] = []
        #: Job ids re-queued from the journal at startup.
        self.recovered_jobs: list[str] = []
        #: Journal entries that could not be re-submitted, as messages.
        self.recovery_errors: list[str] = []
        if journal_path is None and self.store.directory is not None:
            journal_path = str(self.store.directory / JOURNAL_FILENAME)
        self._journal: JobJournal | None = None
        if journal_path is not None:
            pending = []
            if recover and Path(journal_path).exists():
                pending = JobJournal.pending_jobs(
                    JobJournal.replay(journal_path)
                )
            self._journal = JobJournal(journal_path)
            if pending:
                # Workers are not running yet, so recovery submissions
                # simply queue up (and re-journal themselves).
                self._recover(pending)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"search-service-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission / lookup -------------------------------------------------

    def submit(self, plan: RunPlan, priority: int = 0,
               tenant: str | None = None) -> JobHandle:
        """Queue a plan for execution; returns its :class:`JobHandle`.

        The plan alone decides the job, so every submission dedups on
        its canonical plan hash and its result key:

        * stored result (at :func:`~repro.service.store.result_key`)
          -> an already-``done`` job answered from the cache
          (:class:`~repro.events.CacheHit`), byte-identical;
        * identical plan queued/running/done -> the same job (and the
          same handle semantics);
        * identical plan previously ``cancelled``/``failed`` -> the job
          is re-queued, and its shards resume from their checkpoints.

        ``tenant`` attributes the job to a named tenant (the HTTP
        front end passes the authenticated tenant's name): it lands in
        the job's :meth:`~JobHandle.info`, the journal's ``queued``
        entry (so accounting survives restarts) and the per-tenant
        queue-depth metrics.  A job keeps its original tenant across
        dedup coalescing and cancel/resubmit cycles.  A ``search`` plan
        that is not one search raises :class:`ValueError` here.
        """
        digest = plan_hash(plan)
        # The key is a pure function of the plan, and _by_hash never
        # drops a job: a plan seen before reuses its job's key.
        seen = self._by_hash.get(digest)
        key = seen.result_key if seen else store_mod.result_key(plan)
        to_publish: list[Event] = []
        try:
            with self._lock:
                if self._shutdown:
                    raise RuntimeError("service is shut down")
                job = self._by_hash.get(digest)
                if (job is not None
                        and job.state not in TRANSITIONS["resubmit"].leaves):
                    return JobHandle(self, job)  # coalesce
                cached = (
                    self.store.get_bytes(key)
                    if self.cache_results and store_mod.is_cacheable(plan)
                    else None
                )
                if job is None:
                    job = _Job(plan, digest, key, priority, tenant=tenant)
                if cached is not None:
                    to_publish = self._transition(
                        job, "cache-hit", cached=True, result_bytes=cached,
                        encoded=store_mod.EncodedResult(cached))
                elif job.state is None:
                    to_publish = self._transition(job, "submit")
                else:
                    to_publish = self._transition(
                        job, "resubmit", priority=priority, tenant=tenant)
                return JobHandle(self, job)
        finally:
            for event in to_publish:
                self.bus.publish(event)

    def job(self, job_id: str) -> JobHandle:
        """Look a job up by id."""
        with self._lock:
            job = self._jobs.get(job_id)
            known = sorted(self._jobs) if job is None else None
        if job is None:
            listing = ", ".join(known) if known else "(no jobs submitted yet)"
            raise UnknownJobError(f"unknown job {job_id!r}; known: {listing}")
        return JobHandle(self, job)

    def jobs(self) -> list[JobHandle]:
        """Handles for every job, in submission order."""
        with self._lock:
            return [JobHandle(self, j) for j in self._jobs.values()]

    def job_by_hash(self, digest: str) -> JobHandle | None:
        """The job for plan hash ``digest``, or ``None``.

        What the front end uses to recognise a dedup-coalescing submit
        before admission control runs: a resubmission of a plan the
        service already tracks adds no load, so quota/backpressure
        gates wave it through.
        """
        with self._lock:
            job = self._by_hash.get(digest)
            return None if job is None else JobHandle(self, job)

    def tenant_load(self, tenant: str | None) -> dict[str, int]:
        """One tenant's current ``{"queued": n, "running": n}`` load.

        Read under the service lock; the admission gates of the HTTP
        front end compare these counts against the tenant's quotas
        and feed the queued+running sum into the fair-share priority.
        """
        queued = running = 0
        with self._lock:
            for job in self._jobs.values():
                if job.tenant != tenant:
                    continue
                if job.state == "queued":
                    queued += 1
                elif job.state == "running":
                    running += 1
        return {"queued": queued, "running": running}

    def queued_count(self) -> int:
        """How many jobs are queued right now (backpressure input)."""
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.state == "queued")

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its state after the request.

        Queued jobs cancel immediately.  Running search-driven jobs
        (``search``, ``sweep``, ``paired``, ``table1``, ``figure6``,
        ``figure7``, ``report``) stop cooperatively at the next trial
        boundary, snapshotting first when checkpointing is configured
        (the worker then publishes :class:`~repro.events.JobCancelled`);
        ``figure8``, ``ablations`` and those sections of a ``report``
        poll only before starting and otherwise run to completion.  A
        leased job whose lease expires before its agent reports ends
        cancelled instead of re-queueing.  Terminal jobs are left
        untouched.
        """
        handle = self.job(job_id)
        job = handle._job
        to_publish: list[Event] = []
        with self._lock:
            if job.state == "queued":
                to_publish = self._transition(
                    job, "cancel-queued", message="cancelled while queued")
            elif job.state == "running":
                job.cancel_event.set()
        for event in to_publish:
            self.bus.publish(event)
        return job.state

    # -- federation: agents and leases ---------------------------------------

    def register_agent(self, name: str | None = None,
                       agent_id: str | None = None) -> dict[str, Any]:
        """Register (or re-register) a worker agent; returns its terms.

        Agents pick their own stable ``agent_id`` when they have one --
        re-registration after a network partition or coordinator
        restart is idempotent and revives any lease the journal
        restored to that id.  The returned dict carries the id plus the
        lease/heartbeat terms the agent must honor.
        """
        now = time.monotonic()
        to_publish: list[Event] = []
        with self._lock:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            if agent_id is None:
                agent_id = f"agent-{name or 'worker'}-{next(self._agent_seq)}"
            agent = self._agents.get(agent_id)
            if agent is None:
                agent = _Agent(agent_id, name or agent_id, now)
                self._agents[agent_id] = agent
                to_publish.append(AgentJoined(
                    agent_id, f"agent {agent.name!r} joined",
                    name=agent.name))
            agent.last_seen = now
            agent.restored = False
        self._ensure_monitor()
        for event in to_publish:
            self.bus.publish(event)
        return {
            "agent_id": agent_id,
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.heartbeat_seconds,
        }

    def deregister_agent(self, agent_id: str,
                         reason: str = "agent left") -> None:
        """Remove an agent; its leases expire (jobs re-queue) at once."""
        with self._lock:
            agent = self._agents.get(agent_id)
            if agent is None:
                return
            to_publish = self._drop_agent(
                agent, f"agent {agent.name!r} removed: {reason}",
                f"agent removed: {reason}")
            # Local workers may need to take over the re-queued work.
            self._work_ready.notify_all()
        for event in to_publish:
            self.bus.publish(event)

    def agents(self) -> list[dict[str, Any]]:
        """Registered agents' summaries, in registration order."""
        with self._lock:
            return [agent.info() for agent in self._agents.values()]

    def claim_job(self, agent_id: str) -> dict[str, Any] | None:
        """Lease the next queued job to an agent.

        Returns ``None`` when nothing is claimable, else a JSON-ready
        job descriptor: the job id, canonical plan document, plan
        hash, the lease/heartbeat terms for *this* job (plans can
        override the service defaults), the checkpoint directory the
        execution must snapshot under (shared-filesystem contract --
        failover resumes from it), and the execution backend to use.
        Claiming also counts as a heartbeat for the agent itself.
        """
        now = time.monotonic()
        to_publish: list[Event] = []
        with self._lock:
            agent = self._require_agent(agent_id)
            agent.last_seen = now
            job = None if self._shutdown else self._pop_queued()
            if job is None:
                return None
            term = (job.plan.execution.lease_seconds or self.lease_seconds)
            heartbeat = job.plan.execution.heartbeat_seconds or min(
                self.heartbeat_seconds, term / HEARTBEATS_PER_LEASE
            )
            to_publish = self._transition(
                job, "claim", agent=agent_id, lease_seconds=float(term))
            descriptor = {
                "job_id": job.id,
                "plan": job.plan.to_dict(),
                "plan_hash": job.plan_hash,
                "lease_seconds": float(term),
                "heartbeat_seconds": float(heartbeat),
                "checkpoint_dir": self._effective_checkpoint_dir(job),
                "backend": job.plan.execution.backend,
                "store_dir": self._shared_store_dir(),
            }
        for event in to_publish:
            self.bus.publish(event)
        return descriptor

    def heartbeat(self, agent_id: str,
                  jobs: list[str] | tuple[str, ...] = ()) -> dict[str, Any]:
        """Renew an agent's liveness and its listed jobs' leases.

        Returns directives for the agent: ``lost`` names jobs it no
        longer holds (expired and re-queued elsewhere -- stop working
        on them), ``cancel`` names leased jobs whose cancellation was
        requested (stop cooperatively, checkpointing first).  Unknown
        agents raise :class:`UnknownAgentError`; the agent's remedy is
        to re-register under the same id.
        """
        now = time.monotonic()
        with self._lock:
            agent = self._require_agent(agent_id)
            agent.last_seen = now
            agent.restored = False
            lost: list[str] = []
            cancel: list[str] = []
            for job_id in jobs:
                job = self._jobs.get(job_id)
                if (job is None or job.agent != agent_id
                        or job.state != "running"):
                    lost.append(job_id)
                    continue
                assert job.lease_seconds is not None
                job.lease_deadline = now + job.lease_seconds
                if job.cancel_event.is_set():
                    cancel.append(job_id)
            return {"lost": lost, "cancel": cancel}

    def record_agent_events(self, agent_id: str, job_id: str,
                            events: list[Event]) -> int:
        """Append events an agent streamed for a job it holds.

        The remote twin of the in-process ``emit`` callback: events
        land in the job's ordered log and on the bus, exactly where
        local execution would have put them.  Raises
        :class:`StaleLeaseError` when the agent no longer holds the
        job's lease (the events are dropped -- the job's next holder
        will re-emit them while resuming).
        """
        with self._lock:
            job = self._require_lease(agent_id, job_id)
            to_publish = self._record(job, list(events))
        for event in to_publish:
            self.bus.publish(event)
        return len(to_publish)

    def complete_job(
        self,
        agent_id: str,
        job_id: str,
        outcome: str,
        payload: dict[str, Any] | None = None,
        message: str | None = None,
        completed: int = 0,
    ) -> dict[str, Any]:
        """Apply a remote job's terminal outcome under its lease.

        ``outcome`` is ``"done"`` (with the canonical result
        ``payload`` for cacheable workloads, stored content-addressed
        exactly as local execution stores it), ``"failed"`` (with the
        error ``message``) or ``"cancelled"`` (with the count of
        ``completed`` units).  A ``"done"`` upload of a cacheable plan
        whose payload is missing or does not decode through the
        workload's codec fails the job with :class:`RemoteJobError`
        and stores nothing, so a resubmission runs it again.  Raises
        :class:`StaleLeaseError` when the lease is gone -- the upload
        is discarded; whoever holds the job now will finish it
        byte-identically.  Returns the job's post-transition info dict.
        """
        if outcome not in ("done", "failed", "cancelled"):
            raise ValueError(
                f"unknown outcome {outcome!r}; expected done, failed or "
                "cancelled"
            )
        result_obj = encoded = None
        if outcome == "done":
            with self._lock:
                plan = self._require_lease(agent_id, job_id).plan
            if store_mod.is_cacheable(plan):
                # Decoding and encoding a large ledger take milliseconds:
                # do both before the lock, which every status read and
                # submission also takes.
                try:
                    if payload is None:
                        raise ValueError("no result payload")
                    result_obj = store_mod.decode_result(plan, payload)
                    encoded = store_mod.EncodedResult.of(payload)
                except Exception as exc:  # noqa: BLE001 - any codec failure
                    outcome = "failed"
                    message = ("agent uploaded no decodable result: "
                               f"{type(exc).__name__}: {exc}")
        with self._lock:
            job = self._require_lease(agent_id, job_id)
            self._agents[agent_id].last_seen = time.monotonic()
            where = f" (agent {agent_id})"
            if outcome == "done":
                to_publish = self._transition(
                    job, "done", where=where, result_obj=result_obj,
                    **self._stored(job, encoded))
            elif outcome == "failed":
                to_publish = self._transition(
                    job, "failed", where=where,
                    message=message or "remote failure",
                    error=RemoteJobError(
                        message or "job failed on remote agent",
                        agent=agent_id))
            else:
                to_publish = self._transition(
                    job, "cancelled", completed=completed,
                    where=f" on agent {agent_id}")
            info = job.info()
        for event in to_publish:
            self.bus.publish(event)
        return info

    def _require_agent(self, agent_id: str) -> _Agent:
        """The agent record, or :class:`UnknownAgentError` (lock held)."""
        agent = self._agents.get(agent_id)
        if agent is None:
            raise UnknownAgentError(
                f"unknown agent {agent_id!r}; (re-)register first"
            )
        return agent

    def _require_lease(self, agent_id: str, job_id: str) -> _Job:
        """The job iff leased to the agent, else raise (lock held)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        if job.agent != agent_id or job.state != "running":
            raise StaleLeaseError(
                f"agent {agent_id} does not hold the lease on job "
                f"{job_id} (state {job.state!r}, holder {job.agent!r}); "
                "the lease expired -- drop the work"
            )
        return job

    def _effective_checkpoint_dir(self, job: _Job) -> str | None:
        """Where the job's execution snapshots (plan's own dir wins)."""
        if job.plan.execution.checkpoint_dir is not None:
            return job.plan.execution.checkpoint_dir
        return self._job_checkpoint_dir(job)

    def _drop_agent(self, agent: _Agent, message: str,
                    reason: str) -> list[Event]:
        """Forget one agent and expire its leases (lock held); returns
        ``AgentLost(message)`` then each lease's events, to publish."""
        events: list[Event] = [AgentLost(agent.id, message, name=agent.name)]
        for job_id in sorted(agent.jobs):
            events.extend(self._lease_lost(self._jobs[job_id], reason))
        del self._agents[agent.id]
        return events

    def _lease_lost(self, job: _Job, reason: str) -> list[Event]:
        """Take back a lease no upload ended (lock held); returns the
        events to publish.

        The job re-queues, so the next claimant -- another agent, or a
        local worker once no live agents remain -- resumes it from its
        per-hash checkpoint.  A cancel request or a shutdown that came
        first ends it cancelled instead.
        """
        if job.cancel_event.is_set():
            return self._transition(
                job, "expire-cancelled", reason=reason,
                message="cancelled: the lease expired before the agent "
                        "acknowledged the cancel request")
        if self._shutdown:
            return self._transition(
                job, "expire-cancelled", reason=reason,
                message="service shut down while queued")
        return self._transition(job, "expire", reason=reason)

    def _ensure_monitor(self) -> None:
        """Start the lease/liveness monitor thread (idempotent)."""
        with self._lock:
            if self._monitor is not None or self._shutdown:
                return
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="search-service-leases",
                daemon=True,
            )
            self._monitor.start()

    def _monitor_loop(self) -> None:
        """Expire overdue leases and presumed-dead agents periodically."""
        interval = max(0.02, min(1.0, self.lease_seconds / 10.0))
        while not self._monitor_stop.wait(interval):
            self._expire_overdue()

    def _expire_overdue(self) -> None:
        """One monitor sweep: lost agents first, then overdue leases."""
        now = time.monotonic()
        to_publish: list[Event] = []
        with self._lock:
            for agent in list(self._agents.values()):
                if now - agent.last_seen <= self.lease_seconds:
                    continue
                to_publish.extend(self._drop_agent(
                    agent,
                    f"agent {agent.name!r} missed its heartbeats "
                    f"(last seen {now - agent.last_seen:.1f}s ago); "
                    "presumed dead", "holding agent presumed dead"))
            for job in self._jobs.values():
                if (job.state == "running" and job.agent is not None
                        and job.lease_deadline is not None
                        and job.lease_deadline < now):
                    to_publish.extend(self._lease_lost(
                        job, "no heartbeat within the lease term"))
            if to_publish:
                # Re-queued work may need the local workers.
                self._work_ready.notify_all()
        for event in to_publish:
            self.bus.publish(event)

    def shutdown(self, wait: bool = True, cancel_running: bool = False) -> None:
        """Stop accepting work and wind the worker pool down.

        Queued jobs are cancelled, and so is a leased job whose lease
        expires later: no job is queued after shutdown.  Running jobs
        finish normally unless ``cancel_running`` asks them to stop
        cooperatively.  With
        ``wait`` the call joins every worker thread (and the lease
        monitor, when one started).
        """
        to_publish: list[Event] = []
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            self._monitor_stop.set()
            monitor = self._monitor
            while (job := self._pop_queued()) is not None:
                to_publish.extend(self._transition(
                    job, "cancel-queued",
                    message="service shut down while queued"))
            if cancel_running:
                for job in self._jobs.values():
                    if job.state == "running":
                        job.cancel_event.set()
            self._work_ready.notify_all()
        for event in to_publish:
            self.bus.publish(event)
        if wait:
            for thread in self._workers:
                thread.join()
            if monitor is not None:
                monitor.join()
            # Workers are done: their terminal entries have landed, so
            # the journal can close (a non-waiting shutdown leaves it
            # open for the still-running workers).
            if self._journal is not None:
                self._journal.close()
            # Every worker thread has drained its in-flight job, so
            # the process pool (if one was ever built) is idle.
            with self._pool_lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def __enter__(self) -> "SearchService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit shuts the service down (waiting)."""
        self.shutdown(wait=True)

    # -- internals -----------------------------------------------------------

    def _transition(self, job: _Job, op: str, **facts: Any) -> list[Event]:
        """Apply the row ``op`` of
        :data:`~repro.service.journal.TRANSITIONS` to ``job`` (caller
        holds the lock); returns the events to publish once it drops.

        Raises :class:`RuntimeError` when the row cannot leave the
        job's state.  Otherwise the job leaves its state (a new job is
        registered, a run's lease ends, a terminal job is re-armed) and
        enters the row's: ``queued`` puts it on the queue, ``running``
        counts a run and, given ``agent`` and ``lease_seconds``, leases
        it, and a terminal state takes the result facts (``error``,
        ``result_obj``, ``result_bytes``, ``encoded``, ``cached``) and
        wakes the job's waiters last.  The row's journal lines and
        events land in between, in the table's order; ``facts`` also
        fill its message templates.
        """
        row = TRANSITIONS[op]
        if job.state not in row.leaves:
            raise RuntimeError(
                f"job {job.id}: no {op!r} transition from {job.state!r}")
        holder = job.agent
        if holder is not None:
            self._agents[holder].jobs.discard(job.id)
            job.agent = job.lease_seconds = job.lease_deadline = None
        if job.state is None:
            self._jobs[job.id] = job
            self._by_hash[job.plan_hash] = job
        elif job.state in TERMINAL_STATES:
            job.cancel_event.clear()
            job.done_event.clear()
        job.state = row.enters
        if row.enters == "queued":
            job.priority = facts.get("priority", job.priority)
            if job.tenant is None:
                job.tenant = facts.get("tenant")
            job.error = None
            self._enqueue(job)
        elif row.enters == "running":
            job.runs += 1
            if "agent" in facts:
                job.agent = facts["agent"]
                job.lease_seconds = facts["lease_seconds"]
                job.lease_deadline = time.monotonic() + job.lease_seconds
                self._agents[job.agent].jobs.add(job.id)
        else:
            job.error = facts.get("error")
            job.result_obj = facts.get("result_obj")
            job.result_bytes = facts.get("result_bytes")
            job.result_encoded = facts.get("encoded")
            job.cached = facts.get("cached", False)
            if row.enters == "cancelled":
                job.cancel_event.set()
        agent = job.agent or holder or ""
        if self._journal is not None:
            for line in row.lines:
                self._journal.record(line, job.plan_hash, job.id,
                                     **_line_fields(op, line, job, agent))
        names = {
            "job": job, "plan_hash": job.plan_hash, "agent": agent,
            "lease_seconds": job.lease_seconds, "where": "",
            "recovered": (" (recovered from journal)" if self._recovering
                          else ""),
            **facts,
        }
        events = self._record(job, [
            cls(job.id, template.format_map(names), **{
                field.name: names[field.name]
                for field in dataclasses.fields(cls)
                if field.name not in ("scope", "message")})
            for cls, template in row.events
        ])
        if row.enters in TERMINAL_STATES:
            job.done_event.set()
        return events

    def _enqueue(self, job: _Job) -> None:
        job.queue_seq = next(self._seq)
        heapq.heappush(self._queue, (-job.priority, job.queue_seq, job))
        self._work_ready.notify()

    def _record(self, job: _Job, events: list[Event]) -> list[Event]:
        """Append events to the job's log (caller holds the lock).

        Returns the events so the caller can publish them to the bus
        *after* releasing the lock -- the job log is therefore ordered
        even when a worker races the tail of ``submit``, and bus
        subscribers can never deadlock the service by calling back in.
        """
        job.events.extend(events)
        if events:
            self._notify_job(job.id)
        return list(events)

    def _publish(self, job: _Job, event: Event) -> None:
        """Log one event under the lock, then deliver it to the bus."""
        with self._lock:
            job.events.append(event)
            self._notify_job(job.id)
        self.bus.publish(event)

    def add_job_listener(self, callback: Callable[[str], None]
                         ) -> Callable[[str], None]:
        """Register a per-job event-log notifier; returns ``callback``.

        ``callback(job_id)`` fires every time events are appended to
        that job's log -- lifecycle transitions *and* in-flight shard
        events, which plain bus subscription cannot attribute to a job.
        The gateway's SSE/long-poll fanout hangs off this hook.

        The callback runs on service worker threads, sometimes under
        the service lock: it must be cheap, must never block, and must
        never call back into the service (hand off to another thread or
        an event loop instead, e.g. ``loop.call_soon_threadsafe``).
        Exceptions it raises are swallowed.
        """
        with self._lock:
            self._job_listeners.append(callback)
        return callback

    def remove_job_listener(self, callback: Callable[[str], None]) -> None:
        """Deregister a listener added by :meth:`add_job_listener`."""
        with self._lock:
            try:
                self._job_listeners.remove(callback)
            except ValueError:
                pass

    def _notify_job(self, job_id: str) -> None:
        """Fire job listeners (callers may or may not hold the lock)."""
        for callback in list(self._job_listeners):
            try:
                callback(job_id)
            except Exception:  # noqa: BLE001 - listeners must not kill workers
                pass

    def _recover(self, pending: list) -> None:
        """Re-queue journal-recovered submissions (startup only).

        Plain non-terminal jobs re-submit (and re-queue); jobs whose
        last transition was a lease claim are restored *leased* to the
        recorded agent with a fresh term of grace, so an agent that
        outlived the coordinator keeps its claim -- see
        :meth:`_restore_lease`.
        """
        self._recovering = True
        try:
            for item in pending:
                try:
                    plan = RunPlan.from_dict(item.plan_doc)
                    if item.agent:
                        handle = self._restore_lease(plan, item)
                    else:
                        handle = self.submit(plan, priority=item.priority,
                                             tenant=item.tenant)
                except (KeyError, ValueError, TypeError) as exc:
                    self.recovery_errors.append(
                        f"journal entry {item.plan_hash[:12]}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    self.recovered_jobs.append(handle.job_id)
        finally:
            self._recovering = False

    def _restore_lease(self, plan: RunPlan, item: Any) -> JobHandle:
        """Rebuild one leased job + its agent record from the journal.

        The job comes back ``running`` with its lease intact (fresh
        deadline), the agent record comes back marked ``restored``, and
        the claim is re-journaled so a second crash still knows.  If
        the agent never heartbeats again the normal expiry path takes
        over: the lease expires, the job re-queues, and it resumes
        elsewhere from its checkpoint.
        """
        job = _Job(plan, plan_hash(plan), store_mod.result_key(plan),
                   item.priority, tenant=item.tenant)
        term = (
            item.lease_seconds
            or plan.execution.lease_seconds
            or self.lease_seconds
        )
        with self._lock:
            if item.agent not in self._agents:
                agent = _Agent(item.agent, item.agent, time.monotonic())
                agent.restored = True
                self._agents[item.agent] = agent
            to_publish = self._transition(
                job, "restore", agent=item.agent, lease_seconds=float(term))
        self._ensure_monitor()
        for event in to_publish:
            self.bus.publish(event)
        return JobHandle(self, job)

    def _backend_for(self, job: _Job) -> str:
        """The execution back-end this job runs on.

        The plan's :attr:`~repro.plans.ExecutionPolicy.backend` wins
        when set; otherwise the service default applies.
        """
        return job.plan.execution.backend or self.backend

    def _pop_queued(self) -> "_Job | None":
        """Pop the next queued job (lock held).

        Stale heap entries are discarded in passing: those of jobs no
        longer queued, and every entry of a job but its latest (one
        cancelled while queued and resubmitted is claimed at its
        resubmission's priority and place, not its first's).
        """
        while self._queue:
            _, seq, job = heapq.heappop(self._queue)
            if job.state == "queued" and seq == job.queue_seq:
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._work_ready:
                while True:
                    # While agents are registered the local workers
                    # yield every job to them -- remote execution is
                    # strictly more parallel.  With zero agents (none
                    # ever joined, or all were lost) they take any job.
                    job = None if self._agents else self._pop_queued()
                    if job is not None or self._shutdown:
                        break
                    self._work_ready.wait()
                if job is None:
                    return  # shutdown with nothing locally runnable
                started = self._transition(job, "start")
            for event in started:
                self.bus.publish(event)
            self._execute(job)

    def _execute(self, job: _Job) -> None:
        from repro.core.search import SearchCancelled

        try:
            if self._backend_for(job) == "process":
                result = self._get_pool().run_plan(
                    job.plan,
                    emit=lambda event: self._publish(job, event),
                    cancel_requested=job.cancel_event.is_set,
                    fallback_checkpoint_dir=self._job_checkpoint_dir(job),
                    store_dir=self._shared_store_dir(),
                )
            else:
                result = execute_plan(
                    job.plan,
                    emit=lambda event: self._publish(job, event),
                    should_stop=job.cancel_event.is_set,
                    fallback_checkpoint_dir=self._job_checkpoint_dir(job),
                    store=self.store if self.cache_results else None,
                )
        except SearchCancelled as exc:
            self._finish(job, "cancelled", completed=exc.completed)
        except BaseException as exc:  # noqa: BLE001 -- workers must survive
            self._finish(job, "failed", error=exc,
                         message=f"{type(exc).__name__}: {exc}")
        else:
            try:
                # A process-backend worker encoded a cacheable result
                # already; handle.result() decodes it into the object
                # the thread backend returns, real wall_seconds included.
                encoded = None
                if isinstance(result, store_mod.EncodedResult):
                    encoded = result
                elif self.cache_results and store_mod.is_cacheable(job.plan):
                    encoded = store_mod.EncodedResult.of(
                        store_mod.encode_result(job.plan, result))
                stored = self._stored(job, encoded)
            except BaseException as exc:  # noqa: BLE001 - must terminate
                # encode/put/decode failures (disk full, codec bug) must
                # still land the job in a terminal state: leaving it
                # 'running' would hang every waiter and kill the worker.
                self._finish(job, "failed", error=exc, message=(
                    "result post-processing failed: "
                    f"{type(exc).__name__}: {exc}"))
            else:
                self._finish(job, "done",
                             result_obj=None if result is encoded else result,
                             **stored)

    def _stored(self, job: _Job, encoded: store_mod.EncodedResult | None
                ) -> dict[str, Any]:
        """Store an encoded result when the service caches results;
        returns the ``result_bytes`` and ``encoded`` facts of its
        ``done`` transition."""
        if encoded is None or not self.cache_results:
            return {"encoded": encoded}
        stored = self.store.put(job.result_key, encoded.blob)
        # Decode from the bytes the store keeps, not a second copy.
        return {"result_bytes": stored,
                "encoded": store_mod.EncodedResult(stored, encoded.zeroed)}

    def _finish(self, job: _Job, op: str, **facts: Any) -> None:
        """Apply a run's terminal transition, then publish its events.

        All job fields change under the service lock (so
        :meth:`JobHandle.info` snapshots are never torn), the journal
        entry lands in the same critical section, and the bus sees the
        event only after the lock is released.
        """
        with self._lock:
            events = self._transition(job, op, **facts)
        for item in events:
            self.bus.publish(item)

    def _job_checkpoint_dir(self, job: _Job) -> str | None:
        """Service-level checkpoint fallback, keyed by plan hash."""
        if self.checkpoint_dir is None:
            return None
        import os

        return os.path.join(self.checkpoint_dir, job.plan_hash)

    def _shared_store_dir(self) -> str | None:
        """The persistent store directory, for out-of-process workers.

        A live store handle cannot cross a process boundary, so the
        process backend and remote agents get the directory path and
        rebuild a :class:`~repro.service.store.ResultStore` on it --
        the same shared-filesystem contract as the checkpoint
        directory.  ``None`` when caching is disabled or the store is
        in-memory only (nothing durable to share).
        """
        if not self.cache_results or self.store.directory is None:
            return None
        return str(self.store.directory)

    def _get_pool(self) -> Any:
        """The service's persistent :class:`WorkerPool` (lazily built).

        Sized to the service's worker-thread count: each thread runs
        at most one process-backend job at a time, so ``workers``
        pool slots can never starve a thread.
        """
        from repro.service.pool import WorkerPool

        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(self._pool_size,
                                        name="search-service")
            return self._pool

    def pool_stats(self) -> dict[str, int]:
        """Worker-pool counters for ``/metrics`` (zeros before first use)."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return {
                "pool.dispatch": 0,
                "worker.reuse": 0,
                "worker.spawn": 0,
                "worker.death": 0,
                "workers.alive": 0,
            }
        return pool.stats()
