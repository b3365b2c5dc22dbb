"""The federated worker agent: claim, lease, execute, report, survive.

:class:`WorkerAgent` (the ``repro agent`` process) connects to a
coordinator -- a ``repro serve`` endpoint -- over the plain HTTP JSON
``/agents`` protocol and turns it into a distributed execution fleet:

* **register** under a stable agent id (idempotent, so re-registering
  after a network partition or coordinator restart revives any lease
  the coordinator's journal restored to that id);
* **claim** queued jobs, receiving the canonical plan document, the
  lease terms, and the checkpoint directory to snapshot under (a
  shared-filesystem path -- that is what lets another agent resume the
  work if this one dies);
* **execute** each claimed job on the agent's one-worker
  :class:`~repro.service.pool.WorkerPool` via
  :meth:`~repro.service.pool.WorkerPool.run_plan`, as the service's
  process backend does.
  The child's orphan detection doubles as the agent's dead-man switch:
  if the agent process is SIGKILLed, the job child notices its parent
  pid change, checkpoints, and exits -- so the very failure the lease
  protocol re-queues the job for also preserves the progress the next
  holder resumes from;
* **heartbeat** while holding leases, renewing them at the advertised
  interval with bounded exponential backoff on coordinator hiccups;
  a heartbeat answer naming the job as ``lost`` means the lease
  expired -- the agent cancels the child and *discards* the work
  (the coordinator already re-queued the job; byte-identical results
  make double execution safe and the coordinator's 409 replies make
  double reporting impossible);
* **stream** typed events back in batches (advisory telemetry -- the
  ``/result`` bytes are the contract, so undeliverable batches are
  dropped after retries rather than blocking execution);
* **upload** the terminal outcome under the lease; a 409 means some
  other holder finished the job and the upload is happily discarded.

Named :func:`repro.service.faults.crash_point` calls mark the
interesting instants to die (just after claiming, mid event stream,
just before completing) for the chaos test matrix.
"""

from __future__ import annotations

import http.client
import os
import queue
import signal
import threading
import urllib.error
from typing import Any

from repro.plans import RunPlan
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import crash_point

#: Seconds an idle agent sleeps between claim attempts.
DEFAULT_POLL_SECONDS = 0.5

#: Event-upload batches are capped at this many events per POST.
_EVENT_BATCH = 64

#: Consecutive delivery failures after which an event batch is dropped.
_EVENT_RETRIES = 3


class WorkerAgent:
    """One agent process's lifecycle against a coordinator.

    Parameters:
        coordinator: the coordinator's base URL
            (e.g. ``http://127.0.0.1:8765``).
        name: human-readable agent name (lands in ``AgentJoined`` /
            ``/agents`` listings); defaults to ``host-pid``.
        agent_id: stable identity to (re-)register under; ``None``
            lets the coordinator mint one at first registration.
        poll_seconds: idle sleep between claim attempts (claims also
            count as agent heartbeats, so this must stay well under
            the lease term -- it does, by orders of magnitude).
        max_jobs: exit after completing this many jobs (``None`` runs
            until :meth:`stop`); chaos tests use 1-job agents.
        client: a pre-built :class:`ServiceClient` (tests inject
            flaky ones); default builds one with retrying enabled.
    """

    def __init__(
        self,
        coordinator: str,
        name: str | None = None,
        agent_id: str | None = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        max_jobs: int | None = None,
        client: ServiceClient | None = None,
    ):
        if poll_seconds <= 0:
            raise ValueError(
                f"poll_seconds must be positive, got {poll_seconds}")
        self.coordinator = coordinator
        self.name = name or f"{os.uname().nodename}-{os.getpid()}"
        self.agent_id = agent_id
        self.poll_seconds = poll_seconds
        self.max_jobs = max_jobs
        self.client = client if client is not None else ServiceClient(
            coordinator, timeout=30.0, max_retries=4, backoff=0.1)
        self.heartbeat_seconds = 5.0  # overwritten by registration
        #: Jobs this agent finished (any outcome), for tests/benches.
        self.jobs_done = 0
        self._stop = threading.Event()
        #: Lazily-built one-worker pool jobs execute on.  Persistent
        #: across claims: the 40th job of a long-lived agent runs on a
        #: warm worker instead of paying a fresh spawn.
        self._pool: Any = None

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Ask the claim loop to exit after the current job."""
        self._stop.set()

    def register(self) -> str:
        """(Re-)register with the coordinator; returns the agent id.

        Adopts the coordinator's advertised heartbeat interval.  Safe
        to call repeatedly -- it is how the agent recovers from both
        coordinator restarts and its own deregistration after a
        heartbeat lapse.
        """
        terms = self.client.register_agent(
            name=self.name, agent_id=self.agent_id)
        self.agent_id = terms["agent_id"]
        self.heartbeat_seconds = float(terms["heartbeat_seconds"])
        return self.agent_id

    def run(self) -> int:
        """Register and serve claims until :meth:`stop` (or max_jobs).

        Returns the number of jobs executed.  Coordinator outages are
        survived, not propagated: connection failures back off and
        retry, and an ``unknown agent`` answer (the coordinator forgot
        us -- restart without journal, or heartbeat lapse) triggers
        re-registration under the same id.
        """
        self.register()
        idle_sleep = self.poll_seconds
        while not self._stop.is_set():
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
            try:
                claim = self.client.claim(self.agent_id)
            except ServiceError as exc:
                if exc.status == 404:
                    self.register()
                    continue
                raise
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError, http.client.HTTPException):
                # Coordinator unreachable even after client retries:
                # keep trying (it may be restarting around its journal).
                self._stop.wait(min(idle_sleep * 2, 5.0))
                continue
            if claim is None:
                self._stop.wait(idle_sleep)
                continue
            crash_point("agent.claimed")
            self._run_job(claim)
            self.jobs_done += 1
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._leave()
        return self.jobs_done

    def _leave(self) -> None:
        """Best-effort graceful deregistration."""
        if self.agent_id is None:
            return
        try:
            self.client.agent_leave(self.agent_id)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass

    # -- one job -------------------------------------------------------------

    def _run_job(self, claim: dict[str, Any]) -> None:
        """Execute one claimed job end to end (blocking)."""
        job_id = claim["job_id"]
        plan = RunPlan.from_dict(claim["plan"])
        heartbeat = float(claim.get("heartbeat_seconds")
                          or self.heartbeat_seconds)
        lost = threading.Event()      # lease gone: drop everything
        cancel = threading.Event()    # cooperative cancel requested
        done = threading.Event()      # job finished: stop the threads
        events: queue.Queue = queue.Queue()

        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(job_id, heartbeat, lost, cancel, done),
            name=f"agent-heartbeat-{job_id}", daemon=True)
        sender = threading.Thread(
            target=self._event_sender, args=(job_id, events, lost, done),
            name=f"agent-events-{job_id}", daemon=True)
        beat.start()
        sender.start()
        try:
            outcome = self._execute(plan, claim, events, lost, cancel)
        finally:
            done.set()
            beat.join()
            sender.join()
        if lost.is_set():
            return  # the coordinator re-queued the job; drop the work
        crash_point("agent.complete")
        self._upload_outcome(job_id, outcome)

    def _execute(self, plan: RunPlan, claim: dict[str, Any],
                 events: queue.Queue, lost: threading.Event,
                 cancel: threading.Event) -> tuple[str, Any]:
        """Run the plan on the agent's pool worker; returns ``(tag, value)``.

        ``("done", result)`` on success (what
        :meth:`~repro.service.pool.WorkerPool.run_plan` returns),
        ``("cancelled", completed_count)`` on cooperative stop (which
        the *lost* path also takes -- the child checkpoints either
        way), ``("failed", message)`` otherwise.  The worker process
        persists across claims (see
        :class:`~repro.service.pool.WorkerPool`); its parent-death
        watch doubles as the dead-man switch -- a SIGKILLed agent
        orphans the worker, whose next poll checkpoints and exits.
        """
        from repro.core.search import SearchCancelled
        from repro.service.pool import WorkerPool

        if self._pool is None:
            self._pool = WorkerPool(1, name=f"agent-{self.name}")

        def emit(event: Any) -> None:
            crash_point("agent.event")
            events.put(event.to_dict())

        try:
            result = self._pool.run_plan(
                plan,
                emit=emit,
                cancel_requested=lambda: (cancel.is_set() or lost.is_set()
                                          or self._stop.is_set()),
                fallback_checkpoint_dir=claim.get("checkpoint_dir"),
                store_dir=claim.get("store_dir"),
            )
        except SearchCancelled as exc:
            return ("cancelled", exc.completed)
        except BaseException as exc:  # noqa: BLE001 - must reach the wire
            return ("failed", f"{type(exc).__name__}: {exc}")
        return ("done", result)

    def _upload_outcome(self, job_id: str,
                        outcome: tuple[str, Any]) -> None:
        """Report the terminal outcome under the lease (retrying).

        A 409 answer means the lease moved on and someone else owns
        the finish -- the upload is discarded without complaint; 404
        (agent forgotten) re-registers once and retries.  A cacheable
        result uploads as its payload with the scrubbed values put
        back; any other result uploads no payload.
        """
        from repro.service.store import EncodedResult

        tag, value = outcome
        if tag == "done":
            kwargs: dict[str, Any] = {
                "payload": (value.payload()
                            if isinstance(value, EncodedResult) else None)}
        elif tag == "cancelled":
            kwargs = {"completed": int(value)}
        else:
            kwargs = {"message": str(value)}
        for attempt in (1, 2):
            try:
                self.client.agent_complete(
                    self.agent_id, job_id, tag, **kwargs)
                return
            except ServiceError as exc:
                if exc.status == 409:
                    return  # stale lease: finished elsewhere
                if exc.status == 404 and attempt == 1:
                    try:
                        self.register()
                        continue
                    except Exception:  # noqa: BLE001
                        return
                return
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError, http.client.HTTPException):
                return  # client retries exhausted; lease will expire

    # -- background threads --------------------------------------------------

    def _heartbeat_loop(self, job_id: str, interval: float,
                        lost: threading.Event, cancel: threading.Event,
                        done: threading.Event) -> None:
        """Renew the job's lease until the job finishes.

        Transient delivery failures retry at an exponentially growing
        pace (never beyond the interval itself); a ``lost`` directive
        or an unrecoverable answer sets the ``lost`` flag, which makes
        the executing child stop at its next boundary.
        """
        failures = 0
        while not done.wait(interval if failures == 0 else
                            min(interval, 0.05 * (2 ** failures))):
            crash_point("agent.heartbeat")
            try:
                answer = self.client.agent_heartbeat(self.agent_id, [job_id])
            except ServiceError as exc:
                if exc.status == 404:
                    try:
                        self.register()
                    except Exception:  # noqa: BLE001
                        failures += 1
                    continue
                failures += 1
                continue
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError, http.client.HTTPException):
                failures += 1
                continue
            failures = 0
            if job_id in answer.get("lost", []):
                lost.set()
                return
            if job_id in answer.get("cancel", []):
                cancel.set()

    def _event_sender(self, job_id: str, events: queue.Queue,
                      lost: threading.Event,
                      done: threading.Event) -> None:
        """Drain the event queue into batched ``/events`` POSTs.

        Events are advisory (the stored result bytes are the
        contract), so a batch that keeps failing is dropped rather
        than allowed to wedge the pipeline; a 409 means the lease is
        gone and the whole stream stops.
        """
        while True:
            batch: list[dict[str, Any]] = []
            try:
                batch.append(events.get(timeout=0.05))
            except queue.Empty:
                if done.is_set() and events.empty():
                    return
                continue
            while len(batch) < _EVENT_BATCH:
                try:
                    batch.append(events.get_nowait())
                except queue.Empty:
                    break
            if lost.is_set():
                continue  # drain silently; nobody wants these anymore
            for _ in range(_EVENT_RETRIES):
                try:
                    self.client.agent_events(self.agent_id, job_id, batch)
                    break
                except ServiceError as exc:
                    if exc.status == 409:
                        lost.set()
                    break  # 4xx answers are final; 5xx already retried
                except (urllib.error.URLError, ConnectionError,
                        TimeoutError, OSError,
                        http.client.HTTPException):
                    continue


def run_agent(
    coordinator: str,
    name: str | None = None,
    agent_id: str | None = None,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    max_jobs: int | None = None,
    handle_signals: bool = True,
) -> int:
    """Run a :class:`WorkerAgent` to completion (the CLI entry point).

    With ``handle_signals`` (main-thread only), SIGTERM and SIGINT
    request a graceful stop: the current job finishes, the agent
    deregisters, and its leases release cleanly instead of having to
    expire.  Returns the number of jobs executed.
    """
    agent = WorkerAgent(coordinator, name=name, agent_id=agent_id,
                        poll_seconds=poll_seconds, max_jobs=max_jobs)
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: agent.stop())
    return agent.run()
