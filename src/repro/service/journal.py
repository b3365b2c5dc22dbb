"""The job lifecycle, and the crash-consistent journal that records it.

:data:`TRANSITIONS` is the job lifecycle, written once: one row per op,
giving the states the op may leave, the state it enters, the journal
lines it appends and the events it publishes.
``SearchService._transition`` applies a row under the service lock, and
:meth:`JobJournal.fold` replays the journal through the same table.

A :class:`JobJournal` is an append-only JSONL file of those lines:

* ``queued`` -- carries the full canonical plan document, the priority
  and the admitting tenant, so the journal alone can rebuild the
  submission;
* ``leased`` -- a remote agent claimed the job; carries the agent id
  and lease term, so leases survive a coordinator restart (the
  restarted service restores the lease instead of re-queueing, and the
  still-running agent keeps its claim);
* ``lease-expired`` -- the coordinator took a lease back; carries the
  agent id;
* ``running`` / ``done`` / ``failed`` / ``cancelled`` -- state-only
  markers keyed by the job's plan hash; a cache hit's ``done`` line
  also carries the job's tenant, since its hash may have no ``queued``
  line to name one.

Appends are flushed line-by-line, so a SIGKILLed service loses at most
the entry it was writing -- and JSONL tolerates exactly that failure
mode: :func:`JobJournal.replay` simply ignores a torn trailing line.
Combined with the service's per-hash checkpoint fallback and the
content-addressed :class:`~repro.service.store.ResultStore`, the
journal makes ``repro serve`` restart-safe: on startup the service
replays the journal, re-queues every job whose last recorded state is
not terminal, and those jobs then *resume* from their checkpoints
instead of restarting (see :meth:`~repro.service.SearchService`
``recover`` and the ``service-smoke`` CI job, which SIGKILLs a live
server mid-job and asserts the restarted one finishes the work
byte-identically).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.events import (
    CacheHit,
    Event,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobLeased,
    JobQueued,
    JobStarted,
    LeaseExpired,
)
from repro.service.metrics import ANONYMOUS_TENANT

#: Journal line schema tag (bumped on incompatible layout changes).
JOURNAL_SCHEMA = 1

#: Default journal filename, conventionally inside the result store's
#: directory (one directory = one durable service state: results +
#: journal, which is also what lets ``repro store gc`` find the
#: journal from ``--store-dir`` alone).
JOURNAL_FILENAME = "journal.jsonl"


@dataclass(frozen=True)
class Transition:
    """One row of :data:`TRANSITIONS`.

    Attributes:
        leaves: the states the op may leave; ``None`` stands for a job
            the service does not know yet.
        enters: the state the op enters.
        lines: the journal ops it appends, in order.
        events: the events it publishes, in order, as pairs of an event
            class and a message template.  A template is formatted
            (:meth:`str.format_map`) over the transition's facts: the
            ``job`` after the op, the lease's ``agent`` (the one taking
            it or the one losing it), ``recovered`` (a marker while the
            service recovers its journal), ``where`` (an agent's run
            names itself there; empty for a local one) and whatever
            else the caller names.
    """

    leaves: tuple[str | None, ...]
    enters: str
    lines: tuple[str, ...]
    events: tuple[tuple[type[Event], str], ...]


#: The job lifecycle: every change of a job's state is one of these
#: rows, applied by ``SearchService._transition``.  A row that leaves
#: ``running`` ends the run's lease, if it had one.
TRANSITIONS: dict[str, Transition] = {
    # A plan the service does not know.
    "submit": Transition(
        (None,), "queued", ("queued",),
        ((JobQueued, "queued at priority {job.priority}{recovered}"),)),
    # A failed or cancelled plan submitted again: its checkpointed
    # shards resume.
    "resubmit": Transition(
        ("failed", "cancelled"), "queued", ("queued",),
        ((JobQueued,
          "resubmitted; checkpointed shards will resume{recovered}"),)),
    # A local worker takes the job.
    "start": Transition(
        ("queued",), "running", ("running",),
        ((JobStarted, "run {job.runs} started"),)),
    # An agent takes the job under a lease.
    "claim": Transition(
        ("queued",), "running", ("leased",),
        ((JobLeased, "leased to agent {agent} for {lease_seconds:g}s"),
         (JobStarted, "run {job.runs} started (agent {agent})"))),
    # Journal recovery of a job whose last line was a lease.
    "restore": Transition(
        (None,), "running", ("queued", "leased"),
        ((JobQueued,
          "lease restored; awaiting the agent's heartbeat{recovered}"),
         (JobLeased, "lease restored to agent {agent} from the journal "
                     "({lease_seconds:g}s grace)"))),
    # A lease ran out: the job resumes from its checkpoint elsewhere.
    "expire": Transition(
        ("running",), "queued", ("lease-expired", "queued"),
        ((LeaseExpired, "lease held by agent {agent} expired: {reason}"),
         (JobQueued, "lease expired; re-queued to resume from its "
                     "checkpoint (was agent {agent})"))),
    # A run ends: on a local worker, or by an agent's upload.
    "done": Transition(
        ("running",), "done", ("done",),
        ((JobCompleted, "completed{where}"),)),
    # A submission answered by a stored result.
    "cache-hit": Transition(
        (None, "failed", "cancelled"), "done", ("done",),
        ((CacheHit, "identical plan already solved; returning stored "
                    "result"),
         (JobCompleted, "served from the result store"))),
    "failed": Transition(
        ("running",), "failed", ("failed",),
        ((JobFailed, "{message}{where}"),)),
    "cancelled": Transition(
        ("running",), "cancelled", ("cancelled",),
        ((JobCancelled, "cancelled after {completed} completed "
                        "unit(s){where}; checkpoints (if configured) "
                        "preserved"),)),
    # A cancel, or a shutdown, of a job still queued.
    "cancel-queued": Transition(
        ("queued",), "cancelled", ("cancelled",),
        ((JobCancelled, "{message}"),)),
    # A lease ran out after a cancel request or a shutdown: the job
    # ends there instead of re-queueing.
    "expire-cancelled": Transition(
        ("running",), "cancelled", ("lease-expired", "cancelled"),
        ((LeaseExpired, "lease held by agent {agent} expired: {reason}"),
         (JobCancelled, "{message}"))),
}

#: Job lifecycle states, in the order the table first enters them.
JOB_STATES = tuple(dict.fromkeys(row.enters for row in TRANSITIONS.values()))

#: The states a run ends in.  Only a submission leaves one: ``resubmit``
#: and ``cache-hit`` leave ``failed`` and ``cancelled``, and a ``done``
#: job answers every later submission of its plan.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Ops a journal line may carry, in the order the table first appends
#: them.
JOURNAL_OPS = tuple(dict.fromkeys(
    line for row in TRANSITIONS.values() for line in row.lines))

#: The state each journal op records: the state the rows ending with it
#: enter.  ``lease-expired`` ends no row; it ends the lease of a job
#: that stays ``running`` until the line after it says where it went.
_LINE_STATES = {
    **{row.lines[-1]: row.enters for row in TRANSITIONS.values()},
    "lease-expired": "running",
}


@dataclass
class PendingJob:
    """One job as the journal last recorded it (see :meth:`JobJournal.fold`).

    Attributes:
        plan_doc: the canonical plan document of the latest ``queued``
            line (parse with :meth:`repro.plans.RunPlan.from_dict`);
            ``None`` when no line carried one.
        plan_hash: the job's canonical plan hash.
        priority: the priority of the latest ``queued`` line.
        last_state: the state the last line recorded (one of
            :data:`JOB_STATES`); a job not in a terminal state resumes
            from its per-hash checkpoints after a restart when the
            service has a checkpoint root.
        agent: the agent holding the job's lease, when the last line
            was a ``leased`` one; the restarted coordinator restores
            the lease to it (with a fresh grace deadline) instead of
            re-queueing, so a still-running agent keeps its claim.
        lease_seconds: that lease's term (``None`` without a lease).
        tenant: the tenant of the latest ``queued`` line (``None`` for
            anonymous submissions or pre-tenancy journals); a
            recovering service re-queues the job under the same
            tenant, so per-tenant accounting and quotas survive
            restarts.
    """

    plan_doc: dict[str, Any] | None
    plan_hash: str
    priority: int
    last_state: str
    agent: str | None = None
    lease_seconds: float | None = None
    tenant: str | None = None


class JobJournal:
    """Append-only JSONL log of service job transitions.

    Parameters:
        path: the journal file; created (with parents) on first append.

    Appends are serialized by an internal lock and flushed to the OS
    immediately, so a process crash (the SIGKILL case the journal
    exists for) never loses an acknowledged entry.  :meth:`close` turns
    further appends into no-ops rather than errors -- teardown paths
    and crash-simulation tests can drop the journal without racing
    in-flight workers.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None
        self._closed = False

    def record(
        self,
        op: str,
        plan_hash: str,
        job_id: str,
        priority: int | None = None,
        plan_doc: dict[str, Any] | None = None,
        note: str | None = None,
        agent: str | None = None,
        lease_seconds: float | None = None,
        tenant: str | None = None,
    ) -> None:
        """Append one transition line (no-op after :meth:`close`).

        ``queued`` entries must carry ``plan_doc`` and ``priority`` --
        they are what replay rebuilds submissions from (and may carry
        the admitting ``tenant``, which is what makes per-tenant
        accounting crash-durable, as does the ``tenant`` of a cache
        hit's ``done`` entry); ``leased`` entries must carry
        ``agent`` (and should carry ``lease_seconds``) so a restarted
        coordinator can restore the lease; the other ops are state
        markers.
        """
        if op not in JOURNAL_OPS:
            raise ValueError(
                f"unknown journal op {op!r}; expected one of "
                + ", ".join(JOURNAL_OPS)
            )
        if op == "queued" and plan_doc is None:
            raise ValueError("'queued' journal entries must carry the plan")
        if op == "leased" and agent is None:
            raise ValueError("'leased' journal entries must carry the agent")
        entry: dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "op": op,
            "hash": plan_hash,
            "job": job_id,
        }
        if priority is not None:
            entry["priority"] = priority
        if plan_doc is not None:
            entry["plan"] = plan_doc
        if note is not None:
            entry["note"] = note
        if agent is not None:
            entry["agent"] = agent
        if lease_seconds is not None:
            entry["lease_seconds"] = float(lease_seconds)
        if tenant is not None:
            entry["tenant"] = tenant
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            if self._closed:
                return
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._repair_torn_tail()
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()

    def _repair_torn_tail(self) -> None:
        """Drop a torn trailing line before the first append.

        A SIGKILL can leave the file ending mid-line; replay tolerates
        that, but appending straight after the partial text would glue
        the new entry onto it -- *mid-file* corruption that replay
        rightly refuses, permanently bricking restarts.  The torn
        fragment was never durably acknowledged (that is the journal's
        documented loss bound), so truncating it restores an all-valid
        file before new entries land.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line exists
        with open(self.path, "rb+") as repair:
            repair.truncate(keep)

    def close(self) -> None:
        """Close the file; later :meth:`record` calls become no-ops."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JobJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit closes the journal."""
        self.close()

    # -- replay ---------------------------------------------------------------

    @staticmethod
    def replay(path: str | Path) -> list[dict[str, Any]]:
        """Parse a journal file into its entry list.

        Tolerates the one corruption a crash can cause -- a torn final
        line -- by ignoring any line that fails to parse as a JSON
        object; a malformed line *followed by* well-formed ones would
        mean outside interference and raises instead.
        """
        entries: list[dict[str, Any]] = []
        bad_at: int | None = None
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("journal lines must be JSON objects")
            except ValueError:
                bad_at = number
                continue
            if bad_at is not None:
                raise ValueError(
                    f"{path}: line {bad_at} is corrupt but line {number} "
                    "parses; only a torn *trailing* line is recoverable"
                )
            if entry.get("schema") != JOURNAL_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported journal schema "
                    f"{entry.get('schema')!r} on line {number}"
                )
            entries.append(entry)
        return entries

    @staticmethod
    def fold(
        entries: Iterable[dict[str, Any]],
    ) -> tuple[dict[str, PendingJob], dict[str, dict[str, int]]]:
        """Replay entries through :data:`TRANSITIONS`: jobs and tenants.

        Each line moves its plan hash's job to the state its op records
        (the state the table's rows ending with that op enter).  Returns
        one :class:`PendingJob` per plan hash, in first-seen order, and
        per-tenant counters: ``submitted`` counts ``queued`` lines
        (submissions, resubmissions, lease re-queues and recoveries)
        and ``done`` / ``failed`` / ``cancelled`` the lines entering
        those states.  A line that names a tenant (a ``queued`` line, or
        a cache hit's ``done``) counts under it, any other under the
        tenant of its hash's latest ``queued`` line
        (:data:`~repro.service.metrics.ANONYMOUS_TENANT` when none named
        one).

        Never raises on a line: the journal is replayed after crashes,
        so a line out of order still moves its job, and one missing a
        field (a ``queued`` line without a plan, a ``leased`` one
        without an agent) moves it without that field.
        """
        jobs: dict[str, PendingJob] = {}
        owners: dict[str, str] = {}
        tenants: dict[str, dict[str, int]] = {}
        for entry in entries:
            digest = entry.get("hash")
            op = entry.get("op")
            if not isinstance(digest, str) or op not in JOURNAL_OPS:
                continue
            state = _LINE_STATES[op]
            job = jobs.get(digest)
            if job is None:
                job = jobs[digest] = PendingJob(None, digest, 0, state)
            job.last_state = state
            agent = entry.get("agent")
            lease = entry.get("lease_seconds")
            tenant = entry.get("tenant")
            named = tenant if isinstance(tenant, str) and tenant else None
            leased = op == "leased" and isinstance(agent, str) and agent
            job.agent = agent if leased else None
            job.lease_seconds = (
                float(lease) if leased and isinstance(lease, (int, float))
                else None
            )
            if op == "queued":
                plan = entry.get("plan")
                if isinstance(plan, dict):
                    job.plan_doc = plan
                try:
                    job.priority = int(entry.get("priority", 0))
                except (TypeError, ValueError):
                    job.priority = 0
                job.tenant = named
                owners[digest] = named or ANONYMOUS_TENANT
                counter = "submitted"
            elif state in TERMINAL_STATES:
                counter = state
            else:
                continue
            counts = tenants.setdefault(
                named or owners.get(digest, ANONYMOUS_TENANT),
                dict.fromkeys(("submitted", *TERMINAL_STATES), 0))
            counts[counter] += 1
        return jobs, tenants

    @staticmethod
    def pending_jobs(entries: Iterable[dict[str, Any]]) -> list[PendingJob]:
        """The jobs a restart must re-queue, in first-seen order.

        Those :meth:`fold` leaves in a non-terminal state with a plan
        document to rebuild them from -- the service died before they
        finished.  A job whose last line was a ``leased`` one carries
        its lease holder.
        """
        jobs, _ = JobJournal.fold(entries)
        return [
            job for job in jobs.values()
            if job.last_state not in TERMINAL_STATES
            and job.plan_doc is not None
        ]
