"""Search-as-a-service: queued, deduped, cancellable plan execution.

This package turns the one-shot execution engine into a long-lived
service:

* :class:`SearchService` -- ``submit(plan) -> JobHandle`` with a
  priority queue, a bounded worker pool, job lifecycle states
  (queued / running / cancelled / failed / done), cooperative
  cancellation that checkpoints, and in-flight dedup of identical
  plans;
* :class:`ResultStore` -- a content-addressed store keyed by
  :func:`repro.plans.plan_hash`, so resubmitting an identical plan
  returns the stored result byte-identically without re-running;
* :func:`execute_plan` -- the single workload dispatcher every
  execution surface shares (:meth:`repro.api.Session.run` is a thin
  synchronous wrapper over a one-job service);
* :class:`JobJournal` -- an append-only, crash-consistent JSONL log of
  job transitions; a restarted service replays it and re-queues every
  unfinished job, which then resumes from its per-hash checkpoints;
* :class:`WorkerPool` (:mod:`~repro.service.pool`) -- the one process
  runtime every parallel surface shares: long-lived worker processes
  with typed event-pipe framing, cooperative cancellation and
  parent-death detection.  Campaign shard fan-out, the ``process``
  execution backend (:mod:`~repro.service.workers`) and the
  federation agents all dispatch onto it, so GIL-bound searches scale
  with cores without paying one process spawn per unit of work;
* :class:`Gateway` (``repro serve``) / :class:`ServiceClient` -- the
  stdlib-asyncio HTTP front end and its client (``repro submit``).
  The gateway serves the JSON wire surface plus Server-Sent Events
  and long-poll event delivery, API-key tenancy with quotas and
  fair-share queuing (:class:`TenantRegistry`), backpressure, a
  ``/metrics`` endpoint (:class:`MetricsRegistry`), and a graceful
  drain on ``POST /shutdown``, SIGTERM or Ctrl-C;
* :class:`WorkerAgent` (``repro agent``) -- the federation worker: it
  claims jobs from a coordinator under journal-backed *leases*, renews
  them via heartbeats, executes through the process backend, and
  streams events/results back; a missed lease re-queues the job, which
  resumes from its checkpoint on another agent (or a local worker)
  with byte-identical results (:mod:`~repro.service.faults` provides
  the deterministic crash points the chaos tests kill agents with).
"""

from repro.service.agent import WorkerAgent, run_agent
from repro.service.client import JobTimeoutError, ServiceClient, ServiceError
from repro.service.executor import execute_plan
from repro.service.gateway import Gateway, GatewayRunner, run_gateway
from repro.service.journal import JobJournal, PendingJob
from repro.service.metrics import ANONYMOUS_TENANT, MetricsRegistry
from repro.service.pool import WorkerDied, WorkerPool
from repro.service.tenants import (
    QuotaExceededError,
    Tenant,
    TenantAuthError,
    TenantRegistry,
    fair_share_priority,
    tenant_accounting,
)
from repro.service.service import (
    JOB_STATES,
    JobCancelledError,
    JobHandle,
    RemoteJobError,
    SearchService,
    StaleLeaseError,
    UnknownAgentError,
    UnknownJobError,
)
from repro.service.store import ResultStore, is_cacheable
from repro.service.workers import ProcessWorkerError, run_job_in_process

__all__ = [
    "ANONYMOUS_TENANT",
    "Gateway",
    "GatewayRunner",
    "JOB_STATES",
    "JobCancelledError",
    "JobHandle",
    "JobJournal",
    "JobTimeoutError",
    "MetricsRegistry",
    "PendingJob",
    "ProcessWorkerError",
    "QuotaExceededError",
    "RemoteJobError",
    "ResultStore",
    "SearchService",
    "ServiceClient",
    "ServiceError",
    "StaleLeaseError",
    "Tenant",
    "TenantAuthError",
    "TenantRegistry",
    "UnknownAgentError",
    "UnknownJobError",
    "WorkerAgent",
    "WorkerDied",
    "WorkerPool",
    "execute_plan",
    "fair_share_priority",
    "is_cacheable",
    "run_agent",
    "run_job_in_process",
    "tenant_accounting",
]
