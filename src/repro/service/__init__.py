"""Search-as-a-service: queued, deduped, cancellable plan execution.

This package turns the one-shot execution engine into a long-lived
service:

* :class:`SearchService` -- ``submit(plan) -> JobHandle`` with a
  priority queue, a bounded worker pool, job lifecycle states
  (queued / running / cancelled / failed / done), cooperative
  cancellation that checkpoints, and in-flight dedup of identical
  plans;
* :class:`ResultStore` -- a content-addressed store keyed by
  :func:`~repro.service.store.result_key` (the plan hash, or a
  ``search`` plan's shard hash), so resubmitting an identical plan
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
  execution backend, the federation agents and
  :class:`~repro.core.evaluator.ParallelEvaluator`'s child
  evaluations all dispatch onto it, so GIL-bound work scales with
  cores without paying one process spawn per unit of work.  A worker
  that dies mid-job surfaces as :class:`WorkerDied`, a child exception
  that cannot be pickled back as :class:`WorkerTaskError`;
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

The names are exported lazily: ``from repro.service import X`` loads
only ``X``'s module, so importing :class:`ServiceClient` loads neither
the gateway nor NumPy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.service.agent": ("WorkerAgent", "run_agent"),
    "repro.service.client": (
        "JobTimeoutError",
        "ServiceClient",
        "ServiceError",
    ),
    "repro.service.executor": ("execute_plan",),
    "repro.service.gateway": ("Gateway", "GatewayRunner", "run_gateway"),
    "repro.service.journal": ("JOB_STATES", "JobJournal", "PendingJob"),
    "repro.service.metrics": ("ANONYMOUS_TENANT", "MetricsRegistry"),
    "repro.service.pool": ("WorkerDied", "WorkerPool", "WorkerTaskError"),
    "repro.service.tenants": (
        "QuotaExceededError",
        "Tenant",
        "TenantAuthError",
        "TenantRegistry",
        "fair_share_priority",
        "tenant_accounting",
    ),
    "repro.service.service": (
        "JobCancelledError",
        "JobHandle",
        "RemoteJobError",
        "SearchService",
        "StaleLeaseError",
        "UnknownAgentError",
        "UnknownJobError",
    ),
    "repro.service.store": ("ResultStore", "is_cacheable"),
})
