"""Request limits and the admission path of the HTTP front end.

:mod:`repro.service.gateway` serves a :class:`SearchService` over HTTP
(``repro serve``).  This module holds the parts of that front end's
policy that do not depend on asyncio, so they can be read and tested
on their own:

* the **request limits** -- a body larger than :data:`MAX_BODY_BYTES`
  is refused with ``413`` before it is read
  (:func:`validate_content_length`), and a client that stalls
  mid-request for :data:`REQUEST_TIMEOUT_SECONDS` is cut off with
  ``408``;
* the ``/health`` and ``/jobs/<id>/events`` JSON documents
  (:func:`health_payload`, :func:`events_payload`);
* :func:`admit_submission`, the one path every submission passes:
  tenant authentication (401/403), plan-hash dedup, per-tenant quotas
  (429 + ``Retry-After``), accept-queue backpressure
  (:class:`BackpressureError`, 503) and fair-share priority weighting,
  and :func:`require_tenant` for the other job routes.
"""

from __future__ import annotations

from typing import Any

from repro.plans import RunPlan, plan_hash
from repro.service.journal import TRANSITIONS
from repro.service.service import JobHandle, SearchService
from repro.service.tenants import (
    TenantRegistry,
    api_key_from_headers,
    check_quota,
    fair_share_priority,
)

#: Largest request body the front end accepts (413 beyond this).
#: Plans are small JSON documents; remote-agent result uploads are the
#: biggest legitimate bodies and sit far below this.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Read timeout for one request, seconds (408 when a client stalls
#: mid-body; idle keep-alive connections are just closed).
REQUEST_TIMEOUT_SECONDS = 30.0


class BodyTooLargeError(RuntimeError):
    """A request body exceeds :data:`MAX_BODY_BYTES` (HTTP 413).

    Deliberately *not* a ``ValueError``: route handlers map
    ``ValueError`` to 400, and an oversized body must surface as 413
    even from inside those handlers.
    """


def validate_content_length(raw: str | None,
                            limit: int = MAX_BODY_BYTES) -> int:
    """Parse and bound a ``Content-Length`` header value.

    Returns the length (0 for a missing header).  Raises
    :class:`ValueError` for non-integer or negative values (HTTP 400)
    and :class:`BodyTooLargeError` beyond ``limit`` (HTTP 413) --
    *before* any body byte is read, so oversized uploads cost nothing.
    """
    if raw is None:
        return 0
    try:
        length = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"invalid Content-Length {raw!r}") from None
    if length < 0:
        raise ValueError(f"invalid Content-Length {raw!r}")
    if length > limit:
        raise BodyTooLargeError(
            f"request body of {length} bytes exceeds the {limit}-byte limit"
        )
    return length


def health_payload(service: SearchService) -> dict[str, Any]:
    """The ``/health`` JSON document."""
    states: dict[str, int] = {}
    for handle in service.jobs():
        state = handle.state
        states[state] = states.get(state, 0) + 1
    return {"status": "ok", "jobs": states,
            "agents": len(service.agents()),
            "store_entries": len(service.store)}


def events_payload(handle: JobHandle, since: int) -> dict[str, Any]:
    """The ``/jobs/<id>/events`` JSON page (long-polls re-read it).

    The state is read *before* the event log: the service appends a
    job's final events and flips it to a terminal state under one lock
    hold, so a page whose ``state`` is terminal is guaranteed to carry
    the complete tail of the log.  Read the other way round, a client
    could see ``"state": "done"`` with the completion events missing
    and stop polling one page early.
    """
    state = handle.state
    events = handle.events(since=since)
    return {
        "job_id": handle.job_id,
        "state": state,
        "since": since,
        "next": since + len(events),
        "events": [e.to_dict() for e in events],
    }


class BackpressureError(RuntimeError):
    """The service's accept queue is saturated (HTTP 503).

    Attributes:
        retry_after: suggested client wait before retrying, seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def admit_submission(
    service: SearchService,
    tenants: TenantRegistry | None,
    headers: dict[str, str],
    plan: RunPlan,
    priority: int,
    max_pending: int | None = None,
) -> tuple[JobHandle, bool]:
    """The one admission path every submission goes through.

    Runs, in order: tenant authentication (:class:`TenantAuthError`
    -> 401/403), dedup short-circuit (a plan the service already
    tracks as queued/running/done coalesces regardless of quotas -- it
    adds no load), per-tenant quota checks
    (:class:`QuotaExceededError` -> 429), service-wide backpressure
    (``max_pending`` queued jobs -> :class:`BackpressureError` ->
    503), fair-share priority weighting, and finally
    :meth:`SearchService.submit`.  Returns ``(handle, deduped)``,
    where ``deduped`` means the service already knew this plan (the
    wire field old clients rely on).
    """
    tenant = None
    if tenants is not None:
        tenant = tenants.authenticate(api_key_from_headers(headers))
    tenant_name = None if tenant is None else tenant.name
    existing = service.job_by_hash(plan_hash(plan))
    if (existing is not None
            and existing.state not in TRANSITIONS["resubmit"].leaves):
        # Coalesce: the service hands back the job it already tracks,
        # so this submission adds no load and bypasses quota checks.
        return service.submit(plan, priority=priority,
                              tenant=tenant_name), True
    effective = priority
    if tenant is not None:
        load = service.tenant_load(tenant_name)
        check_quota(tenant, load["queued"], load["running"])
        effective = fair_share_priority(
            priority, tenant.weight, load["queued"] + load["running"])
    if max_pending is not None and service.queued_count() >= max_pending:
        raise BackpressureError(
            f"accept queue is full ({max_pending} queued jobs); "
            "retry shortly"
        )
    handle = service.submit(plan, priority=effective, tenant=tenant_name)
    return handle, existing is not None


def require_tenant(tenants: TenantRegistry | None,
                   headers: dict[str, str]) -> None:
    """Authenticate a non-submit job route when tenancy is enabled.

    No-op without a registry (open mode).  Raises
    :class:`TenantAuthError` subclasses for missing/unknown keys.
    """
    if tenants is not None:
        tenants.authenticate(api_key_from_headers(headers))
