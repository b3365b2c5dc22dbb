"""Tiny urllib-based client for the service's HTTP endpoint.

:class:`ServiceClient` mirrors the :class:`~repro.service.SearchService`
surface over HTTP -- submit / status / events / result / cancel --
using nothing beyond :mod:`urllib.request`.  ``repro submit`` is a thin
shell around it, the service-smoke CI job drives a live server with it,
and :class:`~repro.service.agent.WorkerAgent` speaks the ``/agents``
federation protocol through the same instance.

The client is retry-aware where retrying is safe: connection errors,
timeouts and 5xx responses on *idempotent* calls are retried with
bounded exponential backoff plus jitter.  Idempotency here is a
property of the service's semantics, not of the HTTP verb -- ``submit``
is idempotent because submissions dedup on the canonical plan hash
(re-sending the same plan coalesces onto the same job), while
``shutdown`` is not retried (a lost reply does not mean a lost
shutdown).  4xx responses are never retried: they are answers, not
infrastructure failures.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Iterator

from repro.plans import RunPlan

#: Job states the client treats as terminal when waiting.
_TERMINAL = ("done", "failed", "cancelled")

#: Cap on a single backoff sleep between retries, in seconds.
_BACKOFF_CAP = 2.0

#: Cap on the grown poll interval inside :meth:`ServiceClient.wait`.
_POLL_CAP = 2.0


class ServiceError(RuntimeError):
    """An HTTP error response from the service (status + body)."""

    def __init__(self, status: int, body: str):
        super().__init__(f"service returned HTTP {status}: {body}")
        self.status = status
        self.body = body


class JobTimeoutError(TimeoutError):
    """A :meth:`ServiceClient.wait` deadline elapsed.

    Subclasses :class:`TimeoutError`, so existing ``except
    TimeoutError`` handlers keep working; :attr:`info` carries the last
    job status dict observed before giving up, so callers can log the
    job's actual state (and run/event counts) instead of guessing.
    """

    def __init__(self, message: str, info: dict[str, Any]):
        super().__init__(message)
        self.info = info


class ServiceClient:
    """Talk to a running ``repro serve`` endpoint.

    Parameters:
        base_url: e.g. ``http://127.0.0.1:8765`` (trailing slash
            optional).
        timeout: per-request socket timeout in seconds.
        max_retries: extra attempts after the first failed request
            (idempotent calls only; 0 disables retrying).
        backoff: base backoff sleep in seconds; attempt *n* sleeps
            ``backoff * 2**n`` (capped, jittered by a factor in
            ``[0.5, 1.0)`` so synchronized clients fan out).
        api_key: tenant API key, sent as ``X-API-Key`` on every
            request (required against servers started with
            ``--tenants``; ignored by open servers).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 max_retries: int = 3, backoff: float = 0.1,
                 api_key: str | None = None):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff <= 0:
            raise ValueError(f"backoff must be positive, got {backoff}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.api_key = api_key

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        return headers

    # -- raw calls -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None,
                 idempotent: bool = True) -> bytes:
        data = None if body is None else json.dumps(body).encode()
        attempts = 1 + (self.max_retries if idempotent else 0)
        last: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self._backoff_sleep(attempt - 1)
            request = urllib.request.Request(
                f"{self.base_url}{path}", data=data, method=method,
                headers=self._headers(),
            )
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                error = ServiceError(
                    exc.code, exc.read().decode(errors="replace"))
                if exc.code < 500:
                    raise error from None  # an answer, not a failure
                last = error
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError, http.client.HTTPException) as exc:
                # HTTPException covers torn replies (IncompleteRead,
                # BadStatusLine) from half-closed connections -- as
                # retryable as never having connected at all.
                last = exc
        assert last is not None
        raise last

    def _backoff_sleep(self, failures: int) -> None:
        """Sleep before retry number ``failures + 1`` (jittered)."""
        delay = min(self.backoff * (2 ** failures), _BACKOFF_CAP)
        time.sleep(delay * (0.5 + random.random() / 2))

    def _json(self, method: str, path: str,
              body: dict[str, Any] | None = None,
              idempotent: bool = True) -> dict[str, Any]:
        return json.loads(self._request(method, path, body,
                                        idempotent=idempotent))

    # -- service surface -----------------------------------------------------

    def health(self) -> dict[str, Any]:
        """``GET /health``."""
        return self._json("GET", "/health")

    def submit(self, plan: RunPlan | dict[str, Any],
               priority: int = 0) -> dict[str, Any]:
        """Submit a plan (object or already-serialized dict).

        Retried on connection failure: submissions dedup on the
        canonical plan hash, so a retry after a lost reply lands on
        the same job.
        """
        plan_doc = plan.to_dict() if isinstance(plan, RunPlan) else plan
        return self._json(
            "POST", "/jobs", {"plan": plan_doc, "priority": priority}
        )

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /jobs`` -> job summaries."""
        return self._json("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict[str, Any]:
        """``GET /jobs/<id>``."""
        return self._json("GET", f"/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0,
               wait: float | None = None) -> dict[str, Any]:
        """``GET /jobs/<id>/events?since=N`` (cursor in ``"next"``).

        ``wait`` long-polls: the server parks the request up to that
        many seconds until the job's log grows past ``since`` (or the
        job ends).
        """
        path = f"/jobs/{job_id}/events?since={since}"
        if wait is not None:
            path += f"&wait={wait:g}"
        return self._json("GET", path)

    def stream_events(self, job_id: str,
                      since: int = 0) -> "Iterator[dict[str, Any]]":
        """Yield the job's events as they happen, until it ends.

        Consumes the Server-Sent Events stream
        (``/jobs/<id>/events/stream``).  Each yielded frame is
        ``{"id": cursor, "event": type_tag, "data": event_doc}``; the
        final frame has ``event == "end"`` and carries the job's state
        in ``data``.  An unknown job raises :class:`ServiceError` 404
        before any frame: the server answers it before it starts the
        stream.
        """
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/events/stream?since={since}",
            headers=self._headers())
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise ServiceError(
                exc.code, exc.read().decode(errors="replace")) from None
        with response:
            frame: dict[str, str] = {}
            for raw in response:
                line = raw.decode().rstrip("\n")
                if line.startswith(":"):
                    continue  # heartbeat comment
                if line:
                    name, _, value = line.partition(":")
                    frame[name.strip()] = value.strip()
                    continue
                if not frame:
                    continue
                parsed = {
                    "id": int(frame.get("id", "0")),
                    "event": frame.get("event", "event"),
                    "data": json.loads(frame.get("data", "{}")),
                }
                frame = {}
                yield parsed
                if parsed["event"] == "end":
                    return

    def result_bytes(self, job_id: str) -> bytes:
        """``GET /jobs/<id>/result`` -- the canonical stored bytes."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``POST /jobs/<id>/cancel`` (idempotent: cancel twice = once)."""
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def shutdown(self) -> dict[str, Any]:
        """``POST /shutdown`` -- drain and stop the server (no retry)."""
        return self._json("POST", "/shutdown", idempotent=False)

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.2, max_poll: float = _POLL_CAP
             ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state; returns it.

        The poll interval starts at ``poll`` and grows 1.5x per probe
        up to ``max_poll`` -- short jobs return promptly, long waits
        stop hammering the server.  Raises :class:`JobTimeoutError`
        (a :class:`TimeoutError`) carrying the final status dict when
        ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout
        interval = poll
        while True:
            info = self.status(job_id)
            if info["state"] in _TERMINAL:
                return info
            if time.monotonic() >= deadline:
                raise JobTimeoutError(
                    f"job {job_id} still {info['state']} after {timeout}s",
                    info=info,
                )
            time.sleep(min(interval, max(0.0, deadline - time.monotonic())))
            interval = min(interval * 1.5, max_poll)

    # -- agent federation protocol -------------------------------------------

    def register_agent(self, name: str | None = None,
                       agent_id: str | None = None) -> dict[str, Any]:
        """``POST /agents`` -- register; returns id + lease terms.

        Idempotent by ``agent_id``, so it retries safely -- exactly how
        an agent recovers from a coordinator restart.
        """
        return self._json(
            "POST", "/agents", {"name": name, "agent_id": agent_id})

    def agents(self) -> list[dict[str, Any]]:
        """``GET /agents`` -> registered agent summaries."""
        return self._json("GET", "/agents")["agents"]

    def claim(self, agent_id: str) -> dict[str, Any] | None:
        """``POST /agents/<id>/claim`` -- lease the next queued job.

        Returns the job descriptor (plan, lease terms, checkpoint dir)
        or ``None`` when the queue holds nothing claimable.
        """
        return self._json("POST", f"/agents/{agent_id}/claim")["job"]

    def agent_heartbeat(self, agent_id: str,
                        jobs: tuple[str, ...] | list[str] = ()
                        ) -> dict[str, Any]:
        """``POST /agents/<id>/heartbeat`` -- renew the listed leases.

        Returns the coordinator's directives (``lost`` / ``cancel``
        job-id lists).  NOT auto-retried here: the agent's own
        heartbeat loop owns the retry cadence (a blind client-level
        retry would hide exactly the latency the lease clock measures).
        """
        return self._json("POST", f"/agents/{agent_id}/heartbeat",
                          {"jobs": list(jobs)}, idempotent=False)

    def agent_leave(self, agent_id: str) -> dict[str, Any]:
        """``POST /agents/<id>/leave`` -- deregister gracefully."""
        return self._json("POST", f"/agents/{agent_id}/leave")

    def agent_events(self, agent_id: str, job_id: str,
                     events: list[dict[str, Any]]) -> dict[str, Any]:
        """``POST .../jobs/<id>/events`` -- stream event docs back.

        Safe to retry (appending the same batch twice cannot corrupt
        state and the window only opens on a torn connection); raises
        :class:`ServiceError` 409 when the lease is gone.
        """
        return self._json(
            "POST", f"/agents/{agent_id}/jobs/{job_id}/events",
            {"events": events})

    def agent_complete(self, agent_id: str, job_id: str, outcome: str,
                       payload: dict[str, Any] | None = None,
                       message: str | None = None,
                       completed: int = 0) -> dict[str, Any]:
        """``POST .../jobs/<id>/complete`` -- upload the terminal outcome.

        Idempotent under the lease: a retry after a torn reply hits
        :class:`StaleLeaseError` 409 (the first upload released the
        lease), which the agent treats as success-elsewhere.
        """
        return self._json(
            "POST", f"/agents/{agent_id}/jobs/{job_id}/complete",
            {"outcome": outcome, "payload": payload,
             "message": message, "completed": completed})
