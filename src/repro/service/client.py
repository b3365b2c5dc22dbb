"""Tiny stdlib client for the service's HTTP endpoint.

:class:`ServiceClient` mirrors the :class:`~repro.service.SearchService`
surface over HTTP -- submit / status / events / result / cancel --
using nothing beyond :mod:`http.client`.  ``repro submit`` is a thin
shell around it, the service-smoke CI job drives a live server with it,
and :class:`~repro.service.agent.WorkerAgent` speaks the ``/agents``
federation protocol through the same instance.

The client has one transport: a thread-safe pool of idle HTTP/1.1
keep-alive connections.  A call takes an idle connection (or opens
one), sends its request, reads the reply to its end and puts the
connection back, so one client's submit, event stream and ``/result``
round trips share one socket; concurrent calls -- the agent shares one
client across its claim loop, heartbeat thread and upload thread --
take separate connections.  Before an idle connection is reused it is
probed with a zero-timeout readability check: an idle socket that reads
ready was closed by the server (the gateway drops a connection idle for
30 s) and is discarded instead of failing the call.  A connection goes
back to the pool only after a complete reply; a failed call, a reply
that closes the connection, or an event stream abandoned before its
``end`` frame closes it instead.  :meth:`ServiceClient.close` (or
leaving a ``with`` block) closes the idle connections.

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
import select
import threading
import time
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.plans import RunPlan

#: Job states the client treats as terminal when waiting.
_TERMINAL = ("done", "failed", "cancelled")

#: Cap on a single backoff sleep between retries, in seconds.
_BACKOFF_CAP = 2.0

#: Cap on the grown poll interval inside :meth:`ServiceClient.wait`.
_POLL_CAP = 2.0

#: What a call raises when the transport failed rather than the service
#: answering: refused, reset or timed-out connections (all
#: :class:`OSError`) and torn replies (:class:`http.client.HTTPException`,
#: e.g. ``IncompleteRead``).  Idempotent calls retry these.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


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

    Use it as a context manager (or call :meth:`close`) to close its
    pooled connections when done.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 max_retries: int = 3, backoff: float = 0.1,
                 api_key: str | None = None):
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff <= 0:
            raise ValueError(f"backoff must be positive, got {backoff}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.api_key = api_key
        url = urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = url.netloc
        self._prefix = url.path
        self._headers = {"Content-Type": "application/json"}
        if api_key is not None:
            self._headers["X-API-Key"] = api_key

    # -- connection pool -----------------------------------------------------

    def close(self) -> None:
        """Close every idle pooled connection.

        The client stays usable: a later call opens a fresh
        connection, and a call still running on another thread pools
        its connection again when it ends.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit closes the pooled connections."""
        self.close()

    def __del__(self) -> None:
        # The pool is the client's own cache, not something its caller
        # opened: dropping the client closes it.
        self.close()

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            # Nothing is owed to an idle connection, so a socket that
            # reads ready holds the server's FIN (or stray bytes):
            # either way it cannot carry the next request.
            readable, _, _ = select.select([connection.sock], [], [], 0)
            if not readable:
                return connection
            connection.close()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        """Pool a connection whose last reply was read to its end."""
        if connection.sock is None:  # the reply closed it
            return
        with self._lock:
            self._idle.append(connection)

    def _send(self, connection: http.client.HTTPConnection, method: str,
              path: str, data: bytes | None = None
              ) -> http.client.HTTPResponse:
        connection.request(method, self._prefix + path, body=data,
                           headers=self._headers)
        return connection.getresponse()

    def _exchange(self, method: str, path: str,
                  data: bytes | None) -> tuple[int, bytes]:
        """One request and its whole reply on a pooled connection."""
        connection = self._checkout()
        try:
            response = self._send(connection, method, path, data)
            reply = response.read()
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        return response.status, reply

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
            try:
                status, reply = self._exchange(method, path, data)
            except TRANSPORT_ERRORS as exc:
                # Torn replies (IncompleteRead, BadStatusLine) from
                # half-closed connections are as retryable as never
                # having connected at all.
                last = exc
                continue
            if 200 <= status < 300:
                return reply
            last = ServiceError(status, reply.decode(errors="replace"))
            if status < 500:
                raise last  # an answer, not a failure
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
        stream.  The stream is one chunked reply on a pooled
        connection, which goes back to the pool with the ``end`` frame;
        a stream abandoned before that frame closes its connection
        instead.  Not retried.
        """
        connection = self._checkout()
        pooled = False
        try:
            response = self._send(
                connection, "GET",
                f"/jobs/{job_id}/events/stream?since={since}")
            if response.status != 200:
                raise ServiceError(response.status,
                                   response.read().decode(errors="replace"))
            buffer = b""
            while True:
                data = response.read1()
                if not data:
                    return  # the server ended the stream without a frame
                *blocks, buffer = (buffer + data).split(b"\n\n")
                for block in blocks:
                    frame = _parse_frame(block)
                    if frame is None:
                        continue  # heartbeat comment
                    if frame["event"] == "end":
                        response.read()  # the chunked body's last chunk
                        self._checkin(connection)
                        pooled = True
                        yield frame
                        return
                    yield frame
        finally:
            if not pooled:
                connection.close()

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


def _parse_frame(block: bytes) -> dict[str, Any] | None:
    """One SSE frame's fields, or ``None`` for a comment-only block."""
    fields: dict[str, str] = {}
    for line in block.decode().split("\n"):
        if line and not line.startswith(":"):
            name, _, value = line.partition(":")
            fields[name.strip()] = value.strip()
    if not fields:
        return None
    return {
        "id": int(fields.get("id", "0")),
        "event": fields.get("event", "event"),
        "data": json.loads(fields.get("data", "{}")),
    }
