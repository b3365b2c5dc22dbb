"""Asyncio HTTP/1.1 gateway: the service's HTTP front end.

``repro serve`` runs this gateway over one :class:`SearchService`.  It
serves a plain JSON wire surface from a single ``asyncio`` event loop
(stdlib only -- no third-party dependency), so hundreds of concurrent
clients can hold connections open while events are *pushed* to them:

=========  =====================================  ======================
Method     Path                                   Meaning
=========  =====================================  ======================
GET        ``/health``                            liveness + job counts
GET        ``/metrics``                           JSON counters/gauges
POST       ``/jobs``                              submit (tenant-gated)
GET        ``/jobs``                              list job summaries
GET        ``/jobs/<id>``                         one job summary
POST       ``/jobs/<id>/cancel``                  checkpointing cancel
GET        ``/jobs/<id>/events``                  event page; add
                                                  ``?since=N&wait=S``
                                                  to long-poll
GET        ``/jobs/<id>/events/stream``           Server-Sent Events
GET        ``/jobs/<id>/result``                  canonical result bytes
POST       ``/shutdown``                          graceful drain
POST       ``/agents``                            register ``{"name",
                                                  "agent_id"?}``
GET        ``/agents``                            list registered agents
POST       ``/agents/<a>/heartbeat``              renew ``{"jobs":
                                                  [...]}``
POST       ``/agents/<a>/claim``                  lease the next queued
                                                  job
POST       ``/agents/<a>/leave``                  deregister (leases
                                                  expire)
POST       ``/agents/<a>/jobs/<j>/events``        stream typed events
                                                  back
POST       ``/agents/<a>/jobs/<j>/complete``      upload terminal
                                                  outcome
=========  =====================================  ======================

The ``/agents`` family is the worker-agent federation protocol spoken
by :class:`repro.service.agent.WorkerAgent` (``repro agent``).  Errors
are typed: an unknown agent id is ``404`` on ``heartbeat`` and
``claim`` (the agent re-registers under the same id), an unknown job
id is ``404``, ``leave`` is idempotent, and acting on a lease no
longer held is ``409`` (the agent drops the work -- the job re-queued
and will finish elsewhere, byte-identically).

``/result`` serves the result store's canonical bytes verbatim, so two
submissions of an identical plan receive byte-identical bodies.

Event delivery is push-based end to end: the service's
:meth:`~repro.service.SearchService.add_job_listener` hook fires on
every append to a job's event log, an :class:`_EventFanout` relays the
wakeup onto the event loop (``call_soon_threadsafe``), and each SSE or
long-poll connection sleeps on its own ``asyncio.Event`` until *its*
job moves -- no busy polling anywhere.  The per-job event log stays
the single source of truth: a wakeup only means "re-read the log from
your cursor", so a lost or coalesced wakeup can delay but never drop
or duplicate an event.

SSE frames carry the event cursor as the SSE ``id:`` field::

    id: 7
    event: search-finished
    data: {"event": "search-finished", ...}

so ``GET /jobs/<id>/events?since=7`` resumes exactly after the last
frame a client saw.  Comment heartbeats (``: ping``) flow during quiet
stretches; a terminal job ends the stream with an ``event: end`` frame
carrying the final state.  The stream is framed with
``Transfer-Encoding: chunked``: the ``end`` frame is followed by the
zero-length chunk, and the connection stays open for the client's next
request like any other keep-alive exchange.

Every submission goes through
:func:`repro.service.http.admit_submission`: API-key tenancy, quotas
(429 + ``Retry-After``), fair-share priority weighting, and bounded
accept-queue backpressure (503).  ``max_connections`` additionally
caps open sockets (503 at accept).  On SIGTERM, SIGINT or
``POST /shutdown`` the gateway *drains*: the listener closes, idle
keep-alive connections are closed, streams end with a final frame,
every other connection closes after its current reply (a submission
already under way gets 503), running jobs finish (or are
checkpoint-cancelled after ``drain_grace`` seconds), and the service
shuts down -- flushing the job journal -- before the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
from http import HTTPStatus
from typing import Any, Iterator
from urllib.parse import parse_qs, unquote, urlparse

from repro.events import event_from_dict
from repro.plans import RunPlan
from repro.service.http import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_SECONDS,
    BackpressureError,
    BodyTooLargeError,
    admit_submission,
    events_payload,
    health_payload,
    require_tenant,
    validate_content_length,
)
from repro.service.metrics import MetricsRegistry
from repro.service.service import (
    SearchService,
    StaleLeaseError,
    UnknownAgentError,
    UnknownJobError,
)
from repro.service.tenants import (
    QuotaExceededError,
    TenantAuthError,
    TenantRegistry,
)

#: Seconds of stream silence before an SSE comment heartbeat is sent
#: (keeps proxies from timing the connection out and detects dead
#: peers, since the write fails fast on a reset socket).
SSE_HEARTBEAT_SECONDS = 15.0

#: Upper bound on the ``wait=`` a long-poll may request, seconds.
#: Clients re-issue the poll; the bound keeps a forgotten connection
#: from parking forever.
LONG_POLL_MAX_WAIT = 30.0

#: Job states after which a job's event log can no longer grow
#: (until an explicit resubmission, which opens a new stream).
_TERMINAL_STATES = ("done", "failed", "cancelled")

#: Cap on request head (request line + headers) size, bytes.
_MAX_HEADER_BYTES = 32 * 1024

#: Status line and headers of an event stream (its body is chunked).
_SSE_HEAD = (b"HTTP/1.1 200 OK\r\n"
             b"Content-Type: text/event-stream\r\n"
             b"Cache-Control: no-cache\r\n"
             b"Transfer-Encoding: chunked\r\n"
             b"Connection: keep-alive\r\n\r\n")

#: The zero-length chunk that ends a chunked body.
_LAST_CHUNK = b"0\r\n\r\n"


class _HttpError(Exception):
    """Internal control flow: respond ``status`` with a JSON error."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None,
                 close: bool = False, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}
        self.headers = headers or {}
        self.close = close


class _EventFanout:
    """Relays service-thread event appends onto per-connection wakeups.

    One service job listener feeds every SSE/long-poll connection: a
    connection registers an ``asyncio.Event`` under its job id, the
    listener (running on a service worker thread) sets it via
    ``loop.call_soon_threadsafe``, and the connection re-reads the
    job's event log from its cursor.  Setting an already-set event is
    a no-op, so bursts coalesce instead of queueing.
    """

    def __init__(self, service: SearchService,
                 loop: asyncio.AbstractEventLoop):
        self._service = service
        self._loop = loop
        self._lock = threading.Lock()
        self._watchers: dict[str, set[asyncio.Event]] = {}
        self._listener = service.add_job_listener(self._notify)

    def _notify(self, job_id: str) -> None:
        # Runs on a service worker thread, possibly under the service
        # lock: copy the watcher set and hand the set() to the loop.
        with self._lock:
            watchers = self._watchers.get(job_id)
            if not watchers:
                return
            targets = list(watchers)
        for event in targets:
            try:
                self._loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # loop already closed (teardown race)
                return

    @contextlib.contextmanager
    def watcher(self, job_id: str) -> Iterator[asyncio.Event]:
        """Register a wakeup event for ``job_id`` for a ``with`` block."""
        event = asyncio.Event()
        with self._lock:
            self._watchers.setdefault(job_id, set()).add(event)
        try:
            yield event
        finally:
            with self._lock:
                group = self._watchers.get(job_id)
                if group is not None:
                    group.discard(event)
                    if not group:
                        del self._watchers[job_id]

    def watching(self) -> int:
        """How many connections currently wait on job events."""
        with self._lock:
            return sum(len(group) for group in self._watchers.values())

    def wake_all(self) -> None:
        """Wake every watcher (drain: streams re-check and wind down)."""
        with self._lock:
            targets = [e for group in self._watchers.values()
                       for e in group]
        for event in targets:
            event.set()

    def close(self) -> None:
        """Detach from the service's listener hook."""
        self._service.remove_job_listener(self._listener)


class Gateway:
    """The asyncio front end over one :class:`SearchService`.

    Build it, ``await`` :meth:`start`, and the gateway serves until
    :meth:`request_drain` (wired to SIGTERM and ``POST /shutdown`` by
    :func:`run_gateway`); :meth:`wait_drained` completes once the
    drain has finished and the service is shut down.

    Parameters:
        service: the service to front.
        tenants: optional :class:`TenantRegistry`; with one bound, job
            routes require API keys and submissions pass quota +
            fair-share admission.
        max_pending: bound on service-wide queued jobs (503 beyond).
        max_connections: bound on concurrently open sockets (503 at
            accept beyond it).
        drain_grace: seconds a drain waits for running jobs before
            checkpoint-cancelling them (``None`` = wait indefinitely).
    """

    def __init__(self, service: SearchService,
                 tenants: TenantRegistry | None = None,
                 max_pending: int | None = None,
                 max_connections: int | None = None,
                 drain_grace: float | None = None):
        self.service = service
        self.tenants = tenants
        self.max_pending = max_pending
        self.max_connections = max_connections
        self.drain_grace = drain_grace
        self.metrics = MetricsRegistry(service)
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._fanout: _EventFanout | None = None
        self._connections = 0
        self._streams = 0
        self._draining = False
        self._drained: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Connections waiting for a request head (closed at drain).
        self._idle: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Bind and start serving (non-blocking; returns once bound)."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._fanout = _EventFanout(self.service, self._loop)
        self.metrics.gauge("open_connections", lambda: self._connections)
        self.metrics.gauge("active_streams", lambda: self._streams)
        self.metrics.gauge("event_watchers", self._fanout.watching)
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=_MAX_HEADER_BYTES)

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether a drain has begun (new work is being refused)."""
        return self._draining

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; event-loop thread only).

        Stops accepting connections, ends open event streams with a
        final frame, lets running jobs finish (checkpoint-cancelling
        them after ``drain_grace`` seconds, if set), shuts the service
        down -- flushing its job journal -- and finally releases
        :meth:`wait_drained`.
        """
        if self._draining:
            return
        self._draining = True
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def wait_drained(self) -> None:
        """Block until a requested drain has fully completed."""
        assert self._drained is not None, "gateway not started"
        await self._drained.wait()

    async def _drain(self) -> None:
        assert self._server is not None and self._fanout is not None
        self._server.close()
        for writer in list(self._idle):
            writer.close()  # its reader sees EOF; nothing was in flight
        self._fanout.wake_all()
        grace_timer: threading.Timer | None = None
        if self.drain_grace is not None:
            grace_timer = threading.Timer(
                self.drain_grace, self._cancel_running)
            grace_timer.daemon = True
            grace_timer.start()
        # shutdown() joins worker threads; keep the loop free so open
        # streams can deliver their final frames meanwhile.
        await asyncio.to_thread(self.service.shutdown, True, False)
        if grace_timer is not None:
            grace_timer.cancel()
        self._fanout.wake_all()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._fanout.close()
        await self._server.wait_closed()
        assert self._drained is not None
        self._drained.set()

    def _cancel_running(self) -> None:
        """Drain-grace expiry: checkpoint-cancel still-running jobs."""
        for handle in self.service.jobs():
            if handle.state == "running":
                try:
                    self.service.cancel(handle.job_id)
                except UnknownJobError:
                    pass

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if (self.max_connections is not None
                and self._connections >= self.max_connections):
            self.metrics.inc("connection_rejections")
            with contextlib.suppress(Exception):
                writer.write(_render(
                    503,
                    json.dumps({"error": "connection limit reached"})
                    .encode(),
                    headers={"Retry-After": "1"}, close=True))
                await writer.drain()
            writer.close()
            return
        self.metrics.inc("connections")
        self._connections += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer went away mid-exchange; nothing to clean up
        finally:
            self._connections -= 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not self._draining:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            method, path, query, headers, body = request
            self.metrics.inc("requests")
            try:
                close = await self._dispatch(
                    method, path, query, headers, body, writer)
            except _HttpError as exc:
                self._send_json(writer, exc.status, exc.payload,
                                headers=exc.headers, close=exc.close)
                close = exc.close
            await writer.drain()
            if close or headers.get("connection", "").lower() == "close":
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> tuple[str, str, str, dict[str, str], bytes] | None:
        """Read one request; None closes the connection silently.

        Until the request head is in, the connection is idle: a drain
        closes it rather than wait for a request that may never come.
        """
        self._idle.add(writer)
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT_SECONDS)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None  # clean close (or half a request, equally dead)
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: just close
        except asyncio.LimitOverrunError:
            self._send_json(writer, 431,
                            {"error": "request headers too large"},
                            close=True)
            return None
        finally:
            self._idle.discard(writer)
        try:
            request_line, header_lines = self._split_head(head)
            method, target = self._parse_request_line(request_line)
            headers = self._parse_headers(header_lines)
        except ValueError as exc:
            self._send_json(writer, 400, {"error": str(exc)}, close=True)
            return None
        try:
            length = validate_content_length(headers.get("content-length"))
        except BodyTooLargeError as exc:
            # The body was never read: refuse and close.
            self._send_json(writer, 413, {"error": str(exc)}, close=True)
            return None
        except ValueError as exc:
            self._send_json(writer, 400, {"error": str(exc)}, close=True)
            return None
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), REQUEST_TIMEOUT_SECONDS)
            except asyncio.TimeoutError:
                self._send_json(
                    writer, 408,
                    {"error": "client stalled mid-body; connection closed"},
                    close=True)
                return None
            except asyncio.IncompleteReadError as exc:
                # The client closed its side early; nothing to parse.
                self._send_json(
                    writer, 400,
                    {"error": f"body truncated: got {len(exc.partial)} "
                              f"of {length} bytes"},
                    close=True)
                return None
            except ConnectionError:
                return None
        url = urlparse(target)
        return method, unquote(url.path), url.query, headers, body

    @staticmethod
    def _split_head(head: bytes) -> tuple[str, list[str]]:
        text = head.decode("latin-1")
        lines = text.split("\r\n")
        if not lines or not lines[0]:
            raise ValueError("empty request line")
        return lines[0], [line for line in lines[1:] if line]

    @staticmethod
    def _parse_request_line(line: str) -> tuple[str, str]:
        parts = line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError(f"malformed request line {line!r}")
        return parts[0].upper(), parts[1]

    @staticmethod
    def _parse_headers(lines: list[str]) -> dict[str, str]:
        headers: dict[str, str] = {}
        for line in lines:
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return headers

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, query: str,
                        headers: dict[str, str], body: bytes,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the connection must close."""
        parts = [p for p in path.split("/") if p]
        try:
            if method == "GET":
                return await self._dispatch_get(
                    parts, path, query, headers, writer)
            if method == "POST":
                return await self._dispatch_post(
                    parts, path, headers, body, writer)
            raise _HttpError(405, f"method {method} not allowed")
        except (UnknownJobError, UnknownAgentError) as exc:
            raise _HttpError(404, str(exc)) from None
        except StaleLeaseError as exc:
            raise _HttpError(409, str(exc)) from None
        except TenantAuthError as exc:
            raise _HttpError(exc.status, str(exc)) from None
        except QuotaExceededError as exc:
            self.metrics.inc("quota_rejections")
            raise _HttpError(
                429, str(exc), tenant=exc.tenant, limit=exc.limit,
                headers={"Retry-After": f"{exc.retry_after:g}"}) from None
        except BackpressureError as exc:
            self.metrics.inc("backpressure_rejections")
            raise _HttpError(
                503, str(exc),
                headers={"Retry-After": f"{exc.retry_after:g}"}) from None

    async def _dispatch_get(self, parts: list[str], path: str, query: str,
                            headers: dict[str, str],
                            writer: asyncio.StreamWriter) -> bool:
        service = self.service
        if parts == ["health"]:
            self._send_json(writer, 200, health_payload(service))
        elif parts == ["metrics"]:
            self._send_json(writer, 200, self.metrics.snapshot())
        elif parts == ["jobs"]:
            require_tenant(self.tenants, headers)
            self._send_json(
                writer, 200, {"jobs": [h.info() for h in service.jobs()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            require_tenant(self.tenants, headers)
            self._send_json(writer, 200, service.job(parts[1]).info())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            require_tenant(self.tenants, headers)
            await self._get_events(writer, parts[1], query)
        elif (len(parts) == 4 and parts[0] == "jobs"
                and parts[2] == "events" and parts[3] == "stream"):
            require_tenant(self.tenants, headers)
            await self._stream_events(writer, parts[1], query)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            require_tenant(self.tenants, headers)
            self._get_result(writer, parts[1])
        elif parts == ["agents"]:
            self._send_json(writer, 200, {"agents": service.agents()})
        else:
            raise _HttpError(404, f"unknown path {path!r}")
        return False

    async def _dispatch_post(self, parts: list[str], path: str,
                             headers: dict[str, str], body: bytes,
                             writer: asyncio.StreamWriter) -> bool:
        service = self.service
        if parts == ["jobs"]:
            await self._post_job(writer, headers, body)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            require_tenant(self.tenants, headers)
            job_id = parts[1]
            state = await asyncio.to_thread(service.cancel, job_id)
            self._send_json(
                writer, 200, service.job(job_id).info() | {"state": state})
        elif parts == ["agents"]:
            self._post_register(writer, body)
        elif (len(parts) == 3 and parts[0] == "agents"
                and parts[2] in ("heartbeat", "claim", "leave")):
            await self._post_agent_verb(writer, parts[1], parts[2], body)
        elif (len(parts) == 5 and parts[0] == "agents"
                and parts[2] == "jobs"
                and parts[4] in ("events", "complete")):
            await self._post_agent_job(
                writer, parts[1], parts[3], parts[4], body)
        elif parts == ["shutdown"]:
            require_tenant(self.tenants, headers)
            # Reply first, then drain: the flush must win the race
            # against the listener closing.
            self._send_json(writer, 200, {"status": "shutting down"},
                            close=True)
            await writer.drain()
            self.request_drain()
            return True
        else:
            raise _HttpError(404, f"unknown path {path!r}")
        return False

    # -- route bodies --------------------------------------------------------

    async def _post_job(self, writer: asyncio.StreamWriter,
                        headers: dict[str, str], body: bytes) -> None:
        try:
            doc = _parse_json_object(body)
            plan = RunPlan.from_dict(doc["plan"])
            priority = int(doc.get("priority", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad submission: {exc}") from None
        if self._draining:
            raise _HttpError(
                503, "gateway is draining; resubmit elsewhere",
                headers={"Retry-After": "1"})
        # submit touches the journal and the result store (disk):
        # off the loop it goes.
        try:
            handle, deduped = await asyncio.to_thread(
                admit_submission, self.service, self.tenants, headers,
                plan, priority, self.max_pending)
        except ValueError as exc:  # e.g. a search plan of two searches
            raise _HttpError(400, f"bad submission: {exc}") from None
        self.metrics.inc("submissions")
        self._send_json(writer, 200, handle.info() | {"deduped": deduped})

    def _post_register(self, writer: asyncio.StreamWriter,
                       body: bytes) -> None:
        try:
            doc = _parse_json_object(body)
            name = doc.get("name")
            agent_id = doc.get("agent_id")
            for value in (name, agent_id):
                if value is not None and not isinstance(value, str):
                    raise ValueError("name/agent_id must be strings")
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad registration: {exc}") from None
        self._send_json(
            writer, 200,
            self.service.register_agent(name=name, agent_id=agent_id))

    async def _post_agent_verb(self, writer: asyncio.StreamWriter,
                               agent_id: str, verb: str,
                               body: bytes) -> None:
        service = self.service
        if verb == "claim":
            claim = await asyncio.to_thread(service.claim_job, agent_id)
            self._send_json(writer, 200, {"job": claim})
            return
        if verb == "leave":
            service.deregister_agent(agent_id)
            self._send_json(writer, 200, {"status": "left"})
            return
        try:
            doc = _parse_json_object(body)
            jobs = doc.get("jobs", [])
            if not isinstance(jobs, list):
                raise ValueError("'jobs' must be a list of job ids")
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad heartbeat: {exc}") from None
        self._send_json(
            writer, 200,
            service.heartbeat(agent_id, [str(j) for j in jobs]))

    async def _post_agent_job(self, writer: asyncio.StreamWriter,
                              agent_id: str, job_id: str, verb: str,
                              body: bytes) -> None:
        service = self.service
        try:
            doc = _parse_json_object(body)
            if verb == "events":
                events = [event_from_dict(item) for item in doc["events"]]
            else:
                outcome = doc["outcome"]
                if outcome not in ("done", "failed", "cancelled"):
                    raise ValueError(f"unknown outcome {outcome!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad upload: {exc}") from None
        if verb == "events":
            recorded = service.record_agent_events(agent_id, job_id, events)
            self._send_json(writer, 200, {"recorded": recorded})
            return
        info = await asyncio.to_thread(
            service.complete_job, agent_id, job_id, outcome,
            doc.get("payload"), doc.get("message"),
            int(doc.get("completed", 0)))
        self._send_json(writer, 200, info)

    def _get_result(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        handle = self.service.job(job_id)
        state = handle.state
        if state != "done":
            raise _HttpError(409, f"job {job_id} is {state}, not done",
                             state=state)
        # A memory read under the service lock, like info() and
        # events(): cheaper on the loop than a hop to a thread.
        blob = handle.stored_result_bytes()
        if blob is None:
            raise _HttpError(
                406, f"workload {handle.plan.workload!r} has no result "
                "codec; inspect the job in-process instead")
        writer.write(_render(200, blob))

    # -- event delivery ------------------------------------------------------

    async def _get_events(self, writer: asyncio.StreamWriter,
                          job_id: str, query: str) -> None:
        """``/jobs/<id>/events``: immediate page, or long-poll with
        ``wait=S``."""
        handle = self.service.job(job_id)
        params = parse_qs(query)
        try:
            since = int(params.get("since", ["0"])[0])
            wait = float(params.get("wait", ["0"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad query parameter: {exc}") from None
        wait = max(0.0, min(wait, LONG_POLL_MAX_WAIT))
        if wait:
            self.metrics.inc("long_polls")
        assert self._loop is not None and self._fanout is not None
        deadline = self._loop.time() + wait
        with self._fanout.watcher(job_id) as wakeup:
            while True:
                wakeup.clear()
                payload = events_payload(handle, since)
                remaining = deadline - self._loop.time()
                if (payload["events"] or remaining <= 0 or self._draining
                        or payload["state"] in _TERMINAL_STATES):
                    self._send_json(writer, 200, payload)
                    return
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(wakeup.wait(), remaining)

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job_id: str, query: str) -> None:
        """``/jobs/<id>/events/stream``: Server-Sent Events until the
        job is terminal (or the gateway drains).

        Each wakeup's frames go out as one chunk; the ``end`` frame
        goes with the zero-length chunk that completes the reply.
        """
        handle = self.service.job(job_id)  # 404 before headers go out
        params = parse_qs(query)
        try:
            cursor = int(params.get("since", ["0"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"bad query parameter: {exc}") from None
        self.metrics.inc("sse_streams")
        self._streams += 1
        assert self._fanout is not None
        head = _SSE_HEAD  # sent with the first frames
        try:
            with self._fanout.watcher(job_id) as wakeup:
                while True:
                    wakeup.clear()
                    # State *before* events: the service appends the
                    # final events and flips to a terminal state under
                    # one lock hold, so a terminal state observed here
                    # guarantees the read below returns the full log.
                    # The opposite order can end the stream with the
                    # tail events unsent.
                    state = handle.state
                    draining = self._draining
                    events = handle.events(since=cursor)
                    frames = []
                    for event in events:
                        cursor += 1
                        frames.append(_sse_frame(cursor, event.type_tag,
                                                 event.to_dict()))
                    if events:
                        self.metrics.inc("sse_events", len(events))
                    ended = state in _TERMINAL_STATES or draining
                    if ended:
                        reason = ("draining"
                                  if state not in _TERMINAL_STATES
                                  else "terminal")
                        frames.append(_sse_frame(
                            cursor, "end",
                            {"state": state, "next": cursor,
                             "reason": reason}))
                    if frames or head:
                        writer.write(head + _chunk(b"".join(frames))
                                     + (_LAST_CHUNK if ended else b""))
                        head = b""
                        await writer.drain()
                    if ended:
                        return
                    try:
                        await asyncio.wait_for(
                            wakeup.wait(), SSE_HEARTBEAT_SECONDS)
                    except asyncio.TimeoutError:
                        writer.write(_chunk(b": ping\n\n"))
                        await writer.drain()
        finally:
            self._streams -= 1

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, writer: asyncio.StreamWriter, status: int,
                   payload: dict[str, Any],
                   headers: dict[str, str] | None = None,
                   close: bool = False) -> None:
        writer.write(_render(status, json.dumps(payload).encode(),
                             headers=headers, close=close))


def _render(status: int, blob: bytes,
            headers: dict[str, str] | None = None,
            close: bool = False) -> bytes:
    """Serialize one HTTP/1.1 response with a JSON body."""
    reason = HTTPStatus(status).phrase
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(blob)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob


def _chunk(data: bytes) -> bytes:
    """``data`` as one chunk of a chunked body (empty for no data: a
    zero-length chunk would end the body)."""
    return b"%x\r\n%s\r\n" % (len(data), data) if data else b""


def _sse_frame(cursor: int, tag: str, data: dict[str, Any]) -> bytes:
    """One SSE frame: ``id``/``event``/``data`` lines + blank line."""
    return (f"id: {cursor}\nevent: {tag}\n"
            f"data: {json.dumps(data)}\n\n").encode()


def _parse_json_object(body: bytes) -> dict[str, Any]:
    """Parse a request body as a JSON object (ValueError otherwise)."""
    data = json.loads(body or b"{}")
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    return data


class GatewayRunner:
    """Host a :class:`Gateway` on a background thread (tests, benches).

    The asyncio loop lives on a daemon thread; :meth:`start` (or the
    ``with`` statement) returns once the port is bound, and
    :meth:`stop` requests a drain and joins the thread.  When built
    without an explicit ``service``, one is created from
    ``service_kwargs`` and shut down with the gateway.
    """

    def __init__(self, service: SearchService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 tenants: TenantRegistry | None = None,
                 max_pending: int | None = None,
                 max_connections: int | None = None,
                 drain_grace: float | None = None,
                 **service_kwargs: Any):
        self.host = host
        self._port_requested = port
        self.service = (service if service is not None
                        else SearchService(**service_kwargs))
        self._options = dict(
            tenants=tenants, max_pending=max_pending,
            max_connections=max_connections, drain_grace=drain_grace)
        self.gateway: Gateway | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def base_url(self) -> str:
        """The served endpoint, e.g. ``http://127.0.0.1:43521``."""
        assert self.port is not None, "gateway not started"
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GatewayRunner":
        """Launch the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="gateway-runner", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") \
                from self._startup_error
        return self

    async def _main(self) -> None:
        gateway = Gateway(self.service, **self._options)
        try:
            await gateway.start(self.host, self._port_requested)
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            return
        self.gateway = gateway
        self.port = gateway.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await gateway.wait_drained()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the gateway and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._thread.is_alive() and self._loop is not None \
                and self.gateway is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.gateway.request_drain)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("gateway thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "GatewayRunner":
        """Context-manager entry: start and return the runner."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: drain and join."""
        self.stop()


def run_gateway(
    host: str = "127.0.0.1",
    port: int = 8765,
    service: SearchService | None = None,
    tenants: TenantRegistry | None = None,
    max_pending: int | None = None,
    max_connections: int | None = None,
    drain_grace: float | None = None,
    **service_kwargs: Any,
) -> None:
    """Serve the gateway until SIGTERM/SIGINT or ``/shutdown``.

    The blocking entry point behind ``repro serve``: builds a
    :class:`SearchService` from ``service_kwargs`` when none is
    passed, announces the bound URL on stderr once the port is bound
    (so ``port=0`` reports the port it got), installs signal handlers
    that trigger a graceful drain, and returns only after the drain
    has flushed the journal and shut the service down.
    """
    if service is None:
        service = SearchService(**service_kwargs)

    async def main() -> None:
        gateway = Gateway(
            service, tenants=tenants, max_pending=max_pending,
            max_connections=max_connections, drain_grace=drain_grace)
        await gateway.start(host, port)
        mode = " multi-tenant" if tenants is not None else ""
        print(f"serving{mode} on http://{host}:{gateway.port} "
              f"({service.backend} backend; SSE at "
              "/jobs/<id>/events/stream; POST /shutdown or SIGTERM to "
              "drain)", file=sys.stderr, flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, gateway.request_drain)
        await gateway.wait_drained()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        # No signal-handler support (or a second Ctrl-C): stop hard
        # but cooperatively -- checkpoints make the next run a resume.
        service.shutdown(wait=True, cancel_running=True)
