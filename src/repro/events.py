"""Typed progress events and the bus that carries them.

Every layer that reports progress -- :class:`repro.api.Session`, the
:class:`~repro.orchestration.campaign.Campaign` runner and the
:class:`~repro.service.SearchService` -- speaks the same vocabulary:
frozen :class:`Event` dataclasses published through an
:class:`EventBus`.  One vocabulary means one contract: the same
single-search plan produces the same typed event sequence whichever
surface executes it (pinned by the golden event-stream tests).

Events are plain data.  Each carries a ``scope`` (the workload, search,
shard or job it belongs to) and a human-readable ``message``; job
events add the job's plan hash.  :meth:`Event.to_dict` /
:func:`event_from_dict` round-trip every event losslessly through JSON,
which is how the service's HTTP endpoint streams them.

Consumption comes in two shapes:

* **sync subscription** -- ``bus.subscribe(callback)`` delivers every
  published event to the callback, in publish order, on the publishing
  thread;
* **async iteration** -- ``async for event in bus.stream(): ...``
  bridges the bus into asyncio without any third-party dependency
  (each stream buffers internally; closing the stream or the bus ends
  the iteration).

The bus is thread-safe: the service's worker threads publish
concurrently and delivery order within the bus is serialized.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterator

#: Registry of event type tags -> event classes (see :func:`event_from_dict`).
EVENT_TYPES: dict[str, type["Event"]] = {}


def register_event(cls: type["Event"]) -> type["Event"]:
    """Class decorator adding an event type to :data:`EVENT_TYPES`."""
    EVENT_TYPES[cls.type_tag] = cls
    return cls


@dataclass(frozen=True)
class Event:
    """Base progress event: a kind, a scope and a message.

    ``kind`` is the short class-level label the CLI prints
    (``[start]``, ``[finish]``, ``[requeue]``, ...) and the wire form
    carries; ``type_tag`` names the concrete class in serialized form.
    ``scope`` names what the event is about -- a workload, a
    search/shard id, or a job id.
    """

    scope: str = ""
    message: str = ""

    #: Short label: the CLI's ``[kind]`` prefix and the wire ``kind`` key.
    kind: ClassVar[str] = "event"
    #: Serialization tag identifying the concrete class.
    type_tag: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """Lossless plain-dict form (JSON-compatible).

        The ``event`` key carries the class tag so
        :func:`event_from_dict` rebuilds the exact type; ``kind`` is
        included for consumers that only dispatch on the string kind.
        """
        data: dict[str, Any] = {"event": self.type_tag, "kind": self.kind}
        for field in dataclasses.fields(self):
            data[field.name] = getattr(self, field.name)
        return data


register_event(Event)


def event_from_dict(data: dict[str, Any]) -> Event:
    """Rebuild a typed event from :meth:`Event.to_dict` output."""
    data = dict(data)
    tag = data.pop("event", "event")
    data.pop("kind", None)
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise ValueError(
            f"unknown event type {tag!r}; known: "
            + ", ".join(sorted(EVENT_TYPES))
        )
    return cls(**data)


def event_to_json(event: Event) -> str:
    """One-line JSON form of an event (the pipe/journal wire codec).

    Newline-free by construction (``json.dumps`` escapes embedded
    newlines), so events can be framed one per line across a process
    pipe or appended to a JSONL journal.  Exactly the
    :meth:`Event.to_dict` document -- the same shape the HTTP
    ``/events`` endpoint serves -- so anything crossing a process
    boundary is by construction limited to the JSON-codec-representable
    event vocabulary.
    """
    return json.dumps(event.to_dict(), sort_keys=True)


def event_from_json(text: str) -> Event:
    """Inverse of :func:`event_to_json`."""
    return event_from_dict(json.loads(text))


# --- run / search / campaign events ----------------------------------------


@register_event
@dataclass(frozen=True)
class RunStarted(Event):
    """A workload run began; ``scope`` is the workload name."""

    kind: ClassVar[str] = "start"
    type_tag: ClassVar[str] = "run-started"


@register_event
@dataclass(frozen=True)
class RunFinished(Event):
    """A workload run completed; ``scope`` is the workload name."""

    kind: ClassVar[str] = "finish"
    type_tag: ClassVar[str] = "run-finished"


@register_event
@dataclass(frozen=True)
class SearchStarted(Event):
    """A search / shard / phase began; ``scope`` names it."""

    kind: ClassVar[str] = "start"
    type_tag: ClassVar[str] = "search-started"


@register_event
@dataclass(frozen=True)
class SearchFinished(Event):
    """A search / shard / phase completed; ``scope`` names it."""

    kind: ClassVar[str] = "finish"
    type_tag: ClassVar[str] = "search-finished"


@register_event
@dataclass(frozen=True)
class ShardRequeued(Event):
    """A campaign shard was re-queued after a worker death."""

    kind: ClassVar[str] = "requeue"
    type_tag: ClassVar[str] = "shard-requeued"


@register_event
@dataclass(frozen=True)
class PoolFallback(Event):
    """A campaign exhausted its pool-restart budget; going in-process."""

    kind: ClassVar[str] = "fallback"
    type_tag: ClassVar[str] = "pool-fallback"


@register_event
@dataclass(frozen=True)
class ShardCached(Event):
    """A campaign shard was served from the result store, not executed.

    The shard-granular sibling of the service-level
    :class:`CacheHit`: ``scope`` is the shard id and ``plan_hash`` the
    shard's canonical single-search plan hash
    (:attr:`repro.orchestration.shards.ShardSpec.shard_hash`).  Tests
    and benches count these to assert how much of a sweep was memoized.
    """

    plan_hash: str = ""

    kind: ClassVar[str] = "cache-hit"
    type_tag: ClassVar[str] = "shard-cached"


# --- service job events -----------------------------------------------------


@dataclass(frozen=True)
class JobEvent(Event):
    """Base class of service job lifecycle events.

    ``scope`` is the job id; ``plan_hash`` the job's canonical
    :func:`repro.plans.plan_hash`.
    """

    plan_hash: str = ""

    type_tag: ClassVar[str] = "job-event"


@register_event
@dataclass(frozen=True)
class JobQueued(JobEvent):
    """A job entered the service queue."""

    kind: ClassVar[str] = "queued"
    type_tag: ClassVar[str] = "job-queued"


@register_event
@dataclass(frozen=True)
class JobStarted(JobEvent):
    """A worker picked the job up and began executing it."""

    kind: ClassVar[str] = "running"
    type_tag: ClassVar[str] = "job-started"


@register_event
@dataclass(frozen=True)
class JobCompleted(JobEvent):
    """The job finished successfully; its result is available."""

    kind: ClassVar[str] = "done"
    type_tag: ClassVar[str] = "job-completed"


@register_event
@dataclass(frozen=True)
class JobCancelled(JobEvent):
    """The job was cancelled (checkpointed state, if any, survives)."""

    kind: ClassVar[str] = "cancelled"
    type_tag: ClassVar[str] = "job-cancelled"


@register_event
@dataclass(frozen=True)
class JobFailed(JobEvent):
    """The job raised; ``message`` carries the error."""

    kind: ClassVar[str] = "failed"
    type_tag: ClassVar[str] = "job-failed"


@register_event
@dataclass(frozen=True)
class CacheHit(JobEvent):
    """A submitted plan matched a stored result; nothing re-ran."""

    kind: ClassVar[str] = "cache-hit"
    type_tag: ClassVar[str] = "cache-hit"


# --- federation (agent / lease) events --------------------------------------


@register_event
@dataclass(frozen=True)
class AgentJoined(Event):
    """A worker agent registered with the coordinator.

    ``scope`` is the agent id; ``name`` the agent's self-reported
    (human-friendly) name.
    """

    name: str = ""

    kind: ClassVar[str] = "agent-joined"
    type_tag: ClassVar[str] = "agent-joined"


@register_event
@dataclass(frozen=True)
class AgentLost(Event):
    """A worker agent left, or missed enough heartbeats to be presumed
    dead; ``scope`` is the agent id."""

    name: str = ""

    kind: ClassVar[str] = "agent-lost"
    type_tag: ClassVar[str] = "agent-lost"


@register_event
@dataclass(frozen=True)
class JobLeased(JobEvent):
    """A remote agent claimed the job under a heartbeat-renewed lease.

    ``scope`` is the job id; ``agent`` the claiming agent's id;
    ``lease_seconds`` the lease term, after which a lease that was
    never renewed expires and the job re-queues.
    """

    agent: str = ""
    lease_seconds: float = 0.0

    kind: ClassVar[str] = "leased"
    type_tag: ClassVar[str] = "job-leased"


@register_event
@dataclass(frozen=True)
class LeaseExpired(JobEvent):
    """A job's lease ran out of heartbeats; the job re-queues and will
    resume elsewhere from its per-hash checkpoint.

    ``agent`` is the id of the agent that held (and lost) the lease.
    """

    agent: str = ""

    kind: ClassVar[str] = "lease-expired"
    type_tag: ClassVar[str] = "lease-expired"


# --- the bus ----------------------------------------------------------------


EventCallback = Callable[[Event], None]

#: Sentinel closing an :class:`EventStream`'s queue.
_CLOSED = object()


class EventStream:
    """One subscriber's buffered view of a bus, sync- and async-iterable.

    Created by :meth:`EventBus.stream`; usable as a context manager
    (closing unsubscribes).  Synchronous iteration blocks until the
    stream closes; asynchronous iteration (``async for``) awaits
    without blocking the event loop, via a worker thread per ``get``.
    """

    def __init__(self, bus: "EventBus"):
        self._bus = bus
        self._queue: queue.Queue = queue.Queue()
        self._closed = False

    def _deliver(self, event: Event) -> None:
        if not self._closed:
            self._queue.put(event)

    def close(self) -> None:
        """Unsubscribe from the bus and end iteration."""
        if not self._closed:
            self._closed = True
            self._bus._detach(self)
            self._queue.put(_CLOSED)

    def __enter__(self) -> "EventStream":
        """Context-manager entry: the stream itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit closes the stream."""
        self.close()

    def __iter__(self) -> Iterator[Event]:
        """Yield events in publish order until the stream closes."""
        while True:
            item = self._queue.get()
            if item is _CLOSED:
                return
            yield item

    def __aiter__(self) -> "EventStream":
        """Asynchronous iteration protocol entry."""
        return self

    async def __anext__(self) -> Event:
        """Await the next event without blocking the event loop."""
        import asyncio

        if self._closed and self._queue.empty():
            raise StopAsyncIteration
        item = await asyncio.to_thread(self._queue.get)
        if item is _CLOSED:
            raise StopAsyncIteration
        return item


class EventBus:
    """Thread-safe publish/subscribe hub for typed events.

    Callbacks run synchronously on the publishing thread, in subscribe
    order.  Recording (when on) and the subscriber snapshot happen
    under one lock, so :attr:`history` reflects a single global order;
    delivery itself runs *outside* the lock (a callback may safely
    publish or subscribe), so two racing publishers' callbacks can
    interleave -- consumers needing strict per-job order read the
    service's per-job logs, which are appended under the service lock.
    ``record=True`` additionally appends every event to
    :attr:`history`.
    """

    def __init__(self, record: bool = False):
        self._lock = threading.Lock()
        self._subscribers: list[EventCallback] = []
        self._streams: list[EventStream] = []
        self._record = record
        #: Recorded events when ``record=True`` (publish order).
        self.history: list[Event] = []

    def subscribe(self, callback: EventCallback) -> EventCallback:
        """Register a callback; returns it (handy for unsubscribing)."""
        with self._lock:
            self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: EventCallback) -> None:
        """Remove a previously subscribed callback."""
        with self._lock:
            self._subscribers.remove(callback)

    def stream(self) -> EventStream:
        """Open a buffered :class:`EventStream` over future events."""
        stream = EventStream(self)
        with self._lock:
            self._streams.append(stream)
        return stream

    def publish(self, event: Event) -> None:
        """Deliver one event to every subscriber and open stream."""
        with self._lock:
            if self._record:
                self.history.append(event)
            subscribers = list(self._subscribers)
            streams = list(self._streams)
        for callback in subscribers:
            callback(event)
        for stream in streams:
            stream._deliver(event)

    def close(self) -> None:
        """Close every open stream (subscribed callbacks are unaffected)."""
        with self._lock:
            streams = list(self._streams)
        for stream in streams:
            stream.close()

    # -- internals -----------------------------------------------------------

    def _detach(self, stream: EventStream) -> None:
        with self._lock:
            if stream in self._streams:
                self._streams.remove(stream)
