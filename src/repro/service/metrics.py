"""Service observability: one registry, one ``/metrics`` JSON shape.

The HTTP front end (:mod:`repro.service.gateway`) answers
``GET /metrics`` from a :class:`MetricsRegistry` bound to its
:class:`~repro.service.SearchService`.  The snapshot is plain JSON
counters and gauges, cheap enough to poll:

* ``jobs`` -- job counts by lifecycle state;
* ``queue_depth`` -- queued jobs per tenant (anonymous submissions
  count under :data:`ANONYMOUS_TENANT`);
* ``store`` -- result-store entries plus hit/miss counters;
* ``estimator`` -- process-wide latency-estimator cache counters: the
  tiling-memo hit/miss rates per layer-kind bucket (``depthwise`` /
  ``pointwise`` / ``standard`` and the ``all`` total), so the dw/pw
  tiling path of MobileNet-class jobs is observable;
* ``pool`` -- the service's :class:`~repro.service.pool.WorkerPool`
  counters (``pool.dispatch``, ``worker.reuse``, ``worker.spawn``,
  ``worker.death``, ``workers.alive``), all zero until the first
  process-backend job builds the pool;
* ``counters`` -- front-end counters (connections accepted, requests
  served, SSE streams opened, events fanned out, 429/503 rejections,
  ...), registered by whoever owns the front end via
  :meth:`MetricsRegistry.inc`;
* ``gauges`` -- live callables (active SSE streams, open
  connections), registered via :meth:`MetricsRegistry.gauge`;
* ``uptime_seconds`` -- since the registry was built (server start).

The registry is thread-safe: worker threads bump counters while the
front end snapshots concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import SearchService

#: Tenant bucket for submissions that carried no tenant attribution.
ANONYMOUS_TENANT = "anonymous"


class MetricsRegistry:
    """Counters + gauges + service-derived stats behind ``/metrics``.

    Parameters:
        service: the service whose jobs/store the snapshot reflects.
        clock: monotonic clock (injectable for tests).
    """

    def __init__(self, service: "SearchService",
                 clock: Callable[[], float] = time.monotonic):
        self._service = service
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, Callable[[], Any]] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` by ``amount`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """The current value of counter ``name`` (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        """Register a live gauge: ``read()`` is called per snapshot."""
        with self._lock:
            self._gauges[name] = read

    def snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` JSON document, assembled fresh per call."""
        # Lazy import: metrics stays importable without the FPGA stack.
        from repro.fpga.tiling import process_memo_snapshot

        jobs: dict[str, int] = {}
        queue_depth: dict[str, int] = {}
        for handle in self._service.jobs():
            info = handle.info()
            state = info["state"]
            jobs[state] = jobs.get(state, 0) + 1
            if state in ("queued", "running"):
                tenant = info.get("tenant") or ANONYMOUS_TENANT
                queue_depth[tenant] = queue_depth.get(tenant, 0) + 1
        store = self._service.store
        with self._lock:
            counters = dict(self._counters)
            gauges = {name: read() for name, read in self._gauges.items()}
        return {
            "uptime_seconds": self._clock() - self._started,
            "jobs": jobs,
            "queue_depth": queue_depth,
            "store": {
                "entries": len(store),
                "hits": store.hits,
                "misses": store.misses,
            },
            "estimator": {"tiling_memo": process_memo_snapshot()},
            "pool": self._service.pool_stats(),
            "counters": counters,
            "gauges": gauges,
        }
