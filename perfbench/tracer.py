"""Outside-in span tracing for the benchmark.

The program under test carries no instrumentation of its own.  A
:class:`Tracer` replaces selected public callables (methods on a class,
functions on a module) with wrappers that record one span per call, and
puts the originals back on :meth:`Tracer.uninstall`.

A span is ``(name, start_ns, end_ns, parent, group)``.  ``parent`` is
the innermost span still open on the same thread when the span opened,
so the children of one span run one after another on that span's own
thread and never overlap; a layer's self time is therefore its duration
minus the sum of its children's durations.  ``group`` ties together the
spans of one trial batch (search workloads) or one job (service
workload).

Spans live in flat ``array`` columns (about 25 bytes per span) and are
written out once, by :meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: ``group`` argument of :meth:`Tracer.wrap`: each call starts a new group
#: (a new trial batch) that later spans on the thread belong to.
NEW_GROUP = "new"

_NO_PARENT = -1
_NO_GROUP = -1


class Tracer:
    """In-memory span recorder with reversible wrapping of public calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.group_keys: list[Any] = []
        self._group_ids: dict[Any, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("B")
        self.parent = array("i")
        self.group = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- identifiers ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Small integer for a span name (registered on first use)."""
        with self._lock:
            ident = self._name_ids.get(name)
            if ident is None:
                ident = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return ident

    def group_id(self, key: Any) -> int:
        """Small integer for a group key (a job's plan hash, say)."""
        with self._lock:
            ident = self._group_ids.get(key)
            if ident is None:
                ident = self._group_ids[key] = len(self.group_keys)
                self.group_keys.append(key)
            return ident

    def _new_group(self) -> int:
        with self._lock:
            self.group_keys.append(len(self.group_keys))
            return self.group_keys[-1]

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, group: int | None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else _NO_PARENT
        if group is None:
            group = (self.group[parent] if parent != _NO_PARENT
                     else getattr(self._local, "group", _NO_GROUP))
        with self._lock:
            index = len(self.start)
            self.start.append(0)
            self.end.append(0)
            self.name.append(name_id)
            self.parent.append(parent)
            self.group.append(group)
        stack.append(index)
        self.start[index] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack().pop()

    def record(self, name: str, start_ns: int, end_ns: int,
               group_key: Any = None) -> None:
        """Add a finished top-level span measured by the caller."""
        name_id = self.name_id(name)
        group = _NO_GROUP if group_key is None else self.group_id(group_key)
        with self._lock:
            self.start.append(start_ns)
            self.end.append(end_ns)
            self.name.append(name_id)
            self.parent.append(_NO_PARENT)
            self.group.append(group)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             group: str | Callable[..., Any] | None = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``group`` is ``None`` (inherit the parent span's group, or the
        thread's current one), :data:`NEW_GROUP` (this call opens a new
        group) or a function of the call's arguments returning a group
        key.
        """
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if group is None:
                ident = None
            elif group == NEW_GROUP:
                ident = tracer._local.group = tracer._new_group()
            else:
                ident = tracer.group_id(group(*args, **kwargs))
            index = tracer._open(name_id, ident)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis and output ----------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The span table as NumPy columns (copies)."""
        return {
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "group": np.array(self.group, dtype=np.int64),
        }

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)`` over every recorded span."""
        cols = self.columns()
        self_ns = self_times(cols["start"], cols["end"], cols["parent"])
        count = len(self.names)
        seconds = np.bincount(cols["name"], weights=self_ns,
                              minlength=count) / 1e9
        calls = np.bincount(cols["name"], minlength=count)
        return {name: (float(seconds[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write every span, the name table and ``header`` to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(tmp, names=np.array(json.dumps(self.names)),
                 header=np.array(json.dumps(header)), **self.columns())
        tmp.replace(path)


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover (ns).

    Children of one span run sequentially on its thread (the tracer
    assigns parents from a per-thread stack), so the time they cover is
    the sum of their durations.
    """
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered
