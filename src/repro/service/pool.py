"""The one process runtime: a pool of long-lived worker processes.

Every parallel execution surface runs on :class:`WorkerPool`: campaign
shard fan-out, the service's ``--backend process`` jobs, the
federation agent's jobs and
:class:`~repro.core.evaluator.ParallelEvaluator`'s child evaluations.
Its workers

* are spawned lazily (first checkout) under the fork-preferring
  context, so registry state survives the boundary (and a worker's own
  pool inherits its warm estimators);
* stay alive across tasks -- a campaign's 40th shard and a service's
  40th job run on a worker whose imports, caches and allocator are
  already hot (``worker.reuse`` in :meth:`stats` counts exactly this),
  and whose latency estimator per platform has priced the earlier
  tasks' layers and architectures;
* frame every child->parent message as a ``(tag, seq, ...)`` tuple;
  cancellation is a per-worker *generation* value the child polls
  between trials (and between batch items), and a worker orphaned by
  a SIGKILLed parent notices the changed ppid and exits at its next
  poll;
* report worker death explicitly: a handle whose worker died carries
  a :class:`WorkerDied` error plus the set of batch items that already
  landed, so the caller can re-queue exactly the lost items
  (campaigns re-queue them *individually* and their checkpoints
  resume).

Tasks come in two kinds.  :meth:`WorkerPool.submit` runs a batch of
calls ``fn(*call)``, one ``item-done`` frame per call so results stream
back as they finish -- the campaign's shard dispatch and the
evaluator's one-child tasks.  :meth:`WorkerPool.run_plan` runs one full
:class:`~repro.plans.RunPlan` through
:func:`~repro.service.executor.execute_plan` with typed events
streamed back -- the service's process backend and the federation
agent's job execution.  Either kind's results leave the worker in one
form: a campaign shard as its
:class:`~repro.orchestration.shards.ShardOutcome`, a cacheable plan's
result as the :class:`~repro.service.store.EncodedResult` the worker
encoded once, any other plan's result as the object.

Thread safety is by *checkout*: a worker belongs to exactly one
handle (hence one calling thread) from dispatch until its terminal
frame is processed, so pipes never interleave across threads.  The
pool object itself (checkout, release, stats) is lock-protected and
shared freely across threads -- the service's worker threads all draw
from one pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.events import Event, event_from_json, event_to_json
from repro.plans import RunPlan, canonical_plan_json

#: Seconds between parent-side polls of a pipe and the cancel flag.
_POLL_SECONDS = 0.05

#: Seconds an idle child waits on its task pipe before re-checking
#: whether its parent is still alive.
_IDLE_POLL_SECONDS = 0.2


class WorkerDied(RuntimeError):
    """A pool worker died mid-task without a terminal frame.

    Carries the worker's ``exitcode`` (None when it could not be
    reaped).  The campaign re-queues the lost shards, the evaluator
    scores the lost child in-process, and :meth:`WorkerPool.run_plan`
    raises it to the service and agent, whose job then fails.
    """

    def __init__(self, message: str, exitcode: int | None = None):
        super().__init__(message)
        self.exitcode = exitcode


class WorkerTaskError(RuntimeError):
    """A task failed in the child with an unpicklable exception.

    The original type and message survive in the error text; the
    worker itself is healthy and returns to the pool.
    """


# -- child side ---------------------------------------------------------------


def _exception_message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _picklable(exc: BaseException) -> BaseException | None:
    """The exception itself when it survives pickling, else None."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


def _worker_main(conn, parent_end, cancel_seq, parent_pid: int) -> None:
    """Long-lived worker body: loop over tasks until exit or orphaned.

    Parent->child frames: ``("task", seq, kind, payload)`` and
    ``("exit",)``.  Child->parent frames all carry the task's ``seq``
    so stale frames are impossible to misattribute:
    ``("event", seq, event_json)``, ``("item-done", seq, index,
    value)``, and exactly one terminal per task -- ``("done", seq,
    value)`` / ``("cancelled", seq, completed)`` / ``("failed", seq,
    message, picklable_exc_or_None)``.

    ``cancel_seq`` is a shared integer holding the *generation to
    cancel*: the parent sets it to a task's ``seq`` to cancel that
    task; earlier or later tasks are unaffected (no event-clearing
    races across task boundaries).

    ``parent_end`` is the parent's end of the pipe, which a fork copies
    into the worker.  The worker closes it first: holding it would keep
    the pipe open after the parent died, and a frame larger than the
    pipe's buffer -- a big result -- would then block forever instead
    of failing, leaving the orphan stuck.

    The worker keeps one latency estimator per platform for its whole
    life (:func:`repro.api.keep_estimators_warm`), so its jobs and
    shards share both cache tiers.

    A fork also copies the owner's signal setup: an asyncio loop's
    wakeup fd, which would hand a signal the worker receives to the
    owner's loop as if the owner had received it, and any Python
    SIGTERM handler, under which the worker would outlive a SIGTERM.
    The worker drops both, so SIGTERM ends the worker alone.
    """
    from repro.api import keep_estimators_warm

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    parent_end.close()
    keep_estimators_warm()
    try:
        while True:
            if not conn.poll(_IDLE_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    return  # orphaned while idle: parent is gone
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent closed the pipe (pool shutdown)
            if message[0] == "exit":
                return
            _, seq, kind, payload = message
            try:
                if kind == "plan":
                    _child_run_plan(conn, seq, cancel_seq, parent_pid,
                                    payload)
                else:
                    _child_run_batch(conn, seq, cancel_seq, parent_pid,
                                     payload)
            except (BrokenPipeError, OSError):
                return  # parent vanished mid-report
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown
            pass


def _child_run_batch(conn, seq: int, cancel_seq, parent_pid: int,
                     payload) -> None:
    """Run a batch of calls, streaming one ``item-done`` per call.

    Cancellation (and parent death) is checked *between* items: the
    in-flight call finishes -- its own checkpoint cadence preserves
    progress -- and the remaining items never start.
    """
    fn, calls = payload
    for index, call in enumerate(calls):
        if cancel_seq.value == seq or os.getppid() != parent_pid:
            conn.send(("cancelled", seq, index))
            return
        try:
            value = fn(*call)
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            conn.send(("failed", seq, _exception_message(exc),
                       _picklable(exc)))
            return
        conn.send(("item-done", seq, index, value))
    conn.send(("done", seq, None))


def _child_run_plan(conn, seq: int, cancel_seq, parent_pid: int,
                    payload) -> None:
    """Execute one plan, streaming typed events; exactly one terminal.

    The plan crosses as canonical JSON, a persistent store directory
    is rebuilt child-side (a live store handle cannot cross), and a
    cacheable result is encoded here, once, and crosses as its
    :class:`~repro.service.store.EncodedResult` -- the canonical bytes
    the store keeps, so its byte-identity guarantee holds whichever
    backend ran the job.  Any other result crosses as the object.
    """
    from repro.core.search import SearchCancelled
    from repro.service import store as store_mod
    from repro.service.executor import execute_plan

    plan_json, fallback_checkpoint_dir, store_dir = payload
    plan = RunPlan.from_json(plan_json)
    store = None if store_dir is None else store_mod.ResultStore(store_dir)

    def emit(event: Event) -> None:
        conn.send(("event", seq, event_to_json(event)))

    def should_stop() -> bool:
        # A changed parent pid means the pool's owner died: stop (and
        # checkpoint) instead of computing for a reader that is gone.
        return cancel_seq.value == seq or os.getppid() != parent_pid

    try:
        result = execute_plan(
            plan,
            emit=emit,
            should_stop=should_stop,
            fallback_checkpoint_dir=fallback_checkpoint_dir,
            store=store,
        )
        if store_mod.is_cacheable(plan):
            result = store_mod.EncodedResult.of(
                store_mod.encode_result(plan, result))
    except SearchCancelled as exc:
        conn.send(("cancelled", seq, exc.completed))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        conn.send(("failed", seq, _exception_message(exc), _picklable(exc)))
    else:
        try:
            conn.send(("done", seq, result))
        except Exception as exc:  # unpicklable result object
            conn.send(("failed", seq,
                       f"result of workload {plan.workload!r} could "
                       f"not cross the process boundary: "
                       f"{_exception_message(exc)}", None))


# -- parent side --------------------------------------------------------------


def _import_job_path() -> None:
    """Import what a plan task runs, so workers forked after it inherit it.

    The ``repro`` packages export lazily, so a coordinator that only
    serves (the gateway, an agent) has not loaded the search stack;
    without this, each new worker would import it on its first job.
    """
    import repro.api  # noqa: F401
    import repro.orchestration  # noqa: F401
    import repro.service.executor  # noqa: F401


def _context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context workers spawn under.

    ``fork`` keeps the parent's registry state (third-party controllers
    or evaluators registered in-process stay resolvable in the child)
    and, in a worker's own pool, its warm estimators; platforms without
    it fall back
    to the default start method, where only entry-point-importable
    components survive the boundary.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class _Worker:
    """One long-lived worker process plus its parent-side plumbing."""

    __slots__ = ("process", "conn", "cancel_seq", "tasks_run")

    def __init__(self, process, conn, cancel_seq):
        self.process = process
        self.conn = conn
        self.cancel_seq = cancel_seq
        #: Tasks this worker has completed (reuse accounting).
        self.tasks_run = 0


class TaskHandle:
    """One dispatched task: its worker, streamed results, terminal state.

    A handle is owned by the thread that submitted it; only that
    thread may :meth:`WorkerPool.wait` on it or read its fields.

    Attributes:
        seq: the task's generation number (unique per pool).
        item_count: how many batch items the task carries (1 for plan
            tasks).
        delivered: indices whose ``item-done`` frames have arrived.
        outcome: the terminal frame, once processed (``("done", seq,
            value)`` / ``("cancelled", seq, n)`` / ``("failed", seq,
            message, exc)``); None while running.
        error: a :class:`WorkerDied` when the worker died mid-task.
    """

    __slots__ = ("seq", "item_count", "worker", "on_item", "on_event",
                 "delivered", "outcome", "error")

    def __init__(self, seq: int, item_count: int, worker: _Worker,
                 on_item=None, on_event=None):
        self.seq = seq
        self.item_count = item_count
        self.worker = worker
        self.on_item = on_item
        self.on_event = on_event
        self.delivered: set[int] = set()
        self.outcome: tuple | None = None
        self.error: WorkerDied | None = None

    @property
    def finished(self) -> bool:
        """Whether a terminal frame (or the worker's death) landed."""
        return self.outcome is not None or self.error is not None

    @property
    def lost_indices(self) -> list[int]:
        """Batch items with no result when the task ended (in order)."""
        return [i for i in range(self.item_count) if i not in self.delivered]


class WorkerPool:
    """A pool of long-lived worker processes shared across dispatchers.

    Parameters:
        max_workers: concurrent worker processes (spawned lazily as
            tasks arrive, replaced lazily after deaths).
        name: prefix for worker process names (debugging/ps).
    """

    def __init__(self, max_workers: int, name: str = "repro-pool"):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.name = name
        self._ctx = _context()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: list[_Worker] = []
        self._checked_out: set[_Worker] = set()
        self._next_seq = 1
        self._closed = False
        # stats counters (guarded by self._lock)
        self._dispatched = 0
        self._reused = 0
        self._spawned = 0
        self._deaths = 0
        # Workers are non-daemon (they may fan out pools of their
        # own), so a pool abandoned without close() -- say a service
        # dropped without shutdown() -- would block interpreter exit
        # on multiprocessing's child joins.  Registered *after*
        # multiprocessing imported, this runs before those joins.
        atexit.register(self.close)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down (idempotent).

        Callers drain their in-flight handles first (the campaign's
        cancel path, the service's thread join), so by the time close
        runs every worker is idle and exits on the ``exit`` frame;
        any still-checked-out worker (a crashed dispatcher) is
        terminated defensively.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            abandoned = list(self._checked_out)
            self._checked_out.clear()
            self._cond.notify_all()
        atexit.unregister(self.close)
        for worker in idle:
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in abandoned:  # pragma: no cover - defensive teardown
            worker.process.terminate()
            worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- introspection ------------------------------------------------------

    def available(self) -> int:
        """Workers a submit could use right now without blocking."""
        with self._lock:
            return self.max_workers - len(self._checked_out)

    def stats(self) -> dict[str, int]:
        """Pool counters, in the spelling ``/metrics`` reports.

        ``pool.dispatch`` counts tasks handed to workers;
        ``worker.reuse`` counts dispatches that found a warm worker
        (one that had already run at least one task).
        """
        with self._lock:
            return {
                "pool.dispatch": self._dispatched,
                "worker.reuse": self._reused,
                "worker.spawn": self._spawned,
                "worker.death": self._deaths,
                "workers.alive": len(self._idle) + len(self._checked_out),
            }

    # -- dispatch -----------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        calls: Sequence[tuple],
        on_item: Callable[[int, Any], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> TaskHandle | None:
        """Dispatch a batch of ``fn(*call)`` calls to one worker.

        Blocks until a worker is free (``should_stop`` polled while
        waiting; a stop returns None with nothing dispatched).  The
        worker runs the calls in order, streaming one result frame per
        call; ``on_item(index, value)`` fires from the waiting
        thread's :meth:`wait` as each frame is processed.  ``fn``
        crosses the pipe by reference (a module-level callable), so
        monkeypatched module globals resolve in forked workers exactly
        as they do in-process.
        """
        if not calls:
            raise ValueError("submit needs at least one call")
        worker = self._checkout(should_stop)
        if worker is None:
            return None
        handle = self._dispatch(worker, "batch", (fn, list(calls)),
                                item_count=len(calls), on_item=on_item)
        return handle

    def run_plan(
        self,
        plan: RunPlan,
        emit: Callable[[Event], None],
        cancel_requested: Callable[[], bool],
        fallback_checkpoint_dir: str | None = None,
        store_dir: str | None = None,
    ) -> Any:
        """Execute one plan on a pool worker (blocking).

        Events stream through ``emit`` in order, a pending cancel
        request is forwarded exactly once, and the return is the
        result: a cacheable workload's comes back as the
        :class:`~repro.service.store.EncodedResult` the worker encoded
        (decode it with :meth:`~repro.service.store.EncodedResult.decode`),
        any other as the object itself.

        Raises whatever the plan's execution raised --
        :class:`~repro.core.search.SearchCancelled` included --
        :class:`WorkerTaskError` for a child exception that could not
        be pickled back, or :class:`WorkerDied` when the worker died
        without reporting.
        """
        _import_job_path()  # before the checkout that may fork
        worker = self._checkout(None)
        handle = self._dispatch(
            worker, "plan",
            (canonical_plan_json(plan), fallback_checkpoint_dir, store_dir),
            item_count=1, on_event=emit,
        )
        cancelled = False
        while not handle.finished:
            if cancel_requested() and not cancelled:
                self.cancel(handle)
                cancelled = True
            self.wait([handle], timeout=_POLL_SECONDS)
        if handle.error is not None:
            raise handle.error
        tag = handle.outcome[0]
        if tag == "done":
            return handle.outcome[2]
        if tag == "cancelled":
            from repro.core.search import SearchCancelled

            raise SearchCancelled(handle.outcome[2])
        assert tag == "failed", f"unknown terminal frame {tag!r}"
        message, original = handle.outcome[2], handle.outcome[3]
        if original is not None:
            raise original
        raise WorkerTaskError(message)

    def cancel(self, handle: TaskHandle) -> None:
        """Request cooperative cancellation of one in-flight task.

        Sets the worker's cancel generation to the task's ``seq``;
        the child stops at its next poll boundary (between batch
        items, between trials inside a plan).  A no-op on finished
        handles -- the worker may already be running someone else's
        task under a newer generation.
        """
        if not handle.finished:
            handle.worker.cancel_seq.value = handle.seq

    def wait(self, handles: Sequence[TaskHandle],
             timeout: float = 0.5) -> list[TaskHandle]:
        """Process pipe frames for ``handles``; return the newly finished.

        Invokes each handle's ``on_item``/``on_event`` callbacks on
        the calling thread as frames are processed.  Returns as soon
        as at least one handle finishes (terminal frame or worker
        death) or the timeout elapses, whichever is first.
        """
        pending = [h for h in handles if not h.finished]
        finished = [h for h in handles if h.finished]
        if finished or not pending:
            return finished
        deadline = time.monotonic() + timeout
        while True:
            by_conn = {h.worker.conn: h for h in pending if not h.finished}
            remaining = deadline - time.monotonic()
            if not by_conn or remaining <= 0:
                break
            ready = mp_connection.wait(list(by_conn), timeout=remaining)
            for conn in ready:
                self._pump(by_conn[conn])
            finished = [h for h in pending if h.finished]
            if finished:
                return finished
        return [h for h in pending if h.finished]

    # -- internals ----------------------------------------------------------

    def _dispatch(self, worker: _Worker, kind: str, payload,
                  item_count: int, on_item=None, on_event=None) -> TaskHandle:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._dispatched += 1
            if worker.tasks_run > 0:
                self._reused += 1
        handle = TaskHandle(seq, item_count, worker,
                            on_item=on_item, on_event=on_event)
        try:
            worker.conn.send(("task", seq, kind, payload))
        except (OSError, BrokenPipeError):
            # The idle worker died before the task reached it.
            self._mark_dead(handle)
        return handle

    def _checkout(self, should_stop) -> _Worker | None:
        """Claim an idle worker, spawning up to ``max_workers`` lazily."""
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("WorkerPool is closed")
                if self._idle:
                    worker = self._idle.pop()
                    if not worker.process.is_alive():
                        # Killed while idle: replace it rather than
                        # fail the task it would have been sent.
                        self._deaths += 1
                        worker.conn.close()
                        continue
                    self._checked_out.add(worker)
                    return worker
                if len(self._checked_out) < self.max_workers:
                    worker = self._spawn_locked()
                    self._checked_out.add(worker)
                    return worker
                if should_stop is not None and should_stop():
                    return None
                self._cond.wait(timeout=_POLL_SECONDS)

    def _spawn_locked(self) -> _Worker:
        """Start one worker (caller holds the lock; spawning is fast
        under fork and workers idle until their first task)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        cancel_seq = self._ctx.Value("q", 0, lock=False)
        # Not daemons: plan tasks may be sweeps that fan out worker
        # pools of their own, which daemonic processes may not do.  An
        # abandoned worker (parent SIGKILLed) exits on its own via the
        # ppid check in its idle/trial polls.
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, cancel_seq, os.getpid()),
            name=f"{self.name}-worker-{self._spawned}",
        )
        process.start()
        child_conn.close()
        self._spawned += 1
        return _Worker(process, parent_conn, cancel_seq)

    def _pump(self, handle: TaskHandle) -> None:
        """Drain one worker's pipe into its handle (terminal included)."""
        worker = handle.worker
        while not handle.finished:
            try:
                if not worker.conn.poll(0):
                    if not worker.process.is_alive():
                        # Dead without EOF (e.g. inherited descriptors
                        # holding the pipe open): reap it.
                        self._mark_dead(handle)
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._mark_dead(handle)
                return
            self._apply(handle, message)

    def _apply(self, handle: TaskHandle, message: tuple) -> None:
        tag = message[0]
        if message[1] != handle.seq:
            return  # stale frame from an earlier generation (defensive)
        if tag == "event":
            if handle.on_event is not None:
                handle.on_event(event_from_json(message[2]))
        elif tag == "item-done":
            index, value = message[2], message[3]
            handle.delivered.add(index)
            if handle.on_item is not None:
                handle.on_item(index, value)
        else:  # terminal: done / cancelled / failed
            handle.outcome = message
            self._release(handle.worker)

    def _release(self, worker: _Worker) -> None:
        """Return a worker to the idle set after its terminal frame."""
        worker.tasks_run += 1
        with self._cond:
            self._checked_out.discard(worker)
            if self._closed:
                shut_down = True
            else:
                shut_down = False
                self._idle.append(worker)
                self._cond.notify()
        if shut_down:  # pragma: no cover - close raced a release
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
            worker.process.join(timeout=5.0)

    def _mark_dead(self, handle: TaskHandle) -> None:
        """Record a worker death against its in-flight handle."""
        worker = handle.worker
        worker.process.join(timeout=5.0)
        exitcode = worker.process.exitcode
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
            worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        handle.error = WorkerDied(
            f"pool worker died without reporting a result "
            f"(exit code {exitcode})",
            exitcode=exitcode,
        )
        with self._cond:
            self._checked_out.discard(worker)
            self._deaths += 1
            self._cond.notify()
