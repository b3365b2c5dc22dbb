"""The process execution backend, now a thin shim over the WorkerPool.

Historically this module owned its own subprocess runtime: one spawn
per job, a typed event pipe, cooperative cancellation, orphan
detection.  That machinery now lives in
:class:`repro.service.pool.WorkerPool` -- a pool of **long-lived**
worker processes shared by the campaign's shard dispatch, the
service's ``--backend process`` jobs and the federation agent -- and
this module keeps only the job-level vocabulary on top of it:
:func:`run_job_in_process` (the call the service and agent make per
job) and :class:`ProcessWorkerError` (how a dead or unpicklably-failed
job surfaces to callers).

The observable contract is unchanged from the spawn-per-job days: the
child executes the plan through the same
:func:`~repro.service.executor.execute_plan` dispatcher while
streaming typed events back over a pipe, the parent republishes each
event in order (so :class:`~repro.events.EventBus` subscribers, the
HTTP ``/jobs/<id>/events`` endpoint and the golden event-stream tests
observe the identical sequence whichever backend ran the job),
cancellation stays cooperative with checkpoints written before
:class:`~repro.core.search.SearchCancelled` propagates, and cacheable
results cross the pipe as their canonical store payload so the
store's byte-identity guarantee holds.  What changed is the cost
model: with a persistent ``pool``, the 40th job runs on a worker
whose imports and tiling memo are already warm instead of paying a
fresh spawn.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.events import Event
from repro.plans import RunPlan
from repro.service.pool import WorkerDied, WorkerPool, WorkerTaskError


class ProcessWorkerError(RuntimeError):
    """A job's subprocess failed in a way the plan's code didn't raise.

    Covers two cases: the worker died without a terminal message (OOM
    kill, hard crash -- ``exitcode`` then says how), and a child-side
    exception whose object could not be pickled back (the original
    type and message are preserved in the error text).
    """

    def __init__(self, message: str, exitcode: int | None = None):
        super().__init__(message)
        self.exitcode = exitcode


def run_job_in_process(
    plan: RunPlan,
    emit: Callable[[Event], None],
    cancel_requested: Callable[[], bool],
    fallback_checkpoint_dir: str | None = None,
    store_dir: str | None = None,
    pool: WorkerPool | None = None,
) -> tuple[Any, dict[str, Any] | None]:
    """Execute one plan on a pool worker process (blocking).

    Streams every child event through ``emit`` in order, forwards a
    pending cancel request (``cancel_requested`` polled alongside the
    pipe) to the child exactly once, and returns
    ``(result_obj, payload)`` where exactly one side is set: cacheable
    workloads come back as their canonical store payload (decode
    lazily or :func:`repro.service.store.decode_result` eagerly),
    codec-less workloads as the live result object.

    ``pool`` is the :class:`~repro.service.pool.WorkerPool` to run on;
    passing a persistent pool (the service and agent both keep one) is
    what makes worker reuse happen.  When None, a transient one-worker
    pool is stood up and torn down around the job -- the old
    spawn-per-job behavior, kept for direct callers.

    ``store_dir`` names a *persistent*
    :class:`~repro.service.store.ResultStore` directory the child
    rebuilds and memoizes campaign shards through (read-through before
    running each shard, write-through after) -- the process-backend
    spelling of the thread backend's live store handle, and a
    shared-filesystem contract exactly like the checkpoint directory.

    Raises whatever the plan's execution raised --
    :class:`~repro.core.search.SearchCancelled` included -- or
    :class:`ProcessWorkerError` when the child died without reporting
    (or failed with an exception that could not be pickled back).
    """
    transient = pool is None
    if transient:
        pool = WorkerPool(1, name="repro-job")
    try:
        return pool.run_plan(
            plan,
            emit=emit,
            cancel_requested=cancel_requested,
            fallback_checkpoint_dir=fallback_checkpoint_dir,
            store_dir=store_dir,
        )
    except WorkerDied as exc:
        raise ProcessWorkerError(
            f"job subprocess died without reporting a result "
            f"(exit code {exc.exitcode})",
            exitcode=exc.exitcode,
        ) from exc
    except WorkerTaskError as exc:
        raise ProcessWorkerError(str(exc)) from exc
    finally:
        if transient:
            pool.close()
