"""The one workload dispatcher every execution surface shares.

:func:`execute_plan` is the single place a :class:`~repro.plans.RunPlan`
turns into work.  :meth:`repro.api.Session.run` reaches it through a
one-job :class:`~repro.service.SearchService`; the long-lived service's
worker threads call it directly; nothing else in the codebase executes
a plan.  That is the redesign's invariant: *exactly one execution
engine*, so a plan produces byte-identical results whichever surface
submitted it.

Progress is reported as typed :mod:`repro.events` records through the
``emit`` callable; the ``search`` and ``sweep`` workloads run through
the :class:`~repro.orchestration.campaign.Campaign` runner (one shard
for a single search), which is also what makes their event streams
identical across surfaces and gives them cooperative cancellation with
checkpointing (``should_stop``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.events import Event, EventCallback, RunFinished, RunStarted, SearchStarted
from repro.plans import RunPlan


def execute_plan(
    plan: RunPlan,
    emit: EventCallback | None = None,
    should_stop: Callable[[], bool] | None = None,
    fallback_checkpoint_dir: str | None = None,
    store: Any = None,
) -> Any:
    """Execute one plan's workload and return its result object.

    Parameters:
        plan: the declarative run description.
        emit: receives every typed progress event, in order.
        should_stop: cooperative-cancellation poll, honored between
            trials by every search-running workload (``search``,
            ``sweep``, ``paired``, ``table1``, ``figure6``,
            ``figure7``); checkpointed runs snapshot before raising
            :class:`~repro.core.search.SearchCancelled`.  ``figure8``,
            ``ablations`` and ``report`` check only before starting.
        fallback_checkpoint_dir: checkpoint directory used when the
            plan's execution policy names none -- how the service makes
            every job durable/resumable without rewriting (and thus
            re-hashing) the submitted plan.
        store: a :class:`~repro.service.store.ResultStore` the
            campaign-backed workloads (``search``, ``sweep``) memoize
            shards through: each shard is read through the store at
            its canonical hash before running and written back after,
            so a sweep overlapping an earlier one executes only its
            novel shards (:class:`~repro.events.ShardCached` events
            mark the rest).  ``None`` disables shard memoization.

    Result types by workload: ``table1`` -> ``Table1Result``,
    ``figure6`` -> ``Figure6Result``, ``figure7`` -> ``Figure7Result``,
    ``figure8`` -> ``Figure8Result``, ``figure9`` -> ``Figure9Result``,
    ``ablations`` ->
    ``(ReuseAblationResult, PruningAblationResult)``, ``report`` -> the
    markdown text (also written to ``plan.output`` when set), ``sweep``
    -> ``CampaignResult`` (artifact written to ``plan.output`` when
    set), ``paired`` -> ``PairedSearchOutcome``, ``search`` ->
    ``SearchResult``.
    """
    def publish(event: Event) -> None:
        if emit is not None:
            emit(event)

    if should_stop is not None and should_stop():
        from repro.core.search import SearchCancelled

        raise SearchCancelled(0)
    workload = plan.workload
    publish(RunStarted(workload, "session started"))
    runner = _WORKLOAD_RUNNERS[workload]
    result = runner(plan, publish, should_stop, fallback_checkpoint_dir,
                    store)
    publish(RunFinished(workload, "session finished"))
    return result


# -- workload runners --------------------------------------------------------


def _run_table1(plan, publish, should_stop, fallback_dir, store):
    """Table 1 workload body."""
    from repro.experiments.table1 import run_table1_plan

    return run_table1_plan(plan, emit=publish, should_stop=should_stop)


def _run_figure6(plan, publish, should_stop, fallback_dir, store):
    """Figure 6 workload body."""
    from repro.experiments.figure6 import run_figure6_plan

    return run_figure6_plan(plan, emit=publish, should_stop=should_stop)


def _run_figure7(plan, publish, should_stop, fallback_dir, store):
    """Figure 7 workload body."""
    from repro.experiments.figure7 import run_figure7_plan

    return run_figure7_plan(plan, emit=publish, should_stop=should_stop)


def _run_figure8(plan, publish, should_stop, fallback_dir, store):
    """Figure 8 workload body."""
    from repro.experiments.figure8 import run_figure8

    return run_figure8()


def _run_figure9(plan, publish, should_stop, fallback_dir, store):
    """Figure 9 workload body (conv-type Pareto fronts, DRAM devices)."""
    from repro.experiments.figure9 import run_figure9_plan

    return run_figure9_plan(plan, emit=publish, should_stop=should_stop)


def _run_ablations(plan, publish, should_stop, fallback_dir, store):
    """Ablation-study workload body."""
    from repro.experiments.ablation import (
        run_pruning_ablation,
        run_reuse_ablation,
    )

    reuse = run_reuse_ablation()
    pruning = run_pruning_ablation(
        trials=plan.search.trials,
        seed=plan.search.seed,
        batch_size=plan.execution.batch_size,
    )
    return reuse, pruning


def _run_report(plan, publish, should_stop, fallback_dir, store):
    """Report workload body (writes ``plan.output`` when set)."""
    from repro.experiments.report import generate_report_plan

    text = generate_report_plan(plan, emit=publish)
    if plan.output is not None:
        Path(plan.output).write_text(text)
    return text


def _run_sweep(plan, publish, should_stop, fallback_dir, store):
    """Sweep workload body: the full campaign runtime."""
    from repro.orchestration import (
        Campaign,
        plan_shards,
        save_campaign_result,
    )

    shards = plan_shards(plan)
    publish(SearchStarted(
        "sweep",
        f"{len(shards)} shard(s), "
        f"{plan.execution.shard_workers} worker(s)",
    ))
    result = Campaign(
        shards,
        checkpoint_dir=_checkpoint_dir(plan, fallback_dir),
        checkpoint_every=plan.execution.checkpoint_every,
        progress=publish,
        store=store,
        batch_trials=plan.execution.shard_batch_trials,
    ).run(max_workers=plan.execution.shard_workers, should_stop=should_stop)
    if plan.output is not None:
        save_campaign_result(result, plan.output)
    return result


def _run_paired(plan, publish, should_stop, fallback_dir, store):
    """Paired NAS+FNAS workload body."""
    from repro.experiments.runner import run_paired_plan

    return run_paired_plan(plan, emit=publish, should_stop=should_stop)


def _run_search(plan, publish, should_stop, fallback_dir, store):
    """Single-search workload body: a one-shard campaign.

    Going through :class:`~repro.orchestration.campaign.Campaign` (not
    a bare ``run_shard``) is deliberate: the shard-level event sequence
    and the checkpoint/resume/cancel behavior are then *identical* to a
    campaign running the same shard -- the golden event-stream property.
    """
    from repro.orchestration import Campaign
    from repro.orchestration.shards import ShardSpec

    spec = ShardSpec.from_plan(plan)
    outcome = Campaign(
        [spec],
        checkpoint_dir=_checkpoint_dir(plan, fallback_dir),
        checkpoint_every=plan.execution.checkpoint_every,
        progress=publish,
        store=store,
    ).run(max_workers=1, should_stop=should_stop)
    return outcome.outcomes[0].result


def _checkpoint_dir(plan: RunPlan, fallback_dir: str | None) -> str | None:
    """The plan's checkpoint directory, or the caller's fallback."""
    if plan.execution.checkpoint_dir is not None:
        return plan.execution.checkpoint_dir
    return fallback_dir


_WORKLOAD_RUNNERS = {
    "table1": _run_table1,
    "figure6": _run_figure6,
    "figure7": _run_figure7,
    "figure8": _run_figure8,
    "figure9": _run_figure9,
    "ablations": _run_ablations,
    "report": _run_report,
    "sweep": _run_sweep,
    "paired": _run_paired,
    "search": _run_search,
}
