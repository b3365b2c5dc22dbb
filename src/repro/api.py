"""The Session facade: run any declarative plan through one front door.

:class:`Session` executes a :class:`~repro.plans.RunPlan`::

    from repro.api import Session
    from repro.plans import RunPlan, SearchPlan

    plan = RunPlan(workload="table1", search=SearchPlan(trials=10, seed=3))
    result = Session.from_plan(plan).run()
    print(result.format())

Every public entry point of the repo -- the CLI verbs, the table/figure
runners, sweep campaigns, the orchestration shards, the job service --
lowers to a plan and funnels through here, so there is exactly one way
a run is built: the component **builders** below resolve the plan's
registry keys (:mod:`repro.registry`) into live controller / evaluator /
estimator / platform objects.  Third-party components therefore plug
into every workload by registering a key; no signature changes
anywhere.

Since the service redesign, :meth:`Session.run` is a thin synchronous
wrapper over a one-job :class:`~repro.service.SearchService`: the
session submits its plan, blocks on the job, and re-raises any
failure -- so the interactive path and the queued path share one
execution engine (:func:`repro.service.executor.execute_plan`).

Sessions also expose a progress stream: :meth:`Session.subscribe`
callbacks receive the typed :mod:`repro.events` records -- workload
start/finish, per-search and per-shard events, and the service's job
lifecycle -- in the job log's order, on the thread that called
:meth:`Session.run`.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.configs import ExperimentConfig, get_config
from repro.core.evaluator import AccuracyEvaluator, ParallelEvaluator
from repro.core.search import FnasSearch, NasSearch, Search
from repro.core.search_space import SearchSpace
from repro.events import Event, EventCallback
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator
from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.registry import CONTROLLERS, DEVICES, ESTIMATORS, EVALUATORS


# --- Component builders ----------------------------------------------------


def build_controller(search: SearchPlan, space: SearchSpace):
    """Resolve the plan's controller key into a live controller seeded
    with the plan's seed."""
    return CONTROLLERS[search.controller](space, search.seed)


def build_evaluator(
    search: SearchPlan,
    space: SearchSpace,
    config: ExperimentConfig,
    seed: int,
) -> AccuracyEvaluator:
    """Resolve the plan's evaluator key into a live evaluator."""
    factory = EVALUATORS[search.evaluator]
    return factory(space, config, seed)


#: The estimators a pool worker keeps across its jobs, one per (resolved
#: factory, platform devices); ``None`` in every other process.
_warm_estimators: dict[tuple, LatencyEstimator] | None = None


def keep_estimators_warm() -> None:
    """Have :func:`build_estimator` reuse one estimator per platform.

    Pool workers call this when they start, so a worker's jobs share
    both cache tiers.  Latencies are a pure function of architecture
    and devices, and the key holds the frozen
    :class:`~repro.fpga.device.FpgaDevice` values, not registry names:
    a device re-registered under an old name with other fields gets an
    estimator of its own.  A worker forked by a worker keeps the table
    it inherited.
    """
    global _warm_estimators
    if _warm_estimators is None:
        _warm_estimators = {}


def build_estimator(search: SearchPlan, platform: Platform) -> LatencyEstimator:
    """Resolve the plan's estimator key into a live latency estimator.

    Fresh per call, except in a process that called
    :func:`keep_estimators_warm`.
    """
    factory = ESTIMATORS[search.estimator]
    if _warm_estimators is None:
        return factory(platform)
    key = (factory, platform.devices)
    estimator = _warm_estimators.get(key)
    if estimator is None:
        estimator = _warm_estimators[key] = factory(platform)
    return estimator


def build_platform(scenario: ScenarioPlan) -> Platform:
    """Build the (multi-board) platform a scenario targets: its first
    device, replicated ``scenario.boards`` times."""
    if not scenario.devices:
        raise ValueError("the scenario names no devices")
    return Platform.replicated(DEVICES[scenario.devices[0]], scenario.boards)


def landscape_seed(plan: RunPlan) -> int:
    """The surrogate-landscape seed a plan pins.

    ``scenario.surrogate_seed`` when set; otherwise the search seed, so
    a single run's landscape follows its seed by default.
    """
    if plan.scenario.surrogate_seed is not None:
        return plan.scenario.surrogate_seed
    return plan.search.seed


def check_single_search(scenario: ScenarioPlan) -> None:
    """Raise :class:`ValueError` unless ``scenario`` is one search's.

    It must name exactly one dataset and one device, and either one
    timing spec (an FNAS search) or none with ``include_nas`` (the NAS
    baseline).
    """
    if len(scenario.datasets) != 1 or len(scenario.devices) != 1:
        raise ValueError(
            "a single search needs a single-scenario plan (one dataset, "
            f"one device), got datasets={scenario.datasets} "
            f"devices={scenario.devices}"
        )
    if len(scenario.specs_ms) > 1:
        raise ValueError(
            f"a single-scenario plan runs one search; got specs "
            f"{scenario.specs_ms}"
        )
    if not scenario.specs_ms and not scenario.include_nas:
        raise ValueError(
            "a single-search scenario needs one timing spec (FNAS) or "
            "include_nas=True (the NAS baseline)"
        )


def build_search(plan: RunPlan) -> Search:
    """Build the single search a one-scenario plan describes.

    The scenario must pass :func:`check_single_search`.  Everything is
    derived deterministically from the plan, so any process builds the
    identical search -- the property shard distribution rests on.
    """
    scenario = plan.scenario
    check_single_search(scenario)
    search = plan.search
    config = get_config(scenario.datasets[0])
    space = SearchSpace.from_config(config)
    evaluator = build_evaluator(search, space, config, landscape_seed(plan))
    if plan.execution.eval_workers > 1:
        evaluator = ParallelEvaluator(
            evaluator, max_workers=plan.execution.eval_workers
        )
    platform = build_platform(scenario)
    estimator = build_estimator(search, platform)
    controller = build_controller(search, space)
    if not scenario.specs_ms:
        return NasSearch(
            space,
            evaluator,
            controller=controller,
            latency_estimator=estimator,
        )
    return FnasSearch(
        space,
        evaluator,
        estimator,
        required_latency_ms=scenario.specs_ms[0],
        controller=controller,
        min_latency_fallback=search.min_latency_fallback,
    )


# --- The facade ------------------------------------------------------------


class Session:
    """One run of one plan, with progress-event subscription.

    Parameters:
        plan: the declarative run description.  It alone decides the
            run: a component that no string names yet is registered
            under one (:mod:`repro.registry`) and named in the plan.
    """

    def __init__(self, plan: RunPlan):
        self.plan = plan
        self._subscribers: list[EventCallback] = []

    @classmethod
    def from_plan(cls, plan: RunPlan) -> "Session":
        """The canonical constructor: ``Session.from_plan(plan).run()``."""
        return cls(plan)

    def subscribe(self, callback: EventCallback) -> EventCallback:
        """Register a progress callback; returns it for unsubscribing."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: EventCallback) -> None:
        """Remove a previously subscribed callback."""
        self._subscribers.remove(callback)

    def run(self) -> Any:
        """Execute the plan's workload and return its result object.

        A thin synchronous wrapper over a one-job
        :class:`~repro.service.SearchService`: the plan is submitted,
        the session blocks on the job, and a failed job re-raises its
        original exception.  Result caching is off -- an interactive
        run always executes.

        Subscribers receive the job's events in its log's order
        (``queued``, ``running``, the workload's events, the terminal
        event), on the calling thread.  An exception raised while
        waiting -- Ctrl-C's ``KeyboardInterrupt``, or one a subscriber
        raises -- cancels the job cooperatively (it snapshots first when
        it checkpoints) before propagating.

        Result types by workload: ``table1`` -> ``Table1Result``,
        ``figure6`` -> ``Figure6Result``, ``figure7`` ->
        ``Figure7Result``, ``figure8`` -> ``Figure8Result``,
        ``ablations`` -> ``(ReuseAblationResult, PruningAblationResult)``,
        ``report`` -> the markdown text (also written to
        ``plan.output`` when set), ``sweep`` -> ``CampaignResult``
        (artifact written to ``plan.output`` when set), ``paired`` ->
        ``PairedSearchOutcome``, ``search`` -> ``SearchResult``.
        """
        from repro.service import SearchService

        service = SearchService(workers=1, cache_results=False)
        wake = threading.Event()
        service.add_job_listener(lambda job_id: wake.set())
        try:
            handle = service.submit(self.plan)
            seen = 0
            while True:
                # State before events: the service appends a job's last
                # events and makes it terminal under one lock hold, so
                # a terminal state read here means the read below
                # returns the whole log.
                state = handle.state
                events = handle.events(since=seen)
                seen += len(events)
                for event in events:
                    self._deliver(event)
                if state not in ("queued", "running"):
                    return handle.result()
                wake.wait(0.1)
                wake.clear()
        finally:
            service.shutdown(wait=True, cancel_running=True)

    # -- internals -----------------------------------------------------------

    def _deliver(self, event: Event) -> None:
        """Fan one typed event out to the session's subscribers."""
        for callback in list(self._subscribers):
            callback(event)


def run_plan(plan: RunPlan) -> Any:
    """One-call convenience: ``Session.from_plan(plan).run()``."""
    return Session.from_plan(plan).run()

