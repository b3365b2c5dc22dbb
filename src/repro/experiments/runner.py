"""The paired-search engine: one NAS baseline plus FNAS runs per spec.

:func:`run_paired_plan` is the engine behind Table 1 and Figures 6/7.
It consumes a declarative :class:`~repro.plans.RunPlan` -- the search
configuration (controller / evaluator / estimator registry keys, seed,
trials) comes from ``plan.search`` and the execution policy (batching,
evaluation workers, checkpointing, shard fan-out) from
``plan.execution`` -- and has two execution modes:

* the default in-process mode, which runs the NAS baseline and each
  FNAS spec sequentially (with the batched/parallel options), and
* **campaign mode** (``plan.execution.campaign_mode``), which expresses
  the same runs as orchestration shards: each search becomes a
  checkpointed, resumable shard, optionally fanned across a process
  pool.  Re-invoking with the same checkpoint directory resumes
  interrupted searches.  Both modes produce identical trial ledgers
  (pinned by tests), so campaign mode is purely an execution policy.

Progress goes to an :data:`~repro.events.EventCallback` as typed
events: ``SearchStarted``/``SearchFinished`` per search in-process, and
the campaign runtime's own events, forwarded unchanged, in campaign
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import (
    build_controller,
    build_estimator,
    build_evaluator,
    landscape_seed,
)
from repro.configs import ExperimentConfig, get_config
from repro.core.evaluator import AccuracyEvaluator, ParallelEvaluator
from repro.core.search import FnasSearch, NasSearch, SearchResult
from repro.core.search_space import SearchSpace
from repro.events import Event, EventCallback, SearchFinished, SearchStarted
from repro.fpga.platform import Platform
from repro.plans import RunPlan, spec_key
from repro.registry import DEVICES


@dataclass
class PairedSearchOutcome:
    """One NAS baseline run plus FNAS runs at several timing specs."""

    config: ExperimentConfig
    platform: Platform
    nas: SearchResult
    fnas: dict[float, SearchResult]  # keyed by required latency (ms)

    @property
    def nas_best_accuracy(self) -> float:
        """Accuracy of the NAS baseline's best child."""
        return self.nas.best().accuracy

    @property
    def nas_best_latency_ms(self) -> float:
        """Latency of the NAS baseline's best child."""
        latency = self.nas.best().latency_ms
        assert latency is not None  # runner always attaches an estimator
        return latency

    def fnas_for(self, spec_ms: float | str) -> SearchResult:
        """Tolerant FNAS lookup by timing spec.

        ``fnas`` is keyed by raw floats, which is exact-match hostile:
        JSON round-trips stringify keys, and a spec recomputed through
        string formatting may differ in the last ulp.  This accepts a
        float or its string form and matches with a relative tolerance,
        raising a listing ``KeyError`` when nothing is close.
        """
        target = float(spec_ms)
        result = self.fnas.get(target)
        if result is not None:
            return result
        for key, candidate in self.fnas.items():
            if math.isclose(key, target, rel_tol=1e-9, abs_tol=1e-12):
                return candidate
        known = ", ".join(spec_key(k) for k in sorted(self.fnas))
        raise KeyError(f"no FNAS run at {spec_ms!r} ms; specs: {known}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form with stable *string* spec keys.

        FNAS results are keyed by :func:`repro.plans.spec_key` strings
        (``"2.5"``, ``"10"``) so the document round-trips through JSON
        without float-key mangling; :meth:`from_dict` restores the
        float-keyed mapping.
        """
        from repro.core.serialization import search_result_to_dict

        return {
            "dataset": self.config.dataset,
            "devices": [d.name for d in self.platform.devices],
            "nas": search_result_to_dict(self.nas),
            "fnas": {
                spec_key(spec): search_result_to_dict(result)
                for spec, result in self.fnas.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PairedSearchOutcome":
        """Rebuild an outcome from :meth:`to_dict` (catalog platforms)."""
        from repro.core.serialization import search_result_from_dict
        from repro.fpga.device import get_device

        devices = [get_device(name) for name in data["devices"]]
        return cls(
            config=get_config(data["dataset"]),
            platform=Platform(devices=tuple(devices)),
            nas=search_result_from_dict(data["nas"]),
            fnas={
                float(key): search_result_from_dict(result)
                for key, result in data["fnas"].items()
            },
        )


def run_paired_plan(
    plan: RunPlan,
    dataset: str | None = None,
    platform: Platform | None = None,
    specs_ms: list[float] | None = None,
    evaluator: AccuracyEvaluator | None = None,
    emit: EventCallback | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> PairedSearchOutcome:
    """Run NAS once and FNAS once per timing spec on one dataset/platform.

    The plan's scenario supplies the dataset, device and specs unless
    the explicit arguments override them (the figure runners iterate
    over devices/datasets and pass each explicitly; overrides also
    admit non-catalog :class:`~repro.fpga.platform.Platform` objects,
    which plain plan data cannot name).

    Each search gets its own controller and RNG stream (all derived
    from ``plan.search.seed``) so runs are independent, reproducible
    and comparable -- the protocol behind Table 1 and Figures 6/7.
    ``evaluator`` overrides the plan's evaluator key with a live
    instance (in-process mode only).  ``emit`` receives the typed
    progress events.  ``should_stop`` cancels cooperatively between
    trials (:class:`~repro.core.search.SearchCancelled`; snapshots
    first when the execution policy checkpoints).
    """
    scenario = plan.scenario
    if dataset is None:
        if not scenario.datasets:
            raise ValueError("the plan's scenario names no datasets")
        dataset = scenario.datasets[0]
    if platform is None:
        from repro.api import build_platform

        platform = build_platform(scenario)
    if specs_ms is None:
        specs_ms = list(scenario.specs_ms)
    if plan.execution.campaign_mode:
        return _run_paired_campaign(
            plan, dataset, platform, specs_ms, evaluator, emit,
            should_stop=should_stop,
        )
    search_plan = plan.search
    config = get_config(dataset)
    space = SearchSpace.from_config(config)
    seed = search_plan.seed
    n_trials = (search_plan.trials if search_plan.trials is not None
                else config.trials)
    if evaluator is None:
        evaluator = build_evaluator(
            search_plan, space, config, landscape_seed(plan)
        )
    pool: ParallelEvaluator | None = None
    if plan.execution.eval_workers > 1:
        evaluator = pool = ParallelEvaluator(
            evaluator, max_workers=plan.execution.eval_workers
        )
    estimator = build_estimator(search_plan, platform)

    def _notify(event: Event) -> None:
        if emit is not None:
            emit(event)

    try:
        _notify(SearchStarted("nas", f"{n_trials} trials on {dataset}"))
        nas = NasSearch(
            space,
            evaluator,
            controller=build_controller(search_plan, space, seed),
            latency_estimator=estimator,
        ).run(n_trials, np.random.default_rng(seed),
              batch_size=plan.execution.batch_size,
              should_stop=should_stop)
        _notify(SearchFinished("nas", f"{len(nas.trials)} trials"))

        fnas_results: dict[float, SearchResult] = {}
        for offset, spec in enumerate(specs_ms, start=1):
            name = f"fnas-{spec_key(spec)}ms"
            _notify(SearchStarted(name, f"{n_trials} trials on {dataset}"))
            search = FnasSearch(
                space,
                evaluator,
                estimator,
                required_latency_ms=spec,
                controller=build_controller(search_plan, space, seed + offset),
                min_latency_fallback=search_plan.min_latency_fallback,
            )
            fnas_results[spec] = search.run(
                n_trials, np.random.default_rng(seed + offset),
                batch_size=plan.execution.batch_size,
                should_stop=should_stop,
            )
            _notify(SearchFinished(
                name, f"{len(fnas_results[spec].trials)} trials"))
    finally:
        if pool is not None:
            pool.close()
    return PairedSearchOutcome(
        config=config, platform=platform, nas=nas, fnas=fnas_results
    )


def _campaign_device(platform: Platform) -> tuple[str, int]:
    """Map a platform onto (catalog device name, board count).

    Campaign shards are plain data, so the platform must be expressible
    as N copies of one catalog device -- which covers every platform the
    paper's experiments use.
    """
    names = {d.name for d in platform.devices}
    if len(names) != 1:
        raise ValueError(
            "campaign mode needs a homogeneous platform, got devices "
            + ", ".join(sorted(names))
        )
    name = next(iter(names))
    if name not in DEVICES:
        raise ValueError(
            f"campaign mode needs a catalog device, got {name!r} "
            f"(known: {', '.join(DEVICES.names())})"
        )
    return name, len(platform.devices)


def _run_paired_campaign(
    plan: RunPlan,
    dataset: str,
    platform: Platform,
    specs_ms: list[float],
    evaluator: AccuracyEvaluator | None,
    emit: EventCallback | None,
    should_stop: Callable[[], bool] | None = None,
) -> PairedSearchOutcome:
    """Campaign-mode body of :func:`run_paired_plan`.

    Builds one NAS shard plus one FNAS shard per spec with exactly the
    seeds the in-process mode uses (controller ``seed + offset``, one
    shared surrogate landscape at the base seed), so the merged
    outcome's ledgers match the serial mode byte for byte.
    """
    from repro.orchestration import Campaign, ShardSpec

    if evaluator is not None:
        raise ValueError(
            "campaign mode rebuilds the evaluator from the plan's registry "
            "key inside each shard; pass evaluator=None (or run with an "
            "in-process ExecutionPolicy)"
        )
    config = get_config(dataset)
    device, boards = _campaign_device(platform)
    search_plan = plan.search
    seed = search_plan.seed
    n_trials = (search_plan.trials if search_plan.trials is not None
                else config.trials)
    common = dict(
        dataset=dataset,
        device=device,
        boards=boards,
        surrogate_seed=landscape_seed(plan),
        trials=n_trials,
        batch_size=plan.execution.batch_size,
        eval_workers=max(1, plan.execution.eval_workers),
        controller=search_plan.controller,
        evaluator=search_plan.evaluator,
        estimator=search_plan.estimator,
        min_latency_fallback=search_plan.min_latency_fallback,
    )
    shards = [ShardSpec(kind="nas", seed=seed, **common)]
    for offset, spec in enumerate(specs_ms, start=1):
        shards.append(
            ShardSpec(kind="fnas", spec_ms=spec, seed=seed + offset, **common)
        )
    outcome = Campaign(
        shards,
        checkpoint_dir=plan.execution.checkpoint_dir,
        checkpoint_every=plan.execution.checkpoint_every,
        progress=emit,
    ).run(max_workers=plan.execution.shard_workers,
          should_stop=should_stop)
    nas = outcome.outcomes[0].result
    fnas_results = {
        spec: outcome.outcomes[i].result
        for i, spec in enumerate(specs_ms, start=1)
    }
    return PairedSearchOutcome(
        config=config, platform=platform, nas=nas, fnas=fnas_results
    )
