"""The paired-search engine: one NAS baseline plus FNAS runs per spec.

:func:`run_paired_plan` is the engine behind Table 1 and Figures 6/7.
It consumes a declarative :class:`~repro.plans.RunPlan` -- the search
configuration (controller / evaluator / estimator registry keys, seed,
trials) comes from ``plan.search``, the dataset, device, boards and
specs from ``plan.scenario``, and the execution policy (batching,
evaluation workers, checkpointing, shard fan-out) from
``plan.execution`` -- and runs its searches as one
:class:`~repro.orchestration.campaign.Campaign`: a NAS shard plus one
FNAS shard per spec.  Every search is therefore checkpointable and
resumable, and ``shard_workers > 1`` fans the shards across a process
pool without changing any ledger.

Progress goes to an :data:`~repro.events.EventCallback` as the
campaign's own typed events, scoped to shard ids.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.api import build_platform, landscape_seed
from repro.configs import ExperimentConfig, get_config
from repro.core.search import SearchResult
from repro.events import EventCallback
from repro.fpga.platform import Platform
from repro.plans import RunPlan, spec_key


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


def panel_plan(plan: RunPlan, dataset: str, device: str,
               specs_ms: Iterable[float]) -> RunPlan:
    """``plan`` narrowed to one figure panel: one dataset, one device
    (``plan.scenario.boards`` copies) and that panel's specs."""
    scenario = dataclasses.replace(
        plan.scenario, datasets=(dataset,), devices=(device,),
        specs_ms=tuple(specs_ms),
    )
    return dataclasses.replace(plan, scenario=scenario)


def run_paired_plan(
    plan: RunPlan,
    emit: EventCallback | None = None,
    should_stop: Callable[[], bool] | None = None,
    fallback_checkpoint_dir: str | None = None,
) -> PairedSearchOutcome:
    """Run NAS once and FNAS once per timing spec on one dataset/platform.

    The plan's scenario names the dataset (its first), the device (its
    first, ``scenario.boards`` copies) and the specs; a device no
    catalog name covers is registered first
    (``DEVICES.register(name, device)``) and then named like any other.

    Each search gets its own controller and RNG stream -- the NAS
    shard at ``plan.search.seed``, the FNAS shard of the ``i``-th spec
    at ``seed + i`` -- over one shared surrogate landscape, so runs are
    independent, reproducible and comparable: the protocol behind
    Table 1 and Figures 6/7.  ``emit`` receives the typed progress
    events.  ``should_stop`` cancels cooperatively between trials
    (:class:`~repro.core.search.SearchCancelled`; snapshots first when
    the run checkpoints).  The shards snapshot under the plan's
    checkpoint directory, or ``fallback_checkpoint_dir`` when the plan
    names none, and re-running against the same directory resumes
    them.
    """
    from repro.orchestration import Campaign, ShardSpec

    scenario = plan.scenario
    if not scenario.datasets:
        raise ValueError("the plan's scenario names no datasets")
    dataset = scenario.datasets[0]
    platform = build_platform(scenario)
    config = get_config(dataset)
    search_plan = plan.search
    execution = plan.execution
    seed = search_plan.seed
    common = dict(
        dataset=dataset,
        device=scenario.devices[0],
        boards=scenario.boards,
        surrogate_seed=landscape_seed(plan),
        trials=(search_plan.trials if search_plan.trials is not None
                else config.trials),
        batch_size=execution.batch_size,
        eval_workers=execution.eval_workers,
        controller=search_plan.controller,
        evaluator=search_plan.evaluator,
        estimator=search_plan.estimator,
        min_latency_fallback=search_plan.min_latency_fallback,
    )
    shards = [ShardSpec(kind="nas", seed=seed, **common)]
    for offset, spec in enumerate(scenario.specs_ms, start=1):
        shards.append(
            ShardSpec(kind="fnas", spec_ms=spec, seed=seed + offset, **common)
        )
    checkpoint_dir = execution.checkpoint_dir
    if checkpoint_dir is None:
        checkpoint_dir = fallback_checkpoint_dir
    outcome = Campaign(
        shards,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=execution.checkpoint_every,
        progress=emit,
    ).run(max_workers=execution.shard_workers, should_stop=should_stop)
    nas, *fnas = (shard.result for shard in outcome.outcomes)
    return PairedSearchOutcome(
        config=config, platform=platform, nas=nas,
        fnas=dict(zip(scenario.specs_ms, fnas)),
    )
