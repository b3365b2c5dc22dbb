"""Figure 7: accuracy loss and search-time reduction vs timing spec.

For each of the three datasets (MNIST on the high-end FPGA, CIFAR-10
and ImageNet on the ZU9EG) and each timing spec TS1 (loosest) .. TS4
(tightest), the figure reports -- relative to the NAS baseline on the
same dataset --

* (a) the accuracy loss of FNAS's best spec-meeting child, and
* (b) the search-time reduction factor.

Expected shape: loss below ~1% everywhere and growing as the spec
tightens; reduction growing as the spec tightens (the paper peaks at
10.4-11.2x depending on dataset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.configs import get_config
from repro.events import EventCallback
from repro.experiments.reporting import format_table, improvement
from repro.experiments.runner import (
    PairedSearchOutcome,
    panel_plan,
    run_paired_plan,
)
from repro.fpga.device import XC7Z020, XCZU9EG
from repro.plans import RunPlan, ScenarioPlan, SearchPlan

#: Dataset -> catalog name of the device hosting its Figure 7 experiments.
FIGURE7_DEVICES = {
    "mnist": XC7Z020.name,
    "cifar10": XCZU9EG.name,
    "imagenet": XCZU9EG.name,
}


def figure7_plan(
    trials: int | None = None,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist", "cifar10", "imagenet"),
    execution: Any = None,
) -> RunPlan:
    """The declarative plan behind ``repro figure7``.

    Three datasets on their paper-assigned devices; the per-dataset
    TS1..TS4 specs come from Table 2 at run time, so the scenario
    leaves ``specs_ms`` empty and the device list is derived from
    :data:`FIGURE7_DEVICES`.
    """
    plan_kwargs = {} if execution is None else {"execution": execution}
    return RunPlan(
        workload="figure7",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(
            datasets=tuple(datasets),
            include_nas=True,
        ),
        **plan_kwargs,
    )


@dataclass(frozen=True)
class Figure7Point:
    """One (dataset, TS) point of both panels."""

    dataset: str
    spec_name: str
    spec_ms: float
    accuracy_loss: float
    time_reduction: float
    fnas_latency_ms: float | None
    found_valid: bool


@dataclass
class Figure7Result:
    """All points plus the raw outcomes."""

    points: list[Figure7Point]
    outcomes: dict[str, PairedSearchOutcome]

    def points_for(self, dataset: str) -> list[Figure7Point]:
        """The four TS points of one dataset, loosest first."""
        return [p for p in self.points if p.dataset == dataset]

    def format(self) -> str:
        """Render both panels as one table."""
        headers = ["Dataset", "TS", "TS(ms)", "AccLoss", "TimeReduction",
                   "FNAS Lat(ms)"]
        rows = []
        for p in self.points:
            rows.append([
                p.dataset,
                p.spec_name,
                f"{p.spec_ms:g}",
                f"{100 * p.accuracy_loss:.2f}%" if p.found_valid else "n/a",
                f"{p.time_reduction:.2f}x",
                f"{p.fnas_latency_ms:.2f}" if p.fnas_latency_ms is not None
                else "n/a",
            ])
        return format_table(headers, rows)


def run_figure7_plan(
    plan: RunPlan,
    emit: EventCallback | None = None,
    should_stop=None,
    fallback_checkpoint_dir: str | None = None,
) -> Figure7Result:
    """Regenerate Figure 7 from its declarative plan.

    The plan-native core: :class:`repro.api.Session` dispatches
    ``workload="figure7"`` here.  Datasets come from the plan's
    scenario (default: all three); the paired engine runs the plan
    narrowed to one dataset, its paper-assigned device from
    :data:`FIGURE7_DEVICES` and its TS1..TS4 specs per panel.  Shard
    ids embed the dataset name, so one checkpoint directory serves all
    three.
    """
    points: list[Figure7Point] = []
    outcomes: dict[str, PairedSearchOutcome] = {}
    for dataset in plan.scenario.datasets or ("mnist", "cifar10", "imagenet"):
        named_specs = get_config(dataset).timing_specs.as_list()
        outcome = run_paired_plan(
            panel_plan(plan, dataset, FIGURE7_DEVICES[dataset],
                       (ms for _, ms in named_specs)),
            emit, should_stop, fallback_checkpoint_dir,
        )
        outcomes[dataset] = outcome
        nas_accuracy = outcome.nas_best_accuracy
        nas_elapsed = outcome.nas.simulated_seconds
        for spec_name, spec_ms in named_specs:
            result = outcome.fnas_for(spec_ms)
            try:
                best = result.best_valid(spec_ms)
                loss = nas_accuracy - best.accuracy
                latency = best.latency_ms
                found = True
            except ValueError:
                loss = float("nan")
                latency = None
                found = False
            points.append(
                Figure7Point(
                    dataset=dataset,
                    spec_name=spec_name,
                    spec_ms=spec_ms,
                    accuracy_loss=loss,
                    time_reduction=improvement(
                        nas_elapsed, result.simulated_seconds
                    ),
                    fnas_latency_ms=latency,
                    found_valid=found,
                )
            )
    return Figure7Result(points=points, outcomes=outcomes)
