"""Table 1: NAS vs FNAS on MNIST targeting the PYNQ board.

Paper columns: method, timing spec (TC, ms), elapsed search time (+
improvement over NAS), latency of the resulting architecture (+
improvement), accuracy (+ degradation).  Paper values for reference::

    NAS          -   190m33s   -      19.70ms  -       99.42%  -
    FNAS  TC=10      74m29s    2.55x  8.67ms   2.27x   99.34%  -0.08%
    FNAS  TC=5       59m19s    3.21x  4.77ms   4.13x   99.18%  -0.24%
    FNAS  TC=2       17m07s    11.13x 1.80ms   10.94x  98.61%  -0.81%
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events import EventCallback
from repro.experiments.reporting import format_minutes, format_table, improvement
from repro.experiments.runner import (
    PairedSearchOutcome,
    panel_plan,
    run_paired_plan,
)
from repro.plans import RunPlan, ScenarioPlan, SearchPlan

#: The paper's three timing specifications for Table 1 (ms).
TABLE1_SPECS_MS = (10.0, 5.0, 2.0)


def table1_plan(
    trials: int | None = None,
    seed: int = 0,
    specs_ms: tuple[float, ...] = TABLE1_SPECS_MS,
    execution: Any = None,
) -> RunPlan:
    """The declarative plan behind ``repro table1``.

    MNIST on the PYNQ-Z1 with the paper's three timing specs;
    ``execution`` defaults to the serial, uncheckpointed policy.
    """
    plan_kwargs = {} if execution is None else {"execution": execution}
    return RunPlan(
        workload="table1",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(
            datasets=("mnist",),
            devices=("pynq-z1",),
            specs_ms=tuple(specs_ms),
            include_nas=True,
        ),
        **plan_kwargs,
    )


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    method: str
    spec_ms: float | None
    elapsed_seconds: float
    elapsed_improvement: float | None
    latency_ms: float
    latency_improvement: float | None
    accuracy: float
    accuracy_degradation: float | None


@dataclass
class Table1Result:
    """All rows plus the raw search outcome."""

    rows: list[Table1Row]
    outcome: PairedSearchOutcome

    def format(self) -> str:
        """Render in the paper's layout."""
        headers = ["Method", "TC(ms)", "Elapsed", "Imp.", "Lat(ms)",
                   "Imp.", "Acc.", "Deg."]
        cells = []
        for row in self.rows:
            cells.append([
                row.method,
                "-" if row.spec_ms is None else f"{row.spec_ms:g}",
                format_minutes(row.elapsed_seconds),
                "-" if row.elapsed_improvement is None
                else f"{row.elapsed_improvement:.2f}x",
                f"{row.latency_ms:.2f}",
                "-" if row.latency_improvement is None
                else f"{row.latency_improvement:.2f}x",
                f"{100 * row.accuracy:.2f}%",
                "-" if row.accuracy_degradation is None
                else f"{-100 * row.accuracy_degradation:.2f}%",
            ])
        return format_table(headers, cells)


def run_table1_plan(
    plan: RunPlan,
    emit: EventCallback | None = None,
    should_stop=None,
    fallback_checkpoint_dir: str | None = None,
) -> Table1Result:
    """Regenerate Table 1 from its declarative plan.

    The plan-native core: :class:`repro.api.Session` dispatches
    ``workload="table1"`` here.  The scenario's specs default to the
    paper's three; its dataset/device default to MNIST on the PYNQ.
    The paired engine runs the plan narrowed to that one panel.
    """
    scenario = plan.scenario
    dataset = scenario.datasets[0] if scenario.datasets else "mnist"
    device = scenario.devices[0] if scenario.devices else "pynq-z1"
    specs_ms = scenario.specs_ms or TABLE1_SPECS_MS
    outcome = run_paired_plan(
        panel_plan(plan, dataset, device, specs_ms),
        emit, should_stop, fallback_checkpoint_dir,
    )
    nas_best = outcome.nas.best()
    nas_elapsed = outcome.nas.simulated_seconds
    rows = [
        Table1Row(
            method="NAS",
            spec_ms=None,
            elapsed_seconds=nas_elapsed,
            elapsed_improvement=None,
            latency_ms=outcome.nas_best_latency_ms,
            latency_improvement=None,
            accuracy=nas_best.accuracy,
            accuracy_degradation=None,
        )
    ]
    for spec in specs_ms:
        result = outcome.fnas_for(spec)
        best = result.best_valid(spec)
        rows.append(
            Table1Row(
                method="FNAS",
                spec_ms=spec,
                elapsed_seconds=result.simulated_seconds,
                elapsed_improvement=improvement(
                    nas_elapsed, result.simulated_seconds
                ),
                latency_ms=best.latency_ms,
                latency_improvement=improvement(
                    outcome.nas_best_latency_ms, best.latency_ms
                ),
                accuracy=best.accuracy,
                accuracy_degradation=nas_best.accuracy - best.accuracy,
            )
        )
    return Table1Result(rows=rows, outcome=outcome)
