"""Ablation studies for the design choices called out in DESIGN.md.

Two ablations back the paper's qualitative claims:

* **Reuse alternation** (Section 3.5, Step 3): the paper observes that a
  uniform reuse strategy for all layers causes pipeline stalls.
  :func:`run_reuse_ablation` compares alternating vs uniform-OFM vs
  uniform-IFM scheduling over the Figure 8 architecture set.
* **Early pruning** (Section 3.6, Summary): FNAS's speedup comes from
  not training spec-violating children.  :func:`run_pruning_ablation`
  replays an FNAS search ledger and charges the counterfactual cost of
  training every violator, isolating how much of the saving is pruning
  (vs the surviving children simply being smaller).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import build_controller
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, SearchResult
from repro.core.search_space import SearchSpace
from repro.configs import get_config
from repro.experiments.figure8 import figure8_architectures
from repro.experiments.reporting import format_table
from repro.fpga.device import PYNQ_Z1, FpgaDevice
from repro.fpga.platform import Platform
from repro.fpga.tiling import TilingDesigner
from repro.latency.estimator import LatencyEstimator
from repro.plans import SearchPlan
from repro.scheduling.fnas_sched import FnasScheduler
from repro.scheduling.simulator import PipelineSimulator
from repro.taskgraph.graph import TaskGraphGenerator


#: (label, scheduler-kwargs) grid of the reuse ablation: both runtime
#: policies crossed with the three ordering strategies.
REUSE_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("alt/queue", dict()),
    ("ofm/queue", dict(uniform="ofm")),
    ("ifm/queue", dict(uniform="ifm")),
    ("alt/inorder", dict(policy="in-order")),
    ("ofm/inorder", dict(uniform="ofm", policy="in-order")),
    ("ifm/inorder", dict(uniform="ifm", policy="in-order")),
)


@dataclass(frozen=True)
class ReuseAblationPoint:
    """Makespans of every policy x strategy variant on one architecture."""

    filter_counts: tuple[int, ...]
    cycles: dict[str, int]

    def stall_free_equivalent(self, label: str) -> bool:
        """Whether ``label`` matches the best observed makespan."""
        return self.cycles[label] == min(self.cycles.values())


@dataclass
class ReuseAblationResult:
    """All architectures of the reuse-strategy ablation.

    The claim under test (paper Section 3.5 Step 3): under strict
    in-order execution, a *uniform* reuse strategy stalls the pipeline
    while alternation avoids it.  A second observation this grid makes
    visible: the ready-to-run queue (P3) independently removes those
    stalls, so with the queue enabled the strategies converge.
    """

    points: list[ReuseAblationPoint]

    def win_or_tie_rate(self, winner: str, loser: str) -> float:
        """Fraction of architectures where ``winner`` <= ``loser``."""
        wins = sum(
            1 for p in self.points if p.cycles[winner] <= p.cycles[loser]
        )
        return wins / len(self.points)

    def mean_ratio(self, numerator: str, denominator: str) -> float:
        """Mean makespan ratio between two variants."""
        import numpy as _np

        return float(_np.mean([
            p.cycles[numerator] / p.cycles[denominator] for p in self.points
        ]))

    def format(self) -> str:
        """Render the full grid."""
        labels = [label for label, _ in REUSE_VARIANTS]
        headers = ["Filters"] + labels
        rows = [
            ["-".join(map(str, p.filter_counts))]
            + [str(p.cycles[label]) for label in labels]
            for p in self.points
        ]
        return format_table(headers, rows)


def run_reuse_ablation(
    device: FpgaDevice = PYNQ_Z1,
) -> ReuseAblationResult:
    """Compare reuse strategies x stall policies over the Figure 8 set."""
    platform = Platform.single(device)
    designer = TilingDesigner()
    generator = TaskGraphGenerator()
    simulator = PipelineSimulator()
    points = []
    for arch in figure8_architectures():
        design = designer.design(arch, platform)
        graph = generator.generate(design)
        cycles = {
            label: simulator.run(
                FnasScheduler(**kwargs).schedule(graph)).makespan
            for label, kwargs in REUSE_VARIANTS
        }
        points.append(
            ReuseAblationPoint(
                filter_counts=arch.filter_counts,
                cycles=cycles,
            )
        )
    return ReuseAblationResult(points=points)


@dataclass
class PruningAblationResult:
    """Actual vs counterfactual (no-pruning) search cost."""

    search: SearchResult
    actual_seconds: float
    no_pruning_seconds: float

    @property
    def pruning_speedup(self) -> float:
        """How much early pruning alone buys."""
        return self.no_pruning_seconds / self.actual_seconds

    def format(self) -> str:
        """One-line summary."""
        return (
            f"trained {self.search.trained_count}/"
            f"{len(self.search.trials)} children; "
            f"with pruning {self.actual_seconds:.0f}s, "
            f"without {self.no_pruning_seconds:.0f}s "
            f"({self.pruning_speedup:.2f}x from pruning alone)"
        )


def run_pruning_ablation(
    dataset: str = "mnist",
    required_latency_ms: float = 2.0,
    trials: int | None = None,
    seed: int = 0,
    device: FpgaDevice = PYNQ_Z1,
    batch_size: int = 1,
) -> PruningAblationResult:
    """Measure the early-pruning saving on one FNAS search.

    Runs FNAS normally, then charges the counterfactual ledger where
    every pruned child is trained anyway (same architectures, same
    order), so the difference is exactly the pruning saving.
    """
    config = get_config(dataset)
    space = SearchSpace.from_config(config)
    evaluator = SurrogateAccuracyEvaluator(space, config=config, seed=seed)
    estimator = LatencyEstimator(Platform.single(device))
    search = FnasSearch(
        space, evaluator, estimator, required_latency_ms,
        controller=build_controller(SearchPlan(seed=seed), space),
    ).run(trials if trials is not None else config.trials,
          np.random.default_rng(seed), batch_size=batch_size)
    actual = search.simulated_seconds
    counterfactual = actual
    for trial in search.trials:
        if trial.pruned:
            counterfactual += evaluator.evaluate(
                trial.architecture).train_seconds
    return PruningAblationResult(
        search=search,
        actual_seconds=actual,
        no_pruning_seconds=counterfactual,
    )
