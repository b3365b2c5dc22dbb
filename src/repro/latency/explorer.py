"""Design-space exploration over FNAS-Design variants.

The paper's FNAS-Design picks one tiling per layer; this explorer puts
the analyzer in the loop and compares the candidate design policies
(spatial strategy x first-layer reuse choice), returning the design and
reuse assignment with the lowest analytical latency.  It implements the
"best parameters can be obtained according to [8, 13]" step as an
explicit, testable search instead of a fixed heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.architecture import Architecture
from repro.fpga.platform import Platform
from repro.fpga.tiling import LayerDesignMemo, PipelineDesign, TilingDesigner
from repro.latency.analyzer import (
    FnasAnalyzer,
    LatencyReport,
    alternating_totals,
)
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import alternating_strategies


@dataclass(frozen=True)
class ExplorationChoice:
    """One evaluated point of the design space."""

    spatial_strategy: str
    first_reuse: str
    design: PipelineDesign
    total_cycles: int

    @cached_property
    def report(self) -> LatencyReport:
        """Full analyzer report of this choice, built on first read."""
        strategies = alternating_strategies(
            len(self.design.layers), first=self.first_reuse
        )
        return FnasAnalyzer(strategies=strategies).analyze(self.design)


@dataclass(frozen=True)
class ExplorationResult:
    """Best design plus every evaluated alternative."""

    best: ExplorationChoice
    evaluated: tuple[ExplorationChoice, ...]

    @property
    def improvement_over_worst(self) -> float:
        """Cycles(worst) / cycles(best) across the evaluated designs."""
        worst = max(c.total_cycles for c in self.evaluated)
        return worst / self.best.total_cycles


class DesignExplorer:
    """Exhaustive search over the small FNAS-Design policy space.

    An optional :class:`~repro.fpga.tiling.LayerDesignMemo` is threaded
    into every designer the explorer builds, so repeated layer shapes --
    common across the architectures of one search run -- skip the
    per-layer tiling search entirely.
    """

    SPATIAL_STRATEGIES = ("max-reuse", "min-start")
    FIRST_REUSE_CHOICES = (OFM_REUSE, IFM_REUSE)

    def __init__(self, memo: LayerDesignMemo | None = None):
        self.memo = memo

    def explore(
        self, architecture: Architecture, platform: Platform
    ) -> ExplorationResult:
        """Evaluate every policy combination and return the best design.

        The architecture is allocated once and each spatial strategy
        designed once from that allocation; one integer pass gives both
        reuse choices' totals (:func:`alternating_totals`).  The four
        choices are ranked by total cycles alone; the first minimum
        wins.  Each choice builds its report only when it is read.
        """
        allocations = platform.allocate(architecture)
        choices: list[ExplorationChoice] = []
        for spatial in self.SPATIAL_STRATEGIES:
            designer = TilingDesigner(spatial_strategy=spatial, memo=self.memo)
            design = designer.design_allocated(
                architecture, platform, allocations
            )
            for first, cycles in zip(self.FIRST_REUSE_CHOICES,
                                     alternating_totals(design)):
                choices.append(
                    ExplorationChoice(
                        spatial_strategy=spatial,
                        first_reuse=first,
                        design=design,
                        total_cycles=cycles,
                    )
                )
        best = min(choices, key=lambda c: c.total_cycles)
        return ExplorationResult(best=best, evaluated=tuple(choices))
