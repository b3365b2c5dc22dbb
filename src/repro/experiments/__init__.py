"""Experiment runners: one per table/figure of the paper's evaluation."""

from repro.experiments.configs import (
    CIFAR_CONFIG,
    CONFIGS,
    IMAGENET_CONFIG,
    MNIST_CONFIG,
    ExperimentConfig,
    TimingSpecs,
    get_config,
)
from repro.experiments.ablation import (
    PruningAblationResult,
    ReuseAblationResult,
    run_pruning_ablation,
    run_reuse_ablation,
)
from repro.experiments.figure6 import (
    Figure6Bar,
    Figure6Result,
    figure6_plan,
    run_figure6_plan,
)
from repro.experiments.figure7 import (
    Figure7Point,
    Figure7Result,
    figure7_plan,
    run_figure7_plan,
)
from repro.experiments.figure8 import (
    Figure8Point,
    Figure8Result,
    figure8_architectures,
    run_figure8,
)
from repro.experiments.pareto import (
    ParetoFront,
    ParetoPoint,
    compute_pareto_front,
)
from repro.experiments.reporting import format_minutes, format_table, improvement
from repro.experiments.runner import PairedSearchOutcome, run_paired_plan
from repro.experiments.table1 import (
    Table1Result,
    Table1Row,
    run_table1_plan,
    table1_plan,
)

__all__ = [
    "PruningAblationResult",
    "ReuseAblationResult",
    "run_pruning_ablation",
    "run_reuse_ablation",
    "ParetoFront",
    "ParetoPoint",
    "compute_pareto_front",
    "CIFAR_CONFIG",
    "CONFIGS",
    "IMAGENET_CONFIG",
    "MNIST_CONFIG",
    "ExperimentConfig",
    "TimingSpecs",
    "get_config",
    "Figure6Bar",
    "Figure6Result",
    "figure6_plan",
    "run_figure6_plan",
    "Figure7Point",
    "Figure7Result",
    "figure7_plan",
    "run_figure7_plan",
    "Figure8Point",
    "Figure8Result",
    "figure8_architectures",
    "run_figure8",
    "format_minutes",
    "format_table",
    "improvement",
    "PairedSearchOutcome",
    "run_paired_plan",
    "Table1Result",
    "Table1Row",
    "run_table1_plan",
    "table1_plan",
]
