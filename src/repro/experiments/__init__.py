"""Experiment runners: one per table/figure of the paper's evaluation.

Exported lazily: importing one runner, or the Pareto and reporting
helpers the campaign runtime uses, loads no other runner.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.ablation": (
        "PruningAblationResult",
        "ReuseAblationResult",
        "run_pruning_ablation",
        "run_reuse_ablation",
    ),
    "repro.experiments.figure6": (
        "Figure6Bar",
        "Figure6Result",
        "figure6_plan",
        "run_figure6_plan",
    ),
    "repro.experiments.figure7": (
        "Figure7Point",
        "Figure7Result",
        "figure7_plan",
        "run_figure7_plan",
    ),
    "repro.experiments.figure8": (
        "Figure8Point",
        "Figure8Result",
        "figure8_architectures",
        "run_figure8",
    ),
    "repro.experiments.pareto": (
        "ParetoFront",
        "ParetoPoint",
        "compute_pareto_front",
    ),
    "repro.experiments.reporting": (
        "format_minutes",
        "format_table",
        "improvement",
    ),
    "repro.experiments.runner": ("PairedSearchOutcome", "run_paired_plan"),
    "repro.experiments.table1": (
        "Table1Result",
        "Table1Row",
        "run_table1_plan",
        "table1_plan",
    ),
})
