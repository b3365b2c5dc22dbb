"""One-shot reproduction report generator.

``generate_report_plan()`` runs every experiment (Table 1, Figures 6-8,
the ablations) from one declarative plan and renders a single markdown
document mirroring EXPERIMENTS.md's structure -- useful for refreshing
the committed results after model changes, or via
``python -m repro report``.  The search-based sections share the plan's
search and execution policy, so a checkpointing policy makes the whole
report resumable: interrupting and re-running with the same checkpoint
directory picks every search up from its last snapshot.
"""

from __future__ import annotations

import io
import time
from typing import Any

from repro.events import EventCallback
from repro.experiments.ablation import run_pruning_ablation, run_reuse_ablation
from repro.experiments.figure6 import figure6_plan, run_figure6_plan
from repro.experiments.figure7 import figure7_plan, run_figure7_plan
from repro.experiments.figure8 import run_figure8
from repro.experiments.table1 import run_table1_plan, table1_plan
from repro.plans import RunPlan, SearchPlan


def report_plan(
    trials: int | None = None,
    seed: int = 0,
    execution: Any = None,
    output: str | None = None,
) -> RunPlan:
    """The declarative plan behind ``repro report``."""
    plan_kwargs = {} if execution is None else {"execution": execution}
    return RunPlan(
        workload="report",
        search=SearchPlan(seed=seed, trials=trials),
        output=output,
        **plan_kwargs,
    )


def generate_report_plan(plan: RunPlan, emit: EventCallback | None = None,
                         should_stop=None,
                         fallback_checkpoint_dir: str | None = None) -> str:
    """Run everything the plan describes and return the markdown text.

    The plan-native core: :class:`repro.api.Session` dispatches
    ``workload="report"`` here (and writes ``plan.output`` when set).
    The Table 1 and Figure 6/7 sections take ``should_stop`` and
    ``fallback_checkpoint_dir`` as their own workloads do.
    """
    search = plan.search
    out = io.StringIO()
    write = out.write
    write("# FNAS reproduction report\n\n")
    write(f"seed={search.seed}, trials="
          f"{'Table 2 default' if search.trials is None else search.trials}\n\n")

    def section_plan(builder):
        sub = builder(trials=search.trials, seed=search.seed,
                      execution=plan.execution)
        # Carry the full search plan (controller/evaluator/estimator
        # keys) into each section, not just seed and trials.
        return RunPlan(
            workload=sub.workload, search=search, execution=sub.execution,
            scenario=sub.scenario,
        )

    section_args = (emit, should_stop, fallback_checkpoint_dir)
    started = time.perf_counter()
    table1 = run_table1_plan(section_plan(table1_plan), *section_args)
    write("## Table 1 — MNIST on PYNQ\n\n```\n")
    write(table1.format())
    write("\n```\n\n")

    figure6 = run_figure6_plan(section_plan(figure6_plan), *section_args)
    write("## Figure 6 — two FPGAs\n\n```\n")
    write(figure6.format())
    write("\n```\n\n")

    figure7 = run_figure7_plan(section_plan(figure7_plan), *section_args)
    write("## Figure 7 — three datasets\n\n```\n")
    write(figure7.format())
    write("\n```\n\n")

    figure8 = run_figure8()
    write("## Figure 8 — scheduler comparison\n\n```\n")
    write(figure8.format())
    write(f"\nmean improvement: {figure8.mean_improvement_percent:.2f}%\n")
    write("```\n\n")

    reuse = run_reuse_ablation()
    write("## Ablation — reuse strategy x stall policy\n\n```\n")
    write(reuse.format())
    write("\n```\n\n")

    pruning = run_pruning_ablation(trials=search.trials, seed=search.seed)
    write("## Ablation — early pruning\n\n```\n")
    write(pruning.format())
    write("\n```\n\n")

    write(f"_generated in {time.perf_counter() - started:.1f}s_\n")
    return out.getvalue()
