"""The two search workloads: checkpointed B=1 MNIST, batched MobileNet-on-DDR.

Each run performs a fixed number of fresh 1200-trial FNAS searches (LSTM
controller, surrogate evaluator, analytical estimator), built from plans
exactly as ``repro sweep`` builds them.  The number of searches follows
from ``--seconds`` and a nominal per-search time, so the work of a run is
a function of ``(seed, seconds)`` alone and its work counters repeat
exactly.  In these workloads a *job* is one search, timed around
``search.run``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR, STATE_DIR, Outcome, check_repeat, differences, peak_rss_mb,
    percentile,
)
from tracer import NEW_GROUP, Tracer

from repro.api import build_search
from repro.core import serialization
from repro.core.controller import LstmController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.reward import FnasReward
from repro.core.search_space import SearchSpace
from repro.fpga.dram import DramModel
from repro.fpga.tiling import TilingDesigner
from repro.latency.analyzer import FnasAnalyzer
from repro.latency.estimator import LatencyEstimator
from repro.latency.explorer import DesignExplorer
from repro.orchestration.shards import DEFAULT_CHECKPOINT_FRACTION
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan

TRIALS = 1200

#: Import-plus-construction probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Ledger trials re-estimated by a fresh, memo-free estimator per search.
CHECKS_PER_LEDGER = 4

#: Layers a search passes through, as (owner, public call, span name).
#: The controller's sampling call opens a new group: one trial batch.
SEARCH_LAYERS = (
    (LstmController, "sample", "controller.sample"),
    (LstmController, "sample_batch", "controller.sample"),
    (LstmController, "update", "controller.update"),
    (LstmController, "update_batch", "controller.update"),
    (serialization, "search_result_to_dict", "checkpoint.encode"),
    (serialization, "atomic_write_json", "checkpoint.write"),
    (SearchSpace, "decode", "search_space.decode"),
    (LatencyEstimator, "estimate", "estimator.estimate"),
    (DesignExplorer, "explore", "explorer.explore"),
    (TilingDesigner, "design", "tiling.design"),
    (TilingDesigner, "design_layer", "tiling.design_layer"),
    (DramModel, "transfer_cycles", "dram.transfer_cycles"),
    (FnasAnalyzer, "analyze", "analyzer.analyze"),
    (SurrogateAccuracyEvaluator, "evaluate", "evaluator.evaluate"),
    (FnasReward, "violation", "reward"),
    (FnasReward, "satisfaction", "reward"),
)
SEARCH_LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in SEARCH_LAYERS))


@dataclass(frozen=True)
class SearchWorkload:
    """One search configuration and the nominal cost of one search."""

    dataset: str
    device: str
    spec_ms: float
    batch_size: int
    checkpointed: bool
    nominal_search_s: float

    def plan(self, search_seed: int) -> RunPlan:
        """The single-search plan ``repro sweep`` would run for a seed."""
        return RunPlan(
            workload="search",
            search=SearchPlan(seed=search_seed, trials=TRIALS),
            scenario=ScenarioPlan(datasets=(self.dataset,),
                                  devices=(self.device,),
                                  specs_ms=(self.spec_ms,)),
            execution=ExecutionPolicy(batch_size=self.batch_size),
        )

    def search_seeds(self, seed: int, seconds: int) -> list[int]:
        """The searches one run performs, derived from the workload seed."""
        count = max(1, round(seconds / self.nominal_search_s))
        return [seed * 1000 + k for k in range(count)]


WORKLOADS = {
    "mnist-b1-checkpointed": SearchWorkload(
        dataset="mnist", device="pynq-z1", spec_ms=5.0, batch_size=1,
        checkpointed=True, nominal_search_s=2.5),
    "mobilenet-ddr-b32": SearchWorkload(
        dataset="mobilenet", device="xc7z020-ddr-narrow", spec_ms=40.0,
        batch_size=32, checkpointed=False, nominal_search_s=1.0),
}


def build(spec: SearchWorkload, search_seed: int):
    """Construct the search object (space, estimator, controller)."""
    return build_search(spec.plan(search_seed))


def measure_setup(workload: str, seed: int) -> float:
    """Median wall of import plus construction, each in a fresh interpreter."""
    probe = BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


@dataclass
class _Pass:
    """What one pass over a run's searches leaves behind.

    Searches are summarised and dropped as soon as they finish, so memory
    holds one search at a time, as it does for a user running a sweep.
    """

    walls: list[float] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)
    errors: list[list[str]] = field(default_factory=list)


def _run_searches(spec: SearchWorkload, seeds: list[int], scratch: Path,
                  tracer: Tracer | None = None) -> _Pass:
    """Build, run and summarise every search; only ``search.run`` is timed.

    Untraced, each search's outputs are checked; a traced pass repeats the
    same searches, so its counters stand in for the check.
    """
    for owner, attr, name in SEARCH_LAYERS if tracer is not None else ():
        group = NEW_GROUP if name == "controller.sample" else None
        tracer.wrap(owner, attr, name, group=group)
    done = _Pass()
    try:
        for search_seed in seeds:
            search = build(spec, search_seed)
            options = {}
            path = None
            if spec.checkpointed:
                path = scratch / f"search-{search_seed}" / "checkpoint.json"
                path.parent.mkdir(parents=True)
                options = dict(
                    checkpoint_every=max(1, TRIALS // DEFAULT_CHECKPOINT_FRACTION),
                    checkpoint_path=path)
            started = time.perf_counter_ns()
            result = search.run(TRIALS, np.random.default_rng(search_seed),
                                batch_size=spec.batch_size, **options)
            finished = time.perf_counter_ns()
            done.walls.append((finished - started) / 1e9)
            done.summaries.append(_summary(spec, search, result))
            if tracer is None:
                done.errors.append(_ledger_errors(
                    spec, search, result, path,
                    np.random.default_rng(search_seed)))
            if path is not None:
                shutil.rmtree(path.parent)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return done


def _summary(spec: SearchWorkload, search, result) -> dict:
    """The work counts and simulated outcome of one finished search."""
    estimator = search.latency_estimator
    try:
        best = result.best_valid(spec.spec_ms).accuracy
    except ValueError:
        best = None  # reported by the output check
    return {
        "trials": len(result.trials),
        "pruned": result.pruned_count,
        "arch_hits": estimator.stats.hits,
        "arch_misses": estimator.stats.misses,
        "memo_hits": estimator.layer_memo_stats.hits,
        "memo_misses": estimator.layer_memo_stats.misses,
        "best": best,
        "hours": result.simulated_seconds / 3600.0,
    }


def _ledger_errors(spec: SearchWorkload, search, result, checkpoint: Path | None,
                   rng: np.random.Generator) -> list[str]:
    """Why one search's outputs are wrong (empty when they are right)."""
    trials = result.trials
    # The min-latency fallback may append one trial after the 1200.
    if [t.index for t in trials] != list(range(len(trials))) or len(
            trials) not in (TRIALS, TRIALS + 1):
        return [f"ledger holds {len(trials)} trials, not {TRIALS}"]
    errors = []
    try:
        result.best_valid(spec.spec_ms)
    except ValueError as exc:
        errors.append(str(exc))
    # A cache may answer only with what the current code would compute.
    fresh = LatencyEstimator(search.latency_estimator.platform,
                             use_layer_memo=False)
    for index in rng.choice(TRIALS, size=CHECKS_PER_LEDGER, replace=False):
        trial = trials[int(index)]
        ms = fresh.estimate(trial.architecture).ms
        if ms != trial.latency_ms:
            errors.append(f"trial {index}: ledger {trial.latency_ms!r} ms, "
                          f"fresh estimate {ms!r} ms")
    if checkpoint is not None:
        snapshot = json.loads(checkpoint.read_text())
        written = snapshot["result"]["trials"]
        expected = serialization.search_result_to_dict(result)["trials"]
        if snapshot["next_index"] != TRIALS or written != expected[:TRIALS]:
            errors.append("last checkpoint disagrees with the final ledger")
    return errors


def _counters(done: _Pass) -> dict:
    """Deterministic work counts and simulated outcomes of one pass."""
    total = {key: sum(s[key] for s in done.summaries)
             for key in ("trials", "pruned", "arch_hits", "arch_misses",
                         "memo_hits", "memo_misses")}
    best = [s["best"] for s in done.summaries if s["best"] is not None]
    return {
        "trials": total["trials"],
        "estimator.arch_cache.hit_rate": (
            total["arch_hits"] / (total["arch_hits"] + total["arch_misses"])),
        "estimator.layer_memo.hit_rate": (
            total["memo_hits"] / max(1, total["memo_hits"] + total["memo_misses"])),
        "tiling.enumerations": total["memo_misses"],
        "search.prune_rate": total["pruned"] / total["trials"],
        "best_valid_accuracy": statistics.fmean(best) if best else 0.0,
        "sim_search_hours": statistics.fmean(
            s["hours"] for s in done.summaries),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    """Run one search workload; end-to-end or (traced) per-layer metrics.

    A traced run makes the same searches twice, untraced and then traced,
    so it can report the tracing overhead and check that both passes
    reproduce the same work counters.
    """
    spec = WORKLOADS[workload]
    seeds = spec.search_seeds(seed, seconds)
    key = f"{workload}-seed{seed}-n{len(seeds)}"
    (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE_DIR / "tmp"))
    try:
        setup_s = None if trace else measure_setup(workload, seeds[0])
        plain = _run_searches(spec, seeds, scratch)
        counters = _counters(plain)
        drift = check_repeat(key, counters)
        tracer = None
        if trace:
            tracer = Tracer()
            traced = _run_searches(spec, seeds, scratch, tracer)
            drift += differences("traced pass", counters, _counters(traced))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics = _layer_metrics(tracer, traced, plain, counters)
        drift += check_repeat(
            f"{key}-calls",
            {k: v for k, v in metrics.items() if k.endswith(".calls")})
    else:
        metrics = _end_to_end(plain, counters, setup_s)
    notes = [f"{len(seeds)} searches (jobs) of {TRIALS} trials; latency "
             f"percentiles over {len(seeds)} searches"]
    notes += [f"incorrect search: {e}" for found in plain.errors for e in found]
    notes += [f"counter drift: {d}" for d in drift]
    failed = sum(1 for found in plain.errors if found)
    return Outcome(attempted=len(seeds), failed=failed,
                   correct=failed == 0 and not drift, metrics=metrics,
                   counters=counters, notes=notes, tracer=tracer)


def _end_to_end(plain: _Pass, counters: dict, setup_s: float) -> dict[str, float]:
    """The user-facing metrics of an untraced pass."""
    wall = sum(plain.walls)
    latencies_ms = [w * 1e3 for w in plain.walls]
    return {
        "trials_per_s": TRIALS * len(plain.walls) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "best_valid_accuracy": counters["best_valid_accuracy"],
        "sim_search_hours": counters["sim_search_hours"],
        "jobs_per_s": len(plain.walls) / wall,
        "job_latency_p50_ms": percentile(latencies_ms, 0.50),
        "job_latency_p95_ms": percentile(latencies_ms, 0.95),
    }


def _layer_metrics(tracer: Tracer, traced: _Pass, plain: _Pass,
                   counters: dict) -> dict[str, float]:
    """Per-layer self time and calls, the remainder, and tracing overhead."""
    totals = tracer.layer_totals()
    wall = sum(traced.walls)
    metrics: dict[str, float] = {}
    for name in SEARCH_LAYER_NAMES:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
    metrics["other.self_s"] = wall - sum(s for s, _ in totals.values())
    metrics["wall_s"] = wall
    metrics["trace.untraced_wall_s"] = sum(plain.walls)
    metrics["trace.overhead"] = wall / sum(plain.walls)
    for name in ("estimator.arch_cache.hit_rate",
                 "estimator.layer_memo.hit_rate", "tiling.enumerations",
                 "search.prune_rate"):
        metrics[name] = counters[name]
    return metrics
