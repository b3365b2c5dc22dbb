"""Search throughput: sequential seed path vs the batched runtime.

Measures trials/sec for the FNAS loop (MNIST space, PYNQ-Z1, 5 ms spec,
surrogate evaluator) in three configurations:

* ``sequential-seed`` -- ``batch_size=1`` with the layer-level memo
  disabled: the seed's trajectory, with every fresh architecture's
  tilings chosen anew.  Selection is closed-form now, so this is no
  longer the seed code's wall-clock profile; it only skips the memo.
* ``sequential-cached`` -- ``batch_size=1`` with the two-tier cache on:
  isolates the tier-1 (cross-fingerprint layer memo) win.
* ``batched`` -- ``batch_size=32`` with the full batched runtime:
  vectorized controller steps + two-tier cached batch estimation.

Emits the measurements as ``BENCH_search_throughput.json`` next to the
repo root so trajectory tooling can track throughput across PRs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.controller import LstmController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

TRIALS = 1200
SPEC_MS = 5.0
BATCH_SIZE = 32

OUTPUT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_search_throughput.json"
)


@dataclass(frozen=True)
class ThroughputPoint:
    """One measured search configuration."""

    mode: str
    batch_size: int
    trials: int
    wall_seconds: float
    trials_per_second: float
    trained: int
    pruned: int
    arch_cache_hit_rate: float
    layer_memo_hit_rate: float


def run_mode(mode: str, batch_size: int, use_layer_memo: bool) -> ThroughputPoint:
    """Run one FNAS search configuration and collect its metrics."""
    space = SearchSpace.from_config(MNIST_CONFIG)
    estimator = LatencyEstimator(
        Platform.single(PYNQ_Z1), use_layer_memo=use_layer_memo
    )
    search = FnasSearch(
        space,
        SurrogateAccuracyEvaluator(space),
        estimator,
        required_latency_ms=SPEC_MS,
        controller=LstmController(space, seed=0),
    )
    result = search.run(
        TRIALS, np.random.default_rng(0), batch_size=batch_size
    )
    return ThroughputPoint(
        mode=mode,
        batch_size=batch_size,
        trials=TRIALS,
        wall_seconds=result.wall_seconds,
        trials_per_second=TRIALS / result.wall_seconds,
        trained=result.trained_count,
        pruned=result.pruned_count,
        arch_cache_hit_rate=estimator.stats.hit_rate,
        layer_memo_hit_rate=estimator.layer_memo_stats.hit_rate,
    )


def run_best_of(reps: int, mode: str, batch_size: int,
                use_layer_memo: bool) -> ThroughputPoint:
    """Best throughput over ``reps`` identical runs.

    Each run is deterministic (same seed), so repetition only absorbs
    wall-clock noise -- noisy-neighbour CI runners, throttling, GC --
    and the fastest run is the honest measurement of each mode.
    """
    points = [
        run_mode(mode, batch_size, use_layer_memo) for _ in range(reps)
    ]
    return max(points, key=lambda p: p.trials_per_second)


def run_throughput_comparison() -> list[ThroughputPoint]:
    """All three configurations, sequential seed path first."""
    return [
        run_best_of(2, "sequential-seed", batch_size=1, use_layer_memo=False),
        run_best_of(2, "sequential-cached", batch_size=1, use_layer_memo=True),
        run_best_of(2, "batched", batch_size=BATCH_SIZE, use_layer_memo=True),
    ]


def test_search_throughput(once, emit):
    points = once(run_throughput_comparison)
    seed, cached, batched = points
    speedup = batched.trials_per_second / seed.trials_per_second

    emit("\n=== Search throughput (FNAS, MNIST/PYNQ, 5ms spec) ===")
    header = (f"{'mode':<18} {'bs':>3} {'trials/s':>9} {'wall(s)':>8} "
              f"{'arch-hit':>8} {'layer-hit':>9}")
    emit(header)
    for p in points:
        emit(f"{p.mode:<18} {p.batch_size:>3} {p.trials_per_second:>9.1f} "
             f"{p.wall_seconds:>8.3f} {p.arch_cache_hit_rate:>8.2f} "
             f"{p.layer_memo_hit_rate:>9.2f}")
    emit(f"batched vs sequential-seed: {speedup:.2f}x")

    OUTPUT_PATH.write_text(json.dumps(
        {
            "benchmark": "search_throughput",
            "trials": TRIALS,
            "spec_ms": SPEC_MS,
            "points": [asdict(p) for p in points],
            "batched_speedup_vs_seed": speedup,
        },
        indent=2,
    ) + "\n")
    emit(f"wrote {OUTPUT_PATH.name}")

    # The acceptance bar: the batched runtime must at least double the
    # seed path's throughput, and the layer memo must actually fire.
    assert speedup >= 2.0, (
        f"batched search only {speedup:.2f}x over the sequential seed path"
    )
    assert batched.layer_memo_hit_rate > 0.0, (
        "layer-level cache never hit across fingerprints"
    )
    # Loose tripwire: the layer memo must never make the sequential
    # path meaningfully slower (generous margin for runner noise).
    assert (cached.trials_per_second
            >= 0.75 * seed.trials_per_second)
