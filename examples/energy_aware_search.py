"""Energy-aware FNAS: joint latency + energy budgets (extension).

The paper motivates FPGAs by performance *and* energy efficiency but
only constrains latency; this example runs the energy-aware extension,
which prunes children violating either budget, then inspects the
winning design's energy breakdown and steady-state throughput.

``EnergyAwareFnasSearch`` is an ``FnasSearch``: ``run`` returns the
usual ``SearchResult`` (and takes the same ``batch_size`` and
checkpoint options), and ``energy_facts(result)`` derives each trial's
energy and which budget it broke from that ledger.

Run:  python examples/energy_aware_search.py
"""

import numpy as np

from repro import (
    LatencyEstimator,
    Platform,
    SearchSpace,
    SurrogateAccuracyEvaluator,
    PYNQ_Z1,
)
from repro.configs import MNIST_CONFIG
from repro.experiments.energy_aware import EnergyAwareFnasSearch
from repro.fpga.energy import EnergyModel
from repro.latency.throughput import analyze_throughput

SPEC_MS = 10.0
SPEC_MJ = 100.0
TRIALS = 40


def main() -> None:
    space = SearchSpace.from_config(MNIST_CONFIG)
    evaluator = SurrogateAccuracyEvaluator(space)
    estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
    search = EnergyAwareFnasSearch(
        space, evaluator, estimator,
        required_latency_ms=SPEC_MS,
        required_energy_mj=SPEC_MJ,
    )
    print(f"energy-aware FNAS on {PYNQ_Z1.name}: "
          f"latency <= {SPEC_MS} ms AND energy <= {SPEC_MJ} mJ")
    result = search.run(TRIALS, np.random.default_rng(0))
    facts = search.energy_facts(result)

    lat_pruned = sum(1 for f in facts if f.latency_violated)
    eng_pruned = sum(1 for f in facts
                     if f.energy_violated and not f.latency_violated)
    print(f"  trials: {TRIALS}, latency-pruned {lat_pruned}, "
          f"energy-pruned {eng_pruned}, trained {result.trained_count}")

    best = result.best_valid(SPEC_MS)
    estimate = estimator.estimate(best.architecture)
    energy = EnergyModel().estimate(estimate.design, estimate.cycles)
    throughput = analyze_throughput(estimate.design, estimate.report)

    print(f"\nbest child: {best.architecture.describe()}")
    print(f"  accuracy  {100 * best.accuracy:.2f}%")
    print(f"  latency   {best.latency_ms:.2f} ms")
    print(f"  energy    {energy.total_mj:.2f} mJ "
          f"(compute {energy.compute_mj:.2f} / memory {energy.memory_mj:.2f}"
          f" / static {energy.static_mj:.2f}; "
          f"{100 * energy.memory_share:.0f}% memory)")
    print(f"  throughput {throughput.throughput_fps:.0f} inferences/s "
          f"(bottleneck PE{throughput.bottleneck_layer}); "
          f"batch-32 latency "
          f"{estimate.design.platform.cycles_to_ms(throughput.batch_latency_cycles(32)):.2f} ms")


if __name__ == "__main__":
    main()
