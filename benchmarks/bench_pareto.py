"""Extension: FNAS results vs the true accuracy-latency Pareto front.

Enumerates the full MNIST space (6561 architectures), computes the
exact frontier under the surrogate/estimator pair, and measures the
regret of each Table 1 FNAS search against it -- how much accuracy the
60-trial search left on the table at its own spec.
"""

from repro.api import run_plan
from repro.experiments.pareto import compute_pareto_front
from repro.experiments.table1 import TABLE1_SPECS_MS, table1_plan
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform


def run_study():
    space = SearchSpace.from_config(MNIST_CONFIG)
    front = compute_pareto_front(space, Platform.single(PYNQ_Z1))
    table1 = run_plan(table1_plan(seed=0))
    return front, table1


def test_pareto_regret(once, emit):
    front, table1 = once(run_study)

    emit("\n=== MNIST accuracy-latency Pareto front (exhaustive) ===")
    emit(front.format(max_rows=12))
    emit(f"frontier: {len(front.points)} points out of "
          f"{front.evaluated_count} architectures")

    assert front.exhaustive
    assert front.evaluated_count == 6561
    # Frontier is monotone: accuracy increases along latency.
    accs = [p.accuracy for p in front.points]
    assert accs == sorted(accs)

    emit("\nFNAS regret vs frontier:")
    for row, spec in zip(table1.rows[1:], TABLE1_SPECS_MS):
        regret = front.regret(row.accuracy, spec)
        emit(f"  TS={spec:>4}ms: search acc {100 * row.accuracy:.2f}%, "
              f"frontier {100 * front.best_accuracy_within(spec):.2f}%, "
              f"regret {100 * regret:.2f}pp")
        assert regret >= -1e-9
        assert regret < 0.01, "60-trial FNAS should be within 1pp of optimal"
