"""Table 1: NAS vs FNAS on MNIST targeting PYNQ (paper Section 2/4).

Paper reference rows::

    NAS          -   190m33s   -      19.70ms  -       99.42%  -
    FNAS  TC=10      74m29s    2.55x  8.67ms   2.27x   99.34%  -0.08%
    FNAS  TC=5       59m19s    3.21x  4.77ms   4.13x   99.18%  -0.24%
    FNAS  TC=2       17m07s    11.13x 1.80ms   10.94x  98.61%  -0.81%
"""

from repro.api import run_plan
from repro.experiments.table1 import table1_plan


def test_table1(once, emit):
    result = once(run_plan, table1_plan(seed=0))

    emit("\n=== Table 1 (reproduced) ===")
    emit(result.format())

    nas, fnas_rows = result.rows[0], result.rows[1:]
    # Shape assertions from the paper.
    assert nas.latency_ms > 2.0, "NAS's architecture must bust tight specs"
    for row in fnas_rows:
        assert row.latency_ms <= row.spec_ms, "FNAS must meet every spec"
        assert row.elapsed_improvement > 1.5, "FNAS must search faster"
        assert row.accuracy_degradation < 0.01, "accuracy loss must be <1%"
    speedups = [r.elapsed_improvement for r in fnas_rows]
    assert speedups == sorted(speedups), (
        "speedup must grow as the spec tightens")
    degradations = [r.accuracy_degradation for r in fnas_rows]
    assert degradations[-1] >= degradations[0], (
        "tighter specs should cost at least as much accuracy")
