"""Figure 6: search time / latency / accuracy on two FPGAs (MNIST).

Paper shape: FNAS search time shrinks as the spec tightens (2.56x /
3.22x / 11.13x on the 7Z020); FNAS latency always meets the spec while
NAS's single architecture exceeds it by 2.54-7.81x; accuracy
degradation stays under a point.
"""

from repro.api import run_plan
from repro.experiments.figure6 import figure6_plan


def test_figure6(once, emit):
    result = once(run_plan, figure6_plan(seed=0))

    emit("\n=== Figure 6 (reproduced) ===")
    emit(result.format())

    for device in ("xc7z020", "xc7a50t"):
        bars = result.bars_for(device)
        nas, fnas_bars = bars[0], bars[1:]
        # (a) search time: FNAS cheaper, monotonically so with tightness.
        times = [b.search_seconds for b in fnas_bars]
        assert all(t < nas.search_seconds for t in times)
        assert times == sorted(times, reverse=True)
        # (b) latency: FNAS meets the spec, NAS busts the tight one.
        for bar in fnas_bars:
            assert bar.meets_spec
        assert nas.latency_ms > fnas_bars[-1].spec_ms
        # (c) accuracy: degradation below one point.
        for bar in fnas_bars:
            assert nas.accuracy - bar.accuracy < 0.01
