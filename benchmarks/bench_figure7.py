"""Figure 7: accuracy loss / search-time reduction vs TS, three datasets.

Paper shape: losses under 1% everywhere, growing as the spec tightens;
search-time reduction growing as the spec tightens (peaks: 11.13x
MNIST, 10.89x CIFAR-10, 10.38x ImageNet).
"""

from repro.api import run_plan
from repro.experiments.figure7 import figure7_plan


def test_figure7(once, emit):
    result = once(run_plan, figure7_plan(seed=0))

    emit("\n=== Figure 7 (reproduced) ===")
    emit(result.format())

    for dataset in ("mnist", "cifar10", "imagenet"):
        points = result.points_for(dataset)
        assert len(points) == 4
        # (a) accuracy loss below 1% whenever a valid child exists.
        for p in points:
            if p.found_valid:
                assert p.accuracy_loss < 0.01, (
                    f"{dataset}/{p.spec_name}: loss {p.accuracy_loss:.4f}")
        # (b) search-time reduction grows from the loosest to the
        # tightest spec.
        assert points[-1].time_reduction > points[0].time_reduction
        assert all(p.time_reduction > 0.9 for p in points)
        # FNAS's chosen architecture meets each spec.
        for p in points:
            if p.found_valid:
                assert p.fnas_latency_ms <= p.spec_ms
