"""Figure 9 (extension): conv-type frontiers across memory hierarchies.

Reduced sample budgets keep the file fast; the headline property --
the separable family's slowdown under bandwidth starvation exceeds the
standard family's -- survives even tiny budgets because the latency
shift comes from the analytical model, not sampling noise.
"""

import pytest

from repro.experiments.figure9 import (
    FAMILIES,
    FIGURE9_DEVICES,
    figure9_plan,
    run_figure9_plan,
)
from repro.service.executor import execute_plan

SAMPLES = 48  # reduced from FIGURE9_SAMPLES for test speed


@pytest.fixture(scope="module")
def figure9():
    return run_figure9_plan(figure9_plan(samples=SAMPLES, seed=0))


class TestPlanShape:
    def test_plan_fields(self):
        plan = figure9_plan(samples=SAMPLES, seed=3)
        assert plan.workload == "figure9"
        assert plan.search.trials == SAMPLES
        assert plan.search.seed == 3
        assert plan.scenario.datasets == ("mobilenet",)
        assert plan.scenario.devices == FIGURE9_DEVICES

    def test_default_devices_are_the_ddr_pair(self):
        assert FIGURE9_DEVICES == ("xc7z020-ddr-wide", "xc7z020-ddr-narrow")
        assert figure9_plan().scenario.devices == FIGURE9_DEVICES


class TestResultShape:
    def test_one_curve_per_device_family_pair(self, figure9):
        assert len(figure9.curves) == len(FIGURE9_DEVICES) * len(FAMILIES)
        for device in FIGURE9_DEVICES:
            for family in FAMILIES:
                curve = figure9.curve(device, family)
                assert curve.front.points
                assert curve.front.evaluated_count == SAMPLES
        with pytest.raises(KeyError):
            figure9.curve("xc7z020-ddr-wide", "dilated")

    def test_frontiers_are_latency_sorted(self, figure9):
        for curve in figure9.curves:
            lats = [p.latency_ms for p in curve.front.points]
            assert lats == sorted(lats)
            assert curve.min_latency_ms == lats[0]

    def test_format_renders_all_curves_and_the_slowdown_panel(self, figure9):
        text = figure9.format()
        for device in FIGURE9_DEVICES:
            assert device in text
        for family in FAMILIES:
            assert family in text
        assert "slowdown" in text


class TestBandwidthSensitivity:
    """The headline: depthwise layers are the first casualty of a
    narrow DRAM port, so the separable family slows down more."""

    def test_separable_slows_down_more_than_standard(self, figure9):
        assert figure9.slowdown("separable") > figure9.slowdown("standard")

    def test_both_families_pay_for_the_narrow_port(self, figure9):
        for family in FAMILIES:
            assert figure9.slowdown(family) > 1.0

    def test_separable_wins_on_the_rich_device_only(self, figure9):
        rich, starved = FIGURE9_DEVICES
        assert (figure9.curve(rich, "separable").min_latency_ms
                < figure9.curve(rich, "standard").min_latency_ms)
        assert (figure9.curve(starved, "separable").min_latency_ms
                > figure9.curve(starved, "standard").min_latency_ms)

    def test_slowdown_requires_exactly_two_devices(self):
        result = run_figure9_plan(
            figure9_plan(samples=8, devices=("xc7z020-ddr-wide",)))
        with pytest.raises(ValueError, match="2 devices"):
            result.slowdown("separable")


class TestExecutorDispatch:
    def test_execute_plan_runs_figure9(self):
        events = []
        result = execute_plan(figure9_plan(samples=8, seed=1),
                              emit=events.append)
        assert len(result.curves) == 4
        assert result.devices == FIGURE9_DEVICES
        assert events  # pareto progress events were published
