"""Figure 6: search time / latency / accuracy on two FPGAs (MNIST).

The paper compares NAS against FNAS-loose (TS2), FNAS-med (TS3) and
FNAS-tight (TS4) on a high-end FPGA (XC7Z020) and a low-end one
(XC7A50T).  The TS values differ per device class (Table 2's TS-High
vs TS-Low rows) because the low-end part is slower.

Expected shape: FNAS search time shrinks as the spec tightens; FNAS
latency always meets the spec while NAS's single architecture exceeds
the tight specs by several x; FNAS accuracy trails NAS by under a
point, more so for tighter specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.configs import MNIST_CONFIG
from repro.events import EventCallback
from repro.experiments.reporting import format_minutes, format_table
from repro.experiments.runner import PairedSearchOutcome, run_paired_plan
from repro.fpga.device import XC7A50T, XC7Z020, FpgaDevice, get_device
from repro.fpga.platform import Platform
from repro.plans import RunPlan, ScenarioPlan, SearchPlan

#: Figure 6 bar labels, loosest to tightest.
VARIANTS = ("FNAS-loose", "FNAS-med", "FNAS-tight")

#: The two device classes the paper compares (high-end, low-end).
FIGURE6_DEVICES = (XC7Z020.name, XC7A50T.name)


def figure6_plan(
    trials: int | None = None,
    seed: int = 0,
    devices: tuple[str, ...] = FIGURE6_DEVICES,
    execution: Any = None,
) -> RunPlan:
    """The declarative plan behind ``repro figure6``.

    MNIST on both device classes; the per-device TS2..TS4 specs come
    from Table 2 at run time, so the scenario leaves ``specs_ms``
    empty.
    """
    plan_kwargs = {} if execution is None else {"execution": execution}
    return RunPlan(
        workload="figure6",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(
            datasets=("mnist",),
            devices=tuple(devices),
            include_nas=True,
        ),
        **plan_kwargs,
    )


@dataclass(frozen=True)
class Figure6Bar:
    """One bar of the three grouped charts."""

    device: str
    method: str
    spec_ms: float | None
    search_seconds: float
    latency_ms: float
    accuracy: float
    meets_spec: bool | None


@dataclass
class Figure6Result:
    """All bars plus raw outcomes per device."""

    bars: list[Figure6Bar]
    outcomes: dict[str, PairedSearchOutcome]

    def bars_for(self, device: str) -> list[Figure6Bar]:
        """The four bars of one device's chart group."""
        return [b for b in self.bars if b.device == device]

    def format(self) -> str:
        """Render all three panels as one table."""
        headers = ["Device", "Method", "TS(ms)", "SearchTime", "Lat(ms)",
                   "Acc.", "MeetsSpec"]
        rows = []
        for bar in self.bars:
            rows.append([
                bar.device,
                bar.method,
                "-" if bar.spec_ms is None else f"{bar.spec_ms:g}",
                format_minutes(bar.search_seconds),
                f"{bar.latency_ms:.2f}",
                f"{100 * bar.accuracy:.2f}%",
                "-" if bar.meets_spec is None else str(bar.meets_spec),
            ])
        return format_table(headers, rows)


def _device_specs(device: FpgaDevice) -> list[tuple[str, float]]:
    """(variant name, TS ms) for one device class: TS2/TS3/TS4."""
    if device.name == XC7A50T.name:
        specs = MNIST_CONFIG.timing_specs_low
    else:
        specs = MNIST_CONFIG.timing_specs
    assert specs is not None
    return [
        ("FNAS-loose", specs.ts2),
        ("FNAS-med", specs.ts3),
        ("FNAS-tight", specs.ts4),
    ]


def run_figure6_plan(
    plan: RunPlan,
    devices: tuple[FpgaDevice, ...] | None = None,
    emit: EventCallback | None = None,
    should_stop=None,
) -> Figure6Result:
    """Regenerate Figure 6 from its declarative plan.

    The plan-native core: :class:`repro.api.Session` dispatches
    ``workload="figure6"`` here.  Devices come from the plan's
    scenario (default: both paper device classes) unless live
    :class:`~repro.fpga.device.FpgaDevice` objects override them --
    the escape hatch for non-catalog devices, which plan data cannot
    name.  In campaign mode shard ids embed the device name, so one
    checkpoint directory serves both devices.
    """
    if devices is None:
        names = plan.scenario.devices or FIGURE6_DEVICES
        devices = tuple(get_device(name) for name in names)
    dataset = (plan.scenario.datasets[0] if plan.scenario.datasets
               else "mnist")
    bars: list[Figure6Bar] = []
    outcomes: dict[str, PairedSearchOutcome] = {}
    for device in devices:
        named_specs = _device_specs(device)
        outcome = run_paired_plan(
            plan,
            dataset=dataset,
            platform=Platform.single(device),
            specs_ms=[ms for _, ms in named_specs],
            emit=emit,
            should_stop=should_stop,
        )
        outcomes[device.name] = outcome
        nas_best = outcome.nas.best()
        bars.append(
            Figure6Bar(
                device=device.name,
                method="NAS",
                spec_ms=None,
                search_seconds=outcome.nas.simulated_seconds,
                latency_ms=outcome.nas_best_latency_ms,
                accuracy=nas_best.accuracy,
                meets_spec=None,
            )
        )
        for name, spec in named_specs:
            result = outcome.fnas_for(spec)
            best = result.best_valid(spec)
            assert best.latency_ms is not None
            bars.append(
                Figure6Bar(
                    device=device.name,
                    method=name,
                    spec_ms=spec,
                    search_seconds=result.simulated_seconds,
                    latency_ms=best.latency_ms,
                    accuracy=best.accuracy,
                    meets_spec=best.latency_ms <= spec,
                )
            )
    return Figure6Result(bars=bars, outcomes=outcomes)
