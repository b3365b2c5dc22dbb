"""Figure 9 (extension): conv-type Pareto fronts across memory hierarchies.

The paper's model is compute-only: a layer costs what its MACs cost.
The memory-hierarchy extension (:mod:`repro.fpga.dram`) prices the
load / compute / write phases separately, and that changes *which
architectures win*: a depthwise-separable layer does ~K^2x less compute
per byte moved than its standard twin, so it is the first casualty when
effective DRAM bandwidth drops.

This experiment makes that visible.  It computes the accuracy-latency
Pareto frontier of the MobileNet-class space twice per device -- once
restricted to separable layers, once to standard layers -- on a
bandwidth-rich and a bandwidth-starved variant of the same fabric
(identical DSPs, BRAM and clock; only the DRAM interface differs).  On
the wide-DDR part the separable frontier reaches low latencies the
standard family cannot touch; on the narrow-DDR part the separable
advantage collapses, because its layers sit on the load phase.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.configs import MOBILENET_CONFIG
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search_space import SearchSpace
from repro.events import Event, EventCallback
from repro.experiments.pareto import ParetoFront, compute_pareto_front
from repro.experiments.reporting import format_table
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.plans import RunPlan, ScenarioPlan, SearchPlan

#: The two conv-type families compared, one frontier each per device.
FAMILIES = ("separable", "standard")

#: Bandwidth-rich vs bandwidth-starved variants of the same fabric.
FIGURE9_DEVICES = ("xc7z020-ddr-wide", "xc7z020-ddr-narrow")

#: Architectures sampled per frontier when the plan sets no trial count.
FIGURE9_SAMPLES = 256


def figure9_plan(
    samples: int | None = None,
    seed: int = 0,
    devices: tuple[str, ...] = FIGURE9_DEVICES,
    execution: Any = None,
) -> RunPlan:
    """The declarative plan behind ``repro figure9``.

    ``samples`` rides in the search plan's ``trials`` slot: it bounds
    how many architectures each frontier samples from the (too large
    to enumerate) MobileNet space.
    """
    plan_kwargs = {} if execution is None else {"execution": execution}
    return RunPlan(
        workload="figure9",
        search=SearchPlan(seed=seed, trials=samples),
        scenario=ScenarioPlan(
            datasets=("mobilenet",),
            devices=tuple(devices),
        ),
        **plan_kwargs,
    )


@dataclass(frozen=True)
class Figure9Curve:
    """One frontier: a conv-type family on one device."""

    device: str
    family: str
    front: ParetoFront

    @property
    def min_latency_ms(self) -> float:
        """Latency of the frontier's fastest architecture."""
        return self.front.points[0].latency_ms

    @property
    def best_accuracy(self) -> float:
        """Accuracy of the frontier's most accurate architecture."""
        return self.front.points[-1].accuracy


@dataclass
class Figure9Result:
    """All four frontiers plus the derived bandwidth-sensitivity view."""

    curves: list[Figure9Curve]
    devices: tuple[str, ...]

    def curve(self, device: str, family: str) -> Figure9Curve:
        """The frontier of ``family`` on ``device``."""
        for c in self.curves:
            if c.device == device and c.family == family:
                return c
        raise KeyError(f"no frontier for {family!r} on {device!r}")

    def slowdown(self, family: str) -> float:
        """How much the starved device slows ``family``'s fastest point.

        ``min_latency(starved) / min_latency(rich)`` for the family's
        frontier; needs exactly two devices (rich first, as in
        :data:`FIGURE9_DEVICES`).  Depthwise-heavy families show the
        larger slowdown -- they have the least compute per byte to hide
        the memory phases behind.
        """
        if len(self.devices) != 2:
            raise ValueError(
                f"slowdown needs exactly 2 devices, have {self.devices}"
            )
        rich, starved = self.devices
        return (self.curve(starved, family).min_latency_ms
                / self.curve(rich, family).min_latency_ms)

    def format(self) -> str:
        """Render the per-curve summary plus the slowdown panel."""
        headers = ["Device", "Family", "Sampled", "Frontier",
                   "MinLat(ms)", "BestAcc", "Acc@MinLat"]
        rows = []
        for c in self.curves:
            rows.append([
                c.device,
                c.family,
                str(c.front.evaluated_count),
                str(len(c.front.points)),
                f"{c.min_latency_ms:.3f}",
                f"{100 * c.best_accuracy:.2f}%",
                f"{100 * c.front.points[0].accuracy:.2f}%",
            ])
        text = format_table(headers, rows)
        if len(self.devices) == 2:
            lines = [text, "", "slowdown (starved / rich, fastest point):"]
            for family in FAMILIES:
                lines.append(f"  {family:10s} {self.slowdown(family):.2f}x")
            text = "\n".join(lines)
        return text


def _family_space(family: str) -> SearchSpace:
    """The MobileNet-class space restricted to one conv-type family."""
    config = dataclasses.replace(MOBILENET_CONFIG, conv_types=(family,))
    return SearchSpace.from_config(config)


def run_figure9_plan(
    plan: RunPlan,
    emit: EventCallback | None = None,
    should_stop=None,
) -> Figure9Result:
    """Regenerate Figure 9 from its declarative plan.

    One :func:`~repro.experiments.pareto.compute_pareto_front` call per
    (device, family) pair, all from the same sample budget and seed.
    Each family gets its own surrogate landscape (the spaces differ),
    but within a family the same architectures are scored on both
    devices, so latency shifts -- not sampling noise -- move the
    frontiers apart.  ``emit`` receives one base
    :class:`~repro.events.Event` per frontier, scoped to its device.
    """
    devices = plan.scenario.devices or FIGURE9_DEVICES
    samples = plan.search.trials or FIGURE9_SAMPLES
    seed = plan.search.seed
    curves: list[Figure9Curve] = []
    for family in FAMILIES:
        space = _family_space(family)
        family_eval = SurrogateAccuracyEvaluator(space, seed=seed)
        for device in devices:
            if should_stop is not None and should_stop():
                from repro.core.search import SearchCancelled

                raise SearchCancelled(0)
            front = compute_pareto_front(
                space,
                Platform.single(get_device(device)),
                evaluator=family_eval,
                samples=samples,
                seed=seed,
            )
            if emit is not None:
                emit(Event(device,
                           f"{family}: {len(front.points)} frontier "
                           f"point(s) from {front.evaluated_count} sampled"))
            curves.append(
                Figure9Curve(device=device, family=family, front=front)
            )
    return Figure9Result(curves=curves, devices=devices)
