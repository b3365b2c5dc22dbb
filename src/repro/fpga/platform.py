"""Multi-FPGA platforms and per-layer PE resource allocation.

FNAS maps each convolutional layer to a dedicated processing element
(PE) and runs the PEs as a pipeline.  The pipeline may live on a single
FPGA (Shen'17 / DNNBuilder style) or be spread across several boards
(Zhang'16 / Jiang'18 style).  A :class:`Platform` is an ordered set of
:class:`~repro.fpga.device.FpgaDevice` instances plus the logic that
answers two questions:

* how many DSPs does each layer's PE get (load-balanced on the layer's
  MAC workload, the paper's "resource ... obtained by considering the
  load balance"), and
* which device does each PE live on (contiguous layer ranges, balanced
  by workload, so inter-board links only carry one layer boundary each).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.architecture import Architecture
from repro.fpga.device import FpgaDevice


@dataclass(frozen=True)
class PeAllocation:
    """Resources granted to one layer's processing element.

    ``device_index`` identifies the hosting board within the platform
    (devices may be identical objects in replicated platforms).
    """

    layer_index: int
    device: FpgaDevice
    device_index: int
    dsp_budget: int
    bram_budget_bytes: int

    def __post_init__(self) -> None:
        if self.dsp_budget <= 0:
            raise ValueError(f"dsp_budget must be positive, got {self.dsp_budget}")
        if self.bram_budget_bytes <= 0:
            raise ValueError(
                f"bram_budget_bytes must be positive, got {self.bram_budget_bytes}"
            )


class Platform:
    """An ordered collection of FPGAs hosting a PE-per-layer pipeline."""

    def __init__(self, devices: list[FpgaDevice] | tuple[FpgaDevice, ...]):
        if not devices:
            raise ValueError("a Platform needs at least one device")
        self.devices: tuple[FpgaDevice, ...] = tuple(devices)
        clocks = {d.clock_mhz for d in self.devices}
        # A heterogeneous-clock pipeline would need per-PE cycle scaling in
        # the analyzer; the paper's platforms are homogeneous, so we insist.
        if len(clocks) != 1:
            raise ValueError(
                "all devices in a Platform must share a clock; got "
                + ", ".join(f"{d.name}@{d.clock_mhz}MHz" for d in self.devices)
            )
        # One frozen allocation per (layer, device index, DSP, BRAM): the
        # budgets repeat across a search's architectures, and the keys
        # are bounded by the layer count and the devices' resources.
        self._allocations: dict[tuple[int, int, int, int], PeAllocation] = {}

    @classmethod
    def single(cls, device: FpgaDevice) -> "Platform":
        """Single-FPGA platform."""
        return cls([device])

    @classmethod
    def replicated(cls, device: FpgaDevice, count: int) -> "Platform":
        """Homogeneous multi-FPGA platform of ``count`` copies of ``device``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        return cls([device] * count)

    @property
    def clock_mhz(self) -> float:
        """Pipeline clock (identical across devices by construction)."""
        return self.devices[0].clock_mhz

    @property
    def total_dsps(self) -> int:
        """DSP slices summed over all devices."""
        return sum(d.dsp_slices for d in self.devices)

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert pipeline cycles to milliseconds at the platform clock."""
        return self.devices[0].cycles_to_ms(cycles)

    def ms_to_cycles(self, ms: float) -> float:
        """Convert a millisecond spec into a cycle budget."""
        return self.devices[0].ms_to_cycles(ms)

    # -- allocation --------------------------------------------------------

    def allocate(self, architecture: Architecture) -> list[PeAllocation]:
        """Assign every layer a device, a DSP budget and a BRAM budget.

        Layers are first partitioned into contiguous ranges across the
        devices so that per-device MAC workload is as even as possible
        (greedy prefix split on cumulative workload).  Within a device,
        DSPs are split between its layers proportionally to layer MACs,
        with every layer guaranteed at least one DSP.  The ranges are
        contiguous and ascending, so the allocations come out in layer
        order.  Equal budgets return the same :class:`PeAllocation`.
        """
        layer_macs = [layer.macs for layer in architecture.layers]
        ranges = self._partition_layers(layer_macs, len(self.devices))
        known = self._allocations
        allocations: list[PeAllocation] = []
        for device_index, (device, (start, stop)) in enumerate(
            zip(self.devices, ranges)
        ):
            if start == stop:
                continue
            macs = layer_macs[start:stop]
            budgets = _proportional_split(device.dsp_slices, macs)
            bram = max(1, device.bram_bytes // (stop - start))
            for layer_index, dsp in enumerate(budgets, start):
                key = (layer_index, device_index, dsp, bram)
                allocation = known.get(key)
                if allocation is None:
                    allocation = known.setdefault(key, PeAllocation(
                        layer_index=layer_index,
                        device=device,
                        device_index=device_index,
                        dsp_budget=dsp,
                        bram_budget_bytes=bram,
                    ))
                allocations.append(allocation)
        return allocations

    @staticmethod
    def _partition_layers(
        layer_macs: list[int], device_count: int
    ) -> list[tuple[int, int]]:
        """Split layers into ``device_count`` contiguous ``[start, stop)`` ranges.

        Greedy walk over the prefix sums: a device takes layers until its
        share of the remaining workload is met.  Trailing devices may
        receive empty ranges when there are fewer layers than devices.
        """
        n_layers = len(layer_macs)
        if device_count == 1:
            return [(0, n_layers)]
        total = sum(layer_macs)
        ranges: list[tuple[int, int]] = []
        start = 0
        remaining_work = total
        for device_idx in range(device_count):
            devices_left = device_count - device_idx
            layers_left = n_layers - start
            if layers_left <= 0:
                ranges.append((start, start))
                continue
            if devices_left >= layers_left:
                # One layer per remaining device.
                ranges.append((start, start + 1))
                remaining_work -= layer_macs[start]
                start += 1
                continue
            target = remaining_work / devices_left
            stop = start
            acc = 0
            while stop < n_layers - (devices_left - 1):
                next_acc = acc + layer_macs[stop]
                if acc > 0 and abs(acc - target) <= abs(next_acc - target):
                    break
                acc = next_acc
                stop += 1
            ranges.append((start, stop))
            remaining_work -= acc
            start = stop
        return ranges


def _proportional_split(budget: int, weights: list[int]) -> list[int]:
    """Split ``budget`` integer units proportionally to ``weights``.

    Every recipient gets at least 1 unit; leftovers go to the largest
    weights first (stable on ties).
    """
    count = len(weights)
    if count == 0:
        return []
    if budget < count:
        raise ValueError(
            f"budget {budget} too small to give {count} layers one DSP each"
        )
    total = sum(weights)
    if total == 0:
        base = budget // count
        shares = [base] * count
    else:
        shares = [max(1, int(budget * w / total)) for w in weights]
    # Trim any overshoot caused by the max(1, ...) floor, taking from the
    # largest shares first.
    while sum(shares) > budget:
        idx = max(range(count), key=lambda i: shares[i])
        if shares[idx] <= 1:
            break
        shares[idx] -= 1
    # Distribute leftovers to the heaviest layers.
    leftover = budget - sum(shares)
    order = sorted(range(count), key=lambda i: weights[i], reverse=True)
    pos = 0
    while leftover > 0:
        shares[order[pos % count]] += 1
        leftover -= 1
        pos += 1
    return shares
