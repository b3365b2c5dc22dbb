"""FPGA device resource models.

The paper evaluates FNAS against four Xilinx parts: the PYNQ-Z1 board
(a Zynq XC7Z020 SoC), a low-end Artix-7 XC7A50T, the Zynq XC7Z020
itself, and the high-end Zynq UltraScale+ XCZU9EG.  FNAS never measures
on silicon during the search -- all latency estimation goes through the
analytical model -- so a device here is exactly the resource vector that
model needs:

* ``dsp_slices``     -- number of DSP48 slices; a processing element (PE)
  built from ``Tm x Tn`` DSPs executes that many 16-bit MACs per cycle
  (Zhang et al., FPGA'15).
* ``bram_kbytes``    -- on-chip block RAM capacity, which bounds the
  spatial tile sizes ``Tr x Tc`` (input/output tile buffers and the
  weight buffer must fit, double-buffered).
* ``bandwidth_gbps`` -- off-chip memory bandwidth available to the
  accelerator, used by the communication model.
* ``clock_mhz``      -- accelerator clock, converting cycles to seconds.

Resource numbers come from the public Xilinx datasheets (DS180, DS190,
DS891); the board-level bandwidth figures are the usual DDR3/DDR4
configurations of the respective dev boards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.fpga.dram import DramModel
from repro.registry import DEVICES


@dataclass(frozen=True)
class FpgaDevice:
    """Resource model of a single FPGA (or the PL side of an SoC).

    Instances are immutable; derive variants with :meth:`scaled`.

    ``dram`` is optional: devices without it keep the flat
    ``bandwidth_gbps`` memory model (the seed behavior, pinned
    byte-identical by the golden ledger); devices with it get
    burst-level effective bandwidth and load/compute/write phase
    overlap throughout the latency stack.
    """

    name: str
    dsp_slices: int
    bram_kbytes: int
    bandwidth_gbps: float
    clock_mhz: float
    dram: DramModel | None = None

    def __post_init__(self) -> None:
        if self.dsp_slices <= 0:
            raise ValueError(f"dsp_slices must be positive, got {self.dsp_slices}")
        if self.bram_kbytes <= 0:
            raise ValueError(f"bram_kbytes must be positive, got {self.bram_kbytes}")
        if self.bandwidth_gbps <= 0:
            raise ValueError(
                f"bandwidth_gbps must be positive, got {self.bandwidth_gbps}"
            )
        if self.clock_mhz <= 0:
            raise ValueError(f"clock_mhz must be positive, got {self.clock_mhz}")

    @property
    def cycle_time_us(self) -> float:
        """Duration of one clock cycle in microseconds."""
        return 1.0 / self.clock_mhz

    @property
    def bram_bytes(self) -> int:
        """On-chip buffer capacity in bytes."""
        return self.bram_kbytes * 1024

    @property
    def bytes_per_cycle(self) -> float:
        """Off-chip bytes transferable per accelerator clock cycle."""
        bytes_per_us = self.bandwidth_gbps * 1e9 / 8.0 / 1e6
        return bytes_per_us * self.cycle_time_us

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count at this device's clock into milliseconds."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        return cycles / (self.clock_mhz * 1e3)

    def ms_to_cycles(self, ms: float) -> float:
        """Convert a millisecond budget into a cycle budget at this clock."""
        if ms < 0:
            raise ValueError(f"ms must be non-negative, got {ms}")
        return ms * self.clock_mhz * 1e3

    def scaled(
        self,
        factor: float | None = None,
        name: str | None = None,
        *,
        compute: float | None = None,
        memory: float | None = None,
    ) -> "FpgaDevice":
        """Return a copy with explicit resource axes scaled.

        ``factor`` scales *both* axes (the historical uniform behavior);
        the keyword-only ``compute`` and ``memory`` factors scale one
        axis each and may be combined:

        * **compute** -- ``dsp_slices`` (PE parallelism);
        * **memory**  -- ``bram_kbytes`` and the flat ``bandwidth_gbps``.

        The burst-level ``dram`` model is deliberately **never** scaled:
        its port width, burst length and latency are interface facts, not
        a capacity dial, and silently multiplying them would distort
        every derived effective-bandwidth curve.  Derive DRAM variants
        explicitly with ``dataclasses.replace(device, dram=...)``.

        Useful for what-if exploration ("would half a ZU9EG still meet
        the spec?") and for synthesizing device families in tests.
        """
        if factor is not None and (compute is not None or memory is not None):
            raise ValueError(
                "pass either the uniform factor or compute=/memory=, not both"
            )
        if factor is None and compute is None and memory is None:
            raise ValueError("scaled() needs a factor (uniform or per-axis)")
        compute_factor = factor if factor is not None else compute
        memory_factor = factor if factor is not None else memory
        for label, value in (("factor", factor), ("compute", compute),
                             ("memory", memory)):
            if value is not None and value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if name is None:
            if factor is not None:
                name = f"{self.name}x{factor:g}"
            else:
                parts = []
                if compute is not None:
                    parts.append(f"c{compute:g}")
                if memory is not None:
                    parts.append(f"m{memory:g}")
                name = f"{self.name}x" + "".join(parts)
        changes: dict = {"name": name}
        if compute_factor is not None:
            changes["dsp_slices"] = max(1, int(self.dsp_slices * compute_factor))
        if memory_factor is not None:
            changes["bram_kbytes"] = max(
                1, int(self.bram_kbytes * memory_factor)
            )
            changes["bandwidth_gbps"] = self.bandwidth_gbps * memory_factor
        return dataclasses.replace(self, **changes)


# --- Device catalog -------------------------------------------------------
#
# DSP and BRAM capacities from the Xilinx 7-series / UltraScale+ product
# tables.  BRAM is quoted in KB of block RAM (36Kb blocks x count / 8).

XC7A50T = FpgaDevice(
    name="xc7a50t",
    dsp_slices=120,
    bram_kbytes=300,  # 75 x 36Kb blocks
    bandwidth_gbps=3.2,
    clock_mhz=100.0,
)
"""Low-end Artix-7 used for the Figure 6 low-end comparison."""

XC7Z020 = FpgaDevice(
    name="xc7z020",
    dsp_slices=220,
    bram_kbytes=630,  # 140 x 36Kb blocks
    bandwidth_gbps=4.2,
    clock_mhz=100.0,
)
"""Zynq-7020 PL fabric -- the high-end device of the MNIST experiments."""

PYNQ_Z1 = FpgaDevice(
    name="pynq-z1",
    dsp_slices=220,
    bram_kbytes=630,
    bandwidth_gbps=4.2,
    clock_mhz=100.0,
)
"""PYNQ-Z1 board (XC7Z020 SoC) -- the Table 1 / Figure 8 target."""

XCZU9EG = FpgaDevice(
    name="xczu9eg",
    dsp_slices=2520,
    bram_kbytes=4075,  # 912 x 36Kb blocks, rounded per DS891
    bandwidth_gbps=19.2,
    # Same conservative pipeline clock as the 7-series parts: DAC-era
    # HLS accelerator designs commonly closed timing around 100 MHz,
    # and a uniform clock keeps the cross-device comparisons of
    # Figure 6 resource-driven rather than clock-driven.
    clock_mhz=100.0,
)
"""Zynq UltraScale+ ZU9EG used for the CIFAR-10 / ImageNet experiments."""


# --- DRAM-modeled variants -------------------------------------------------
#
# Two XC7Z020-class parts that share the compute fabric (DSP/BRAM/clock)
# but differ only in the memory hierarchy: a wide high-clock DDR port
# with long bursts vs a narrow low-clock one with short bursts.  The
# pair is what the figure9 experiment sweeps -- any latency ranking
# difference between them is purely memory-hierarchy-driven.  Their
# ``bandwidth_gbps`` is set to the DRAM model's peak so the flat number
# stays an honest upper bound for code that ignores ``dram``.

XC7Z020_DDR_WIDE = FpgaDevice(
    name="xc7z020-ddr-wide",
    dsp_slices=220,
    bram_kbytes=630,
    bandwidth_gbps=12.8,  # peak of the 512-bit @ 200 MHz port below
    clock_mhz=100.0,
    dram=DramModel(port_width_bits=512, burst_beats=256, frequency_mhz=200.0),
)
"""Bandwidth-rich Zynq-7020 variant: wide port, long bursts."""

XC7Z020_DDR_NARROW = FpgaDevice(
    name="xc7z020-ddr-narrow",
    dsp_slices=220,
    bram_kbytes=630,
    bandwidth_gbps=0.4,  # peak of the 32-bit @ 100 MHz port below
    clock_mhz=100.0,
    dram=DramModel(port_width_bits=32, burst_beats=16, frequency_mhz=100.0),
)
"""Bandwidth-starved Zynq-7020 variant: narrow port, short bursts."""


# The catalog is the ``repro.registry.DEVICES`` registry itself, so
# third-party devices registered via ``DEVICES.register(name, device)``
# show up in every lookup, plan validation and CLI flag automatically.
for _device in (XC7A50T, XC7Z020, PYNQ_Z1, XCZU9EG,
                XC7Z020_DDR_WIDE, XC7Z020_DDR_NARROW):
    DEVICES.register(_device.name, _device)
del _device


def get_device(name: str) -> FpgaDevice:
    """Look up a device by catalog name.

    Raises ``KeyError`` with the list of known names on a miss.
    """
    return DEVICES[name]
