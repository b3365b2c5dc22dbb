"""FPGA device models, multi-FPGA platforms and tiling design (FNAS-Design)."""

from repro.fpga.device import (
    PYNQ_Z1,
    XC7A50T,
    XC7Z020,
    XCZU9EG,
    FpgaDevice,
    get_device,
)
from repro.fpga.energy import EnergyModel, EnergyReport
from repro.fpga.platform import PeAllocation, Platform
from repro.fpga.tiling import (
    DOUBLE_BUFFER,
    WORD_BYTES,
    LayerDesign,
    PipelineDesign,
    TilingDesigner,
    TilingVector,
)

__all__ = [
    "PYNQ_Z1",
    "XC7A50T",
    "XC7Z020",
    "XCZU9EG",
    "FpgaDevice",
    "get_device",
    "EnergyModel",
    "EnergyReport",
    "PeAllocation",
    "Platform",
    "DOUBLE_BUFFER",
    "WORD_BYTES",
    "LayerDesign",
    "PipelineDesign",
    "TilingDesigner",
    "TilingVector",
]
