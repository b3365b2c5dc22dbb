"""FPGA device models, multi-FPGA platforms and tiling design (FNAS-Design).

Exported lazily, so importing the tiling engine does not load the
energy model and, through it, the schedulers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fpga.device": (
        "PYNQ_Z1",
        "XC7A50T",
        "XC7Z020",
        "XCZU9EG",
        "FpgaDevice",
        "get_device",
    ),
    "repro.fpga.energy": ("EnergyModel", "EnergyReport"),
    "repro.fpga.platform": ("PeAllocation", "Platform"),
    "repro.fpga.tiling": (
        "DOUBLE_BUFFER",
        "WORD_BYTES",
        "LayerDesign",
        "PipelineDesign",
        "TilingDesigner",
        "TilingVector",
    ),
})
