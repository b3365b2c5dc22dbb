"""Regenerate ``golden_ledger.json`` (the DRAM-less byte-identity pin).

Run from the repo root::

    PYTHONPATH=src python tests/latency/golden_ledger_gen.py

The fixture must only ever be regenerated from a revision whose
estimates are known-good: it freezes, for a deterministic set of
MNIST-space architectures on every flat-bandwidth catalog device, the
exact cycle counts, millisecond figures (``repr`` round-trip) and
per-layer tiling vectors of both estimator methods.  The companion test
``test_golden_ledger.py`` fails if any of those bytes move.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.architecture import Architecture
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

OUTPUT = Path(__file__).resolve().parent / "golden_ledger.json"

#: (filter_sizes, filter_counts) of the pinned MNIST-space architectures.
ARCHITECTURES = [
    ((5, 5, 5, 5), (9, 9, 9, 9)),
    ((7, 7, 7, 7), (36, 36, 36, 36)),
    ((5, 7, 14, 5), (9, 18, 36, 18)),
    ((14, 14, 7, 7), (36, 18, 18, 9)),
    ((7, 5, 7, 5), (18, 36, 9, 36)),
]

#: Flat-bandwidth devices pinned by the ledger (DRAM-modeled catalog
#: entries added later are deliberately not listed here).
DEVICES = ("xc7a50t", "xc7z020", "pynq-z1", "xczu9eg")


def arch_key(sizes, counts) -> str:
    return "fs=" + ",".join(map(str, sizes)) + "|fn=" + ",".join(map(str, counts))


def build() -> dict:
    entries = {}
    for device_name in DEVICES:
        platform = Platform.single(get_device(device_name))
        for method in ("analytical", "simulate"):
            estimator = LatencyEstimator(platform, method=method)
            for sizes, counts in ARCHITECTURES:
                arch = Architecture.from_choices(
                    list(sizes), list(counts), input_size=28
                )
                est = estimator.estimate(arch)
                entries[f"{device_name}|{method}|{arch_key(sizes, counts)}"] = {
                    "cycles": est.cycles,
                    "ms": repr(est.ms),
                    "tilings": [
                        [l.tiling.tm, l.tiling.tn, l.tiling.tr, l.tiling.tc]
                        for l in est.design.layers
                    ],
                }
    return {"devices": list(DEVICES), "entries": entries}


if __name__ == "__main__":
    OUTPUT.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
