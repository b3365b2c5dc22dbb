"""JSON serialization for architectures, search ledgers and checkpoints.

Search runs are expensive; these helpers let users persist ledgers and
reload the winning architectures without keeping Python objects alive:

* :func:`architecture_to_dict` / :func:`architecture_from_dict`
* :func:`trial_to_dict` / :func:`trial_from_dict`
* :func:`search_result_to_dict` / :func:`search_result_from_dict`
  plus the :func:`save_search_result` / :func:`load_search_result` pair

Round-tripping preserves everything needed to rebuild the network
(builder input) and the FPGA design (estimator input).  Every float is
written through :func:`json.dumps`, whose ``repr``-based formatting
round-trips IEEE-754 doubles exactly -- reloading a ledger and saving
it again yields byte-identical JSON, which the checkpoint/resume
machinery relies on.

The second half of the module is that machinery's substrate: RNG stream
capture (:func:`rng_state_to_dict` / :func:`rng_from_state`), estimator
cache statistics, and :func:`atomic_write_json` /
:func:`atomic_write_text`, which make snapshot files crash-safe (a
checkpoint is either the complete old file or the complete new one,
never a torn write).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.architecture import Architecture, ConvLayerSpec
from repro.core.search import SearchResult, TrialRecord

#: Schema tag written into every file for forward compatibility.
SCHEMA_VERSION = 1


def architecture_to_dict(architecture: Architecture) -> dict[str, Any]:
    """Architecture -> plain JSON-compatible dict."""
    return {
        "schema": SCHEMA_VERSION,
        "input_size": architecture.input_size,
        "input_channels": architecture.input_channels,
        "num_classes": architecture.num_classes,
        "layers": [
            {
                "kernel": layer.kernel,
                "out_channels": layer.out_channels,
                "stride": layer.stride,
                # Only written for non-standard layers, so pre-existing
                # ledgers of standard architectures stay byte-identical.
                **({"kind": layer.kind} if layer.kind != "standard" else {}),
            }
            for layer in architecture.layers
        ],
    }


def architecture_from_dict(data: dict[str, Any]) -> Architecture:
    """Inverse of :func:`architecture_to_dict`."""
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {schema}")
    try:
        layers = data["layers"]
        if any(l.get("kind", "standard") != "standard" for l in layers):
            specs = []
            channels = data["input_channels"]
            rows = cols = data["input_size"]
            for l in layers:
                spec = ConvLayerSpec(
                    in_channels=channels,
                    out_channels=l["out_channels"],
                    kernel=l["kernel"],
                    in_rows=rows,
                    in_cols=cols,
                    stride=l.get("stride", 1),
                    kind=l.get("kind", "standard"),
                )
                specs.append(spec)
                channels = spec.out_channels
                rows, cols = spec.out_rows, spec.out_cols
            return Architecture(
                layers=tuple(specs),
                num_classes=data["num_classes"],
                input_channels=data["input_channels"],
                input_size=data["input_size"],
            )
        return Architecture.from_choices(
            filter_sizes=[l["kernel"] for l in layers],
            filter_counts=[l["out_channels"] for l in layers],
            strides=[l.get("stride", 1) for l in layers],
            input_size=data["input_size"],
            input_channels=data["input_channels"],
            num_classes=data["num_classes"],
        )
    except KeyError as missing:
        raise ValueError(f"architecture dict missing field {missing}")


def trial_to_dict(trial: TrialRecord) -> dict[str, Any]:
    """TrialRecord -> plain dict (architecture embedded)."""
    return {
        "index": trial.index,
        "tokens": list(trial.tokens),
        "architecture": architecture_to_dict(trial.architecture),
        "latency_ms": trial.latency_ms,
        "accuracy": trial.accuracy,
        "reward": trial.reward,
        "trained": trial.trained,
        "sim_seconds": trial.sim_seconds,
    }


def search_result_to_dict(result: SearchResult) -> dict[str, Any]:
    """SearchResult -> plain dict with summary fields."""
    return {
        "schema": SCHEMA_VERSION,
        "name": result.name,
        "wall_seconds": result.wall_seconds,
        "simulated_seconds": result.simulated_seconds,
        "trained_count": result.trained_count,
        "pruned_count": result.pruned_count,
        "trials": [trial_to_dict(t) for t in result.trials],
    }


def trial_from_dict(data: dict[str, Any]) -> TrialRecord:
    """Inverse of :func:`trial_to_dict`."""
    try:
        return TrialRecord(
            index=int(data["index"]),
            tokens=tuple(data["tokens"]),
            architecture=architecture_from_dict(data["architecture"]),
            latency_ms=data["latency_ms"],
            accuracy=data["accuracy"],
            reward=data["reward"],
            trained=data["trained"],
            sim_seconds=data["sim_seconds"],
        )
    except KeyError as missing:
        raise ValueError(f"trial dict missing field {missing}")


def search_result_from_dict(data: dict[str, Any]) -> SearchResult:
    """Inverse of :func:`search_result_to_dict`.

    The summary fields (``simulated_seconds`` etc.) are derived state
    and recomputed from the trials on demand, so they are ignored here.
    """
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {schema}")
    return SearchResult(
        name=data["name"],
        trials=[trial_from_dict(t) for t in data["trials"]],
        wall_seconds=data.get("wall_seconds", 0.0),
    )


def save_search_result(result: SearchResult, path: str | Path) -> None:
    """Write a search ledger to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(search_result_to_dict(result), indent=2))


def load_search_result(path: str | Path) -> SearchResult:
    """Load a ledger saved via :func:`save_search_result`."""
    return search_result_from_dict(json.loads(Path(path).read_text()))


def load_architecture(path: str | Path) -> Architecture:
    """Load an architecture saved via :func:`save_architecture`."""
    return architecture_from_dict(json.loads(Path(path).read_text()))


def save_architecture(architecture: Architecture, path: str | Path) -> None:
    """Write one architecture to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(architecture_to_dict(architecture), indent=2))


# -- checkpoint substrate ----------------------------------------------------


def rng_state_to_dict(rng: np.random.Generator) -> dict[str, Any]:
    """Capture a NumPy generator's exact stream position.

    The bit-generator state is a nest of plain ints and strings (NumPy's
    own pickle format), so it survives JSON unchanged -- Python ints are
    arbitrary precision, covering PCG64's 128-bit words.
    """
    return rng.bit_generator.state


def rng_from_state(state: dict[str, Any]) -> np.random.Generator:
    """Rebuild a generator that continues the captured stream exactly."""
    name = state.get("bit_generator", "PCG64")
    try:
        bit_generator_cls = getattr(np.random, name)
    except AttributeError:
        raise ValueError(f"unknown bit generator {name!r}")
    bit_generator = bit_generator_cls()
    bit_generator.state = _intify(state)
    return np.random.Generator(bit_generator)


def _intify(value: Any) -> Any:
    """Recursively coerce numeric leaves to int.

    JSON round-trips large ints exactly, but a state dict that passed
    through another serializer may carry floats; NumPy requires ints.
    """
    if isinstance(value, dict):
        return {k: _intify(v) for k, v in value.items()}
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def cache_stats_to_dict(estimator: Any) -> dict[str, Any] | None:
    """Snapshot a :class:`~repro.latency.estimator.LatencyEstimator`'s
    two-tier cache counters (``None`` when there is no estimator)."""
    if estimator is None:
        return None
    stats = estimator.stats
    layer = estimator.layer_memo_stats
    return {
        "architecture_tier": {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
        },
        "layer_tier": {"hits": layer.hits, "misses": layer.misses},
    }


def restore_cache_stats(estimator: Any, data: dict[str, Any] | None) -> None:
    """Carry cache counters across a resume, so hit-rate accounting spans
    the whole logical run instead of resetting at each restart."""
    if estimator is None or data is None:
        return
    arch_tier = data["architecture_tier"]
    estimator.stats.hits = int(arch_tier["hits"])
    estimator.stats.misses = int(arch_tier["misses"])
    estimator.stats.evictions = int(arch_tier["evictions"])
    layer_tier = data["layer_tier"]
    estimator.layer_memo_stats.hits = int(layer_tier["hits"])
    estimator.layer_memo_stats.misses = int(layer_tier["misses"])


def atomic_write_text(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` so readers never observe a torn file.

    The payload lands in a same-directory temporary file first and is
    moved over ``path`` with :func:`os.replace`, which is atomic on
    POSIX and Windows.  A crash mid-write leaves the previous file
    intact -- the property the campaign runner's re-queue-from-last-
    checkpoint recovery depends on.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_write_json(data: Any, path: str | Path) -> None:
    """Write ``data`` as compact one-line JSON via :func:`atomic_write_text`.

    Without ``indent``, :func:`json.dumps` runs CPython's C encoder,
    about three times faster than the pure-Python encoder ``indent``
    selects, and checkpoint snapshots run to megabytes.  Pretty-print
    one for reading with ``python -m json.tool``.
    """
    atomic_write_text(json.dumps(data), path)
