"""Convolutional architecture model.

The NAS controller emits a sequence of hyperparameters -- per layer a
filter size and a filter count (Table 2 of the paper) -- which this
module turns into a concrete, shape-checked convolutional network
description.  The description is deliberately framework-neutral: the
same :class:`Architecture` feeds

* the FPGA path (``repro.fpga`` tiling, ``repro.taskgraph``,
  ``repro.latency``) for latency estimation, and
* the training path (``repro.nn.builder``) for accuracy evaluation.

Shapes follow the paper's accelerator convention: convolutions use
"same" padding at stride 1 unless a stride is specified, so the spatial
dims of layer ``i``'s output feature map are ``ceil(R_in / stride)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

#: A quantity :class:`ConvLayerSpec` derives from its inputs at construction.
_derived = functools.partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ConvLayerSpec:
    """One convolutional layer as seen by both the FPGA and NN paths.

    Attributes:
        in_channels:  number of input feature-map channels (paper's ``N``).
        out_channels: number of output feature-map channels (paper's ``M``).
        kernel:       square filter height/width (``Kh = Kw``).
        in_rows/in_cols:   input feature-map spatial size.
        out_rows/out_cols: output feature-map spatial size (``R`` x ``C``).
        stride:       convolution stride.
        kind:         ``"standard"`` (dense cross-channel conv) or
            ``"depthwise"`` (one filter per channel; requires
            ``out_channels == in_channels``).
        macs:         multiply-accumulate operations for one inference.

    ``out_rows``, ``out_cols`` and ``macs`` are derived at construction
    and take no part in equality.  Slots keep a search's many specs small.
    """

    STANDARD = "standard"
    DEPTHWISE = "depthwise"
    KINDS = (STANDARD, DEPTHWISE)

    in_channels: int
    out_channels: int
    kernel: int
    in_rows: int
    in_cols: int
    stride: int = 1
    kind: str = "standard"
    out_rows: int = _derived()
    out_cols: int = _derived()
    macs: int = _derived()

    def __post_init__(self) -> None:
        for attr in ("in_channels", "out_channels", "kernel", "in_rows",
                     "in_cols", "stride"):
            value = getattr(self, attr)
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")
        if self.kernel > self.in_rows or self.kernel > self.in_cols:
            raise ValueError(
                f"kernel {self.kernel} exceeds input size "
                f"{self.in_rows}x{self.in_cols}"
            )
        if self.kind not in self.KINDS:
            raise ValueError(
                f"kind must be one of {self.KINDS}, got {self.kind!r}"
            )
        if self.kind == self.DEPTHWISE and (
            self.out_channels != self.in_channels
        ):
            raise ValueError(
                f"depthwise layers keep the channel count: in_channels "
                f"{self.in_channels} != out_channels {self.out_channels}"
            )
        # Same padding: ceil(in / stride) output rows and columns.
        out_rows = -(-self.in_rows // self.stride)
        out_cols = -(-self.in_cols // self.stride)
        macs = self.kernel * self.kernel * self.in_channels * out_rows * out_cols
        if self.kind != self.DEPTHWISE:
            macs *= self.out_channels
        object.__setattr__(self, "out_rows", out_rows)
        object.__setattr__(self, "out_cols", out_cols)
        object.__setattr__(self, "macs", macs)

    @property
    def is_depthwise(self) -> bool:
        """True for depthwise (per-channel) convolutions."""
        return self.kind == self.DEPTHWISE

    @property
    def weight_count(self) -> int:
        """Number of convolution weights (no bias)."""
        if self.kind == self.DEPTHWISE:
            return self.kernel * self.kernel * self.in_channels
        return self.kernel * self.kernel * self.in_channels * self.out_channels

    @property
    def ofm_size(self) -> int:
        """Number of output feature-map elements."""
        return self.out_channels * self.out_rows * self.out_cols

    @property
    def ifm_size(self) -> int:
        """Number of input feature-map elements."""
        return self.in_channels * self.in_rows * self.in_cols


@functools.lru_cache(maxsize=4096, typed=True)
def _layer_spec(in_channels: int, out_channels: int, kernel: int,
                in_rows: int, in_cols: int, stride: int,
                kind: str) -> ConvLayerSpec:
    """The one shared (frozen) spec per distinct argument tuple.

    A search decodes thousands of token rows over a few dozen distinct
    layers, so :meth:`Architecture.from_choices` builds each spec once.
    Bounded, so a long-lived process stays small whatever it decodes;
    typed, so ``3`` and ``3.0`` never share a spec.
    """
    return ConvLayerSpec(in_channels, out_channels, kernel, in_rows,
                         in_cols, stride, kind)


@dataclass(frozen=True)
class Architecture:
    """A complete child network: a chain of conv layers plus a classifier.

    The classifier (global average pool + dense) is implied and not part
    of the FPGA pipeline model, matching the paper's focus on the
    convolutional pipeline.

    Build instances with :meth:`from_choices`, which derives the
    layer-to-layer shape plumbing from the raw hyperparameter choices.
    """

    layers: tuple[ConvLayerSpec, ...]
    num_classes: int
    input_channels: int
    input_size: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("an Architecture needs at least one conv layer")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        prev_channels = self.input_channels
        prev_rows, prev_cols = self.input_size, self.input_size
        for idx, layer in enumerate(self.layers):
            if layer.in_channels != prev_channels:
                raise ValueError(
                    f"layer {idx}: in_channels {layer.in_channels} does not "
                    f"match previous layer's out_channels {prev_channels}"
                )
            if (layer.in_rows, layer.in_cols) != (prev_rows, prev_cols):
                raise ValueError(
                    f"layer {idx}: input size {layer.in_rows}x{layer.in_cols} "
                    f"does not match previous output {prev_rows}x{prev_cols}"
                )
            prev_channels = layer.out_channels
            prev_rows, prev_cols = layer.out_rows, layer.out_cols

    @classmethod
    def from_choices(
        cls,
        filter_sizes: list[int] | tuple[int, ...],
        filter_counts: list[int] | tuple[int, ...],
        input_size: int,
        input_channels: int = 1,
        num_classes: int = 10,
        strides: list[int] | tuple[int, ...] | None = None,
        conv_types: list[str] | tuple[str, ...] | None = None,
    ) -> "Architecture":
        """Build an architecture from per-layer hyperparameter choices.

        ``filter_sizes[i]`` and ``filter_counts[i]`` are layer ``i``'s
        kernel size and output channel count.  Kernels larger than the
        current feature map are clamped down to it (the paper's MNIST
        space includes 14x14 kernels which stop fitting after strided
        layers; clamping keeps every controller sample valid).

        ``conv_types[i]`` selects the layer family: ``"standard"``
        (the default, one dense conv layer) or ``"separable"``, which
        expands MobileNet-style into a depthwise ``KxK`` conv keeping
        the channel count (carrying the stride) followed by a ``1x1``
        pointwise conv projecting to ``filter_counts[i]`` channels.
        """
        if len(filter_sizes) != len(filter_counts):
            raise ValueError(
                f"filter_sizes ({len(filter_sizes)}) and filter_counts "
                f"({len(filter_counts)}) must have the same length"
            )
        if strides is None:
            strides = [1] * len(filter_sizes)
        if len(strides) != len(filter_sizes):
            raise ValueError(
                f"strides ({len(strides)}) must match layer count "
                f"({len(filter_sizes)})"
            )
        if conv_types is None:
            conv_types = ["standard"] * len(filter_sizes)
        if len(conv_types) != len(filter_sizes):
            raise ValueError(
                f"conv_types ({len(conv_types)}) must match layer count "
                f"({len(filter_sizes)})"
            )
        layers = []
        channels = input_channels
        rows = cols = input_size
        for kernel, count, stride, conv_type in zip(
            filter_sizes, filter_counts, strides, conv_types
        ):
            kernel = min(kernel, rows, cols)
            if conv_type == "standard":
                expansion = [_layer_spec(channels, count, kernel, rows, cols,
                                         stride, ConvLayerSpec.STANDARD)]
            elif conv_type == "separable":
                depthwise = _layer_spec(channels, channels, kernel, rows,
                                        cols, stride, ConvLayerSpec.DEPTHWISE)
                pointwise = _layer_spec(channels, count, 1,
                                        depthwise.out_rows,
                                        depthwise.out_cols, 1,
                                        ConvLayerSpec.STANDARD)
                expansion = [depthwise, pointwise]
            else:
                raise ValueError(
                    f"unknown conv type {conv_type!r}; "
                    f"expected 'standard' or 'separable'"
                )
            for layer in expansion:
                layers.append(layer)
                channels = layer.out_channels
                rows, cols = layer.out_rows, layer.out_cols
        return cls(
            layers=tuple(layers),
            num_classes=num_classes,
            input_channels=input_channels,
            input_size=input_size,
        )

    @property
    def depth(self) -> int:
        """Number of convolutional layers."""
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        """Total conv MACs for one inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weights(self) -> int:
        """Total conv weights."""
        return sum(layer.weight_count for layer in self.layers)

    @property
    def filter_sizes(self) -> tuple[int, ...]:
        """Per-layer kernel sizes (after any clamping)."""
        return tuple(layer.kernel for layer in self.layers)

    @property
    def filter_counts(self) -> tuple[int, ...]:
        """Per-layer output channel counts."""
        return tuple(layer.out_channels for layer in self.layers)

    def describe(self) -> str:
        """Human-readable one-line summary, e.g. ``5x5/18 -> 7x7dw/36``."""
        parts = [
            f"{l.kernel}x{l.kernel}{'dw' if l.is_depthwise else ''}"
            f"/{l.out_channels}"
            for l in self.layers
        ]
        return " -> ".join(parts)

    def fingerprint(self) -> str:
        """Stable hash key identifying the architecture.

        Used by caches and by the accuracy surrogate to derive
        architecture-specific (but reproducible) noise.  Standard
        layers keep the seed's three-part field so existing
        fingerprints (and everything keyed off them -- shard ids, the
        surrogate's noise) are unchanged; depthwise layers append a
        ``dw`` marker.  Computed once per instance.
        """
        cached = vars(self).get("_fingerprint")
        if cached is not None:
            return cached
        fields: list[str] = [str(self.input_size), str(self.input_channels),
                             str(self.num_classes)]
        for l in self.layers:
            part = f"{l.kernel}.{l.out_channels}.{l.stride}"
            if l.is_depthwise:
                part += ".dw"
            fields.append(part)
        fingerprint = vars(self)["_fingerprint"] = "|".join(fields)
        return fingerprint
