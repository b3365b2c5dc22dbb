"""The NAS search space: per-layer hyperparameter choice lists.

Following the paper (and Zoph's NAS it builds on), the controller makes
two decisions per layer -- the filter size and the number of filters --
from fixed choice lists (Table 2).  A :class:`SearchSpace` owns those
lists and converts between controller *token sequences* (one choice
index per decision) and concrete
:class:`~repro.core.architecture.Architecture` objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.core.architecture import Architecture
from repro.configs import ExperimentConfig

#: Decision kinds, in per-layer order (``CONV_TYPE`` only present in
#: spaces with more than one conv type).
CONV_TYPE = "conv_type"
FILTER_SIZE = "filter_size"
FILTER_COUNT = "filter_count"
DECISIONS_PER_LAYER = 2

#: Conv-type choices a space may offer.  Ordered cheapest-first so the
#: surrogate's MAC-monotonicity probe (all-zeros vs all-max tokens)
#: stays valid for spaces that include both.
KNOWN_CONV_TYPES = ("separable", "standard")


@dataclass(frozen=True)
class SearchSpace:
    """A layered CNN search space with per-layer (FS, FN) choices.

    MobileNet-class spaces additionally choose each layer's conv *type*
    (``"standard"`` vs ``"separable"``); the extra decision appears only
    when ``conv_types`` offers more than one option, so classic
    two-decision spaces keep their exact token geometry.
    """

    name: str
    num_layers: int
    filter_sizes: tuple[int, ...]
    filter_counts: tuple[int, ...]
    input_size: int
    input_channels: int
    num_classes: int
    conv_types: tuple[str, ...] = ("standard",)

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if not self.filter_sizes or not self.filter_counts:
            raise ValueError("choice lists cannot be empty")
        if len(set(self.filter_sizes)) != len(self.filter_sizes):
            raise ValueError("filter_sizes contains duplicates")
        if len(set(self.filter_counts)) != len(self.filter_counts):
            raise ValueError("filter_counts contains duplicates")
        if not self.conv_types:
            raise ValueError("conv_types cannot be empty")
        if len(set(self.conv_types)) != len(self.conv_types):
            raise ValueError("conv_types contains duplicates")
        for conv_type in self.conv_types:
            if conv_type not in KNOWN_CONV_TYPES:
                raise ValueError(
                    f"unknown conv type {conv_type!r}; "
                    f"known: {', '.join(KNOWN_CONV_TYPES)}"
                )

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "SearchSpace":
        """Build the space described by a Table 2 row."""
        return cls(
            name=config.dataset,
            num_layers=config.num_layers,
            filter_sizes=tuple(config.filter_sizes),
            filter_counts=tuple(config.filter_counts),
            input_size=config.input_size,
            input_channels=config.input_channels,
            num_classes=config.num_classes,
            conv_types=tuple(getattr(config, "conv_types", ("standard",))),
        )

    # -- token geometry -----------------------------------------------------

    @property
    def searches_conv_type(self) -> bool:
        """True when the controller picks each layer's conv type."""
        return len(self.conv_types) > 1

    @property
    def decisions_per_layer(self) -> int:
        """Tokens per layer: 2 classically, 3 with a conv-type choice."""
        return 3 if self.searches_conv_type else DECISIONS_PER_LAYER

    @property
    def kinds_per_layer(self) -> tuple[str, ...]:
        """Decision kinds in per-layer token order."""
        if self.searches_conv_type:
            return (CONV_TYPE, FILTER_SIZE, FILTER_COUNT)
        return (FILTER_SIZE, FILTER_COUNT)

    @property
    def num_decisions(self) -> int:
        """Length of a full token sequence."""
        return self.num_layers * self.decisions_per_layer

    @cached_property
    def _steps(self) -> tuple[tuple[str, tuple], ...]:
        """``(kind, choices)`` of every token position, built once."""
        return tuple(
            (kind, self.choices(kind))
            for _ in range(self.num_layers)
            for kind in self.kinds_per_layer
        )

    def _step(self, step: int) -> tuple[str, tuple]:
        if not 0 <= step < self.num_decisions:
            raise ValueError(f"step {step} out of range [0, {self.num_decisions})")
        return self._steps[step]

    def decision_kind(self, step: int) -> str:
        """Which hyperparameter the ``step``-th token selects."""
        return self._step(step)[0]

    def choices(self, kind: str) -> tuple:
        """The choice list for a decision ``kind``."""
        table = {
            CONV_TYPE: self.conv_types,
            FILTER_SIZE: self.filter_sizes,
            FILTER_COUNT: self.filter_counts,
        }
        try:
            return table[kind]
        except KeyError:
            raise KeyError(f"unknown decision kind {kind!r}") from None

    def choices_at(self, step: int) -> tuple:
        """The choice list the ``step``-th token indexes into."""
        return self._step(step)[1]

    @property
    def size(self) -> int:
        """Number of distinct token sequences."""
        per_layer = len(self.filter_sizes) * len(self.filter_counts)
        if self.searches_conv_type:
            per_layer *= len(self.conv_types)
        return per_layer ** self.num_layers

    # -- encode / decode ------------------------------------------------------

    def decode(self, tokens: list[int] | tuple[int, ...]) -> Architecture:
        """Token sequence -> architecture.

        Classically ``tokens[2i]`` indexes ``filter_sizes`` and
        ``tokens[2i+1]`` indexes ``filter_counts`` for layer ``i``;
        conv-type-searching spaces prepend a ``conv_types`` token per
        layer.  A ``"separable"`` choice expands into a depthwise +
        pointwise layer pair, so the architecture may be deeper than
        ``num_layers``.
        """
        if len(tokens) != self.num_decisions:
            raise ValueError(
                f"expected {self.num_decisions} tokens, got {len(tokens)}"
            )
        picked: dict[str, list] = {
            CONV_TYPE: [], FILTER_SIZE: [], FILTER_COUNT: []
        }
        for step, (token, (kind, choices)) in enumerate(
            zip(tokens, self._steps)
        ):
            if not 0 <= token < len(choices):
                raise ValueError(
                    f"token {token} at step {step} out of range for "
                    f"{len(choices)} choices"
                )
            picked[kind].append(choices[token])
        types = picked[CONV_TYPE]
        sizes, counts = picked[FILTER_SIZE], picked[FILTER_COUNT]
        if not types and self.conv_types != ("standard",):
            # A single non-standard conv type is fixed, not searched:
            # no token carries it, but every layer still uses it.
            types = [self.conv_types[0]] * len(sizes)
        return Architecture.from_choices(
            filter_sizes=sizes,
            filter_counts=counts,
            input_size=self.input_size,
            input_channels=self.input_channels,
            num_classes=self.num_classes,
            conv_types=types if types else None,
        )

    def _logical_layers(
        self, architecture: Architecture
    ) -> list[tuple[str, int, int]]:
        """Collapse expanded layers back into ``(type, kernel, count)``.

        A depthwise layer immediately followed by its 1x1 pointwise
        projection reads back as one ``"separable"`` decision; anything
        else is a ``"standard"`` layer.
        """
        logical: list[tuple[str, int, int]] = []
        layers = architecture.layers
        i = 0
        while i < len(layers):
            layer = layers[i]
            if layer.is_depthwise:
                if i + 1 >= len(layers):
                    raise ValueError(
                        "trailing depthwise layer has no pointwise projection"
                    )
                pointwise = layers[i + 1]
                if pointwise.is_depthwise or pointwise.kernel != 1:
                    raise ValueError(
                        f"layer {i + 1} is not the 1x1 pointwise projection "
                        f"of the depthwise layer {i}"
                    )
                logical.append(
                    ("separable", layer.kernel, pointwise.out_channels)
                )
                i += 2
            else:
                logical.append(("standard", layer.kernel, layer.out_channels))
                i += 1
        return logical

    def encode(self, architecture: Architecture) -> list[int]:
        """Architecture -> token sequence (inverse of :meth:`decode`).

        Kernel sizes clamped by :meth:`Architecture.from_choices` are
        mapped back to the smallest choice >= the clamped kernel.
        Depthwise + pointwise pairs read back as one ``"separable"``
        decision.
        """
        logical = self._logical_layers(architecture)
        if len(logical) != self.num_layers:
            raise ValueError(
                f"architecture logical depth {len(logical)} != space layers "
                f"{self.num_layers}"
            )
        tokens: list[int] = []
        for conv_type, kernel, count in logical:
            if self.searches_conv_type:
                tokens.append(self.conv_types.index(conv_type))
            elif conv_type not in self.conv_types:
                raise ValueError(
                    f"conv type {conv_type!r} not in {self.conv_types}"
                )
            if kernel in self.filter_sizes:
                fs_idx = self.filter_sizes.index(kernel)
            else:
                bigger = [s for s in self.filter_sizes if s >= kernel]
                if not bigger:
                    raise ValueError(
                        f"kernel {kernel} not representable in {self.filter_sizes}"
                    )
                fs_idx = self.filter_sizes.index(min(bigger))
            if count not in self.filter_counts:
                raise ValueError(
                    f"filter count {count} not in {self.filter_counts}"
                )
            tokens.append(fs_idx)
            tokens.append(self.filter_counts.index(count))
        return tokens

    # -- sampling / enumeration ----------------------------------------------

    def random_tokens(self, rng: np.random.Generator) -> list[int]:
        """A uniformly random token sequence."""
        return [
            int(rng.integers(0, len(self.choices_at(step))))
            for step in range(self.num_decisions)
        ]

    def random_architecture(self, rng: np.random.Generator) -> Architecture:
        """A uniformly random architecture."""
        return self.decode(self.random_tokens(rng))

    def enumerate_architectures(self) -> Iterator[Architecture]:
        """Yield every architecture in the space (use only for small spaces)."""
        per_step = [range(len(self.choices_at(s))) for s in range(self.num_decisions)]
        for tokens in itertools.product(*per_step):
            yield self.decode(list(tokens))
