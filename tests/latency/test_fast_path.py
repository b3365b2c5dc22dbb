"""Invariants of the estimator's fast path.

Pricing a fresh architecture probes the counted tiling memo once per
(layer, strategy) in one call, ranks the reuse assignments from one
pass over the start deltas, and finds the last upstream row/col tile
the first downstream tile needs by a closed form.  Each of those must
agree with the slower definition it replaces: ``rc_dependencies`` for
the closed form, and one ``lookup``/``store`` per layer for the counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs import get_config
from repro.core.architecture import Architecture, ConvLayerSpec
from repro.core.search_space import SearchSpace
from repro.fpga.device import PYNQ_Z1, get_device
from repro.fpga.platform import Platform
from repro.fpga.tiling import (
    LayerDesign,
    LayerDesignMemo,
    TilingDesigner,
    TilingVector,
    process_memo_snapshot,
    reset_process_memo_stats,
)
from repro.latency.analyzer import (
    FnasAnalyzer,
    _last_rc_tile_needed,
    alternating_totals,
)
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import alternating_strategies
from repro.taskgraph.graph import rc_dependencies, resolve_rc_mapping

STRATEGIES = ("max-reuse", "min-start")


@st.composite
def _spec(draw, in_channels, size):
    """A standard, 1x1 or depthwise layer on a ``size`` x ``size`` map."""
    kind = draw(st.sampled_from(("standard", "pointwise", "depthwise")))
    kernel = 1 if kind == "pointwise" else draw(
        st.integers(1, min(7, size)))
    return ConvLayerSpec(
        in_channels=in_channels,
        out_channels=(in_channels if kind == "depthwise"
                      else draw(st.integers(1, 48))),
        kernel=kernel,
        in_rows=size,
        in_cols=size,
        stride=draw(st.integers(1, 3)),
        kind="depthwise" if kind == "depthwise" else "standard",
    )


@st.composite
def _tiling(draw, spec, source):
    """A tiling of ``spec``: any valid one, or a designer's choice."""
    if source in STRATEGIES:
        return TilingDesigner(source).design_layer(
            spec, draw(st.integers(1, 256)), draw(st.integers(2**18, 2**21)))
    tm = draw(st.integers(1, spec.out_channels))
    tn = tm if spec.is_depthwise else draw(st.integers(1, spec.in_channels))
    return TilingVector(tm, tn, draw(st.integers(1, spec.out_rows)),
                        draw(st.integers(1, spec.out_cols)))


@st.composite
def adjacent_layers(draw):
    """Two adjacent layer designs and a row/col mapping mode."""
    size = draw(st.integers(1, 32))
    upstream = draw(_spec(draw(st.integers(1, 48)), size))
    downstream = draw(_spec(upstream.out_channels, upstream.out_rows))
    source = draw(st.sampled_from(STRATEGIES + ("any",)))
    return (
        LayerDesign(0, upstream, draw(_tiling(upstream, source))),
        LayerDesign(1, downstream, draw(_tiling(downstream, source))),
        draw(st.sampled_from(("auto", "overlap"))),
    )


class TestLastRcTileClosedForm:
    @settings(deadline=None, max_examples=400)
    @given(layers=adjacent_layers())
    def test_matches_the_dependency_scan(self, layers):
        upstream, downstream, rc_mapping = layers
        if resolve_rc_mapping(upstream, downstream, rc_mapping) == "identity":
            expected = 0
        else:
            expected = max(rc_dependencies(upstream, downstream, 0))
        assert _last_rc_tile_needed(
            upstream, downstream, rc_mapping) == expected

    def test_wide_then_narrow_needs_a_later_upstream_tile(self):
        # 8x8 maps; the upstream tiles rows by 2, the downstream by 8,
        # so its first tile reads all four upstream row tiles.
        arch = Architecture.from_choices([3, 3], [8, 8], input_size=8)
        up = LayerDesign(0, arch.layers[0], TilingVector(2, 1, 2, 8))
        down = LayerDesign(1, arch.layers[1], TilingVector(2, 4, 8, 8))
        assert _last_rc_tile_needed(up, down, "auto") == 3
        assert max(rc_dependencies(up, down, 0)) == 3


class TestAlternatingTotals:
    @settings(deadline=None, max_examples=40)
    @given(
        dataset=st.sampled_from(["mnist", "mobilenet"]),
        device=st.sampled_from(["pynq-z1", "xc7z020-ddr-narrow"]),
        rc_mapping=st.sampled_from(["auto", "overlap", "identity"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_assignments_equal_full_analyses(
            self, dataset, device, rc_mapping, seed):
        space = SearchSpace.from_config(get_config(dataset))
        arch = space.random_architecture(np.random.default_rng(seed))
        design = TilingDesigner().design(
            arch, Platform.single(get_device(device)))
        totals = alternating_totals(design, rc_mapping)
        assert totals == tuple(
            FnasAnalyzer(
                strategies=alternating_strategies(arch.depth, first=first),
                rc_mapping=rc_mapping,
            ).analyze(design).total_cycles
            for first in (OFM_REUSE, IFM_REUSE)
        )


def _twin_layer_arch() -> Architecture:
    """Two identical layers: one (spec, DSP, BRAM) key on any platform."""
    spec = ConvLayerSpec(in_channels=8, out_channels=8, kernel=3,
                         in_rows=16, in_cols=16)
    return Architecture(layers=(spec, spec), num_classes=10,
                        input_channels=8, input_size=16)


def _counters(memo: LayerDesignMemo):
    return memo.stats, memo.kind_stats, process_memo_snapshot()


class TestCountingEquivalence:
    """The batched probe counts what one probe per layer counted."""

    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        reset_process_memo_stats()
        yield
        reset_process_memo_stats()

    def _batched(self, archs, platform):
        memo = LayerDesignMemo()
        for arch in archs:
            for strategy in STRATEGIES:
                TilingDesigner(strategy, memo=memo).design(arch, platform)
        return _counters(memo)

    def _design_layer_each(self, archs, platform):
        memo = LayerDesignMemo()
        for arch in archs:
            allocations = platform.allocate(arch)
            for strategy in STRATEGIES:
                designer = TilingDesigner(strategy, memo=memo)
                for spec, allocation in zip(arch.layers, allocations):
                    designer.design_layer(spec, allocation.dsp_budget,
                                          allocation.bram_budget_bytes)
        return _counters(memo)

    def _lookup_then_store(self, archs, platform):
        memo = LayerDesignMemo()
        for arch in archs:
            allocations = platform.allocate(arch)
            for strategy in STRATEGIES:
                for spec, allocation in zip(arch.layers, allocations):
                    budgets = (allocation.dsp_budget,
                               allocation.bram_budget_bytes)
                    if memo.lookup(spec, *budgets, strategy) is None:
                        memo.store(spec, *budgets, strategy,
                                   TilingDesigner(strategy).design_layer(
                                       spec, *budgets))
        return _counters(memo)

    @pytest.mark.parametrize("device", ["pynq-z1", "xc7z020-ddr-narrow"])
    def test_three_ways_of_probing_count_alike(self, device):
        space = SearchSpace.from_config(get_config("mobilenet"))
        rng = np.random.default_rng(5)
        archs = [space.random_architecture(rng) for _ in range(12)]
        archs += archs[:4] + [_twin_layer_arch()]
        platform = Platform.single(get_device(device))
        counts = []
        for way in (self._batched, self._design_layer_each,
                    self._lookup_then_store):
            reset_process_memo_stats()
            counts.append(way(archs, platform))
        assert counts[0] == counts[1] == counts[2]
        stats = counts[0][0]
        assert stats.hits > 0 and stats.misses > 0

    def test_a_key_repeated_in_one_design_misses_then_hits(self):
        memo = LayerDesignMemo()
        design = TilingDesigner(memo=memo).design(
            _twin_layer_arch(), Platform.single(PYNQ_Z1))
        assert design.layers[0].tiling == design.layers[1].tiling
        assert (memo.stats.hits, memo.stats.misses) == (1, 1)
        assert {kind: (s.hits, s.misses)
                for kind, s in memo.kind_stats.items()} == {
            "standard": (1, 1)}
        assert process_memo_snapshot() == {
            "all": {"hits": 1, "misses": 1, "hit_rate": 0.5},
            "standard": {"hits": 1, "misses": 1, "hit_rate": 0.5},
        }
        assert len(memo) == 1
