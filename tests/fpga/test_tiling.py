"""Tests for FNAS-Design tiling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.architecture import Architecture, ConvLayerSpec
from repro.fpga.device import PYNQ_Z1, XC7Z020_DDR_NARROW
from repro.fpga.platform import PeAllocation, Platform
from repro.fpga.tiling import (
    DOUBLE_BUFFER,
    WORD_BYTES,
    LayerDesign,
    LayerDesignMemo,
    TilingDesigner,
    TilingVector,
    _channel_tiling,
    _spatial_tiling,
    _tile_size_candidates,
)
from tests.fpga import tiling_reference as reference

STRATEGIES = ("max-reuse", "min-start")

#: Prime extents (no divisors but 1 and themselves) and extents whose
#: near-divisor candidates are not divisors.
ODD_EXTENTS = (7, 9, 11, 13, 15, 17, 19, 23, 25, 27, 29, 31, 33, 37)


def spec_of(n=8, m=16, k=3, size=16, stride=1):
    return ConvLayerSpec(in_channels=n, out_channels=m, kernel=k,
                         in_rows=size, in_cols=size, stride=stride)


class TestTilingVector:
    def test_dsps(self):
        assert TilingVector(tm=4, tn=3, tr=2, tc=2).dsps == 12

    @pytest.mark.parametrize("field", ["tm", "tn", "tr", "tc"])
    def test_rejects_non_positive(self, field):
        kwargs = dict(tm=1, tn=1, tr=1, tc=1)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            TilingVector(**kwargs)


class TestLayerDesign:
    def test_tile_counts(self):
        design = LayerDesign(0, spec_of(n=8, m=16, size=16),
                             TilingVector(tm=5, tn=3, tr=4, tc=8))
        assert design.n_ifm_channel_tiles == 3   # ceil(8/3)
        assert design.n_ofm_channel_tiles == 4   # ceil(16/5)
        assert design.n_row_tiles == 4
        assert design.n_col_tiles == 2
        assert design.n_rc_tiles == 8
        assert design.task_count == 3 * 4 * 8

    def test_execution_time_formula(self):
        design = LayerDesign(0, spec_of(k=3), TilingVector(2, 2, 4, 5))
        assert design.execution_time == 3 * 3 * 4 * 5

    def test_processing_time_is_et_times_tasks(self):
        design = LayerDesign(0, spec_of(), TilingVector(4, 4, 4, 4))
        assert design.processing_time == (
            design.execution_time * design.task_count
        )

    def test_processing_time_covers_all_macs(self):
        """PT x (Tm*Tn MACs/cycle) >= layer MACs (equality if no ceil waste)."""
        spec = spec_of(n=8, m=16, k=3, size=16)
        design = LayerDesign(0, spec, TilingVector(tm=8, tn=8, tr=16, tc=16))
        assert design.processing_time * design.tiling.dsps == spec.macs

    def test_buffer_sizes(self):
        spec = spec_of(n=8, m=16, k=3, size=16, stride=1)
        design = LayerDesign(0, spec, TilingVector(tm=2, tn=3, tr=4, tc=4))
        assert design.ifm_buffer_bytes == 3 * 6 * 6 * WORD_BYTES
        assert design.ofm_buffer_bytes == 2 * 4 * 4 * WORD_BYTES
        assert design.weight_buffer_bytes == 2 * 3 * 3 * 3 * WORD_BYTES
        assert design.bram_bytes == DOUBLE_BUFFER * (
            design.ifm_buffer_bytes + design.ofm_buffer_bytes
            + design.weight_buffer_bytes
        )

    @pytest.mark.parametrize("tiling,msg", [
        (TilingVector(tm=99, tn=1, tr=1, tc=1), "Tm"),
        (TilingVector(tm=1, tn=99, tr=1, tc=1), "Tn"),
        (TilingVector(tm=1, tn=1, tr=99, tc=1), "Tr"),
        (TilingVector(tm=1, tn=1, tr=1, tc=99), "Tc"),
    ])
    def test_rejects_oversized_tiles(self, tiling, msg):
        with pytest.raises(ValueError, match=msg):
            LayerDesign(0, spec_of(), tiling)


class TestTilingDesigner:
    def test_respects_dsp_budget(self, designer):
        spec = spec_of(n=32, m=64)
        tiling = designer.design_layer(spec, dsp_budget=50,
                                       bram_budget_bytes=10**6)
        assert tiling.dsps <= 50

    def test_respects_bram_budget(self, designer):
        spec = spec_of(n=32, m=64, size=32)
        budget = 20_000
        tiling = designer.design_layer(spec, dsp_budget=100,
                                       bram_budget_bytes=budget)
        design = LayerDesign(0, spec, tiling)
        assert design.bram_bytes <= budget

    def test_raises_when_nothing_fits(self, designer):
        spec = spec_of(n=32, m=64, k=7)
        with pytest.raises(ValueError, match="BRAM"):
            designer.design_layer(spec, dsp_budget=100, bram_budget_bytes=64)

    def test_channel_tiling_minimises_waste(self, designer):
        # 8 in / 16 out with 64 DSPs: Tm=8, Tn=8 gives zero ceil waste.
        spec = spec_of(n=8, m=16)
        tiling = designer.design_layer(spec, dsp_budget=64,
                                       bram_budget_bytes=10**6)
        tiles = (-(-16 // tiling.tm)) * (-(-8 // tiling.tn))
        assert tiles == 2  # optimal: ceil(16/8) * ceil(8/8)

    def test_strategies_produce_valid_designs(self):
        for strategy in ("max-reuse", "min-start"):
            designer = TilingDesigner(spatial_strategy=strategy)
            spec = spec_of(n=8, m=16, size=28)
            tiling = designer.design_layer(spec, 64, 10**6)
            LayerDesign(0, spec, tiling)  # validates

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_min_start_is_1x1_whenever_1x1_fits(self, data):
        """The property the min-start fast path relies on: 1x1 has zero
        waste and area 1, so enumeration never picks anything else."""
        spec = data.draw(layer_specs())
        tm = data.draw(st.integers(1, spec.out_channels))
        tn = tm if spec.is_depthwise else data.draw(
            st.integers(1, spec.in_channels))
        fit = reference._bram_usage(spec, tm, tn, 1, 1)
        budget = data.draw(st.integers(fit, 4 * fit))
        assert reference._choose_spatial_tiling(
            spec, tm, tn, budget, "min-start") == (1, 1)
        assert _spatial_tiling(spec, tm, tn, budget, "min-start") == (1, 1)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="spatial_strategy"):
            TilingDesigner(spatial_strategy="bogus")

    def test_rejects_zero_dsp_budget(self, designer):
        with pytest.raises(ValueError):
            designer.design_layer(spec_of(), 0, 10**6)

    def test_full_pipeline_design(self, designer, mnist_arch, pynq_platform):
        design = designer.design(mnist_arch, pynq_platform)
        assert len(design.layers) == mnist_arch.depth
        assert design.total_dsps_used <= pynq_platform.total_dsps
        for idx, layer_design in enumerate(design.layers):
            assert layer_design.layer_index == idx
            assert layer_design.spec is mnist_arch.layers[idx]

    def test_pipeline_respects_per_pe_budgets(self, designer, mnist_arch,
                                              pynq_platform):
        design = designer.design(mnist_arch, pynq_platform)
        for layer_design, allocation in zip(design.layers, design.allocations):
            assert layer_design.tiling.dsps <= allocation.dsp_budget
            assert layer_design.bram_bytes <= allocation.bram_budget_bytes

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 64),
        m=st.integers(1, 64),
        k=st.sampled_from([1, 3, 5, 7]),
        size=st.integers(7, 32),
        dsp=st.integers(4, 300),
    )
    def test_designed_layers_always_satisfy_constraints(self, n, m, k, size, dsp):
        if k > size:
            return
        spec = ConvLayerSpec(in_channels=n, out_channels=m, kernel=k,
                             in_rows=size, in_cols=size)
        designer = TilingDesigner()
        bram = 256 * 1024
        tiling = designer.design_layer(spec, dsp, bram)
        design = LayerDesign(0, spec, tiling)
        assert tiling.dsps <= dsp
        assert design.bram_bytes <= bram
        assert tiling.tm <= m and tiling.tn <= n
        assert tiling.tr <= spec.out_rows and tiling.tc <= spec.out_cols


@st.composite
def layer_specs(draw):
    """Standard and depthwise layers with kernels 1-7, strides 1-3 and
    prime or non-divisor extents as well as arbitrary ones."""
    kernel = draw(st.integers(1, 7))
    extent = st.one_of(st.sampled_from(ODD_EXTENTS), st.integers(1, 40))
    rows = max(kernel, draw(extent))
    cols = max(kernel, draw(extent))
    n = draw(st.integers(1, 96))
    kind = draw(st.sampled_from(ConvLayerSpec.KINDS))
    m = n if kind == ConvLayerSpec.DEPTHWISE else draw(st.integers(1, 96))
    return ConvLayerSpec(in_channels=n, out_channels=m, kernel=kernel,
                         in_rows=rows, in_cols=cols,
                         stride=draw(st.integers(1, 3)), kind=kind)


@st.composite
def bram_budgets(draw, spec):
    """Budgets straddling the smallest design's 1x1 fit, plus roomy ones."""
    fit = reference._bram_usage(spec, 1, 1, 1, 1)
    return draw(st.one_of(st.integers(fit - 8, fit + 64),
                          st.integers(fit, 1 << 20)))


def outcome(choose, *args):
    """What a selection returns, or the message of the ValueError it raises."""
    try:
        return choose(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestClosedFormsMatchEnumeration:
    """Exactness wall: the closed-form selection returns the enumerating
    reference's tiling, or raises the same ValueError."""

    @settings(deadline=None, max_examples=400)
    @given(data=st.data())
    def test_design_layer(self, data):
        spec = data.draw(layer_specs())
        dsp = data.draw(st.integers(0, 300))
        bram = data.draw(bram_budgets(spec))
        for strategy in STRATEGIES:
            fast = outcome(TilingDesigner(strategy).design_layer,
                           spec, dsp, bram)
            assert fast == outcome(reference.design_layer,
                                   spec, dsp, bram, strategy)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_channel_tiling(self, data):
        spec = data.draw(layer_specs())
        dsp = data.draw(st.integers(0, 300))
        bram = data.draw(bram_budgets(spec))
        assert outcome(_channel_tiling, spec, dsp, bram) == outcome(
            reference._choose_channel_tiling, spec, dsp, bram)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_spatial_tiling_for_any_channel_tiling(self, data):
        """Including channel tilings that do not fit at 1x1, where both
        strategies must refuse alike."""
        spec = data.draw(layer_specs())
        tm = data.draw(st.integers(1, spec.out_channels))
        tn = tm if spec.is_depthwise else data.draw(
            st.integers(1, spec.in_channels))
        bram = data.draw(bram_budgets(spec))
        for strategy in STRATEGIES:
            assert outcome(_spatial_tiling, spec, tm, tn, bram, strategy) == (
                outcome(reference._choose_spatial_tiling,
                        spec, tm, tn, bram, strategy))


class TestTileCandidates:
    def test_includes_divisors(self):
        cands = _tile_size_candidates(12)
        for d in (1, 2, 3, 4, 6, 12):
            assert d in cands

    def test_prime_extent_gets_mid_range_options(self):
        cands = _tile_size_candidates(13)
        assert any(1 < c < 13 for c in cands)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            _tile_size_candidates(0)


class TestLayerDesignMemo:
    """The per-estimator tiling memo: in memory, keyed on every input."""

    def _entry(self):
        return (spec_of(), 64, 256 * 1024, "max-reuse")

    def test_round_trip(self):
        memo = LayerDesignMemo()
        tiling = TilingVector(tm=4, tn=3, tr=8, tc=8)
        memo.store(*self._entry(), tiling)
        assert memo.lookup(*self._entry()) == tiling
        assert len(memo) == 1

    def test_distinct_inputs_get_distinct_keys(self):
        memo = LayerDesignMemo()
        memo.store(*self._entry(), TilingVector(tm=4, tn=3, tr=8, tc=8))
        for variant in (
            (spec_of(n=9), 64, 256 * 1024, "max-reuse"),
            (spec_of(), 63, 256 * 1024, "max-reuse"),
            (spec_of(), 64, 256 * 1024 - 1, "max-reuse"),
            (spec_of(), 64, 256 * 1024, "min-start"),
        ):
            assert memo.lookup(*variant) is None, variant
        assert memo.lookup(*self._entry()) is not None

    def test_memos_share_nothing(self):
        """A fresh memo starts cold: no other memo warms it, so its
        tilings are always the ones the current selection computes."""
        stale = TilingVector(tm=1, tn=1, tr=1, tc=1)
        LayerDesignMemo().store(*self._entry(), stale)

        fresh = LayerDesignMemo()
        assert fresh.lookup(*self._entry()) is None
        spec, dsp, bram, strategy = self._entry()
        tiling = TilingDesigner(strategy, memo=fresh).design_layer(
            spec, dsp, bram)
        assert tiling != stale
        assert tiling == TilingDesigner(strategy).design_layer(
            spec, dsp, bram)

    def test_designer_stores_then_reuses(self):
        memo = LayerDesignMemo()
        designer = TilingDesigner(memo=memo)
        first = designer.design_layer(spec_of(), 64, 256 * 1024)
        assert (memo.stats.hits, memo.stats.misses) == (0, 1)
        assert designer.design_layer(spec_of(), 64, 256 * 1024) == first
        assert (memo.stats.hits, memo.stats.misses) == (1, 1)
        assert first == TilingDesigner().design_layer(
            spec_of(), 64, 256 * 1024)

    def test_strategies_share_channels_not_tilings(self):
        """Both spatial strategies start from one ``(Tm, Tn)`` choice,
        but each keeps its own tiling entry."""
        memo = LayerDesignMemo()
        spec = spec_of(size=28)
        tilings = {
            strategy: TilingDesigner(strategy, memo=memo).design_layer(
                spec, 64, 10**6)
            for strategy in STRATEGIES
        }
        for strategy in STRATEGIES:
            assert tilings[strategy] == TilingDesigner(
                strategy).design_layer(spec, 64, 10**6)
        assert len(memo) == 2
        assert tilings["max-reuse"] != tilings["min-start"]
        for tiling in tilings.values():
            assert memo.channel_tiling(spec, 64, 10**6) == (
                tiling.tm, tiling.tn)

    def test_budgets_that_choose_one_tiling_share_one_design(self):
        """A design is keyed on its tiling, not on the budgets or the
        strategy that chose it; the counted probes are unchanged."""
        memo = LayerDesignMemo()
        # 8 -> 16 channels, 1x1 kernel on a 1x1 map: every DSP budget
        # from 128 up and both strategies choose Tm=16, Tn=8, Tr=Tc=1.
        spec = spec_of(k=1, size=1)

        def design(dsp, strategy, device=PYNQ_Z1, layer_index=0):
            allocation = PeAllocation(layer_index, device, 0, dsp, 10**6)
            return memo.layer_designs((spec,), [allocation], strategy)[0]

        first = design(128, "max-reuse")
        assert first.tiling == TilingVector(tm=16, tn=8, tr=1, tc=1)
        assert first == LayerDesign(0, spec, first.tiling)
        for dsp in (128, 200, 220):
            for strategy in STRATEGIES:
                assert design(dsp, strategy) is first
        # Seven probes of six distinct (budgets, strategy) keys.
        assert (memo.stats.hits, memo.stats.misses) == (1, 6)
        assert design(128, "max-reuse", layer_index=1) is not first
        on_dram = design(128, "max-reuse", device=XC7Z020_DDR_NARROW)
        assert on_dram.tiling == first.tiling
        assert on_dram.phases is not None and first.phases is None

    def test_clear_drops_entries_and_keeps_counters(self):
        memo = LayerDesignMemo()
        TilingDesigner(memo=memo).design_layer(spec_of(), 64, 256 * 1024)
        memo.clear()
        assert len(memo) == 0
        assert memo.lookup(*self._entry()) is None
        assert (memo.stats.hits, memo.stats.misses) == (0, 2)


class TestProcessMemoStats:
    """The process-wide counters behind ``/metrics`` ``tiling_memo``."""

    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        from repro.fpga.tiling import reset_process_memo_stats

        reset_process_memo_stats()
        yield
        reset_process_memo_stats()

    def test_all_bucket_counts_memory_lookups(self):
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot

        entry = (spec_of(), 64, 256 * 1024, "max-reuse")
        memo = LayerDesignMemo()
        memo.lookup(*entry)                         # miss
        memo.store(*entry, TilingVector(tm=4, tn=3, tr=8, tc=8))
        memo.lookup(*entry)                         # hit
        snapshot = process_memo_snapshot()
        assert snapshot["all"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_kind_buckets_count_each_layer_kind(self):
        """Exactly the memory-tier buckets exist, each counting its own
        layer kind; the ``all`` bucket totals them."""
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot

        depthwise = ConvLayerSpec(in_channels=8, out_channels=8, kernel=3,
                                  in_rows=16, in_cols=16, kind="depthwise")
        memo = LayerDesignMemo()
        for spec in (spec_of(k=3), spec_of(k=1), spec_of(k=1), depthwise):
            memo.lookup(spec, 64, 256 * 1024, "max-reuse")
        misses = {kind: counts["misses"]
                  for kind, counts in process_memo_snapshot().items()}
        assert misses == {"all": 4, "standard": 1, "pointwise": 2,
                          "depthwise": 1}
        assert {kind: stats.misses
                for kind, stats in memo.kind_stats.items()} == {
            "standard": 1, "pointwise": 2, "depthwise": 1}

    def test_designing_a_pipeline_totals_per_kind_lookups(
            self, mnist_arch, pynq_platform):
        from repro.fpga.tiling import LayerDesignMemo, process_memo_snapshot

        designer = TilingDesigner(memo=LayerDesignMemo())
        designer.design(mnist_arch, pynq_platform)
        designer.design(mnist_arch, pynq_platform)
        snapshot = process_memo_snapshot()
        assert set(snapshot) <= {"all", "standard", "pointwise",
                                 "depthwise"}
        for field in ("hits", "misses"):
            assert snapshot["all"][field] == sum(
                counts[field] for kind, counts in snapshot.items()
                if kind != "all")
        assert snapshot["all"]["hits"] == mnist_arch.depth

    def test_reset_clears_every_bucket(self):
        from repro.fpga.tiling import (
            LayerDesignMemo, process_memo_snapshot, reset_process_memo_stats,
        )

        LayerDesignMemo().lookup(spec_of(), 64, 256 * 1024, "max-reuse")
        assert process_memo_snapshot() != {}
        reset_process_memo_stats()
        assert process_memo_snapshot() == {}
