"""Tests for multi-FPGA platforms and PE allocation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.architecture import Architecture
from repro.fpga.device import PYNQ_Z1, XC7A50T, XCZU9EG, FpgaDevice
from repro.fpga.platform import Platform, _proportional_split


def arch_of(counts, size=16, channels=1):
    return Architecture.from_choices(
        [3] * len(counts), list(counts), input_size=size,
        input_channels=channels,
    )


class TestPlatformBasics:
    def test_single(self):
        platform = Platform.single(PYNQ_Z1)
        assert platform.total_dsps == PYNQ_Z1.dsp_slices
        assert platform.clock_mhz == PYNQ_Z1.clock_mhz

    def test_replicated(self):
        platform = Platform.replicated(PYNQ_Z1, 3)
        assert platform.total_dsps == 3 * PYNQ_Z1.dsp_slices

    def test_replicated_rejects_zero(self):
        with pytest.raises(ValueError):
            Platform.replicated(PYNQ_Z1, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Platform([])

    def test_rejects_mixed_clocks(self):
        fast = FpgaDevice("fast", 100, 100, 1.0, clock_mhz=200.0)
        with pytest.raises(ValueError, match="clock"):
            Platform([PYNQ_Z1, fast])

    def test_cycles_ms_roundtrip(self):
        platform = Platform.single(PYNQ_Z1)
        assert platform.cycles_to_ms(
            platform.ms_to_cycles(3.0)) == pytest.approx(3.0)


class TestAllocation:
    def test_single_device_all_layers(self):
        platform = Platform.single(PYNQ_Z1)
        arch = arch_of([8, 16, 8])
        allocations = platform.allocate(arch)
        assert len(allocations) == 3
        assert [a.layer_index for a in allocations] == [0, 1, 2]
        assert all(a.device is PYNQ_Z1 for a in allocations)

    def test_dsp_budgets_fit_device(self):
        platform = Platform.single(PYNQ_Z1)
        arch = arch_of([8, 16, 32, 16])
        allocations = platform.allocate(arch)
        assert sum(a.dsp_budget for a in allocations) <= PYNQ_Z1.dsp_slices
        assert all(a.dsp_budget >= 1 for a in allocations)

    def test_heavier_layers_get_more_dsps(self):
        platform = Platform.single(XCZU9EG)
        arch = arch_of([4, 64, 4])
        allocations = platform.allocate(arch)
        # Layer 1 (4->64) and layer 2 (64->4 input 64) dominate layer 0.
        assert allocations[1].dsp_budget > allocations[0].dsp_budget

    def test_multi_fpga_partition_is_contiguous_and_complete(self):
        platform = Platform.replicated(PYNQ_Z1, 2)
        arch = arch_of([8, 8, 8, 8])
        allocations = platform.allocate(arch)
        assert [a.layer_index for a in allocations] == [0, 1, 2, 3]
        indices = [a.device_index for a in allocations]
        # Contiguous and monotone: device index never decreases.
        assert indices == sorted(indices)

    def test_more_devices_than_layers(self):
        platform = Platform.replicated(PYNQ_Z1, 4)
        arch = arch_of([8, 8])
        allocations = platform.allocate(arch)
        assert len(allocations) == 2
        # Each layer alone on a device gets the full device.
        assert allocations[0].dsp_budget == PYNQ_Z1.dsp_slices

    def test_per_device_budgets_fit(self):
        platform = Platform.replicated(XC7A50T, 2)
        arch = arch_of([8, 16, 16, 8, 8])
        allocations = platform.allocate(arch)
        per_device: dict[int, int] = {}
        for a in allocations:
            per_device[a.device_index] = (
                per_device.get(a.device_index, 0) + a.dsp_budget
            )
        assert len(per_device) == 2
        for used in per_device.values():
            assert used <= XC7A50T.dsp_slices


#: One shared platform per shape, and every allocation it returned:
#: allocations accumulate across examples.
SHARED_PLATFORMS = {
    "single": lambda: Platform.single(PYNQ_Z1),
    "two-boards": lambda: Platform.replicated(XC7A50T, 2),
    "three-boards": lambda: Platform([PYNQ_Z1, XC7A50T, PYNQ_Z1]),
}
SHARED = {shape: (make(), {}) for shape, make in SHARED_PLATFORMS.items()}


class TestAllocationReuse:
    """Equal budgets share one frozen :class:`PeAllocation`."""

    @pytest.mark.parametrize("shape", sorted(SHARED_PLATFORMS))
    @given(counts=st.lists(st.sampled_from([4, 8, 16, 32]), min_size=1,
                           max_size=7))
    def test_allocations_equal_a_fresh_platforms(self, shape, counts):
        platform, seen = SHARED[shape]
        arch = arch_of(counts)
        allocations = platform.allocate(arch)
        assert allocations == SHARED_PLATFORMS[shape]().allocate(arch)
        assert [a.layer_index for a in allocations] == list(range(len(counts)))
        for allocation in allocations:
            assert seen.setdefault(allocation, allocation) is allocation

    def test_other_architectures_share_equal_budgets(self):
        platform = Platform.replicated(PYNQ_Z1, 4)
        # One layer per board: each gets the whole board, whatever its shape.
        first = platform.allocate(arch_of([8, 16]))
        second = platform.allocate(arch_of([32, 4]))
        assert [a.dsp_budget for a in first] == [PYNQ_Z1.dsp_slices] * 2
        assert second is not first
        assert all(a is b for a, b in zip(first, second))


class TestProportionalSplit:
    def test_exact_budget_consumed(self):
        shares = _proportional_split(10, [1, 1, 1])
        assert sum(shares) == 10

    def test_everyone_gets_at_least_one(self):
        shares = _proportional_split(5, [1000, 1, 1, 1, 1])
        assert min(shares) >= 1
        assert sum(shares) == 5

    def test_rejects_budget_below_count(self):
        with pytest.raises(ValueError):
            _proportional_split(2, [1, 1, 1])

    def test_zero_weights_split_evenly(self):
        shares = _proportional_split(9, [0, 0, 0])
        assert sum(shares) == 9
        assert max(shares) - min(shares) <= 1

    @given(
        budget=st.integers(3, 500),
        weights=st.lists(st.integers(0, 10**9), min_size=1, max_size=8),
    )
    def test_invariants(self, budget, weights):
        if budget < len(weights):
            return
        shares = _proportional_split(budget, weights)
        assert sum(shares) == budget
        assert all(s >= 1 for s in shares)
