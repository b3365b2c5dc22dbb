"""Tests for the architecture model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.architecture import Architecture, ConvLayerSpec


class TestConvLayerSpec:
    def test_basic_shapes_stride1(self):
        spec = ConvLayerSpec(in_channels=3, out_channels=8, kernel=3,
                             in_rows=28, in_cols=28)
        assert spec.out_rows == 28
        assert spec.out_cols == 28

    def test_strided_output_is_ceil(self):
        spec = ConvLayerSpec(in_channels=3, out_channels=8, kernel=3,
                             in_rows=9, in_cols=9, stride=2)
        assert spec.out_rows == 5
        assert spec.out_cols == 5

    def test_macs_formula(self):
        spec = ConvLayerSpec(in_channels=2, out_channels=4, kernel=3,
                             in_rows=8, in_cols=8)
        assert spec.macs == 3 * 3 * 2 * 4 * 8 * 8

    def test_weight_count(self):
        spec = ConvLayerSpec(in_channels=2, out_channels=4, kernel=5,
                             in_rows=10, in_cols=10)
        assert spec.weight_count == 5 * 5 * 2 * 4

    def test_ifm_ofm_sizes(self):
        spec = ConvLayerSpec(in_channels=2, out_channels=4, kernel=3,
                             in_rows=8, in_cols=6)
        assert spec.ifm_size == 2 * 8 * 6
        assert spec.ofm_size == 4 * 8 * 6

    @pytest.mark.parametrize("field,value", [
        ("in_channels", 0), ("out_channels", -1), ("kernel", 0),
        ("in_rows", 0), ("in_cols", -3), ("stride", 0),
    ])
    def test_rejects_non_positive(self, field, value):
        kwargs = dict(in_channels=2, out_channels=4, kernel=3,
                      in_rows=8, in_cols=8, stride=1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ConvLayerSpec(**kwargs)

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="kernel"):
            ConvLayerSpec(in_channels=1, out_channels=1, kernel=9,
                          in_rows=8, in_cols=8)

    @given(
        n=st.integers(1, 16),
        m=st.integers(1, 16),
        k=st.integers(1, 5),
        size=st.integers(5, 32),
        stride=st.integers(1, 3),
    )
    def test_macs_match_output_geometry(self, n, m, k, size, stride):
        spec = ConvLayerSpec(in_channels=n, out_channels=m, kernel=k,
                             in_rows=size, in_cols=size, stride=stride)
        assert spec.macs == k * k * n * m * spec.out_rows * spec.out_cols
        assert spec.out_rows == math.ceil(size / stride)


class TestArchitecture:
    def test_from_choices_chains_shapes(self):
        arch = Architecture.from_choices(
            [3, 5], [4, 8], input_size=16, input_channels=3
        )
        assert arch.layers[0].in_channels == 3
        assert arch.layers[1].in_channels == 4
        assert arch.layers[1].out_channels == 8
        assert arch.depth == 2

    def test_from_choices_clamps_oversized_kernels(self):
        arch = Architecture.from_choices(
            [14, 14], [4, 4], input_size=28, input_channels=1,
            strides=[4, 1],
        )
        # After the stride-4 layer the map is 7x7; the 14x14 kernel
        # must have been clamped to 7.
        assert arch.layers[1].kernel == 7

    def test_from_choices_shares_one_spec_per_distinct_layer(self):
        first = Architecture.from_choices(
            [3, 5, 3], [4, 8, 4], input_size=16, input_channels=3,
            conv_types=["standard", "separable", "standard"])
        again = Architecture.from_choices(
            [3, 5, 3], [4, 8, 4], input_size=16, input_channels=3,
            conv_types=["standard", "separable", "standard"])
        assert all(a is b for a, b in zip(first.layers, again.layers))
        # Equal arguments of another type build their own spec.
        floats = Architecture.from_choices(
            [3.0], [4], input_size=16, input_channels=3)
        assert floats.layers[0] == first.layers[0]
        assert floats.layers[0] is not first.layers[0]
        assert type(floats.layers[0].kernel) is float

    def test_total_macs_is_sum(self):
        arch = Architecture.from_choices(
            [3, 3, 3], [4, 8, 4], input_size=10, input_channels=1
        )
        assert arch.total_macs == sum(l.macs for l in arch.layers)

    def test_total_weights_is_sum(self):
        arch = Architecture.from_choices(
            [3, 5], [4, 8], input_size=10, input_channels=2
        )
        assert arch.total_weights == sum(l.weight_count for l in arch.layers)

    def test_filter_accessors(self):
        arch = Architecture.from_choices(
            [3, 5], [4, 8], input_size=16, input_channels=1
        )
        assert arch.filter_sizes == (3, 5)
        assert arch.filter_counts == (4, 8)

    def test_describe_format(self):
        arch = Architecture.from_choices(
            [3, 5], [4, 8], input_size=16, input_channels=1
        )
        assert arch.describe() == "3x3/4 -> 5x5/8"

    def test_fingerprint_distinguishes_architectures(self):
        a = Architecture.from_choices([3, 5], [4, 8], input_size=16)
        b = Architecture.from_choices([5, 3], [4, 8], input_size=16)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_stable(self):
        a = Architecture.from_choices([3, 5], [4, 8], input_size=16)
        b = Architecture.from_choices([3, 5], [4, 8], input_size=16)
        assert a.fingerprint() == b.fingerprint()

    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError, match="at least one"):
            Architecture(layers=(), num_classes=10, input_channels=1,
                         input_size=28)

    def test_rejects_mismatched_channel_chain(self):
        layers = (
            ConvLayerSpec(1, 4, 3, 8, 8),
            ConvLayerSpec(8, 4, 3, 8, 8),  # expects 4 in, says 8
        )
        with pytest.raises(ValueError, match="in_channels"):
            Architecture(layers=layers, num_classes=10, input_channels=1,
                         input_size=8)

    def test_rejects_mismatched_spatial_chain(self):
        layers = (
            ConvLayerSpec(1, 4, 3, 8, 8, stride=2),
            ConvLayerSpec(4, 4, 3, 8, 8),  # upstream emits 4x4
        )
        with pytest.raises(ValueError, match="input size"):
            Architecture(layers=layers, num_classes=10, input_channels=1,
                         input_size=8)

    def test_rejects_bad_num_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            Architecture.from_choices([3], [4], input_size=8, num_classes=1)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            Architecture.from_choices([3, 3], [4], input_size=8)

    def test_strides_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="strides"):
            Architecture.from_choices([3], [4], input_size=8, strides=[1, 2])

    @given(
        depth=st.integers(1, 6),
        data=st.data(),
    )
    def test_random_spaces_build_consistently(self, depth, data):
        sizes = data.draw(st.lists(
            st.sampled_from([1, 3, 5, 7]), min_size=depth, max_size=depth))
        counts = data.draw(st.lists(
            st.integers(1, 32), min_size=depth, max_size=depth))
        arch = Architecture.from_choices(
            sizes, counts, input_size=16, input_channels=3
        )
        assert arch.depth == depth
        assert arch.total_macs > 0
        # Channel chain is consistent by construction.
        for prev, cur in zip(arch.layers, arch.layers[1:]):
            assert cur.in_channels == prev.out_channels
