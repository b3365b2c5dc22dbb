"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    make_cifar,
    make_imagenet,
    make_mnist,
    make_mobilenet,
)
from repro.registry import DATASETS


class TestRegistry:
    def test_names(self):
        assert DATASETS.names() == ["cifar10", "imagenet", "mnist",
                                    "mobilenet"]

    def test_load_by_name(self):
        ds = DATASETS["mnist"](train_size=50, val_size=20)
        assert ds.name == "synthetic-mnist"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            DATASETS["svhn"]


@pytest.mark.parametrize("maker,channels,size,classes", [
    (make_mnist, 1, 28, 10),
    (make_cifar, 3, 32, 10),
    (make_imagenet, 3, 32, 20),
    (make_mobilenet, 3, 32, 10),
])
class TestGenerators:
    def test_shapes_and_ranges(self, maker, channels, size, classes):
        ds = maker(train_size=40, val_size=20, seed=0)
        assert ds.train_x.shape == (40, channels, size, size)
        assert ds.val_x.shape == (20, channels, size, size)
        assert ds.train_x.dtype == np.float32
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0
        assert ds.num_classes == classes
        assert ds.input_channels == channels
        assert ds.input_size == size

    def test_deterministic_per_seed(self, maker, channels, size, classes):
        a = maker(train_size=20, val_size=10, seed=5)
        b = maker(train_size=20, val_size=10, seed=5)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_different_seeds_differ(self, maker, channels, size, classes):
        a = maker(train_size=20, val_size=10, seed=1)
        b = maker(train_size=20, val_size=10, seed=2)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_covers_multiple_classes(self, maker, channels, size, classes):
        ds = maker(train_size=200, val_size=50, seed=0)
        assert len(np.unique(ds.train_y)) >= classes // 2

    def test_rejects_bad_sizes(self, maker, channels, size, classes):
        with pytest.raises(ValueError):
            maker(train_size=0, val_size=10)

    def test_images_not_constant(self, maker, channels, size, classes):
        ds = maker(train_size=10, val_size=5, seed=0)
        assert ds.train_x.std() > 0.01


class TestLearnability:
    def test_classes_are_separable_by_pixel_statistics(self):
        """Class-conditional means must differ -- the signal a CNN learns."""
        ds = make_cifar(train_size=400, val_size=50, seed=0)
        means = []
        for c in range(ds.num_classes):
            mask = ds.train_y == c
            if mask.sum() > 0:
                means.append(ds.train_x[mask].mean(axis=(0, 2, 3)))
        means = np.stack(means)
        # Pairwise distances between class color means are not tiny.
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        assert dists[np.triu_indices(len(means), 1)].mean() > 0.05

    def test_mobilenet_shares_style_not_images_with_cifar(self):
        """Same renderer, independent class-parameter draw."""
        cifar = make_cifar(train_size=20, val_size=10, seed=0)
        mobile = make_mobilenet(train_size=20, val_size=10, seed=0)
        assert not np.array_equal(cifar.train_x, mobile.train_x)

    def test_mnist_digit_masks_differ(self):
        ds = make_mnist(train_size=300, val_size=30, seed=0)
        ones = ds.train_x[ds.train_y == 1].mean(axis=0)
        eights = ds.train_x[ds.train_y == 8].mean(axis=0)
        if ones.size and eights.size:
            assert np.abs(ones - eights).mean() > 0.01


class TestDatasetContainer:
    def test_subsample(self):
        ds = make_mnist(train_size=50, val_size=20, seed=0)
        sub = ds.subsample(train=10, val=5, seed=1)
        assert sub.train_size == 10
        assert sub.val_size == 5
        assert sub.num_classes == ds.num_classes

    def test_subsample_too_big_raises(self):
        ds = make_mnist(train_size=10, val_size=5, seed=0)
        with pytest.raises(ValueError):
            ds.subsample(train=100, val=5)

    def test_validation_catches_mismatches(self):
        x = np.zeros((4, 1, 8, 8), dtype=np.float32)
        y = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            Dataset("bad", x, y, x, np.zeros(4, dtype=np.int64),
                    num_classes=10)

    def test_validation_catches_label_range(self):
        x = np.zeros((2, 1, 8, 8), dtype=np.float32)
        y = np.array([0, 12])
        with pytest.raises(ValueError, match="range"):
            Dataset("bad", x, y, x, y[:2], num_classes=10)
