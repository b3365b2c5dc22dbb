"""Tests for the accuracy surrogate and search-cost models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs import CIFAR_CONFIG, IMAGENET_CONFIG, MNIST_CONFIG
from repro.core.search_space import SearchSpace
from repro.surrogate.accuracy_model import (
    CALIBRATIONS,
    SurrogateAccuracyModel,
    SurrogateCalibration,
    _fingerprint_noise,
)
from repro.surrogate.cost_model import (
    LATENCY_EVAL_SECONDS,
    MNIST_NAS_TOTAL_SECONDS,
    TRIAL_OVERHEAD_SECONDS,
    SearchCostModel,
)


@pytest.fixture(scope="module")
def space():
    return SearchSpace.from_config(MNIST_CONFIG)


@pytest.fixture(scope="module")
def model(space):
    return SurrogateAccuracyModel(space)


class TestAccuracyModel:
    def test_extremes_hit_calibration_band(self, space, model):
        cal = CALIBRATIONS["mnist"]
        smallest = space.decode([0] * space.num_decisions)
        largest = space.decode([2, 2] * 4)
        small_acc = model.accuracy(smallest)
        large_acc = model.accuracy(largest)
        assert small_acc == pytest.approx(cal.floor, abs=0.005)
        assert large_acc == pytest.approx(cal.ceiling, abs=0.005)
        assert large_acc > small_acc

    def test_capacity_normalised(self, space, model):
        smallest = space.decode([0] * space.num_decisions)
        largest = space.decode([2, 2] * 4)
        assert model.capacity(smallest) == 0.0
        assert model.capacity(largest) == 1.0

    def test_monotone_in_capacity_modulo_noise(self, space, model, rng):
        """Larger capacity gap must dominate the noise."""
        archs = sorted(
            (space.random_architecture(rng) for _ in range(30)),
            key=model.capacity,
        )
        low = archs[:5]
        high = archs[-5:]
        low_mean = np.mean([model.accuracy(a) for a in low])
        high_mean = np.mean([model.accuracy(a) for a in high])
        assert high_mean > low_mean

    def test_deterministic(self, space, model, rng):
        arch = space.random_architecture(rng)
        assert model.accuracy(arch) == model.accuracy(arch)

    def test_seed_varies_noise_only_slightly(self, space, rng):
        arch = space.random_architecture(rng)
        a = SurrogateAccuracyModel(space, seed=0).accuracy(arch)
        b = SurrogateAccuracyModel(space, seed=1).accuracy(arch)
        assert a != b
        assert abs(a - b) < 0.01

    def test_all_dataset_calibrations_exist(self):
        for name in ("mnist", "cifar10", "imagenet"):
            assert name in CALIBRATIONS

    def test_spread_is_about_a_point(self):
        """Figure 7(a)'s sub-1% losses require a small floor-ceiling gap."""
        for cal in CALIBRATIONS.values():
            assert 0.005 <= cal.ceiling - cal.floor <= 0.02

    def test_unknown_space_requires_explicit_calibration(self):
        space = SearchSpace(name="custom", num_layers=2,
                            filter_sizes=(3, 5), filter_counts=(4, 8),
                            input_size=16, input_channels=1, num_classes=10)
        with pytest.raises(KeyError, match="calibration"):
            SurrogateAccuracyModel(space)
        custom = SurrogateCalibration(floor=0.5, ceiling=0.6,
                                      noise_sigma=0.0)
        model = SurrogateAccuracyModel(space, calibration=custom)
        assert 0.5 <= model.accuracy(space.decode([0, 0, 0, 0])) <= 0.6

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            SurrogateCalibration(floor=0.9, ceiling=0.8, noise_sigma=0.0)
        with pytest.raises(ValueError):
            SurrogateCalibration(floor=0.5, ceiling=0.9, noise_sigma=-1.0)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 1000))
    def test_accuracy_always_in_unit_interval(self, space, model, seed):
        arch = space.random_architecture(np.random.default_rng(seed))
        assert 0.0 <= model.accuracy(arch) <= 1.0


class TestNoiseMemo:
    """Each (fingerprint, seed, sigma) draw is memoised, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(fingerprint=st.text(max_size=60),
           seed=st.one_of(st.integers(), st.booleans()),
           sigma=st.floats(0.0, 1.0))
    def test_memo_returns_the_draw_bit_for_bit(self, fingerprint, seed, sigma):
        draw = _fingerprint_noise.__wrapped__(fingerprint, seed, sigma)
        for _ in range(2):  # a miss, then a hit
            noise = _fingerprint_noise(fingerprint, seed, sigma)
            assert noise.hex() == draw.hex()

    def test_equal_seeds_of_other_types_are_other_draws(self):
        """``seed`` is formatted into the digest: 1, 1.0 and True are
        three draws, and the memo keeps them apart."""
        draws = {_fingerprint_noise("28|1|10|5.9.1", seed, 0.5)
                 for seed in (1, 1.0, True)}
        assert draws == {_fingerprint_noise.__wrapped__("28|1|10|5.9.1",
                                                        seed, 0.5)
                         for seed in (1, 1.0, True)}
        assert len(draws) == 3

    def test_memo_is_bounded(self):
        size = _fingerprint_noise.cache_info().maxsize
        assert size is not None
        for k in range(size + 10):
            _fingerprint_noise(f"bounded|{k}", 0, 0.5)
        assert _fingerprint_noise.cache_info().currsize == size


class TestCostModel:
    def test_mean_trial_matches_table1_anchor(self, space, rng):
        """A converged-NAS-sized architecture costs ~the paper's mean."""
        cost = SearchCostModel(MNIST_CONFIG)
        largest = space.decode([2, 2] * 4)
        per_trial = MNIST_NAS_TOTAL_SECONDS / 60
        # The reference anchor is 70% of the largest architecture.
        seconds = cost.train_seconds(largest)
        assert 0.5 * per_trial < seconds < 2.5 * per_trial

    def test_monotone_in_macs(self, space, rng):
        cost = SearchCostModel(MNIST_CONFIG)
        small = space.decode([0] * space.num_decisions)
        large = space.decode([2, 2] * 4)
        assert cost.train_seconds(large) > cost.train_seconds(small)

    def test_overhead_floor(self, space):
        cost = SearchCostModel(MNIST_CONFIG)
        smallest = space.decode([0] * space.num_decisions)
        assert cost.train_seconds(smallest) > TRIAL_OVERHEAD_SECONDS

    def test_latency_eval_is_cheap(self):
        cost = SearchCostModel(MNIST_CONFIG)
        assert cost.latency_eval_seconds() == LATENCY_EVAL_SECONDS
        assert cost.latency_eval_seconds() < TRIAL_OVERHEAD_SECONDS

    def test_scales_with_dataset(self):
        """CIFAR trials cost less than MNIST's (fewer pixels x examples)."""
        mnist_cost = SearchCostModel(MNIST_CONFIG)
        cifar_cost = SearchCostModel(CIFAR_CONFIG)
        mnist_space = SearchSpace.from_config(MNIST_CONFIG)
        arch = mnist_space.decode([0] * mnist_space.num_decisions)
        # Same architecture, different dataset parameters.
        assert cifar_cost.train_seconds(arch) != mnist_cost.train_seconds(arch)

    def test_custom_kappa(self):
        cost = SearchCostModel(MNIST_CONFIG, kappa=1e-15)
        with pytest.raises(ValueError):
            SearchCostModel(MNIST_CONFIG, kappa=-1.0)
