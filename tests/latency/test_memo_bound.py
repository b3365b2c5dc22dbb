"""The layer memo's bound.

A pool worker keeps its latency estimator across jobs, so the estimator's
:class:`~repro.fpga.tiling.LayerDesignMemo` must not grow with the
worker's lifetime: before a call could take its tables past
``LAYER_MEMO_MAX_ENTRIES`` it clears them.  Every memoised value is a
pure function of its key, so a cleared memo only computes again, and
latencies stay equal to a memo-free estimator's.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.configs import get_config
from repro.core.search_space import SearchSpace
from repro.fpga import tiling
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

#: A bound a handful of architectures pass: a design adds at most five
#: entries per layer, and the deepest space here has 26 layers.
BOUND = 200


def _architectures(dataset: str, seeds: list[int]):
    space = SearchSpace.from_config(get_config(dataset))
    return [space.random_architecture(np.random.default_rng(seed))
            for seed in seeds]


class TestMemoBound:
    def test_default_bound_is_far_above_one_search(self):
        # A 1,200-trial MobileNet search fills about 15k entries.
        assert tiling.LAYER_MEMO_MAX_ENTRIES >= 4 * 15_000

    @settings(deadline=None, max_examples=30)
    @given(
        dataset=st.sampled_from(["mnist", "mobilenet"]),
        device=st.sampled_from(["pynq-z1", "xc7z020-ddr-narrow"]),
        explore=st.booleans(),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=10),
    )
    def test_never_exceeds_and_prices_as_without_memo(
            self, dataset, device, explore, seeds):
        platform = Platform.single(get_device(device))
        with mock.patch.object(tiling, "LAYER_MEMO_MAX_ENTRIES", BOUND):
            bounded = LatencyEstimator(platform, explore_designs=explore)
            reference = LatencyEstimator(platform, explore_designs=explore,
                                         use_layer_memo=False)
            for architecture in _architectures(dataset, seeds):
                assert (bounded.estimate(architecture).ms
                        == reference.estimate(architecture).ms)
                assert bounded.layer_memo.entries <= BOUND

    def test_a_full_memo_clears_and_keeps_counting(self):
        platform = Platform.single(get_device("xc7z020-ddr-narrow"))
        estimator = LatencyEstimator(platform)
        memo = estimator.layer_memo
        sizes, probes = [], []
        with mock.patch.object(tiling, "LAYER_MEMO_MAX_ENTRIES", BOUND):
            for architecture in _architectures("mobilenet", range(8)):
                estimator.estimate(architecture)
                sizes.append(memo.entries)
                probes.append(memo.stats.lookups)
        assert max(sizes) <= BOUND
        # Some estimate found the memo too full and started it over ...
        assert any(later < earlier
                   for earlier, later in zip(sizes, sizes[1:]))
        # ... while the counters kept every probe.
        assert probes == sorted(probes) and probes[0] > 0
