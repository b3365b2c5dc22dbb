"""Batched search runtime: equivalence, determinism and ledger semantics.

The contract under test: ``batch_size=1`` reproduces the pre-refactor
sequential trajectories *exactly* (tokens, rewards, pruned/trained
flags -- pinned by a golden ledger captured from the seed code), while
``batch_size > 1`` drives the vectorized path with the same ledger
invariants and seeded determinism.
"""

import numpy as np
import pytest

from repro.core.controller import (
    ControllerSample,
    LstmController,
    RandomController,
    TabularController,
)
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, NasSearch, SearchResult, TrialRecord
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

#: FNAS ledger captured from the pre-refactor seed code:
#: MNIST space, PYNQ-Z1, spec 5 ms, LstmController(seed=3), rng seed 42,
#: 12 trials.  (tokens, reward, trained, accuracy) per trial.
GOLDEN_FNAS = [
    ((2, 1, 2, 2, 0, 2, 2, 2), -5.531904, False, None),
    ((0, 1, 1, 2, 1, 2, 1, 0), 1.915310524263901, True, 0.9914125242639009),
    ((1, 0, 2, 1, 2, 1, 2, 2), -1.8477900000000003, False, None),
    ((2, 0, 1, 0, 0, 1, 2, 2), -1.53664, False, None),
    ((0, 1, 1, 0, 0, 1, 0, 1), 0.19315088665734811, True, 0.988217410921249),
    ((1, 2, 2, 0, 2, 2, 1, 0), -1.382976, False, None),
    ((1, 0, 0, 0, 2, 1, 1, 2), 0.691656443248018, True, 0.9912614561776538),
    ((1, 1, 0, 0, 1, 1, 1, 2), 0.3832179988066632, True, 0.9891298560611007),
    ((1, 1, 1, 0, 0, 1, 0, 1), 0.19336756075377373, True, 0.9879854178888776),
    ((2, 0, 0, 0, 0, 1, 1, 2), 0.3520426985586731, True, 0.9890199117691543),
    ((1, 1, 2, 0, 0, 0, 1, 1), 0.3854092774542002, True, 0.9903765605205488),
    ((0, 1, 0, 1, 1, 1, 0, 1), 0.23382396727319626, True, 0.9884309780849648),
]


@pytest.fixture(scope="module")
def setup():
    space = SearchSpace.from_config(MNIST_CONFIG)
    evaluator = SurrogateAccuracyEvaluator(space)
    return space, evaluator


def make_fnas(space, evaluator, controller=None, spec_ms=5.0):
    return FnasSearch(
        space,
        evaluator,
        LatencyEstimator(Platform.single(PYNQ_Z1)),
        required_latency_ms=spec_ms,
        controller=controller,
    )


class TestSeedEquivalence:
    def test_batch_size_one_matches_golden_seed_ledger(self, setup):
        space, evaluator = setup
        search = make_fnas(space, evaluator, LstmController(space, seed=3))
        result = search.run(
            len(GOLDEN_FNAS), np.random.default_rng(42), batch_size=1
        )
        observed = [
            (t.tokens, t.reward, t.trained, t.accuracy) for t in result.trials
        ]
        for got, want in zip(observed, GOLDEN_FNAS):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-12)
            assert got[2] == want[2]
            if want[3] is None:
                assert got[3] is None
            else:
                assert got[3] == pytest.approx(want[3], rel=1e-12)

    def test_default_run_is_batch_size_one(self, setup):
        space, evaluator = setup
        a = make_fnas(space, evaluator, LstmController(space, seed=3))
        b = make_fnas(space, evaluator, LstmController(space, seed=3))
        ra = a.run(10, np.random.default_rng(7))
        rb = b.run(10, np.random.default_rng(7), batch_size=1)
        assert [t.tokens for t in ra.trials] == [t.tokens for t in rb.trials]
        assert [t.reward for t in ra.trials] == [t.reward for t in rb.trials]


class TestControllerBatchEquivalence:
    @pytest.mark.parametrize("make", [
        lambda space: LstmController(space, seed=3),
        lambda space: TabularController(space),
        lambda space: RandomController(space),
    ])
    def test_sample_batch_of_one_matches_sample(self, setup, make):
        space, _ = setup
        for seed in range(10):
            sequential = make(space).sample(np.random.default_rng(seed))
            batched = make(space).sample_batch(np.random.default_rng(seed), 1)
            assert batched.samples[0].tokens == sequential.tokens
            assert batched.samples[0].log_prob == sequential.log_prob

    def test_lstm_update_batch_of_one_matches_update(self, setup):
        space, _ = setup
        a = LstmController(space, seed=3, entropy_weight=0.01)
        b = LstmController(space, seed=3, entropy_weight=0.01)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for step in range(4):
            advantage = 0.7 - step
            loss_a = a.update(a.sample(rng_a), advantage)
            loss_b = b.update_batch(b.sample_batch(rng_b, 1), [advantage])
            assert loss_b == loss_a
        for pa, pb in zip(a._param_list(), b._param_list()):
            assert np.array_equal(pa, pb)
        assert np.array_equal(a._adam.m_flat, b._adam.m_flat)
        assert np.array_equal(a._adam.v_flat, b._adam.v_flat)

    def test_tabular_update_batch_of_one_matches_update(self, setup):
        space, _ = setup
        a, b = TabularController(space), TabularController(space)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for step in range(4):
            advantage = -0.3 + step
            loss_a = a.update(a.sample(rng_a), advantage)
            loss_b = b.update_batch(b.sample_batch(rng_b, 1), [advantage])
            assert loss_b == loss_a
        # Not bit-equal: update_batch forms mean(adv) * probs - adv / b,
        # update forms adv * (probs - one_hot), and the two round apart.
        for pa, pb in zip(a.logits, b.logits):
            np.testing.assert_allclose(pa, pb, atol=1e-12)

    def test_update_batch_rejects_wrong_advantage_count(self, setup):
        space, _ = setup
        controller = LstmController(space, seed=0)
        batch = controller.sample_batch(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="advantages"):
            controller.update_batch(batch, [0.0, 0.0])

    def test_sample_batch_rejects_non_positive(self, setup):
        space, _ = setup
        with pytest.raises(ValueError, match="batch_size"):
            LstmController(space).sample_batch(np.random.default_rng(0), 0)


class TestBatchedSearch:
    def test_fnas_batched_ledger_invariants(self, setup):
        space, evaluator = setup
        search = make_fnas(space, evaluator)
        result = search.run(30, np.random.default_rng(0), batch_size=8)
        assert len(result.trials) == 30
        assert [t.index for t in result.trials] == list(range(30))
        for trial in result.trials:
            if trial.latency_ms > 5.0:
                assert trial.pruned and trial.accuracy is None
                assert trial.reward < -1.0
            else:
                assert trial.trained and trial.accuracy is not None
        assert result.trained_count + result.pruned_count == 30

    def test_fnas_batched_is_deterministic(self, setup):
        space, evaluator = setup

        def run():
            search = make_fnas(space, evaluator, LstmController(space, seed=1))
            return search.run(25, np.random.default_rng(9), batch_size=8)

        a, b = run(), run()
        assert [t.tokens for t in a.trials] == [t.tokens for t in b.trials]
        assert [t.reward for t in a.trials] == [t.reward for t in b.trials]

    def test_nas_batched_trains_everything(self, setup):
        space, evaluator = setup
        estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
        result = NasSearch(
            space, evaluator, latency_estimator=estimator
        ).run(20, np.random.default_rng(0), batch_size=6)
        assert result.trained_count == 20
        assert all(t.latency_ms is not None for t in result.trials)

    def test_batched_controller_learns_to_avoid_violations(self, setup):
        space, evaluator = setup
        search = make_fnas(
            space, evaluator, TabularController(space, lr=0.3)
        )
        result = search.run(64, np.random.default_rng(5), batch_size=8)
        first, last = result.trials[:24], result.trials[-24:]
        assert (sum(t.pruned for t in last)
                <= sum(t.pruned for t in first))

    def test_rejects_non_positive_batch_size(self, setup):
        space, evaluator = setup
        with pytest.raises(ValueError, match="batch_size"):
            make_fnas(space, evaluator).run(
                10, np.random.default_rng(0), batch_size=0
            )

    def test_min_latency_fallback_still_fires(self, setup):
        space, evaluator = setup
        search = FnasSearch(
            space,
            evaluator,
            LatencyEstimator(Platform.single(PYNQ_Z1)),
            required_latency_ms=1.2,
            min_latency_fallback=True,
        )
        result = search.run(8, np.random.default_rng(3), batch_size=4)
        assert result.best_valid(1.2) is not None

    def test_batch_fallback_for_sequential_only_controller(self, setup):
        """A controller implementing only sample/update still batches."""
        space, evaluator = setup

        class MinimalController:
            def __init__(self, space):
                self.inner = RandomController(space)
                self.updates = 0

            def sample(self, rng) -> ControllerSample:
                return self.inner.sample(rng)

            def update(self, sample, advantage) -> float:
                self.updates += 1
                return 0.0

        controller = MinimalController(space)
        result = make_fnas(space, evaluator, controller).run(
            12, np.random.default_rng(0), batch_size=4
        )
        assert len(result.trials) == 12
        assert controller.updates == 12


class TestSearchResultAggregates:
    def _record(self, index, trained, sim_seconds):
        space = SearchSpace.from_config(MNIST_CONFIG)
        arch = space.decode([0] * space.num_decisions)
        return TrialRecord(
            index=index, tokens=(0,), architecture=arch, latency_ms=None,
            accuracy=0.9 if trained else None, reward=0.0, trained=trained,
            sim_seconds=sim_seconds,
        )

    def test_aggregates_fold_incrementally(self):
        result = SearchResult(name="t")
        result.trials.append(self._record(0, True, 2.0))
        assert result.simulated_seconds == pytest.approx(2.0)
        assert result.trained_count == 1
        # Appending after a read must be picked up by the next read.
        result.trials.append(self._record(1, False, 3.5))
        assert result.simulated_seconds == pytest.approx(5.5)
        assert result.trained_count == 1
        assert result.pruned_count == 1

    def test_aggregates_survive_truncation(self):
        result = SearchResult(name="t")
        for i in range(4):
            result.trials.append(self._record(i, True, 1.0))
        assert result.simulated_seconds == pytest.approx(4.0)
        del result.trials[2:]
        assert result.simulated_seconds == pytest.approx(2.0)
        assert result.trained_count == 2

    def test_aggregates_survive_truncate_then_extend_without_read(self):
        """Rebuilding the ledger back to (or past) its old length between
        aggregate reads must not leave the fold stale."""
        result = SearchResult(name="t")
        for i in range(10):
            result.trials.append(self._record(i, True, 1.0))
        assert result.simulated_seconds == pytest.approx(10.0)
        del result.trials[2:]
        result.trials.extend(self._record(i, False, 5.0) for i in range(8))
        assert result.simulated_seconds == pytest.approx(2.0 + 8 * 5.0)
        assert result.trained_count == 2
        assert result.pruned_count == 8
