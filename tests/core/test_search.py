"""Tests for the NAS / FNAS search loop."""

import numpy as np
import pytest

from repro.core.controller import TabularController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, NasSearch, Search
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator


@pytest.fixture(scope="module")
def setup():
    space = SearchSpace.from_config(MNIST_CONFIG)
    estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
    evaluator = SurrogateAccuracyEvaluator(space)
    return space, estimator, evaluator


class TestNasSearch:
    def test_all_children_trained(self, setup):
        space, estimator, evaluator = setup
        result = NasSearch(space, evaluator).run(10, np.random.default_rng(0))
        assert len(result.trials) == 10
        assert result.trained_count == 10
        assert result.pruned_count == 0

    def test_latency_attached_when_estimator_given(self, setup):
        space, estimator, evaluator = setup
        result = NasSearch(
            space, evaluator, latency_estimator=estimator
        ).run(5, np.random.default_rng(0))
        assert all(t.latency_ms is not None for t in result.trials)

    def test_best_is_max_accuracy(self, setup):
        space, estimator, evaluator = setup
        result = NasSearch(space, evaluator).run(15, np.random.default_rng(1))
        best = result.best()
        assert best.accuracy == max(t.accuracy for t in result.trials)

    def test_simulated_seconds_sums_trials(self, setup):
        space, estimator, evaluator = setup
        result = NasSearch(space, evaluator).run(8, np.random.default_rng(2))
        assert result.simulated_seconds == pytest.approx(
            sum(t.sim_seconds for t in result.trials)
        )

    def test_rejects_non_positive_trials(self, setup):
        space, estimator, evaluator = setup
        with pytest.raises(ValueError):
            NasSearch(space, evaluator).run(0, np.random.default_rng(0))

    def test_reproducible_with_seed(self, setup):
        space, estimator, evaluator = setup

        def run(seed):
            return NasSearch(
                space, evaluator,
                controller=TabularController(space),
            ).run(10, np.random.default_rng(seed))

        a, b = run(5), run(5)
        assert [t.tokens for t in a.trials] == [t.tokens for t in b.trials]


class TestFnasSearch:
    def test_violators_are_not_trained(self, setup):
        space, estimator, evaluator = setup
        search = FnasSearch(space, evaluator, estimator,
                            required_latency_ms=5.0)
        result = search.run(30, np.random.default_rng(0))
        for trial in result.trials:
            if trial.latency_ms > 5.0:
                assert not trial.trained
                assert trial.accuracy is None
                assert trial.reward < -1.0
            else:
                assert trial.trained
                assert trial.accuracy is not None

    def test_pruned_plus_trained_is_total(self, setup):
        space, estimator, evaluator = setup
        result = FnasSearch(space, evaluator, estimator, 5.0).run(
            20, np.random.default_rng(1))
        assert result.trained_count + result.pruned_count == 20

    def test_best_valid_meets_spec(self, setup):
        space, estimator, evaluator = setup
        result = FnasSearch(space, evaluator, estimator, 10.0).run(
            40, np.random.default_rng(2))
        best = result.best_valid(10.0)
        assert best.latency_ms <= 10.0

    def test_impossible_spec_trains_nothing(self, setup):
        space, estimator, evaluator = setup
        result = FnasSearch(space, evaluator, estimator, 0.001).run(
            10, np.random.default_rng(3))
        assert result.trained_count == 0
        with pytest.raises(ValueError, match="no child"):
            result.best_valid(0.001)
        with pytest.raises(ValueError, match="trained no children"):
            result.best()

    def test_pruning_saves_simulated_time(self, setup):
        """FNAS under a tight spec must cost less than NAS, same trials."""
        space, estimator, evaluator = setup
        rng_nas = np.random.default_rng(4)
        rng_fnas = np.random.default_rng(4)
        nas = NasSearch(space, evaluator).run(30, rng_nas)
        fnas = FnasSearch(space, evaluator, estimator, 2.0).run(30, rng_fnas)
        assert fnas.simulated_seconds < nas.simulated_seconds

    def test_controller_learns_to_avoid_violations(self, setup):
        """Later trials should violate less often than early ones."""
        space, estimator, evaluator = setup
        search = FnasSearch(
            space, evaluator, estimator, required_latency_ms=5.0,
            controller=TabularController(space, lr=0.3),
        )
        result = search.run(60, np.random.default_rng(5))
        first = result.trials[:20]
        last = result.trials[-20:]
        violations_first = sum(1 for t in first if t.pruned)
        violations_last = sum(1 for t in last if t.pruned)
        assert violations_last <= violations_first

    def test_required_latency_property(self, setup):
        space, estimator, evaluator = setup
        search = FnasSearch(space, evaluator, estimator, 7.5)
        assert search.required_latency_ms == 7.5


class TestOneLoop:
    """NAS is the FNAS loop without the performance-model gate."""

    def test_only_the_base_class_defines_the_loop(self):
        from repro.experiments.energy_aware import EnergyAwareFnasSearch

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        kinds = set(subclasses(Search))
        assert {NasSearch, FnasSearch, EnergyAwareFnasSearch} <= kinds
        assert "_run" in vars(Search)
        assert [k.__name__ for k in kinds if "_run" in vars(k)] == []

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_nas_without_an_estimator_trains_the_same_children(
            self, setup, batch_size):
        """Pricing only fills the ledger's latencies; nothing else moves."""
        space, estimator, evaluator = setup

        def trials(latency_estimator):
            return NasSearch(
                space, evaluator, latency_estimator=latency_estimator,
            ).run(10, np.random.default_rng(7), batch_size=batch_size).trials

        def facts(ledger):
            return [(t.index, t.tokens, t.accuracy, t.reward, t.trained,
                     t.sim_seconds) for t in ledger]

        priced, unpriced = trials(estimator), trials(None)
        assert facts(unpriced) == facts(priced)
        assert all(t.latency_ms is None for t in unpriced)
        assert all(t.latency_ms is not None for t in priced)
        assert all(t.sim_seconds
                   == evaluator.cost_model.train_seconds(t.architecture)
                   for t in unpriced)  # no FNAS-tool time is charged


class TestDecodeMemo:
    def test_evaluator_pickles_to_the_same_size_after_a_search(self):
        """The search loop's decode memo stays out of the space the
        evaluator holds, so ``ParallelEvaluator`` tasks do not grow
        with the run."""
        import pickle

        from repro.api import build_search
        from repro.plans import (
            ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan,
        )

        search = build_search(RunPlan(
            workload="search",
            search=SearchPlan(seed=3, trials=200),
            scenario=ScenarioPlan(datasets=("mobilenet",),
                                  devices=("xc7z020-ddr-narrow",),
                                  specs_ms=(40.0,)),
            execution=ExecutionPolicy(batch_size=8),
        ))
        assert isinstance(search.evaluator, SurrogateAccuracyEvaluator)
        before = len(pickle.dumps(search.evaluator))
        result = search.run(200, np.random.default_rng(3), batch_size=8)
        assert len(result.trials) == 200
        # Controllers resample children, so the memo had repeats to serve.
        assert len({t.tokens for t in result.trials}) < 200
        assert len(pickle.dumps(search.evaluator)) == before
