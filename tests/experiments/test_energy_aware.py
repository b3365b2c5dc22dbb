"""Tests for the energy-aware search extension."""

import json

import numpy as np
import pytest

from repro.core.controller import LstmController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, SearchCancelled
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.experiments.energy_aware import EnergyAwareFnasSearch
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

from tests.core.test_checkpoint_resume import (
    ledger_bytes,
    run_killed_then_resumed,
)


@pytest.fixture(scope="module")
def setup():
    space = SearchSpace.from_config(MNIST_CONFIG)
    evaluator = SurrogateAccuracyEvaluator(space)
    estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
    return space, evaluator, estimator


class TestEnergyAwareSearch:
    def test_violators_not_trained(self, setup):
        space, evaluator, estimator = setup
        search = EnergyAwareFnasSearch(
            space, evaluator, estimator,
            required_latency_ms=10.0, required_energy_mj=100.0)
        result = search.run(25, np.random.default_rng(0))
        facts = search.energy_facts(result)
        assert len(facts) == 25
        for trial, fact in zip(result.trials, facts):
            if fact.latency_violated or fact.energy_violated:
                assert not trial.trained
            else:
                assert trial.trained

    def test_energy_budget_actually_prunes(self, setup):
        """A tight energy budget must prune children a loose one allows."""
        space, evaluator, estimator = setup

        def run(energy_mj):
            search = EnergyAwareFnasSearch(
                space, evaluator, estimator,
                required_latency_ms=100.0, required_energy_mj=energy_mj)
            result = search.run(25, np.random.default_rng(1))
            return result, search.energy_facts(result)

        loose_result, loose_facts = run(1e9)
        tight_result, tight_facts = run(30.0)
        tight_energy_prunes = sum(1 for f in tight_facts if f.energy_violated)
        loose_energy_prunes = sum(1 for f in loose_facts if f.energy_violated)
        assert loose_energy_prunes == 0
        assert tight_energy_prunes > 0
        assert tight_result.trained_count < loose_result.trained_count

    def test_valid_children_meet_both_budgets(self, setup):
        space, evaluator, estimator = setup
        search = EnergyAwareFnasSearch(
            space, evaluator, estimator,
            required_latency_ms=10.0, required_energy_mj=120.0)
        result = search.run(30, np.random.default_rng(2))
        facts = search.energy_facts(result)
        for trial, fact in zip(result.trials, facts):
            if trial.trained:
                assert trial.latency_ms <= 10.0
                assert fact.energy_mj <= 120.0

    def test_validation(self, setup):
        space, evaluator, estimator = setup
        with pytest.raises(ValueError):
            EnergyAwareFnasSearch(space, evaluator, estimator,
                                  required_latency_ms=0,
                                  required_energy_mj=1)
        search = EnergyAwareFnasSearch(space, evaluator, estimator, 1, 1)
        with pytest.raises(ValueError):
            search.run(0, np.random.default_rng(0))


def make_energy(space, evaluator, energy_mj=60.0):
    """A fresh search object, as a restarted process would build it."""
    return EnergyAwareFnasSearch(
        space, evaluator, LatencyEstimator(Platform.single(PYNQ_Z1)),
        required_latency_ms=10.0, required_energy_mj=energy_mj,
        controller=LstmController(space, seed=3),
    )


class TestInheritedSearchMachinery:
    """Batching, checkpoint/resume and cancellation come from FnasSearch."""

    @pytest.mark.parametrize("batch_size,kill_at,every", [
        (1, 9, 4),
        (4, 8, 4),
    ])
    def test_resume_is_byte_identical_to_uninterrupted(
        self, setup, tmp_path, monkeypatch, batch_size, kill_at, every
    ):
        space, evaluator, _ = setup
        uninterrupted = make_energy(space, evaluator).run(
            21, np.random.default_rng(5), batch_size=batch_size
        )
        resumed = run_killed_then_resumed(
            lambda: make_energy(space, evaluator), 21, rng_seed=5,
            batch_size=batch_size, kill_at=kill_at, every=every,
            path=tmp_path / "ck.json", monkeypatch=monkeypatch,
        )
        assert resumed.name == "fnas-e-10ms-60mJ"
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)

    def test_resume_rejects_a_plain_fnas_snapshot(self, setup, tmp_path):
        space, evaluator, _ = setup
        path = tmp_path / "ck.json"
        FnasSearch(
            space, evaluator, LatencyEstimator(Platform.single(PYNQ_Z1)),
            required_latency_ms=10.0,
            controller=LstmController(space, seed=3),
        ).run(4, np.random.default_rng(0), checkpoint_every=2,
              checkpoint_path=path)
        with pytest.raises(ValueError, match="cannot resume"):
            make_energy(space, evaluator).resume(path)

    def test_resume_rejects_a_different_energy_budget(self, setup, tmp_path):
        space, evaluator, _ = setup
        path = tmp_path / "ck.json"
        make_energy(space, evaluator, energy_mj=60.0).run(
            4, np.random.default_rng(0), checkpoint_every=2,
            checkpoint_path=path,
        )
        with pytest.raises(ValueError, match="energy budget"):
            make_energy(space, evaluator, energy_mj=80.0).resume(path)

    def test_batched_violators_are_not_trained(self, setup):
        space, evaluator, _ = setup
        search = make_energy(space, evaluator)
        result = search.run(40, np.random.default_rng(0), batch_size=4)
        facts = search.energy_facts(result)
        assert result.trained_count > 0
        assert any(f.energy_violated and not f.latency_violated
                   for f in facts)
        for trial, fact in zip(result.trials, facts):
            violated = fact.latency_violated or fact.energy_violated
            assert trial.trained is not violated
            if trial.trained:
                assert trial.latency_ms <= 10.0
                assert fact.energy_mj <= 60.0

    def test_should_stop_cancels_after_a_snapshot(self, setup, tmp_path):
        space, evaluator, _ = setup
        path = tmp_path / "ck.json"
        polls = []

        def should_stop():
            polls.append(None)
            return len(polls) > 6  # the first poll precedes trial 0

        with pytest.raises(SearchCancelled) as cancelled:
            make_energy(space, evaluator).run(
                20, np.random.default_rng(5), checkpoint_every=100,
                checkpoint_path=path, should_stop=should_stop,
            )
        assert cancelled.value.completed == 6
        snapshot = json.loads(path.read_text())
        assert snapshot["kind"] == "fnas-e"
        assert snapshot["required_energy_mj"] == 60.0
        assert snapshot["next_index"] == 6
        assert len(snapshot["result"]["trials"]) == 6
        resumed = make_energy(space, evaluator).resume(path)
        uninterrupted = make_energy(space, evaluator).run(
            20, np.random.default_rng(5)
        )
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)
