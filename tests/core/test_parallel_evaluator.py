"""ParallelEvaluator: process-pool fan-out must be a pure speed knob."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.core.evaluator import ParallelEvaluator, SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch
from repro.core.search_space import SearchSpace
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator


class ExplodingEvaluator:
    """Raises for every architecture; must raise through the pool too."""

    def evaluate(self, architecture):
        raise ValueError(f"boom: {architecture.describe()}")

    def latency_eval_seconds(self):
        return 0.0


class DieOnceEvaluator:
    """SIGKILLs its worker on ``victim`` until ``sentinel`` exists."""

    def __init__(self, inner, victim, sentinel):
        self.inner, self.victim, self.sentinel = inner, victim, sentinel

    def evaluate(self, architecture):
        if architecture == self.victim and not self.sentinel.exists():
            self.sentinel.write_text("died once")
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.evaluate(architecture)

    def latency_eval_seconds(self):
        return 0.0


class SlowAndFastFailures:
    """Fails ``slow`` after a delay and ``fast`` at once."""

    def __init__(self, inner, slow, fast):
        self.inner, self.slow, self.fast = inner, slow, fast

    def evaluate(self, architecture):
        if architecture == self.slow:
            time.sleep(0.5)
            raise ValueError("slow failure")
        if architecture == self.fast:
            raise ValueError("fast failure")
        return self.inner.evaluate(architecture)

    def latency_eval_seconds(self):
        return 0.0


@pytest.fixture(scope="module")
def space():
    return SearchSpace.from_config(MNIST_CONFIG)


@pytest.fixture(scope="module")
def architectures(space):
    rng = np.random.default_rng(1)
    return [space.random_architecture(rng) for _ in range(6)]


class TestParallelEvaluator:
    def test_batch_matches_serial(self, space, architectures):
        inner = SurrogateAccuracyEvaluator(space)
        serial = [inner.evaluate(a) for a in architectures]
        with ParallelEvaluator(inner, max_workers=2) as parallel:
            fanned = parallel.evaluate_batch(architectures)
        assert [o.accuracy for o in fanned] == [o.accuracy for o in serial]
        assert [o.train_seconds for o in fanned] == [
            o.train_seconds for o in serial
        ]

    def test_single_worker_stays_serial(self, space, architectures):
        evaluator = ParallelEvaluator(
            SurrogateAccuracyEvaluator(space), max_workers=1
        )
        outcomes = evaluator.evaluate_batch(architectures)
        assert len(outcomes) == len(architectures)
        assert evaluator._pool is None  # never spawned a pool

    def test_single_evaluate_delegates(self, space, architectures):
        inner = SurrogateAccuracyEvaluator(space)
        evaluator = ParallelEvaluator(inner, max_workers=2)
        assert (evaluator.evaluate(architectures[0]).accuracy
                == inner.evaluate(architectures[0]).accuracy)
        assert (evaluator.latency_eval_seconds()
                == inner.latency_eval_seconds())
        evaluator.close()

    def test_rejects_bad_worker_count(self, space):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelEvaluator(SurrogateAccuracyEvaluator(space), max_workers=0)

    def test_evaluator_exceptions_propagate(self, architectures):
        """Errors raised by the wrapped evaluator are not swallowed and
        leave the pool idle and healthy."""
        with ParallelEvaluator(ExplodingEvaluator(), max_workers=2) as ev:
            with pytest.raises(ValueError, match="boom"):
                ev.evaluate_batch(architectures)
            assert ev._pool.available() == 2
            assert ev._pool.stats()["worker.death"] == 0

    def test_first_failed_index_wins(self, space, architectures):
        """Index 1 fails slowly, index 3 at once: index 1's error is
        the one raised, as on the serial path."""
        assert len(set(architectures)) == len(architectures)
        inner = SurrogateAccuracyEvaluator(space)
        failing = SlowAndFastFailures(inner, slow=architectures[1],
                                      fast=architectures[3])
        with ParallelEvaluator(failing, max_workers=2) as ev:
            with pytest.raises(ValueError, match="slow failure"):
                ev.evaluate_batch(architectures)
            assert ev._pool.available() == ev.max_workers

    def test_dead_worker_child_is_scored_in_process(
        self, space, architectures, tmp_path
    ):
        """A SIGKILLed worker costs one in-process evaluation and a
        warning; the batch equals serial and the next batch fans out."""
        inner = SurrogateAccuracyEvaluator(space)
        serial = [inner.evaluate(a) for a in architectures]
        sentinel = tmp_path / "died"
        dying = DieOnceEvaluator(inner, architectures[2], sentinel)
        with ParallelEvaluator(dying, max_workers=2) as ev:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fanned = ev.evaluate_batch(architectures)
            assert sentinel.exists()
            assert fanned == serial
            died = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
            assert len(died) == 1
            assert "child 2" in str(died[0].message)
            assert "exit code -9" in str(died[0].message)

            dispatched = ev._pool.stats()["pool.dispatch"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert ev.evaluate_batch(architectures) == serial
            stats = ev._pool.stats()
            assert stats["pool.dispatch"] == dispatched + len(architectures)
            assert stats["worker.death"] == 1
            assert ev._pool.available() == 2

    def test_interrupted_batch_leaves_a_usable_evaluator(
        self, space, architectures, monkeypatch
    ):
        """An interrupt mid-batch closes the pool (its workers hold
        unsettled tasks); the next batch starts a fresh one."""
        from repro.service.pool import WorkerPool

        inner = SurrogateAccuracyEvaluator(space)
        real_wait = WorkerPool._wait

        def interrupted_wait(pool, tasks, timeout):
            monkeypatch.setattr(WorkerPool, "_wait", real_wait)
            raise KeyboardInterrupt

        monkeypatch.setattr(WorkerPool, "_wait", interrupted_wait)
        with ParallelEvaluator(inner, max_workers=2) as ev:
            with pytest.raises(KeyboardInterrupt):
                ev.evaluate_batch(architectures)
            assert ev._pool is None
            assert ev.evaluate_batch(architectures) == [
                inner.evaluate(a) for a in architectures
            ]

    def test_close_then_reuse(self, space, architectures):
        inner = SurrogateAccuracyEvaluator(space)
        serial = [inner.evaluate(a) for a in architectures]
        evaluator = ParallelEvaluator(inner, max_workers=2)
        assert evaluator.evaluate_batch(architectures) == serial
        evaluator.close()
        assert evaluator._pool is None
        assert evaluator.evaluate_batch(architectures) == serial
        evaluator.close()

    def test_close_is_idempotent(self, space):
        evaluator = ParallelEvaluator(
            SurrogateAccuracyEvaluator(space), max_workers=2
        )
        evaluator.close()
        evaluator.close()

    def test_paired_runner_wraps_and_closes_pool(self, space):
        """A paired plan with ``eval_workers=2`` must produce the same
        ledgers as the serial run (evaluators are deterministic)."""
        from repro.experiments.runner import run_paired_plan
        from repro.plans import (
            ExecutionPolicy,
            RunPlan,
            ScenarioPlan,
            SearchPlan,
        )

        def run(workers):
            return run_paired_plan(RunPlan(
                workload="paired",
                search=SearchPlan(seed=0, trials=8),
                execution=ExecutionPolicy(batch_size=4, eval_workers=workers),
                scenario=ScenarioPlan(datasets=("mnist",),
                                      devices=("pynq-z1",),
                                      specs_ms=(5.0,), include_nas=True),
            ))

        serial, pooled = run(1), run(2)
        assert ([t.tokens for t in serial.nas.trials]
                == [t.tokens for t in pooled.nas.trials])
        assert ([t.reward for t in serial.fnas[5.0].trials]
                == [t.reward for t in pooled.fnas[5.0].trials])

    def test_batched_fnas_search_with_pool(self, space):
        """End to end: the batched loop fans survivors across the pool."""
        with ParallelEvaluator(
            SurrogateAccuracyEvaluator(space), max_workers=2
        ) as evaluator:
            search = FnasSearch(
                space,
                evaluator,
                LatencyEstimator(Platform.single(PYNQ_Z1)),
                required_latency_ms=5.0,
            )
            result = search.run(16, np.random.default_rng(0), batch_size=8)
        assert len(result.trials) == 16
        assert result.trained_count > 0
