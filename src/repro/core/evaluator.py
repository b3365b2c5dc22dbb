"""Accuracy evaluators: how a child network's accuracy ``A`` is obtained.

Two interchangeable implementations behind one protocol:

* :class:`TrainedAccuracyEvaluator` -- actually trains the child with
  the NumPy substrate on a (synthetic) dataset; the honest path, used
  in examples and integration tests.
* :class:`SurrogateAccuracyEvaluator` -- the calibrated landscape of
  ``repro.surrogate``; the paper-scale path used by the benchmark
  harness, with simulated search-time costs anchored on Table 1.

Batches are scored through :func:`evaluate_many`, which uses an
evaluator's ``evaluate_batch`` when it has one and falls back to a
serial loop otherwise; :class:`ParallelEvaluator` wraps any evaluator
with an ``evaluate_batch`` that maps one task per child over a
:class:`~repro.service.pool.WorkerPool` (the one process runtime),
turning the independent child trainings of one search batch into
parallel work.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.core.architecture import Architecture
from repro.core.search_space import SearchSpace
from repro.configs import ExperimentConfig, get_config
from repro.surrogate.accuracy_model import (
    SurrogateAccuracyModel,
    SurrogateCalibration,
)
from repro.surrogate.cost_model import SearchCostModel

if TYPE_CHECKING:
    from repro.datasets.base import Dataset
    from repro.nn.trainer import Trainer


@dataclass(frozen=True)
class EvaluationOutcome:
    """Accuracy of one trained child plus what the training cost."""

    accuracy: float
    train_seconds: float


class AccuracyEvaluator(Protocol):
    """Anything that can score a child network."""

    def evaluate(self, architecture: Architecture) -> EvaluationOutcome:
        """Train (or simulate training) and return the reward accuracy."""
        ...

    def latency_eval_seconds(self) -> float:
        """Cost charged for one FNAS-tool latency estimate."""
        ...


def evaluate_many(
    evaluator: AccuracyEvaluator, architectures: Sequence[Architecture]
) -> list[EvaluationOutcome]:
    """Score a batch, via ``evaluate_batch`` when the evaluator has one.

    The search loops call this so that any evaluator -- including
    third-party ones implementing only the single-candidate protocol --
    works on the batched path.
    """
    batch_fn = getattr(evaluator, "evaluate_batch", None)
    if batch_fn is not None:
        return batch_fn(architectures)
    return [evaluator.evaluate(a) for a in architectures]


class SurrogateAccuracyEvaluator:
    """Surrogate landscape + Table 1-anchored cost model."""

    def __init__(
        self,
        space: SearchSpace,
        config: ExperimentConfig | None = None,
        calibration: SurrogateCalibration | None = None,
        seed: int = 0,
    ):
        self.space = space
        self.config = config if config is not None else get_config(space.name)
        self.model = SurrogateAccuracyModel(
            space, calibration=calibration, seed=seed
        )
        self.cost_model = SearchCostModel(self.config)

    def evaluate(self, architecture: Architecture) -> EvaluationOutcome:
        """Simulated accuracy + simulated training cost."""
        return EvaluationOutcome(
            accuracy=self.model.accuracy(architecture),
            train_seconds=self.cost_model.train_seconds(architecture),
        )

    def latency_eval_seconds(self) -> float:
        """Simulated FNAS-tool cost per estimate."""
        return self.cost_model.latency_eval_seconds()


class TrainedAccuracyEvaluator:
    """Real NumPy training on a dataset; costs are measured wall time."""

    #: Wall cost of one analytical latency estimate (measured, tiny).
    LATENCY_EVAL_SECONDS = 0.05

    def __init__(
        self,
        dataset: Dataset,
        trainer: Trainer | None = None,
        init_seed: int = 0,
    ):
        # The NumPy trainer is imported here, not at module level, so a
        # surrogate search never loads repro.nn or repro.datasets.
        from repro.nn.trainer import Trainer

        self.dataset = dataset
        self.trainer = trainer if trainer is not None else Trainer(
            epochs=5, lr=0.02
        )
        self.init_seed = init_seed

    def evaluate(self, architecture: Architecture) -> EvaluationOutcome:
        """Build, train, and score one child network."""
        if architecture.input_size != self.dataset.input_size:
            raise ValueError(
                f"architecture expects {architecture.input_size}px inputs, "
                f"dataset provides {self.dataset.input_size}px"
            )
        if architecture.input_channels != self.dataset.input_channels:
            raise ValueError(
                f"architecture expects {architecture.input_channels} "
                f"channels, dataset provides {self.dataset.input_channels}"
            )
        from repro.nn.builder import build_network

        started = time.perf_counter()
        network = build_network(
            architecture, rng=np.random.default_rng(self.init_seed)
        )
        result = self.trainer.train(
            network,
            self.dataset.train_x,
            self.dataset.train_y,
            self.dataset.val_x,
            self.dataset.val_y,
        )
        return EvaluationOutcome(
            accuracy=result.best_accuracy,
            train_seconds=time.perf_counter() - started,
        )

    def latency_eval_seconds(self) -> float:
        """Nominal analytical-model cost."""
        return self.LATENCY_EVAL_SECONDS


# -- process-pool fan-out ----------------------------------------------------


def _evaluate(
    index: int, evaluator: AccuracyEvaluator, architecture: Architecture
) -> EvaluationOutcome:
    """Pool call: score one architecture in a worker process.

    ``index`` (the child's position in its batch) rides along so the
    parent files the outcome where it belongs."""
    return evaluator.evaluate(architecture)


class ParallelEvaluator:
    """Fans ``evaluate_batch`` out as one worker-pool task per child.

    Wraps any picklable :class:`AccuracyEvaluator`.  Child evaluations
    within one search batch are independent, so spec-meeting candidates
    can train concurrently; single-candidate ``evaluate`` calls, and
    every batch when ``max_workers <= 1``, stay in-process.  Results
    are identical either way because the wrapped evaluators are
    deterministic per architecture.

    A batch is one :meth:`~repro.service.pool.WorkerPool.map` call on
    a private :class:`~repro.service.pool.WorkerPool`, one unit per
    child in input order, so a slow child never holds back the rest.
    The wrapped evaluator is pickled with every task, which costs
    milliseconds against the seconds a trained child takes.  Failures
    keep the serial path's semantics:

    * once a child raises, no further children are dispatched; the
      in-flight ones settle, and the exception of the *first* failed
      index is raised -- the original exception, or
      :class:`~repro.service.pool.WorkerTaskError` when it could not be
      pickled back -- which is exactly what the serial loop raises;
    * an architecture whose worker died (OOM kill, hard crash) is
      scored in-process instead, with a :class:`RuntimeWarning` naming
      the child and the worker's exit code.  The pool replaces the dead
      worker lazily, so later batches fan out again.

    Either way the pool comes back with every worker idle; an
    interrupt closes it, and the next batch starts a fresh one.  Use
    as a context manager (or call :meth:`close`) to reclaim the
    workers.
    """

    def __init__(self, evaluator: AccuracyEvaluator, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.evaluator = evaluator
        self.max_workers = max_workers
        self._pool = None  # a WorkerPool, made by the first fanned batch

    def evaluate(self, architecture: Architecture) -> EvaluationOutcome:
        """Single candidate: delegate in-process."""
        return self.evaluator.evaluate(architecture)

    def evaluate_batch(
        self, architectures: Sequence[Architecture]
    ) -> list[EvaluationOutcome]:
        """Score a batch across the pool, preserving input order."""
        if self.max_workers <= 1 or len(architectures) <= 1:
            return [self.evaluator.evaluate(a) for a in architectures]
        # Deferred import, as in Campaign._run_pooled: core keeps no
        # import-time dependency on the service layer.
        from repro.service.pool import WorkerPool

        if self._pool is None:
            self._pool = WorkerPool(self.max_workers, name="repro-eval")
        outcomes: dict[int, EvaluationOutcome] = {}
        lost: dict[int, int | None] = {}  # index -> its dead worker's exit

        def on_death(calls: list, exitcode: int | None) -> list:
            lost.update((call[0], exitcode) for call in calls)
            return []  # scored in-process below

        try:
            self._pool.map(
                _evaluate,
                [[(index, self.evaluator, architecture)]
                 for index, architecture in enumerate(architectures)],
                on_item=lambda call, outcome: outcomes.__setitem__(
                    call[0], outcome),
                on_death=on_death,
            )
        finally:
            if self._pool.closed:  # an interrupt terminated its workers
                self._pool = None
        for index, exitcode in sorted(lost.items()):
            warnings.warn(
                f"ParallelEvaluator: the worker scoring child {index} of "
                f"the batch died (exit code {exitcode}); "
                "evaluating that child in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            outcomes[index] = self.evaluator.evaluate(architectures[index])
        return [outcomes[index] for index in range(len(architectures))]

    def latency_eval_seconds(self) -> float:
        """Delegate the FNAS-tool cost constant."""
        return self.evaluator.latency_eval_seconds()

    def close(self) -> None:
        """Shut down the worker processes (idempotent; reusable after)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --- Registry entries -----------------------------------------------------
#
# Factory contract: factory(space, config, seed) -> AccuracyEvaluator.
# Plans name evaluators by these keys (repro.plans.SearchPlan.evaluator).

from repro.registry import DATASETS, EVALUATORS


@EVALUATORS.register("surrogate")
def _surrogate_factory(
    space: SearchSpace, config: ExperimentConfig, seed: int
) -> SurrogateAccuracyEvaluator:
    """The calibrated landscape -- the paper-scale default."""
    return SurrogateAccuracyEvaluator(space, config=config, seed=seed)


@EVALUATORS.register("trained")
def _trained_factory(
    space: SearchSpace, config: ExperimentConfig, seed: int
) -> TrainedAccuracyEvaluator:
    """Real NumPy training on the config's synthetic dataset.

    Built at laptop-friendly dataset sizes (the registry contract has
    no size knobs); construct :class:`TrainedAccuracyEvaluator` directly
    for Table 2-scale data.
    """
    del space  # the dataset, not the space, parameterises training
    return TrainedAccuracyEvaluator(
        DATASETS[config.dataset](seed=seed), init_seed=seed
    )
