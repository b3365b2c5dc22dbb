"""The search loop, for plain NAS (baseline) and FNAS.

:meth:`Search._run` is the one loop; the two search kinds differ only
in its hooks, exactly where the paper says they do (Figure 1 vs Figure 2):

* :class:`NasSearch` -- Zoph-style accuracy-only search: every sampled
  child is trained, reward is the accuracy, the advantage is
  ``A - b`` with ``b`` the EMA baseline.
* :class:`FnasSearch` -- FNAS: every sampled child first goes through
  the FNAS tool (latency estimate).  Spec violators get the negative
  reward of eq. (1) *without being trained*; the rest are trained and
  rewarded with ``(A - b) + L/rL``.

Each trial is logged to a :class:`SearchResult` ledger that records both
the simulated search cost (what Table 1's "Elapsed" column measures)
and the outcome quality.

The loop takes the trials ``batch_size`` at a time.  At
``batch_size=1`` (the default) it calls the controller's
scalar ``sample`` and ``update`` -- sample, evaluate, update, one
candidate at a time -- and reproduces the seed trajectories
token-for-token.  At ``batch_size > 1`` each step samples a whole batch
in one vectorized pass (even a trailing batch of one: a tabular
controller's scalar and batched updates round apart), estimates
latencies through the two-tier cache
(:meth:`LatencyEstimator.estimate_batch`), evaluates survivors together
(parallelisable via :class:`~repro.core.evaluator.ParallelEvaluator`)
and applies one batched REINFORCE update.  Advantages within a batch
are computed against one reference taken at the start of the batch --
every sample was drawn from the same policy, so this is standard batch
REINFORCE -- and the ledger keeps one :class:`TrialRecord` per
candidate in sample order, preserving trial-ledger semantics.

The loop is also **checkpointable**: ``run(...,
checkpoint_every=N, checkpoint_path=p)`` atomically snapshots the
complete search state -- controller parameters and optimizer moments,
the reward baseline, the RNG stream position, the trial ledger so far
and the estimator probes the run made (counted from the run's start,
so an estimator shared with earlier searches does not leak into them)
-- every ``N`` trials.
:meth:`Search.resume` rebuilds that state and continues the run; the
resulting trial ledger is byte-identical to the uninterrupted run's,
because every source of randomness and learning state is captured.
The :mod:`repro.orchestration` campaign runner builds shard recovery
on top of exactly this property.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.architecture import Architecture
from repro.core.controller import (
    Controller,
    ControllerBatch,
    LstmController,
)
from repro.core.evaluator import (
    AccuracyEvaluator,
    EvaluationOutcome,
    evaluate_many,
)
from repro.core.reward import AccuracyBaseline, FnasReward
from repro.core.search_space import SearchSpace
from repro.latency.estimator import LatencyEstimate, LatencyEstimator


@dataclass(frozen=True)
class TrialRecord:
    """One controller sample and everything that happened to it."""

    index: int
    tokens: tuple[int, ...]
    architecture: Architecture
    latency_ms: float | None
    accuracy: float | None
    reward: float
    trained: bool
    sim_seconds: float

    @property
    def pruned(self) -> bool:
        """True when the FNAS tool rejected the child before training."""
        return not self.trained


@dataclass
class SearchResult:
    """Full ledger of one search run.

    The aggregate properties (:attr:`simulated_seconds`,
    :attr:`trained_count`, :attr:`pruned_count`) fold in newly appended
    trials incrementally, so reading them per trial stays O(1) even for
    large ledgers.  Appending to ``trials`` is supported; in-place
    replacement of existing records is not (truncate-and-rebuild
    instead, which resets the fold).
    """

    name: str
    trials: list[TrialRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    _agg_len: int = field(default=0, repr=False, compare=False)
    _sim_seconds_sum: float = field(default=0.0, repr=False, compare=False)
    _trained_sum: int = field(default=0, repr=False, compare=False)
    _last_folded: TrialRecord | None = field(
        default=None, repr=False, compare=False
    )

    def _refresh_aggregates(self) -> None:
        """Fold any trials appended since the last aggregate read."""
        n = len(self.trials)
        stale = n < self._agg_len or (
            # Truncated-then-extended between reads: the record at the
            # fold frontier is no longer the one that was folded last.
            self._agg_len > 0
            and self.trials[self._agg_len - 1] is not self._last_folded
        )
        if stale:
            self._agg_len = 0
            self._sim_seconds_sum = 0.0
            self._trained_sum = 0
        for trial in self.trials[self._agg_len:n]:
            self._sim_seconds_sum += trial.sim_seconds
            self._trained_sum += 1 if trial.trained else 0
        self._agg_len = n
        self._last_folded = self.trials[-1] if self.trials else None

    @property
    def simulated_seconds(self) -> float:
        """Total simulated search time (the Table 1 'Elapsed' analogue)."""
        self._refresh_aggregates()
        return self._sim_seconds_sum

    @property
    def trained_count(self) -> int:
        """Children that were actually trained."""
        self._refresh_aggregates()
        return self._trained_sum

    @property
    def pruned_count(self) -> int:
        """Children rejected by the latency check before training."""
        self._refresh_aggregates()
        return len(self.trials) - self._trained_sum

    def best(self) -> TrialRecord:
        """Highest-accuracy trained trial."""
        trained = [t for t in self.trials if t.accuracy is not None]
        if not trained:
            raise ValueError(f"search {self.name!r} trained no children")
        return max(trained, key=lambda t: t.accuracy)

    def best_valid(self, required_latency_ms: float) -> TrialRecord:
        """Highest-accuracy trial whose latency meets ``required_latency_ms``."""
        valid = [
            t for t in self.trials
            if t.accuracy is not None
            and t.latency_ms is not None
            and t.latency_ms <= required_latency_ms
        ]
        if not valid:
            raise ValueError(
                f"search {self.name!r} found no child meeting "
                f"{required_latency_ms}ms"
            )
        return max(valid, key=lambda t: t.accuracy)


class SearchCancelled(RuntimeError):
    """A cooperative stop request interrupted a search.

    Raised out of :meth:`Search.run` / :meth:`Search.resume` when their
    ``should_stop`` callable returns True between trials.  When the run
    is checkpointed, a final snapshot is forced *before* raising, so
    the completed trials survive and a later :meth:`Search.resume` (or
    a service resubmit) continues exactly where the cancellation
    landed.  ``completed`` counts the trials finished before the stop.
    """

    def __init__(self, completed: int):
        super().__init__(f"search cancelled after {completed} trial(s)")
        self.completed = completed


def _check_run_args(trials: int, batch_size: int) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")


class _CheckpointPlan:
    """When and where a running search writes snapshots.

    One snapshot lands after the first completed trial (batch) at or
    past each multiple of ``every``; writes are atomic, so a crash
    between (or during) snapshots costs at most ``every`` trials of
    progress, never the checkpoint file itself.  The plan's
    :class:`~repro.core.serialization.SnapshotEncoder` keeps the text of
    the trials already written, so each snapshot encodes only the new
    ones.  ``written`` is the trial count of the last snapshot this plan
    wrote (``None`` before its first).
    """

    def __init__(
        self,
        search: "Search",
        trials: int,
        batch_size: int,
        every: int,
        path: str | Path,
        started: float,
        wall_offset: float,
        start_index: int,
        cache_stats: dict | None = None,
    ):
        if every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {every}"
            )
        from repro.core import serialization

        self.search = search
        self.trials = trials
        self.batch_size = batch_size
        self.every = every
        self.path = Path(path)
        self.started = started
        self.wall_offset = wall_offset
        self._next = (start_index // every + 1) * every
        self.written: int | None = None
        # The estimator may be shared with earlier searches (a pool
        # worker keeps one per platform): snapshots count the probes
        # made since this point, plus those a resumed snapshot carried.
        self._cache_base = serialization.cache_stats_to_dict(
            search.latency_estimator)
        self._cache_carried = cache_stats
        self._encoder = serialization.SnapshotEncoder()

    def after(
        self, completed: int, rng: np.random.Generator, result: SearchResult
    ) -> None:
        """Snapshot if ``completed`` trials crossed the next threshold."""
        if completed < self._next:
            return
        self.snapshot_now(completed, rng, result)
        self._next = (completed // self.every + 1) * self.every

    def snapshot_now(
        self, completed: int, rng: np.random.Generator, result: SearchResult
    ) -> None:
        """Write a snapshot at ``completed`` trials unconditionally.

        Cadence-independent -- cancellation uses this to persist the
        exact stopping point before raising :class:`SearchCancelled`.
        """
        from repro.core import serialization

        elapsed = self.wall_offset + (time.perf_counter() - self.started)
        payload = self.search._snapshot_payload(
            trials=self.trials,
            batch_size=self.batch_size,
            checkpoint_every=self.every,
            next_index=completed,
            rng=rng,
            result=result,
            elapsed_wall_seconds=elapsed,
            cache_stats=serialization.cache_stats_since(
                self.search.latency_estimator, self._cache_base,
                self._cache_carried),
        )
        serialization.atomic_write_text(self._encoder.encode(payload),
                                        self.path)
        self.written = completed


class _RunControl:
    """Per-trial hook combining checkpointing and cooperative cancel.

    Stands in for :class:`_CheckpointPlan` inside the search loop
    (same ``after`` protocol).  After every completed trial (batch) it
    first lets the checkpoint plan snapshot at its cadence, then
    consults ``should_stop``; a stop request forces a final snapshot
    (when checkpointing is configured and the cadence has not just
    written one at this count) and raises :class:`SearchCancelled`, so
    no completed work is lost.
    """

    def __init__(self, plan: _CheckpointPlan | None, should_stop):
        self.plan = plan
        self.should_stop = should_stop

    def after(
        self, completed: int, rng: np.random.Generator, result: SearchResult
    ) -> None:
        """Checkpoint at cadence, then honor a pending stop request."""
        if self.plan is not None:
            self.plan.after(completed, rng, result)
        if self.should_stop is not None and self.should_stop():
            if self.plan is not None and self.plan.written != completed:
                self.plan.snapshot_now(completed, rng, result)
            raise SearchCancelled(completed)


class Search:
    """The search loop and its run / checkpoint / resume machinery.

    :meth:`_run` is the one loop, so NAS and FNAS batch, checkpoint and
    resume alike.  Subclasses supply a ledger name, any end-of-run
    finalisation and the loop's four hooks:

    * ``_violation(estimate)`` -- the gate: eq. (1)'s violation reward
      for a child priced out of the spec, or ``None`` to train it;
    * ``_reference(outcomes)`` -- the batch's REINFORCE reference;
    * ``_reward(accuracy, estimate, reference)`` -- a trained child's
      reward as the ledger records it and as the controller is fed it;
    * ``_tool_seconds()`` -- the simulated FNAS-tool cost per child.

    Attributes expected on subclasses: ``space``, ``evaluator``,
    ``controller``, ``baseline`` and ``latency_estimator`` (``None``
    leaves every ledger latency ``None``).
    """

    #: Snapshot discriminator, overridden per subclass.
    _kind = "search"

    def run(
        self,
        trials: int,
        rng: np.random.Generator,
        batch_size: int = 1,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
        should_stop=None,
    ) -> SearchResult:
        """Run the search for ``trials`` children.

        ``batch_size=1`` reproduces the seed trajectory exactly;
        larger batches drive the vectorized controller calls.  With
        ``checkpoint_every`` and ``checkpoint_path`` set, the search
        atomically snapshots its full state every that many trials --
        see :meth:`resume`.  ``should_stop`` (a zero-argument callable)
        is polled after every completed trial; returning True cancels
        the run via :class:`SearchCancelled`, snapshotting first when
        checkpointing is on.
        """
        _check_run_args(trials, batch_size)
        result = SearchResult(name=self._result_name())
        return self._drive(
            result, trials, rng, batch_size,
            start_index=0,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            wall_offset=0.0,
            should_stop=should_stop,
        )

    def resume(
        self, path: str | Path, snapshot: dict | None = None,
        should_stop=None,
    ) -> SearchResult:
        """Continue an interrupted run from a snapshot file.

        The search object must be constructed the same way as the one
        that wrote the snapshot (same space, evaluator, estimator and
        controller configuration); everything trajectory-relevant --
        controller weights and optimizer moments, baseline, RNG stream,
        ledger -- is restored from the file, so the completed run's
        trial ledger is byte-identical to an uninterrupted run's.
        Checkpointing continues at the snapshot's cadence and path.

        ``snapshot`` lets a caller that already read and parsed the
        file (to validate it, say) pass the dict in and skip the second
        read; snapshots can be multi-megabyte at paper scale.
        ``should_stop`` polls for cooperative cancellation exactly as
        in :meth:`run`.
        """
        if snapshot is None:
            snapshot = json.loads(Path(path).read_text())
        from repro.core import serialization

        if snapshot.get("schema") != serialization.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported checkpoint schema {snapshot.get('schema')}"
            )
        if snapshot.get("kind") != self._kind:
            raise ValueError(
                f"checkpoint was written by a {snapshot.get('kind')!r} "
                f"search, cannot resume as {self._kind!r}"
            )
        self._check_snapshot_compatible(snapshot)
        loader = getattr(self.controller, "load_state_dict", None)
        if loader is None:
            raise ValueError(
                f"{type(self.controller).__name__} has no load_state_dict; "
                "cannot resume a checkpointed search with it"
            )
        loader(snapshot["controller"])
        self.baseline.load_state_dict(snapshot["baseline"])
        rng = serialization.rng_from_state(snapshot["rng"])
        result = serialization.search_result_from_dict(snapshot["result"])
        return self._drive(
            result,
            snapshot["trials_total"],
            rng,
            snapshot["batch_size"],
            start_index=snapshot["next_index"],
            checkpoint_every=snapshot.get("checkpoint_every"),
            checkpoint_path=path,
            wall_offset=snapshot.get("elapsed_wall_seconds", 0.0),
            should_stop=should_stop,
            cache_stats=snapshot.get("cache_stats"),
        )

    # -- internals -----------------------------------------------------------

    def _drive(
        self,
        result: SearchResult,
        trials: int,
        rng: np.random.Generator,
        batch_size: int,
        start_index: int,
        checkpoint_every: int | None,
        checkpoint_path: str | Path | None,
        wall_offset: float,
        should_stop=None,
        cache_stats: dict | None = None,
    ) -> SearchResult:
        """Execute the span ``[start_index, trials)`` and finalise.

        ``cache_stats`` are the counters a resumed snapshot carried;
        this run's snapshots add its own probes to them.
        """
        started = time.perf_counter()
        plan: _CheckpointPlan | None = None
        if checkpoint_every is not None or checkpoint_path is not None:
            if checkpoint_every is None or checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every and checkpoint_path must be given "
                    "together"
                )
            if getattr(self.controller, "state_dict", None) is None:
                raise ValueError(
                    f"{type(self.controller).__name__} has no state_dict; "
                    "checkpointing needs a controller that can snapshot "
                    "its learnable state"
                )
            plan = _CheckpointPlan(
                self, trials, batch_size, checkpoint_every, checkpoint_path,
                started, wall_offset, start_index, cache_stats,
            )
        control = plan
        if should_stop is not None:
            if should_stop():
                raise SearchCancelled(start_index)
            control = _RunControl(plan, should_stop)
        self._run(trials, rng, batch_size, result, start_index, control)
        self._finalize(result)
        result.wall_seconds = wall_offset + (time.perf_counter() - started)
        return result

    def _run(
        self, trials: int, rng: np.random.Generator, batch_size: int,
        result: SearchResult, start: int, plan: _CheckpointPlan | None,
    ) -> None:
        """Figure 2's loop, a batch at a time.

        :meth:`_violation` partitions each priced batch: violators are
        rewarded (negatively) untrained, survivors are trained together
        -- so a :class:`~repro.core.evaluator.ParallelEvaluator` can fan
        them across processes -- and rewarded by :meth:`_reward`.
        """
        estimator = self.latency_estimator
        # Each distinct token row is decoded once per run.  The memo is
        # not kept on ``space``: evaluators hold the space, and
        # ``ParallelEvaluator`` pickles one per task.
        decoded: dict[tuple, Architecture] = {}
        index = start
        while index < trials:
            count = min(batch_size, trials - index)
            batch = _sample_candidates(self.controller, rng, count,
                                       batch_size)
            keys = [tuple(sample.tokens) for sample in batch.samples]
            architectures = [decoded.get(key) or decoded.setdefault(
                key, self.space.decode(key)) for key in keys]
            estimates = (estimator.estimate_batch(architectures)
                         if estimator is not None else [None] * count)
            tool_seconds = self._tool_seconds()
            violations = [self._violation(e) for e in estimates]
            survivors = [o for o, v in enumerate(violations) if v is None]
            outcomes = evaluate_many(
                self.evaluator, [architectures[o] for o in survivors])
            outcome_of = dict(zip(survivors, outcomes))
            reference = self._reference(outcomes)
            advantages: list[float] = []
            for offset, estimate in enumerate(estimates):
                outcome = outcome_of.get(offset)
                if outcome is None:
                    reward = advantage = violations[offset]
                else:
                    reward, advantage = self._reward(
                        outcome.accuracy, estimate, reference)
                    self.baseline.update(outcome.accuracy)
                advantages.append(advantage)
                result.trials.append(_trial_record(
                    index + offset, keys[offset], architectures[offset],
                    estimate, outcome, reward, tool_seconds))
            _update_candidates(self.controller, batch, advantages)
            index += count
            if plan is not None:
                plan.after(index, rng, result)

    def _snapshot_payload(
        self,
        trials: int,
        batch_size: int,
        checkpoint_every: int,
        next_index: int,
        rng: np.random.Generator,
        result: SearchResult,
        elapsed_wall_seconds: float,
        cache_stats: dict | None,
    ) -> dict:
        """Assemble the checkpoint document.

        Its ``"result"`` is the ledger itself, which the plan's
        :class:`~repro.core.serialization.SnapshotEncoder` writes as
        :func:`~repro.core.serialization.search_result_to_dict` would.
        ``cache_stats`` counts this logical run's estimator probes.
        """
        from repro.core import serialization

        payload = {
            "schema": serialization.SCHEMA_VERSION,
            "kind": self._kind,
            "trials_total": trials,
            "batch_size": batch_size,
            "checkpoint_every": checkpoint_every,
            "next_index": next_index,
            "rng": serialization.rng_state_to_dict(rng),
            "controller": self.controller.state_dict(),
            "baseline": self.baseline.state_dict(),
            "cache_stats": cache_stats,
            "result": result,
            "elapsed_wall_seconds": elapsed_wall_seconds,
        }
        payload.update(self._snapshot_extras())
        return payload

    def _snapshot_extras(self) -> dict:
        """Kind-specific snapshot fields (spec etc.)."""
        return {}

    def _check_snapshot_compatible(self, snapshot: dict) -> None:
        """Raise if the snapshot cannot drive this search object."""

    def _result_name(self) -> str:
        """Ledger name for a fresh run."""
        raise NotImplementedError

    def _finalize(self, result: SearchResult) -> None:
        """End-of-run hook (FNAS uses it for the min-latency fallback)."""


def _sample_candidates(
    controller: Controller, rng: np.random.Generator, count: int,
    batch_size: int,
) -> ControllerBatch:
    """Draw ``count`` samples: vectorized only when the run's
    ``batch_size > 1`` and the controller has ``sample_batch``."""
    sampler = getattr(controller, "sample_batch", None)
    if batch_size > 1 and sampler is not None:
        return sampler(rng, count)
    return ControllerBatch(
        samples=[controller.sample(rng) for _ in range(count)]
    )


def _update_candidates(
    controller: Controller, batch: ControllerBatch, advantages: list[float]
) -> None:
    """Apply the batch's REINFORCE update."""
    updater = getattr(controller, "update_batch", None)
    if updater is not None and batch.cache is not None:
        updater(batch, advantages)
        return
    for sample, advantage in zip(batch.samples, advantages):
        controller.update(sample, advantage)


def _trial_record(
    index: int, tokens: tuple[int, ...], architecture: Architecture,
    estimate: LatencyEstimate | None, outcome: EvaluationOutcome | None,
    reward: float, tool_seconds: float,
) -> TrialRecord:
    """One ledger entry; ``outcome`` is None for a child the gate pruned."""
    trained = outcome is not None
    return TrialRecord(
        index=index,
        tokens=tokens,
        architecture=architecture,
        latency_ms=None if estimate is None else estimate.ms,
        accuracy=outcome.accuracy if trained else None,
        reward=reward,
        trained=trained,
        sim_seconds=(tool_seconds + outcome.train_seconds if trained
                     else tool_seconds),
    )


class NasSearch(Search):
    """Accuracy-only architecture search (the paper's baseline [16])."""

    _kind = "nas"

    def __init__(
        self,
        space: SearchSpace,
        evaluator: AccuracyEvaluator,
        controller: Controller | None = None,
        latency_estimator: LatencyEstimator | None = None,
        baseline_decay: float = 0.9,
    ):
        self.space = space
        self.evaluator = evaluator
        self.controller = (
            controller if controller is not None else LstmController(space)
        )
        # NAS ignores latency during search, but the experiments report
        # the latency of its final architecture; an estimator here lets
        # the ledger carry it without affecting the reward.
        self.latency_estimator = latency_estimator
        self.baseline = AccuracyBaseline(decay=baseline_decay)

    def _result_name(self) -> str:
        return "nas"

    def _violation(self, estimate: LatencyEstimate | None) -> None:
        """NAS trains every child."""
        return None

    def _reference(self, outcomes: list[EvaluationOutcome]) -> float:
        """The EMA baseline; before its first observation, the batch mean."""
        if self.baseline.initialized:
            return self.baseline.value
        return float(np.mean([outcome.accuracy for outcome in outcomes]))

    def _reward(
        self, accuracy: float, estimate: LatencyEstimate | None,
        reference: float,
    ) -> tuple[float, float]:
        """The ledger records ``A``; the controller is fed ``A - b``."""
        return accuracy, accuracy - reference

    def _tool_seconds(self) -> float:
        """NAS runs no FNAS tool: a child costs its training alone."""
        return 0.0


class FnasSearch(Search):
    """FPGA-implementation aware search (the paper's Figure 2 loop)."""

    _kind = "fnas"

    def __init__(
        self,
        space: SearchSpace,
        evaluator: AccuracyEvaluator,
        latency_estimator: LatencyEstimator,
        required_latency_ms: float,
        controller: Controller | None = None,
        baseline_decay: float = 0.9,
        min_latency_fallback: bool = False,
    ):
        """``min_latency_fallback``: if the trial budget ends with no
        spec-meeting child trained, evaluate the space's smallest
        (minimum-capacity, hence fastest) architecture as one extra
        ledger entry, so a valid design is returned whenever the spec is
        satisfiable at all."""
        self.space = space
        self.evaluator = evaluator
        self.latency_estimator = latency_estimator
        self.reward_fn = FnasReward(required_latency_ms)
        self.controller = (
            controller if controller is not None else LstmController(space)
        )
        self.baseline = AccuracyBaseline(decay=baseline_decay)
        self.min_latency_fallback = min_latency_fallback

    @property
    def required_latency_ms(self) -> float:
        """The timing specification ``rL``."""
        return self.reward_fn.required_latency_ms

    def _result_name(self) -> str:
        return f"fnas-{self.required_latency_ms:g}ms"

    def _snapshot_extras(self) -> dict:
        return {"required_latency_ms": self.required_latency_ms}

    def _check_snapshot_compatible(self, snapshot: dict) -> None:
        spec = snapshot.get("required_latency_ms")
        if spec is not None and spec != self.required_latency_ms:
            raise ValueError(
                f"checkpoint targets a {spec}ms spec, this search targets "
                f"{self.required_latency_ms}ms"
            )

    def _finalize(self, result: SearchResult) -> None:
        """Min-latency fallback: train the smallest child if it fits."""
        if not self.min_latency_fallback or any(
            t.trained and t.latency_ms is not None
            and t.latency_ms <= self.required_latency_ms
            for t in result.trials
        ):
            return
        tokens = (0,) * self.space.num_decisions
        architecture = self.space.decode(tokens)
        estimate = self.latency_estimator.estimate(architecture)
        if self._violation(estimate) is not None:
            return  # the spec is unsatisfiable even by the smallest child
        outcome = self.evaluator.evaluate(architecture)
        reward, _ = self._reward(outcome.accuracy, estimate,
                                 self.baseline.value)
        result.trials.append(_trial_record(
            len(result.trials), tokens, architecture, estimate, outcome,
            reward, self._tool_seconds()))

    def _violation(self, estimate: LatencyEstimate) -> float | None:
        """Eq. (1)'s violation reward, or None when the child may train."""
        if not self.reward_fn.violates(estimate.ms):
            return None
        return self.reward_fn.violation(estimate.ms).value

    def _satisfaction(
        self, accuracy: float, estimate: LatencyEstimate, reference: float
    ) -> float:
        """Eq. (1)'s satisfaction reward against the baseline ``reference``."""
        return self.reward_fn.satisfaction(
            accuracy, estimate.ms, reference
        ).value

    def _reference(self, outcomes: list[EvaluationOutcome]) -> float:
        """The EMA baseline (0 before its first observation)."""
        return self.baseline.value

    def _reward(
        self, accuracy: float, estimate: LatencyEstimate, reference: float
    ) -> tuple[float, float]:
        """:meth:`_satisfaction`, recorded and fed alike."""
        reward = self._satisfaction(accuracy, estimate, reference)
        return reward, reward

    def _tool_seconds(self) -> float:
        """The simulated FNAS-tool cost of one latency estimate."""
        return self.evaluator.latency_eval_seconds()
