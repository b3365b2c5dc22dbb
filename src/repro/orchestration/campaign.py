"""Campaign runner: durable, sharded search fleets.

A :class:`Campaign` takes a grid of :class:`~repro.orchestration.shards.ShardSpec`
shards and runs them to completion:

* **fan-out** -- shards execute across a
  :class:`~repro.service.pool.WorkerPool` of **long-lived** worker
  processes (``max_workers``), each worker rebuilding its search from
  the spec alone.  The campaign is a thin caller of the pool's
  :meth:`~repro.service.pool.WorkerPool.map`, the one fan-out loop the
  evaluator also runs on: workers stay warm across shards (imports,
  tiling memo), and small shards batch together per worker submission
  (``batch_trials``) so dispatch overhead amortizes;
* **durability** -- with a ``checkpoint_dir``, every shard snapshots
  atomically as it runs, and a shard re-queued after a worker death
  *resumes* from its last snapshot instead of restarting;
* **recovery** -- a worker death (OOM kill, interpreter crash)
  re-queues exactly the shards that died with it, individually, up to
  ``max_pool_restarts`` deaths; shards that still have no result then
  fall back to in-process execution, so a campaign always terminates
  with a complete result set;
* **merging** -- finished shards merge deterministically in grid order
  into a :class:`CampaignResult`: per-shard ledgers plus the
  campaign-level accuracy-latency Pareto frontier
  (:func:`repro.experiments.pareto.frontier_from_trials`).  The merged
  result is identical whatever order workers finish in, so ``N`` shards
  in parallel equal the same shards run serially.

Progress streams through an optional callback as typed
:mod:`repro.events` records (``SearchStarted``, ``SearchFinished``,
``ShardCached``, ``ShardRequeued``, ``PoolFallback``) -- the CLI
prints them, tests assert on them, services can forward them to their
own telemetry.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.search import SearchCancelled
from repro.core.serialization import (
    atomic_write_json,
    search_result_from_dict,
    search_result_to_dict,
)
from repro.events import (
    Event,
    EventCallback,
    PoolFallback,
    SearchFinished,
    SearchStarted,
    ShardCached,
    ShardRequeued,
)
from repro.experiments.pareto import ParetoFront, frontier_from_trials
from repro.experiments.reporting import format_table
from repro.orchestration.shards import (
    ShardOutcome,
    ShardSpec,
    run_shard,
)

#: Campaign artifact schema tag.
CAMPAIGN_SCHEMA = 1


@dataclass
class CampaignResult:
    """Everything a finished campaign produced.

    Attributes:
        outcomes: one entry per shard, in deterministic grid order.
        frontier: campaign-level Pareto frontier merged over every
            trained trial of every shard.
        wall_seconds: end-to-end campaign wall time.
    """

    outcomes: list[ShardOutcome]
    frontier: ParetoFront
    wall_seconds: float = 0.0

    @property
    def total_trials(self) -> int:
        """Trials summed over shards."""
        return sum(len(o.result.trials) for o in self.outcomes)

    @property
    def requeued_shards(self) -> int:
        """Shards that survived at least one worker death."""
        return sum(1 for o in self.outcomes if o.requeues > 0)

    def outcome(self, shard_id: str) -> ShardOutcome:
        """Look up one shard's outcome by id."""
        for candidate in self.outcomes:
            if candidate.spec.shard_id == shard_id:
                return candidate
        known = ", ".join(o.spec.shard_id for o in self.outcomes)
        raise KeyError(f"unknown shard {shard_id!r}; known: {known}")

    def best_accuracy(self) -> float:
        """Highest trained accuracy across the whole campaign."""
        best = max(
            (p.accuracy for p in self.frontier.points), default=None
        )
        if best is None:
            raise ValueError("campaign trained no children")
        return best

    def format(self) -> str:
        """Per-shard summary table plus the merged frontier size."""
        headers = ["Shard", "Trials", "Trained", "Pruned", "BestAcc",
                   "BestLat(ms)", "Requeues"]
        rows = []
        for outcome in self.outcomes:
            result = outcome.result
            trained = [
                t for t in result.trials
                if t.accuracy is not None and t.latency_ms is not None
            ]
            best = (max(trained, key=lambda t: t.accuracy)
                    if trained else None)
            rows.append([
                outcome.spec.shard_id,
                str(len(result.trials)),
                str(result.trained_count),
                str(result.pruned_count),
                "-" if best is None else f"{100 * best.accuracy:.2f}%",
                "-" if best is None else f"{best.latency_ms:.2f}",
                str(outcome.requeues),
            ])
        table = format_table(headers, rows)
        return (f"{table}\ncampaign frontier: {len(self.frontier.points)} "
                f"non-dominated points from {self.frontier.evaluated_count} "
                "trained trials")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (the campaign artifact).

        Lossless: :meth:`from_dict` rebuilds an equal result, which is
        how the service's content-addressed store replays cached sweep
        results.
        """
        from repro.core.serialization import architecture_to_dict

        return {
            "schema": CAMPAIGN_SCHEMA,
            "wall_seconds": self.wall_seconds,
            "shards": [
                {
                    "spec": o.spec.to_dict(),
                    "requeues": o.requeues,
                    "resumed_from": o.resumed_from,
                    "result": search_result_to_dict(o.result),
                }
                for o in self.outcomes
            ],
            "frontier": [
                {
                    "latency_ms": p.latency_ms,
                    "accuracy": p.accuracy,
                    "architecture": architecture_to_dict(p.architecture),
                }
                for p in self.frontier.points
            ],
            "frontier_evaluated_count": self.frontier.evaluated_count,
            "frontier_exhaustive": self.frontier.exhaustive,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignResult":
        """Inverse of :meth:`to_dict` (the campaign artifact reader)."""
        from repro.core.serialization import architecture_from_dict
        from repro.experiments.pareto import ParetoPoint

        schema = data.get("schema", CAMPAIGN_SCHEMA)
        if schema != CAMPAIGN_SCHEMA:
            raise ValueError(f"unsupported campaign schema {schema!r}")
        outcomes = [
            ShardOutcome(ShardSpec.from_dict(shard["spec"]),
                         search_result_from_dict(shard["result"]),
                         shard.get("resumed_from"), shard.get("requeues", 0))
            for shard in data["shards"]
        ]
        points = [
            ParetoPoint(
                architecture=architecture_from_dict(p["architecture"]),
                latency_ms=p["latency_ms"],
                accuracy=p["accuracy"],
            )
            for p in data["frontier"]
        ]
        frontier = ParetoFront(
            points=points,
            evaluated_count=data.get(
                "frontier_evaluated_count", len(points)
            ),
            exhaustive=data.get("frontier_exhaustive", False),
        )
        return cls(
            outcomes=outcomes,
            frontier=frontier,
            wall_seconds=data.get("wall_seconds", 0.0),
        )


def save_campaign_result(result: CampaignResult, path: str | Path) -> None:
    """Atomically write the campaign artifact JSON."""
    atomic_write_json(result.to_dict(), path)


def merge_outcomes(outcomes: list[ShardOutcome]) -> ParetoFront:
    """Campaign-level frontier over every shard's trained trials.

    Deterministic in the order of ``outcomes`` (ties resolve to the
    earlier shard), which the campaign fixes to grid order -- never to
    worker completion order.
    """
    trials = [t for outcome in outcomes for t in outcome.result.trials]
    return frontier_from_trials(trials)


class Campaign:
    """Run a grid of shards to completion, durably and in parallel.

    Parameters:
        shards: the grid, typically from
            :func:`~repro.orchestration.shards.plan_shards`.
        checkpoint_dir: where shards snapshot; ``None`` disables
            checkpointing (shards then restart from scratch on
            re-queue, still correct but wasteful).
        checkpoint_every: snapshot cadence in trials (default: ~10 per
            shard).
        max_pool_restarts: how many broken-pool rebuilds to attempt
            before falling back to in-process execution.
        progress: optional callback receiving each typed
            :class:`~repro.events.Event`.
        store: a :class:`~repro.service.store.ResultStore` to memoize
            shards through.  Before a shard runs, the campaign reads
            the store at the shard's canonical hash
            (:attr:`~repro.orchestration.shards.ShardSpec.shard_hash`)
            and serves a valid entry instead of executing (publishing
            :class:`~repro.events.ShardCached`); after a shard
            finishes, its canonical scrubbed ledger is written back.
            Because stored shard bytes are a pure function of the
            shard's plan, the merged result is byte-identical whether
            shards ran or were cached.  ``None`` (the default)
            disables memoization.
        batch_trials: batch small shards -- those whose resolved trial
            count is below this threshold -- together per worker
            submission, packing consecutive small shards until their
            cumulative trials would exceed it.  Amortizes per-dispatch
            overhead on grids of many tiny shards.  ``None`` (the
            default) dispatches every shard individually.
    """

    def __init__(
        self,
        shards: list[ShardSpec],
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
        max_pool_restarts: int = 2,
        progress: EventCallback | None = None,
        store: Any = None,
        batch_trials: int | None = None,
    ):
        if not shards:
            raise ValueError("a campaign needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError("shard ids must be unique within a campaign")
        if max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every without a checkpoint_dir would snapshot "
                "nowhere; pass both"
            )
        if batch_trials is not None and batch_trials < 1:
            raise ValueError(
                f"batch_trials must be >= 1, got {batch_trials}"
            )
        self.shards = list(shards)
        self.checkpoint_dir = (
            None if checkpoint_dir is None else str(checkpoint_dir)
        )
        self.checkpoint_every = checkpoint_every
        self.max_pool_restarts = max_pool_restarts
        self.progress = progress
        self.store = store
        self.batch_trials = batch_trials

    def run(self, max_workers: int = 1, should_stop=None) -> CampaignResult:
        """Execute every shard and merge the results.

        ``max_workers <= 1`` runs shards serially in-process (still
        checkpointed); larger values fan shards across a process pool.
        Worker death re-queues the affected shards -- resuming from
        their last checkpoints -- onto fresh workers, falling back to
        serial execution once ``max_pool_restarts`` is exhausted.  A
        shard that raises fails the campaign once the shards in flight
        finish; any other exception (an interrupt) terminates the pool
        workers at once.

        ``should_stop`` (a zero-argument callable) cancels the campaign
        cooperatively: the serial path polls it between trials inside
        each shard (snapshotting before raising, when checkpointing is
        on); the pooled path stops dispatching, waits for each worker
        to finish the shard it is running (their own cadence snapshots
        survive; their results are dropped) and then raises, unless
        every shard had already landed.  Cancellation surfaces as
        :class:`~repro.core.search.SearchCancelled`, with ``completed``
        counting finished shards.
        """
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        started = time.perf_counter()
        if self.checkpoint_dir is not None:
            Path(self.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        pending: dict[str, ShardSpec] = {
            s.shard_id: s for s in self.shards
        }
        requeues: dict[str, int] = {s.shard_id: 0 for s in self.shards}
        outcomes: dict[str, ShardOutcome] = {}
        self._serve_cached(pending, outcomes)
        if max_workers > 1 and len(pending) > 1:
            self._run_pooled(pending, outcomes, requeues, max_workers,
                             should_stop=should_stop)
        for shard_id, spec in list(pending.items()):
            self._publish(SearchStarted(shard_id, "running in-process"))
            try:
                outcome = run_shard(
                    spec, self.checkpoint_dir, self.checkpoint_every,
                    should_stop=should_stop,
                )
            except SearchCancelled:
                raise SearchCancelled(len(outcomes)) from None
            self._land(outcome, pending, outcomes, requeues)
        ordered = [outcomes[s.shard_id] for s in self.shards]
        return CampaignResult(
            outcomes=ordered,
            frontier=merge_outcomes(ordered),
            wall_seconds=time.perf_counter() - started,
        )

    # -- internals -----------------------------------------------------------

    def _serve_cached(
        self,
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
    ) -> None:
        """Read-through: answer shards the store already holds.

        Runs before any scheduling, so a memoized shard costs one
        store lookup instead of a pool slot.  Each hit publishes
        :class:`~repro.events.ShardCached` (where an executed shard
        would publish ``SearchStarted``/``SearchFinished``) and lands
        in ``outcomes`` with ``cached=True``.  Invalid entries --
        corrupt bytes, an undecodable document -- are treated as
        misses; the shard then executes and its ``put`` repairs the
        entry.
        """
        if self.store is None:
            return
        for shard_id, spec in list(pending.items()):
            outcome = self._cached_outcome(spec)
            if outcome is None:
                continue
            outcomes[shard_id] = outcome
            del pending[shard_id]
            self._publish(ShardCached(
                shard_id,
                f"served from the result store "
                f"({len(outcome.result.trials)} trials)",
                plan_hash=spec.shard_hash,
            ))

    def _cached_outcome(self, spec: ShardSpec) -> ShardOutcome | None:
        """Decode one shard's stored ledger (None on miss/invalid)."""
        payload = self.store.get_payload(spec.shard_hash)
        if payload is None:
            return None
        try:
            return ShardOutcome(spec, search_result_from_dict(payload),
                                cached=True)
        except (KeyError, TypeError, ValueError):
            return None

    def _store_outcome(self, outcome: ShardOutcome) -> None:
        """Write-through: persist one freshly-run shard's ledger.

        ``put`` canonicalizes and scrubs the wall clock, so the stored
        bytes are a pure function of the shard's plan whichever run
        produced them, as a ``search`` job's are.  Memoization is an
        optimization: a store that cannot persist (disk full,
        permissions) must not fail a campaign that already holds the
        result, so I/O errors are swallowed.
        """
        if self.store is None:
            return
        try:
            self.store.put(outcome.spec.shard_hash,
                           search_result_to_dict(outcome.result))
        except OSError:
            pass

    def _land(
        self,
        outcome: ShardOutcome,
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
        requeues: dict[str, int],
    ) -> None:
        """File one finished shard: store it, record it, publish it."""
        shard_id = outcome.spec.shard_id
        self._store_outcome(outcome)
        outcomes[shard_id] = dataclasses.replace(
            outcome, requeues=requeues[shard_id])
        del pending[shard_id]
        self._publish(SearchFinished(
            shard_id,
            f"{len(outcome.result.trials)} trials"
            + (" (resumed)" if outcome.resumed_from else ""),
        ))

    def _run_pooled(
        self,
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
        requeues: dict[str, int],
        max_workers: int,
        should_stop=None,
    ) -> None:
        """Drain ``pending`` through a pool of its own via
        :meth:`~repro.service.pool.WorkerPool.map`.

        The workers are long-lived across this run's shards.  A worker
        death re-queues exactly its unit's unfinished shards,
        **individually** (their checkpoints make the re-run a resume);
        once deaths exceed ``max_pool_restarts`` no new units are
        dispatched and the leftovers stay in ``pending`` for the
        caller's serial fallback (``PoolFallback``).  A shard's own
        exception propagates once the shards in flight finish, and a
        stop request raises :class:`~repro.core.search.SearchCancelled`
        with the finished-shard count.
        """
        # Deferred import: orchestration must stay importable without
        # dragging the whole service package in at module-import time.
        from repro.service.pool import WorkerPool

        workers = min(max_workers, len(pending))
        for shard_id in pending:
            self._publish(SearchStarted(
                shard_id, f"submitted to {workers}-worker pool"))
        deaths = 0

        def on_death(calls: list, exitcode: int | None) -> list | None:
            nonlocal deaths
            deaths += 1
            for spec, *_ in calls:
                requeues[spec.shard_id] += 1
                self._publish(ShardRequeued(
                    spec.shard_id,
                    "worker died; re-queuing from last checkpoint"
                    if self.checkpoint_dir is not None
                    else "worker died; re-queuing from scratch",
                ))
            if deaths > self.max_pool_restarts:
                return None
            return [[call] for call in calls]

        units = [
            [(spec, self.checkpoint_dir, self.checkpoint_every)
             for spec in unit]
            for unit in self._dispatch_units(pending)
        ]
        with WorkerPool(workers, name="repro-campaign") as pool:
            try:
                # Late-bound module global: monkeypatched run_shard
                # doubles dispatch like the real one.
                pool.map(
                    run_shard, units,
                    on_item=lambda call, outcome: self._land(
                        outcome, pending, outcomes, requeues),
                    on_death=on_death, should_stop=should_stop,
                )
            except SearchCancelled:
                raise SearchCancelled(len(outcomes)) from None
        if deaths > self.max_pool_restarts and pending:
            self._publish(PoolFallback(
                "",
                f"pool died {deaths} times; running the "
                f"remaining {len(pending)} shard(s) in-process",
            ))

    def _dispatch_units(
        self, pending: dict[str, ShardSpec]
    ) -> list[list[ShardSpec]]:
        """Chunk pending shards into per-worker submission units.

        Grid order throughout.  Without ``batch_trials`` every shard
        is its own unit; with it, consecutive *small* shards (resolved
        trials below the threshold) pack together until their
        cumulative trials would exceed it, so a grid of tiny shards
        costs one dispatch per batch instead of one per shard.  Large
        shards always travel alone.  Batching never affects results:
        each shard in a unit still runs, checkpoints and reports
        individually.
        """
        units: list[list[ShardSpec]] = []
        batch: list[ShardSpec] = []
        batched_trials = 0
        for spec in self.shards:
            if spec.shard_id not in pending:
                continue
            trials = spec.resolved_trials
            if self.batch_trials is None or trials >= self.batch_trials:
                units.append([spec])
                continue
            if batch and batched_trials + trials > self.batch_trials:
                units.append(batch)
                batch, batched_trials = [], 0
            batch.append(spec)
            batched_trials += trials
        if batch:
            units.append(batch)
        return units

    def _publish(self, event: Event) -> None:
        """Hand one typed event to the progress callback (if any)."""
        if self.progress is not None:
            self.progress(event)

