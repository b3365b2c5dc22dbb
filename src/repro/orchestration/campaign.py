"""Campaign runner: durable, sharded search fleets.

A :class:`Campaign` takes a grid of :class:`~repro.orchestration.shards.ShardSpec`
shards and runs them to completion:

* **fan-out** -- shards execute across a
  :class:`~repro.service.pool.WorkerPool` of **long-lived** worker
  processes (``max_workers``), each worker rebuilding its search from
  the spec alone.  The pool is the same runtime the service's process
  backend and the federation agents run jobs on: workers stay warm
  across shards (imports, tiling memo), and small shards batch
  together per worker submission (``batch_trials``) so dispatch
  overhead amortizes;
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
from functools import partial
from pathlib import Path
from typing import Any

from repro.core.search import SearchCancelled
from repro.core.serialization import atomic_write_json, search_result_to_dict
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
            ShardOutcome.from_payload(shard, requeues=shard.get("requeues", 0))
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
            finishes, its canonical scrubbed entry is written back.
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
        pool: a :class:`~repro.service.pool.WorkerPool` to dispatch
            pooled shards on (it is *not* closed by the campaign).
            ``None`` (the default) stands up a transient pool per
            pooled run -- workers are still reused across that run's
            shards.
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
        pool: Any = None,
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
        self.pool = pool

    def run(self, max_workers: int = 1, should_stop=None) -> CampaignResult:
        """Execute every shard and merge the results.

        ``max_workers <= 1`` runs shards serially in-process (still
        checkpointed); larger values fan shards across a process pool.
        Worker death re-queues the affected shards -- resuming from
        their last checkpoints -- onto a rebuilt pool, falling back to
        serial execution once ``max_pool_restarts`` is exhausted.

        ``should_stop`` (a zero-argument callable) cancels the campaign
        cooperatively: the serial path polls it between trials inside
        each shard (snapshotting before raising, when checkpointing is
        on); the pooled path stops scheduling new shards, waits for the
        in-flight ones (their own cadence snapshots survive) and then
        raises.  Cancellation surfaces as
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
            self._store_outcome(outcome)
            outcomes[shard_id] = dataclasses.replace(
                outcome, requeues=requeues[shard_id])
            del pending[shard_id]
            self._publish(SearchFinished(
                shard_id, f"{len(outcomes[shard_id].result.trials)} trials"
            ))
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
        corrupt bytes, a payload whose shard id does not match, an
        undecodable document -- are treated as misses; the shard then
        executes and its ``put`` repairs the entry.
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
        """Decode one shard's stored payload (None on miss/invalid)."""
        payload = self.store.get_payload(spec.shard_hash)
        if (not isinstance(payload, dict)
                or payload.get("shard_id") != spec.shard_id):
            return None
        try:
            return ShardOutcome.from_payload(payload, cached=True)
        except (KeyError, TypeError, ValueError):
            return None

    def _store_outcome(self, outcome: ShardOutcome) -> None:
        """Write-through: persist one freshly-run shard's entry.

        ``put`` canonicalizes and scrubs (wall clocks, resume
        provenance), so the stored bytes are a pure function of the
        shard's plan whichever run produced them.  Memoization is an
        optimization: a store that cannot persist (disk full,
        permissions) must not fail a campaign that already holds the
        result, so I/O errors are swallowed.
        """
        if self.store is None:
            return
        try:
            self.store.put(outcome.spec.shard_hash, outcome.to_payload())
        except OSError:
            pass

    def _run_pooled(
        self,
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
        requeues: dict[str, int],
        max_workers: int,
        should_stop=None,
    ) -> None:
        """Drain ``pending`` through a :class:`WorkerPool`.

        Uses the injected ``self.pool`` when one was provided (shared
        with the service runtime), else a transient pool sized to the
        work -- either way the workers are long-lived across shards.
        Shards whose results arrive are moved to
        ``outcomes``; anything still pending when the death budget
        runs out is left for the caller's serial fallback.  Exceptions
        raised *by a shard itself* (bad spec reaching a worker,
        evaluator bugs) propagate -- only worker death triggers
        re-queuing.
        """
        # Deferred import: orchestration must stay importable without
        # dragging the whole service package in at module-import time.
        from repro.service.pool import WorkerPool

        workers = min(max_workers, len(pending))
        pool = self.pool
        transient = pool is None
        if transient:
            pool = WorkerPool(workers, name="repro-campaign")
        try:
            self._dispatch_pooled(pool, pending, outcomes, requeues,
                                  workers, should_stop=should_stop)
        finally:
            if transient:
                pool.close()

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

    def _dispatch_pooled(
        self,
        pool: Any,
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
        requeues: dict[str, int],
        workers: int,
        should_stop=None,
    ) -> None:
        """Pump dispatch units through the pool until drained.

        A worker death re-queues exactly its unit's unfinished shards,
        **individually** (their checkpoints make the re-run a resume);
        once deaths exceed ``max_pool_restarts`` no new units are
        dispatched and the leftovers fall to the serial path
        (``PoolFallback``).  A stop request cancels the in-flight
        units cooperatively -- batch boundaries plus each shard's own
        cadence checkpoints preserve progress -- and raises
        :class:`~repro.core.search.SearchCancelled`.
        """
        queue = self._dispatch_units(pending)
        inflight: dict[Any, list[ShardSpec]] = {}
        deaths = 0
        try:
            while queue or inflight:
                if should_stop is not None and should_stop():
                    self._drain_cancelled(pool, inflight)
                    raise SearchCancelled(len(outcomes))
                while queue and deaths <= self.max_pool_restarts:
                    # Never block on a checkout while holding in-flight
                    # handles: their workers free up only when *we*
                    # pump the pipes below (a blocking submit would
                    # deadlock a fully-dispatched pool).
                    if inflight and pool.available() <= 0:
                        break
                    unit = queue.pop(0)
                    handle = pool.submit(
                        # Late-bound module global: monkeypatched
                        # run_shard doubles dispatch like the real one.
                        run_shard,
                        [(spec, self.checkpoint_dir, self.checkpoint_every)
                         for spec in unit],
                        on_item=self._on_shard_done(
                            unit, pending, outcomes, requeues
                        ),
                        should_stop=partial(_submit_should_give_up,
                                            inflight, should_stop),
                    )
                    if handle is None:  # checkout yielded to stop/pump
                        queue.insert(0, unit)
                        break
                    inflight[handle] = unit
                    for spec in unit:
                        self._publish(SearchStarted(
                            spec.shard_id,
                            f"submitted to {workers}-worker pool",
                        ))
                if not inflight:
                    if deaths > self.max_pool_restarts:
                        break
                    continue
                for handle in pool.wait(list(inflight), timeout=0.5):
                    deaths += self._finish_handle(
                        handle, inflight.pop(handle), requeues, queue
                    )
        except SearchCancelled:
            raise
        except BaseException:
            # A failing shard (or callback) must not leave orphaned
            # tasks writing into unread handles on a shared pool.
            self._drain_cancelled(pool, inflight)
            raise
        if deaths > self.max_pool_restarts and pending:
            self._publish(PoolFallback(
                "",
                f"pool died {deaths} times; running the "
                f"remaining {len(pending)} shard(s) in-process",
            ))

    def _on_shard_done(
        self,
        unit: list[ShardSpec],
        pending: dict[str, ShardSpec],
        outcomes: dict[str, ShardOutcome],
        requeues: dict[str, int],
    ):
        """Per-unit completion callback: one call per finished shard."""
        def on_item(index: int, outcome: ShardOutcome) -> None:
            spec = unit[index]
            self._store_outcome(outcome)
            outcome = dataclasses.replace(
                outcome, requeues=requeues[spec.shard_id])
            outcomes[spec.shard_id] = outcome
            del pending[spec.shard_id]
            self._publish(SearchFinished(
                spec.shard_id,
                f"{len(outcome.result.trials)} trials"
                + (" (resumed)" if outcome.resumed_from else ""),
            ))
        return on_item

    def _finish_handle(
        self,
        handle: Any,
        unit: list[ShardSpec],
        requeues: dict[str, int],
        queue: list[list[ShardSpec]],
    ) -> int:
        """Settle one finished unit; returns the worker deaths (0/1).

        On death, each shard of the unit that produced no result is
        re-queued as its *own* unit -- a batch never dies as a block,
        and the re-run resumes from the shard's last checkpoint.
        """
        if handle.error is not None:
            for index in handle.lost_indices:
                spec = unit[index]
                requeues[spec.shard_id] += 1
                self._publish(ShardRequeued(
                    spec.shard_id,
                    "worker died; re-queuing from last checkpoint"
                    if self.checkpoint_dir is not None
                    else "worker died; re-queuing from scratch",
                ))
                queue.append([spec])
            return 1
        tag = handle.outcome[0]
        if tag == "failed":
            message, original = handle.outcome[2], handle.outcome[3]
            if original is not None:
                raise original
            raise RuntimeError(message)
        # "done": every item already landed via on_item.  "cancelled"
        # only occurs during a drain, where leftovers stay pending.
        return 0

    def _drain_cancelled(self, pool: Any, inflight: dict) -> None:
        """Cancel and settle every in-flight unit (results dropped).

        In-flight work runs to its next poll boundary, its results are
        discarded (callbacks disabled), and the pool comes back with
        every worker idle --
        mandatory when the pool is shared with the service runtime.
        """
        for handle in inflight:
            handle.on_item = None
            pool.cancel(handle)
        remaining = [h for h in inflight if not h.finished]
        while remaining:
            pool.wait(remaining, timeout=0.5)
            remaining = [h for h in remaining if not h.finished]
        inflight.clear()

    def _publish(self, event: Event) -> None:
        """Hand one typed event to the progress callback (if any)."""
        if self.progress is not None:
            self.progress(event)


def _submit_should_give_up(inflight: dict, should_stop) -> bool:
    """Checkout guard for :meth:`Campaign._dispatch_pooled`'s submits.

    Gives the checkout up (submit returns None) when a stop was
    requested, or the moment we hold in-flight handles -- their
    workers only free up when the dispatch loop pumps the pipes, so
    waiting inside submit could deadlock a fully-dispatched pool.
    """
    return bool(inflight) or (should_stop is not None and should_stop())
