"""Shard specifications: one self-contained search per shard.

A :class:`ShardSpec` is plain, JSON-serializable data -- dataset and
catalog device names, registry component keys, seeds, trial budget --
and is a thin wrapper over a serialized single-search
:class:`~repro.plans.RunPlan`: :meth:`ShardSpec.to_plan` /
:meth:`ShardSpec.from_plan` convert losslessly, and
:func:`build_search` reconstructs the exact search object in any
process through the same plan builders (:func:`repro.api.build_search`)
every other entry point uses.  That property is what makes campaigns
shardable: a worker process receives only the spec, builds the search
locally, and the trajectory it produces is fully determined by the spec
(the surrogate landscape, controller initialisation and RNG stream are
all seeded from it).  It is also what makes shards recoverable: a
re-queued spec plus the shard's last checkpoint reproduce the exact run
the dead worker was executing.  A ``search`` job and every sweep shard
computing one search share the store entry at :attr:`ShardSpec.shard_hash`.

:func:`plan_shards` expands a sweep plan's scenario -- the
(dataset x device x seed x search-config) cross product -- into the
shard grid.
"""

from __future__ import annotations

import glob
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.configs import get_config
from repro.core.search import Search, SearchResult
from repro.core.serialization import stale_staging_files
from repro.fpga.device import get_device
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    plan_hash,
)

#: Shard kinds: the two search kinds.
NAS_KIND = "nas"
FNAS_KIND = "fnas"

#: Default checkpoint cadence when a campaign enables checkpointing
#: without choosing one: roughly ten snapshots per shard.
DEFAULT_CHECKPOINT_FRACTION = 10

#: Component keys whose (default) values stay out of shard ids, so ids
#: from before the registry redesign remain stable.
_DEFAULT_COMPONENTS = SearchPlan()


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a campaign: a fully-determined search run.

    Attributes:
        dataset: Table 2 dataset name (``mnist`` / ``cifar10`` /
            ``imagenet``).
        device: FPGA catalog name (see :data:`repro.registry.DEVICES`).
        boards: how many copies of ``device`` form the platform.
        kind: ``"nas"`` or ``"fnas"``.
        spec_ms: FNAS timing specification; must be ``None`` for NAS.
        seed: controller-initialisation and RNG-stream seed.
        surrogate_seed: seed of the surrogate accuracy landscape;
            shards meant to be comparable must share it.
        trials: children to search (``None``: the dataset's Table 2
            count).
        batch_size: candidates per controller step.
        eval_workers: process-pool workers for child evaluation inside
            the shard (1 = in-process).
        min_latency_fallback: FNAS-only; train the smallest child when
            no sampled one meets the spec.
        controller: :data:`repro.registry.CONTROLLERS` key.
        evaluator: :data:`repro.registry.EVALUATORS` key.
        estimator: :data:`repro.registry.ESTIMATORS` key.
    """

    dataset: str
    device: str
    boards: int = 1
    kind: str = FNAS_KIND
    spec_ms: float | None = None
    seed: int = 0
    surrogate_seed: int = 0
    trials: int | None = None
    batch_size: int = 1
    eval_workers: int = 1
    min_latency_fallback: bool = True
    controller: str = _DEFAULT_COMPONENTS.controller
    evaluator: str = _DEFAULT_COMPONENTS.evaluator
    estimator: str = _DEFAULT_COMPONENTS.estimator

    def __post_init__(self) -> None:
        if self.kind not in (NAS_KIND, FNAS_KIND):
            raise ValueError(
                f"unknown shard kind {self.kind!r}; expected "
                f"{NAS_KIND!r} or {FNAS_KIND!r}"
            )
        if self.kind == FNAS_KIND and self.spec_ms is None:
            raise ValueError("fnas shards need a spec_ms")
        if self.kind == NAS_KIND and self.spec_ms is not None:
            raise ValueError("nas shards must not set spec_ms")
        if self.boards <= 0:
            raise ValueError(f"boards must be positive, got {self.boards}")
        if self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.eval_workers <= 0:
            raise ValueError(
                f"eval_workers must be positive, got {self.eval_workers}"
            )
        # Fail early on unknown names, in the submitting process rather
        # than in a worker.  Component keys are checked by the
        # SearchPlan this spec wraps.
        get_config(self.dataset)
        get_device(self.device)
        self._search_plan()

    @property
    def shard_id(self) -> str:
        """Stable unique name; doubles as the checkpoint file stem."""
        parts = [self.dataset, self.device]
        if self.boards > 1:
            parts[-1] += f"x{self.boards}"
        if self.kind == FNAS_KIND:
            parts.append(f"fnas{self.spec_ms:g}ms")
        else:
            parts.append(NAS_KIND)
        parts.append(f"s{self.seed}")
        if self.surrogate_seed != self.seed:
            parts.append(f"ss{self.surrogate_seed}")
        if self.batch_size > 1:
            parts.append(f"b{self.batch_size}")
        # Non-default components mark the id so grids mixing components
        # stay collision-free (defaults keep pre-registry ids stable).
        for label, key, default in (
            ("c", self.controller, _DEFAULT_COMPONENTS.controller),
            ("e", self.evaluator, _DEFAULT_COMPONENTS.evaluator),
            ("l", self.estimator, _DEFAULT_COMPONENTS.estimator),
        ):
            if key != default:
                parts.append(f"{label}-{key}")
        return "-".join(parts)

    @cached_property
    def shard_hash(self) -> str:
        """Content-address of this shard's result in the store.

        :func:`~repro.plans.plan_hash` of :meth:`to_plan`, computed once
        per spec.  Because :meth:`to_plan` normalizes result-irrelevant
        execution knobs away, two shards computing the same search
        share one hash (and one stored result) regardless of
        ``eval_workers``, ``shard_workers``, backend, or checkpoint
        policy; so does a ``search`` job computing it.
        """
        return plan_hash(self.to_plan())

    @property
    def resolved_trials(self) -> int:
        """Trial budget with the Table 2 default applied."""
        if self.trials is not None:
            return self.trials
        return get_config(self.dataset).trials

    def checkpoint_path(self, checkpoint_dir: str | Path) -> Path:
        """Where this shard's snapshot lives under ``checkpoint_dir``."""
        return Path(checkpoint_dir) / f"{self.shard_id}.checkpoint.json"

    def _search_plan(self) -> SearchPlan:
        """The :class:`~repro.plans.SearchPlan` this spec wraps."""
        return SearchPlan(
            controller=self.controller,
            evaluator=self.evaluator,
            estimator=self.estimator,
            seed=self.seed,
            trials=self.trials,
            min_latency_fallback=self.min_latency_fallback,
        )

    def to_plan(self) -> RunPlan:
        """The *canonical* single-search :class:`~repro.plans.RunPlan`.

        ``workload="search"`` plans and shard specs are two spellings
        of the same data, and :func:`build_search` goes through the
        plan form.  The plan is canonical: only trajectory-relevant
        execution knobs survive (``batch_size`` changes the batched
        controller trajectory; ``eval_workers`` and the rest of
        :class:`~repro.plans.ExecutionPolicy` never do, and are
        normalized to their defaults).  That makes the hash of this
        plan -- see :attr:`shard_hash` -- a pure function of *what*
        the shard computes, so shards of different sweeps share
        result-store entries whatever knobs those sweeps ran under.
        ``ShardSpec.from_plan(spec.to_plan())`` is identity for specs
        at default ``eval_workers``; :func:`build_search` re-applies a
        non-default ``eval_workers`` when building the live search.
        """
        return RunPlan(
            workload="search",
            search=self._search_plan(),
            execution=ExecutionPolicy(batch_size=self.batch_size),
            scenario=ScenarioPlan(
                datasets=(self.dataset,),
                devices=(self.device,),
                boards=self.boards,
                seeds=(self.seed,),
                specs_ms=() if self.spec_ms is None else (self.spec_ms,),
                include_nas=self.kind == NAS_KIND,
                surrogate_seed=self.surrogate_seed,
            ),
        )

    @classmethod
    def from_plan(cls, plan: RunPlan) -> "ShardSpec":
        """Build a spec from a single-search plan (:meth:`to_plan` inverse)."""
        from repro.api import check_single_search, landscape_seed

        scenario = plan.scenario
        check_single_search(scenario)
        return cls(
            dataset=scenario.datasets[0],
            device=scenario.devices[0],
            boards=scenario.boards,
            kind=NAS_KIND if not scenario.specs_ms else FNAS_KIND,
            spec_ms=scenario.specs_ms[0] if scenario.specs_ms else None,
            seed=plan.search.seed,
            surrogate_seed=landscape_seed(plan),
            trials=plan.search.trials,
            batch_size=plan.execution.batch_size,
            eval_workers=plan.execution.eval_workers,
            min_latency_fallback=plan.search.min_latency_fallback,
            controller=plan.search.controller,
            evaluator=plan.search.evaluator,
            estimator=plan.search.estimator,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for campaign artifacts."""
        return {
            "dataset": self.dataset,
            "device": self.device,
            "boards": self.boards,
            "kind": self.kind,
            "spec_ms": self.spec_ms,
            "seed": self.seed,
            "surrogate_seed": self.surrogate_seed,
            "trials": self.trials,
            "batch_size": self.batch_size,
            "eval_workers": self.eval_workers,
            "min_latency_fallback": self.min_latency_fallback,
            "controller": self.controller,
            "evaluator": self.evaluator,
            "estimator": self.estimator,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys by name."""
        from repro.plans import _checked

        return cls(**_checked(cls, data, section="shard"))


def plan_shards(plan: RunPlan) -> list[ShardSpec]:
    """Expand a sweep plan's scenario into its shard grid.

    The (dataset x device x seed x search-config) cross product:
    ``scenario.specs_ms`` adds one FNAS shard per timing spec and
    ``scenario.include_nas`` the accuracy-only baseline, per cell.
    ``scenario.seeds`` falls back to the search plan's seed;
    ``scenario.surrogate_seed=None`` keeps one shared landscape
    (seed 0) across all shards so their results are comparable.
    Shards come back in deterministic grid order -- the order campaign
    merging uses regardless of which worker finishes first.
    """
    scenario = plan.scenario
    if not scenario.specs_ms and not scenario.include_nas:
        raise ValueError("a grid needs specs_ms and/or include_nas")
    seeds = scenario.seeds or (plan.search.seed,)
    for axis, values in (("datasets", scenario.datasets),
                         ("devices", scenario.devices),
                         ("seeds", seeds)):
        if not values:
            raise ValueError(f"a grid needs at least one entry in {axis}")
    landscape = (0 if scenario.surrogate_seed is None
                 else scenario.surrogate_seed)
    shards: list[ShardSpec] = []
    for dataset in scenario.datasets:
        for device in scenario.devices:
            for seed in seeds:
                common = dict(
                    dataset=dataset,
                    device=device,
                    boards=scenario.boards,
                    seed=seed,
                    surrogate_seed=landscape,
                    trials=plan.search.trials,
                    batch_size=plan.execution.batch_size,
                    eval_workers=plan.execution.eval_workers,
                    min_latency_fallback=plan.search.min_latency_fallback,
                    controller=plan.search.controller,
                    evaluator=plan.search.evaluator,
                    estimator=plan.search.estimator,
                )
                if scenario.include_nas:
                    shards.append(ShardSpec(kind=NAS_KIND, **common))
                for spec in scenario.specs_ms:
                    shards.append(
                        ShardSpec(kind=FNAS_KIND, spec_ms=spec, **common)
                    )
    _check_unique(shards)
    return shards


def _check_unique(shards: Iterable[ShardSpec]) -> None:
    seen: set[str] = set()
    for shard in shards:
        if shard.shard_id in seen:
            raise ValueError(f"duplicate shard id {shard.shard_id!r}")
        seen.add(shard.shard_id)


def build_search(spec: ShardSpec) -> Search:
    """Reconstruct the shard's search object from its spec.

    Delegates to :func:`repro.api.build_search` on the spec's plan
    form, so shards, ``workload="search"`` plans and the paired engine
    all build components through the same registry-driven path.
    Everything is derived deterministically from the spec, so any
    process -- the submitting one, a pool worker, or a worker picking
    up after a crash -- builds the identical search.  The spec's
    ``eval_workers`` (normalized out of the canonical plan by
    :meth:`ShardSpec.to_plan`) is re-applied here, so parallel child
    evaluation still happens -- it parallelizes the work without
    changing the trajectory, which is why it can stay out of the hash.
    """
    import dataclasses

    from repro.api import build_search as build_search_from_plan

    plan = spec.to_plan()
    if spec.eval_workers != 1:
        plan = dataclasses.replace(
            plan,
            execution=dataclasses.replace(
                plan.execution, eval_workers=spec.eval_workers
            ),
        )
    return build_search_from_plan(plan)


def run_shard(
    spec: ShardSpec,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    should_stop=None,
) -> "ShardOutcome":
    """Execute one shard to completion (pool-worker entry point).

    With a ``checkpoint_dir``, the shard snapshots its state every
    ``checkpoint_every`` trials (default: ~10 snapshots per run) and --
    crucially -- *resumes* from an existing snapshot instead of
    restarting, which is how a re-queued shard continues where a dead
    worker left off.  Before either, it removes its own checkpoint's
    staging files that a killed snapshot writer left behind (those
    older than :data:`~repro.core.serialization.STAGING_GRACE_SECONDS`).
    ``should_stop`` (in-process callers only; it cannot cross a pool
    boundary) cancels cooperatively between trials, snapshotting first
    -- see :class:`~repro.core.search.SearchCancelled`.  Returns the
    shard's :class:`ShardOutcome`, which also crosses a pool pipe as
    is (a pickle round trip costs less than encoding and decoding the
    ledger).
    """
    search = build_search(spec)
    trials = spec.resolved_trials
    resumed_from = None
    try:
        if checkpoint_dir is None:
            if checkpoint_every is not None:
                raise ValueError(
                    "checkpoint_every without a checkpoint_dir would "
                    "snapshot nowhere; pass both (mirrors Search.run)"
                )
            result = search.run(
                trials, np.random.default_rng(spec.seed),
                batch_size=spec.batch_size,
                should_stop=should_stop,
            )
        else:
            path = spec.checkpoint_path(checkpoint_dir)
            # A snapshot writer killed between its write and its rename
            # left its staging file behind; a fresh one may still belong
            # to a live writer (double execution after a lease expired).
            for stale, _ in stale_staging_files(path.parent,
                                                glob.escape(path.name)):
                stale.unlink(missing_ok=True)
            if checkpoint_every is None:
                checkpoint_every = max(
                    1, trials // DEFAULT_CHECKPOINT_FRACTION
                )
            if path.exists():
                snapshot = _check_snapshot_matches_spec(path, spec, trials)
                result = search.resume(path, snapshot=snapshot,
                                       should_stop=should_stop)
                resumed_from = str(path)
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                result = search.run(
                    trials, np.random.default_rng(spec.seed),
                    batch_size=spec.batch_size,
                    checkpoint_every=checkpoint_every,
                    checkpoint_path=path,
                    should_stop=should_stop,
                )
    finally:
        # Reclaim the eval_workers pool (when one was built): in serial
        # campaigns or the post-pool-death fallback, shards run in
        # the submitting process, which would otherwise accumulate one
        # idle worker pool per shard.
        closer = getattr(search.evaluator, "close", None)
        if closer is not None:
            closer()
    return ShardOutcome(spec, result, resumed_from)


def _check_snapshot_matches_spec(
    path: Path, spec: ShardSpec, trials: int
) -> dict[str, Any]:
    """Refuse to resume a checkpoint written under a different budget.

    The shard id (hence the checkpoint filename) does not encode the
    trial budget, so re-running a campaign with a changed ``trials``
    against an old checkpoint directory would otherwise silently return
    the *old* budget's result.  Returns the parsed snapshot so the
    caller can hand it to :meth:`~repro.core.search.Search.resume`
    without re-reading the file.
    """
    snapshot = json.loads(path.read_text())
    saved_trials = snapshot.get("trials_total")
    saved_batch = snapshot.get("batch_size")
    if saved_trials != trials or saved_batch != spec.batch_size:
        raise ValueError(
            f"checkpoint {path} was written for trials={saved_trials}, "
            f"batch_size={saved_batch} but shard {spec.shard_id!r} now "
            f"requests trials={trials}, batch_size={spec.batch_size}; "
            "point the campaign at a fresh checkpoint directory (or "
            "delete the stale snapshot) to change the budget"
        )
    return snapshot


@dataclass(frozen=True)
class ShardOutcome:
    """One finished shard: its spec, ledger, and how it got there.

    ``cached`` marks outcomes served from the result store instead of
    executed; it is in-memory provenance only -- campaign artifacts
    (:meth:`CampaignResult.to_dict`) never serialize it, so a merged
    result's bytes are identical whether its shards ran or were
    cached.
    """

    spec: ShardSpec
    result: SearchResult
    resumed_from: str | None = None
    requeues: int = 0
    cached: bool = False
