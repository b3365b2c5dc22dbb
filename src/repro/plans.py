"""Declarative run plans: one serializable description of any run.

The public API of this reproduction is organised around a **RunPlan**
tree of plain frozen dataclasses:

* :class:`SearchPlan` -- *how* each search runs: registry keys for the
  controller / evaluator / latency estimator, the base seed and the
  trial budget.
* :class:`ExecutionPolicy` -- *with what resources*: batch size,
  child-evaluation workers, shard workers, checkpoint cadence and
  directory.  Purely an execution concern: changing it never changes a
  trial ledger.
* :class:`ScenarioPlan` -- *over what*: datasets x devices x timing
  specs (plus seeds, board counts and the shared surrogate landscape).
* :class:`RunPlan` -- a workload name plus the three parts above.

Every node round-trips losslessly through ``to_dict()`` /
``from_dict()`` and therefore through JSON (:func:`save_plan` /
:func:`load_plan`), so a plan dumped by one process -- e.g. via the CLI's
``--dump-plan`` -- rebuilds the byte-identical run anywhere
(``repro run plan.json``).  Component names are validated against
:mod:`repro.registry` at construction time, so a typo fails in the
submitting process, not in a worker.

Execution lives elsewhere: hand a plan to
:class:`repro.api.Session` to run it.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Plan document schema tag (bumped on incompatible layout changes).
PLAN_SCHEMA = 1

#: Service execution back-ends a plan may request.
EXECUTION_BACKENDS = ("thread", "process")

#: Workloads a plan can describe -- one per CLI search command.
WORKLOADS = (
    "table1",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "ablations",
    "report",
    "sweep",
    "paired",
    "search",
)


def spec_key(spec_ms: float) -> str:
    """Stable string form of a timing spec, for JSON object keys.

    JSON stringifies float dict keys on the way out and cannot turn
    them back into floats on the way in; artifacts therefore key FNAS
    results by ``spec_key(spec)`` (``"2.5"``, ``"10"``) instead of the
    raw float.  Integral specs drop the trailing ``.0`` for
    readability; everything else uses ``repr``'s shortest exact
    round-trip form, so ``float(spec_key(s)) == s`` for *every* float
    and distinct specs never collide.
    """
    value = float(spec_ms)
    if value.is_integer():
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class SearchPlan:
    """How each individual search runs.

    Attributes:
        controller: :data:`repro.registry.CONTROLLERS` key
            (``"lstm"``, ``"tabular"``, ``"random"``, or third-party).
        evaluator: :data:`repro.registry.EVALUATORS` key
            (``"surrogate"`` or ``"trained"``).
        estimator: :data:`repro.registry.ESTIMATORS` key
            (``"analytical"`` or ``"simulate"``).
        seed: base RNG / controller-initialisation seed; paired runs
            derive each FNAS search's seed as ``seed + spec offset``.
        trials: children per search (``None``: the dataset's Table 2
            count).
        min_latency_fallback: FNAS-only; train the smallest child when
            no sampled one meets the spec.
    """

    controller: str = "lstm"
    evaluator: str = "surrogate"
    estimator: str = "analytical"
    seed: int = 0
    trials: int | None = None
    min_latency_fallback: bool = True

    def __post_init__(self) -> None:
        from repro import registry

        registry.CONTROLLERS[self.controller]
        registry.EVALUATORS[self.evaluator]
        registry.ESTIMATORS[self.estimator]
        if self.trials is not None and self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SearchPlan":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        return cls(**_checked(cls, data, section="search"))


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resource and durability policy -- never trajectory-relevant.

    Attributes:
        batch_size: candidates per controller step (1 reproduces the
            sequential published trajectories).
        eval_workers: process-pool workers for child evaluation inside
            a search (1 = in-process).
        shard_workers: how many whole searches run concurrently in
            campaign mode (1 = serial).
        shard_batch_trials: batch small campaign shards -- those whose
            resolved trial count falls below this threshold -- together
            per worker-pool submission, so grids of tiny shards
            amortize dispatch overhead (``None``: every shard
            dispatches individually).  Execution-only: batching never
            changes any shard's ledger.
        checkpoint_dir: snapshot searches under this directory and
            resume them from existing snapshots; ``None`` disables
            durability.
        checkpoint_every: trials between snapshots (``None``: ~10 per
            search).
        backend: how a :class:`~repro.service.SearchService` job
            running this plan executes -- ``"thread"`` (in the worker
            thread, the B=1-style exactness default), ``"process"``
            (in a dedicated subprocess, so GIL-bound searches scale
            with cores), or ``None`` to inherit the executing
            service's default.  Like every execution field it never
            changes a trial ledger.
        lease_seconds: when the job runs on a remote worker agent, how
            long its lease lives without a heartbeat renewal before
            the coordinator reclaims it and the job re-queues
            (``None``: the coordinator's default).  Durability, never
            trajectory: an expired-and-resumed job stores bytes
            identical to an uninterrupted one.
        heartbeat_seconds: the heartbeat cadence the coordinator
            advertises to the agent holding this job's lease
            (``None``: derived from the lease term).  Must leave room
            for several heartbeats per lease term.
    """

    batch_size: int = 1
    eval_workers: int = 1
    shard_workers: int = 1
    shard_batch_trials: int | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    backend: str | None = None
    lease_seconds: float | None = None
    heartbeat_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "eval_workers", "shard_workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if self.shard_batch_trials is not None and (
                not isinstance(self.shard_batch_trials, int)
                or self.shard_batch_trials <= 0):
            raise ValueError(
                f"shard_batch_trials must be a positive int or None, "
                f"got {self.shard_batch_trials!r}"
            )
        if self.backend is not None and self.backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                + ", ".join(EXECUTION_BACKENDS) + " (or None to inherit)"
            )
        for name in ("lease_seconds", "heartbeat_seconds"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, (int, float)) or value <= 0:
                    raise ValueError(
                        f"{name} must be a positive number, got {value!r}"
                    )
                object.__setattr__(self, name, float(value))
        if (self.lease_seconds is not None
                and self.heartbeat_seconds is not None
                and self.heartbeat_seconds >= self.lease_seconds):
            raise ValueError(
                f"heartbeat_seconds ({self.heartbeat_seconds}) must be "
                f"shorter than lease_seconds ({self.lease_seconds}); a "
                "lease needs room for at least one renewal"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every without a checkpoint_dir would snapshot "
                "nowhere; set both"
            )

    @property
    def campaign_mode(self) -> bool:
        """Whether this policy asks for the durable campaign runtime."""
        return self.checkpoint_dir is not None or self.shard_workers > 1

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecutionPolicy":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        return cls(**_checked(cls, data, section="execution"))


@dataclass(frozen=True)
class ScenarioPlan:
    """What the run sweeps over: datasets x devices x specs.

    Empty tuples mean "the workload's canonical choice" -- ``table1``
    defaults to MNIST on the PYNQ with the paper's three specs,
    ``figure6`` to its two devices, and so on -- so canonical
    reproductions stay one-liners while still serializing explicitly.

    Attributes:
        datasets: Table 2 dataset names.
        devices: :data:`repro.registry.DEVICES` catalog names.
        boards: copies of each device forming the platform.
        seeds: seeds for sweep grids (empty: the search plan's seed).
        specs_ms: FNAS timing specs in ms (empty: workload defaults).
        include_nas: also run the accuracy-only NAS baseline (sweep
            grids; paired workloads always run it).
        surrogate_seed: shared surrogate-landscape seed (``None``:
            derived -- the search seed for single runs, 0 for sweep
            grids, keeping results comparable across shards).
    """

    datasets: tuple[str, ...] = ()
    devices: tuple[str, ...] = ()
    boards: int = 1
    seeds: tuple[int, ...] = ()
    specs_ms: tuple[float, ...] = ()
    include_nas: bool = False
    surrogate_seed: int | None = None

    def __post_init__(self) -> None:
        # Normalise JSON lists to tuples so frozen equality works.
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "specs_ms", tuple(float(s) for s in self.specs_ms)
        )
        if self.boards <= 0:
            raise ValueError(f"boards must be positive, got {self.boards}")
        if any(s <= 0 for s in self.specs_ms):
            raise ValueError(f"specs_ms must be positive: {self.specs_ms}")
        from repro import configs, registry

        for dataset in self.datasets:
            configs.get_config(dataset)
        for device in self.devices:
            registry.DEVICES[device]

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (tuples as JSON lists)."""
        data = dataclasses.asdict(self)
        data["datasets"] = list(self.datasets)
        data["devices"] = list(self.devices)
        data["seeds"] = list(self.seeds)
        data["specs_ms"] = list(self.specs_ms)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioPlan":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        return cls(**_checked(cls, data, section="scenario"))


@dataclass(frozen=True)
class RunPlan:
    """One complete, serializable description of a run.

    Attributes:
        workload: one of :data:`WORKLOADS` -- which experiment or
            engine consumes the plan.
        search: per-search configuration.
        execution: resource / durability policy.
        scenario: the swept grid.
        output: optional artifact path the workload writes (the sweep's
            merged campaign JSON, the report's markdown).
    """

    workload: str = "paired"
    search: SearchPlan = field(default_factory=SearchPlan)
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    scenario: ScenarioPlan = field(default_factory=ScenarioPlan)
    output: str | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of "
                + ", ".join(WORKLOADS)
            )

    def to_dict(self) -> dict[str, Any]:
        """The JSON plan document (schema-tagged)."""
        return {
            "schema": PLAN_SCHEMA,
            "workload": self.workload,
            "search": self.search.to_dict(),
            "execution": self.execution.to_dict(),
            "scenario": self.scenario.to_dict(),
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunPlan":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        data = dict(data)
        schema = data.pop("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(f"unsupported plan schema {schema!r}")
        for key, node in (("search", SearchPlan),
                          ("execution", ExecutionPolicy),
                          ("scenario", ScenarioPlan)):
            if key in data and isinstance(data[key], dict):
                data[key] = node.from_dict(data[key])
        return cls(**_checked(cls, data, section="plan"))

    def to_json(self, indent: int | None = 2) -> str:
        """The plan as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunPlan":
        """Parse a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def save_plan(plan: RunPlan, path: str | Path) -> None:
    """Write a plan document to ``path`` (pretty-printed JSON).

    Uses the same atomic temp-file-then-replace write as checkpoints
    and campaign artifacts, so a crash mid-dump never leaves a torn
    plan file.  Unlike those, plan files stay indented: they are small
    and meant to be read and edited.
    """
    from repro.core.serialization import atomic_write_text

    atomic_write_text(json.dumps(plan.to_dict(), indent=2), path)


def load_plan(path: str | Path) -> RunPlan:
    """Read a plan document written by :func:`save_plan`."""
    return RunPlan.from_json(Path(path).read_text())


def canonical_plan_json(plan: RunPlan) -> str:
    """The plan's canonical serialized form.

    One fixed rendering -- sorted keys, minimal separators -- so that
    equal plans serialize to equal bytes whatever dict order or
    formatting produced them.  This is the preimage of
    :func:`plan_hash`, the key of the service's content-addressed
    result store.
    """
    return json.dumps(plan.to_dict(), sort_keys=True, separators=(",", ":"))


def plan_hash(plan: RunPlan) -> str:
    """Content hash (SHA-256 hex) of the canonical plan document.

    Two plans share a hash iff their full plan documents -- workload,
    search, execution, scenario and output -- are identical.  The
    :class:`~repro.service.SearchService` keys its result store and its
    in-flight dedup on this, so resubmitting a byte-identical plan
    returns the stored result without re-running.  Note the hash
    deliberately covers the execution policy too: it never *changes* a
    sequential trial ledger, but batched trajectories are legitimately
    different runs, so over-keying is the conservative choice.
    """
    return hashlib.sha256(canonical_plan_json(plan).encode()).hexdigest()


def _checked(
    cls: type, data: dict[str, Any], section: str = "plan"
) -> dict[str, Any]:
    """Reject keys that are not fields of ``cls`` (typo safety).

    The error names each offending key and its plan section, lists the
    section's valid fields, and suggests the closest valid field when
    one is plausibly a typo (``eval_worker`` -> ``eval_workers``).
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - fields)
    if unknown:
        described = []
        for key in unknown:
            close = difflib.get_close_matches(key, fields, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            described.append(f"{key!r}{hint}")
        raise ValueError(
            f"unknown {cls.__name__} keys in the {section!r} plan section: "
            f"{', '.join(described)}; valid fields: "
            f"{', '.join(sorted(fields))}"
        )
    return data
