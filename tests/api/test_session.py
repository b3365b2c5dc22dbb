"""Session facade: one plan, one ledger, however it travels or runs.

The golden-ledger acceptance criterion of the RunPlan redesign: a plan
that went through a JSON round-trip (as ``--dump-plan`` / ``repro run``
do) must produce trial ledgers byte-identical to the plan it came from,
a checkpointed table1 run must match the in-process one, and a sweep
plan must match the campaign built from its shard grid.
"""

import importlib
import json
import threading

import pytest

from repro.api import Session, build_search, run_plan
from repro.core.serialization import search_result_to_dict
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
)

TRIALS = 6


def ledger_bytes(result) -> bytes:
    """Canonical byte form of a search ledger (no wall-clock noise)."""
    payload = search_result_to_dict(result)
    payload.pop("wall_seconds", None)
    return json.dumps(payload, sort_keys=True).encode()


def assert_same_ledgers(mine, theirs):
    """Two paired outcomes hold byte-identical NAS and FNAS ledgers."""
    assert ledger_bytes(mine.nas) == ledger_bytes(theirs.nas)
    assert sorted(mine.fnas) == sorted(theirs.fnas)
    for spec, result in theirs.fnas.items():
        assert ledger_bytes(mine.fnas_for(spec)) == ledger_bytes(result)


class TestTable1Equivalence:
    def test_replayed_plan_matches_the_plan(self):
        from repro.experiments.table1 import table1_plan

        plan = table1_plan(trials=TRIALS, seed=1)
        direct = run_plan(plan)
        # The JSON round-trip is part of the contract: --dump-plan then
        # `repro run` must reproduce the run exactly.
        replayed = Session.from_plan(RunPlan.from_json(plan.to_json())).run()
        assert_same_ledgers(replayed.outcome, direct.outcome)
        assert replayed.rows == direct.rows

    def test_checkpointed_run_matches_in_process(self, tmp_path):
        from repro.experiments.table1 import table1_plan

        in_process = run_plan(table1_plan(trials=TRIALS, seed=0))
        checkpointed = run_plan(table1_plan(
            trials=TRIALS, seed=0,
            execution=ExecutionPolicy(checkpoint_dir=str(tmp_path)),
        ))
        assert list(tmp_path.glob("*.checkpoint.json"))
        assert_same_ledgers(checkpointed.outcome, in_process.outcome)
        assert checkpointed.rows == in_process.rows


class TestSweepEquivalence:
    PLAN = RunPlan(
        workload="sweep",
        search=SearchPlan(trials=TRIALS),
        scenario=ScenarioPlan(
            datasets=("mnist",), devices=("pynq-z1",), seeds=(0, 1),
            specs_ms=(5.0,), include_nas=True,
        ),
    )

    def test_plan_sweep_matches_legacy_campaign(self):
        from repro.orchestration import Campaign, plan_shards

        legacy = Campaign(plan_shards(self.PLAN)).run()
        planned = Session.from_plan(
            RunPlan.from_json(self.PLAN.to_json())
        ).run()
        assert [o.spec.shard_id for o in planned.outcomes] == \
            [o.spec.shard_id for o in legacy.outcomes]
        for mine, theirs in zip(planned.outcomes, legacy.outcomes):
            assert ledger_bytes(mine.result) == ledger_bytes(theirs.result)

    def test_sweep_writes_artifact_from_plan(self, tmp_path):
        import dataclasses

        plan = dataclasses.replace(
            self.PLAN, output=str(tmp_path / "artifact.json")
        )
        result = run_plan(plan)
        artifact = json.loads((tmp_path / "artifact.json").read_text())
        assert len(artifact["shards"]) == len(result.outcomes) == 4


class TestSearchWorkload:
    def test_single_search_plan_runs_and_checkpoints(self, tmp_path):
        plan = RunPlan(
            workload="search",
            search=SearchPlan(seed=2, trials=8),
            execution=ExecutionPolicy(checkpoint_dir=str(tmp_path),
                                      checkpoint_every=4),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        result = run_plan(plan)
        assert len(result.trials) >= 8
        assert list(tmp_path.glob("*.checkpoint.json"))
        # Re-running resumes from the snapshot and returns the same ledger.
        again = run_plan(plan)
        assert ledger_bytes(again) == ledger_bytes(result)

    def test_shard_spec_plan_duality(self):
        """A ShardSpec is a thin wrapper over a serialized plan: both
        spellings build searches with identical trajectories."""
        import numpy as np

        from repro.orchestration import ShardSpec
        from repro.orchestration import build_search as build_from_spec

        spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="fnas",
                         spec_ms=5.0, seed=4, trials=5)
        assert ShardSpec.from_plan(spec.to_plan()) == spec
        via_spec = build_from_spec(spec).run(5, np.random.default_rng(4))
        via_plan = build_search(spec.to_plan()).run(
            5, np.random.default_rng(4)
        )
        assert ledger_bytes(via_spec) == ledger_bytes(via_plan)


class TestSessionEvents:
    def test_paired_runs_stream_search_events(self):
        from repro.experiments.table1 import table1_plan

        events = []
        session = Session.from_plan(table1_plan(trials=3))
        session.subscribe(events.append)
        session.run()
        kinds = [(e.kind, e.scope) for e in events]
        assert ("start", "table1") in kinds
        assert ("finish", "table1") in kinds
        # Each search is a shard, scoped to its shard id.
        assert ("start", "mnist-pynq-z1-nas-s0") in kinds
        assert ("finish", "mnist-pynq-z1-fnas2ms-s3-ss0") in kinds

    def test_sweep_forwards_campaign_events(self, tmp_path):
        import dataclasses

        plan = dataclasses.replace(
            TestSweepEquivalence.PLAN,
            execution=ExecutionPolicy(checkpoint_dir=str(tmp_path)),
        )
        events = []
        session = Session.from_plan(plan)
        session.subscribe(events.append)
        session.run()
        shard_scopes = {e.scope for e in events if e.kind == "finish"}
        assert "mnist-pynq-z1-fnas5ms-s0" in shard_scopes

    def test_unsubscribe_stops_delivery(self):
        session = Session.from_plan(RunPlan(workload="figure8"))
        events = []
        callback = session.subscribe(events.append)
        session.unsubscribe(callback)
        session.run()
        assert events == []

    def test_events_arrive_in_job_log_order(self, monkeypatch):
        """A late ``JobQueued`` bus publish cannot reorder the stream."""
        from repro.events import EventBus, JobQueued, JobStarted

        started = threading.Event()
        publish = EventBus.publish

        def hold_back_queued(bus, event):
            if isinstance(event, JobQueued):
                started.wait(5)
            publish(bus, event)
            if isinstance(event, JobStarted):
                started.set()

        monkeypatch.setattr(EventBus, "publish", hold_back_queued)
        events = []
        session = Session.from_plan(RunPlan(workload="figure8"))
        session.subscribe(events.append)
        session.run()
        kinds = [e.kind for e in events]
        assert kinds[:2] == ["queued", "running"]
        assert kinds[-1] == "done"

    def test_interrupt_cancels_the_running_job(self, tmp_path):
        """Ctrl-C stops a checkpointed search instead of waiting for it.

        A search stopped before its first trial leaves no snapshot, so
        the check is that no snapshot holds the whole run, as one left
        running to the end would.
        """
        import _thread

        from repro.events import SearchStarted

        trials = 3000
        plan = RunPlan(
            workload="search",
            search=SearchPlan(seed=0, trials=trials),
            execution=ExecutionPolicy(checkpoint_dir=str(tmp_path),
                                      checkpoint_every=500),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        interrupted = []

        def interrupt_on_start(event):
            if isinstance(event, SearchStarted) and not interrupted:
                interrupted.append(event)
                _thread.interrupt_main()

        session = Session.from_plan(plan)
        session.subscribe(interrupt_on_start)
        with pytest.raises(KeyboardInterrupt):
            session.run()
        for path in tmp_path.glob("*.checkpoint.json"):
            trials_done = json.loads(path.read_text())["result"]["trials"]
            assert len(trials_done) < trials


class TestRemovedSpellings:
    """A plan is the one way in; typed events the one way out."""

    @pytest.mark.parametrize("module, name", [
        ("repro.events", "legacy_event"),
        ("repro.events", "_KIND_TO_CLASS"),
        ("repro.api", "ProgressCallback"),
        ("repro.api", "Session.emit"),
        ("repro.api", "resolve_execution"),
        ("repro.orchestration.campaign", "ProgressCallback"),
        ("repro.experiments.runner", "EmitFn"),
        ("repro.experiments.runner", "run_paired_search"),
        ("repro.experiments.runner", "_scenario_for"),
        ("repro.experiments.table1", "run_table1"),
        ("repro.experiments.figure6", "run_figure6"),
        ("repro.experiments.figure7", "run_figure7"),
        ("repro.experiments.figure9", "run_figure9"),
        ("repro.experiments.report", "generate_report"),
        ("repro.experiments", "run_table1"),
        ("repro.experiments", "run_figure6"),
        ("repro.experiments", "run_figure7"),
        ("repro.experiments", "run_paired_search"),
        ("repro.events", "EventStream"),
        ("repro.events", "EventBus.stream"),
        ("repro.events", "EventBus.close"),
        ("repro.orchestration", "shard_grid"),
        ("repro.orchestration.shards", "shard_grid"),
        ("repro.orchestration", "run_campaign"),
        ("repro.orchestration.campaign", "run_campaign"),
        ("repro.experiments", "get_config"),
        ("repro.experiments", "MNIST_CONFIG"),
        ("repro.experiments.runner", "make_controller"),
        ("repro.datasets", "load_dataset"),
        ("repro.datasets", "dataset_names"),
        ("repro.fpga", "DEVICE_CATALOG"),
        ("repro.fpga.device", "DEVICE_CATALOG"),
        ("repro.orchestration.shards", "ShardPayload"),
        ("repro.orchestration.shards", "ShardOutcome.to_payload"),
        ("repro.orchestration.shards", "ShardOutcome.from_payload"),
        ("repro.service.executor", "check_evaluator_override"),
        ("repro.service.executor", "EVALUATOR_OVERRIDE_WORKLOADS"),
        ("repro.plans", "ExecutionPolicy.campaign_mode"),
        ("repro.experiments.runner", "_run_paired_campaign"),
        ("repro.experiments.runner", "_campaign_device"),
        ("repro.orchestration.campaign", "Campaign._dispatch_pooled"),
        ("repro.orchestration.campaign", "Campaign._on_shard_done"),
        ("repro.orchestration.campaign", "Campaign._finish_handle"),
        ("repro.orchestration.campaign", "Campaign._drain_cancelled"),
        ("repro.orchestration.campaign", "_submit_should_give_up"),
        ("repro.core.evaluator", "_file_outcome"),
        ("repro.service.pool", "WorkerPool.submit"),
        ("repro.service.pool", "WorkerPool.wait"),
        ("repro.service.pool", "WorkerPool.cancel"),
        ("repro.service.pool", "TaskHandle"),
    ])
    def test_removed_name_is_gone(self, module, name):
        owner = importlib.import_module(module)
        *parents, leaf = name.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert not hasattr(owner, leaf)

    @pytest.mark.parametrize("entry", [
        Session, Session.from_plan, run_plan,
    ], ids=["Session", "Session.from_plan", "run_plan"])
    def test_live_evaluator_parameter_is_gone(self, entry):
        """A job is its plan: a component no string names is registered
        (repro.registry.EVALUATORS) and named in the plan instead."""
        with pytest.raises(TypeError, match="evaluator"):
            entry(RunPlan(workload="figure8"), evaluator=object())

    @pytest.mark.parametrize("module, engine, override", [
        ("repro.experiments.runner", "run_paired_plan", "dataset"),
        ("repro.experiments.runner", "run_paired_plan", "platform"),
        ("repro.experiments.runner", "run_paired_plan", "specs_ms"),
        ("repro.experiments.figure6", "run_figure6_plan", "devices"),
        ("repro.experiments.figure9", "run_figure9_plan", "devices"),
    ])
    def test_live_scenario_override_is_gone(self, module, engine, override):
        """An engine runs its plan's scenario; a device no catalog name
        covers is registered (repro.registry.DEVICES) and named."""
        run = getattr(importlib.import_module(module), engine)
        with pytest.raises(TypeError, match=override):
            run(RunPlan(workload="paired"), **{override: None})

    def test_submit_takes_no_live_evaluator(self):
        from repro.service import SearchService

        with SearchService(workers=1) as service:
            with pytest.raises(TypeError, match="evaluator"):
                service.submit(RunPlan(workload="figure8"),
                               evaluator=object())
            assert service.jobs() == []

    def test_bus_keeps_no_history(self):
        from repro.events import EventBus

        assert not hasattr(EventBus(), "history")

    @pytest.mark.parametrize("module", [
        "repro.experiments.configs",
        "repro.datasets.registry",
    ])
    def test_removed_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_checkpointed_plan_does_not_warn(self, tmp_path, recwarn):
        from repro.experiments.table1 import table1_plan

        run_plan(table1_plan(
            trials=3, execution=ExecutionPolicy(checkpoint_dir=str(tmp_path))
        ))
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


def paired_plan(*specs_ms):
    """A 3-trial paired NAS+FNAS plan on MNIST/PYNQ at ``specs_ms``."""
    return RunPlan(
        workload="paired",
        search=SearchPlan(trials=3),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=specs_ms, include_nas=True),
    )


class TestFnasForLookup:
    def test_tolerant_and_string_lookup(self):
        outcome = run_plan(paired_plan(2.5))
        exact = outcome.fnas[2.5]
        assert outcome.fnas_for(2.5) is exact
        assert outcome.fnas_for("2.5") is exact
        assert outcome.fnas_for(2.5 + 1e-12) is exact
        with pytest.raises(KeyError, match="specs: 2.5"):
            outcome.fnas_for(7.5)

    def test_serialized_outcome_uses_string_spec_keys(self):
        from repro.experiments.runner import PairedSearchOutcome

        outcome = run_plan(paired_plan(10.0, 2.5))
        data = json.loads(json.dumps(outcome.to_dict()))
        assert sorted(data["fnas"]) == ["10", "2.5"]
        restored = PairedSearchOutcome.from_dict(data)
        assert sorted(restored.fnas) == [2.5, 10.0]
        assert ledger_bytes(restored.fnas_for(10)) == \
            ledger_bytes(outcome.fnas[10.0])
