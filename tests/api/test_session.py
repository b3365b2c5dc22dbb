"""Session facade: plan-driven runs must equal the legacy kwarg paths.

The golden-ledger acceptance criterion of the RunPlan redesign: for
table1 and sweep, a run built from a plan (including one that went
through a JSON round-trip, as ``--dump-plan`` / ``repro run`` do) must
produce trial ledgers byte-identical to the legacy kwarg entry points.
"""

import json

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


class TestTable1Equivalence:
    def test_plan_run_matches_legacy_kwargs(self):
        from repro.experiments.table1 import run_table1, table1_plan

        legacy = run_table1(trials=TRIALS, seed=1)
        plan = table1_plan(trials=TRIALS, seed=1)
        # The JSON round-trip is part of the contract: --dump-plan then
        # `repro run` must reproduce the run exactly.
        replayed = RunPlan.from_json(plan.to_json())
        planned = Session.from_plan(replayed).run()
        assert ledger_bytes(planned.outcome.nas) == \
            ledger_bytes(legacy.outcome.nas)
        assert sorted(planned.outcome.fnas) == sorted(legacy.outcome.fnas)
        for spec, result in legacy.outcome.fnas.items():
            assert ledger_bytes(planned.outcome.fnas_for(spec)) == \
                ledger_bytes(result)

    def test_rows_match_legacy(self):
        from repro.experiments.table1 import run_table1, table1_plan

        legacy = run_table1(trials=TRIALS, seed=0)
        planned = run_plan(table1_plan(trials=TRIALS, seed=0))
        assert planned.rows == legacy.rows


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
        from repro.orchestration import run_campaign, shard_grid

        legacy = run_campaign(
            shard_grid(["mnist"], ["pynq-z1"], seeds=[0, 1],
                       specs_ms=[5.0], include_nas=True, trials=TRIALS)
        )
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
        assert ("start", "nas") in kinds
        assert any(scope.startswith("fnas-") for _, scope in kinds)

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


class TestEvaluatorOverride:
    def test_rejected_for_workloads_that_rebuild_evaluators(self):
        """An injected evaluator instance must never be silently dropped."""
        class Double:
            pass

        plan = RunPlan(
            workload="search",
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        with pytest.raises(ValueError, match="evaluator override"):
            Session.from_plan(plan, evaluator=Double()).run()


class TestDeprecationShims:
    @pytest.mark.parametrize("removed", ["campaign_dir", "parallel_workers"])
    def test_removed_aliases_are_rejected(self, tmp_path, removed):
        from repro.experiments.runner import run_paired_search
        from repro.fpga.device import PYNQ_Z1
        from repro.fpga.platform import Platform

        value = {"campaign_dir": str(tmp_path), "parallel_workers": 2}
        with pytest.raises(TypeError, match=removed):
            run_paired_search(
                "mnist", Platform.single(PYNQ_Z1), specs_ms=[5.0],
                trials=4, **{removed: value[removed]},
            )
        assert not list(tmp_path.glob("*.checkpoint.json"))

    def test_canonical_kwargs_do_not_warn(self, tmp_path, recwarn):
        from repro.experiments.table1 import run_table1

        run_table1(trials=3, checkpoint_dir=str(tmp_path))
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestFnasForLookup:
    def test_tolerant_and_string_lookup(self):
        from repro.experiments.runner import run_paired_search
        from repro.fpga.device import PYNQ_Z1
        from repro.fpga.platform import Platform

        outcome = run_paired_search(
            "mnist", Platform.single(PYNQ_Z1), specs_ms=[2.5], trials=3,
        )
        exact = outcome.fnas[2.5]
        assert outcome.fnas_for(2.5) is exact
        assert outcome.fnas_for("2.5") is exact
        assert outcome.fnas_for(2.5 + 1e-12) is exact
        with pytest.raises(KeyError, match="specs: 2.5"):
            outcome.fnas_for(7.5)

    def test_serialized_outcome_uses_string_spec_keys(self):
        from repro.experiments.runner import (
            PairedSearchOutcome,
            run_paired_search,
        )
        from repro.fpga.device import PYNQ_Z1
        from repro.fpga.platform import Platform

        outcome = run_paired_search(
            "mnist", Platform.single(PYNQ_Z1), specs_ms=[10.0, 2.5],
            trials=3,
        )
        data = json.loads(json.dumps(outcome.to_dict()))
        assert sorted(data["fnas"]) == ["10", "2.5"]
        restored = PairedSearchOutcome.from_dict(data)
        assert sorted(restored.fnas) == [2.5, 10.0]
        assert ledger_bytes(restored.fnas_for(10)) == \
            ledger_bytes(outcome.fnas[10.0])
