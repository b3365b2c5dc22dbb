"""RunPlan round-trips: from_dict(to_dict(plan)) must be identity.

The property Hypothesis pins here is the foundation of the declarative
API: a plan dumped by one process (``--dump-plan``) and parsed by
another (``repro run``) must describe the byte-identical run, so the
dict/JSON round-trip has to be lossless for every representable plan.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plans import (
    PLAN_SCHEMA,
    WORKLOADS,
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    load_plan,
    save_plan,
    spec_key,
)

DATASET_NAMES = ("mnist", "cifar10", "imagenet", "mobilenet")
DEVICE_NAMES = ("pynq-z1", "xc7a50t", "xc7z020", "xczu9eg",
                "xc7z020-ddr-wide", "xc7z020-ddr-narrow")

search_plans = st.builds(
    SearchPlan,
    controller=st.sampled_from(("lstm", "tabular", "random")),
    evaluator=st.sampled_from(("surrogate", "trained")),
    estimator=st.sampled_from(("analytical", "simulate")),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trials=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
    min_latency_fallback=st.booleans(),
)

checkpointing = st.one_of(
    st.tuples(st.none(), st.none()),
    st.tuples(st.text(min_size=1, max_size=40), st.none()),
    # A cadence is only valid together with a directory.
    st.tuples(st.text(min_size=1, max_size=40),
              st.integers(min_value=1, max_value=1000)),
)

execution_policies = st.tuples(
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
    checkpointing,
).map(lambda t: ExecutionPolicy(
    batch_size=t[0], eval_workers=t[1], shard_workers=t[2],
    checkpoint_dir=t[3][0], checkpoint_every=t[3][1],
))

scenario_plans = st.builds(
    ScenarioPlan,
    datasets=st.lists(st.sampled_from(DATASET_NAMES), max_size=3,
                      unique=True).map(tuple),
    devices=st.lists(st.sampled_from(DEVICE_NAMES), max_size=4,
                     unique=True).map(tuple),
    boards=st.integers(min_value=1, max_value=8),
    seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                   max_size=4, unique=True).map(tuple),
    specs_ms=st.lists(
        st.floats(min_value=0.001, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        max_size=4, unique=True,
    ).map(tuple),
    include_nas=st.booleans(),
    surrogate_seed=st.one_of(st.none(),
                             st.integers(min_value=0, max_value=10_000)),
)

run_plans = st.builds(
    RunPlan,
    workload=st.sampled_from(WORKLOADS),
    search=search_plans,
    execution=execution_policies,
    scenario=scenario_plans,
    output=st.one_of(st.none(), st.text(min_size=1, max_size=40)),
)


class TestRoundTrip:
    @given(plan=run_plans)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip_is_identity(self, plan):
        assert RunPlan.from_dict(plan.to_dict()) == plan

    @given(plan=run_plans)
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_is_identity(self, plan):
        assert RunPlan.from_json(plan.to_json()) == plan

    @given(plan=run_plans)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_twice_is_stable(self, plan):
        once = RunPlan.from_dict(plan.to_dict())
        assert RunPlan.from_dict(once.to_dict()) == once

    def test_file_round_trip(self, tmp_path):
        plan = RunPlan(
            workload="sweep",
            search=SearchPlan(seed=3, trials=20),
            execution=ExecutionPolicy(batch_size=4, shard_workers=2,
                                      checkpoint_dir="ck"),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  seeds=(0, 1), specs_ms=(5.0, 2.5)),
            output="artifact.json",
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_saved_plan_is_pretty_printed(self, tmp_path):
        """Plan files stay indented, unlike the compact snapshots."""
        plan = RunPlan(workload="table1",
                       search=SearchPlan(seed=3, trials=10))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert path.read_text() == json.dumps(plan.to_dict(), indent=2)

    def test_json_lists_become_tuples(self):
        """A plan parsed from JSON (lists everywhere) equals the
        tuple-built original -- the lossless-through-JSON guarantee."""
        plan = RunPlan.from_dict({
            "workload": "sweep",
            "scenario": {"datasets": ["mnist"], "devices": ["pynq-z1"],
                         "seeds": [0, 1], "specs_ms": [5.0]},
        })
        assert plan.scenario.datasets == ("mnist",)
        assert plan.scenario.seeds == (0, 1)
        assert isinstance(plan.scenario.specs_ms, tuple)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            RunPlan(workload="figure99")

    def test_unknown_controller_rejected(self):
        with pytest.raises(KeyError, match="controller"):
            SearchPlan(controller="transformer")

    def test_unknown_dataset_rejected_at_construction(self):
        with pytest.raises(KeyError, match="svhn"):
            ScenarioPlan(datasets=("svhn",))

    def test_unknown_device_rejected_at_construction(self):
        with pytest.raises(KeyError, match="vu19p"):
            ScenarioPlan(devices=("vu19p",))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SearchPlan keys"):
            SearchPlan.from_dict({"sede": 3})

    def test_unknown_key_error_names_key_section_and_fields(self):
        """The contract: offending key + plan section + valid fields."""
        with pytest.raises(ValueError) as err:
            ExecutionPolicy.from_dict({"eval_worker": 2})
        message = str(err.value)
        assert "'eval_worker'" in message          # the offending key
        assert "'execution' plan section" in message  # its section
        assert "batch_size" in message             # the valid fields...
        assert "shard_workers" in message
        assert "checkpoint_dir" in message

    def test_unknown_key_error_suggests_the_closest_field(self):
        with pytest.raises(ValueError, match="did you mean 'eval_workers'"):
            ExecutionPolicy.from_dict({"eval_worker": 2})
        with pytest.raises(ValueError, match="did you mean 'seed'"):
            SearchPlan.from_dict({"sede": 3})

    def test_unknown_nested_key_rejected_through_runplan(self):
        """A typo nested in a full plan document fails loudly too."""
        data = RunPlan().to_dict()
        data["execution"]["eval_worker"] = 4
        del data["execution"]["eval_workers"]
        with pytest.raises(ValueError, match="eval_worker"):
            RunPlan.from_dict(data)

    def test_unknown_toplevel_key_names_the_plan_section(self):
        with pytest.raises(ValueError, match="'plan' plan section"):
            RunPlan.from_dict({"workload": "search", "extra": 1})

    def test_unknown_shard_spec_key_rejected(self):
        from repro.orchestration import ShardSpec

        with pytest.raises(ValueError, match="did you mean 'spec_ms'"):
            ShardSpec.from_dict({
                "dataset": "mnist", "device": "pynq-z1",
                "kind": "fnas", "specms": 5.0,
            })

    def test_unsupported_schema_rejected(self):
        data = RunPlan().to_dict()
        data["schema"] = PLAN_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            RunPlan.from_dict(data)

    def test_non_positive_execution_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionPolicy(batch_size=0)

    def test_plans_are_frozen(self):
        plan = RunPlan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.workload = "sweep"


class TestSpecKey:
    def test_integral_specs_drop_the_point(self):
        assert spec_key(10.0) == "10"
        assert spec_key(2.0) == "2"

    def test_fractional_specs_keep_digits(self):
        assert spec_key(2.5) == "2.5"
        assert spec_key(0.125) == "0.125"

    def test_keys_are_bijective_over_paper_specs(self):
        specs = [20.0, 10.0, 5.0, 2.0, 1.0, 4.0, 2.5, 1.5, 7.5, 0.125]
        keys = {spec_key(s) for s in specs}
        assert len(keys) == len(specs)
        assert all(float(spec_key(s)) == s for s in specs)

    @given(spec=st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_keys_round_trip_exactly_for_any_float(self, spec):
        """float(spec_key(s)) == s bit-for-bit -- so serialized outcomes
        never collapse distinct specs or lose lookup precision."""
        assert float(spec_key(spec)) == spec
