"""Shard-level memoization: canonical hashes and campaign read-through.

Two walls around the result store's shard granularity:

* the **hash law** (property-tested): the multiset of shard hashes is a
  pure function of the scenario grid -- invariant under
  ``shard_workers``, ``eval_workers``, backend, checkpoint policy and
  enumeration order, a function of ``shard.to_plan()`` alone, and never
  equal to that plan's own ``plan_hash``;
* the **campaign contract**: a store-backed campaign serves previously
  stored shards (publishing :class:`~repro.events.ShardCached`, never
  re-executing), writes freshly-run shards back, treats invalid entries
  as misses, and merges to canonical bytes identical to an uncached
  run.
"""

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.orchestration.campaign as campaign_mod
from repro.events import SearchStarted, ShardCached
from repro.orchestration import Campaign, plan_shards, run_shard
from repro.orchestration.shards import ShardSpec
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    plan_hash,
)
from repro.service.store import ResultStore, canonical_payload_bytes

# -- strategies --------------------------------------------------------------

#: Scenario axes: what the grid *is* (result-relevant).
scenarios = st.builds(
    dict,
    datasets=st.lists(st.sampled_from(["mnist", "cifar10"]),
                      min_size=1, max_size=2, unique=True),
    devices=st.lists(st.sampled_from(["pynq-z1", "xc7a50t"]),
                     min_size=1, max_size=2, unique=True),
    seeds=st.lists(st.integers(min_value=0, max_value=3),
                   min_size=1, max_size=3, unique=True),
    specs_ms=st.lists(st.sampled_from([2.0, 5.0, 7.5]),
                      min_size=0, max_size=2, unique=True),
    include_nas=st.booleans(),
    trials=st.sampled_from([None, 3, 7]),
    batch_size=st.sampled_from([1, 4]),
)

#: Execution knobs that must NOT change shard hashes: how the grid runs.
irrelevant_knobs = st.builds(
    dict,
    eval_workers=st.sampled_from([1, 2, 4]),
    shard_workers=st.sampled_from([1, 2, 8]),
    backend=st.sampled_from([None, "thread", "process"]),
    checkpointed=st.booleans(),
)


def _sweep_plan(scenario: dict, knobs: dict, reverse: bool = False) -> RunPlan:
    datasets = scenario["datasets"]
    devices = scenario["devices"]
    seeds = scenario["seeds"]
    if reverse:
        datasets, devices, seeds = (
            list(reversed(datasets)), list(reversed(devices)),
            list(reversed(seeds)),
        )
    execution = ExecutionPolicy(
        batch_size=scenario["batch_size"],
        eval_workers=knobs["eval_workers"],
        shard_workers=knobs["shard_workers"],
        checkpoint_dir="ckpt" if knobs["checkpointed"] else None,
        checkpoint_every=2 if knobs["checkpointed"] else None,
    )
    if knobs["backend"] is not None:
        execution = dataclasses.replace(execution, backend=knobs["backend"])
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=scenario["trials"]),
        execution=execution,
        scenario=ScenarioPlan(
            datasets=tuple(datasets),
            devices=tuple(devices),
            seeds=tuple(seeds),
            specs_ms=tuple(scenario["specs_ms"]),
            include_nas=scenario["include_nas"] or not scenario["specs_ms"],
        ),
    )


class TestShardHashLaw:
    @given(scenario=scenarios, knobs_a=irrelevant_knobs,
           knobs_b=irrelevant_knobs)
    @settings(max_examples=50, deadline=None)
    def test_hash_multiset_is_a_pure_function_of_the_grid(
        self, scenario, knobs_a, knobs_b
    ):
        """Same grid, any execution knobs, any enumeration order."""
        hashes_a = Counter(
            s.shard_hash for s in plan_shards(_sweep_plan(scenario, knobs_a))
        )
        hashes_b = Counter(
            s.shard_hash
            for s in plan_shards(_sweep_plan(scenario, knobs_b, reverse=True))
        )
        assert hashes_a == hashes_b

    @given(scenario=scenarios, knobs=irrelevant_knobs)
    @settings(max_examples=50, deadline=None)
    def test_shard_hash_keys_the_canonical_plan_in_its_own_domain(
        self, scenario, knobs
    ):
        """A pure function of the canonical plan, never its plan hash:
        a ``search`` plan submitted in canonical form keeps its
        plan-level entry and its shard entry under two keys."""
        for shard in plan_shards(_sweep_plan(scenario, knobs)):
            canonical = shard.to_plan()
            assert (shard.shard_hash
                    == ShardSpec.from_plan(canonical).shard_hash)
            assert shard.shard_hash != plan_hash(canonical)

    @given(scenario=scenarios, knobs=irrelevant_knobs)
    @settings(max_examples=50, deadline=None)
    def test_canonical_plan_normalizes_irrelevant_knobs_away(
        self, scenario, knobs
    ):
        """to_plan() keeps batch_size, drops everything else."""
        for shard in plan_shards(_sweep_plan(scenario, knobs)):
            execution = shard.to_plan().execution
            assert execution == ExecutionPolicy(batch_size=shard.batch_size)

    def test_batch_size_changes_the_hash(self):
        """batch_size changes the controller trajectory: result-relevant."""
        base = dict(dataset="mnist", device="pynq-z1", kind="fnas",
                    spec_ms=5.0, trials=4)
        assert (ShardSpec(batch_size=1, **base).shard_hash
                != ShardSpec(batch_size=2, **base).shard_hash)

    def test_eval_workers_does_not_change_the_hash(self):
        base = dict(dataset="mnist", device="pynq-z1", kind="fnas",
                    spec_ms=5.0, trials=4)
        assert (ShardSpec(eval_workers=1, **base).shard_hash
                == ShardSpec(eval_workers=4, **base).shard_hash)


# -- campaign read/write-through ---------------------------------------------


def _grid(trials=3, specs=(5.0, 7.5)):
    return plan_shards(RunPlan(
        workload="sweep",
        search=SearchPlan(trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              seeds=(0,), specs_ms=tuple(specs)),
    ))


class TestCampaignMemoization:
    def test_write_through_populates_the_store(self):
        store = ResultStore()
        shards = _grid()
        Campaign(shards, store=store).run()
        for shard in shards:
            assert shard.shard_hash in store

    def test_warm_campaign_serves_every_shard_without_executing(
        self, monkeypatch
    ):
        store = ResultStore()
        shards = _grid()
        cold = Campaign(shards, store=store).run()

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached shard must not re-execute")

        monkeypatch.setattr(campaign_mod, "run_shard", forbidden)
        events = []
        warm = Campaign(shards, store=store, progress=events.append).run()
        cached = [e for e in events if isinstance(e, ShardCached)]
        assert sorted(e.scope for e in cached) == sorted(
            s.shard_id for s in shards
        )
        assert all(o.cached for o in warm.outcomes)
        assert not any(o.cached for o in cold.outcomes)

    def test_merged_bytes_identical_cached_or_not(self):
        store = ResultStore()
        shards = _grid()
        cold = Campaign(shards, store=store).run()
        warm = Campaign(shards, store=store).run()
        assert (canonical_payload_bytes(cold.to_dict())
                == canonical_payload_bytes(warm.to_dict()))

    def test_one_changed_spec_costs_one_shard(self, monkeypatch):
        """The headline: resubmit with one new spec executes 1 shard."""
        store = ResultStore()
        Campaign(_grid(specs=(5.0, 7.5)), store=store).run()
        executed = []
        real_run_shard = campaign_mod.run_shard

        def counting(spec, *args, **kwargs):
            executed.append(spec.shard_id)
            return real_run_shard(spec, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_shard", counting)
        overlapping = _grid(specs=(5.0, 7.5, 10.0))
        events = []
        result = Campaign(
            overlapping, store=store, progress=events.append
        ).run()
        assert executed == ["mnist-pynq-z1-fnas10ms-s0"]
        assert len([e for e in events if isinstance(e, ShardCached)]) == 2
        # The novel shard's result still lands in the store.
        assert all(s.shard_hash in store for s in overlapping)
        assert len(result.outcomes) == 3

    def test_cached_outcomes_merge_in_grid_order(self):
        store = ResultStore()
        shards = _grid()
        # Warm the store one shard at a time, out of order.
        for shard in reversed(shards):
            Campaign([shard], store=store).run()
        merged = Campaign(shards, store=store).run()
        assert [o.spec.shard_id for o in merged.outcomes] == [
            s.shard_id for s in shards
        ]

    def test_shard_id_mismatch_is_a_miss(self):
        """A colliding entry that is not this shard's payload re-runs."""
        store = ResultStore()
        shards = _grid()
        payload = run_shard(shards[0]).to_payload()
        store.put(shards[1].shard_hash, payload)  # wrong shard's payload
        events = []
        Campaign([shards[1]], store=store, progress=events.append).run()
        assert not [e for e in events if isinstance(e, ShardCached)]
        assert [e for e in events if isinstance(e, SearchStarted)]

    def test_undecodable_payload_is_a_miss_and_gets_repaired(self):
        store = ResultStore()
        (shard,) = _grid(specs=(5.0,))
        store.put(shard.shard_hash,
                  {"shard_id": shard.shard_id, "garbage": True})
        events = []
        Campaign([shard], store=store, progress=events.append).run()
        assert not [e for e in events if isinstance(e, ShardCached)]
        # First-write-wins means the bad entry stays until GC removes it
        # (it *validates* as JSON); the campaign still ran the shard.
        assert [e for e in events if isinstance(e, SearchStarted)]

    def test_cached_flag_never_serializes(self):
        store = ResultStore()
        shards = _grid(specs=(5.0,))
        Campaign(shards, store=store).run()
        warm = Campaign(shards, store=store).run()
        assert warm.outcomes[0].cached
        document = warm.to_dict()
        assert "cached" not in json.dumps(document)
        rebuilt = campaign_mod.CampaignResult.from_dict(document)
        assert not rebuilt.outcomes[0].cached

    def test_storeless_campaign_unchanged(self, monkeypatch):
        calls = []
        real_run_shard = campaign_mod.run_shard

        def counting(spec, *args, **kwargs):
            calls.append(spec.shard_id)
            return real_run_shard(spec, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_shard", counting)
        shards = _grid(specs=(5.0,))
        Campaign(shards).run()
        Campaign(shards).run()
        assert len(calls) == 2  # no store, no memoization

    def test_store_write_failure_does_not_fail_the_campaign(self):
        class ReadOnlyStore(ResultStore):
            def put(self, key, payload):
                raise OSError("disk full")

        shards = _grid(specs=(5.0,))
        result = Campaign(shards, store=ReadOnlyStore()).run()
        assert len(result.outcomes) == 1

    def test_pooled_campaign_writes_through(self):
        store = ResultStore()
        shards = _grid(trials=3, specs=(5.0, 7.5))
        Campaign(shards, store=store).run(max_workers=2)
        assert all(s.shard_hash in store for s in shards)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_persistent_store_shares_shards_across_processes(
        self, tmp_path, workers
    ):
        cold = Campaign(_grid(), store=ResultStore(tmp_path)).run(
            max_workers=workers
        )
        events = []
        warm = Campaign(
            _grid(), store=ResultStore(tmp_path), progress=events.append
        ).run(max_workers=workers)
        assert len([e for e in events if isinstance(e, ShardCached)]) == 2
        assert (canonical_payload_bytes(cold.to_dict())
                == canonical_payload_bytes(warm.to_dict()))
