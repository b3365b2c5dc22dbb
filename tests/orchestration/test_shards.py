"""Shard specs: validation, identity, grid expansion, reconstruction."""

import os
import time

import numpy as np
import pytest

from repro.core.search import FnasSearch, NasSearch
from repro.core.serialization import STAGING_GRACE_SECONDS
from repro.orchestration import (
    ShardSpec,
    build_search,
    plan_shards,
    run_shard,
)
from repro.plans import RunPlan, ScenarioPlan, SearchPlan


def sweep_grid(devices=("pynq-z1",), seeds=(0,), specs_ms=(),
               include_nas=False):
    """The shard grid of an MNIST sweep plan over these axes."""
    return plan_shards(RunPlan(
        workload="sweep",
        scenario=ScenarioPlan(datasets=("mnist",), devices=devices,
                              seeds=seeds, specs_ms=specs_ms,
                              include_nas=include_nas),
    ))


class TestShardSpec:
    def test_fnas_requires_spec(self):
        with pytest.raises(ValueError, match="spec_ms"):
            ShardSpec(dataset="mnist", device="pynq-z1", kind="fnas")

    def test_nas_rejects_spec(self):
        with pytest.raises(ValueError, match="spec_ms"):
            ShardSpec(dataset="mnist", device="pynq-z1", kind="nas",
                      spec_ms=5.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ShardSpec(dataset="mnist", device="pynq-z1", kind="evolutionary")

    def test_unknown_dataset_fails_in_submitter(self):
        with pytest.raises(KeyError, match="dataset"):
            ShardSpec(dataset="svhn", device="pynq-z1", kind="nas")

    def test_unknown_device_fails_in_submitter(self):
        with pytest.raises(KeyError, match="device"):
            ShardSpec(dataset="mnist", device="vu19p", kind="nas")

    def test_shard_id_distinguishes_grid_axes(self):
        base = dict(dataset="mnist", device="pynq-z1", kind="fnas",
                    spec_ms=5.0)
        variants = [
            ShardSpec(seed=0, **base),
            ShardSpec(seed=1, **base),
            ShardSpec(seed=0, batch_size=8, **base),
            ShardSpec(seed=0, boards=2, **base),
            ShardSpec(seed=0, surrogate_seed=7, **base),
        ]
        ids = [v.shard_id for v in variants]
        assert len(set(ids)) == len(ids)

    def test_dict_round_trip(self):
        spec = ShardSpec(dataset="cifar10", device="xczu9eg", kind="fnas",
                         spec_ms=2.5, seed=4, trials=30, batch_size=8)
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_resolved_trials_defaults_to_table2(self):
        spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="nas")
        assert spec.resolved_trials == 60
        assert ShardSpec(dataset="mnist", device="pynq-z1", kind="nas",
                         trials=7).resolved_trials == 7


class TestShardGrid:
    def test_cross_product_in_grid_order(self):
        shards = sweep_grid(devices=("pynq-z1", "xc7a50t"), seeds=(0, 1),
                            specs_ms=(5.0, 2.0), include_nas=True)
        # 2 devices x 2 seeds x (1 nas + 2 fnas) = 12 shards.
        assert len(shards) == 12
        assert shards[0].device == "pynq-z1" and shards[0].kind == "nas"
        assert shards[1].spec_ms == 5.0 and shards[2].spec_ms == 2.0

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="specs_ms"):
            sweep_grid()

    def test_shared_landscape_by_default(self):
        shards = sweep_grid(seeds=(3, 4), specs_ms=(5.0,))
        assert {s.surrogate_seed for s in shards} == {0}


class TestPlanShards:
    def test_seeds_default_to_search_seed(self):
        plan = RunPlan(
            workload="sweep",
            search=SearchPlan(seed=7),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        (shard,) = plan_shards(plan)
        assert shard.seed == 7

    def test_component_keys_flow_into_shards_and_ids(self):
        plan = RunPlan(
            workload="sweep",
            search=SearchPlan(controller="tabular"),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        (shard,) = plan_shards(plan)
        assert shard.controller == "tabular"
        assert "c-tabular" in shard.shard_id


class TestBuildAndRun:
    def test_build_search_kind_dispatch(self):
        nas = build_search(ShardSpec(dataset="mnist", device="pynq-z1",
                                     kind="nas"))
        fnas = build_search(ShardSpec(dataset="mnist", device="pynq-z1",
                                      kind="fnas", spec_ms=5.0))
        assert isinstance(nas, NasSearch)
        assert isinstance(fnas, FnasSearch)
        assert fnas.required_latency_ms == 5.0

    def test_worker_and_submitter_build_identical_searches(self):
        """The distribution premise: the spec fully determines the run."""
        spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="fnas",
                         spec_ms=5.0, seed=2, trials=8)
        a = build_search(spec).run(8, np.random.default_rng(spec.seed))
        b_payload = run_shard(spec).to_payload()
        assert [t["tokens"] for t in b_payload["result"]["trials"]] == [
            list(t.tokens) for t in a.trials
        ]

    def test_run_shard_checkpoints_and_resumes(self, tmp_path):
        spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="fnas",
                         spec_ms=5.0, trials=10)
        fresh = run_shard(spec, checkpoint_dir=str(tmp_path),
                          checkpoint_every=5).to_payload()
        assert spec.checkpoint_path(tmp_path).exists()
        assert fresh["resumed_from"] is None
        again = run_shard(spec, checkpoint_dir=str(tmp_path)).to_payload()
        assert again["resumed_from"] is not None
        assert again["result"]["trials"] == fresh["result"]["trials"]

    def test_run_shard_refuses_stale_budget_checkpoint(self, tmp_path):
        """A checkpoint written under one trial budget must not silently
        satisfy a shard requesting another (the filename does not encode
        the budget, so this needs an explicit compatibility check)."""
        base = dict(dataset="mnist", device="pynq-z1", kind="fnas",
                    spec_ms=5.0)
        run_shard(ShardSpec(trials=5, **base), checkpoint_dir=str(tmp_path),
                  checkpoint_every=2)
        with pytest.raises(ValueError, match="trials=5"):
            run_shard(ShardSpec(trials=12, **base),
                      checkpoint_dir=str(tmp_path))

    def test_run_shard_sweeps_its_stale_staging_files(self, tmp_path):
        """A snapshot writer killed between its write and its rename
        leaves a staging file; the next run of that shard removes it
        once it is past the grace, and nothing else."""
        base = dict(dataset="mnist", device="pynq-z1", kind="fnas",
                    spec_ms=5.0, trials=4)
        spec = ShardSpec(seed=0, **base)
        other = ShardSpec(seed=1, **base)
        run_shard(spec, checkpoint_dir=str(tmp_path))

        def plant(shard, writer, age):
            path = tmp_path / (
                f"{shard.checkpoint_path(tmp_path).name}.{writer}.1.tmp")
            path.write_text('{"half":')
            past = time.time() - age
            os.utime(path, (past, past))
            return path

        old = plant(spec, 4242, STAGING_GRACE_SECONDS + 3600)
        fresh = plant(spec, 4243, 0)
        foreign = plant(other, 4242, STAGING_GRACE_SECONDS + 3600)
        again = run_shard(spec, checkpoint_dir=str(tmp_path))
        assert again.resumed_from is not None
        assert not old.exists()
        assert fresh.exists()
        assert foreign.exists()
