"""Campaign runner: merge determinism, Pareto merging, worker recovery.

The acceptance criterion under test: ``N > 1`` shards merge to the same
campaign result as the serial order -- and a shard whose worker dies is
re-queued and *resumed* from its last checkpoint, still converging to
that same result.
"""

import json
import os

import pytest

from repro.core.search import TrialRecord
from repro.experiments.pareto import frontier_from_trials
from repro.orchestration import (
    Campaign,
    CampaignResult,
    ShardSpec,
    merge_outcomes,
    plan_shards,
    run_shard,
    save_campaign_result,
)
from repro.orchestration.shards import build_search
from repro.plans import RunPlan, ScenarioPlan, SearchPlan


def small_grid(trials=6):
    return plan_shards(RunPlan(
        workload="sweep",
        search=SearchPlan(trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              seeds=(0, 1), specs_ms=(5.0,),
                              include_nas=True),
    ))


def stable_dict(result: CampaignResult) -> str:
    """Campaign payload minus wall-clock noise and execution metadata
    (how a shard got to its result -- requeues, resume provenance -- is
    allowed to differ; the result itself is not)."""
    payload = result.to_dict()
    payload.pop("wall_seconds")
    for shard in payload["shards"]:
        shard["result"].pop("wall_seconds")
        shard.pop("requeues")
        shard.pop("resumed_from")
    return json.dumps(payload, sort_keys=True)


class TestCampaignValidation:
    def test_needs_shards(self):
        with pytest.raises(ValueError, match="at least one"):
            Campaign([])

    def test_rejects_duplicate_ids(self):
        spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="nas")
        with pytest.raises(ValueError, match="unique"):
            Campaign([spec, spec])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            Campaign(small_grid()).run(max_workers=0)

    def test_rejects_cadence_without_directory(self):
        """checkpoint_every with nowhere to snapshot is a silent no-op
        waiting to lose someone's progress; fail fast instead."""
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Campaign(small_grid(), checkpoint_every=5)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_shard(small_grid()[0], checkpoint_dir=None,
                      checkpoint_every=5)


class TestOutcomeHandOff:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_store_less_campaign_decodes_no_ledger(self, monkeypatch,
                                                   max_workers):
        """A shard's outcome reaches the campaign as is, serial or
        pooled: a campaign with no store decodes no ledger."""
        import repro.orchestration.campaign as campaign_mod

        def forbidden(data):
            raise AssertionError("a shard ledger was decoded")

        monkeypatch.setattr(campaign_mod, "search_result_from_dict",
                            forbidden)
        shards = small_grid()[:2]
        result = Campaign(shards).run(max_workers=max_workers)
        assert [o.spec for o in result.outcomes] == shards
        assert [len(o.result.trials) for o in result.outcomes] == [6, 6]


class TestMergeDeterminism:
    def test_parallel_equals_serial(self, tmp_path):
        """The acceptance criterion, head-on."""
        shards = small_grid()
        serial = Campaign(shards).run(max_workers=1)
        pooled = Campaign(shards, checkpoint_dir=tmp_path / "ck").run(
            max_workers=3)
        assert stable_dict(serial) == stable_dict(pooled)

    def test_merge_ignores_outcome_arrival_order(self):
        """merge_outcomes is a pure fold over grid order: feeding it the
        outcomes is enough; no completion-order state leaks in."""
        shards = small_grid()
        outcomes = [run_shard(spec) for spec in shards]
        frontier_fwd = merge_outcomes(outcomes)
        frontier_same = merge_outcomes(list(outcomes))
        assert [(p.latency_ms, p.accuracy) for p in frontier_fwd.points] == \
               [(p.latency_ms, p.accuracy) for p in frontier_same.points]

    def test_outcomes_stay_in_grid_order(self):
        shards = small_grid()
        result = Campaign(shards).run(max_workers=3)
        assert [o.spec.shard_id for o in result.outcomes] == \
               [s.shard_id for s in shards]


class TestParetoMerging:
    def _trial(self, space, index, latency, accuracy):
        arch = space.decode([0] * space.num_decisions)
        return TrialRecord(index=index, tokens=(0,), architecture=arch,
                           latency_ms=latency, accuracy=accuracy,
                           reward=0.0, trained=accuracy is not None,
                           sim_seconds=1.0)

    def test_frontier_from_trials_dominance(self):
        from repro.configs import MNIST_CONFIG
        from repro.core.search_space import SearchSpace

        space = SearchSpace.from_config(MNIST_CONFIG)
        trials = [
            self._trial(space, 0, 4.0, 0.99),
            self._trial(space, 1, 2.0, 0.98),
            self._trial(space, 2, 3.0, 0.97),   # dominated by trial 1
            self._trial(space, 3, 6.0, 0.95),   # dominated by trial 0
            self._trial(space, 4, 5.0, None),   # pruned: not a candidate
            self._trial(space, 5, None, 0.99),  # no latency: skipped
        ]
        frontier = frontier_from_trials(trials)
        assert [(p.latency_ms, p.accuracy) for p in frontier.points] == [
            (2.0, 0.98), (4.0, 0.99),
        ]
        assert frontier.evaluated_count == 4
        assert not frontier.exhaustive

    def test_shard_merge_equals_concatenated_ledger_frontier(self):
        """Merging shard-by-shard must equal one frontier over the
        concatenation of every shard's trials."""
        shards = small_grid(trials=8)
        outcomes = [run_shard(spec) for spec in shards]
        merged = merge_outcomes(outcomes)
        concatenated = frontier_from_trials(
            [t for o in outcomes for t in o.result.trials]
        )
        assert [(p.latency_ms, p.accuracy) for p in merged.points] == \
               [(p.latency_ms, p.accuracy) for p in concatenated.points]
        # And the frontier is genuinely non-dominated.
        points = merged.points
        for earlier, later in zip(points, points[1:]):
            assert later.latency_ms >= earlier.latency_ms
            assert later.accuracy > earlier.accuracy


#: Module-level config for the dying worker stubs below.  Pool
#: submission pickles callables by module path, so the stubs must be
#: module-level; forked workers inherit this dict's values.
_DEATH_CONFIG: dict = {}


def _die_once_run_shard(spec, ck_dir=None, ck_every=None,
                        should_stop=None):
    """Run ``spec`` normally, except: the configured victim shard makes
    some checkpoints and then hard-kills its worker -- once."""
    sentinel = _DEATH_CONFIG["sentinel"]
    if spec.shard_id == _DEATH_CONFIG["victim"] and not sentinel.exists():
        # Die *after* some checkpoints exist so the re-queued shard
        # actually exercises the resume path.
        import numpy as np
        search = build_search(spec)
        path = spec.checkpoint_path(ck_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            search.run(
                spec.resolved_trials, np.random.default_rng(spec.seed),
                checkpoint_every=4, checkpoint_path=path,
            )
        finally:
            sentinel.write_text("dead once")
            os._exit(1)
    return run_shard(spec, ck_dir, ck_every, should_stop=should_stop)


def _die_in_workers_run_shard(spec, ck_dir=None, ck_every=None,
                              should_stop=None):
    """Kill every pool worker; run normally in the submitting process
    (so the campaign's serial fallback can still succeed)."""
    if os.getpid() != _DEATH_CONFIG["parent_pid"]:
        os._exit(1)
    return run_shard(spec, ck_dir, ck_every, should_stop=should_stop)


class TestWorkerDeathRecovery:
    def test_dead_worker_shard_is_requeued_and_resumed(
        self, tmp_path, monkeypatch
    ):
        """Kill the worker mid-shard (hard ``os._exit``, as OOM killers
        do); the campaign must rebuild the pool, re-queue the shard, and
        the resumed shard must produce the exact uninterrupted ledger."""
        shards = small_grid(trials=10)
        victim = shards[1].shard_id
        sentinel = tmp_path / "already-died"
        checkpoint_dir = tmp_path / "ck"
        monkeypatch.setitem(_DEATH_CONFIG, "victim", victim)
        monkeypatch.setitem(_DEATH_CONFIG, "sentinel", sentinel)

        from repro.orchestration import campaign as campaign_mod
        monkeypatch.setattr(campaign_mod, "run_shard", _die_once_run_shard)

        events = []
        result = Campaign(
            shards, checkpoint_dir=checkpoint_dir, checkpoint_every=4,
            progress=events.append,
        ).run(max_workers=2)

        assert sentinel.exists(), "victim worker never died"
        requeued = [e for e in events if e.kind == "requeue"]
        assert any(e.scope == victim for e in requeued)
        victim_outcome = result.outcome(victim)
        assert victim_outcome.requeues >= 1
        assert victim_outcome.resumed_from is not None

        # The recovered campaign equals a never-interrupted serial one.
        monkeypatch.setattr(campaign_mod, "run_shard", run_shard)
        clean = Campaign(shards).run(max_workers=1)
        assert stable_dict(result) == stable_dict(clean)

    def test_worker_deaths_stay_out_of_the_stored_bytes(
        self, tmp_path, monkeypatch
    ):
        """A sweep's stored bytes are the same whether a worker died
        under it or not; decoding puts the real re-queue count back."""
        from repro.orchestration import campaign as campaign_mod
        from repro.service.store import EncodedResult, canonical_payload_bytes

        shards = small_grid(trials=6)
        clean = Campaign(shards, checkpoint_dir=tmp_path / "clean").run(
            max_workers=2)
        monkeypatch.setitem(_DEATH_CONFIG, "victim", shards[1].shard_id)
        monkeypatch.setitem(_DEATH_CONFIG, "sentinel",
                            tmp_path / "already-died")
        monkeypatch.setattr(campaign_mod, "run_shard", _die_once_run_shard)
        died = Campaign(shards, checkpoint_dir=tmp_path / "died").run(
            max_workers=2)
        assert died.requeued_shards == 1
        encoded = EncodedResult.of(died.to_dict())
        assert encoded.blob == canonical_payload_bytes(clean.to_dict())
        decoded = CampaignResult.from_dict(encoded.payload())
        assert decoded.outcome(shards[1].shard_id).requeues == 1

    def test_pool_exhaustion_falls_back_to_in_process(
        self, tmp_path, monkeypatch
    ):
        """When the pool keeps dying, the campaign must still finish --
        serially, in the submitting process."""
        shards = small_grid(trials=6)
        monkeypatch.setitem(_DEATH_CONFIG, "parent_pid", os.getpid())

        from repro.orchestration import campaign as campaign_mod
        monkeypatch.setattr(campaign_mod, "run_shard",
                            _die_in_workers_run_shard)

        events = []
        result = Campaign(
            shards, checkpoint_dir=tmp_path / "ck", max_pool_restarts=1,
            progress=events.append,
        ).run(max_workers=2)
        assert len(result.outcomes) == len(shards)
        assert any(e.kind == "fallback" for e in events)
        # Worker death re-queues exactly the shards that died with the
        # worker (per-shard granularity), so at least one shard carries
        # a requeue -- but shards the give-up left undispatched don't.
        assert result.requeued_shards >= 1


class TestCampaignArtifacts:
    def test_artifact_round_trip(self, tmp_path):
        result = Campaign(small_grid()).run(max_workers=1)
        path = tmp_path / "campaign.json"
        save_campaign_result(result, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert len(payload["shards"]) == len(result.outcomes)
        assert len(payload["frontier"]) == len(result.frontier.points)
        specs = [ShardSpec.from_dict(s["spec"]) for s in payload["shards"]]
        assert [s.shard_id for s in specs] == \
               [o.spec.shard_id for o in result.outcomes]

    def test_summary_accessors(self):
        result = Campaign(small_grid(trials=5)).run(max_workers=1)
        assert result.total_trials == 5 * len(result.outcomes)
        assert result.requeued_shards == 0
        assert 0.9 < result.best_accuracy() <= 1.0
        assert "campaign frontier" in result.format()
        with pytest.raises(KeyError, match="unknown shard"):
            result.outcome("nope")


class TestExecutionRuntimeIdentity:
    """The tentpole invariant: every execution surface -- serial,
    pooled-with-reused-workers, batched-shards, the service's
    process backend -- produces byte-identical stored shard entries
    and the same merged campaign result."""

    def _stored_bytes(self, directory):
        """A leg's store entries as {name: bytes}.

        The directory must hold nothing but ``*.json`` result entries:
        no cache subdirectory (workers keep tilings in memory) and no
        temp file left behind by a write."""
        entries = sorted(directory.iterdir())
        strays = [p.name for p in entries
                  if not (p.is_file() and p.suffix == ".json")]
        assert strays == [], f"{directory.name}: {strays}"
        return {p.name: p.read_bytes() for p in entries}

    def test_byte_identity_wall(self, tmp_path):
        from repro.service import ResultStore
        from repro.service.pool import WorkerPool

        plan = RunPlan(
            workload="sweep",
            search=SearchPlan(trials=6),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,), seeds=(0, 1),
                                  include_nas=True),
        )
        shards = plan_shards(plan)
        assert len(shards) > 1

        dirs = {leg: tmp_path / leg for leg in
                ("serial", "pooled", "batched", "process")}
        serial = Campaign(shards, store=ResultStore(dirs["serial"])).run(
            max_workers=1)
        with WorkerPool(2, name="identity-wall") as pool:
            pooled = Campaign(shards, pool=pool,
                              store=ResultStore(dirs["pooled"])).run(
                max_workers=2)
            # More dispatch units than workers: a worker was reused.
            assert pool.stats()["worker.reuse"] > 0
            # The service's process backend, on the same shared pool.
            encoded = pool.run_plan(
                plan, emit=lambda event: None,
                cancel_requested=lambda: False,
                store_dir=str(dirs["process"]),
            )
        assert encoded is not None
        batched = Campaign(shards, batch_trials=100,
                           store=ResultStore(dirs["batched"])).run(
            max_workers=2)

        assert stable_dict(serial) == stable_dict(pooled) \
               == stable_dict(batched)
        reference = self._stored_bytes(dirs["serial"])
        assert len(reference) == len(shards)
        for leg in ("pooled", "batched", "process"):
            assert self._stored_bytes(dirs[leg]) == reference, leg

    def test_warm_worker_stores_the_bytes_of_fresh_workers(self, tmp_path):
        """One pool worker keeps its estimator across jobs: plans run
        back to back on it store what each stores on a fresh worker."""
        from repro.service import WorkerPool

        plans = [
            RunPlan(workload="search", search=SearchPlan(seed=seed, trials=12),
                    scenario=ScenarioPlan(datasets=("mnist",),
                                          devices=(device,),
                                          specs_ms=(spec,)))
            for seed, device, spec in ((0, "pynq-z1", 5.0),
                                       (1, "pynq-z1", 8.0),
                                       (2, "xc7z020-ddr-narrow", 5.0),
                                       (3, "pynq-z1", 10.0))
        ]
        plans.append(RunPlan(
            workload="sweep", search=SearchPlan(trials=6),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0, 8.0), seeds=(4,),
                                  include_nas=True)))

        def run(pool, plan, directory):
            return pool.run_plan(
                plan, emit=lambda event: None,
                cancel_requested=lambda: False,
                store_dir=str(directory)).blob

        with WorkerPool(1, name="warm-leg") as pool:
            warm = [run(pool, plan, tmp_path / "warm") for plan in plans]
            assert pool.stats()["worker.spawn"] == 1
        fresh = []
        for plan in plans:
            with WorkerPool(1, name="fresh-leg") as pool:
                fresh.append(run(pool, plan, tmp_path / "fresh"))
        assert warm == fresh
        assert (self._stored_bytes(tmp_path / "warm")
                == self._stored_bytes(tmp_path / "fresh"))

    def test_batching_packs_small_shards_and_isolates_large(self):
        shards = small_grid(trials=6)          # 4 shards x 6 trials
        pending = {s.shard_id: s for s in shards}
        campaign = Campaign(shards, batch_trials=13)
        units = campaign._dispatch_units(pending)
        # 6+6 <= 13, adding a third would exceed: two units of two.
        assert [[s.shard_id for s in u] for u in units] == [
            [shards[0].shard_id, shards[1].shard_id],
            [shards[2].shard_id, shards[3].shard_id],
        ]
        # At/above the threshold a shard always travels alone.
        assert all(
            len(u) == 1
            for u in Campaign(shards, batch_trials=6)._dispatch_units(pending)
        )
        assert all(
            len(u) == 1 for u in Campaign(shards)._dispatch_units(pending)
        )

    def test_rejects_bad_batch_threshold(self):
        with pytest.raises(ValueError, match="batch_trials"):
            Campaign(small_grid(), batch_trials=0)


class TestBatchDeathRecovery:
    def test_worker_killed_mid_batch_requeues_siblings_individually(
        self, tmp_path, monkeypatch
    ):
        """A batch never dies as a block: the victim's unfinished
        *siblings* re-queue as their own units, the victim resumes from
        its checkpoint, and the recovered campaign equals a clean one."""
        shards = small_grid(trials=10)         # 4 shards x 10 trials
        victim = shards[1].shard_id
        monkeypatch.setitem(_DEATH_CONFIG, "victim", victim)
        monkeypatch.setitem(_DEATH_CONFIG, "sentinel",
                            tmp_path / "already-died")

        from repro.orchestration import campaign as campaign_mod
        monkeypatch.setattr(campaign_mod, "run_shard", _die_once_run_shard)

        events = []
        # batch_trials=30 packs shards 0-2 into one unit (10+10+10),
        # shard 3 alone; the victim dies mid-unit with shard 2 unstarted.
        result = Campaign(
            shards, checkpoint_dir=tmp_path / "ck", checkpoint_every=4,
            progress=events.append, batch_trials=30,
        ).run(max_workers=2)

        requeued = {e.scope for e in events if e.kind == "requeue"}
        assert requeued == {victim, shards[2].shard_id}
        assert result.outcome(victim).requeues == 1
        assert result.outcome(victim).resumed_from is not None
        assert result.outcome(shards[2].shard_id).requeues == 1
        assert result.outcome(shards[0].shard_id).requeues == 0

        monkeypatch.setattr(campaign_mod, "run_shard", run_shard)
        clean = Campaign(shards).run(max_workers=1)
        assert stable_dict(result) == stable_dict(clean)
