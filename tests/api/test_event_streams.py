"""Golden event streams: one plan, three surfaces, one typed sequence.

The redesign's core invariant: Session, Campaign and SearchService all
execute a single-search plan through the same engine, so the typed
search-level event sequence -- classes, scopes *and* messages -- must be
identical whichever surface ran it.  Checked for the plain, batched and
checkpointed (sharded-runtime) variants.

The experiment workloads' streams are pinned too: the exact
``(class, scope, message)`` sequence :func:`execute_plan` emits for
Table 1 (in-process and checkpointed) and Figure 9, and a checkpointed
paired run forwards its campaign's events as the very same objects.
"""

import dataclasses

import pytest

from repro.api import Session
from repro.events import Event, SearchFinished, SearchStarted, ShardCached
from repro.experiments.figure9 import figure9_plan
from repro.experiments.table1 import table1_plan
from repro.orchestration import Campaign, ShardSpec
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.service import SearchService
from repro.service.executor import execute_plan

TRIALS = 5


def single_search_plan(**execution):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=3, trials=TRIALS),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def search_events(events):
    """The search-level subsequence, as comparable (type, scope, message)."""
    return [
        (type(e).__name__, e.scope, e.message)
        for e in events
        if isinstance(e, (SearchStarted, SearchFinished))
        and e.scope != "sweep"
    ]


def via_session(plan):
    events = []
    session = Session.from_plan(plan)
    session.subscribe(events.append)
    session.run()
    return search_events(events)


def via_campaign(plan):
    events = []
    Campaign(
        [ShardSpec.from_plan(plan)],
        checkpoint_dir=plan.execution.checkpoint_dir,
        checkpoint_every=plan.execution.checkpoint_every,
        progress=events.append,
    ).run(max_workers=1)
    return search_events(events)


def via_service(plan):
    with SearchService(workers=1) as service:
        handle = service.submit(plan)
        handle.result(timeout=300)
        return search_events(handle.events())


VARIANTS = {
    "plain": {},
    "batched": {"batch_size": 2},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_all_surfaces_emit_the_identical_search_sequence(variant):
    plan = single_search_plan(**VARIANTS[variant])
    session_seq = via_session(plan)
    campaign_seq = via_campaign(plan)
    service_seq = via_service(plan)
    assert session_seq == campaign_seq == service_seq
    # And the sequence itself is the expected golden shape.
    shard_id = ShardSpec.from_plan(plan).shard_id
    assert session_seq == [
        ("SearchStarted", shard_id, "running in-process"),
        ("SearchFinished", shard_id, f"{TRIALS} trials"),
    ]


def test_checkpointed_variant_matches_across_surfaces(tmp_path):
    """The sharded/durable runtime: same sequence, snapshots on disk.

    Each surface gets its own checkpoint directory so no surface
    resumes another's snapshot; the typed event sequence must still be
    identical (shard ids do not encode the checkpoint location).
    """
    sequences = {}
    for name, runner in (("session", via_session),
                         ("campaign", via_campaign),
                         ("service", via_service)):
        plan = single_search_plan(
            checkpoint_dir=str(tmp_path / name), checkpoint_every=2
        )
        sequences[name] = runner(plan)
        assert list((tmp_path / name).glob("*.checkpoint.json"))
    assert sequences["session"] == sequences["campaign"] \
        == sequences["service"]


def test_session_still_wraps_search_events_in_run_events():
    """Session adds the workload envelope around the shared sequence."""
    events = []
    session = Session.from_plan(single_search_plan())
    session.subscribe(events.append)
    session.run()
    kinds = [(e.kind, e.scope) for e in events]
    assert ("start", "search") in kinds
    assert ("finish", "search") in kinds
    start = kinds.index(("start", "search"))
    finish = kinds.index(("finish", "search"))
    inner = [k for k, _ in kinds[start + 1:finish]]
    assert inner == ["start", "finish"]  # the shard's start/finish


# --- the experiments' streams, pinned ---------------------------------------


def typed_stream(plan):
    """Every event ``execute_plan`` emits, as (class, scope, message)."""
    events = []
    execute_plan(plan, emit=events.append)
    return [(type(e).__name__, e.scope, e.message) for e in events]


def test_table1_stream_is_pinned():
    assert typed_stream(table1_plan(trials=3)) == [
        ("RunStarted", "table1", "session started"),
        ("SearchStarted", "nas", "3 trials on mnist"),
        ("SearchFinished", "nas", "3 trials"),
        ("SearchStarted", "fnas-10ms", "3 trials on mnist"),
        ("SearchFinished", "fnas-10ms", "3 trials"),
        ("SearchStarted", "fnas-5ms", "3 trials on mnist"),
        ("SearchFinished", "fnas-5ms", "3 trials"),
        ("SearchStarted", "fnas-2ms", "3 trials on mnist"),
        ("SearchFinished", "fnas-2ms", "4 trials"),
        ("RunFinished", "table1", "session finished"),
    ]


def test_checkpointed_table1_stream_is_pinned(tmp_path):
    plan = table1_plan(
        trials=3, execution=ExecutionPolicy(checkpoint_dir=str(tmp_path))
    )
    assert typed_stream(plan) == [
        ("RunStarted", "table1", "session started"),
        ("SearchStarted", "mnist-pynq-z1-nas-s0", "running in-process"),
        ("SearchFinished", "mnist-pynq-z1-nas-s0", "3 trials"),
        ("SearchStarted", "mnist-pynq-z1-fnas10ms-s1-ss0",
         "running in-process"),
        ("SearchFinished", "mnist-pynq-z1-fnas10ms-s1-ss0", "3 trials"),
        ("SearchStarted", "mnist-pynq-z1-fnas5ms-s2-ss0",
         "running in-process"),
        ("SearchFinished", "mnist-pynq-z1-fnas5ms-s2-ss0", "3 trials"),
        ("SearchStarted", "mnist-pynq-z1-fnas2ms-s3-ss0",
         "running in-process"),
        ("SearchFinished", "mnist-pynq-z1-fnas2ms-s3-ss0", "4 trials"),
        ("RunFinished", "table1", "session finished"),
    ]


def test_figure9_stream_is_pinned():
    """One base :class:`Event` per frontier; the CLI prints ``[event]``."""
    events = []
    execute_plan(figure9_plan(samples=8, seed=1), emit=events.append)
    fronts = events[1:-1]
    assert [type(e) for e in fronts] == [Event] * 4
    assert [e.kind for e in fronts] == ["event"] * 4
    assert [(e.scope, e.message) for e in fronts] == [
        ("xc7z020-ddr-wide", "separable: 4 frontier point(s) from 8 sampled"),
        ("xc7z020-ddr-narrow",
         "separable: 3 frontier point(s) from 8 sampled"),
        ("xc7z020-ddr-wide", "standard: 4 frontier point(s) from 8 sampled"),
        ("xc7z020-ddr-narrow", "standard: 3 frontier point(s) from 8 sampled"),
    ]
    assert [type(e).__name__ for e in (events[0], events[-1])] == [
        "RunStarted", "RunFinished"]


def test_checkpointed_paired_run_forwards_campaign_events(tmp_path,
                                                          monkeypatch):
    """Campaign events reach ``execute_plan``'s caller unchanged."""
    import repro.orchestration

    planted = ShardCached("planted-shard", "served from the store",
                          plan_hash="ab" * 32)

    class PlantingCampaign(Campaign):
        def run(self, *args, **kwargs):
            self._publish(planted)
            return super().run(*args, **kwargs)

    monkeypatch.setattr(repro.orchestration, "Campaign", PlantingCampaign)
    plan = RunPlan(
        workload="paired",
        search=SearchPlan(trials=3),
        execution=ExecutionPolicy(checkpoint_dir=str(tmp_path)),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,), include_nas=True),
    )
    events = []
    execute_plan(plan, emit=events.append)
    assert any(event is planted for event in events)
