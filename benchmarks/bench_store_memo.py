"""Shard-level memoization: re-submit cost vs cold execution.

Runs one FNAS sweep cold through a persistent result store, then

* re-submits the identical sweep -- every shard must be served from
  the store (zero executions), and
* re-submits the sweep with **one changed timing spec** -- exactly one
  shard (the novel one) may execute; the rest are cache hits.

Correctness bars: the warm merged result is byte-identical to the cold
one (canonical scrubbed bytes), and the executed-shard counts are
exact, not approximate.  Emits the measurements as
``BENCH_store_memo.json`` next to the repo root so trajectory tooling
can track the re-submit cost across PRs.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.events import SearchStarted, ShardCached
from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.executor import execute_plan
from repro.service.store import (
    ResultStore,
    canonical_payload_bytes,
    encode_result,
)

SPECS_A = (2.5, 5.0, 7.5, 10.0)
SPECS_B = (2.5, 5.0, 8.0, 10.0)  # one changed spec: 7.5 -> 8.0
TRIALS = 600

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store_memo.json"


def _sweep(specs):
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=TRIALS),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=specs),
    )


def _run(plan, store):
    """Execute one sweep; returns (result, executed_ids, cached_ids)."""
    executed, cached = [], []

    def watch(event):
        if isinstance(event, ShardCached):
            cached.append(event.scope)
        elif isinstance(event, SearchStarted) and event.scope != "sweep":
            executed.append(event.scope)

    result = execute_plan(plan, emit=watch, store=store)
    return result, executed, cached


def run_memo() -> dict:
    """Cold sweep, warm re-submit, one-changed-spec re-submit."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        cold, cold_exec, cold_cached = _run(_sweep(SPECS_A), store)
        warm, warm_exec, warm_cached = _run(_sweep(SPECS_A), store)
        changed, changed_exec, changed_cached = _run(_sweep(SPECS_B), store)
    cold_bytes = canonical_payload_bytes(
        encode_result(_sweep(SPECS_A), cold)
    )
    warm_bytes = canonical_payload_bytes(
        encode_result(_sweep(SPECS_A), warm)
    )
    return {
        "shards": len(SPECS_A),
        "trials_per_shard": TRIALS,
        "cold": {"wall_seconds": cold.wall_seconds,
                 "executed": len(cold_exec), "cached": len(cold_cached)},
        "warm": {"wall_seconds": warm.wall_seconds,
                 "executed": len(warm_exec), "cached": len(warm_cached)},
        "one_changed_spec": {
            "wall_seconds": changed.wall_seconds,
            "executed": len(changed_exec), "cached": len(changed_cached),
            "executed_ids": changed_exec,
        },
        "warm_bytes_identical": warm_bytes == cold_bytes,
        "resubmit_speedup": cold.wall_seconds / max(
            changed.wall_seconds, 1e-9
        ),
    }


def test_store_memo(once, emit):
    data = once(run_memo)

    emit("\n=== Shard memoization: re-submit cost (FNAS, MNIST/PYNQ) ===")
    emit(f"{'run':>18} {'executed':>8} {'cached':>6} {'wall(s)':>8}")
    for label in ("cold", "warm", "one_changed_spec"):
        row = data[label]
        emit(f"{label:>18} {row['executed']:>8} {row['cached']:>6} "
             f"{row['wall_seconds']:>8.3f}")
    emit(f"one-changed-spec re-submit: {data['resubmit_speedup']:.1f}x "
         "faster than cold")

    OUTPUT_PATH.write_text(json.dumps(
        {"benchmark": "store_memo", **data}, indent=2
    ) + "\n")
    emit(f"wrote {OUTPUT_PATH.name}")

    # The acceptance bars, exact by construction.
    assert data["cold"] == {
        "wall_seconds": data["cold"]["wall_seconds"],
        "executed": len(SPECS_A), "cached": 0,
    }
    assert data["warm"]["executed"] == 0
    assert data["warm"]["cached"] == len(SPECS_A)
    assert data["warm_bytes_identical"]
    assert data["one_changed_spec"]["executed"] == 1
    assert data["one_changed_spec"]["executed_ids"] == [
        "mnist-pynq-z1-fnas8ms-s0"
    ]
    assert data["one_changed_spec"]["cached"] == len(SPECS_A) - 1
    # The changed re-submit pays ~one shard, not four: strictly cheaper
    # than cold by a comfortable margin even on noisy runners.
    assert data["resubmit_speedup"] > 1.5
