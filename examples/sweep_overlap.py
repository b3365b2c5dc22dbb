"""Overlapping sweeps share shard results through the store.

The shard-memoization smoke the CI ``store-memo-smoke`` job runs:

1. sweep A (two timing specs) executes cold through a persistent
   result store;
2. overlapping sweep B (A's specs plus one) executes **only its novel
   shard** -- the other two are served from the store as
   ``ShardCached`` events;
3. both sweeps' canonical result bytes are byte-identical to cold runs
   of the same plans against a fresh store;
4. ``repro store gc`` with a journal holding a non-terminal job keeps
   every entry that job references (whole-plan and shard hashes) and
   reclaims the rest; once the journal says terminal, a second GC
   reclaims everything.

Run it from the repo root::

    PYTHONPATH=src python examples/sweep_overlap.py

Exit code 0 means every assertion held.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.events import SearchStarted, ShardCached  # noqa: E402
from repro.orchestration import plan_shards  # noqa: E402
from repro.plans import RunPlan, ScenarioPlan, SearchPlan, plan_hash  # noqa: E402
from repro.service import ResultStore, SearchService  # noqa: E402
from repro.service.journal import JobJournal  # noqa: E402

TRIALS = 50
SPECS_A = (5.0, 7.5)
SPECS_B = (5.0, 7.5, 10.0)


def sweep(specs):
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=TRIALS),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=specs),
    )


def run_sweep(service, plan):
    """Submit one sweep; returns (bytes, executed_ids, cached_ids)."""
    handle = service.submit(plan)
    blob = handle.result_bytes(timeout=600)
    executed = [e.scope for e in handle.events()
                if isinstance(e, SearchStarted) and e.scope != "sweep"]
    cached = [e.scope for e in handle.events()
              if isinstance(e, ShardCached)]
    return blob, executed, cached


def gc(store_dir, *extra):
    """Run the real ``repro store gc`` CLI; returns its stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "store", "gc",
         "--store-dir", str(store_dir), *extra],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    print("  gc:", line)
    return line


def main():
    workdir = Path(tempfile.mkdtemp(prefix="sweep-overlap-"))
    store_dir = workdir / "store"
    plan_a, plan_b = sweep(SPECS_A), sweep(SPECS_B)

    with SearchService(workers=1, store=ResultStore(store_dir)) as service:
        bytes_a, executed_a, cached_a = run_sweep(service, plan_a)
        assert len(executed_a) == len(SPECS_A) and not cached_a, (
            executed_a, cached_a)
        print(f"sweep A: {len(executed_a)} shard(s) executed cold")

        bytes_b, executed_b, cached_b = run_sweep(service, plan_b)
        assert executed_b == ["mnist-pynq-z1-fnas10ms-s0"], executed_b
        assert sorted(cached_b) == ["mnist-pynq-z1-fnas5ms-s0",
                                    "mnist-pynq-z1-fnas7.5ms-s0"], cached_b
        print(f"sweep B: only the novel shard executed, "
              f"{len(cached_b)} served from the store")

    # Byte-identity: cold runs of the same plans against a fresh store.
    with SearchService(
        workers=1, store=ResultStore(workdir / "cold-store")
    ) as cold:
        cold_b, _, cold_b_cached = run_sweep(cold, plan_b)
        assert not cold_b_cached
        assert cold_b == bytes_b, "sweep B must be byte-identical to cold"
        cold_a, _, cold_a_cached = run_sweep(cold, plan_a)
        # A's shards are a subset of B's: all of them come from the store,
        # and the merged bytes still match A's cold run.
        assert sorted(cold_a_cached) == sorted(cached_b), cold_a_cached
        assert cold_a == bytes_a, "sweep A must be byte-identical to cold"
    print(f"byte-identity: A ({len(bytes_a)} bytes) and B "
          f"({len(bytes_b)} bytes) match their cold runs")

    # GC: simulate a coordinator that crashed holding a re-queued sweep
    # A -- its journal entry is non-terminal, so every store entry A
    # references (whole-plan hash + shard hashes) must survive.
    with JobJournal(store_dir / "journal.jsonl") as journal:
        journal.record("queued", plan_hash(plan_a), "job-recovering",
                       plan_doc=plan_a.to_dict(), priority=0)
    gc(store_dir, "--max-age", "0")
    survivors = ResultStore(store_dir)
    assert plan_hash(plan_a) in survivors
    for shard in plan_shards(plan_a):
        assert shard.shard_hash in survivors, shard.shard_id
    assert plan_hash(plan_b) not in survivors  # dead: B is terminal
    print(f"gc: {len(survivors)} live entr(y/ies) survived, "
          "terminal sweep B reclaimed")

    # The recovering job completes; now nothing is pinned.
    with JobJournal(store_dir / "journal.jsonl") as journal:
        journal.record("done", plan_hash(plan_a), "job-recovering")
    gc(store_dir, "--max-age", "0")
    assert len(ResultStore(store_dir)) == 0
    print("gc: store empty once the journal says terminal")
    print("sweep overlap smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
