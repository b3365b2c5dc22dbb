"""Federation throughput and failover recovery latency.

Two measurements against a live HTTP coordinator:

* **throughput** -- the same batch of CPU-bound single-search plans
  (distinct seeds, nothing dedups) pushed through 1 worker agent and
  then through 2, measuring end-to-end jobs/second.  Each agent runs
  one job at a time in its own subprocess, so on a multi-core host two
  agents should beat one by a clear margin (the scaling bar is skipped
  loudly below 4 cores, where two busy agents plus the coordinator
  cannot all run at once).

* **recovery latency** -- one agent armed (via ``REPRO_CRASH_POINTS``)
  to SIGKILL itself mid event stream while holding the lease on a job;
  measures how long after the agent's death the coordinator expires
  the lease and re-queues the job, and how long until the job still
  completes (locally, zero agents left) with a full result.

Emits the measurements as ``BENCH_federation.json`` next to the repo
root so trajectory tooling can track federation scaling across PRs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.agent import WorkerAgent
from repro.service.client import ServiceClient
from repro.service.faults import CRASH_POINTS_ENV
from repro.service.gateway import GatewayRunner

JOBS = 4
TRIALS = 300
RECOVERY_TRIALS = 600
LEASE_SECONDS = 1.0

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_federation.json"
SRC = REPO_ROOT / "src"


@dataclass(frozen=True)
class ThroughputPoint:
    """One measured (agent count) federation configuration."""

    agents: int
    jobs: int
    trials_per_job: int
    wall_seconds: float
    jobs_per_second: float


def _plans(trials=TRIALS):
    return [
        RunPlan(
            workload="search",
            search=SearchPlan(seed=seed, trials=trials),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        for seed in range(JOBS)
    ]


def _coordinator(tmp_path) -> GatewayRunner:
    """A live HTTP coordinator over throwaway directories."""
    return GatewayRunner(
        workers=1, store_dir=str(tmp_path / "store"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        lease_seconds=LEASE_SECONDS, drain_grace=0).start()


def _run_throughput(tmp_path, agent_count) -> ThroughputPoint:
    """Push every plan through ``agent_count`` in-process agents."""
    coordinator = _coordinator(tmp_path / f"agents-{agent_count}")
    client = ServiceClient(coordinator.base_url)
    agents = [WorkerAgent(coordinator.base_url, name=f"bench-{i}",
                          poll_seconds=0.02)
              for i in range(agent_count)]
    runners = []
    try:
        for agent in agents:
            agent.register()
        started = time.perf_counter()
        submitted = [client.submit(plan) for plan in _plans()]
        for agent in agents:
            runner = threading.Thread(target=agent.run, daemon=True)
            runner.start()
            runners.append(runner)
        for info in submitted:
            final = client.wait(info["job_id"], timeout=3600)
            assert final["state"] == "done", final
        wall = time.perf_counter() - started
    finally:
        for agent in agents:
            agent.stop()
        for runner in runners:
            runner.join(timeout=60)
        coordinator.stop()
    return ThroughputPoint(
        agents=agent_count, jobs=JOBS, trials_per_job=TRIALS,
        wall_seconds=wall, jobs_per_second=JOBS / wall,
    )


def _run_recovery(tmp_path) -> dict:
    """Kill a lease holder; time the re-queue and the completion."""
    coordinator = _coordinator(tmp_path / "recovery")
    client = ServiceClient(coordinator.base_url)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env[CRASH_POINTS_ENV] = "agent.event=3"  # die mid event stream
    doomed = subprocess.Popen(
        [sys.executable, "-m", "repro", "agent",
         "--coordinator", coordinator.base_url,
         "--agent-id", "doomed", "--name", "doomed",
         "--poll-seconds", "0.05", "--max-jobs", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.health()["agents"] == 1:
                break
            time.sleep(0.02)
        assert client.health()["agents"] == 1, "agent never registered"
        plan = _plans(trials=RECOVERY_TRIALS)[0]
        info = client.submit(plan)
        job_id = info["job_id"]
        assert doomed.wait(timeout=120) == -9
        died_at = time.perf_counter()
        requeue_latency = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            events = client.events(job_id)["events"]
            if any(e["event"] == "lease-expired" for e in events):
                requeue_latency = time.perf_counter() - died_at
                break
            time.sleep(0.01)
        assert requeue_latency is not None, "lease never expired"
        final = client.wait(job_id, timeout=600)
        completion_latency = time.perf_counter() - died_at
        assert final["state"] == "done", final
        result = json.loads(client.result_bytes(job_id))
        assert len(result["trials"]) == RECOVERY_TRIALS
    finally:
        if doomed.poll() is None:
            doomed.kill()
            doomed.wait(timeout=30)
        coordinator.stop()
    return {
        "lease_seconds": LEASE_SECONDS,
        "trials": RECOVERY_TRIALS,
        "requeue_latency_seconds": requeue_latency,
        "completion_latency_seconds": completion_latency,
    }


def run_federation(tmp_path):
    """Measure throughput at 1 and 2 agents, then recovery latency."""
    points = [_run_throughput(tmp_path, count) for count in (1, 2)]
    recovery = _run_recovery(tmp_path)
    return points, recovery


def test_federation_throughput_and_recovery(tmp_path, once, emit):
    points, recovery = once(run_federation, tmp_path)
    single, double = points
    speedup = double.jobs_per_second / single.jobs_per_second
    cores = os.cpu_count() or 1

    emit("\n=== Federation throughput (jobs/s vs agent count) ===")
    emit(f"host cpu_count: {cores}")
    emit(f"{'agents':>6} {'jobs':>5} {'trials':>6} {'wall(s)':>8} "
         f"{'jobs/s':>7}")
    for p in points:
        emit(f"{p.agents:>6} {p.jobs:>5} {p.trials_per_job:>6} "
             f"{p.wall_seconds:>8.3f} {p.jobs_per_second:>7.3f}")
    emit(f"2 agents vs 1: {speedup:.2f}x")
    emit(f"recovery after SIGKILL (lease {recovery['lease_seconds']}s): "
         f"re-queued in {recovery['requeue_latency_seconds']:.2f}s, "
         f"completed in {recovery['completion_latency_seconds']:.2f}s")

    OUTPUT_PATH.write_text(json.dumps(
        {
            "benchmark": "federation_throughput_and_recovery",
            "cpu_count": cores,
            "jobs": JOBS,
            "trials_per_job": TRIALS,
            "throughput": [asdict(p) for p in points],
            "two_agent_speedup": speedup,
            "recovery": recovery,
        },
        indent=2,
    ) + "\n")
    emit(f"wrote {OUTPUT_PATH.name}")

    # Recovery must be lease-bounded: the coordinator has to notice the
    # dead agent within a few lease terms, not "eventually".
    assert recovery["requeue_latency_seconds"] < LEASE_SECONDS * 5 + 2.0, (
        recovery
    )
    if cores < 4:
        pytest.skip(
            f"agent-scaling bar needs >= 4 cores, host has {cores}; "
            f"measured {speedup:.2f}x ({OUTPUT_PATH.name} written)"
        )
    # Two single-job agents over one: comfortably parallel, even with
    # coordinator overhead in the loop.
    assert speedup >= 1.3, (
        f"2 agents only {speedup:.2f}x over 1 on {cores} cores"
    )
