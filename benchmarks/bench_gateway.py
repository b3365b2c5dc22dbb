"""Gateway fanout: event-delivery latency under hundreds of streams.

4 long jobs are held queued behind blockers while 200 SSE streams and
50 long-pollers attach to a live gateway, then released; every
consumer's receipt of its job's ``job-completed`` event is timed
against the moment the service published it.  The gateway's wakeup
fanout (one ``asyncio.Event`` per watcher, set from the service's
job-listener hook) should deliver with a p99 well under 250 ms even
with hundreds of parked connections on one asyncio loop.

Emits the measurements as ``BENCH_gateway.json`` next to the repo
root so trajectory tooling can track fanout latency across PRs.  The
p99 latency bar is skipped loudly below 4 cores (a single busy core
runs 250 consumer threads, 4 search jobs, and the event loop in
strict turns -- scheduling noise, not fanout cost, dominates there),
but the JSON is always written.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.events import JobCompleted
from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient
from repro.service.gateway import GatewayRunner
from pathlib import Path

SSE_STREAMS = 200
LONG_POLLERS = 50
JOBS = 4
TRIALS = 400
P99_BAR_SECONDS = 0.250

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_gateway.json"


def _plans(count=JOBS, trials=TRIALS, base_seed=0):
    return [
        RunPlan(
            workload="search",
            search=SearchPlan(seed=base_seed + n, trials=trials),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0,)),
        )
        for n in range(count)
    ]


def _percentile(samples, fraction):
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(len(ranked) * fraction))]


def _sse_consumer(url, job_id, completed_at, latencies, errors):
    try:
        client = ServiceClient(url)
        for frame in client.stream_events(job_id):
            if frame["event"] == "job-completed":
                latencies.append(
                    time.perf_counter() - completed_at[job_id])
                return
        errors.append(f"{job_id}: stream ended without completion")
    except Exception as exc:  # noqa: BLE001 - tallied, not raised
        errors.append(f"{job_id}: {exc}")


def _poll_consumer(url, job_id, completed_at, latencies, errors):
    try:
        client = ServiceClient(url)
        cursor = 0
        deadline = time.monotonic() + 600
        while time.monotonic() < deadline:
            page = client.events(job_id, since=cursor, wait=30)
            cursor = page["next"]
            if any(e["event"] == "job-completed"
                   for e in page["events"]):
                latencies.append(
                    time.perf_counter() - completed_at[job_id])
                return
            if page["state"] in ("done", "failed", "cancelled"):
                break
        errors.append(f"{job_id}: poller never saw completion")
    except Exception as exc:  # noqa: BLE001 - tallied, not raised
        errors.append(f"{job_id}: {exc}")


def run_gateway_fanout(tmp_path) -> dict:
    """Time publish -> receipt across SSE_STREAMS + LONG_POLLERS."""
    runner = GatewayRunner(workers=JOBS,
                           checkpoint_dir=str(tmp_path / "ckpt")).start()
    completed_at: dict[str, float] = {}

    def on_event(event):
        if isinstance(event, JobCompleted):
            completed_at[event.scope] = time.perf_counter()

    runner.service.bus.subscribe(on_event)
    client = ServiceClient(runner.base_url)
    try:
        # Blockers pin every worker so the measured jobs stay queued
        # while the consumer crowd attaches; cancelling the blockers
        # then releases all four at once.
        blockers = [client.submit(p)["job_id"]
                    for p in _plans(count=JOBS, trials=100_000,
                                    base_seed=1000)]
        measured = [client.submit(p)["job_id"] for p in _plans()]
        latencies: list[float] = []
        errors: list[str] = []
        threads = []
        for n in range(SSE_STREAMS):
            threads.append(threading.Thread(
                target=_sse_consumer,
                args=(runner.base_url, measured[n % JOBS], completed_at,
                      latencies, errors)))
        for n in range(LONG_POLLERS):
            threads.append(threading.Thread(
                target=_poll_consumer,
                args=(runner.base_url, measured[n % JOBS], completed_at,
                      latencies, errors)))
        started = time.perf_counter()
        for t in threads:
            t.start()
        for job_id in blockers:
            client.cancel(job_id)
        for t in threads:
            t.join(timeout=600)
        wall = time.perf_counter() - started
        assert not any(t.is_alive() for t in threads), "consumers hung"
        assert not errors, errors[:5]
    finally:
        runner.stop()
    return {
        "sse_streams": SSE_STREAMS,
        "long_pollers": LONG_POLLERS,
        "jobs": JOBS,
        "trials_per_job": TRIALS,
        "delivered": len(latencies),
        "wall_seconds": wall,
        "p50_latency_seconds": _percentile(latencies, 0.50),
        "p99_latency_seconds": _percentile(latencies, 0.99),
        "max_latency_seconds": max(latencies),
    }


def test_gateway_fanout_latency(tmp_path, once, emit):
    fanout = once(run_gateway_fanout, tmp_path)
    cores = os.cpu_count() or 1

    emit("\n=== Gateway event fanout (publish -> receipt latency) ===")
    emit(f"host cpu_count: {cores}")
    emit(f"consumers: {fanout['sse_streams']} SSE + "
         f"{fanout['long_pollers']} long-poll across {fanout['jobs']} jobs")
    emit(f"delivered: {fanout['delivered']}, wall {fanout['wall_seconds']:.2f}s")
    emit(f"latency p50 {fanout['p50_latency_seconds'] * 1000:.1f}ms  "
         f"p99 {fanout['p99_latency_seconds'] * 1000:.1f}ms  "
         f"max {fanout['max_latency_seconds'] * 1000:.1f}ms")

    OUTPUT_PATH.write_text(json.dumps(
        {
            "benchmark": "gateway_fanout_latency",
            "cpu_count": cores,
            "p99_bar_seconds": P99_BAR_SECONDS,
            "async": fanout,
        },
        indent=2,
    ) + "\n")
    emit(f"wrote {OUTPUT_PATH.name}")

    # Delivery is all-or-nothing: every consumer saw its completion.
    assert fanout["delivered"] == SSE_STREAMS + LONG_POLLERS, fanout
    if cores < 4:
        pytest.skip(
            f"p99 latency bar needs >= 4 cores, host has {cores}; "
            f"measured p99 "
            f"{fanout['p99_latency_seconds'] * 1000:.1f}ms "
            f"({OUTPUT_PATH.name} written)"
        )
    assert fanout["p99_latency_seconds"] < P99_BAR_SECONDS, fanout
