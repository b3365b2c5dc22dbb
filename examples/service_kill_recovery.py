"""Kill/restart recovery smoke: SIGKILL a live server, resume its work.

Drives the crash-consistency contract end to end over real HTTP and a
real SIGKILL:

1. starts ``repro serve`` (process backend) with a persistent store --
   which enables the job journal -- and a checkpoint root;
2. submits a long search plan and waits until the job is running with
   at least one checkpoint on disk;
3. ``SIGKILL``s the server -- no teardown, no terminal journal entry;
4. restarts ``repro serve`` over the same directories and asserts it
   recovered the job from the journal, re-queued it, and resumed it
   from its per-hash checkpoint to completion;
5. runs the identical plan on a fresh, never-killed server, whose one
   pool worker first runs a different plan (so its latency estimator
   is warm), and asserts the recovered ``/result`` body is
   **byte-identical** to the uninterrupted run's.

Run it from the repo root::

    PYTHONPATH=src python examples/service_kill_recovery.py

Exit code 0 means every assertion held.  The CI ``service-smoke`` job
runs this script after the plain smoke.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.plans import RunPlan, ScenarioPlan, SearchPlan  # noqa: E402
from repro.service.client import TRANSPORT_ERRORS, ServiceClient  # noqa: E402

PORT = 8733
URL = f"http://127.0.0.1:{PORT}"
TRIALS = 3000


def plan(seed=6, trials=TRIALS):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def start_server(env, store_dir, checkpoint_dir, port=PORT):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--workers", "1", "--backend", "process",
         "--store-dir", str(store_dir),
         "--checkpoint-dir", str(checkpoint_dir)],
        env=env,
    )


def wait_for_server(client, deadline=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            if client.health()["status"] == "ok":
                return
        except TRANSPORT_ERRORS:
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def main():
    workdir = Path(tempfile.mkdtemp(prefix="service-kill-recovery-"))
    store_dir = workdir / "store"
    checkpoint_dir = workdir / "checkpoints"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    client = ServiceClient(URL)
    victim = start_server(env, store_dir, checkpoint_dir)
    restarted = None
    try:
        wait_for_server(client)
        submitted = client.submit(plan())
        job_id = submitted["job_id"]
        job_dir = checkpoint_dir / submitted["plan_hash"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if (client.status(job_id)["state"] == "running"
                    and list(job_dir.glob("*.checkpoint.json"))):
                break
            time.sleep(0.1)
        snapshots = list(job_dir.glob("*.checkpoint.json"))
        assert snapshots, "job never checkpointed; cannot test recovery"
        progress = json.loads(snapshots[0].read_text())["next_index"]
        assert 0 < progress < TRIALS, progress

        # -- the crash: SIGKILL, no goodbyes ---------------------------
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        print(f"server SIGKILLed mid-job at >= trial {progress}")
        # The orphaned job subprocess notices its parent died at the
        # next between-trials poll, snapshots and exits; give it a
        # moment so it cannot race the restarted server's resume.
        time.sleep(3)

        # -- restart over the same directories -------------------------
        restarted = start_server(env, store_dir, checkpoint_dir)
        wait_for_server(client)
        jobs = client.jobs()
        assert [j["job_id"] for j in jobs] == [job_id], jobs
        recovered = client.status(job_id)
        assert recovered["state"] in ("queued", "running", "done"), recovered
        events = client.events(job_id)["events"]
        queued = [e for e in events if e["event"] == "job-queued"]
        assert any("recovered from journal" in e["message"] for e in queued), (
            queued
        )
        print("restarted server re-queued the job from the journal")
        client.wait(job_id, timeout=900)
        recovered_bytes = client.result_bytes(job_id)
        result = json.loads(recovered_bytes)
        assert len(result["trials"]) == TRIALS, len(result["trials"])
        client.shutdown()
        assert restarted.wait(timeout=60) == 0
        restarted = None
        print(f"recovered job resumed to completion "
              f"({len(result['trials'])} trials)")

        # -- uninterrupted reference run -------------------------------
        reference_dir = workdir / "reference"
        reference = start_server(env, reference_dir / "store",
                                 reference_dir / "checkpoints")
        try:
            wait_for_server(client)
            # The server's one worker keeps its estimator across jobs:
            # warm it on another plan first.
            warmup = client.submit(plan(seed=7, trials=300))
            client.wait(warmup["job_id"], timeout=900)
            ref_job = client.submit(plan())
            client.wait(ref_job["job_id"], timeout=900)
            reference_bytes = client.result_bytes(ref_job["job_id"])
            client.shutdown()
            assert reference.wait(timeout=60) == 0
        finally:
            if reference.poll() is None:
                reference.kill()
                reference.wait(timeout=30)
        assert recovered_bytes == reference_bytes, (
            "recovered result is not byte-identical to the uninterrupted run"
        )
        print(f"byte-identical to the uninterrupted run on a warm worker "
              f"({len(recovered_bytes)} bytes)")
        print("kill/restart recovery: OK")
        return 0
    finally:
        for proc in (victim, restarted):
            if proc is not None and proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
