"""Federation failover smoke: SIGKILL an agent mid-job, watch it resume.

Drives the lease/failover contract end to end over real HTTP, real
``repro agent`` processes, and a real SIGKILL:

1. starts ``repro serve`` with a persistent store (journal on), a
   checkpoint root, and a short ``--lease-seconds``;
2. starts **two** worker agents against it;
3. submits a long search plan, waits until one agent holds the lease
   and the job has checkpointed at least once;
4. ``SIGKILL``s the lease-holding agent -- no goodbyes, no heartbeats;
5. asserts the coordinator expires the lease, re-queues the job, and
   the surviving agent claims it and resumes it from the per-hash
   checkpoint to completion;
6. runs the identical plan on a fresh agent-less server and asserts
   the failed-over ``/result`` body is **byte-identical** to the
   uninterrupted run's.

Run it from the repo root::

    PYTHONPATH=src python examples/federation_chaos.py

Exit code 0 means every assertion held.  The CI ``federation-chaos``
job runs this script.
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

PORT = 8737
URL = f"http://127.0.0.1:{PORT}"
TRIALS = 3000
LEASE_SECONDS = 3.0


def plan(seed=9):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=TRIALS),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_server(store_dir, checkpoint_dir):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--workers", "1", "--backend", "process",
         "--lease-seconds", str(LEASE_SECONDS),
         "--store-dir", str(store_dir),
         "--checkpoint-dir", str(checkpoint_dir)],
        env=child_env(),
    )


def start_agent(agent_id):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "agent",
         "--coordinator", URL, "--agent-id", agent_id, "--name", agent_id,
         "--poll-seconds", "0.2"],
        env=child_env(),
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


def stop(proc, sig=signal.SIGTERM, timeout=30):
    if proc is not None and proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def main():
    workdir = Path(tempfile.mkdtemp(prefix="federation-chaos-"))
    client = ServiceClient(URL)
    server = start_server(workdir / "store", workdir / "checkpoints")
    agents = {}
    try:
        wait_for_server(client)
        agents = {aid: start_agent(aid) for aid in ("a1", "a2")}
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.health()["agents"] == 2:
                break
            time.sleep(0.1)
        assert client.health()["agents"] == 2, "agents never registered"

        submitted = client.submit(plan())
        job_id = submitted["job_id"]
        job_dir = workdir / "checkpoints" / submitted["plan_hash"]
        holder = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            holder = client.status(job_id)["agent"]
            if holder and list(job_dir.glob("*.checkpoint.json")):
                break
            time.sleep(0.1)
        snapshots = list(job_dir.glob("*.checkpoint.json"))
        assert holder in agents, f"no agent ever held the lease: {holder!r}"
        assert snapshots, "job never checkpointed; failover would restart"
        progress = json.loads(snapshots[0].read_text())["next_index"]
        assert 0 < progress < TRIALS, progress
        survivor = next(aid for aid in agents if aid != holder)

        # -- the crash: SIGKILL the lease holder mid-trial -------------
        agents[holder].send_signal(signal.SIGKILL)
        agents[holder].wait(timeout=30)
        print(f"agent {holder} SIGKILLed at >= trial {progress}; "
              f"lease expires in <= {LEASE_SECONDS}s")

        # -- failover: the survivor must pick the job up ---------------
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job_id)["agent"] == survivor:
                break
            time.sleep(0.1)
        assert client.status(job_id)["agent"] == survivor, (
            f"job never failed over to {survivor}: {client.status(job_id)}"
        )
        print(f"lease expired; {survivor} claimed the re-queued job")

        final = client.wait(job_id, timeout=900)
        assert final["state"] == "done", final
        events = client.events(job_id)["events"]
        leases = [e["agent"] for e in events if e["event"] == "job-leased"]
        assert leases == [holder, survivor], leases
        assert any(e["event"] == "lease-expired" for e in events), (
            "no lease-expired event recorded"
        )
        failover_bytes = client.result_bytes(job_id)
        result = json.loads(failover_bytes)
        assert len(result["trials"]) == TRIALS, len(result["trials"])
        print(f"failed-over job completed ({len(result['trials'])} trials)")

        # -- teardown the federation, then an uninterrupted reference --
        stop(agents[survivor])
        assert agents[survivor].returncode == 0, agents[survivor].returncode
        client.shutdown()
        assert server.wait(timeout=60) == 0
        server = None

        reference_dir = workdir / "reference"
        server = start_server(reference_dir / "store",
                              reference_dir / "checkpoints")
        wait_for_server(client)
        ref_job = client.submit(plan())
        client.wait(ref_job["job_id"], timeout=900)
        reference_bytes = client.result_bytes(ref_job["job_id"])
        client.shutdown()
        assert server.wait(timeout=60) == 0
        server = None

        assert failover_bytes == reference_bytes, (
            "failed-over result is not byte-identical to the "
            "uninterrupted run"
        )
        print(f"byte-identical to the uninterrupted run "
              f"({len(failover_bytes)} bytes)")
        print("federation chaos failover: OK")
        return 0
    finally:
        for proc in agents.values():
            stop(proc)
        stop(server)


if __name__ == "__main__":
    sys.exit(main())
