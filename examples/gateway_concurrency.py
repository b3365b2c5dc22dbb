"""Gateway concurrency smoke: a crowd of streams, then a graceful drain.

Drives the asyncio gateway behind ``repro serve`` end to end over
real HTTP, real threads, and a real SIGTERM:

1. starts ``repro serve`` with a persistent store (journal on);
2. submits a batch of search jobs, then attaches **hundreds** of
   concurrent event consumers -- half over SSE
   (``GET /jobs/<id>/events/stream``), half over long-poll
   (``GET /jobs/<id>/events?since=N&wait=S``) -- and asserts every
   single one observes the job's completion and a clean end of stream;
3. submits one more job, opens a live SSE stream on it, and SIGTERMs
   the server mid-run: the gateway must stop accepting, let the job
   finish, close the stream with an ``end`` frame, flush the journal,
   and exit 0;
4. runs the same plan on an in-process ``SearchService`` and asserts
   the drained gateway's stored result is **byte-identical** to the
   bytes that service stores.

Run it from the repo root::

    PYTHONPATH=src python examples/gateway_concurrency.py

Exit code 0 means every assertion held.  The CI ``gateway-smoke`` job
runs this script.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.plans import RunPlan, ScenarioPlan, SearchPlan  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.journal import JobJournal  # noqa: E402
from repro.service.service import SearchService  # noqa: E402
from repro.service.store import ResultStore, result_key  # noqa: E402

PORT = 8747
URL = f"http://127.0.0.1:{PORT}"
SSE_CLIENTS = 120
POLL_CLIENTS = 120
BATCH_JOBS = 3
DRAIN_TRIALS = 800


def plan(seed, trials=60):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_gateway(store_dir, checkpoint_dir):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--workers", "2",
         "--store-dir", str(store_dir),
         "--checkpoint-dir", str(checkpoint_dir)],
        env=child_env(),
    )


def wait_for_server(client, deadline=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        try:
            if client.health()["status"] == "ok":
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def stop(proc, sig=signal.SIGTERM, timeout=60):
    if proc is not None and proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def sse_consumer(job_id, outcomes):
    client = ServiceClient(URL)
    tags = [f["event"] for f in client.stream_events(job_id)]
    outcomes.append("job-completed" in tags and tags[-1] == "end")


def poll_consumer(job_id, outcomes):
    client = ServiceClient(URL)
    cursor, seen_completion = 0, False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        page = client.events(job_id, since=cursor, wait=10)
        cursor = page["next"]
        seen_completion = seen_completion or any(
            e["event"] == "job-completed" for e in page["events"])
        if page["state"] in ("done", "failed", "cancelled"):
            break
    outcomes.append(seen_completion)


def crowd_phase(client):
    """Hundreds of SSE + long-poll consumers, all seeing completion."""
    jobs = [client.submit(plan(seed=n))["job_id"]
            for n in range(BATCH_JOBS)]
    outcomes, threads = [], []
    for n in range(SSE_CLIENTS):
        threads.append(threading.Thread(
            target=sse_consumer, args=(jobs[n % BATCH_JOBS], outcomes)))
    for n in range(POLL_CLIENTS):
        threads.append(threading.Thread(
            target=poll_consumer, args=(jobs[n % BATCH_JOBS], outcomes)))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "consumers hung"
    total = SSE_CLIENTS + POLL_CLIENTS
    assert len(outcomes) == total, f"{len(outcomes)}/{total} returned"
    assert all(outcomes), f"{outcomes.count(False)} consumers missed events"
    print(f"{SSE_CLIENTS} SSE + {POLL_CLIENTS} long-poll consumers across "
          f"{BATCH_JOBS} jobs: all saw completion")


def drain_phase(gateway, client, store_dir):
    """SIGTERM mid-job: the stream ends cleanly and nothing is lost."""
    submitted = client.submit(plan(seed=99, trials=DRAIN_TRIALS))
    job_id = submitted["job_id"]
    frames = []
    attached = threading.Event()

    def streamer():
        for frame in ServiceClient(URL).stream_events(job_id):
            frames.append(frame)
            attached.set()

    stream_thread = threading.Thread(target=streamer)
    stream_thread.start()
    assert attached.wait(timeout=60), "SSE stream never attached"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.status(job_id)["state"] == "running":
            break
        time.sleep(0.05)
    assert client.status(job_id)["state"] == "running", "job never started"

    gateway.send_signal(signal.SIGTERM)
    assert gateway.wait(timeout=120) == 0, gateway.returncode
    stream_thread.join(timeout=60)
    assert not stream_thread.is_alive(), "SSE stream never closed"
    assert frames and frames[-1]["event"] == "end", frames[-2:]
    print(f"SIGTERM drain: gateway exited 0, stream closed with an "
          f"'end' frame after {len(frames)} frames")

    entries = JobJournal.replay(store_dir / "journal.jsonl")
    ops = [e["op"] for e in entries if e["job"] == job_id]
    assert ops and ops[-1] == "done", (
        f"drain lost the admitted job: journal ops {ops}")
    print(f"journal intact: {job_id} transitions {ops}")


def byte_identity_phase(workdir):
    """The drained gateway's stored result == an in-process run's."""
    drained = plan(seed=99, trials=DRAIN_TRIALS)
    gateway_bytes = ResultStore(workdir / "store").get_bytes(
        result_key(drained))
    assert gateway_bytes is not None, "drained store has no result"
    with SearchService(workers=1) as service:
        handle = service.submit(drained)
        reference = handle.result_bytes(timeout=600)
    assert gateway_bytes == reference, (
        "drained gateway result is not byte-identical to the in-process "
        "run")
    print(f"byte-identical to an in-process run ({len(gateway_bytes)} "
          f"bytes)")


def main():
    workdir = Path(tempfile.mkdtemp(prefix="gateway-concurrency-"))
    client = ServiceClient(URL)
    gateway = start_gateway(workdir / "store", workdir / "ckpt")
    try:
        wait_for_server(client)
        crowd_phase(client)
        drain_phase(gateway, client, workdir / "store")
        gateway = None
        byte_identity_phase(workdir)
        print("gateway concurrency smoke: OK")
        return 0
    finally:
        stop(gateway)


if __name__ == "__main__":
    sys.exit(main())
