"""End-to-end smoke of the search service over real HTTP.

Spawns ``repro serve`` as a subprocess, then drives it with
:class:`repro.service.ServiceClient`:

1. submits plan A (long) and plan B (short);
2. resubmits plan B and asserts the duplicate is answered from the
   content-addressed store with a byte-identical ``/result`` body;
3. cancels plan A mid-run, asserts it reports ``cancelled`` and left
   checkpoints behind, resubmits it and asserts the job resumes to a
   complete result;
4. reads ``/metrics`` and asserts the client's requests all arrived
   over one kept-alive connection;
5. shuts the server down via ``POST /shutdown`` and asserts a clean
   exit.

Run it from the repo root::

    PYTHONPATH=src python examples/service_smoke.py

Exit code 0 means every assertion held.  The CI ``service-smoke`` job
runs exactly this script.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.plans import RunPlan, ScenarioPlan, SearchPlan  # noqa: E402
from repro.service.client import (  # noqa: E402
    TRANSPORT_ERRORS,
    ServiceClient,
    ServiceError,
)

PORT = 8731
URL = f"http://127.0.0.1:{PORT}"


def plan(seed, trials):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
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
    workdir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    store_dir = workdir / "store"
    checkpoint_dir = workdir / "checkpoints"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--workers", "2",
         "--store-dir", str(store_dir),
         "--checkpoint-dir", str(checkpoint_dir)],
        env=env,
    )
    client = ServiceClient(URL)
    try:
        wait_for_server(client)

        # -- plan B: run, then resubmit as a byte-identical cache hit --
        short = plan(seed=1, trials=10)
        first = client.submit(short)
        print("B submitted:", first["job_id"], first["state"])
        client.wait(first["job_id"], timeout=120)
        original = client.result_bytes(first["job_id"])
        duplicate = client.submit(short)
        assert duplicate["job_id"] == first["job_id"], duplicate
        assert duplicate["state"] == "done", duplicate
        replayed = client.result_bytes(duplicate["job_id"])
        assert replayed == original, "duplicate result must be byte-identical"
        trials_b = len(json.loads(replayed)["trials"])
        assert trials_b == 10, trials_b
        print(f"B deduplicated: cache hit, {len(replayed)} identical bytes")

        # -- plan A: cancel mid-run, resubmit, resume to completion ----
        long_plan = plan(seed=2, trials=4000)
        job_a = client.submit(long_plan)
        job_a_dir = checkpoint_dir / job_a["plan_hash"]
        # Give it a moment to start and land at least one snapshot.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (client.status(job_a["job_id"])["state"] == "running"
                    and list(job_a_dir.glob("*.checkpoint.json"))):
                break
            time.sleep(0.1)
        client.cancel(job_a["job_id"])
        final = client.wait(job_a["job_id"], timeout=120)
        assert final["state"] == "cancelled", final
        snapshots = list(job_a_dir.glob("*.checkpoint.json"))
        assert snapshots, "cancellation must leave checkpoints"
        resumed_index = json.loads(snapshots[0].read_text())["next_index"]
        assert 0 < resumed_index < 4000, resumed_index
        print(f"A cancelled at trial {resumed_index}, snapshot on disk")
        try:
            client.result_bytes(job_a["job_id"])
            raise SystemExit("cancelled job must not serve a result")
        except ServiceError as err:
            assert err.status == 409, err.status
        resumed = client.submit(long_plan)
        assert resumed["job_id"] == job_a["job_id"], resumed
        client.wait(resumed["job_id"], timeout=600)
        result_a = json.loads(client.result_bytes(resumed["job_id"]))
        assert len(result_a["trials"]) == 4000, len(result_a["trials"])
        events = client.events(resumed["job_id"])["events"]
        tags = [e["event"] for e in events]
        assert tags.count("job-queued") == 2, tags  # original + resubmit
        assert tags[-1] == "job-completed", tags
        print("A resumed and completed:", len(result_a["trials"]), "trials")

        # -- connection reuse: one pooled connection served the client --
        with urllib.request.urlopen(f"{URL}/metrics", timeout=30) as resp:
            counters = json.loads(resp.read())["counters"]
        # The client's connection, plus the one this read opened.
        assert counters["connections"] <= 2, counters
        assert counters["requests"] > 20, counters
        print(f"{counters['requests']} requests over "
              f"{counters['connections']} connections")

        # -- teardown --------------------------------------------------
        client.shutdown()
        code = server.wait(timeout=60)
        assert code == 0, f"server exited with {code}"
        print("server shut down cleanly")
        print("service smoke: OK")
        return 0
    finally:
        client.close()
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
