"""The MobileNet-class scenario end to end over real HTTP.

The memory-hierarchy smoke the CI ``mobilenet-smoke`` job runs.
Spawns ``repro serve`` as a subprocess and drives it with
:class:`repro.service.ServiceClient`:

1. submits a MobileNet sweep (the extension's search space: conv-type
   choice per layer) targeting the bandwidth-starved
   ``xc7z020-ddr-narrow`` catalog device, and watches it execute cold;
2. submits an overlapping sweep (one added timing spec) and asserts
   the shard cache is warm: only the novel shard executes, the first
   one is served from the store as a ``ShardCached`` event;
3. submits the ``figure9`` plan itself and asserts all four frontiers
   (2 conv-type families x 2 memory hierarchies) are computed and
   announced on the event stream;
4. shuts the server down and asserts a clean exit.

Run it from the repo root::

    PYTHONPATH=src python examples/mobilenet_smoke.py

Exit code 0 means every assertion held.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.events import SearchStarted, ShardCached, event_from_dict  # noqa: E402
from repro.experiments.figure9 import figure9_plan  # noqa: E402
from repro.plans import RunPlan, ScenarioPlan, SearchPlan  # noqa: E402
from repro.service.client import TRANSPORT_ERRORS, ServiceClient  # noqa: E402

PORT = 8741
URL = f"http://127.0.0.1:{PORT}"
TRIALS = 25
SPECS_A = (40.0,)
SPECS_B = (40.0, 60.0)  # overlap: one novel shard


def sweep(specs):
    return RunPlan(
        workload="sweep",
        search=SearchPlan(trials=TRIALS),
        scenario=ScenarioPlan(datasets=("mobilenet",),
                              devices=("xc7z020-ddr-narrow",),
                              specs_ms=specs),
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


def run_sweep(client, plan):
    """Submit one sweep; returns (executed_ids, cached_ids)."""
    job = client.submit(plan)
    client.wait(job["job_id"], timeout=300)
    events = [event_from_dict(doc)
              for doc in client.events(job["job_id"])["events"]]
    executed = [e.scope for e in events
                if isinstance(e, SearchStarted) and e.scope != "sweep"]
    cached = [e.scope for e in events if isinstance(e, ShardCached)]
    return executed, cached


def main():
    workdir = Path(tempfile.mkdtemp(prefix="mobilenet-smoke-"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--workers", "1",
         "--store-dir", str(workdir / "store"),
         "--checkpoint-dir", str(workdir / "checkpoints")],
        env=env,
    )
    client = ServiceClient(URL)
    try:
        wait_for_server(client)

        # -- 1: the MobileNet scenario executes cold --------------------
        executed_a, cached_a = run_sweep(client, sweep(SPECS_A))
        assert executed_a == [
            "mobilenet-xc7z020-ddr-narrow-fnas40ms-s0"], executed_a
        assert not cached_a, cached_a
        print(f"sweep A: {len(executed_a)} mobilenet shard(s) executed cold")

        # -- 2: overlapping resubmit finds the shard cache warm ---------
        executed_b, cached_b = run_sweep(client, sweep(SPECS_B))
        assert executed_b == [
            "mobilenet-xc7z020-ddr-narrow-fnas60ms-s0"], executed_b
        assert cached_b == [
            "mobilenet-xc7z020-ddr-narrow-fnas40ms-s0"], cached_b
        print("sweep B: only the novel shard executed, "
              "the mobilenet shard cache was warm")

        # -- 3: figure9 through the same service ------------------------
        fig9 = client.submit(figure9_plan(samples=64))
        info = client.wait(fig9["job_id"], timeout=300)
        assert info["state"] == "done", info
        events = [event_from_dict(doc)
                  for doc in client.events(fig9["job_id"])["events"]]
        pareto = [e for e in events if "frontier point" in e.message]
        assert len(pareto) == 4, [e.message for e in events]  # 2 dev x 2 fam
        print("figure9: 4 frontiers computed "
              f"({', '.join(sorted({e.scope for e in pareto}))})")

        client.shutdown()
        assert server.wait(timeout=30) == 0, server.returncode
        print("server drained and exited 0")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
    print("OK: mobilenet scenario + warm shard cache + figure9 over HTTP")


if __name__ == "__main__":
    main()
