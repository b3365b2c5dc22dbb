"""Full-stack federation: HTTP coordinator + worker agents + SIGKILL.

The chaos matrix here runs real ``repro agent`` subprocesses armed via
``REPRO_CRASH_POINTS`` and SIGKILLs them at the interesting instants
(right after claiming, mid event stream, just before completing).  In
every case the contract is the same: the lease expires, the job
re-queues, someone else finishes it, and ``/result`` is byte-identical
to an uninterrupted run.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service import SearchService
from repro.service.agent import WorkerAgent
from repro.service.client import ServiceClient
from repro.service.faults import CRASH_POINTS_ENV
from repro.service.gateway import GatewayRunner

SRC = str(Path(__file__).resolve().parents[2] / "src")


def search_plan(seed=0, trials=40):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def reference_bytes(plan):
    """The canonical result bytes of an uninterrupted local run."""
    with SearchService(workers=1) as service:
        return service.submit(plan).result_bytes(timeout=300)


def agent_env(crash_points=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(CRASH_POINTS_ENV, None)
    if crash_points:
        env[CRASH_POINTS_ENV] = crash_points
    return env


def spawn_agent(url, agent_id, crash_points=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "agent", "--coordinator", url,
         "--agent-id", agent_id, "--name", agent_id,
         "--poll-seconds", "0.1", "--max-jobs", "1"],
        env=agent_env(crash_points),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@contextmanager
def live_coordinator(tmp_path, lease_seconds):
    with GatewayRunner(workers=1, store_dir=str(tmp_path / "store"),
                       checkpoint_dir=str(tmp_path / "ckpt"),
                       lease_seconds=lease_seconds,
                       drain_grace=0) as runner:
        yield runner.service, runner.base_url


@pytest.fixture()
def federation(tmp_path):
    """A live coordinator with a short lease term; yields (service, url)."""
    with live_coordinator(tmp_path, lease_seconds=1.0) as pair:
        yield pair


class TestFederationHappyPath:
    def test_agent_run_matches_local_run_byte_for_byte(self, federation):
        service, url = federation
        plan = search_plan(seed=31)
        expected = reference_bytes(plan)
        client = ServiceClient(url)
        agent = WorkerAgent(url, name="worker-a", max_jobs=1,
                            poll_seconds=0.05)
        agent.register()
        info = client.submit(plan)
        assert agent.run() == 1
        final = client.wait(info["job_id"], timeout=120)
        assert final["state"] == "done"
        assert client.result_bytes(info["job_id"]) == expected
        events = client.events(info["job_id"])["events"]
        tags = [e["event"] for e in events]
        assert "job-leased" in tags
        assert "search-started" in tags or "trial-started" in tags or (
            len(events) > 4)  # execution events streamed back
        assert client.agents() == []  # graceful leave

    def test_health_counts_registered_agents(self, federation):
        _, url = federation
        client = ServiceClient(url)
        assert client.health()["agents"] == 0
        terms = client.register_agent(name="counted")
        assert client.health()["agents"] == 1
        client.agent_leave(terms["agent_id"])
        assert client.health()["agents"] == 0


class TestSIGKILLFailoverMatrix:
    """Agents armed to die at each interesting instant; work survives."""

    @pytest.mark.parametrize("crash_points", [
        "agent.claimed=1",    # dies before the child even starts
        "agent.event=3",      # dies mid event stream, child orphaned
        "agent.complete=1",   # dies with the work done but unreported
    ])
    def test_armed_agent_dies_and_job_finishes_locally(
            self, federation, crash_points):
        service, url = federation
        plan = search_plan(seed=37)
        expected = reference_bytes(plan)
        client = ServiceClient(url)
        agent = spawn_agent(url, "doomed", crash_points)
        try:
            assert wait_for(lambda: client.health()["agents"] == 1), (
                "agent never registered")
            info = client.submit(plan)
            # The agent claims, then SIGKILLs itself at its crash point.
            assert agent.wait(timeout=120) == -9
            # Lease expires, agent is presumed dead, the local worker
            # resumes from the checkpoint and finishes.
            final = client.wait(info["job_id"], timeout=120)
            assert final["state"] == "done"
            assert final["agent"] is None
            tags = [e["event"]
                    for e in client.events(info["job_id"])["events"]]
            assert "job-leased" in tags
            assert "lease-expired" in tags
            assert "agent-lost" not in tags  # agent events are bus-only
            assert client.result_bytes(info["job_id"]) == expected
            assert client.health()["agents"] == 0
        finally:
            if agent.poll() is None:
                agent.kill()
                agent.wait(timeout=30)

    def test_job_resumes_on_a_second_agent(self, tmp_path):
        # A longer lease than the `federation` fixture's: the survivor
        # must finish its interpreter startup and register before the
        # doomed agent's lease expires, or the local worker (correctly,
        # per zero-agent fallback) would take the re-queued job itself.
        plan = search_plan(seed=41, trials=60)
        expected = reference_bytes(plan)
        doomed = survivor = None
        with live_coordinator(tmp_path, lease_seconds=8.0) as (_, url):
            client = ServiceClient(url)
            doomed = spawn_agent(url, "doomed", "agent.claimed=1")
            try:
                assert wait_for(lambda: client.health()["agents"] >= 1)
                info = client.submit(plan)
                assert doomed.wait(timeout=120) == -9
                survivor = spawn_agent(url, "survivor")
                assert wait_for(
                    lambda: any(a["agent_id"] == "survivor"
                                for a in client.agents()))
                final = client.wait(info["job_id"], timeout=120)
                assert final["state"] == "done"
                leases = [e for e in client.events(info["job_id"])["events"]
                          if e["event"] == "job-leased"]
                assert [lease["agent"] for lease in leases] == [
                    "doomed", "survivor"]
                assert client.result_bytes(info["job_id"]) == expected
                assert survivor.wait(timeout=120) == 0  # max-jobs exit
            finally:
                for proc in (doomed, survivor):
                    if proc is not None and proc.poll() is None:
                        proc.kill()
                        proc.wait(timeout=30)
