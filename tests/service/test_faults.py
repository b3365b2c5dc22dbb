"""Fault-injection primitives and chaos-proxy failure scenarios.

Unit-tests the :mod:`repro.service.faults` crash-point grammar, proves
a crash point really SIGKILLs (in a sacrificial subprocess), and then
drives client/agent behavior through the :class:`ChaosProxy` -- slow
reads, half-closed replies, refused connections, and the
heartbeat-blackhole partition that forces a lease failover.
"""

import subprocess
import sys
import threading
import time

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.agent import WorkerAgent
from repro.service.client import ServiceClient
from repro.service.faults import CRASH_POINTS_ENV, FaultInjector
from repro.service.gateway import GatewayRunner

from tests.service.chaos_proxy import ChaosProxy


def search_plan(seed=0, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


class TestFaultInjector:
    def test_unarmed_points_never_crash(self):
        injector = FaultInjector(None)
        assert not injector.armed("agent.claimed")
        assert not any(injector.should_crash("agent.claimed")
                       for _ in range(100))

    def test_count_clause_triggers_on_the_exact_hit(self):
        injector = FaultInjector("agent.event=3")
        hits = [injector.should_crash("agent.event") for _ in range(5)]
        assert hits == [False, False, True, False, False]

    def test_count_clause_only_counts_its_own_name(self):
        injector = FaultInjector("agent.event=1")
        assert not injector.should_crash("agent.claimed")
        assert injector.should_crash("agent.event")

    def test_seeded_probability_is_reproducible(self):
        a = FaultInjector("hb~0.5@42")
        b = FaultInjector("hb~0.5@42")
        rolls_a = [a.should_crash("hb") for _ in range(50)]
        rolls_b = [b.should_crash("hb") for _ in range(50)]
        assert rolls_a == rolls_b
        assert any(rolls_a) and not all(rolls_a)

    def test_multiple_clauses_parse(self):
        injector = FaultInjector("a=2, b~0.1@7")
        assert injector.armed("a") and injector.armed("b")

    @pytest.mark.parametrize("spec", ["nonsense", "p~0.5", "x~2.0@1"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultInjector(spec)

    def test_crash_point_sigkills_the_process(self):
        code = (
            "from repro.service.faults import crash_point\n"
            "crash_point('die.here')\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", CRASH_POINTS_ENV: "die.here=1"},
            capture_output=True, text=True, timeout=60, cwd=".",
        )
        assert proc.returncode == -9  # SIGKILL
        assert "survived" not in proc.stdout

    def test_unarmed_crash_point_is_a_noop(self):
        FaultInjector("other=1").crash_point("this")  # must return


@pytest.fixture()
def proxied_service(tmp_path):
    """A live coordinator plus a chaos proxy in front of it."""
    with GatewayRunner(workers=1, store_dir=str(tmp_path / "store"),
                       checkpoint_dir=str(tmp_path / "ckpt"),
                       lease_seconds=1.0, drain_grace=0) as runner:
        proxy = ChaosProxy(runner.host, runner.port)
        try:
            yield runner.service, proxy
        finally:
            proxy.stop()


class TestChaosProxyScenarios:
    def test_refused_connections_are_retried_through(self, proxied_service):
        _, proxy = proxied_service
        client = ServiceClient(proxy.url, timeout=5.0, max_retries=3,
                               backoff=0.02)
        proxy.fail_next("refuse", 2)
        assert client.health()["status"] == "ok"

    def test_half_closed_reply_is_retried_through(self, proxied_service):
        _, proxy = proxied_service
        client = ServiceClient(proxy.url, timeout=5.0, max_retries=3,
                               backoff=0.02)
        proxy.fail_next("half-close", 1)
        assert client.health()["status"] == "ok"

    def test_slow_reads_time_out_then_recover(self, proxied_service):
        _, proxy = proxied_service
        client = ServiceClient(proxy.url, timeout=0.4, max_retries=1,
                               backoff=0.02)
        proxy.slow_delay = 1.5
        proxy.mode = "slow"
        with pytest.raises((TimeoutError, OSError)):
            client.health()
        proxy.mode = "pass"
        assert client.health()["status"] == "ok"

    def test_heartbeat_blackhole_forces_failover_to_local(
            self, proxied_service):
        service, proxy = proxied_service
        plan = search_plan(seed=21, trials=60)
        agent = WorkerAgent(
            proxy.url, name="partitioned", max_jobs=1, poll_seconds=0.05,
            client=ServiceClient(proxy.url, timeout=1.0, max_retries=1,
                                 backoff=0.02))
        agent.register()
        handle = service.submit(plan)
        runner = threading.Thread(target=agent.run, daemon=True)
        runner.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if handle.info()["agent"] is not None:
                    break
                time.sleep(0.02)
            assert handle.info()["agent"] is not None, "agent never claimed"
            # Partition: every coordinator-bound byte now vanishes.
            proxy.mode = "blackhole"
            assert handle.wait(timeout=60) == "done"
            kinds = [type(e).__name__ for e in handle.events()]
            assert "LeaseExpired" in kinds
            assert handle.info()["agent"] is None  # finished locally
            assert handle.result_bytes() is not None
        finally:
            proxy.mode = "pass"
            agent.stop()
            runner.join(timeout=60)
            assert not runner.is_alive(), "agent wedged after partition"
