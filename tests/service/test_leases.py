"""Coordinator-side lease bookkeeping, driven at the service layer.

These tests play the agent's role by hand -- register, claim,
heartbeat (or pointedly don't), complete -- so every lease transition
is asserted without process management or HTTP in the way.  The
full-stack federation paths live in ``test_agent_federation.py``.
"""

import time

import pytest

from repro.events import AgentJoined, AgentLost, JobLeased, LeaseExpired
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
)
from repro.service import (
    SearchService,
    StaleLeaseError,
    UnknownAgentError,
    execute_plan,
)
from repro.service import store as store_mod
from repro.service.service import DEFAULT_LEASE_SECONDS


def search_plan(seed=0, trials=4, **execution):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def run_payload(plan):
    """The canonical result payload an honest agent would upload."""
    result = execute_plan(plan, emit=lambda event: None)
    return store_mod.encode_result(plan, result)


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def event_kinds(handle):
    return [type(e).__name__ for e in handle.events()]


class TestRegistration:
    def test_register_mints_id_and_terms(self):
        with SearchService(workers=1) as service:
            terms = service.register_agent(name="alpha")
            assert terms["agent_id"].startswith("agent-alpha-")
            assert terms["lease_seconds"] == DEFAULT_LEASE_SECONDS
            assert 0 < terms["heartbeat_seconds"] < terms["lease_seconds"]
            assert [a["name"] for a in service.agents()] == ["alpha"]

    def test_reregistration_is_idempotent_by_id(self):
        with SearchService(workers=1) as service:
            first = service.register_agent(name="alpha")
            again = service.register_agent(
                name="alpha", agent_id=first["agent_id"])
            assert again["agent_id"] == first["agent_id"]
            assert len(service.agents()) == 1

    def test_unknown_agent_rejected_everywhere(self):
        with SearchService(workers=1) as service:
            with pytest.raises(UnknownAgentError):
                service.claim_job("agent-ghost-9")
            with pytest.raises(UnknownAgentError):
                service.heartbeat("agent-ghost-9")

    def test_join_and_leave_publish_agent_events(self):
        with SearchService(workers=1) as service:
            seen = []
            service.bus.subscribe(seen.append)
            agent_id = service.register_agent(name="alpha")["agent_id"]
            service.deregister_agent(agent_id)
            kinds = [type(e) for e in seen]
            assert AgentJoined in kinds and AgentLost in kinds
            assert service.agents() == []


class TestClaiming:
    def test_claim_leases_the_job(self):
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            assert claim is not None
            assert claim["job_id"] == handle.job_id
            assert claim["plan"] == handle.plan.to_dict()
            assert claim["plan_hash"] == handle.plan_hash
            assert claim["lease_seconds"] == DEFAULT_LEASE_SECONDS
            info = handle.info()
            assert info["state"] == "running"
            assert info["agent"] == agent_id
            assert "JobLeased" in event_kinds(handle)
            assert service.claim_job(agent_id) is None  # queue drained
            service.complete_job(agent_id, handle.job_id, "failed",
                                 message="test teardown")

    def test_local_workers_defer_to_registered_agents(self):
        with SearchService(workers=2) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            time.sleep(0.3)
            assert handle.state == "queued"  # locals left it for the agent
            claim = service.claim_job(agent_id)
            assert claim["job_id"] == handle.job_id
            service.complete_job(agent_id, handle.job_id, "failed",
                                 message="test teardown")

    def test_zero_agents_degrades_to_local_execution(self):
        with SearchService(workers=1) as service:
            handle = service.submit(search_plan())
            assert handle.wait(timeout=120) == "done"
            assert handle.info()["agent"] is None

    def test_remote_done_stores_bytes_identical_to_local_run(self, tmp_path):
        plan = search_plan(seed=7)
        with SearchService(workers=1) as local:
            expected = local.submit(plan).result_bytes(timeout=120)
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "done",
                                 payload=run_payload(plan))
            assert handle.wait(timeout=10) == "done"
            assert handle.result_bytes() == expected
            assert handle.info()["agent"] is None  # lease released

    def test_remote_failure_surfaces_as_remote_job_error(self):
        from repro.service import RemoteJobError

        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "failed",
                                 message="boom on the remote")
            with pytest.raises(RemoteJobError, match="boom on the remote"):
                handle.result(timeout=10)

    def test_done_upload_without_payload_fails_and_reruns(self):
        from repro.service import RemoteJobError

        plan = search_plan(seed=3)
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "done")
            assert handle.wait(timeout=10) == "failed"
            with pytest.raises(RemoteJobError, match="no result payload"):
                handle.result(timeout=10)
            assert handle.plan_hash not in service.store
            # A resubmission runs the plan again instead of coalescing.
            again = service.submit(plan)
            assert again.state == "queued"
            claim = service.claim_job(agent_id)
            assert claim["job_id"] == handle.job_id
            service.complete_job(agent_id, claim["job_id"], "done",
                                 payload=run_payload(plan))
            assert len(again.result(timeout=10).trials) == 4

    def test_undecodable_upload_fails_and_stores_nothing(self, tmp_path):
        from repro.service import RemoteJobError, ResultStore

        plan = search_plan(seed=4)
        with SearchService(workers=1,
                           store=ResultStore(tmp_path)) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "done",
                                 payload={"bogus": 1})
            assert handle.wait(timeout=10) == "failed"
            with pytest.raises(RemoteJobError, match="KeyError"):
                handle.result(timeout=10)
            assert not (tmp_path / f"{handle.plan_hash}.json").exists()
            assert handle.plan_hash not in service.store
            assert service.submit(plan).state == "queued"

    def test_done_upload_is_decoded_once(self, monkeypatch):
        """complete_job keeps the object it decoded the upload into, so
        result() does not decode again."""
        plan = search_plan(seed=5)
        payload = run_payload(plan)
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(plan)
            claim = service.claim_job(agent_id)
            service.complete_job(agent_id, claim["job_id"], "done",
                                 payload=payload)

            def forbidden(plan, payload):
                raise AssertionError("decoded a second time")

            monkeypatch.setattr(store_mod, "decode_result", forbidden)
            result = handle.result(timeout=10)
        assert result.wall_seconds == payload["wall_seconds"] > 0

    def test_plan_lease_override_beats_service_default(self):
        with SearchService(workers=1, lease_seconds=30.0) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan(lease_seconds=2.0))
            claim = service.claim_job(agent_id)
            assert claim["lease_seconds"] == 2.0
            assert claim["heartbeat_seconds"] <= 2.0 / 3 + 1e-9
            service.complete_job(agent_id, handle.job_id, "failed",
                                 message="test teardown")


class TestHeartbeats:
    def test_heartbeat_renews_the_lease(self):
        with SearchService(workers=1, lease_seconds=0.4) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            for _ in range(10):  # 1s of renewals on a 0.4s lease
                answer = service.heartbeat(agent_id, [claim["job_id"]])
                assert answer == {"lost": [], "cancel": []}
                time.sleep(0.1)
            assert handle.info()["agent"] == agent_id
            service.complete_job(agent_id, claim["job_id"], "failed",
                                 message="test teardown")

    def test_heartbeat_reports_unheld_jobs_as_lost(self):
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            answer = service.heartbeat(agent_id, ["j-nothing"])
            assert answer["lost"] == ["j-nothing"]

    def test_cancel_request_rides_the_heartbeat(self):
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            handle.cancel()
            answer = service.heartbeat(agent_id, [claim["job_id"]])
            assert answer["cancel"] == [claim["job_id"]]
            service.complete_job(agent_id, claim["job_id"], "cancelled",
                                 completed=2)
            assert handle.state == "cancelled"


class TestExpiry:
    def test_silent_agent_loses_lease_and_job_requeues_locally(self):
        plan = search_plan(seed=3)
        with SearchService(workers=1) as local:
            expected = local.submit(plan).result_bytes(timeout=120)
        with SearchService(workers=1, lease_seconds=0.3) as service:
            agent_id = service.register_agent(name="flaky")["agent_id"]
            handle = service.submit(plan)
            service.claim_job(agent_id)
            # No heartbeats: the lease expires, the agent is presumed
            # dead, and -- with zero live agents left -- the local
            # worker takes the job over.
            assert handle.wait(timeout=30) == "done"
            kinds = event_kinds(handle)
            assert "LeaseExpired" in kinds
            assert kinds.index("LeaseExpired") < kinds.index("JobCompleted")
            assert service.agents() == []  # flaky was deregistered
            assert handle.result_bytes() == expected

    def test_stale_completion_conflicts_after_expiry(self):
        with SearchService(workers=1, lease_seconds=0.2) as service:
            agent_id = service.register_agent(name="slow")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            assert wait_until(lambda: handle.info()["agent"] is None)
            with pytest.raises(StaleLeaseError):
                service.complete_job(agent_id, claim["job_id"], "done",
                                     payload=None)
            assert handle.wait(timeout=120) == "done"  # finished locally

    def test_stale_event_upload_conflicts_after_expiry(self):
        with SearchService(workers=1, lease_seconds=0.2) as service:
            agent_id = service.register_agent(name="slow")["agent_id"]
            handle = service.submit(search_plan())
            claim = service.claim_job(agent_id)
            assert wait_until(lambda: handle.info()["agent"] is None)
            with pytest.raises(StaleLeaseError):
                service.record_agent_events(
                    agent_id, claim["job_id"],
                    [JobLeased(claim["job_id"], "too late")])
            handle.wait(timeout=120)

    def test_graceful_leave_requeues_immediately(self):
        with SearchService(workers=1) as service:
            agent_id = service.register_agent(name="alpha")["agent_id"]
            handle = service.submit(search_plan())
            service.claim_job(agent_id)
            service.deregister_agent(agent_id)
            assert handle.wait(timeout=120) == "done"  # local takeover
            assert "LeaseExpired" in event_kinds(handle)


class TestJournalLeaseRecovery:
    def _freeze(self, service):
        """Simulate a coordinator SIGKILL: stop writing, stop expiring."""
        service._monitor_stop.set()
        if service._journal is not None:
            service._journal.close()

    def test_restart_restores_the_lease_to_the_recorded_agent(self, tmp_path):
        plan = search_plan(seed=11)
        store = str(tmp_path / "store")
        first = SearchService(workers=1, store_dir=store,
                              lease_seconds=5.0)
        agent_id = first.register_agent(name="alpha")["agent_id"]
        first.submit(plan)
        claim = first.claim_job(agent_id)
        self._freeze(first)

        second = SearchService(workers=1, store_dir=store, lease_seconds=5.0)
        try:
            assert second.recovered_jobs == [claim["job_id"]]
            handle = second.job(claim["job_id"])
            info = handle.info()
            assert info["state"] == "running"
            assert info["agent"] == agent_id
            agents = second.agents()
            assert [a["agent_id"] for a in agents] == [agent_id]
            assert agents[0]["restored"] is True
            assert "JobLeased" in event_kinds(handle)
            # The surviving agent re-registers and finishes normally.
            second.register_agent(name="alpha", agent_id=agent_id)
            second.heartbeat(agent_id, [claim["job_id"]])
            second.complete_job(agent_id, claim["job_id"], "done",
                                payload=run_payload(plan))
            assert handle.wait(timeout=10) == "done"
        finally:
            second.shutdown(wait=True, cancel_running=True)

    def test_restored_lease_expires_into_local_execution(self, tmp_path):
        plan = search_plan(seed=12)
        store = str(tmp_path / "store")
        first = SearchService(workers=1, store_dir=store, lease_seconds=0.3)
        agent_id = first.register_agent(name="alpha")["agent_id"]
        first.submit(plan)
        claim = first.claim_job(agent_id)
        self._freeze(first)

        second = SearchService(workers=1, store_dir=store, lease_seconds=0.3)
        try:
            handle = second.job(claim["job_id"])
            # The recorded agent never heartbeats: grace runs out, the
            # job re-queues and the local worker finishes it.
            assert handle.wait(timeout=30) == "done"
            kinds = event_kinds(handle)
            assert "LeaseExpired" in kinds
            assert handle.result_bytes() is not None
        finally:
            second.shutdown(wait=True, cancel_running=True)
