"""The HTTP endpoint and its client, over a live loopback server."""

import json
import socket
import time

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayRunner


def search_plan(seed=0, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@pytest.fixture()
def live_service(tmp_path):
    """A served SearchService on an ephemeral loopback port."""
    with GatewayRunner(workers=2, store_dir=str(tmp_path / "store"),
                       checkpoint_dir=str(tmp_path / "ckpt"),
                       drain_grace=0) as runner, \
            ServiceClient(runner.base_url) as client:
        yield client


class TestHTTPEndpoint:
    def test_health(self, live_service):
        health = live_service.health()
        assert health["status"] == "ok"
        assert health["store_entries"] == 0

    def test_submit_wait_result_roundtrip(self, live_service):
        info = live_service.submit(search_plan())
        assert info["state"] in ("queued", "running", "done")
        final = live_service.wait(info["job_id"], timeout=120)
        assert final["state"] == "done"
        blob = live_service.result_bytes(info["job_id"])
        assert b'"trials"' in blob
        assert len(live_service.jobs()) == 1

    def test_duplicate_submission_served_byte_identically(self, live_service):
        plan = search_plan(seed=3)
        first = live_service.submit(plan)
        live_service.wait(first["job_id"], timeout=120)
        original = live_service.result_bytes(first["job_id"])
        again = live_service.submit(plan)
        assert again["job_id"] == first["job_id"]
        assert live_service.result_bytes(again["job_id"]) == original

    def test_events_cursor(self, live_service):
        info = live_service.submit(search_plan(seed=5))
        live_service.wait(info["job_id"], timeout=120)
        page = live_service.events(info["job_id"])
        tags = [e["event"] for e in page["events"]]
        assert tags[0] == "job-queued"
        assert tags[-1] == "job-completed"
        assert "search-started" in tags and "search-finished" in tags
        # Cursor: a second read from `next` returns nothing new.
        rest = live_service.events(info["job_id"], since=page["next"])
        assert rest["events"] == []

    def test_cancel_then_resubmit_resumes(self, live_service):
        plan = search_plan(seed=7, trials=60)
        info = live_service.submit(plan)
        live_service.cancel(info["job_id"])
        final = live_service.wait(info["job_id"], timeout=120)
        assert final["state"] == "cancelled"
        with pytest.raises(ServiceError) as err:
            live_service.result_bytes(info["job_id"])
        assert err.value.status == 409
        resumed = live_service.submit(plan)
        assert resumed["job_id"] == info["job_id"]
        assert live_service.wait(resumed["job_id"],
                                 timeout=300)["state"] == "done"

    def test_bad_plan_is_a_400(self, live_service):
        with pytest.raises(ServiceError) as err:
            live_service.submit({"workload": "search",
                                 "search": {"seeed": 1}})
        assert err.value.status == 400
        assert "seeed" in err.value.body

    def test_unknown_job_is_a_404(self, live_service):
        with pytest.raises(ServiceError) as err:
            live_service.status("j-missing")
        assert err.value.status == 404

    def test_job_info_comes_from_the_public_locked_accessor(
        self, live_service
    ):
        info = live_service.submit(search_plan(seed=11))
        final = live_service.wait(info["job_id"], timeout=120)
        # The /jobs shape is JobHandle.info(): all fields, one snapshot.
        assert set(final) >= {"job_id", "state", "plan_hash", "workload",
                              "priority", "cached", "runs", "events",
                              "error"}
        assert final["state"] == "done" and final["error"] is None


class TestShutdownFlush:
    """Pin the /shutdown reply: it is complete before the server dies.

    A server that starts tearing down while the response is still
    unflushed lets a client racing process exit read a torn (or empty)
    body.  The response must arrive complete -- headers, declared
    Content-Length, parseable JSON -- on a raw socket that reads
    *after* the server has begun draining.
    """

    def test_shutdown_reply_is_complete_on_the_wire(self):
        runner = GatewayRunner(workers=1).start()
        try:
            with socket.create_connection((runner.host, runner.port),
                                          timeout=30) as sock:
                sock.sendall(
                    b"POST /shutdown HTTP/1.1\r\n"
                    b"Host: test\r\nContent-Length: 0\r\n\r\n"
                )
                # Wait for the drain to begin, *then* read -- the reply
                # must already be flushed to the socket by that point.
                deadline = time.monotonic() + 30
                while not runner.gateway.draining:
                    assert time.monotonic() < deadline, "drain never began"
                    time.sleep(0.01)
                sock.settimeout(30)
                raw = b""
                while b"\r\n\r\n" not in raw:
                    chunk = sock.recv(4096)
                    assert chunk, f"connection closed mid-headers: {raw!r}"
                    raw += chunk
                headers, _, body = raw.partition(b"\r\n\r\n")
                assert b"200" in headers.splitlines()[0]
                length = int(
                    [line.split(b":", 1)[1] for line in headers.splitlines()
                     if line.lower().startswith(b"content-length")][0]
                )
                while len(body) < length:
                    chunk = sock.recv(4096)
                    assert chunk, "connection closed mid-body"
                    body += chunk
                assert json.loads(body) == {"status": "shutting down"}
        finally:
            runner.stop(timeout=60)


class TestHashOnce:
    def test_one_http_submission_serializes_its_plan_once(
            self, monkeypatch):
        """The dedup probe, the queueing and the pool dispatch of one
        submission share one serialization of the plan the gateway
        parsed (a persistent store's journal, absent here, writes the
        plan document once more for its ``queued`` line)."""
        serialized = []
        to_dict = RunPlan.to_dict

        def recording_to_dict(plan):
            serialized.append(plan)
            return to_dict(plan)

        monkeypatch.setattr(RunPlan, "to_dict", recording_to_dict)
        plan = search_plan(seed=90)
        with GatewayRunner(workers=1, backend="process") as runner, \
                ServiceClient(runner.base_url) as client:
            info = client.submit(plan)
            assert client.wait(info["job_id"], timeout=120)["state"] \
                == "done"
            submitted = runner.service.job(info["job_id"]).plan
        assert submitted is not plan and submitted == plan
        assert sum(p is submitted for p in serialized) == 1
