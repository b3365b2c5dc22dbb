"""The asyncio gateway: streaming, admission, drain, wire parity."""

import http.client
import json
import threading
import time
import urllib.request

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayRunner
from repro.service.journal import JobJournal
from repro.service.service import SearchService
from repro.service.tenants import Tenant, TenantRegistry


def search_plan(seed=0, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@pytest.fixture()
def live_gateway(tmp_path):
    """A gateway-served SearchService on an ephemeral loopback port."""
    with GatewayRunner(workers=2, store_dir=str(tmp_path / "store"),
                       checkpoint_dir=str(tmp_path / "ckpt")) as runner:
        yield runner


def get_json(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


class TestWireParity:
    """The wire schema: submit, result bytes, keep-alive, agents."""

    def test_submit_wait_result_roundtrip(self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        info = client.submit(search_plan())
        assert info["state"] in ("queued", "running", "done")
        assert set(info) >= {"job_id", "state", "plan_hash", "priority",
                             "deduped", "tenant"}
        final = client.wait(info["job_id"], timeout=120)
        assert final["state"] == "done"
        blob = client.result_bytes(info["job_id"])
        assert b'"trials"' in blob

    def test_duplicate_submission_coalesces_and_matches_bytes(
            self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        plan = search_plan(seed=3)
        first = client.submit(plan)
        client.wait(first["job_id"], timeout=120)
        original = client.result_bytes(first["job_id"])
        again = client.submit(plan)
        assert again["deduped"] is True
        assert again["job_id"] == first["job_id"]
        assert client.result_bytes(again["job_id"]) == original

    def test_result_of_unfinished_job_is_409(self, live_gateway):
        client = ServiceClient(live_gateway.base_url, max_retries=0)
        info = client.submit(search_plan(seed=7, trials=60))
        try:
            with pytest.raises(ServiceError) as err:
                client.result_bytes(info["job_id"])
            assert err.value.status == 409
        finally:
            client.cancel(info["job_id"])

    def test_keep_alive_serves_multiple_requests_per_connection(
            self, live_gateway):
        conn = http.client.HTTPConnection("127.0.0.1", live_gateway.port,
                                          timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/health")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
        finally:
            conn.close()

    def test_agent_routes_are_served(self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        registered = client.register_agent(name="gw-agent")
        assert registered["agent_id"]
        assert any(a["agent_id"] == registered["agent_id"]
                   for a in client.agents())
        assert client.claim(registered["agent_id"]) is None  # empty queue
        client.agent_leave(registered["agent_id"])


class TestEventDelivery:
    def test_sse_streams_events_live_then_ends(self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        info = client.submit(search_plan(seed=11, trials=8))
        frames = list(client.stream_events(info["job_id"]))
        tags = [f["event"] for f in frames]
        assert tags[0] == "job-queued"
        assert "job-completed" in tags
        assert tags[-1] == "end"
        assert frames[-1]["data"]["state"] == "done"
        # ids are the event cursor: strictly increasing from 1.
        ids = [f["id"] for f in frames[:-1]]
        assert ids == list(range(1, len(ids) + 1))

    def test_sse_since_resumes_after_the_last_seen_frame(
            self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        info = client.submit(search_plan(seed=12))
        client.wait(info["job_id"], timeout=120)
        everything = list(client.stream_events(info["job_id"]))
        resumed = list(client.stream_events(info["job_id"],
                                            since=everything[1]["id"]))
        assert [f["id"] for f in resumed[:-1]] \
            == [f["id"] for f in everything[2:-1]]

    def test_sse_for_unknown_job_is_404_not_a_stream(self, live_gateway):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{live_gateway.base_url}/jobs/nope/events/stream",
                timeout=10)
        with err.value as error:
            assert error.code == 404
            assert error.headers["Content-Type"] == "application/json"

    def test_stream_events_on_unknown_job_is_one_404_request(
            self, live_gateway, monkeypatch):
        sent = []
        request = http.client.HTTPConnection.request

        def counting_request(self, method, url, *args, **kwargs):
            sent.append((method, url))
            return request(self, method, url, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request",
                            counting_request)
        with ServiceClient(live_gateway.base_url) as client:
            with pytest.raises(ServiceError) as err:
                next(client.stream_events("j-missing"))
        assert err.value.status == 404
        assert sent == [("GET", "/jobs/j-missing/events/stream?since=0")]

    def test_sse_is_chunked_and_keeps_the_connection(self, live_gateway):
        with ServiceClient(live_gateway.base_url) as client:
            info = client.submit(search_plan(seed=15))
            client.wait(info["job_id"], timeout=120)
        conn = http.client.HTTPConnection("127.0.0.1", live_gateway.port,
                                          timeout=10)
        try:
            conn.request("GET", f"/jobs/{info['job_id']}/events/stream")
            resp = conn.getresponse()
            assert resp.headers["Transfer-Encoding"] == "chunked"
            body = resp.read()  # de-chunked, up to the last chunk
            assert body.endswith(b"event: end\ndata: " + json.dumps(
                {"state": "done", "next": body.count(b"id: ") - 1,
                 "reason": "terminal"}).encode() + b"\n\n")
            conn.request("GET", "/health")  # same socket, next request
            assert json.loads(conn.getresponse().read())["status"] == "ok"
        finally:
            conn.close()

    def test_long_poll_parks_until_events_arrive(self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        # A queued-then-running job: the first poll page returns the
        # queue events; polling *past* the log's tail must park until
        # the job produces more instead of returning an empty page.
        info = client.submit(search_plan(seed=13, trials=8))
        cursor = client.events(info["job_id"])["next"]
        started = time.monotonic()
        page = client.events(info["job_id"], since=cursor, wait=30)
        elapsed = time.monotonic() - started
        assert page["events"] or page["state"] in ("done",)
        # Either events arrived (we parked until then) or the job
        # finished; both beat a 30s timeout by far.
        assert elapsed < 30
        client.wait(info["job_id"], timeout=120)

    def test_long_poll_returns_immediately_for_terminal_jobs(
            self, live_gateway):
        client = ServiceClient(live_gateway.base_url)
        info = client.submit(search_plan(seed=14))
        client.wait(info["job_id"], timeout=120)
        cursor = client.events(info["job_id"])["next"]
        started = time.monotonic()
        page = client.events(info["job_id"], since=cursor, wait=20)
        assert time.monotonic() - started < 5
        assert page["state"] == "done"
        assert page["events"] == []


class TestAdmission:
    def test_backpressure_is_503_with_retry_after(self, tmp_path):
        with GatewayRunner(workers=1, max_pending=1,
                           checkpoint_dir=str(tmp_path / "ckpt")) as runner:
            client = ServiceClient(runner.base_url, max_retries=0)
            running = client.submit(search_plan(seed=20, trials=60))
            # The first job must leave the queue before the second
            # fills it, or the second submit is the one refused.
            deadline = time.monotonic() + 30
            while client.status(running["job_id"])["state"] == "queued":
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.005)
            queued = client.submit(search_plan(seed=21, trials=60))
            try:
                request = urllib.request.Request(
                    f"{runner.base_url}/jobs",
                    data=json.dumps(
                        {"plan": search_plan(seed=22).to_dict()}).encode(),
                    headers={"Content-Type": "application/json"})
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request, timeout=10)
                with err.value as error:
                    assert error.code == 503
                    assert error.headers["Retry-After"]
            finally:
                client.cancel(queued["job_id"])
                client.cancel(running["job_id"])

    def test_rejected_submission_never_touches_admitted_jobs(
            self, tmp_path):
        registry = TenantRegistry([
            Tenant(name="acme", api_key="k-acme", max_queued=1)])
        with GatewayRunner(workers=1, tenants=registry,
                           checkpoint_dir=str(tmp_path / "ckpt")) as runner:
            client = ServiceClient(runner.base_url, max_retries=0,
                                   api_key="k-acme")
            running = client.submit(search_plan(seed=23, trials=40))
            queued = client.submit(search_plan(seed=24, trials=2))
            with pytest.raises(ServiceError) as err:
                client.submit(search_plan(seed=25))
            assert err.value.status == 429
            # The admitted jobs are untouched and both finish.
            assert client.wait(running["job_id"], timeout=120)["state"] \
                == "done"
            assert client.wait(queued["job_id"], timeout=120)["state"] \
                == "done"

    def test_connection_cap_rejects_the_excess_connection(self, tmp_path):
        with GatewayRunner(workers=1, max_connections=1,
                           checkpoint_dir=str(tmp_path / "ckpt")) as runner:
            holder = http.client.HTTPConnection(
                "127.0.0.1", runner.port, timeout=10)
            try:
                holder.connect()
                holder.request("GET", "/health")
                assert holder.getresponse().status == 200  # keep-alive held
                second = http.client.HTTPConnection(
                    "127.0.0.1", runner.port, timeout=10)
                try:
                    second.request("GET", "/health")
                    resp = second.getresponse()
                    assert resp.status == 503
                finally:
                    second.close()
            finally:
                holder.close()


class TestGracefulDrain:
    def test_shutdown_drains_jobs_and_flushes_the_journal(self, tmp_path):
        store = tmp_path / "store"
        runner = GatewayRunner(workers=1, store_dir=str(store)).start()
        client = ServiceClient(runner.base_url)
        try:
            info = client.submit(search_plan(seed=30, trials=10))
            assert client.shutdown()["status"] == "shutting down"
        finally:
            runner.stop()
        # The admitted job ran to completion during the drain and its
        # terminal transition reached the journal.
        entries = JobJournal.replay(store / "journal.jsonl")
        ops = [e["op"] for e in entries if e["hash"] == info["plan_hash"]]
        assert ops[-1] == "done"

    def test_drained_gateway_result_matches_an_in_process_run(
            self, tmp_path):
        plan = search_plan(seed=31)
        gw_store = tmp_path / "gw-store"
        runner = GatewayRunner(workers=1, store_dir=str(gw_store)).start()
        try:
            client = ServiceClient(runner.base_url)
            info = client.submit(plan)
            client.wait(info["job_id"], timeout=120)
            gateway_bytes = client.result_bytes(info["job_id"])
        finally:
            runner.stop()
        service = SearchService(
            workers=1, store_dir=str(tmp_path / "in-process-store"))
        try:
            handle = service.submit(plan)
            handle.wait(timeout=120)
            in_process_bytes = handle.stored_result_bytes()
        finally:
            service.shutdown(wait=True)
        assert gateway_bytes == in_process_bytes

    def test_stop_closes_an_idle_keep_alive_connection_at_once(
            self, tmp_path, caplog):
        runner = GatewayRunner(workers=1,
                               checkpoint_dir=str(tmp_path / "ckpt")).start()
        idle = http.client.HTTPConnection("127.0.0.1", runner.port,
                                          timeout=10)
        try:
            idle.request("GET", "/health")
            assert idle.getresponse().read()
            started = time.monotonic()
            runner.stop()
            assert time.monotonic() - started < 0.5
            # The server closed its end: the idle socket reads EOF.
            assert idle.sock.recv(1) == b""
        finally:
            idle.close()
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_sse_streams_end_with_a_drain_frame(self, tmp_path):
        runner = GatewayRunner(workers=1,
                               checkpoint_dir=str(tmp_path / "ckpt")).start()
        client = ServiceClient(runner.base_url)
        try:
            info = client.submit(search_plan(seed=32, trials=120))
            frames = []
            stream = client.stream_events(info["job_id"])
            # Consume the first frames, then drain mid-stream.
            for frame in stream:
                frames.append(frame)
                if len(frames) == 2:
                    threading.Thread(target=client.shutdown,
                                     daemon=True).start()
            assert frames[-1]["event"] == "end"
        finally:
            runner.stop()


class TestGatewayMetrics:
    def test_metrics_reports_streams_and_submissions(self, live_gateway):
        with ServiceClient(live_gateway.base_url) as client:
            info = client.submit(search_plan(seed=40))
            client.wait(info["job_id"], timeout=120)
            list(client.stream_events(info["job_id"]))
        snapshot = get_json(f"{live_gateway.base_url}/metrics")
        assert snapshot["jobs"]["done"] >= 1
        assert snapshot["counters"]["submissions"] >= 1
        assert snapshot["counters"]["sse_streams"] >= 1
        assert snapshot["counters"]["sse_events"] >= 1
        # The client's calls shared one connection; /metrics came on
        # a second one.
        assert snapshot["counters"]["connections"] == 2
        assert snapshot["counters"]["requests"] >= 5
        assert snapshot["gauges"]["open_connections"] >= 1
        assert snapshot["store"]["entries"] >= 1
        assert snapshot["uptime_seconds"] > 0
