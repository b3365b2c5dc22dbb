"""HTTP error paths of the gateway, over a live loopback server.

Every failure mode a client can hit on the wire is answered with a
status code, a JSON ``{"error": ...}`` body and, where a retry makes
sense, a ``Retry-After`` header: malformed or truncated bodies (400),
unknown routes, jobs and agents (404), unsupported methods (405),
results a workload cannot serialize (406), stalled bodies (408), stale
leases (409), oversized bodies (413), missing or unknown API keys
(401/403), quota breaches (429) and submissions during a drain (503).
"""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.events import JobLeased
from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayRunner
from repro.service.http import MAX_BODY_BYTES
from repro.service.tenants import Tenant, TenantRegistry


def search_plan(seed=0, trials=2):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@pytest.fixture()
def open_front_end(tmp_path):
    """A gateway with no tenant registry (open access)."""
    with GatewayRunner(workers=1, drain_grace=0,
                       checkpoint_dir=str(tmp_path / "ckpt")) as runner:
        yield runner


@pytest.fixture()
def tenant_front_end(tmp_path):
    """A gateway requiring API keys, with tight quotas on 'acme'."""
    registry = TenantRegistry([
        Tenant(name="acme", api_key="k-acme", max_running=1, max_queued=2),
        Tenant(name="beta", api_key="k-beta"),
    ])
    with GatewayRunner(workers=1, tenants=registry, drain_grace=0,
                       checkpoint_dir=str(tmp_path / "ckpt")) as runner:
        yield runner


def post(base_url, path, payload, headers=None):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{base_url}{path}", data=body,
        headers={"Content-Type": "application/json", **(headers or {})})
    return urllib.request.urlopen(request, timeout=10)


def get(url):
    return urllib.request.urlopen(url, timeout=10)


def http_error(request, *args, **kwargs):
    """Send a request that must fail; returns ``(status, headers, body)``.

    The error response is read and closed here, so no socket outlives
    the test.
    """
    with pytest.raises(urllib.error.HTTPError) as err:
        request(*args, **kwargs)
    with err.value as error:
        return error.code, error.headers, error.read()


def raw_exchange(front, data, half_close=False):
    """Send raw request bytes; read the reply until the server closes.

    ``half_close`` shuts the client's sending side after ``data``, as a
    client that gives up mid-body does.  Returns ``(status, body)``.
    """
    with socket.create_connection((front.host, front.port),
                                  timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        raw = b""
        while chunk := sock.recv(4096):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def wait_until_running(client, job_id):
    deadline = time.monotonic() + 60
    while client.status(job_id)["state"] != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.05)


class TestMalformedRequests:
    def test_malformed_json_is_400(self, open_front_end):
        status, _, body = http_error(
            post, open_front_end.base_url, "/jobs", b"{not json")
        assert status == 400
        assert "error" in json.loads(body)

    def test_json_without_a_plan_is_400(self, open_front_end):
        status, _, _ = http_error(
            post, open_front_end.base_url, "/jobs", {"nope": 1})
        assert status == 400

    def test_non_object_json_is_400(self, open_front_end):
        status, _, _ = http_error(
            post, open_front_end.base_url, "/jobs", b"[1, 2, 3]")
        assert status == 400

    def test_a_search_plan_of_two_searches_is_400(self, open_front_end):
        plan = RunPlan(
            workload="search",
            search=SearchPlan(trials=2),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(5.0, 7.5)),
        )
        status, _, body = http_error(
            post, open_front_end.base_url, "/jobs",
            {"plan": plan.to_dict()})
        assert status == 400
        assert json.loads(body)["error"].startswith("bad submission: ")
        assert "one search" in json.loads(body)["error"]
        assert open_front_end.service.jobs() == []

    def test_invalid_since_parameter_is_400(self, open_front_end):
        client = ServiceClient(open_front_end.base_url)
        info = client.submit(search_plan())
        client.wait(info["job_id"], timeout=120)
        status, _, _ = http_error(
            get, f"{open_front_end.base_url}/jobs/{info['job_id']}"
            "/events?since=banana")
        assert status == 400


class TestUnknownRoutes:
    @pytest.mark.parametrize("path", ["/nope", "/agents/x", "/jobs/x/what"])
    def test_unknown_get_routes_are_404(self, open_front_end, path):
        status, _, _ = http_error(get, f"{open_front_end.base_url}{path}")
        assert status == 404

    def test_unknown_post_routes_are_404(self, open_front_end):
        status, _, _ = http_error(
            post, open_front_end.base_url, "/nope", {"x": 1})
        assert status == 404

    def test_unknown_job_id_is_404(self, open_front_end):
        status, _, _ = http_error(
            get, f"{open_front_end.base_url}/jobs/j-missing")
        assert status == 404

    def test_unsupported_method_is_405(self, open_front_end):
        request = urllib.request.Request(
            f"{open_front_end.base_url}/jobs", method="PUT")
        status, _, body = http_error(urllib.request.urlopen, request,
                                     timeout=10)
        assert status == 405
        assert json.loads(body) == {"error": "method PUT not allowed"}


class TestResults:
    def test_workload_without_a_result_codec_is_406(self, open_front_end):
        client = ServiceClient(open_front_end.base_url)
        info = client.submit(RunPlan(workload="table1",
                                     search=SearchPlan(seed=0, trials=2)))
        assert client.wait(info["job_id"], timeout=120)["state"] == "done"
        with pytest.raises(ServiceError) as err:
            client.result_bytes(info["job_id"])
        assert err.value.status == 406
        assert "table1" in json.loads(err.value.body)["error"]


class TestOversizedPayloads:
    def test_declared_oversize_is_refused_with_413(self, open_front_end):
        # Declare a body one byte over the cap; the gateway must refuse
        # before reading it, so no body is ever sent here.
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, open_front_end):
        conn = http.client.HTTPConnection(
            open_front_end.host, open_front_end.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-5")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()


class TestIncompleteBodies:
    HEAD = (b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n")

    def test_truncated_body_is_400(self, open_front_end):
        status, body = raw_exchange(
            open_front_end, self.HEAD + b'{"plan": ', half_close=True)
        assert status == 400
        assert body["error"] == "body truncated: got 9 of 100 bytes"

    def test_stalled_body_is_408(self, open_front_end, monkeypatch):
        monkeypatch.setattr(
            "repro.service.gateway.REQUEST_TIMEOUT_SECONDS", 0.3)
        started = time.monotonic()
        status, body = raw_exchange(open_front_end,
                                    self.HEAD + b'{"plan": ')
        assert status == 408
        assert "stalled" in body["error"]
        assert time.monotonic() - started < 10


class TestApiKeys:
    def test_missing_key_is_401(self, tenant_front_end):
        status, _, _ = http_error(
            post, tenant_front_end.base_url, "/jobs",
            {"plan": search_plan().to_dict()})
        assert status == 401

    def test_unknown_key_is_403(self, tenant_front_end):
        status, _, _ = http_error(
            post, tenant_front_end.base_url, "/jobs",
            {"plan": search_plan().to_dict()},
            headers={"X-API-Key": "k-wrong"})
        assert status == 403

    def test_reads_require_a_key_too(self, tenant_front_end):
        status, _, _ = http_error(
            get, f"{tenant_front_end.base_url}/jobs/j-x")
        assert status == 401

    def test_health_and_metrics_stay_open(self, tenant_front_end):
        for path in ("/health", "/metrics"):
            with get(f"{tenant_front_end.base_url}{path}") as resp:
                assert resp.status == 200

    def test_valid_key_is_admitted_and_attributed(self, tenant_front_end):
        client = ServiceClient(tenant_front_end.base_url, api_key="k-beta")
        info = client.submit(search_plan(seed=50))
        assert info["tenant"] == "beta"
        assert client.wait(info["job_id"], timeout=120)["state"] == "done"


class TestQuotaBreaches:
    def test_running_quota_is_429_with_retry_after(self, tenant_front_end):
        client = ServiceClient(tenant_front_end.base_url, max_retries=0,
                               api_key="k-acme")
        blocker = client.submit(search_plan(seed=60, trials=60))
        try:
            wait_until_running(client, blocker["job_id"])
            status, headers, body = http_error(
                post, tenant_front_end.base_url, "/jobs",
                {"plan": search_plan(seed=61).to_dict()},
                headers={"X-API-Key": "k-acme"})
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            body = json.loads(body)
            assert body["tenant"] == "acme"
            assert body["limit"] == "running"
        finally:
            client.cancel(blocker["job_id"])

    def test_quota_is_per_tenant_not_global(self, tenant_front_end):
        acme = ServiceClient(tenant_front_end.base_url, max_retries=0,
                             api_key="k-acme")
        beta = ServiceClient(tenant_front_end.base_url, api_key="k-beta")
        blocker = acme.submit(search_plan(seed=62, trials=60))
        try:
            wait_until_running(acme, blocker["job_id"])
            # acme is at its running limit; beta is unaffected.
            info = beta.submit(search_plan(seed=63))
            assert info["tenant"] == "beta"
            assert beta.wait(info["job_id"], timeout=120)["state"] == "done"
        finally:
            acme.cancel(blocker["job_id"])


class TestDraining:
    def test_submission_during_a_drain_is_503(self, tmp_path):
        runner = GatewayRunner(workers=1,
                               checkpoint_dir=str(tmp_path / "ckpt")).start()
        client = ServiceClient(runner.base_url, max_retries=0)
        # A job that outlives the test keeps the drain in progress.
        running = client.submit(search_plan(seed=70, trials=100_000))
        held = http.client.HTTPConnection(runner.host, runner.port,
                                          timeout=10)
        idle = http.client.HTTPConnection(runner.host, runner.port,
                                          timeout=10)
        body = json.dumps({"plan": search_plan(seed=71).to_dict()})
        try:
            wait_until_running(client, running["job_id"])
            client.close()
            # A submission under way when the drain begins: its head
            # is in, its body is not.  Once no connection is idle, the
            # gateway has read the head.
            held.putrequest("POST", "/jobs")
            held.putheader("Content-Type", "application/json")
            held.putheader("Content-Length", str(len(body)))
            held.endheaders()
            deadline = time.monotonic() + 10
            while runner.gateway._idle:
                assert time.monotonic() < deadline, "head never read"
                time.sleep(0.01)
            idle.request("GET", "/health")
            assert idle.getresponse().read()
            assert client.shutdown()["status"] == "shutting down"
            deadline = time.monotonic() + 10
            while not runner.gateway.draining:
                assert time.monotonic() < deadline, "drain never began"
                time.sleep(0.01)
            # The idle keep-alive connection is closed at once, while
            # the job still runs.
            assert idle.sock.recv(1) == b""
            assert runner.service.job(running["job_id"]).state == "running"
            held.send(body.encode())
            resp = held.getresponse()
            assert resp.status == 503
            assert resp.headers["Retry-After"] == "1"
            assert json.loads(resp.read())["error"] \
                == "gateway is draining; resubmit elsewhere"
        finally:
            held.close()
            idle.close()
            runner.service.cancel(running["job_id"])
            runner.stop()
        assert runner.service.job(running["job_id"]).state == "cancelled"


#: The agent's two uploads for a job, as ``upload(client, agent, job)``.
UPLOADS = {
    "events": lambda client, agent_id, job_id: client.agent_events(
        agent_id, job_id, [JobLeased(job_id, "too late").to_dict()]),
    "complete": lambda client, agent_id, job_id: client.agent_complete(
        agent_id, job_id, "done"),
}


class TestAgentErrors:
    """The ``/agents`` family's typed errors, as the agent sees them."""

    @pytest.mark.parametrize("verb", ["agent_heartbeat", "claim"])
    def test_unknown_agent_is_404(self, open_front_end, verb):
        client = ServiceClient(open_front_end.base_url)
        with pytest.raises(ServiceError) as err:
            getattr(client, verb)("a-ghost")
        assert err.value.status == 404
        assert "a-ghost" in json.loads(err.value.body)["error"]

    def test_leave_of_an_unknown_agent_is_idempotent(self, open_front_end):
        client = ServiceClient(open_front_end.base_url)
        assert client.agent_leave("a-ghost") == {"status": "left"}

    @pytest.mark.parametrize("verb", sorted(UPLOADS))
    def test_unknown_job_upload_is_404(self, open_front_end, verb):
        client = ServiceClient(open_front_end.base_url)
        with pytest.raises(ServiceError) as err:
            UPLOADS[verb](client, "a-ghost", "j-missing")
        assert err.value.status == 404

    @pytest.mark.parametrize("verb", sorted(UPLOADS))
    def test_upload_under_a_stale_lease_is_409(self, open_front_end, verb):
        client = ServiceClient(open_front_end.base_url)
        agent_id = client.register_agent(agent_id="a-stale")["agent_id"]
        info = client.submit(search_plan(seed=80))
        claim = client.claim(agent_id)
        assert claim["job_id"] == info["job_id"]
        # Leaving releases the lease; the job re-queues and runs
        # locally.  The re-registered agent no longer holds it.
        client.agent_leave(agent_id)
        client.register_agent(agent_id=agent_id)
        with pytest.raises(ServiceError) as err:
            UPLOADS[verb](client, agent_id, info["job_id"])
        assert err.value.status == 409
        assert "does not hold the lease" in json.loads(err.value.body)["error"]
        client.agent_leave(agent_id)
        assert client.wait(info["job_id"], timeout=120)["state"] == "done"
