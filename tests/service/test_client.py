"""ServiceClient retry, backoff, wait and connection-pool semantics.

The chaos-proxy tests (``test_faults.py``) prove the retry loop works
against real torn sockets; the policy tests here pin *how many*
attempts, which failures are retryable, how the backoff grows, and
what ``wait`` raises -- without any network in the loop: the one
transport call (``_exchange``, one request and its whole reply) is
replaced per test.  The pool tests drive a live gateway and count its
accepted connections.
"""

import http.client
import json
import os
import random
import sys
import threading
import time

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import JobTimeoutError, ServiceClient, ServiceError
from repro.service.gateway import GatewayRunner


def http_error(code, body=b"boom"):
    return (code, body)


@pytest.fixture()
def client():
    return ServiceClient("http://127.0.0.1:1", timeout=1.0,
                         max_retries=3, backoff=0.01)


@pytest.fixture()
def no_sleep(monkeypatch):
    """Capture backoff sleeps instead of actually sleeping."""
    slept = []
    monkeypatch.setattr("repro.service.client.time.sleep", slept.append)
    return slept


def install_transport(monkeypatch, client, outcomes):
    """Serve each outcome (exception, status pair or payload) per attempt."""
    attempts = []

    def fake_exchange(method, path, data):
        attempts.append((method, path))
        outcome = outcomes[min(len(attempts) - 1, len(outcomes) - 1)]
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, tuple):
            return outcome
        return 200, json.dumps(outcome).encode()

    monkeypatch.setattr(client, "_exchange", fake_exchange)
    return attempts


class TestConstruction:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ServiceClient("http://x", max_retries=-1)

    def test_rejects_nonpositive_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            ServiceClient("http://x", backoff=0)

    def test_zero_retries_disables_retrying(self, monkeypatch, no_sleep):
        client = ServiceClient("http://x", max_retries=0)
        attempts = install_transport(monkeypatch, client,
                                     [ConnectionError("down")])
        with pytest.raises(ConnectionError):
            client.health()
        assert len(attempts) == 1


class TestRetryPolicy:
    def test_connection_errors_retried_then_raised(
            self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client,
                                     [ConnectionError("down")])
        with pytest.raises(ConnectionError):
            client.health()
        assert len(attempts) == 1 + client.max_retries
        assert len(no_sleep) == client.max_retries  # sleep between, not after

    def test_recovery_mid_retries_returns_the_payload(
            self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client, [
            ConnectionError("down"), TimeoutError("slow"), {"status": "ok"},
        ])
        assert client.health() == {"status": "ok"}
        assert len(attempts) == 3

    def test_torn_replies_are_retried(self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client, [
            http.client.IncompleteRead(b"{"),
            http.client.RemoteDisconnected("closed"), {"status": "ok"},
        ])
        assert client.health() == {"status": "ok"}
        assert len(attempts) == 3

    def test_5xx_is_retried(self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client, [
            http_error(503), {"status": "ok"},
        ])
        assert client.health() == {"status": "ok"}
        assert len(attempts) == 2

    def test_5xx_exhaustion_raises_service_error(
            self, client, monkeypatch, no_sleep):
        install_transport(monkeypatch, client, [http_error(500)])
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 500

    def test_4xx_is_an_answer_not_retried(
            self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client,
                                     [http_error(404)])
        with pytest.raises(ServiceError) as excinfo:
            client.status("j-missing")
        assert excinfo.value.status == 404
        assert len(attempts) == 1
        assert no_sleep == []

    def test_non_idempotent_calls_never_retry(
            self, client, monkeypatch, no_sleep):
        attempts = install_transport(monkeypatch, client,
                                     [ConnectionError("down")])
        with pytest.raises(ConnectionError):
            client.shutdown()
        assert len(attempts) == 1

    def test_backoff_doubles_with_jitter_under_the_cap(
            self, client, monkeypatch, no_sleep):
        monkeypatch.setattr("repro.service.client.random.random", lambda: 1.0)
        client.max_retries = 10
        client.backoff = 0.1
        install_transport(monkeypatch, client, [ConnectionError("down")])
        with pytest.raises(ConnectionError):
            client.health()
        # Jitter factor pinned to its max (1.0): pure doubling, capped.
        assert no_sleep[:5] == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6])
        assert max(no_sleep) <= 2.0
        # Jittered delays are never more than the deterministic curve.
        monkeypatch.setattr("repro.service.client.random.random",
                            lambda: 0.0)
        jittered = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            jittered.append)
        with pytest.raises(ConnectionError):
            client.health()
        assert all(low == pytest.approx(full / 2)
                   for low, full in zip(jittered, no_sleep))


class TestWait:
    def install_states(self, monkeypatch, client, states):
        calls = []

        def status(job_id):
            calls.append(job_id)
            state = states[min(len(calls) - 1, len(states) - 1)]
            return {"job_id": job_id, "state": state, "events": len(calls)}

        monkeypatch.setattr(client, "status", status)
        return calls

    def test_returns_on_terminal_state(self, client, monkeypatch, no_sleep):
        self.install_states(monkeypatch, client,
                            ["queued", "running", "done"])
        info = client.wait("j-1", timeout=5.0, poll=0.01)
        assert info["state"] == "done"
        assert len(no_sleep) == 2

    def test_poll_interval_grows_1p5x_to_the_cap(
            self, client, monkeypatch, no_sleep):
        self.install_states(monkeypatch, client, ["running"] * 12 + ["done"])
        client.wait("j-1", timeout=1000.0, poll=0.4, max_poll=2.0)
        assert no_sleep[0] == pytest.approx(0.4)
        assert no_sleep[1] == pytest.approx(0.6)
        assert no_sleep[2] == pytest.approx(0.9)
        assert max(no_sleep) <= 2.0
        assert no_sleep[-1] == pytest.approx(2.0)  # pinned at the cap

    def test_timeout_raises_jobtimeouterror_with_final_info(
            self, client, monkeypatch):
        self.install_states(monkeypatch, client, ["running"])
        with pytest.raises(JobTimeoutError) as excinfo:
            client.wait("j-stuck", timeout=0.05, poll=0.01)
        assert isinstance(excinfo.value, TimeoutError)  # legacy handlers
        assert excinfo.value.info["state"] == "running"
        assert excinfo.value.info["job_id"] == "j-stuck"
        assert "j-stuck" in str(excinfo.value)

    def test_terminal_on_first_probe_never_sleeps(
            self, client, monkeypatch, no_sleep):
        self.install_states(monkeypatch, client, ["failed"])
        assert client.wait("j-1", timeout=5.0)["state"] == "failed"
        assert no_sleep == []


def search_plan(seed, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


@pytest.fixture()
def gateway(tmp_path):
    with GatewayRunner(workers=1, drain_grace=0,
                       checkpoint_dir=str(tmp_path / "ckpt")) as runner:
        yield runner


def accepted(runner):
    """Connections the gateway has accepted so far."""
    return runner.gateway.metrics.counter("connections")


def open_connections(runner):
    return runner.gateway.metrics.snapshot()["gauges"]["open_connections"]


class TestConnectionPool:
    def test_one_connection_serves_sequential_jobs(self, gateway):
        with ServiceClient(gateway.base_url, max_retries=0) as client:
            for seed in range(3):
                info = client.submit(search_plan(seed))
                frames = list(client.stream_events(info["job_id"]))
                assert frames[-1]["event"] == "end"
                assert frames[-1]["data"]["state"] == "done"
                assert b'"trials"' in client.result_bytes(info["job_id"])
            assert client.status(info["job_id"])["state"] == "done"
        assert accepted(gateway) == 1

    def test_a_connection_the_server_closed_is_discarded_before_use(
            self, gateway, monkeypatch):
        # Shorten the gateway's 30 s idle limit so it drops the
        # client's pooled connection while the test waits.
        monkeypatch.setattr("repro.service.gateway.REQUEST_TIMEOUT_SECONDS",
                            0.05)
        with ServiceClient(gateway.base_url, max_retries=0) as client:
            assert client.health()["status"] == "ok"
            deadline = time.monotonic() + 10
            while open_connections(gateway):
                assert time.monotonic() < deadline, "never dropped"
                time.sleep(0.01)
            # No retry budget: the call succeeds only if the dead
            # connection is discarded before the request goes out.
            assert client.health()["status"] == "ok"
        assert accepted(gateway) == 2

    def test_an_abandoned_stream_closes_its_connection(self, gateway):
        with ServiceClient(gateway.base_url, max_retries=0) as client:
            info = client.submit(search_plan(seed=9, trials=100_000))
            try:
                stream = client.stream_events(info["job_id"])
                assert next(stream)["event"] == "job-queued"
                stream.close()
                # The stream's connection still carries unread frames:
                # pooled again, it would garble this reply.
                assert client.status(info["job_id"])["job_id"] \
                    == info["job_id"]
                assert accepted(gateway) == 2
            finally:
                client.cancel(info["job_id"])

    def test_threads_sharing_one_client_get_their_own_replies(
            self, gateway):
        with ServiceClient(gateway.base_url) as client:
            expected, streams = {}, {}
            for seed in range(4):
                job_id = client.submit(search_plan(seed))["job_id"]
                streams[job_id] = list(client.stream_events(job_id))
                expected[job_id] = client.result_bytes(job_id)
            workers = (os.cpu_count() or 1) + 2  # more threads than cores
            deadline = time.monotonic() + 2.0
            calls, errors = [], []

            def hammer(seed):
                rng = random.Random(seed)
                try:
                    while time.monotonic() < deadline:
                        job_id = rng.choice(sorted(expected))
                        kind = rng.randrange(3)
                        if kind == 0:
                            assert client.status(job_id)["job_id"] == job_id
                        elif kind == 1:
                            assert client.result_bytes(job_id) \
                                == expected[job_id]
                        else:
                            assert list(client.stream_events(job_id)) \
                                == streams[job_id]
                        calls.append(kind)
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(workers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert calls
        # Each thread holds at most one connection at a time.
        assert accepted(gateway) <= workers
