"""Compat pin: the PR-7-era client session against the async gateway.

``_LegacyClient`` below freezes the wire usage of the pre-gateway
:class:`ServiceClient`: one-shot urllib requests, no API-key header,
no keep-alive, ``GET /jobs/<id>/events?since=N`` with no ``wait``
parameter, and a submit -> poll -> result loop.  The test drives that
exact session against the gateway and pins the observable transcript:
the response schema and event tags literally, and the result bytes to
what an in-process :class:`SearchService` stores for the same plan.

If a gateway change breaks an old deployed client, this file is where
it fails.
"""

import json
import time
import urllib.request

from repro.plans import RunPlan, ScenarioPlan, SearchPlan, plan_hash
from repro.service.gateway import GatewayRunner
from repro.service.service import SearchService

#: The submit reply's keys, as a legacy client sees them.
SUBMIT_KEYS = ["agent", "cached", "deduped", "error", "events", "job_id",
               "plan_hash", "priority", "runs", "state", "tenant",
               "workload"]

#: The event-tag sequence of a fresh single-search job.
EVENT_TAGS = ["job-queued", "job-started", "run-started", "search-started",
              "search-finished", "run-finished", "job-completed"]


def search_plan(seed=0, trials=4):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


class _LegacyClient:
    """The PR-7 wire surface, frozen.  Do not modernise this class."""

    def __init__(self, base_url):
        self.base_url = base_url.rstrip("/")

    def _request(self, path, payload=None):
        url = f"{self.base_url}{path}"
        if payload is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    def _request_bytes(self, path):
        with urllib.request.urlopen(f"{self.base_url}{path}",
                                    timeout=30) as resp:
            return resp.read()

    def submit(self, plan, priority=0):
        return self._request("/jobs", {"plan": plan.to_dict(),
                                       "priority": priority})

    def status(self, job_id):
        return self._request(f"/jobs/{job_id}")

    def events(self, job_id, since=0):
        return self._request(f"/jobs/{job_id}/events?since={since}")

    def result_bytes(self, job_id):
        return self._request_bytes(f"/jobs/{job_id}/result")

    def run_session(self, plan):
        """Submit -> poll -> drain events -> fetch result, PR-7 style."""
        submitted = self.submit(plan)
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 120
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        cursor, tags = 0, []
        while True:
            page = self.events(job_id, since=cursor)
            tags.extend(e["event"] for e in page["events"])
            if page["next"] == cursor:
                break
            cursor = page["next"]
        return {
            "submit_keys": sorted(submitted),
            "final_state": status["state"],
            "plan_hash": status["plan_hash"],
            "event_tags": tags,
            "result": self.result_bytes(job_id),
        }


def test_legacy_session_matches_pin_and_in_process_run(tmp_path):
    plan = search_plan(seed=77)
    with GatewayRunner(workers=1,
                       store_dir=str(tmp_path / "gw-store")) as runner:
        gateway_run = _LegacyClient(runner.base_url).run_session(plan)

    with SearchService(workers=1) as service:
        handle = service.submit(plan)
        handle.wait(timeout=120)
        reference = handle.stored_result_bytes()

    # The submit response schema, terminal state, plan hash, event-tag
    # sequence, and the stored result BYTES are all pinned.
    assert gateway_run["submit_keys"] == SUBMIT_KEYS
    assert gateway_run["final_state"] == "done"
    assert gateway_run["plan_hash"] == plan_hash(plan)
    assert gateway_run["event_tags"] == EVENT_TAGS
    assert gateway_run["result"] == reference


def test_legacy_session_schema_snapshot(tmp_path):
    """The exact field set a PR-7 client sees, pinned literally."""
    with GatewayRunner(workers=1,
                       store_dir=str(tmp_path / "store")) as runner:
        run = _LegacyClient(runner.base_url).run_session(search_plan(seed=78))
    assert run["submit_keys"] == SUBMIT_KEYS
    assert run["event_tags"][0] == "job-queued"
    assert run["event_tags"][-1] == "job-completed"
    assert run["result"].endswith(b"\n") or run["result"]
