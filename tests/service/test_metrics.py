"""The metrics registry and the gateway's ``/metrics`` endpoint."""

import json
import threading
import urllib.request

import pytest

from repro.plans import RunPlan, ScenarioPlan, SearchPlan
from repro.service.client import ServiceClient
from repro.service.gateway import GatewayRunner
from repro.service.metrics import ANONYMOUS_TENANT, MetricsRegistry
from repro.service.service import SearchService
from repro.service.store import result_key


def search_plan(seed=0, trials=2):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


class TestRegistry:
    def test_counters_start_at_zero_and_accumulate(self, tmp_path):
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            registry = MetricsRegistry(service)
            assert registry.counter("submissions") == 0
            registry.inc("submissions")
            registry.inc("submissions", 4)
            assert registry.counter("submissions") == 5
            assert registry.snapshot()["counters"]["submissions"] == 5
        finally:
            service.shutdown(wait=True, cancel_running=True)

    def test_gauges_are_read_live_per_snapshot(self, tmp_path):
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            registry = MetricsRegistry(service)
            level = {"value": 1}
            registry.gauge("level", lambda: level["value"])
            assert registry.snapshot()["gauges"]["level"] == 1
            level["value"] = 7
            assert registry.snapshot()["gauges"]["level"] == 7
        finally:
            service.shutdown(wait=True, cancel_running=True)

    def test_uptime_uses_the_injected_clock(self, tmp_path):
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            now = {"t": 100.0}
            registry = MetricsRegistry(service, clock=lambda: now["t"])
            now["t"] = 107.5
            assert registry.snapshot()["uptime_seconds"] == 7.5
        finally:
            service.shutdown(wait=True, cancel_running=True)

    def test_snapshot_counts_jobs_and_queue_depth_per_tenant(
            self, tmp_path):
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            registry = MetricsRegistry(service)
            blocker = service.submit(search_plan(seed=1, trials=60))
            queued_acme = service.submit(search_plan(seed=2),
                                         tenant="acme")
            queued_anon = service.submit(search_plan(seed=3))
            snapshot = registry.snapshot()
            total = sum(snapshot["jobs"].values())
            assert total == 3
            depth = snapshot["queue_depth"]
            assert depth["acme"] == 1
            # The blocker and the anonymous job both land in the
            # anonymous bucket (whichever of them is running/queued).
            assert depth[ANONYMOUS_TENANT] == 2
            for handle in (blocker, queued_acme, queued_anon):
                service.cancel(handle.job_id)
        finally:
            service.shutdown(wait=True, cancel_running=True)

    def test_snapshot_reports_estimator_tiling_memo_by_kind(self, tmp_path):
        """The estimator section exposes the dw/pw tiling path."""
        from repro.core.architecture import Architecture
        from repro.fpga.device import PYNQ_Z1
        from repro.fpga.platform import Platform
        from repro.fpga.tiling import (
            LayerDesignMemo,
            TilingDesigner,
            reset_process_memo_stats,
        )

        reset_process_memo_stats()
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            registry = MetricsRegistry(service)
            designer = TilingDesigner(memo=LayerDesignMemo())
            arch = Architecture.from_choices(
                [3, 3], [8, 8], input_size=8, input_channels=3,
                conv_types=["separable", "standard"],
            )
            designer.design(arch, Platform.single(PYNQ_Z1))
            designer.design(arch, Platform.single(PYNQ_Z1))  # memo hits
            memo = registry.snapshot()["estimator"]["tiling_memo"]
            for bucket in ("all", "depthwise", "pointwise", "standard"):
                assert memo[bucket]["misses"] >= 1
                assert 0.0 <= memo[bucket]["hit_rate"] <= 1.0
            assert memo["all"]["hits"] >= 1
        finally:
            service.shutdown(wait=True, cancel_running=True)
            reset_process_memo_stats()

    def test_snapshot_reports_store_hits_and_misses(self, tmp_path):
        service = SearchService(workers=1, store_dir=str(tmp_path / "store"))
        try:
            registry = MetricsRegistry(service)
            plan = search_plan(seed=4)
            service.submit(plan).wait(timeout=120)
            assert service.store.get_bytes(result_key(plan))  # store hit
            service.store.get_bytes("0" * 64)  # store miss
            store = registry.snapshot()["store"]
            assert store["entries"] >= 1
            assert store["hits"] >= 1
            assert store["misses"] >= 1
        finally:
            service.shutdown(wait=True, cancel_running=True)

    def test_concurrent_incs_do_not_lose_updates(self, tmp_path):
        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        try:
            registry = MetricsRegistry(service)

            def hammer():
                for _ in range(1000):
                    registry.inc("hits")

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert registry.counter("hits") == 4000
        finally:
            service.shutdown(wait=True, cancel_running=True)


class TestMetricsEndpoint:
    @pytest.fixture()
    def live_server(self, tmp_path):
        with GatewayRunner(workers=1, store_dir=str(tmp_path / "store"),
                           drain_grace=0) as runner:
            yield runner.base_url

    def test_metrics_route_serves_the_snapshot(self, live_server):
        client = ServiceClient(live_server)
        info = client.submit(search_plan(seed=5))
        client.wait(info["job_id"], timeout=120)
        with urllib.request.urlopen(f"{live_server}/metrics",
                                    timeout=10) as resp:
            snapshot = json.loads(resp.read())
        assert snapshot["jobs"]["done"] >= 1
        assert snapshot["counters"]["submissions"] >= 1
        assert snapshot["store"]["entries"] >= 1
        assert snapshot["uptime_seconds"] > 0
