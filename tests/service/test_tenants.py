"""Tenant registry, quotas, fair-share weighting, and accounting."""

import dataclasses
import json

import pytest

from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    plan_hash,
)
from repro.service.journal import JobJournal
from repro.service.service import SearchService
from repro.service.tenants import (
    PRIORITY_BAND,
    MissingApiKeyError,
    QuotaExceededError,
    Tenant,
    TenantRegistry,
    UnknownApiKeyError,
    api_key_from_headers,
    check_quota,
    fair_share_priority,
    tenant_accounting,
)


def search_plan(seed=0, trials=2):
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=seed, trials=trials),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(5.0,)),
    )


def registry(**overrides):
    return TenantRegistry([
        Tenant(name="acme", api_key="k-acme", weight=2, **overrides),
        Tenant(name="beta", api_key="k-beta", weight=1),
    ])


class TestTenantConfig:
    def test_load_round_trips_the_documented_shape(self, tmp_path):
        doc = {"tenants": [
            {"name": "acme", "api_key": "secret", "weight": 3,
             "max_running": 2, "max_queued": 10},
        ]}
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(doc))
        reg = TenantRegistry.load(path)
        tenant = reg.get("acme")
        assert (tenant.weight, tenant.max_running, tenant.max_queued) \
            == (3, 2, 10)

    def test_unknown_config_keys_fail_loudly_by_name(self):
        with pytest.raises(ValueError, match="wieght"):
            TenantRegistry.from_dict({"tenants": [
                {"name": "a", "api_key": "k", "wieght": 2}]})

    @pytest.mark.parametrize("bad", [
        {"name": "", "api_key": "k"},
        {"name": "a", "api_key": ""},
        {"name": "a", "api_key": "k", "weight": 0},
        {"name": "a", "api_key": "k", "max_running": 0},
        {"name": "a", "api_key": "k", "max_queued": -1},
    ])
    def test_invalid_tenant_fields_are_rejected(self, bad):
        with pytest.raises(ValueError):
            Tenant(**bad)

    def test_duplicate_names_and_keys_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TenantRegistry([Tenant(name="a", api_key="x"),
                            Tenant(name="a", api_key="y")])
        with pytest.raises(ValueError, match="api_key"):
            TenantRegistry([Tenant(name="a", api_key="x"),
                            Tenant(name="b", api_key="x")])

    def test_empty_registry_is_rejected(self):
        with pytest.raises(ValueError):
            TenantRegistry([])


class TestAuthentication:
    def test_authenticate_resolves_keys_to_tenants(self):
        assert registry().authenticate("k-acme").name == "acme"

    def test_missing_and_unknown_keys_are_distinct_errors(self):
        reg = registry()
        with pytest.raises(MissingApiKeyError):
            reg.authenticate(None)
        with pytest.raises(MissingApiKeyError):
            reg.authenticate("")
        with pytest.raises(UnknownApiKeyError):
            reg.authenticate("k-wrong")
        assert MissingApiKeyError.status == 401
        assert UnknownApiKeyError.status == 403

    def test_api_key_header_beats_bearer_authorization(self):
        headers = {"x-api-key": "from-header",
                   "authorization": "Bearer from-bearer"}
        assert api_key_from_headers(headers) == "from-header"
        assert api_key_from_headers(
            {"authorization": "Bearer tok"}) == "tok"
        assert api_key_from_headers(
            {"authorization": "Basic dXNlcg=="}) is None
        assert api_key_from_headers({}) is None


class TestQuotas:
    def test_running_quota_breach_carries_retry_after(self):
        tenant = Tenant(name="a", api_key="k", max_running=2)
        check_quota(tenant, queued=0, running=1)  # under: fine
        with pytest.raises(QuotaExceededError) as err:
            check_quota(tenant, queued=0, running=2)
        assert err.value.limit == "running"
        assert err.value.retry_after > 0

    def test_queued_quota_breach_names_the_limit(self):
        tenant = Tenant(name="a", api_key="k", max_queued=1)
        with pytest.raises(QuotaExceededError) as err:
            check_quota(tenant, queued=1, running=0)
        assert err.value.limit == "queued"

    def test_unlimited_tenants_never_breach(self):
        check_quota(Tenant(name="a", api_key="k"), queued=10_000,
                    running=10_000)


class TestFairShare:
    def test_first_job_lands_at_the_top_of_its_band(self):
        assert fair_share_priority(0, weight=1, outstanding=0) == 0
        assert fair_share_priority(1, weight=1, outstanding=0) \
            == PRIORITY_BAND

    def test_penalty_scales_inversely_with_weight(self):
        # Same backlog: the weight-2 tenant is penalised half as much.
        heavy = fair_share_priority(0, weight=1, outstanding=6)
        light = fair_share_priority(0, weight=2, outstanding=6)
        assert heavy == -6
        assert light == -3

    def test_caller_priority_stays_dominant(self):
        # Even a huge backlog cannot drop a high-priority submission
        # below a low-priority one.
        buried = fair_share_priority(1, weight=1,
                                     outstanding=10 * PRIORITY_BAND)
        fresh = fair_share_priority(0, weight=1, outstanding=0)
        assert buried > fresh

    def test_weighted_interleave_on_a_single_worker(self, tmp_path):
        """Weight-2 'acme' drains ~2 jobs per 'beta' job under contention."""
        from repro.events import JobCompleted

        service = SearchService(workers=1,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        started_order = []
        tenants_by_job = {}

        def on_event(event):
            if isinstance(event, JobCompleted) \
                    and event.scope in tenants_by_job:
                started_order.append(tenants_by_job[event.scope])

        service.bus.subscribe(on_event)
        try:
            # Stall the single worker so every later submission queues.
            blocker = service.submit(search_plan(seed=99, trials=30))
            handles = []
            backlog = {"acme": 0, "beta": 0}
            weights = {"acme": 2, "beta": 1}
            for _ in range(3):
                for tenant in ("acme", "beta"):
                    priority = fair_share_priority(
                        0, weights[tenant], backlog[tenant])
                    handle = service.submit(
                        search_plan(seed=10 + len(handles), trials=1),
                        priority=priority, tenant=tenant)
                    tenants_by_job[handle.job_id] = tenant
                    backlog[tenant] += 1
                    handles.append(handle)
            service.cancel(blocker.job_id)
            for handle in handles:
                handle.wait(timeout=120)
        finally:
            service.shutdown(wait=True, cancel_running=True)
        # With one worker, completion order is dispatch order.  The
        # first three completions include both early acme jobs: a 2:1
        # interleave in acme's favour, with beta not starved.
        assert started_order[:3].count("acme") == 2
        assert "beta" in started_order[:3]


class TestJournalAccounting:
    def test_tenant_survives_journal_recovery(self, tmp_path):
        # A journal whose last transition is non-terminal (the crash
        # case): the recovering service must re-queue the job under
        # the tenant the original submission recorded.
        store = tmp_path / "store"
        plan = search_plan(seed=42)
        digest = plan_hash(plan)
        journal = JobJournal(store / "journal.jsonl")
        journal.record("queued", digest, f"j-{digest[:12]}", priority=0,
                       plan_doc=plan.to_dict(), tenant="acme")
        journal.close()
        recovered = SearchService(workers=1, store_dir=str(store))
        try:
            handle = recovered.job_by_hash(digest)
            assert handle is not None
            assert handle.info()["tenant"] == "acme"
            assert handle.wait(timeout=120) == "done"
        finally:
            recovered.shutdown(wait=True, cancel_running=True)

    def test_accounting_reduces_journal_to_per_tenant_counters(
            self, tmp_path):
        store = tmp_path / "store"
        service = SearchService(workers=1, store_dir=str(store))
        try:
            done = service.submit(search_plan(seed=1), tenant="acme")
            done.wait(timeout=120)
            gone = service.submit(search_plan(seed=2, trials=30),
                                  tenant="beta")
            service.cancel(gone.job_id)
            anon = service.submit(search_plan(seed=3))
            anon.wait(timeout=120)
        finally:
            service.shutdown(wait=True, cancel_running=True)
        entries = JobJournal.replay(store / "journal.jsonl")
        counts = tenant_accounting(entries)
        assert counts["acme"]["submitted"] == 1
        assert counts["acme"]["done"] == 1
        assert counts["beta"]["cancelled"] == 1
        assert counts["anonymous"]["submitted"] == 1

    def test_a_cache_hit_is_booked_under_its_tenant(self, tmp_path):
        # The second plan shares the first's result key but not its plan
        # hash, so its one journal line is a cache hit's ``done``.
        store = tmp_path / "store"
        plan = search_plan(seed=4)
        variant = dataclasses.replace(
            plan, execution=ExecutionPolicy(eval_workers=2))
        assert plan_hash(variant) != plan_hash(plan)
        service = SearchService(workers=1, store_dir=str(store))
        try:
            first = service.submit(plan, tenant="acme")
            assert first.wait(timeout=120) == "done"
            assert service.submit(variant, tenant="acme").info()["cached"]
        finally:
            service.shutdown(wait=True)
        entries = JobJournal.replay(store / "journal.jsonl")
        assert [(e["op"], e.get("tenant")) for e in entries] == [
            ("queued", "acme"), ("running", None), ("done", None),
            ("done", "acme")]
        assert tenant_accounting(entries) == {"acme": {
            "submitted": 1, "done": 2, "failed": 0, "cancelled": 0}}
