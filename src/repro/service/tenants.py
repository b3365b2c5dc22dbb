"""Multi-tenant admission control: API keys, quotas, fair-share priority.

The HTTP front end can bind a :class:`TenantRegistry` (built from a
``tenants.json`` config via :meth:`TenantRegistry.load`); with one
bound, every job route requires an API key (``X-API-Key`` header or
``Authorization: Bearer``), and submissions are admitted through three
gates:

* **authentication** -- a missing key is :class:`MissingApiKeyError`
  (HTTP 401), an unrecognised one :class:`UnknownApiKeyError`
  (HTTP 403);
* **quotas** -- each tenant caps its concurrently *running* jobs and
  its *queued* backlog; a breach raises :class:`QuotaExceededError`
  (HTTP 429 with ``Retry-After``), and -- crucially -- never touches
  jobs already admitted: quota enforcement happens strictly before
  :meth:`~repro.service.SearchService.submit`;
* **fair share** -- admitted jobs are priority-weighted so that
  tenants saturating the queue interleave proportionally to their
  configured ``weight`` (see :func:`fair_share_priority`): a tenant's
  n-th outstanding job is penalised by ``n // weight``, so a weight-2
  tenant drains two jobs for every one of a weight-1 tenant while
  neither can starve the other.  The caller's own ``priority`` stays
  the dominant band -- fairness only reorders within one priority
  level.

Accounting is durable: the job journal records the admitting tenant on
every ``queued`` entry, so :func:`tenant_accounting` can rebuild
per-tenant submission/outcome counters from the journal alone --
including after a crash, on a recovered service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

#: Multiplier separating caller-priority bands from fairness penalties:
#: fairness can only reorder submissions *within* one caller priority.
PRIORITY_BAND = 1_000_000

#: Headers a front end accepts API keys from, in precedence order.
API_KEY_HEADER = "x-api-key"
AUTHORIZATION_HEADER = "authorization"


class TenantAuthError(PermissionError):
    """Base class of tenant authentication failures."""

    #: HTTP status the front end maps this error onto.
    status = 403


class MissingApiKeyError(TenantAuthError):
    """No API key was presented on a route that requires one (401)."""

    status = 401


class UnknownApiKeyError(TenantAuthError):
    """The presented API key matches no configured tenant (403)."""

    status = 403


class QuotaExceededError(RuntimeError):
    """A tenant submit would exceed its quota (HTTP 429).

    Attributes:
        tenant: the tenant name.
        limit: which quota tripped (``"running"`` or ``"queued"``).
        retry_after: suggested client wait, in seconds (the
            ``Retry-After`` header value).
    """

    def __init__(self, tenant: str, limit: str, message: str,
                 retry_after: float = 1.0):
        super().__init__(message)
        self.tenant = tenant
        self.limit = limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class Tenant:
    """One tenant's identity, share and quotas.

    Attributes:
        name: stable tenant name (the journal/accounting key).
        api_key: the secret presented on every request.
        weight: fair-share weight (>= 1); a weight-2 tenant drains
            twice the jobs of a weight-1 tenant under contention.
        max_running: cap on concurrently running jobs (``None`` =
            unlimited).
        max_queued: cap on the queued backlog (``None`` = unlimited).
    """

    name: str
    api_key: str
    weight: int = 1
    max_running: int | None = None
    max_queued: int | None = None

    def __post_init__(self) -> None:
        """Validate identity, weight and quota bounds."""
        if not self.name or not isinstance(self.name, str):
            raise ValueError("tenant name must be a non-empty string")
        if not self.api_key or not isinstance(self.api_key, str):
            raise ValueError(
                f"tenant {self.name!r}: api_key must be a non-empty string"
            )
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(
                f"tenant {self.name!r}: weight must be an int >= 1, got "
                f"{self.weight!r}"
            )
        for label, value in (("max_running", self.max_running),
                             ("max_queued", self.max_queued)):
            if value is not None and (not isinstance(value, int)
                                      or value < 1):
                raise ValueError(
                    f"tenant {self.name!r}: {label} must be an int >= 1 "
                    f"or null, got {value!r}"
                )


class TenantRegistry:
    """The set of configured tenants, addressable by name and API key."""

    def __init__(self, tenants: Iterable[Tenant]):
        self._by_name: dict[str, Tenant] = {}
        self._by_key: dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self._by_name:
                raise ValueError(f"duplicate tenant name {tenant.name!r}")
            if tenant.api_key in self._by_key:
                raise ValueError(
                    f"tenant {tenant.name!r} reuses another tenant's api_key"
                )
            self._by_name[tenant.name] = tenant
            self._by_key[tenant.api_key] = tenant
        if not self._by_name:
            raise ValueError("a tenant registry needs at least one tenant")

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TenantRegistry":
        """Build a registry from the ``tenants.json`` document shape.

        The document is ``{"tenants": [{"name", "api_key", "weight"?,
        "max_running"?, "max_queued"?}, ...]}``; unknown per-tenant
        keys are rejected by name so config typos fail loudly.
        """
        if not isinstance(doc, dict) or not isinstance(
                doc.get("tenants"), list):
            raise ValueError(
                'tenant config must be {"tenants": [...]}; see docs/api.md'
            )
        allowed = {"name", "api_key", "weight", "max_running", "max_queued"}
        tenants = []
        for entry in doc["tenants"]:
            if not isinstance(entry, dict):
                raise ValueError("each tenant entry must be a JSON object")
            unknown = set(entry) - allowed
            if unknown:
                raise ValueError(
                    f"unknown tenant config key(s) {sorted(unknown)}; "
                    f"valid keys: {sorted(allowed)}"
                )
            tenants.append(Tenant(**entry))
        return cls(tenants)

    @classmethod
    def load(cls, path: str | Path) -> "TenantRegistry":
        """Parse a ``tenants.json`` file into a registry."""
        return cls.from_dict(json.loads(Path(path).read_text(
            encoding="utf-8")))

    def __len__(self) -> int:
        """Number of configured tenants."""
        return len(self._by_name)

    def tenants(self) -> list[Tenant]:
        """Every configured tenant, in configuration order."""
        return list(self._by_name.values())

    def get(self, name: str) -> Tenant | None:
        """The tenant named ``name``, or ``None``."""
        return self._by_name.get(name)

    def authenticate(self, api_key: str | None) -> Tenant:
        """Resolve an API key to its tenant.

        Raises :class:`MissingApiKeyError` for ``None``/empty keys and
        :class:`UnknownApiKeyError` for unrecognised ones -- the front
        ends map these to 401 and 403.
        """
        if not api_key:
            raise MissingApiKeyError(
                "missing API key; send X-API-Key: <key> or "
                "Authorization: Bearer <key>"
            )
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise UnknownApiKeyError("unrecognised API key")
        return tenant


def api_key_from_headers(headers: dict[str, str]) -> str | None:
    """Extract the API key from lower-cased header mapping.

    ``X-API-Key`` wins; otherwise a ``Bearer`` authorization value is
    used.  Returns ``None`` when neither is present.
    """
    key = headers.get(API_KEY_HEADER)
    if key:
        return key.strip()
    auth = headers.get(AUTHORIZATION_HEADER, "")
    scheme, _, value = auth.partition(" ")
    if scheme.lower() == "bearer" and value.strip():
        return value.strip()
    return None


def fair_share_priority(base_priority: int, weight: int,
                        outstanding: int) -> int:
    """The service priority for a tenant's next admitted job.

    Stateless weighted fairness: the job's penalty is the tenant's
    current ``outstanding`` (queued + running) job count divided by its
    ``weight``, so a tenant's backlog self-throttles proportionally to
    its share while a light user's first job always lands at the top of
    its band.  ``base_priority`` stays dominant (band width
    :data:`PRIORITY_BAND`): fairness never promotes a low-priority
    submission over a high-priority one.
    """
    penalty = min(max(0, outstanding) // max(1, weight), PRIORITY_BAND - 1)
    return base_priority * PRIORITY_BAND - penalty


def check_quota(tenant: Tenant, queued: int, running: int) -> None:
    """Raise :class:`QuotaExceededError` when a submit would breach.

    ``queued``/``running`` are the tenant's *current* counts (the job
    being submitted excluded).  Enforcement is strictly pre-admission,
    so a breach can never evict or stall a job already accepted.
    """
    if tenant.max_running is not None and running >= tenant.max_running:
        raise QuotaExceededError(
            tenant.name, "running",
            f"tenant {tenant.name!r} already has {running} running job(s) "
            f"(max_running={tenant.max_running}); retry once one finishes",
            retry_after=2.0,
        )
    if tenant.max_queued is not None and queued >= tenant.max_queued:
        raise QuotaExceededError(
            tenant.name, "queued",
            f"tenant {tenant.name!r} already has {queued} queued job(s) "
            f"(max_queued={tenant.max_queued}); retry once the queue drains",
            retry_after=1.0,
        )


def tenant_accounting(
    entries: Iterable[dict[str, Any]],
) -> dict[str, dict[str, int]]:
    """Per-tenant counters reduced from replayed journal entries.

    The journal records the admitting tenant on every ``queued`` line
    and on a cache hit's ``done`` line; other lines are attributed
    through their plan hash.  For each tenant the reduction counts
    ``submitted`` (``queued`` lines) and terminal outcomes (``done`` /
    ``failed`` / ``cancelled``); jobs with no recorded tenant land
    under :data:`~repro.service.metrics.ANONYMOUS_TENANT`.  Survives crashes
    by construction: it is the tenant side of
    :meth:`~repro.service.journal.JobJournal.fold`, over the same
    journal the service recovers from.
    """
    from repro.service.journal import JobJournal

    return JobJournal.fold(entries)[1]
