"""Content-addressed result storage keyed by canonical plan hashes.

The service's dedup guarantee rests on two pieces:

* **codecs** -- per-workload ``(encode, decode)`` pairs turning a
  workload's result object into a JSON-compatible payload and back.
  Workloads with a lossless codec are *cacheable*; the rest (the
  matplotlib-style figure studies whose result types predate
  serialization) simply re-run on every submit.
* :class:`ResultStore` -- a mapping from :func:`repro.plans.plan_hash`
  to the payload's **canonical bytes** (sorted keys, minimal
  separators).  The bytes are stored once and returned verbatim on
  every hit, which is what makes a duplicate submit byte-identical to
  the first, and they optionally persist under a directory
  (``<hash>.json``, atomic writes) so a restarted service keeps its
  cache.

The store is keyed at **two granularities**, each in its own key
domain: whole-plan hashes (what :meth:`SearchService.submit` dedups
on) and *shard* hashes
(:attr:`repro.orchestration.shards.ShardSpec.shard_hash`, the SHA-256
of the shard's ``shard:``-tagged canonical single-search plan), which
:class:`~repro.orchestration.campaign.Campaign` reads through before
running a shard and writes through after.  The tag keeps the two
apart: a ``search`` plan submitted in its canonical form holds a
plan-level entry and a shard entry under different keys.  Two sweeps
overlapping in most of their shards share those shards' results, and
a re-submitted sweep with one changed spec re-pays ~one shard, not N.

Long-lived deployments reclaim space with :meth:`ResultStore.gc`
(surfaced as ``repro store gc``): entries referenced by the job
journal's non-terminal jobs (:func:`live_store_keys`) are pinned;
everything else ages out under ``--max-age`` / ``--max-bytes``
budgets.  Disk reads validate before serving, so a torn or corrupt
entry is a miss that gets recomputed and atomically overwritten --
never served.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

# STAGING_GRACE_SECONDS is re-exported: it is gc's staging grace.
from repro.core.serialization import (
    STAGING_GRACE_SECONDS,
    atomic_write_bytes,
    stale_staging_files,
)
from repro.plans import RunPlan


def _encode_search(result: Any) -> dict[str, Any]:
    from repro.core.serialization import search_result_to_dict

    return search_result_to_dict(result)


def _decode_search(payload: dict[str, Any]) -> Any:
    from repro.core.serialization import search_result_from_dict

    return search_result_from_dict(payload)


def _encode_paired(result: Any) -> dict[str, Any]:
    return result.to_dict()


def _decode_paired(payload: dict[str, Any]) -> Any:
    from repro.experiments.runner import PairedSearchOutcome

    return PairedSearchOutcome.from_dict(payload)


def _encode_sweep(result: Any) -> dict[str, Any]:
    return result.to_dict()


def _decode_sweep(payload: dict[str, Any]) -> Any:
    from repro.orchestration.campaign import CampaignResult

    return CampaignResult.from_dict(payload)


def _encode_report(result: Any) -> dict[str, Any]:
    return {"text": result}


def _decode_report(payload: dict[str, Any]) -> Any:
    return payload["text"]


#: Workload -> (encode, decode); membership defines cacheability.
RESULT_CODECS: dict[
    str,
    tuple[Callable[[Any], dict[str, Any]], Callable[[dict[str, Any]], Any]],
] = {
    "search": (_encode_search, _decode_search),
    "paired": (_encode_paired, _decode_paired),
    "sweep": (_encode_sweep, _decode_sweep),
    "report": (_encode_report, _decode_report),
}


def is_cacheable(plan: RunPlan) -> bool:
    """Whether the plan's result can be served from the store.

    Requires a lossless result codec for the workload *and* no
    ``output`` artifact path: answering an ``output``-bearing plan from
    the store would skip the artifact write the plan document promises,
    so those plans always execute.
    """
    return plan.workload in RESULT_CODECS and plan.output is None


def encode_result(plan: RunPlan, result: Any) -> dict[str, Any]:
    """Serialize a workload result for storage (cacheable workloads)."""
    try:
        encode, _ = RESULT_CODECS[plan.workload]
    except KeyError:
        raise ValueError(
            f"workload {plan.workload!r} has no result codec; cacheable "
            "workloads: " + ", ".join(sorted(RESULT_CODECS))
        ) from None
    return encode(result)


def decode_result(plan: RunPlan, payload: dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    try:
        _, decode = RESULT_CODECS[plan.workload]
    except KeyError:
        raise ValueError(
            f"workload {plan.workload!r} has no result codec; cacheable "
            "workloads: " + ", ".join(sorted(RESULT_CODECS))
        ) from None
    return decode(payload)


#: Result fields that describe how a run executed, not what it computed,
#: and the value :func:`scrub_volatile` gives them.
_VOLATILE_FIELDS = {"wall_seconds": 0.0, "resumed_from": None}


def scrub_volatile(payload: Any, zeroed: list | None = None,
                   path: tuple = ()) -> Any:
    """Zero out run-environment noise from a result payload, recursively.

    A stored result is the content-addressed value of a *deterministic*
    computation, but result documents carry two fields that depend on
    how (not what) the run executed: ``wall_seconds`` (host speed,
    interruptions) and ``resumed_from`` (checkpoint paths).  Scrubbing
    them -- wall clocks to ``0.0``, resume provenance to ``None`` --
    makes the canonical bytes a pure function of the plan: a job killed
    mid-run and resumed after a service restart stores *byte-identical*
    results to an uninterrupted run (the recovery CI job asserts
    exactly that).  Returns a scrubbed deep copy; the input is not
    modified.  When given a list, ``zeroed`` receives a ``(path,
    value)`` pair for each value scrubbing changed, ``path`` being the
    keys and indices that lead to it.
    """
    if isinstance(payload, dict):
        scrubbed = {}
        for key, value in payload.items():
            if key in _VOLATILE_FIELDS:
                blank = _VOLATILE_FIELDS[key]
                scrubbed[key] = blank
                if zeroed is not None and value != blank:
                    zeroed.append((path + (key,), value))
            elif isinstance(value, (dict, list)):
                scrubbed[key] = scrub_volatile(value, zeroed, path + (key,))
            else:
                scrubbed[key] = value
        return scrubbed
    if isinstance(payload, list):
        return [scrub_volatile(item, zeroed, path + (index,))
                if isinstance(item, (dict, list)) else item
                for index, item in enumerate(payload)]
    return payload


def canonical_payload_bytes(payload: dict[str, Any],
                            zeroed: list | None = None) -> bytes:
    """One fixed byte rendering of a stored payload.

    Same canonicalisation rules as
    :func:`repro.plans.canonical_plan_json`: sorted keys, minimal
    separators, UTF-8 -- applied after :func:`scrub_volatile` (which
    fills ``zeroed``), so the bytes depend only on the plan's
    deterministic outcome.  Every store hit returns exactly these bytes.
    """
    return json.dumps(
        scrub_volatile(payload, zeroed), sort_keys=True,
        separators=(",", ":"),
    ).encode()


@dataclass(frozen=True)
class EncodedResult:
    """A result payload held as its canonical bytes.

    ``blob`` is what the store keeps (:func:`canonical_payload_bytes`)
    and ``zeroed`` the ``(path, value)`` pairs scrubbing took out of
    it, so :meth:`decode` rebuilds the object the payload described --
    the run's real wall clock included -- without anyone keeping the
    payload or the object until a caller asks for it.
    """

    blob: bytes
    zeroed: tuple = ()

    @classmethod
    def of(cls, payload: dict[str, Any]) -> "EncodedResult":
        """Encode ``payload``: one scrub, one JSON dump."""
        zeroed: list = []
        blob = canonical_payload_bytes(payload, zeroed)
        return cls(blob, tuple(zeroed))

    def payload(self) -> dict[str, Any]:
        """The payload :meth:`of` encoded, volatile fields put back."""
        payload = json.loads(self.blob)
        for path, value in self.zeroed:
            target = payload
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
        return payload

    def decode(self, plan: RunPlan) -> Any:
        """The workload's result object, volatile fields put back."""
        return decode_result(plan, self.payload())


class ResultStore:
    """Plan-hash -> canonical result bytes, in memory and on disk.

    Parameters:
        directory: when given, every entry also lands at
            ``<directory>/<hash>.json`` (atomic temp-file-then-replace
            writes) and lookups fall back to disk, so the cache
            survives service restarts.
    """

    def __init__(self, directory: str | Path | None = None):
        self._memory: dict[str, bytes] = {}
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        #: Lookup counters (served / not-served), behind ``/metrics``.
        #: Only caller-facing :meth:`get_bytes` lookups count -- the
        #: existence probe inside :meth:`put` does not.
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def put(self, key: str, payload: dict[str, Any] | bytes) -> bytes:
        """Store a payload under ``key``; returns its canonical bytes.

        ``payload`` may already be its :func:`canonical_payload_bytes`
        (a caller that encoded it away from a lock).  Idempotent:
        re-putting under an existing key keeps the original
        bytes (first write wins -- the store is content-addressed by
        the *plan*, so a second identical plan's result is by
        construction the same result).  The write goes through
        :func:`~repro.core.serialization.atomic_write_bytes`, whose
        per-writer staging file makes two processes or threads putting
        one key race benignly: both renames land the same bytes.  A
        write or rename that raises removes the staging file and caches
        nothing, so the next put of the key writes again; :meth:`gc`
        reclaims a killed writer's file.
        """
        existing = self._lookup(key)
        if existing is not None:
            return existing
        blob = (payload if isinstance(payload, bytes)
                else canonical_payload_bytes(payload))
        if self.directory is not None:
            atomic_write_bytes(blob, self._path(key))
        self._memory[key] = blob
        return blob

    def get_bytes(self, key: str) -> bytes | None:
        """The stored canonical bytes for ``key`` (None on a miss).

        Disk entries are *validated* before they are served or cached
        in memory: a file that cannot be read or whose bytes do not
        parse as a JSON object -- a torn write, a crash mid-``put``
        before the atomic rename, outside corruption -- is treated as
        a miss, never returned.  The caller then recomputes and
        ``put`` atomically overwrites the damaged file (first-write-
        wins only applies to entries that validate).
        """
        blob = self._lookup(key)
        with self._stats_lock:
            if blob is None:
                self.misses += 1
            else:
                self.hits += 1
        return blob

    def _lookup(self, key: str) -> bytes | None:
        """The raw lookup behind :meth:`get_bytes`, without stats."""
        blob = self._memory.get(key)
        if blob is not None:
            return blob
        if self.directory is not None:
            blob = self._read_disk(key)
            if blob is not None:
                self._memory[key] = blob
                return blob
        return None

    def _read_disk(self, key: str) -> bytes | None:
        """One validated disk read: bytes, or None for missing/corrupt."""
        return self._validate_file(self._path(key))

    @staticmethod
    def _validate_file(path: Path) -> bytes | None:
        """A file's bytes if they parse as a JSON object, else None."""
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(blob)
        except ValueError:
            return None
        if not isinstance(payload, dict):
            return None
        return blob

    def get_payload(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, parsed (None on a miss)."""
        blob = self.get_bytes(key)
        return None if blob is None else json.loads(blob)

    def __contains__(self, key: str) -> bool:
        """Membership by hash (memory or disk; not counted in stats)."""
        return self._lookup(key) is not None

    def __len__(self) -> int:
        """Number of entries (disk entries included when persistent)."""
        keys = set(self._memory)
        if self.directory is not None:
            keys.update(p.stem for p in self.directory.glob("*.json"))
        return len(keys)

    def gc(
        self,
        live: frozenset[str] | set[str] = frozenset(),
        max_age_seconds: float | None = None,
        max_bytes: int | None = None,
        dry_run: bool = False,
    ) -> "StoreGCReport":
        """Reclaim dead and corrupt entries from a persistent store.

        ``live`` keys -- typically :func:`live_store_keys` over the
        job journal: the whole-plan hashes of every non-terminal job
        plus the shard hashes those plans expand to -- are **never**
        removed, however old or over-budget the store is.  Everything
        else is *dead* (no in-flight job references it) and reclaimable
        under two budgets:

        * ``max_age_seconds`` -- dead entries whose file is at least
          this old are removed (``0`` reclaims every dead entry);
        * ``max_bytes`` -- after the age pass, dead entries are
          removed oldest-first until the store fits the byte budget
          (live entries count against it but are never evicted).

        Entries whose file no longer validates (torn or corrupt JSON)
        are removed unconditionally -- they can only ever be misses --
        and so are :meth:`put` staging files older than
        :data:`STAGING_GRACE_SECONDS`.  With no budget given, only that
        cleanup runs.
        ``dry_run`` computes the same report without deleting.
        Removed keys are also dropped from the in-memory cache.
        Raises :class:`ValueError` on in-memory-only stores (nothing
        durable to collect).
        """
        if self.directory is None:
            raise ValueError(
                "gc requires a persistent store (a directory); in-memory "
                "stores die with their process"
            )
        now = time.time()
        corrupt: list[str] = []
        expired: list[str] = []
        over_budget: list[str] = []
        #: key -> (age_seconds, size_bytes) of dead-but-valid entries.
        dead: dict[str, tuple[float, int]] = {}
        paths: dict[str, Path] = {
            path.stem: path
            for path in sorted(self.directory.glob("*.json"))
        }
        live_bytes = 0
        kept_live = 0
        reclaimed = 0
        examined = 0
        stale = stale_staging_files(self.directory, "*.json", now)
        staging = [path for path, _ in stale]
        reclaimed += sum(size for _, size in stale)
        for key, path in paths.items():
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished under us
            examined += 1
            if self._validate_file(path) is None:
                corrupt.append(key)
                reclaimed += stat.st_size
                continue
            if key in live:
                kept_live += 1
                live_bytes += stat.st_size
                continue
            age = max(0.0, now - stat.st_mtime)
            if max_age_seconds is not None and age >= max_age_seconds:
                expired.append(key)
                reclaimed += stat.st_size
                continue
            dead[key] = (age, stat.st_size)
        if max_bytes is not None:
            total = live_bytes + sum(size for _, size in dead.values())
            # Oldest dead entries go first; live entries are untouchable
            # even when they alone exceed the budget.
            for key, (age, size) in sorted(
                dead.items(), key=lambda item: -item[1][0]
            ):
                if total <= max_bytes:
                    break
                over_budget.append(key)
                reclaimed += size
                total -= size
        removed = (*corrupt, *expired, *over_budget)
        if not dry_run:
            for key in removed:
                try:
                    paths[key].unlink()
                except OSError:
                    pass  # already gone; the report still counts it
                self._memory.pop(key, None)
            for path in staging:
                path.unlink(missing_ok=True)
        return StoreGCReport(
            examined=examined,
            kept=examined - len(removed),
            live=kept_live,
            removed_corrupt=tuple(corrupt),
            removed_expired=tuple(expired),
            removed_over_budget=tuple(over_budget),
            removed_staging=tuple(path.name for path in staging),
            reclaimed_bytes=reclaimed,
            dry_run=dry_run,
        )


@dataclass(frozen=True)
class StoreGCReport:
    """What one :meth:`ResultStore.gc` sweep examined and reclaimed.

    Attributes:
        examined: persisted entries the sweep looked at.
        kept: entries still present after the sweep.
        live: entries protected by the caller's ``live`` set.
        removed_corrupt: keys whose files no longer validated.
        removed_expired: dead keys past the ``max_age_seconds`` budget.
        removed_over_budget: dead keys evicted (oldest-first) to fit
            ``max_bytes``.
        removed_staging: stale ``put`` staging files (not entries).
        reclaimed_bytes: on-disk bytes freed (or freeable, under
            ``dry_run``), staging files included.
        dry_run: whether the sweep only reported, without deleting.
    """

    examined: int
    kept: int
    live: int
    removed_corrupt: tuple[str, ...] = ()
    removed_expired: tuple[str, ...] = ()
    removed_over_budget: tuple[str, ...] = ()
    removed_staging: tuple[str, ...] = ()
    reclaimed_bytes: int = 0
    dry_run: bool = False

    @property
    def removed(self) -> int:
        """Total entries reclaimed by the sweep."""
        return (len(self.removed_corrupt) + len(self.removed_expired)
                + len(self.removed_over_budget))

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (the CLI's machine-readable output)."""
        return {
            "examined": self.examined,
            "kept": self.kept,
            "live": self.live,
            "removed": self.removed,
            "removed_corrupt": list(self.removed_corrupt),
            "removed_expired": list(self.removed_expired),
            "removed_over_budget": list(self.removed_over_budget),
            "removed_staging": list(self.removed_staging),
            "reclaimed_bytes": self.reclaimed_bytes,
            "dry_run": self.dry_run,
        }

    def format(self) -> str:
        """One-line human summary (what ``repro store gc`` prints)."""
        verb = "would reclaim" if self.dry_run else "reclaimed"
        return (
            f"examined {self.examined} entr{'y' if self.examined == 1 else 'ies'}: "
            f"kept {self.kept} ({self.live} live), {verb} {self.removed} "
            f"({len(self.removed_corrupt)} corrupt, "
            f"{len(self.removed_expired)} expired, "
            f"{len(self.removed_over_budget)} over budget; "
            f"{len(self.removed_staging)} stale staging file(s); "
            f"{self.reclaimed_bytes} bytes)"
        )


def live_store_keys(entries: Iterable[dict[str, Any]]) -> frozenset[str]:
    """Store keys the journal's non-terminal jobs still reference.

    The GC refcount rule, computed from replayed
    :class:`~repro.service.journal.JobJournal` entries: every job whose
    last recorded transition is non-terminal contributes

    * its **whole-plan hash** (the entry a completed job will be
      answered from), and
    * for ``sweep`` and ``search`` plans, the **shard hashes** its
      scenario expands to (the entries its campaign reads through
      while resuming).

    Defensive like the journal itself: a recorded hash stays live even
    when its plan document is missing or no longer parses in this
    process (e.g. a third-party component key) -- liveness errs toward
    keeping, never toward deleting an entry a recovering job needs.
    """
    from repro.service.journal import JobJournal

    live: set[str] = set()
    for digest, plan_doc in JobJournal.live_jobs(list(entries)):
        live.add(digest)
        if not isinstance(plan_doc, dict):
            continue
        try:
            plan = RunPlan.from_dict(plan_doc)
        except Exception:  # noqa: BLE001 - conservative: keep the hash only
            continue
        live.update(_shard_keys(plan))
    return frozenset(live)


def _shard_keys(plan: RunPlan) -> set[str]:
    """The shard hashes a plan's execution reads/writes through."""
    if plan.workload == "sweep":
        from repro.orchestration.shards import plan_shards

        try:
            return {shard.shard_hash for shard in plan_shards(plan)}
        except (KeyError, ValueError):
            return set()
    if plan.workload == "search":
        from repro.orchestration.shards import ShardSpec

        try:
            return {ShardSpec.from_plan(plan).shard_hash}
        except (KeyError, ValueError):
            return set()
    return set()
