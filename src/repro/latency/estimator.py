"""End-to-end latency estimation: architecture -> milliseconds.

:class:`LatencyEstimator` is the "FNAS tool" of Figure 2 as one call: it
runs FNAS-Design (tiling), optionally FNAS-GG + FNAS-Sched + the cycle
simulator, or the closed-form FNAS-Analyzer, and returns the inference
latency of an architecture on a platform.

Estimation sits on the search hot path, so results are cached at two
tiers:

* **layer tier** -- a :class:`~repro.fpga.tiling.LayerDesignMemo`
  shared by every tiling designer the estimator builds.  Architectures
  in one search run share most per-layer configurations, so the
  expensive FNAS-Design tiling search is reused *across* architecture
  fingerprints.
* **architecture tier** -- a bounded LRU of whole-architecture
  estimates keyed by fingerprint; the NAS controller revisits
  architectures often.

Both tiers expose hit/miss statistics (:attr:`LatencyEstimator.stats`,
:attr:`LatencyEstimator.layer_memo_stats`) for the benchmark harness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from repro.core.architecture import Architecture
from repro.fpga.platform import Platform
from repro.fpga.tiling import LayerDesignMemo, MemoStats, PipelineDesign, TilingDesigner
from repro.latency.analyzer import FnasAnalyzer, LatencyReport, alternating_totals
from repro.latency.explorer import DesignExplorer
from repro.scheduling.base import OFM_REUSE
from repro.scheduling.fnas_sched import FnasScheduler, alternating_strategies
from repro.scheduling.simulator import PipelineSimulator
from repro.taskgraph.graph import TaskGraphGenerator

#: Estimation back-ends.
ANALYTICAL = "analytical"
SIMULATE = "simulate"

#: Default bound on the whole-architecture LRU cache.  Far above any
#: single search run's working set, but keeps long-lived service
#: processes from growing without bound.
DEFAULT_CACHE_ENTRIES = 4096


@dataclass
class CacheStats(MemoStats):
    """Hit/miss counters of :class:`MemoStats` plus an eviction count,
    for the whole-architecture LRU tier."""

    evictions: int = 0


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency of one architecture on one platform; ``design`` runs the
    alternating reuse assignment that starts with ``first_reuse``."""

    architecture: Architecture
    cycles: int
    ms: float
    method: str
    design: PipelineDesign
    first_reuse: str = OFM_REUSE

    @cached_property
    def report(self) -> LatencyReport:
        """The analyzer's full report of ``design``, built on first read
        (a search reads only ``ms``)."""
        strategies = alternating_strategies(
            len(self.design.layers), first=self.first_reuse
        )
        return FnasAnalyzer(strategies=strategies).analyze(self.design)

    def meets(self, required_ms: float) -> bool:
        """Whether this latency satisfies a timing specification."""
        if required_ms <= 0:
            raise ValueError(f"required_ms must be positive, got {required_ms}")
        return self.ms <= required_ms


class LatencyEstimator:
    """Estimates FPGA inference latency for candidate architectures.

    Parameters:
        platform: the target (multi-)FPGA platform.
        method: ``"analytical"`` (closed-form eqs. (2)-(5); fast, used
            inside the search loop) or ``"simulate"`` (tile-graph +
            FNAS-Sched + event simulation; exact, used for validation
            and for Figure 8-style studies).
        designer: tiling designer; defaults to the paper's max-reuse
            FNAS-Design.
        rc_mapping: row/col tile mapping passed to FNAS-GG (only used by
            the simulate path).
        explore_designs: price each fresh architecture with the best of
            the :class:`~repro.latency.explorer.DesignExplorer` policies
            (both spatial strategies x both first-layer reuse orders)
            instead of the single max-reuse design.  Ignored -- treated
            as ``False`` -- when an explicit ``designer`` is given.
        max_cache_entries: bound on the whole-architecture LRU tier;
            ``None`` disables the bound.
        use_layer_memo: enable the layer-level memo (tier 1) of tilings,
            channel tilings and DRAM phases.  Disabling it only skips the
            memo: every fresh architecture then chooses each layer's
            tiling anew, through the same closed forms, with identical
            results.
    """

    def __init__(
        self,
        platform: Platform,
        method: str = ANALYTICAL,
        designer: TilingDesigner | None = None,
        rc_mapping: str = "auto",
        explore_designs: bool = True,
        max_cache_entries: int | None = DEFAULT_CACHE_ENTRIES,
        use_layer_memo: bool = True,
    ):
        if method not in (ANALYTICAL, SIMULATE):
            raise ValueError(
                f"unknown method {method!r}; expected "
                f"{ANALYTICAL!r} or {SIMULATE!r}"
            )
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError(
                f"max_cache_entries must be >= 1 or None, got {max_cache_entries}"
            )
        self.platform = platform
        self.method = method
        self.designer = designer
        self.rc_mapping = rc_mapping
        # With no explicit designer, FNAS-Design explores its policy
        # space per architecture (paper: "the best parameters ... can be
        # obtained") instead of committing to one heuristic.
        self.explore_designs = explore_designs and designer is None
        self.max_cache_entries = max_cache_entries
        self.stats = CacheStats()
        self.layer_memo = LayerDesignMemo()
        memo = self.layer_memo if use_layer_memo else None
        self._explorer = DesignExplorer(memo=memo)
        self._designer_memo = memo
        self._cache: OrderedDict[str, LatencyEstimate] = OrderedDict()
        # Guards the LRU dict *and* its CacheStats counters: estimators
        # are shared across service/evaluation threads, and an unlocked
        # OrderedDict corrupts under concurrent move_to_end/popitem.
        self._cache_lock = threading.Lock()

    @property
    def cache_size(self) -> int:
        """Number of cached whole-architecture estimates."""
        with self._cache_lock:
            return len(self._cache)

    @property
    def layer_memo_stats(self) -> MemoStats:
        """Hit/miss counters of the layer-level tiling memo."""
        return self.layer_memo.stats

    def clear_cache(self) -> None:
        """Drop both cache tiers (counters are kept)."""
        with self._cache_lock:
            self._cache.clear()
        self.layer_memo.clear()

    def estimate(self, architecture: Architecture) -> LatencyEstimate:
        """Latency of ``architecture`` on the estimator's platform.

        Thread-safe: the LRU tier and its counters mutate only under
        an internal lock, which is *not* held across the expensive
        fresh analysis -- two threads racing on the same uncached
        fingerprint may both compute (each counting one miss; the
        results are deterministic and identical), but exactly one
        entry wins the cache and every later call returns it.
        """
        key = architecture.fingerprint()
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._cache.move_to_end(key)
                return cached
            self.stats.misses += 1
        estimate = self._estimate_fresh(architecture)
        with self._cache_lock:
            existing = self._cache.get(key)
            if existing is not None:
                return existing  # a racing thread won; keep one entry
            self._cache[key] = estimate
            if (self.max_cache_entries is not None
                    and len(self._cache) > self.max_cache_entries):
                self._cache.popitem(last=False)
                self.stats.evictions += 1
        return estimate

    def estimate_batch(
        self, architectures: list[Architecture] | tuple[Architecture, ...]
    ) -> list[LatencyEstimate]:
        """Estimate a batch of candidates, computing duplicates only once.

        Search batches routinely contain repeated fingerprints (the
        controller concentrates probability mass as it converges); the
        LRU tier turns every repeat into a hit, so each distinct
        architecture is analysed at most once per call.  Results are
        returned in input order.
        """
        return [self.estimate(architecture) for architecture in architectures]

    def _estimate_fresh(self, architecture: Architecture) -> LatencyEstimate:
        """Run the full FNAS tool chain for one uncached architecture."""
        if self.explore_designs:
            best = self._explorer.explore(architecture, self.platform).best
            design, cycles = best.design, best.total_cycles
            first_reuse = best.first_reuse
        else:
            designer = self.designer if self.designer is not None else TilingDesigner(
                memo=self._designer_memo
            )
            design = designer.design(architecture, self.platform)
            cycles = alternating_totals(design)[0]
            first_reuse = OFM_REUSE
        if self.method == SIMULATE:
            graph = TaskGraphGenerator(rc_mapping=self.rc_mapping).generate(
                design)
            schedule = FnasScheduler(first_reuse=first_reuse).schedule(graph)
            cycles = PipelineSimulator().run(schedule).makespan
        return LatencyEstimate(
            architecture=architecture,
            cycles=cycles,
            ms=self.platform.cycles_to_ms(cycles),
            method=self.method,
            design=design,
            first_reuse=first_reuse,
        )


# --- Registry entries -----------------------------------------------------
#
# Factory contract: factory(platform) -> LatencyEstimator.  Plans name
# estimation back-ends by these keys (repro.plans.SearchPlan.estimator).

from repro.registry import ESTIMATORS


@ESTIMATORS.register(ANALYTICAL)
def _analytical_factory(platform: Platform) -> LatencyEstimator:
    """Closed-form FNAS-Analyzer back-end (the search-loop default)."""
    return LatencyEstimator(platform, method=ANALYTICAL)


@ESTIMATORS.register(SIMULATE)
def _simulate_factory(platform: Platform) -> LatencyEstimator:
    """Cycle-accurate simulator back-end (validation-grade, slower)."""
    return LatencyEstimator(platform, method=SIMULATE)
