"""FNAS-Design: tiling parameter selection (paper Section 3.3).

An FPGA cannot hold a whole convolutional layer, so each layer is split
into tiles along four dimensions, giving the design vector
``<Tm, Tn, Tr, Tc>``:

* ``Tn`` -- input feature-map (IFM) channels per tile; the IFM is cut
  into ``ceil(N / Tn)`` channel tiles,
* ``Tm`` -- output feature-map (OFM) channels per tile, ``ceil(M / Tm)``
  channel tiles,
* ``Tr``, ``Tc`` -- OFM rows/columns per tile, ``ceil(R/Tr) * ceil(C/Tc)``
  row/col tiles.

A processing element built from ``Tm x Tn`` DSP slices executes one
*task* -- one (IFM-channel-tile, OFM-channel-tile, row/col-tile) triple --
in ``Kh * Kw * Tr * Tc`` cycles (Zhang et al., FPGA'15 unrolling).

This module selects the vector per layer given a PE's DSP and BRAM
budget.  Channel tiling is chosen to minimise the layer's total compute
cycles (equivalently the ceil-division waste) under the DSP constraint;
spatial tiling maximises the tile area that still fits the double-
buffered on-chip buffers, which maximises data reuse (design principle
P2) at the cost of a slightly later downstream start -- the
:class:`~repro.latency.explorer.DesignExplorer` can revisit that
trade-off with the full analytical model in the loop.

Every choice is made by a closed form rather than by enumerating
candidates against the buffer model.  The buffers grow with each tile
dimension, so solving the BRAM inequality for the last free dimension
gives its largest fitting value directly; the selection objectives and
tie-breaks are unchanged, and ``tests/fpga/tiling_reference.py`` keeps
the enumerating selection as the oracle the closed forms are checked
against.
"""

from __future__ import annotations

import bisect
import functools
import threading
from dataclasses import dataclass, field

from repro.core.architecture import Architecture, ConvLayerSpec
from repro.fpga.dram import PhaseLatency
from repro.fpga.platform import PeAllocation, Platform

#: bytes per fixed-point feature/weight word (the paper uses 16-bit).
WORD_BYTES = 2

#: double-buffering factor: compute on one buffer while loading the next.
DOUBLE_BUFFER = 2

#: Bound on a :class:`LayerDesignMemo`'s entries, summed over its tables.
#: A 1,200-trial MobileNet search fills about 15k, so one search never
#: reaches it; a pool worker's estimator, which outlives its jobs, clears
#: the memo when the next design could pass it.
LAYER_MEMO_MAX_ENTRIES = 65_536

#: Tables a design can add to per layer: tilings, channel tilings, spatial
#: tilings, DRAM phases and layer designs.
_TABLES_PER_LAYER = 5


@dataclass(frozen=True)
class TilingVector:
    """The raw ``<Tm, Tn, Tr, Tc>`` design parameters for one layer."""

    tm: int
    tn: int
    tr: int
    tc: int

    def __post_init__(self) -> None:
        for attr in ("tm", "tn", "tr", "tc"):
            value = getattr(self, attr)
            if value <= 0:
                raise ValueError(f"{attr} must be positive, got {value}")

    @property
    def dsps(self) -> int:
        """DSP slices consumed: the PE unrolls ``Tm x Tn`` MACs."""
        return self.tm * self.tn


#: A quantity :class:`LayerDesign` derives from its inputs at construction.
_derived = functools.partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LayerDesign:
    """A layer bound to a PE with a concrete tiling vector.

    All tile-count and timing quantities used by FNAS-GG, FNAS-Sched and
    FNAS-Analyzer are derived here once, at construction:

    * ``n_ifm_channel_tiles`` -- ``ceil(N / Tn)`` (the paper's
      ``|CH_ifm|``); ``n_ofm_channel_tiles`` -- ``ceil(M / Tm)``
      (``|CH_ofm|``);
    * ``n_row_tiles`` -- ``ceil(R / Tr)``; ``n_col_tiles`` --
      ``ceil(C / Tc)``; ``n_rc_tiles`` -- their product (``|RC|``);
    * ``task_count`` -- tasks this PE executes per inference.  Depthwise
      layers have no channel reduction: each channel tile is both the
      input and the output of its tasks, so the counts do not multiply;
    * ``execution_time`` -- cycles for one task, ``Kh * Kw * Tr * Tc``
      (the paper's ``ET_i``);
    * ``effective_execution_time`` -- steady-state cycles per task under
      phase overlap.  Without a :class:`~repro.fpga.dram.PhaseLatency`
      attached (the flat-bandwidth memory model) this *is*
      ``execution_time``, which is what keeps DRAM-less devices
      byte-identical to the seed; with one, a task costs
      ``max(load, compute, write)`` because the double-buffered phases
      of consecutive tasks overlap;
    * ``effective_processing_time`` -- whole-layer cycles under phase
      overlap.
    """

    layer_index: int
    spec: ConvLayerSpec
    tiling: TilingVector
    phases: PhaseLatency | None = None
    n_ifm_channel_tiles: int = _derived()
    n_ofm_channel_tiles: int = _derived()
    n_row_tiles: int = _derived()
    n_col_tiles: int = _derived()
    n_rc_tiles: int = _derived()
    task_count: int = _derived()
    execution_time: int = _derived()
    effective_execution_time: int = _derived()
    effective_processing_time: int = _derived()

    def __post_init__(self) -> None:
        spec, tiling = self.spec, self.tiling
        out_rows, out_cols = spec.out_rows, spec.out_cols
        depthwise = spec.is_depthwise
        if depthwise and tiling.tm != tiling.tn:
            raise ValueError(
                f"layer {self.layer_index}: depthwise tiling needs Tm == Tn, "
                f"got Tm={tiling.tm} Tn={tiling.tn}"
            )
        if tiling.tm > spec.out_channels:
            raise ValueError(
                f"layer {self.layer_index}: Tm {tiling.tm} exceeds "
                f"out_channels {spec.out_channels}"
            )
        if tiling.tn > spec.in_channels:
            raise ValueError(
                f"layer {self.layer_index}: Tn {tiling.tn} exceeds "
                f"in_channels {spec.in_channels}"
            )
        if tiling.tr > out_rows:
            raise ValueError(
                f"layer {self.layer_index}: Tr {tiling.tr} exceeds "
                f"out_rows {out_rows}"
            )
        if tiling.tc > out_cols:
            raise ValueError(
                f"layer {self.layer_index}: Tc {tiling.tc} exceeds "
                f"out_cols {out_cols}"
            )
        n_ifm = -(-spec.in_channels // tiling.tn)
        n_ofm = -(-spec.out_channels // tiling.tm)
        n_rows = -(-out_rows // tiling.tr)
        n_cols = -(-out_cols // tiling.tc)
        n_rc = n_rows * n_cols
        tasks = n_ofm * n_rc if depthwise else n_ifm * n_ofm * n_rc
        execution = spec.kernel * spec.kernel * tiling.tr * tiling.tc
        effective = (execution if self.phases is None
                     else self.phases.effective_cycles)
        # Frozen: the derived fields go straight into the instance dict.
        vars(self).update(
            n_ifm_channel_tiles=n_ifm,
            n_ofm_channel_tiles=n_ofm,
            n_row_tiles=n_rows,
            n_col_tiles=n_cols,
            n_rc_tiles=n_rc,
            task_count=tasks,
            execution_time=execution,
            effective_execution_time=effective,
            effective_processing_time=effective * tasks,
        )

    @property
    def dsps(self) -> int:
        """DSP slices this PE consumes.

        A standard PE unrolls ``Tm x Tn`` MACs; a depthwise PE has one
        multiplier lane per channel (``Tm``), there is no cross-channel
        reduction tree to feed.
        """
        if self.spec.is_depthwise:
            return self.tiling.tm
        return self.tiling.dsps

    @property
    def processing_time(self) -> int:
        """Cycles to process the whole layer (paper's ``PT_i``).

        Equation (2) of the paper writes ``ET x |CH_ifm| x |CH_ofm|``;
        the row/col tile count is required for the totals to equal the
        layer's MAC workload divided by the PE's MAC throughput (as the
        example graph in Figure 3(e) shows), so it is included here.
        """
        return self.execution_time * self.task_count

    # -- memory -------------------------------------------------------------

    @property
    def ifm_buffer_bytes(self) -> int:
        """On-chip IFM tile buffer: ``Tn`` channels of the input window."""
        return _buffer_bytes(self.spec, self.tiling)[0]

    @property
    def ofm_buffer_bytes(self) -> int:
        """On-chip OFM tile buffer."""
        return _buffer_bytes(self.spec, self.tiling)[1]

    @property
    def weight_buffer_bytes(self) -> int:
        """On-chip weight buffer for one task's filter block.

        ``Tm x Tn`` filters for a standard conv; one ``KxK`` filter per
        channel lane (``Tn``) for depthwise.
        """
        return _buffer_bytes(self.spec, self.tiling)[2]

    @property
    def bram_bytes(self) -> int:
        """Total double-buffered on-chip storage for this PE."""
        return DOUBLE_BUFFER * self.task_data_bytes

    @property
    def task_data_bytes(self) -> int:
        """Off-chip bytes moved per task with no reuse (worst case)."""
        return sum(_buffer_bytes(self.spec, self.tiling))


def _buffer_bytes(
    spec: ConvLayerSpec, tiling: TilingVector
) -> tuple[int, int, int]:
    """One copy of a PE's (IFM, OFM, weight) tile buffers, in bytes.

    This is the buffer model every BRAM limit is checked against; the
    selection closed forms below solve it for one tile dimension.
    """
    window_rows = tiling.tr * spec.stride + spec.kernel - 1
    window_cols = tiling.tc * spec.stride + spec.kernel - 1
    ifm = tiling.tn * window_rows * window_cols
    ofm = tiling.tm * tiling.tr * tiling.tc
    filters = tiling.tn if spec.is_depthwise else tiling.tm * tiling.tn
    weights = filters * spec.kernel * spec.kernel
    return ifm * WORD_BYTES, ofm * WORD_BYTES, weights * WORD_BYTES


def _phase_latency(
    spec: ConvLayerSpec, tiling: TilingVector, device
) -> PhaseLatency:
    """Per-task load/compute/write phases on a DRAM-modeled device.

    The load phase streams one task's IFM window and weight block; the
    write phase drains its OFM tile; both are rescaled to
    accelerator-clock cycles by the device's
    :class:`~repro.fpga.dram.DramModel`.
    """
    ifm, ofm, weights = _buffer_bytes(spec, tiling)
    dram, clock = device.dram, device.clock_mhz
    return PhaseLatency(
        load_cycles=dram.transfer_cycles(ifm + weights, clock),
        compute_cycles=spec.kernel * spec.kernel * tiling.tr * tiling.tc,
        write_cycles=dram.transfer_cycles(ofm, clock),
    )


@dataclass(frozen=True)
class PipelineDesign:
    """A full per-layer-PE design for an architecture on a platform.

    ``start_deltas`` holds the analyzer's per-boundary start deltas,
    keyed by row/col mapping mode.
    :func:`~repro.latency.analyzer.boundary_deltas` fills it on first
    use, so every reuse assignment analysed on one design shares them.
    It is derived from the other fields and takes no part in equality.
    """

    architecture: Architecture
    platform: Platform
    layers: tuple[LayerDesign, ...]
    allocations: tuple[PeAllocation, ...]
    start_deltas: dict[str, tuple[tuple[int, int], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.layers) != self.architecture.depth:
            raise ValueError(
                f"{len(self.layers)} layer designs for a depth-"
                f"{self.architecture.depth} architecture"
            )

    @property
    def total_dsps_used(self) -> int:
        """DSPs consumed by all PEs (kind-aware: depthwise PEs use Tm)."""
        return sum(d.dsps for d in self.layers)

    def layer(self, index: int) -> LayerDesign:
        """The design of layer ``index``."""
        return self.layers[index]


@dataclass
class MemoStats:
    """Hit/miss counters for a design-reuse memo."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total memo queries."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the memo (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


#: Process-wide tiling-memo counters, keyed by layer-kind bucket plus an
#: ``"all"`` total.  Every :class:`LayerDesignMemo` adds its counts here
#: alongside its own, once per probe call, so the service front end can
#: report estimator cache behavior in ``/metrics`` without holding
#: references to the per-job estimators that own the memos.
PROCESS_MEMO_STATS: dict[str, MemoStats] = {}

_PROCESS_STATS_LOCK = threading.Lock()


def process_memo_snapshot() -> dict[str, dict[str, float]]:
    """JSON-ready view of the process-wide tiling-memo counters."""
    with _PROCESS_STATS_LOCK:
        return {
            kind: {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            }
            for kind, stats in sorted(PROCESS_MEMO_STATS.items())
        }


def reset_process_memo_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    with _PROCESS_STATS_LOCK:
        PROCESS_MEMO_STATS.clear()


def _stats_for(table: dict[str, MemoStats], name: str) -> MemoStats:
    """``table[name]``, created empty on first use."""
    return table.get(name) or table.setdefault(name, MemoStats())


def _kind_bucket(spec: ConvLayerSpec) -> str:
    """Counter bucket for a layer: standard / pointwise / depthwise.

    Pointwise (1x1 standard) convs are counted apart from general
    standard convs so the MobileNet dw/pw path is observable in
    ``/metrics`` without inspecting tilings.
    """
    if spec.kind == ConvLayerSpec.DEPTHWISE:
        return "depthwise"
    if spec.kernel == 1:
        return "pointwise"
    return "standard"


def _layer_key(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
) -> tuple:
    """A layer and its PE budgets as a plain tuple (``key[:7]`` is the spec)."""
    return (spec.in_channels, spec.out_channels, spec.kernel, spec.in_rows,
            spec.in_cols, spec.stride, spec.kind, dsp_budget,
            bram_budget_bytes)


@dataclass
class LayerDesignMemo:
    """Shared memo of per-layer tiling decisions.

    Tiling selection is a pure function of the layer spec, the PE's
    resource budgets and the spatial strategy -- and architectures in a
    search run share most layer configurations -- so one memo shared
    across :class:`TilingDesigner` instances lets every new architecture
    reuse the tiling work done for fingerprints seen earlier.  This is
    the layer-level tier of the latency estimator's two-tier cache.

    The counted table holds one tiling per (spec, DSP budget, BRAM
    budget, spatial strategy), and each layer designed is one probe of
    it.  Uncounted tables ride along, each keyed on what its value is a
    function of: channel tilings per (spec, DSP, BRAM), shared by both
    spatial strategies; spatial tilings per (spec, Tm, Tn, BRAM,
    strategy); DRAM phases per (kernel, stride, kind, tiling, the
    device's DRAM fields and clock); and whole :class:`LayerDesign`
    values per (layer index, spec, tiling, DRAM fields and clock), so
    budgets and strategies that choose one tiling share one design.
    Keys are plain tuples of those fields.

    The tables together hold at most :data:`LAYER_MEMO_MAX_ENTRIES`
    entries (:attr:`entries`): a call that could pass the bound first
    clears them all, as :meth:`clear` does.  Every value is a pure
    function of its key, so a cleared memo only computes again.

    Thread-safe: the memo is shared by every designer an estimator
    builds, and estimators are themselves shared across service and
    evaluation threads, so the tables and counters mutate only under an
    internal lock.
    """

    stats: MemoStats = field(default_factory=MemoStats)
    kind_stats: dict[str, MemoStats] = field(default_factory=dict)
    _tilings: dict[str, dict[tuple, TilingVector]] = field(
        default_factory=dict)
    _channels: dict[tuple, tuple[int, int]] = field(default_factory=dict)
    _spatial: dict[tuple, TilingVector] = field(default_factory=dict)
    _phases: dict[tuple, PhaseLatency] = field(default_factory=dict)
    _designs: dict[tuple, LayerDesign] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __len__(self) -> int:
        with self._lock:
            return sum(len(table) for table in self._tilings.values())

    @property
    def entries(self) -> int:
        """Entries over every table: what :data:`LAYER_MEMO_MAX_ENTRIES`
        bounds."""
        with self._lock:
            return self._entries()

    def clear(self) -> None:
        """Drop all memoised tilings and phases (counters are kept)."""
        with self._lock:
            self._clear()

    def _entries(self) -> int:
        return (sum(len(table) for table in self._tilings.values())
                + len(self._channels) + len(self._spatial)
                + len(self._phases) + len(self._designs))

    def _clear(self) -> None:
        for table in (self._tilings, self._channels, self._spatial,
                      self._phases, self._designs):
            table.clear()

    def _make_room(self, adding: int) -> None:
        """Clear the tables if ``adding`` more entries could pass the
        bound (the caller holds the lock)."""
        if self._entries() + adding > LAYER_MEMO_MAX_ENTRIES:
            self._clear()

    def _count(self, tally: dict[str, list[int]]) -> None:
        """Add one call's ``bucket -> [hits, misses]`` tally to this
        memo's counters (the caller holds the lock) and to the
        process-wide ones."""
        with _PROCESS_STATS_LOCK:
            for bucket, (hits, misses) in tally.items():
                for stats in (self.stats, _stats_for(self.kind_stats, bucket),
                              _stats_for(PROCESS_MEMO_STATS, "all"),
                              _stats_for(PROCESS_MEMO_STATS, bucket)):
                    stats.hits += hits
                    stats.misses += misses

    def lookup(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
    ) -> TilingVector | None:
        """Return the memoised tiling for this layer shape, if any."""
        key = _layer_key(spec, dsp_budget, bram_budget_bytes)
        with self._lock:
            tiling = self._tilings.get(spatial_strategy, {}).get(key)
            self._count({_kind_bucket(spec): [int(tiling is not None),
                                              int(tiling is None)]})
        return tiling

    def store(
        self,
        spec: ConvLayerSpec,
        dsp_budget: int,
        bram_budget_bytes: int,
        spatial_strategy: str,
        tiling: TilingVector,
    ) -> None:
        """Memoise a freshly computed tiling."""
        key = _layer_key(spec, dsp_budget, bram_budget_bytes)
        with self._lock:
            self._make_room(1)
            self._tilings.setdefault(spatial_strategy, {})[key] = tiling

    def channel_tiling(
        self, spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> tuple[int, int]:
        """The layer's ``(Tm, Tn)``, chosen once per spec and budgets.

        Channel tiling does not depend on the spatial strategy, so the
        strategy that misses first chooses it and the other reuses it.
        """
        with self._lock:
            self._make_room(1)
            return self._channels_of(
                spec, _layer_key(spec, dsp_budget, bram_budget_bytes))

    def layer_designs(
        self,
        specs: tuple[ConvLayerSpec, ...],
        allocations: list[PeAllocation] | tuple[PeAllocation, ...],
        spatial_strategy: str,
    ) -> tuple[LayerDesign, ...]:
        """Every layer of an allocated architecture, designed.

        Each layer is one counted probe, and a miss is chosen and
        stored before the next layer probes, so a key repeated within
        one architecture misses once and then hits -- the counts of a
        :meth:`lookup` and :meth:`store` per layer.  The lock is taken
        once for the whole call and the counters are added once.
        """
        tally: dict[str, list[int]] = {}
        designs = []
        last_device = dram = None
        with self._lock:
            self._make_room(_TABLES_PER_LAYER * len(specs))
            tilings = self._tilings.setdefault(spatial_strategy, {})
            built = self._designs
            try:
                for spec, allocation in zip(specs, allocations):
                    key = _layer_key(spec, allocation.dsp_budget,
                                     allocation.bram_budget_bytes)
                    counts = tally.setdefault(_kind_bucket(spec), [0, 0])
                    tiling = tilings.get(key)
                    if tiling is None:
                        counts[1] += 1
                        tiling = tilings[key] = self._tiling_of(
                            spec, key, spatial_strategy)
                    else:
                        counts[0] += 1
                    device = allocation.device
                    if device is not last_device:
                        last_device, dram = device, _dram_key(device)
                    design_key = (allocation.layer_index, key[:7], tiling.tm,
                                  tiling.tn, tiling.tr, tiling.tc, dram)
                    design = built.get(design_key)
                    if design is None:
                        design = built[design_key] = LayerDesign(
                            allocation.layer_index, spec, tiling,
                            self._phases_of(spec, tiling, device, dram))
                    designs.append(design)
            finally:
                self._count(tally)
        return tuple(designs)

    # The helpers below fill the uncounted tables; the caller holds the lock.
    def _channels_of(self, spec: ConvLayerSpec, key: tuple) -> tuple[int, int]:
        channels = self._channels.get(key)
        if channels is None:
            channels = self._channels[key] = _channel_tiling(
                spec, key[7], key[8])
        return channels

    def _tiling_of(
        self, spec: ConvLayerSpec, key: tuple, spatial_strategy: str
    ) -> TilingVector:
        tm, tn = self._channels_of(spec, key)
        spatial_key = (key[:7], tm, tn, key[8], spatial_strategy)
        tiling = self._spatial.get(spatial_key)
        if tiling is None:
            tr, tc = _spatial_tiling(spec, tm, tn, key[8], spatial_strategy)
            tiling = self._spatial[spatial_key] = TilingVector(tm, tn, tr, tc)
        return tiling

    def _phases_of(
        self, spec: ConvLayerSpec, tiling: TilingVector, device,
        dram: tuple | None,
    ) -> PhaseLatency | None:
        if dram is None:
            return None
        key = (spec.kernel, spec.stride, spec.kind, tiling.tm, tiling.tn,
               tiling.tr, tiling.tc, dram)
        phases = self._phases.get(key)
        if phases is None:
            phases = self._phases[key] = _phase_latency(spec, tiling, device)
        return phases


def _dram_key(device) -> tuple | None:
    """What the phase closed form reads of a device (None without DRAM)."""
    dram = getattr(device, "dram", None)
    if dram is None:
        return None
    return (dram.port_width_bits, dram.burst_beats, dram.frequency_mhz,
            dram.latency_cycles, device.clock_mhz)


class TilingDesigner:
    """Selects ``<Tm, Tn, Tr, Tc>`` per layer (the FNAS-Design component).

    Parameters:
        spatial_strategy: ``"max-reuse"`` picks the largest BRAM-fitting
            spatial tile (paper default); ``"min-start"`` picks the
            smallest useful tile, which shortens downstream start times
            at the cost of more ceil waste.  Both are exact w.r.t. the
            constraints; the latency analyzer arbitrates between them in
            :class:`~repro.latency.explorer.DesignExplorer`.
        memo: optional :class:`LayerDesignMemo` shared with other
            designers; repeated layer shapes then skip the tiling search.
    """

    def __init__(
        self,
        spatial_strategy: str = "max-reuse",
        memo: LayerDesignMemo | None = None,
    ):
        if spatial_strategy not in ("max-reuse", "min-start"):
            raise ValueError(
                f"unknown spatial_strategy {spatial_strategy!r}; expected "
                "'max-reuse' or 'min-start'"
            )
        self.spatial_strategy = spatial_strategy
        self.memo = memo

    def design(
        self, architecture: Architecture, platform: Platform
    ) -> PipelineDesign:
        """Produce a full pipeline design for ``architecture`` on ``platform``."""
        return self.design_allocated(
            architecture, platform, platform.allocate(architecture)
        )

    def design_allocated(
        self,
        architecture: Architecture,
        platform: Platform,
        allocations: list[PeAllocation] | tuple[PeAllocation, ...],
    ) -> PipelineDesign:
        """:meth:`design` over PE allocations the caller already made.

        :class:`~repro.latency.explorer.DesignExplorer` allocates each
        architecture once and designs both spatial strategies from that
        one allocation.  With a memo, every layer is one counted probe,
        all under one lock acquisition
        (:meth:`LayerDesignMemo.layer_designs`).  On a DRAM-modeled
        device every layer carries its
        :class:`~repro.fpga.dram.PhaseLatency`; devices without one
        keep the flat-bandwidth seed behavior (``phases=None``).
        """
        specs = architecture.layers
        if self.memo is not None:
            layers = self.memo.layer_designs(
                specs, allocations, self.spatial_strategy)
        else:
            layers = []
            for allocation, spec in zip(allocations, specs):
                tiling = self.design_layer(spec, allocation.dsp_budget,
                                           allocation.bram_budget_bytes)
                device = allocation.device
                phases = (None if getattr(device, "dram", None) is None
                          else _phase_latency(spec, tiling, device))
                layers.append(LayerDesign(allocation.layer_index, spec,
                                          tiling, phases))
        return PipelineDesign(
            architecture=architecture,
            platform=platform,
            layers=tuple(layers),
            allocations=tuple(allocations),
        )

    def design_layer(
        self, spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
    ) -> TilingVector:
        """Choose one layer's tiling under its PE's resource budget.

        With a memo this is one counted :meth:`~LayerDesignMemo.lookup`,
        as :meth:`design_allocated` counts each layer.
        """
        memo, strategy = self.memo, self.spatial_strategy
        if memo is None:
            tm, tn = _channel_tiling(spec, dsp_budget, bram_budget_bytes)
        else:
            cached = memo.lookup(spec, dsp_budget, bram_budget_bytes, strategy)
            if cached is not None:
                return cached
            tm, tn = memo.channel_tiling(spec, dsp_budget, bram_budget_bytes)
        tr, tc = _spatial_tiling(spec, tm, tn, bram_budget_bytes, strategy)
        tiling = TilingVector(tm=tm, tn=tn, tr=tr, tc=tc)
        if memo is not None:
            memo.store(spec, dsp_budget, bram_budget_bytes, strategy, tiling)
        return tiling


# -- closed-form selection ---------------------------------------------------
#
# A PE's double-buffered BRAM use is ``DOUBLE_BUFFER * WORD_BYTES`` times
# its buffer words (see :func:`_buffer_bytes`):
#
#     Tn * (Tr*s + K - 1) * (Tc*s + K - 1)      IFM window
#   + Tm * Tr * Tc                              OFM tile
#   + Tm * Tn * K * K   (depthwise: Tn * K * K) weights
#
# Every term grows with every tile dimension, so each selection below
# solves ``words <= budget // (DOUBLE_BUFFER * WORD_BYTES)`` for its last
# free dimension instead of testing candidates one by one.


def _budget_words(bram_budget_bytes: int) -> int:
    """Buffer words a BRAM budget holds across both buffer copies."""
    return bram_budget_bytes // (DOUBLE_BUFFER * WORD_BYTES)


def _channel_tiling(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
) -> tuple[int, int]:
    """Minimise ``ceil(M/Tm) * ceil(N/Tn)`` under DSP *and* BRAM limits.

    The layer's cycle count is proportional to the channel-tile
    product, so that is the primary objective.  A candidate is only
    feasible if its buffers fit BRAM at the smallest spatial tile
    (1x1) -- the weight buffer ``Tm*Tn*K*K`` alone can dominate for
    large kernels.  Ties prefer fewer DSPs, then a larger ``Tm``
    (OFM parallelism keeps partial sums local, reducing output
    traffic).

    For each ``Tm`` the largest fitting ``Tn`` is the only one worth
    considering (more input channels per tile never adds tiles), and at
    1x1 tiles the BRAM inequality gives it directly:
    ``Tn * (w*w + Tm*K*K) + Tm <= words`` with ``w = s + K - 1``.
    """
    if dsp_budget < 1:
        raise ValueError(f"dsp_budget must be >= 1, got {dsp_budget}")
    if spec.is_depthwise:
        return _depthwise_channel_tiling(spec, dsp_budget, bram_budget_bytes)
    words = _budget_words(bram_budget_bytes)
    kernel_area = spec.kernel * spec.kernel
    window = spec.stride + spec.kernel - 1
    window_area = window * window
    m, n = spec.out_channels, spec.in_channels
    best: tuple[int, int, int] | None = None  # (tiles, dsps, -tm)
    best_tn = 1
    for tm in range(1, min(m, dsp_budget) + 1):
        tn = min(n, dsp_budget // tm,
                 (words - tm) // (window_area + tm * kernel_area))
        if tn < 1:
            break  # BRAM use grows with Tm: no wider Tm fits either
        key = ((-(-m // tm)) * (-(-n // tn)), tm * tn, -tm)
        if best is None or key < best:
            best = key
            best_tn = tn
    if best is None:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
            "(even Tm=Tn=1 overflows)"
        )
    return -best[2], best_tn


def _depthwise_channel_tiling(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
) -> tuple[int, int]:
    """Depthwise channel tiling: one tied ``Tm == Tn == T`` knob.

    There is no channel reduction, so a depthwise PE is ``T``
    independent single-channel lanes costing ``T`` DSPs (not
    ``T x T``).  Minimise ``ceil(C / T)`` channel tiles under the
    DSP and (1x1-spatial) BRAM limits; ties prefer fewer lanes.

    At 1x1 tiles each lane buffers a ``w x w`` IFM window, one OFM word
    and a ``K x K`` filter (``w = s + K - 1``).  Widening ``T`` never
    adds tiles, so the widest fitting ``T`` reaches the minimum tile
    count, and the narrowest ``T`` with that count is ``ceil(C / tiles)``.
    """
    c = spec.in_channels
    window = spec.stride + spec.kernel - 1
    lane_words = window * window + 1 + spec.kernel * spec.kernel
    widest = min(c, dsp_budget, _budget_words(bram_budget_bytes) // lane_words)
    if widest < 1:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"depthwise layer {spec.kernel}x{spec.kernel}/"
            f"{spec.out_channels} (even T=1 overflows)"
        )
    lanes = -(-c // -(-c // widest))
    return lanes, lanes


def _spatial_tiling(
    spec: ConvLayerSpec, tm: int, tn: int, bram_budget_bytes: int,
    strategy: str,
) -> tuple[int, int]:
    """Choose ``Tr, Tc`` for a channel tiling under the BRAM budget.

    Candidates are all (Tr, Tc) pairs over the divisor-friendly values
    of R and C (:func:`_tile_size_candidates`) that fit the buffer
    model.

    * ``"max-reuse"`` takes the largest area; ties prefer fewer total
      tiles (less ceil waste), then squarer tiles, then the smaller
      ``Tr``.  For each ``Tr`` only the widest fitting ``Tc`` can win,
      and it follows from the BRAM inequality; the first ``Tr`` with no
      fitting ``Tc`` ends the scan, as every taller tile overflows too.
    * ``"min-start"`` takes the smallest tile that divides the map
      without extra waste.  1x1 has zero waste and area 1, so it is
      that tile whenever it fits -- and when it does not, nothing does.
    """
    kernel, stride = spec.kernel, spec.stride
    halo = kernel - 1
    filters = tn if spec.is_depthwise else tm * tn
    # Words left for the IFM window and OFM tile once the weights are in.
    words = _budget_words(bram_budget_bytes) - filters * kernel * kernel
    if strategy == "min-start":
        if tn * (stride + halo) * (stride + halo) + tm <= words:
            return 1, 1
    else:
        best: tuple[tuple[int, int, int], int, int] | None = None
        r, c = spec.out_rows, spec.out_cols
        col_sizes = _tile_size_candidates(c)
        for tr in _tile_size_candidates(r):
            window_rows = tr * stride + halo
            # Tn*window_rows*(Tc*s + K - 1) + Tm*Tr*Tc <= words, for Tc:
            widest = ((words - tn * window_rows * halo)
                      // (tn * window_rows * stride + tm * tr))
            if widest < 1:
                break
            tc = col_sizes[bisect.bisect_right(col_sizes, widest) - 1]
            key = (-(tr * tc), (-(-r // tr)) * (-(-c // tc)), abs(tr - tc))
            if best is None or key < best[0]:
                best = (key, tr, tc)
        if best is not None:
            return best[1], best[2]
    raise ValueError(
        f"no spatial tiling fits BRAM budget {bram_budget_bytes}B for "
        f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
        f"(even 1x1 tiles overflow)"
    )


@functools.lru_cache(maxsize=None)
def _tile_size_candidates(extent: int) -> tuple[int, ...]:
    """Useful tile sizes for a spatial extent: divisors plus the extent itself.

    Divisors avoid ragged edge tiles; a handful of near-divisor sizes are
    added for prime extents so the search is never starved of choices.
    Ascending; memoised, since a search sees only a few extents.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    sizes = {d for d in range(1, extent + 1) if extent % d == 0}
    # Ensure some mid-range options exist even when extent is prime.
    for frac in (2, 3, 4):
        sizes.add(max(1, -(-extent // frac)))
    return tuple(sorted(sizes))
