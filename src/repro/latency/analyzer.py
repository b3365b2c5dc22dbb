"""FNAS-Analyzer: closed-form pipeline latency (paper Section 3.6).

For a PE pipeline under FNAS-Sched, the latency of one inference
decomposes into each PE's *start time* plus the last PE's *processing
time* (stalls are avoided by the ready-to-run queue, so the closed form
is a tight lower bound on the simulated makespan):

* ``ET_i = Kh_i * Kw_i * Tr_i * Tc_i``   -- cycles per task (eq. before (2));
* ``PT_i = ET_i * #tasks_i``             -- a PE's total compute (eq. (2));
* ``dt_ofm(i)`` -- extra start delay of layer ``i`` when layer ``i-1``
  runs **OFM reuse** (eq. (3)): one upstream OFM tile completes every
  ``ceil(N_{i-1}/Tn_{i-1})`` tasks, and one downstream IFM tile needs
  ``ceil(Tn_i / Tm_{i-1})`` of them::

      dt_ofm(i) = ceil(N_{i-1}/Tn_{i-1}) * ceil(Tn_i/Tm_{i-1}) * ET_{i-1}

* ``dt_ifm(i)`` -- start delay when layer ``i-1`` runs **IFM reuse**
  (eq. (4)): the upstream PE touches every input tile once per output
  sweep, so the first OFM tile only completes near the end of the sweep::

      dt_ifm(i) = [ (ceil(N_{i-1}/Tn_{i-1}) - 1) * ceil(M_{i-1}/Tm_{i-1})
                    + ceil(Tn_i/Tm_{i-1}) ] * ET_{i-1}

* both formulas implicitly assume the downstream's first input tile is
  assembled from the upstream's *first* row/col tile only.  When the
  upstream spatial grid is finer than the downstream's first input
  window (wide-then-narrow channel transitions tile the upstream map
  more finely), the upstream PE must additionally finish every task of
  the ``m`` whole row/col tiles preceding the last one needed, adding
  ``m * ceil(N_{i-1}/Tn_{i-1}) * ceil(M_{i-1}/Tm_{i-1}) * ET_{i-1}``
  to either delta.  FNAS-Sched orders row/col tiles outermost, so this
  prefix term is exact for both reuse strategies; which upstream tiles
  the first downstream tile needs is decided by the same overlap rule
  FNAS-GG uses (:func:`repro.taskgraph.graph.rc_dependencies`), solved
  in closed form for that first tile.

* ``Latsys = sum of per-layer start deltas + PT_last``  (eq. (5)).

The start deltas accumulate along the pipeline: layer ``i`` starts
``dt(i)`` after layer ``i-1``, where which formula applies is decided by
layer ``i-1``'s reuse strategy.  Equation (5) in the paper spells this
out for the alternating assignment (odd layers OFM reuse, even layers
IFM reuse); this implementation accepts any strategy assignment.

Both deltas of every boundary are computed once per design
(:func:`boundary_deltas`), so ranking the two alternating reuse
assignments of one design -- as
:class:`~repro.latency.explorer.DesignExplorer` does -- is one integer
pass for both (:func:`alternating_totals`), and a full
:class:`LatencyReport` is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.dram import PhaseLatency
from repro.fpga.tiling import LayerDesign, PipelineDesign
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import alternating_strategies
from repro.taskgraph.graph import resolve_rc_mapping


@dataclass(frozen=True)
class LayerLatency:
    """Per-layer timing terms of the closed-form model.

    ``execution_time`` / ``processing_time`` are the *effective* values
    the pipeline math uses: on DRAM-modeled devices a task costs
    ``max(load, compute, write)`` under double-buffered phase overlap
    (the per-phase breakdown is in ``phases``); on flat-bandwidth
    devices they equal the seed's pure-compute numbers and ``phases``
    is ``None``.
    """

    layer_index: int
    reuse: str
    execution_time: int
    processing_time: int
    start_delta: int
    start_time: int
    phases: PhaseLatency | None = None

    @property
    def finish_bound(self) -> int:
        """Lower bound on this PE's finish: start + effective work."""
        return self.start_time + self.processing_time

    @property
    def bound(self) -> str:
        """Dominating phase (``"compute"`` on flat-bandwidth devices)."""
        if self.phases is None:
            return "compute"
        return self.phases.bound


@dataclass(frozen=True)
class LatencyReport:
    """Full analyzer output for one pipeline design."""

    layers: tuple[LayerLatency, ...]
    total_cycles: int
    total_ms: float

    @property
    def start_times(self) -> tuple[int, ...]:
        """Analytical start time per PE."""
        return tuple(layer.start_time for layer in self.layers)

    @property
    def bottleneck_layer(self) -> int:
        """Index of the PE with the largest processing time."""
        return max(self.layers, key=lambda l: l.processing_time).layer_index


class FnasAnalyzer:
    """Closed-form latency analysis of a pipeline design.

    Parameters:
        strategies: overrides the alternating reuse assignment.
        rc_mapping: row/col dependency mode mirrored from FNAS-GG
            (``"auto"``, ``"identity"`` or ``"overlap"``); keep it equal
            to the task-graph generator's setting so the closed form
            models the same dependency structure the simulator executes.
    """

    def __init__(
        self,
        strategies: list[str] | None = None,
        rc_mapping: str = "auto",
    ):
        self.strategies = strategies
        self.rc_mapping = rc_mapping

    def analyze(self, design: PipelineDesign) -> LatencyReport:
        """Compute the eq. (5) latency for ``design``.

        Start times accumulate the boundary deltas.  Since upstream PEs
        can keep feeding the last PE after it starts, the pipeline
        drains when the *slowest suffix* finishes; taking the max over
        finish bounds keeps the bound tight when an interior PE
        dominates.
        """
        n_layers = len(design.layers)
        strategies = self.strategies or alternating_strategies(n_layers)
        if len(strategies) != n_layers:
            raise ValueError(
                f"{len(strategies)} strategies for {n_layers} layers"
            )
        deltas = [0] + [
            _delta_for(pair, reuse) for pair, reuse in zip(
                boundary_deltas(design, self.rc_mapping), strategies)
        ]
        layers: list[LayerLatency] = []
        start = total = 0
        for idx, (layer, delta) in enumerate(zip(design.layers, deltas)):
            start += delta
            total = max(total, start + layer.effective_processing_time)
            layers.append(
                LayerLatency(
                    layer_index=idx,
                    reuse=strategies[idx],
                    execution_time=layer.effective_execution_time,
                    processing_time=layer.effective_processing_time,
                    start_delta=delta,
                    start_time=start,
                    phases=layer.phases,
                )
            )
        return LatencyReport(
            layers=tuple(layers),
            total_cycles=total,
            total_ms=design.platform.cycles_to_ms(total),
        )

    @staticmethod
    def start_delta(
        upstream: LayerDesign,
        downstream: LayerDesign,
        upstream_reuse: str,
        rc_mapping: str = "auto",
    ) -> int:
        """Start-time gap between two adjacent PEs (eqs. (3) / (4)).

        Both equations count upstream tasks until the downstream's
        first IFM tile is assembled; the row/col prefix term extends
        them to upstream grids finer than the downstream's first input
        window (each earlier row/col tile costs a full channel sweep).
        """
        return _delta_for(
            _boundary_delta_pair(upstream, downstream, rc_mapping),
            upstream_reuse,
        )


def boundary_deltas(
    design: PipelineDesign, rc_mapping: str = "auto"
) -> tuple[tuple[int, int], ...]:
    """``(dt_ofm, dt_ifm)`` of every layer boundary of ``design``.

    Entry ``i`` is the start delta of layer ``i + 1`` when layer ``i``
    runs OFM reuse (eq. (3)) and when it runs IFM reuse (eq. (4)).
    Computed once per design and row/col mapping mode, and kept on the
    design, so every reuse assignment analysed on it reads the same
    terms.
    """
    deltas = design.start_deltas.get(rc_mapping)
    if deltas is None:
        layers = design.layers
        deltas = tuple(
            _boundary_delta_pair(upstream, downstream, rc_mapping)
            for upstream, downstream in zip(layers, layers[1:])
        )
        design.start_deltas[rc_mapping] = deltas
    return deltas


def alternating_totals(
    design: PipelineDesign, rc_mapping: str = "auto"
) -> tuple[int, int]:
    """Eq. (5) cycles of ``design`` under the alternating assignments
    that start layer 0 with OFM reuse and with IFM reuse: their
    :meth:`FnasAnalyzer.analyze` totals, from one pass and no report."""
    layers = design.layers
    ofm_start = ifm_start = 0
    ofm_total = ifm_total = layers[0].effective_processing_time
    for index, ((dt_ofm, dt_ifm), layer) in enumerate(
        zip(boundary_deltas(design, rc_mapping), layers[1:])
    ):
        if index % 2:  # odd upstream layers run the other reuse order
            dt_ofm, dt_ifm = dt_ifm, dt_ofm
        ofm_start += dt_ofm
        ifm_start += dt_ifm
        work = layer.effective_processing_time
        ofm_total = max(ofm_total, ofm_start + work)
        ifm_total = max(ifm_total, ifm_start + work)
    return ofm_total, ifm_total


def _delta_for(deltas: tuple[int, int], upstream_reuse: str) -> int:
    """The delta of one boundary under the upstream PE's reuse order."""
    if upstream_reuse == OFM_REUSE:
        return deltas[0]
    if upstream_reuse == IFM_REUSE:
        return deltas[1]
    raise ValueError(f"unknown reuse strategy {upstream_reuse!r}")


def _boundary_delta_pair(
    upstream: LayerDesign, downstream: LayerDesign, rc_mapping: str
) -> tuple[int, int]:
    """Eqs. (3) and (4) for one boundary: ``(dt_ofm, dt_ifm)``."""
    n_ifm_up = upstream.n_ifm_channel_tiles
    n_ofm_up = upstream.n_ofm_channel_tiles
    ofm_tiles_needed = min(
        -(-downstream.tiling.tn // upstream.tiling.tm), n_ofm_up
    )
    et_up = upstream.effective_execution_time
    last_rc = _last_rc_tile_needed(upstream, downstream, rc_mapping)
    if upstream.spec.is_depthwise:
        # No channel reduction upstream: within a row/col sweep the
        # k-th OFM tile completes after exactly k+1 tasks (one task
        # per channel tile), and both reuse orderings coincide on
        # the diagonal task set.
        delta = (last_rc * n_ofm_up + ofm_tiles_needed) * et_up
        return delta, delta
    rc_prefix = last_rc * n_ifm_up * n_ofm_up
    return (
        (rc_prefix + n_ifm_up * ofm_tiles_needed) * et_up,
        (rc_prefix + (n_ifm_up - 1) * n_ofm_up + ofm_tiles_needed) * et_up,
    )


def _last_rc_tile_needed(
    upstream: LayerDesign, downstream: LayerDesign, rc_mapping: str
) -> int:
    """Index of the last upstream row/col tile feeding the
    downstream's first IFM tile (0 when the grids map one-to-one).

    ``max(rc_dependencies(upstream, downstream, 0))`` in closed form:
    the first tile's input window ends at ``in_r1``, so every upstream
    row tile from 0 to ``(in_r1 - 1) // Tr_up`` overlaps it (capped at
    the grid); columns work the same way.
    """
    if resolve_rc_mapping(upstream, downstream, rc_mapping) == "identity":
        return 0
    spec, tiling = downstream.spec, downstream.tiling
    # Output row r reads input rows up to r * stride - pad + K
    # (exclusive), with the same-padding pad = (K - 1) // 2.
    reach = spec.kernel - (spec.kernel - 1) // 2
    in_r1 = min(spec.in_rows,
                (min(spec.out_rows, tiling.tr) - 1) * spec.stride + reach)
    in_c1 = min(spec.in_cols,
                (min(spec.out_cols, tiling.tc) - 1) * spec.stride + reach)
    row = min((in_r1 - 1) // upstream.tiling.tr, upstream.n_row_tiles - 1)
    col = min((in_c1 - 1) // upstream.tiling.tc, upstream.n_col_tiles - 1)
    return row * upstream.n_col_tiles + col
