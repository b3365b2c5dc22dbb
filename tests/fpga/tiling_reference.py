"""Enumerating tiling selection: the oracle for the closed forms.

This is FNAS-Design's original selection code.  It tests every
candidate against the buffer model (:func:`_bram_usage`) and keeps the
best by the same objectives and tie-breaks the closed forms in
:mod:`repro.fpga.tiling` implement.  Nothing at runtime calls it; the
exactness walls in ``test_tiling.py`` compare the two.
"""

from __future__ import annotations

from repro.core.architecture import ConvLayerSpec
from repro.fpga.tiling import (
    DOUBLE_BUFFER,
    WORD_BYTES,
    TilingVector,
    _tile_size_candidates,
)


def design_layer(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int,
    spatial_strategy: str,
) -> TilingVector:
    """One layer's tiling: channel tiling first, then spatial."""
    tm, tn = _choose_channel_tiling(spec, dsp_budget, bram_budget_bytes)
    tr, tc = _choose_spatial_tiling(
        spec, tm, tn, bram_budget_bytes, spatial_strategy
    )
    return TilingVector(tm=tm, tn=tn, tr=tr, tc=tc)


def _choose_channel_tiling(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
) -> tuple[int, int]:
    """Minimise ``ceil(M/Tm) * ceil(N/Tn)`` under DSP *and* BRAM limits.

    Ties prefer fewer DSPs, then a larger ``Tm``.
    """
    if dsp_budget < 1:
        raise ValueError(f"dsp_budget must be >= 1, got {dsp_budget}")
    if spec.is_depthwise:
        return _choose_depthwise_channel_tiling(
            spec, dsp_budget, bram_budget_bytes
        )
    m, n = spec.out_channels, spec.in_channels
    best: tuple[int, int, int, int] | None = None  # (waste, dsps, -tm, tm)
    best_tn = 1
    for tm in range(1, min(m, dsp_budget) + 1):
        tn = min(n, dsp_budget // tm)
        while tn >= 1 and _bram_usage(spec, tm, tn, 1, 1) > bram_budget_bytes:
            tn -= 1
        if tn < 1:
            continue
        tiles = (-(-m // tm)) * (-(-n // tn))
        key = (tiles, tm * tn, -tm, tm)
        if best is None or key < best:
            best = key
            best_tn = tn
    if best is None:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
            "(even Tm=Tn=1 overflows)"
        )
    return best[3], best_tn


def _choose_depthwise_channel_tiling(
    spec: ConvLayerSpec, dsp_budget: int, bram_budget_bytes: int
) -> tuple[int, int]:
    """Minimise ``ceil(C / T)`` over tied ``Tm == Tn == T``; ties prefer
    fewer lanes."""
    c = spec.in_channels
    best: tuple[int, int] | None = None  # (tiles, t)
    for t in range(1, min(c, dsp_budget) + 1):
        if _bram_usage(spec, t, t, 1, 1) > bram_budget_bytes:
            break
        key = (-(-c // t), t)
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError(
            f"no channel tiling fits BRAM budget {bram_budget_bytes}B for "
            f"depthwise layer {spec.kernel}x{spec.kernel}/"
            f"{spec.out_channels} (even T=1 overflows)"
        )
    return best[1], best[1]


def _choose_spatial_tiling(
    spec: ConvLayerSpec, tm: int, tn: int, bram_budget_bytes: int,
    spatial_strategy: str,
) -> tuple[int, int]:
    """Best fitting ``(Tr, Tc)`` over every candidate pair."""
    r, c = spec.out_rows, spec.out_cols
    feasible = [
        (tr, tc)
        for tr in _tile_size_candidates(r)
        for tc in _tile_size_candidates(c)
        if _bram_usage(spec, tm, tn, tr, tc) <= bram_budget_bytes
    ]
    if not feasible:
        raise ValueError(
            f"no spatial tiling fits BRAM budget {bram_budget_bytes}B for "
            f"layer {spec.kernel}x{spec.kernel}/{spec.out_channels} "
            f"(even 1x1 tiles overflow)"
        )
    if spatial_strategy == "max-reuse":
        # Largest area; ties prefer fewer total tiles, then squarer tiles.
        def score(rc: tuple[int, int]) -> tuple[int, int, int]:
            tr, tc = rc
            tiles = (-(-r // tr)) * (-(-c // tc))
            return (-(tr * tc), tiles, abs(tr - tc))
    else:  # min-start
        # Smallest tile that still divides the map without extra waste.
        def score(rc: tuple[int, int]) -> tuple[int, int, int]:
            tr, tc = rc
            tiles = (-(-r // tr)) * (-(-c // tc))
            waste = tiles * tr * tc - r * c
            return (waste, tr * tc, abs(tr - tc))
    return min(feasible, key=score)


def _bram_usage(
    spec: ConvLayerSpec, tm: int, tn: int, tr: int, tc: int
) -> int:
    """Double-buffered bytes for a candidate tiling."""
    window_rows = tr * spec.stride + spec.kernel - 1
    window_cols = tc * spec.stride + spec.kernel - 1
    ifm = tn * window_rows * window_cols * WORD_BYTES
    ofm = tm * tr * tc * WORD_BYTES
    if spec.is_depthwise:
        wei = tn * spec.kernel * spec.kernel * WORD_BYTES
    else:
        wei = tm * tn * spec.kernel * spec.kernel * WORD_BYTES
    return DOUBLE_BUFFER * (ifm + ofm + wei)
