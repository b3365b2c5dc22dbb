"""The explorer's fast path: exact totals, and the work it saves.

The explorer ranks its four (spatial strategy, first reuse) choices by
total cycles from one integer pass over each design's start deltas, and
builds a full report only when one is read.  The first class pins those
totals to a full analysis of an independently designed pipeline; the
second counts the calls one seeded search makes, which -- unlike timings
-- repeat exactly on any machine.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import build_search
from repro.configs import get_config
from repro.core.search_space import SearchSpace
from repro.fpga import tiling
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.fpga.tiling import TilingDesigner
from repro.latency.analyzer import FnasAnalyzer
from repro.latency.explorer import DesignExplorer
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.scheduling.base import IFM_REUSE, OFM_REUSE
from repro.scheduling.fnas_sched import alternating_strategies
from tests.fpga import tiling_reference

DEVICES = ("pynq-z1", "xc7z020-ddr-wide", "xc7z020-ddr-narrow")


class TestExplorerTotals:
    @settings(deadline=None, max_examples=60)
    @given(
        dataset=st.sampled_from(["mnist", "mobilenet"]),
        device=st.sampled_from(DEVICES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_totals_equal_full_analysis(self, dataset, device, seed):
        space = SearchSpace.from_config(get_config(dataset))
        arch = space.random_architecture(np.random.default_rng(seed))
        platform = Platform.single(get_device(device))
        result = DesignExplorer().explore(arch, platform)
        assert [(c.spatial_strategy, c.first_reuse)
                for c in result.evaluated] == [
            (spatial, first)
            for spatial in ("max-reuse", "min-start")
            for first in (OFM_REUSE, IFM_REUSE)
        ]
        for choice in result.evaluated:
            # Designed afresh: its own allocation, no shared memo, no
            # cached start deltas.
            fresh = TilingDesigner(choice.spatial_strategy).design(
                arch, platform)
            assert choice.design.layers == fresh.layers
            strategies = alternating_strategies(
                arch.depth, first=choice.first_reuse)
            report = FnasAnalyzer(strategies=strategies).analyze(fresh)
            assert choice.total_cycles == report.total_cycles
            assert choice.report == report
        # The winner is the first minimum, in evaluation order.
        assert result.best is min(result.evaluated,
                                  key=lambda c: c.total_cycles)


def _counting(calls: list, function, record=None):
    """Wrap ``function`` so every call appends ``record(*args)`` (or None)."""
    def wrapper(*args, **kwargs):
        calls.append(record(*args) if record else None)
        return function(*args, **kwargs)
    return wrapper


class TestSavedWork:
    """One seeded 1200-trial MobileNet search at B=32, counted."""

    def test_each_piece_of_work_happens_once(self, monkeypatch):
        explores, analyses, bram_usage = [], [], []
        chosen, spatial, allocated = [], [], []
        for owner, name, calls, record in (
            (FnasAnalyzer, "analyze", analyses, None),
            (tiling_reference, "_bram_usage", bram_usage, None),
            (tiling, "_channel_tiling", chosen, lambda *key: key),
            (tiling, "_spatial_tiling", spatial, lambda *key: key),
        ):
            monkeypatch.setattr(
                owner, name, _counting(calls, getattr(owner, name), record))
        allocate = Platform.allocate

        def allocate_and_record(self, architecture):
            allocations = allocate(self, architecture)
            allocated.append([
                (spec, a.dsp_budget, a.bram_budget_bytes)
                for spec, a in zip(architecture.layers, allocations)])
            return allocations

        monkeypatch.setattr(Platform, "allocate", allocate_and_record)
        explore = DesignExplorer.explore

        def explore_and_record(self, architecture, platform):
            result = explore(self, architecture, platform)
            explores.append(result)
            return result

        monkeypatch.setattr(DesignExplorer, "explore", explore_and_record)
        plan = RunPlan(
            workload="search",
            search=SearchPlan(seed=7, trials=1200),
            scenario=ScenarioPlan(datasets=("mobilenet",),
                                  devices=("xc7z020-ddr-narrow",),
                                  specs_ms=(40.0,)),
            execution=ExecutionPolicy(batch_size=32),
        )
        build_search(plan).run(1200, np.random.default_rng(7), batch_size=32)

        assert len(explores) > 100
        # The analytical path builds no report; a search reads only ms.
        assert analyses == []
        # One allocation per fresh architecture.
        assert len(allocated) == len(explores)
        # One channel choice per distinct (spec, DSP, BRAM) key, shared
        # by both spatial strategies.
        keys = {layer for layers in allocated for layer in layers}
        assert len(chosen) == len(set(chosen))
        assert set(chosen) == keys
        # One spatial choice per distinct (spec, Tm, Tn, BRAM, strategy):
        # the DSP budget reaches it only through (Tm, Tn).
        spatial_keys = {
            (layer.spec, layer.tiling.tm, layer.tiling.tn,
             allocation.bram_budget_bytes, choice.spatial_strategy)
            for result in explores for choice in result.evaluated
            for layer, allocation in zip(choice.design.layers,
                                         choice.design.allocations)
        }
        assert len(spatial) == len(set(spatial))
        assert set(spatial) == spatial_keys
        assert len(spatial) < 2 * len(keys)
        # The enumerating reference is never on the runtime path.
        assert bram_usage == []
        assert not hasattr(tiling, "_bram_usage")
        assert not hasattr(TilingDesigner, "_bram_usage")
