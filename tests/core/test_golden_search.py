"""Trajectory wall: NAS, FNAS and the energy-aware search vs a frozen pin.

``golden_search.json`` was generated (see ``golden_search_gen.py``) by a
known-good revision.  Every pinned run must keep producing exactly
those bytes -- ledger, final controller state, last checkpoint
snapshot and cache counters -- whatever the search loops are
refactored into.  The per-trial rows are compared before the digests
so that a failure names the first trial that moved.
"""

from __future__ import annotations

import json

import pytest

from tests.core.golden_search_gen import (
    CASES,
    OUTPUT,
    case_id,
    run_case,
    run_energy,
)

GOLDEN = json.loads(OUTPUT.read_text())


def _assert_trials_match(observed: dict, expected: dict) -> None:
    for got, want in zip(observed["trials"], expected["trials"]):
        assert got == want, f"trial {want[0]} diverged"
    assert len(observed["trials"]) == len(expected["trials"])
    assert observed["ledger_sha256"] == expected["ledger_sha256"]


class TestGoldenSearch:
    def test_pin_covers_every_case(self):
        assert sorted(GOLDEN["cases"]) == sorted(
            case_id(*case) for case in CASES
        )

    @pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
    def test_run_is_byte_identical(self, case):
        expected = GOLDEN["cases"][case_id(*case)]
        observed = run_case(*case)
        _assert_trials_match(observed, expected)
        assert observed["cache_stats"] == expected["cache_stats"]
        assert observed["controller_sha256"] == expected["controller_sha256"]
        assert observed["snapshot_sha256"] == expected["snapshot_sha256"]

    def test_energy_aware_run_is_byte_identical(self):
        expected = GOLDEN["energy_aware"]
        observed = run_energy()
        _assert_trials_match(observed, expected)
        assert observed["facts"] == expected["facts"]
