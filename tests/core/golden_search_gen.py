"""Regenerate ``golden_search.json`` (the search-trajectory pin).

Run from the repo root::

    PYTHONPATH=src python -m tests.core.golden_search_gen

The fixture must only ever be regenerated from a revision whose search
trajectories are known-good: it freezes, for NAS and FNAS with each
built-in controller at ``batch_size`` 1 and 4, everything a run leaves
behind -- the serialized trial ledger, the final controller state, the
last checkpoint snapshot and the estimator's cache counters -- plus the
energy-aware search's ledger and per-trial energy facts.  61 trials
make every B=4 run end on a one-sample batch, and a snapshot every 7
trials lands both between and on batch boundaries.  The companion test
``test_golden_search.py`` fails if any of those bytes move.

Ledgers, controller states and snapshots are pinned as SHA-256 digests
of their canonical JSON (an LSTM state alone is ~20k floats).  Each
ledger's per-trial facts, the energy facts and the cache counters are
also pinned in full, so a failure shows where a trajectory diverged.

Controller states are digested in their list form
(``controller_reference.list_state_dict``), whatever form
``state_dict`` writes: the final controller directly, and the
snapshot's controller after loading it into a fresh controller.  The
pin therefore fixes the values a snapshot restores, not its encoding.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np

from repro.configs import MNIST_CONFIG
from repro.core.controller import (
    LstmController,
    RandomController,
    TabularController,
)
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, NasSearch
from repro.core.search_space import SearchSpace
from repro.core.serialization import cache_stats_to_dict, search_result_to_dict
from repro.experiments.energy_aware import EnergyAwareFnasSearch
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

from tests.core.controller_reference import list_state_dict

OUTPUT = Path(__file__).resolve().parent / "golden_search.json"

TRIALS = 61
CHECKPOINT_EVERY = 7
RNG_SEED = 42
FALLBACK_SPEC_MS = 1.1

CONTROLLERS = {
    "lstm": lambda space: LstmController(space, seed=3),
    "tabular": lambda space: TabularController(space),
    "random": lambda space: RandomController(space),
}

#: (kind, controller, batch_size, spec_ms).  spec_ms is None for NAS.
#: No child the random controller samples fits 1.1 ms, so FNAS's
#: min-latency fallback fires there (the learning controllers find a
#: fitting child within 61 trials at any spec the fallback can meet).
CASES = [
    (kind, controller, batch_size, spec_ms)
    for kind, spec_ms in (("nas", None), ("fnas", 5.0))
    for controller in CONTROLLERS
    for batch_size in (1, 4)
] + [("fnas", "random", batch_size, FALLBACK_SPEC_MS) for batch_size in (1, 4)]

#: The energy-aware search's pinned configuration.
ENERGY = {"trials": 80, "latency_ms": 10.0, "energy_mj": 60.0,
          "controller_seed": 3, "rng_seed": 5}


def case_id(kind, controller, batch_size, spec_ms) -> str:
    spec = "" if spec_ms is None else f"-{spec_ms:g}ms"
    return f"{kind}{spec}-{controller}-b{batch_size}"


def digest(payload) -> str:
    """SHA-256 of ``payload``'s canonical JSON."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def ledger(result) -> dict:
    """The ledger's digest and per-trial facts (wall time excluded)."""
    payload = search_result_to_dict(result)
    payload.pop("wall_seconds")
    return {
        "ledger_sha256": digest(payload),
        "trials": [
            [t.index, list(t.tokens), t.latency_ms, t.accuracy, t.reward,
             t.trained, t.sim_seconds]
            for t in result.trials
        ],
    }


def _setup():
    space = SearchSpace.from_config(MNIST_CONFIG)
    evaluator = SurrogateAccuracyEvaluator(space)
    estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
    return space, evaluator, estimator


def run_case(kind, controller, batch_size, spec_ms) -> dict:
    """Run one pinned search and return what the fixture records."""
    space, evaluator, estimator = _setup()
    policy = CONTROLLERS[controller](space)
    if kind == "nas":
        search = NasSearch(space, evaluator, controller=policy,
                           latency_estimator=estimator)
    else:
        search = FnasSearch(space, evaluator, estimator,
                            required_latency_ms=spec_ms, controller=policy,
                            min_latency_fallback=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        result = search.run(
            TRIALS, np.random.default_rng(RNG_SEED), batch_size=batch_size,
            checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path,
        )
        snapshot = json.loads(path.read_text())
    snapshot.pop("elapsed_wall_seconds")
    snapshot["result"].pop("wall_seconds")
    restored = CONTROLLERS[controller](space)
    restored.load_state_dict(snapshot["controller"])
    snapshot["controller"] = list_state_dict(restored)
    return {
        **ledger(result),
        "controller_sha256": digest(list_state_dict(policy)),
        "snapshot_sha256": digest(snapshot),
        "cache_stats": cache_stats_to_dict(estimator),
    }


def run_energy() -> dict:
    """Run the pinned energy-aware search; returns ledger and facts."""
    space, evaluator, estimator = _setup()
    search = EnergyAwareFnasSearch(
        space, evaluator, estimator,
        required_latency_ms=ENERGY["latency_ms"],
        required_energy_mj=ENERGY["energy_mj"],
        controller=LstmController(space, seed=ENERGY["controller_seed"]),
    )
    result = search.run(
        ENERGY["trials"], np.random.default_rng(ENERGY["rng_seed"])
    )
    return {
        **ledger(result),
        "facts": [
            [f.index, f.energy_mj, f.energy_violated, f.latency_violated]
            for f in search.energy_facts(result)
        ],
    }


def build() -> dict:
    cases = {case_id(*case): run_case(*case) for case in CASES}
    for case in CASES:
        if case[3] == FALLBACK_SPEC_MS:
            trials = cases[case_id(*case)]["trials"]
            assert len(trials) == TRIALS + 1, "the fallback did not fire"
    return {"cases": cases, "energy_aware": run_energy()}


def dumps(doc: dict) -> str:
    """Indented JSON with each per-trial row on one line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    row = re.compile(r"\[(?:[^\[\]{}]|\[[^\[\]{}]*\])*\]")
    text = row.sub(lambda m: " ".join(m.group().split()), text)
    return text.replace("[ ", "[").replace(" ]", "]") + "\n"


if __name__ == "__main__":
    OUTPUT.write_text(dumps(build()))
    print(f"wrote {OUTPUT}")
