"""Snapshot byte-identity wall.

A checkpointed search encodes each ledger trial once
(:class:`~repro.core.serialization.SnapshotEncoder`) and splices the
encoded trials into every later snapshot's text.  These tests capture
every snapshot a run writes and check, for each one, that

* its text is exactly ``json.dumps`` of its parsed content, and
* its ``result`` is :func:`search_result_to_dict` of the ledger at its
  ``next_index`` (wall time aside),

for NAS and FNAS at B=1 and B=4, a resumed run, snapshots forced by a
cancel, the energy-aware search's extra fields and a run whose
min-latency fallback fires.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.configs import MNIST_CONFIG
from repro.core import serialization
from repro.core.controller import LstmController, RandomController
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import (
    FnasSearch,
    NasSearch,
    SearchCancelled,
    SearchResult,
)
from repro.core.search_space import SearchSpace
from repro.core.serialization import SnapshotEncoder, search_result_to_dict
from repro.experiments.energy_aware import EnergyAwareFnasSearch
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

from tests.core.test_checkpoint_resume import (
    ledger_bytes,
    run_killed_then_resumed,
)

TRIALS = 61
EVERY = 7

#: The fields of every snapshot, in the order its text holds them.
FIELDS = ["schema", "kind", "trials_total", "batch_size", "checkpoint_every",
          "next_index", "rng", "controller", "baseline", "cache_stats",
          "result", "elapsed_wall_seconds"]


@pytest.fixture(scope="module")
def space():
    return SearchSpace.from_config(MNIST_CONFIG)


@pytest.fixture(scope="module")
def evaluator(space):
    return SurrogateAccuracyEvaluator(space)


def make_search(space, evaluator, kind, spec_ms=5.0, controller=None):
    """A fresh search of ``kind`` with its own estimator."""
    controller = controller or LstmController(space, seed=3)
    estimator = LatencyEstimator(Platform.single(PYNQ_Z1))
    if kind == "nas":
        return NasSearch(space, evaluator, controller=controller,
                         latency_estimator=estimator)
    if kind == "fnas-e":
        return EnergyAwareFnasSearch(
            space, evaluator, estimator, required_latency_ms=10.0,
            required_energy_mj=60.0, controller=controller)
    return FnasSearch(space, evaluator, estimator, required_latency_ms=spec_ms,
                      controller=controller, min_latency_fallback=True)


@pytest.fixture
def written(monkeypatch):
    """Every snapshot text written while the test runs, in order."""
    texts: list[str] = []
    write = serialization.atomic_write_bytes

    def recording(data, path):
        texts.append(data.decode())
        write(data, path)

    monkeypatch.setattr(serialization, "atomic_write_bytes", recording)
    return texts


def check_snapshots(texts: list[str], ledger: SearchResult) -> list[int]:
    """Check every snapshot text against ``ledger``; returns their counts."""
    assert texts
    counts = []
    for text in texts:
        snapshot = json.loads(text)
        assert json.dumps(snapshot) == text
        count = snapshot["next_index"]
        expected = search_result_to_dict(
            SearchResult(ledger.name, ledger.trials[:count]))
        result = snapshot["result"]
        for document in (result, expected):
            document.pop("wall_seconds")
        assert len(result["trials"]) == count
        assert json.dumps(result) == json.dumps(expected)
        counts.append(count)
    return counts


class TestEverySnapshot:
    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("kind", ["nas", "fnas"])
    def test_snapshots_hold_the_ledger_so_far(
        self, space, evaluator, tmp_path, written, kind, batch_size
    ):
        result = make_search(space, evaluator, kind).run(
            TRIALS, np.random.default_rng(42), batch_size=batch_size,
            checkpoint_every=EVERY, checkpoint_path=tmp_path / "ck.json")
        counts = check_snapshots(written, result)
        assert counts == sorted(set(counts))
        assert len(counts) == TRIALS // EVERY
        assert list(json.loads(written[-1])) == FIELDS + (
            [] if kind == "nas" else ["required_latency_ms"])

    def test_resumed_run(
        self, space, evaluator, tmp_path, written, monkeypatch
    ):
        """The resumed run's first snapshot encodes the restored ledger
        with the trials run since."""
        resumed = run_killed_then_resumed(
            lambda: make_search(space, evaluator, "fnas"), TRIALS, 42, 1,
            kill_at=30, every=EVERY, path=tmp_path / "ck.json",
            monkeypatch=monkeypatch)
        counts = check_snapshots(written, resumed)
        assert counts == [7, 14, 21, 28, 35, 42, 49, 56]
        uninterrupted = make_search(space, evaluator, "fnas").run(
            TRIALS, np.random.default_rng(42))
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)

    def test_energy_aware_extra_fields(
        self, space, evaluator, tmp_path, written
    ):
        result = make_search(space, evaluator, "fnas-e").run(
            40, np.random.default_rng(5), batch_size=4,
            checkpoint_every=EVERY, checkpoint_path=tmp_path / "ck.json")
        check_snapshots(written, result)
        snapshot = json.loads(written[-1])
        assert list(snapshot) == FIELDS + ["required_latency_ms",
                                           "required_energy_mj"]
        assert snapshot["kind"] == "fnas-e"
        assert snapshot["required_energy_mj"] == 60.0

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_min_latency_fallback(
        self, space, evaluator, tmp_path, written, batch_size
    ):
        """The fallback trial lands after the last snapshot; every
        snapshot still holds the ledger at its count."""
        result = make_search(
            space, evaluator, "fnas", spec_ms=1.1,
            controller=RandomController(space),
        ).run(TRIALS, np.random.default_rng(42), batch_size=batch_size,
              checkpoint_every=EVERY, checkpoint_path=tmp_path / "ck.json")
        assert len(result.trials) == TRIALS + 1, "the fallback did not fire"
        assert max(check_snapshots(written, result)) <= TRIALS


def stop_after(polls: int):
    """A ``should_stop`` that fires at its ``polls + 1``-th poll: the
    first poll precedes the first trial, then one follows each batch."""
    seen = []

    def should_stop():
        seen.append(None)
        return len(seen) > polls

    return should_stop


class TestCancelSnapshots:
    def _cancel_then_resume(self, space, evaluator, tmp_path, every,
                            completed, batch_size=1):
        path = tmp_path / "ck.json"
        with pytest.raises(SearchCancelled) as cancelled:
            make_search(space, evaluator, "fnas").run(
                TRIALS, np.random.default_rng(42), batch_size=batch_size,
                checkpoint_every=every, checkpoint_path=path,
                should_stop=stop_after(completed // batch_size))
        assert cancelled.value.completed == completed
        return make_search(space, evaluator, "fnas").resume(path)

    def test_forced_snapshot_between_cadence_points(
        self, space, evaluator, tmp_path, written
    ):
        resumed = self._cancel_then_resume(space, evaluator, tmp_path,
                                           every=EVERY, completed=10)
        counts = check_snapshots(written, resumed)
        # 7 on cadence, 10 forced by the cancel, then the resumed run.
        assert counts[:3] == [7, 10, 14]
        uninterrupted = make_search(space, evaluator, "fnas").run(
            TRIALS, np.random.default_rng(42))
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_cancel_on_a_cadence_point_writes_once(
        self, space, evaluator, tmp_path, written, batch_size
    ):
        """A stop right after a cadence snapshot does not write the same
        snapshot again."""
        resumed = self._cancel_then_resume(
            space, evaluator, tmp_path, every=8, completed=16,
            batch_size=batch_size)
        counts = check_snapshots(written, resumed)
        assert counts[:3] == [8, 16, 24]
        assert len(counts) == len(set(counts))
        uninterrupted = make_search(space, evaluator, "fnas").run(
            TRIALS, np.random.default_rng(42), batch_size=batch_size)
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)


@pytest.fixture(scope="module")
def trial_pool(space, evaluator):
    """Ledger trials to build ledgers from."""
    return make_search(space, evaluator, "fnas").run(
        24, np.random.default_rng(7)).trials


def reference_text(document: dict) -> str:
    """The snapshot text as one ``json.dumps`` of the whole document."""
    return json.dumps({**document,
                       "result": search_result_to_dict(document["result"])})


#: Ledger edits, each followed by a snapshot or not: append trials,
#: truncate, or hand the encoder a new list holding the same trials.
EDITS = st.lists(st.tuples(st.sampled_from(["append", "truncate", "copy"]),
                           st.integers(0, 24), st.booleans()), max_size=16)


class TestSnapshotEncoder:
    @settings(max_examples=60, deadline=None)
    @given(edits=EDITS)
    def test_every_text_equals_one_json_dumps(self, trial_pool, edits):
        result = SearchResult(name="fnas-5ms", wall_seconds=1.5)
        document = {"kind": "fnas", "result": result, "next_index": 0}
        encoder = SnapshotEncoder()
        shift = 0
        for edit, size, snapshot in edits:
            if edit == "append":
                for _ in range(size % 6):
                    position = shift + len(result.trials)
                    result.trials.append(
                        trial_pool[position % len(trial_pool)])
            elif edit == "truncate":
                del result.trials[size:]
                shift += 1  # regrown positions get other records
            else:
                result.trials = list(result.trials)
            if snapshot:
                document["next_index"] = len(result.trials)
                assert encoder.encode(document) == reference_text(document)
        assert encoder.encode(document) == reference_text(document)

    def test_a_truncated_and_regrown_ledger_is_encoded_from_scratch(
        self, trial_pool
    ):
        """Same list, same length, other trials: the record at the
        encoded frontier changed, so nothing encoded is reused."""
        result = SearchResult("fnas-5ms", list(trial_pool[:3]))
        document = {"result": result}
        encoder = SnapshotEncoder()
        assert encoder.encode(document) == reference_text(document)
        del result.trials[1:]
        result.trials.extend(trial_pool[5:7])
        assert encoder.encode(document) == reference_text(document)

    def test_a_different_ledger_is_encoded_from_scratch(self, trial_pool):
        """Another trial list -- even of the same length and ending in
        the same record -- is encoded from scratch."""
        first = trial_pool[:3]
        other = [trial_pool[5], trial_pool[6], trial_pool[2]]
        encoder = SnapshotEncoder()
        for trials in (first, other, trial_pool[6:18], first):
            document = {"result": SearchResult("fnas-5ms", list(trials))}
            assert encoder.encode(document) == reference_text(document)
