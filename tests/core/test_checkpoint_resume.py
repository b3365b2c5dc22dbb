"""Checkpoint/resume: byte-identical trajectories across interruption.

The contract: a search killed at an arbitrary episode and resumed from
its last snapshot produces a trial ledger *byte-identical* (in
serialized JSON form) to the uninterrupted run's, because the snapshot
captures every trajectory-relevant quantity -- controller weights and
Adam moments, the reward baseline, the RNG stream position, and the
ledger itself.  These tests extend PR 1's golden-ledger pin: the seed
trajectory must survive not just batching but interruption.
"""

import base64
import json

import numpy as np
import pytest

from repro.core.controller import (
    LstmController,
    RandomController,
    TabularController,
)
from repro.core.evaluator import SurrogateAccuracyEvaluator
from repro.core.search import FnasSearch, NasSearch
from repro.core.search_space import SearchSpace
from repro.core.serialization import (
    load_search_result,
    rng_from_state,
    rng_state_to_dict,
    save_search_result,
    search_result_to_dict,
)
from repro.configs import MNIST_CONFIG
from repro.fpga.device import PYNQ_Z1
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator

from tests.core.controller_reference import list_state_dict
from tests.core.test_batched_search import GOLDEN_FNAS


class _KilledMidRun(Exception):
    """Raised by the kill hook to emulate a crash after a snapshot."""


@pytest.fixture(scope="module")
def setup():
    space = SearchSpace.from_config(MNIST_CONFIG)
    return space, SurrogateAccuracyEvaluator(space)


def make_fnas(space, evaluator, seed=3, spec_ms=5.0, fallback=False):
    return FnasSearch(
        space,
        evaluator,
        LatencyEstimator(Platform.single(PYNQ_Z1)),
        required_latency_ms=spec_ms,
        controller=LstmController(space, seed=seed),
        min_latency_fallback=fallback,
    )


def ledger_bytes(result) -> str:
    """The trial ledger in its serialized form (wall time excluded)."""
    payload = search_result_to_dict(result)
    payload.pop("wall_seconds")
    return json.dumps(payload)


def run_killed_then_resumed(make_search, trials, rng_seed, batch_size,
                            kill_at, every, path, monkeypatch, rewrite=None):
    """Run with checkpoints, die right after trial ``kill_at``'s
    snapshot, then resume a *fresh* search object from the file.

    ``rewrite``, when given, edits the parsed snapshot in place before
    it is written back and resumed (e.g. into a pre-upgrade form).
    """
    from repro.core import search as search_mod

    orig_after = search_mod._CheckpointPlan.after

    def dying_after(self, completed, rng, result):
        orig_after(self, completed, rng, result)
        if completed >= kill_at:
            raise _KilledMidRun()

    monkeypatch.setattr(search_mod._CheckpointPlan, "after", dying_after)
    with pytest.raises(_KilledMidRun):
        make_search().run(
            trials, np.random.default_rng(rng_seed), batch_size=batch_size,
            checkpoint_every=every, checkpoint_path=path,
        )
    monkeypatch.setattr(search_mod._CheckpointPlan, "after", orig_after)
    if rewrite is not None:
        snapshot = json.loads(path.read_text())
        rewrite(snapshot)
        path.write_text(json.dumps(snapshot))
    return make_search().resume(path)


def to_list_form(make_controller):
    """A ``rewrite`` that turns the snapshot's controller state into the
    list form snapshots held before controller state was packed."""
    def rewrite(snapshot):
        controller = make_controller()
        controller.load_state_dict(snapshot["controller"])
        snapshot["controller"] = list_state_dict(controller)
    return rewrite


def buffers(controller) -> tuple:
    """The bytes of every packed vector plus the Adam step count."""
    adam = controller._adam
    return (adam.flat.tobytes(), adam.m_flat.tobytes(),
            adam.v_flat.tobytes(), adam.t)


class TestRngRoundTrip:
    def test_stream_continues_exactly(self):
        rng = np.random.default_rng(123)
        rng.random(17)  # advance
        clone = rng_from_state(json.loads(json.dumps(rng_state_to_dict(rng))))
        np.testing.assert_array_equal(rng.random(50), clone.random(50))

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError, match="bit generator"):
            rng_from_state({"bit_generator": "NoSuchGenerator"})


def _trained(controller, steps):
    rng = np.random.default_rng(0)
    for step in range(steps):
        controller.update(controller.sample(rng), 0.5 - step)
    return controller


def trained_lstm(space, steps=5):
    """An LSTM controller after ``steps`` REINFORCE updates."""
    return _trained(LstmController(space, seed=3), steps)


def trained_tabular(space, steps=5):
    """A tabular controller after ``steps`` REINFORCE updates."""
    return _trained(TabularController(space), steps)


class TestControllerStateDicts:
    @pytest.mark.parametrize("make", [
        lambda space: LstmController(space, seed=3, entropy_weight=0.01),
        lambda space: TabularController(space),
    ])
    @pytest.mark.parametrize("form", [
        lambda controller: controller.state_dict(),
        list_state_dict,
    ], ids=["packed", "list"])
    def test_round_trip_preserves_future_trajectory(self, setup, make, form):
        space, _ = setup
        trained = _trained(make(space), steps=5)
        state = json.loads(json.dumps(form(trained)))
        fresh = make(space)
        fresh.load_state_dict(state)
        # Same future samples *and* same future updates (Adam moments
        # restored, not just weights).
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            sample_a = trained.sample(rng_a)
            sample_b = fresh.sample(rng_b)
            assert sample_a.tokens == sample_b.tokens
            assert trained.update(sample_a, 0.3) == pytest.approx(
                fresh.update(sample_b, 0.3), abs=0
            )

    def test_random_controller_state_is_type_tag_only(self, setup):
        space, _ = setup
        controller = RandomController(space)
        state = controller.state_dict()
        controller.load_state_dict(state)
        assert state == {"type": "RandomController"}

    def test_cross_type_load_rejected(self, setup):
        space, _ = setup
        state = TabularController(space).state_dict()
        with pytest.raises(ValueError, match="produced by"):
            LstmController(space).load_state_dict(state)

    def test_shape_mismatch_rejected(self, setup):
        space, _ = setup
        state = LstmController(space, hidden_size=16).state_dict()
        with pytest.raises(ValueError, match="shape"):
            LstmController(space, hidden_size=32).load_state_dict(state)

    def test_missing_head_kind_rejected(self, setup):
        """A truncated list-form snapshot must not load silently with a
        fresh (wrong) head left in place."""
        space, _ = setup
        state = list_state_dict(LstmController(space, seed=3))
        del state["heads"]["filter_size"]
        with pytest.raises(ValueError, match="head kinds"):
            LstmController(space, seed=3).load_state_dict(state)


def _one_float_short(key):
    def corrupt(state):
        raw = base64.b64decode(state[key])[:-8]
        state[key] = base64.b64encode(raw).decode("ascii")
    return corrupt


def _not_base64(state):
    state["params"] = "not base64!"


def _big_endian(state):
    state["dtype"] = ">f8"


class TestPackedStateRejections:
    """A bad packed state raises ValueError before touching anything:
    every buffer and the step count keep their bytes.  A short ``v``
    is the last vector decoded, so ``params`` and ``m`` would already
    be copied if checking and copying interleaved."""

    @pytest.mark.parametrize("corrupt, message", [
        (_one_float_short("params"), "shape"),
        (_one_float_short("v"), "shape"),
        (_not_base64, None),
        (_big_endian, "dtype"),
    ], ids=["params-one-float-short", "v-one-float-short", "not-base64",
            "big-endian"])
    @pytest.mark.parametrize("make", [
        trained_lstm,
        trained_tabular,
    ], ids=["lstm", "tabular"])
    def test_bad_state_leaves_the_target_unchanged(
        self, setup, make, corrupt, message
    ):
        space, _ = setup
        state = json.loads(json.dumps(make(space).state_dict()))
        corrupt(state)
        target = make(space, steps=2)
        before = buffers(target)
        with pytest.raises(ValueError, match=message):
            target.load_state_dict(state)
        assert buffers(target) == before


class TestLedgerRoundTrip:
    def test_save_load_save_is_byte_identical(self, setup, tmp_path):
        space, evaluator = setup
        result = make_fnas(space, evaluator).run(8, np.random.default_rng(1))
        path = tmp_path / "ledger.json"
        save_search_result(result, path)
        reloaded = load_search_result(path)
        assert ledger_bytes(result) == ledger_bytes(reloaded)
        assert reloaded.trained_count == result.trained_count
        assert reloaded.best().tokens == result.best().tokens


class TestResumeDeterminism:
    """The acceptance criterion: interrupt anywhere, resume, get the
    byte-identical ledger."""

    @pytest.mark.parametrize("kill_at", [1, 5, 11])
    def test_sequential_resume_matches_golden_ledger(
        self, setup, tmp_path, monkeypatch, kill_at
    ):
        """Resume must not only match the uninterrupted run -- it must
        match the pre-refactor seed trajectory pinned by PR 1."""
        space, evaluator = setup
        path = tmp_path / "ck.json"
        resumed = run_killed_then_resumed(
            lambda: make_fnas(space, evaluator), len(GOLDEN_FNAS),
            rng_seed=42, batch_size=1, kill_at=kill_at, every=1,
            path=path, monkeypatch=monkeypatch,
        )
        observed = [
            (t.tokens, t.reward, t.trained, t.accuracy)
            for t in resumed.trials
        ]
        assert observed == GOLDEN_FNAS

    @pytest.mark.parametrize("batch_size,kill_at,every", [
        (1, 9, 4),    # kill between checkpoint multiples
        (4, 8, 4),    # batched path, kill at a batch boundary
        (8, 16, 8),   # batch == cadence
    ])
    @pytest.mark.parametrize("snapshot_form", ["packed", "list"])
    def test_resume_is_byte_identical_to_uninterrupted(
        self, setup, tmp_path, monkeypatch, batch_size, kill_at, every,
        snapshot_form,
    ):
        """The ``list`` variant resumes from a snapshot whose controller
        state is in the pre-upgrade list form."""
        space, evaluator = setup
        trials = 21
        uninterrupted = make_fnas(space, evaluator, fallback=True).run(
            trials, np.random.default_rng(42), batch_size=batch_size
        )
        path = tmp_path / "ck.json"
        rewrite = None
        if snapshot_form == "list":
            rewrite = to_list_form(lambda: LstmController(space, seed=3))
        resumed = run_killed_then_resumed(
            lambda: make_fnas(space, evaluator, fallback=True), trials,
            rng_seed=42, batch_size=batch_size, kill_at=kill_at,
            every=every, path=path, monkeypatch=monkeypatch,
            rewrite=rewrite,
        )
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)

    def test_nas_resume_is_byte_identical(self, setup, tmp_path, monkeypatch):
        space, evaluator = setup

        def make():
            return NasSearch(
                space, evaluator,
                controller=LstmController(space, seed=5),
                latency_estimator=LatencyEstimator(Platform.single(PYNQ_Z1)),
            )

        uninterrupted = make().run(15, np.random.default_rng(9))
        path = tmp_path / "ck.json"
        resumed = run_killed_then_resumed(
            make, 15, rng_seed=9, batch_size=1, kill_at=6, every=3,
            path=path, monkeypatch=monkeypatch,
        )
        assert ledger_bytes(resumed) == ledger_bytes(uninterrupted)

    def test_resume_after_final_checkpoint_only_finalizes(
        self, setup, tmp_path
    ):
        """A snapshot at the last trial resumes to a complete result."""
        space, evaluator = setup
        path = tmp_path / "ck.json"
        full = make_fnas(space, evaluator).run(
            6, np.random.default_rng(2), batch_size=1,
            checkpoint_every=6, checkpoint_path=path,
        )
        resumed = make_fnas(space, evaluator).resume(path)
        assert ledger_bytes(resumed) == ledger_bytes(full)


class TestCheckpointMechanics:
    def test_checkpoint_file_is_written_and_tmp_cleaned(
        self, setup, tmp_path
    ):
        space, evaluator = setup
        path = tmp_path / "ck.json"
        make_fnas(space, evaluator).run(
            10, np.random.default_rng(0), checkpoint_every=5,
            checkpoint_path=path,
        )
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        snapshot = json.loads(path.read_text())
        assert snapshot["kind"] == "fnas"
        assert snapshot["next_index"] == 10
        assert snapshot["controller"]["type"] == "LstmController"
        assert snapshot["cache_stats"]["architecture_tier"]["misses"] > 0

    def test_snapshot_holds_the_controller_buffers_bytes(
        self, setup, tmp_path
    ):
        """Format pin: a snapshot at the last trial packs exactly the
        bytes of the controller's parameter and moment vectors."""
        space, evaluator = setup
        path = tmp_path / "ck.json"
        search = make_fnas(space, evaluator)
        search.run(10, np.random.default_rng(0), checkpoint_every=5,
                   checkpoint_path=path)
        state = json.loads(path.read_text())["controller"]
        assert list(state) == ["type", "dtype", "shapes", "t", "params",
                               "m", "v"]
        assert state["dtype"] == "<f8"
        assert state["shapes"] == [
            list(p.shape) for p in search.controller._param_list()]
        adam = search.controller._adam
        for key, vector in (("params", adam.flat), ("m", adam.m_flat),
                            ("v", adam.v_flat)):
            assert base64.b64decode(state[key]) == vector.tobytes()
        assert state["t"] == adam.t == 10

    def test_snapshot_is_one_line_of_compact_json(self, setup, tmp_path):
        space, evaluator = setup
        path = tmp_path / "ck.json"
        make_fnas(space, evaluator).run(
            10, np.random.default_rng(0), checkpoint_every=5,
            checkpoint_path=path,
        )
        text = path.read_text()
        assert "\n" not in text
        assert text == json.dumps(json.loads(text))

    def test_checkpoint_args_must_come_together(self, setup, tmp_path):
        space, evaluator = setup
        search = make_fnas(space, evaluator)
        with pytest.raises(ValueError, match="together"):
            search.run(5, np.random.default_rng(0), checkpoint_every=2)
        with pytest.raises(ValueError, match="together"):
            search.run(5, np.random.default_rng(0),
                       checkpoint_path=tmp_path / "x.json")

    def test_non_positive_cadence_rejected(self, setup, tmp_path):
        space, evaluator = setup
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_fnas(space, evaluator).run(
                5, np.random.default_rng(0), checkpoint_every=0,
                checkpoint_path=tmp_path / "x.json",
            )

    def test_resume_rejects_wrong_kind(self, setup, tmp_path):
        space, evaluator = setup
        path = tmp_path / "ck.json"
        make_fnas(space, evaluator).run(
            4, np.random.default_rng(0), checkpoint_every=2,
            checkpoint_path=path,
        )
        nas = NasSearch(space, evaluator,
                        controller=LstmController(space, seed=3))
        with pytest.raises(ValueError, match="cannot resume"):
            nas.resume(path)

    def test_resume_rejects_wrong_spec(self, setup, tmp_path):
        space, evaluator = setup
        path = tmp_path / "ck.json"
        make_fnas(space, evaluator, spec_ms=5.0).run(
            4, np.random.default_rng(0), checkpoint_every=2,
            checkpoint_path=path,
        )
        with pytest.raises(ValueError, match="spec"):
            make_fnas(space, evaluator, spec_ms=2.0).resume(path)

    def test_stateless_controller_cannot_checkpoint(self, setup, tmp_path):
        """A controller without state_dict fails fast, not at snapshot
        time half-way through an expensive run."""
        space, evaluator = setup

        class Minimal:
            def sample(self, rng):
                return RandomController(space).sample(rng)

            def update(self, sample, advantage):
                return 0.0

        search = FnasSearch(
            space, evaluator, LatencyEstimator(Platform.single(PYNQ_Z1)),
            required_latency_ms=5.0, controller=Minimal(),
        )
        with pytest.raises(ValueError, match="state_dict"):
            search.run(5, np.random.default_rng(0), checkpoint_every=2,
                       checkpoint_path=tmp_path / "x.json")
