"""Shape tests for the table/figure experiment runners.

These use reduced trial counts so the whole file runs in seconds; the
full paper-scale runs live in ``benchmarks/``.
"""

import hashlib
import math

import pytest

from repro.api import run_plan
from repro.experiments.figure6 import figure6_plan
from repro.experiments.figure7 import figure7_plan
from repro.experiments.figure8 import figure8_architectures, run_figure8
from repro.experiments.runner import run_paired_plan
from repro.experiments.table1 import table1_plan
from repro.fpga.device import XC7Z020
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan
from repro.registry import DEVICES

TRIALS = 25  # reduced from the paper's 60 for test speed


def paired_run(dataset, device, specs_ms, trials=None, seed=0,
               **execution):
    """Run the paired engine on the plan these arguments describe.

    ``device`` is a :data:`repro.registry.DEVICES` name and
    ``execution`` holds :class:`ExecutionPolicy` fields.
    """
    plan = RunPlan(
        workload="paired",
        search=SearchPlan(seed=seed, trials=trials),
        execution=ExecutionPolicy(**execution),
        scenario=ScenarioPlan(datasets=(dataset,), devices=(device,),
                              specs_ms=tuple(specs_ms), include_nas=True),
    )
    return run_paired_plan(plan)


@pytest.fixture(scope="module")
def table1():
    return run_plan(table1_plan(trials=TRIALS, seed=0))


class TestTable1:
    def test_row_structure(self, table1):
        assert [r.method for r in table1.rows] == ["NAS", "FNAS", "FNAS",
                                                   "FNAS"]
        assert [r.spec_ms for r in table1.rows] == [None, 10.0, 5.0, 2.0]

    def test_fnas_meets_every_spec(self, table1):
        for row in table1.rows[1:]:
            assert row.latency_ms <= row.spec_ms

    def test_fnas_faster_than_nas(self, table1):
        nas = table1.rows[0]
        for row in table1.rows[1:]:
            assert row.elapsed_seconds < nas.elapsed_seconds
            assert row.elapsed_improvement > 1.0

    def test_speedup_grows_with_tighter_spec(self, table1):
        imps = [r.elapsed_improvement for r in table1.rows[1:]]
        assert imps == sorted(imps)

    def test_accuracy_loss_below_one_percent(self, table1):
        for row in table1.rows[1:]:
            assert row.accuracy_degradation < 0.01

    def test_format_renders(self, table1):
        text = table1.format()
        assert "NAS" in text and "FNAS" in text and "x" in text


class TestFigure6:
    @pytest.fixture(scope="class")
    def figure6(self):
        return run_plan(figure6_plan(trials=TRIALS, seed=0))

    def test_two_devices_four_bars_each(self, figure6):
        assert len(figure6.bars) == 8
        for device in ("xc7z020", "xc7a50t"):
            group = figure6.bars_for(device)
            assert [b.method for b in group] == [
                "NAS", "FNAS-loose", "FNAS-med", "FNAS-tight"]

    def test_fnas_meets_specs_on_both_devices(self, figure6):
        for bar in figure6.bars:
            if bar.method != "NAS":
                assert bar.meets_spec

    def test_fnas_latency_decreases_with_tightness(self, figure6):
        for device in ("xc7z020", "xc7a50t"):
            lats = [b.latency_ms for b in figure6.bars_for(device)[1:]]
            assert lats == sorted(lats, reverse=True)

    def test_low_end_nas_slower_than_high_end(self, figure6):
        high = figure6.bars_for("xc7z020")[0]
        low = figure6.bars_for("xc7a50t")[0]
        assert low.latency_ms > high.latency_ms

    def test_format_renders(self, figure6):
        assert "xc7a50t" in figure6.format()


class TestFigure7:
    @pytest.fixture(scope="class")
    def figure7(self):
        # MNIST only: CIFAR/ImageNet paths are exercised in benchmarks.
        return run_plan(
            figure7_plan(trials=TRIALS, seed=0, datasets=("mnist",)))

    def test_four_points_per_dataset(self, figure7):
        assert len(figure7.points_for("mnist")) == 4

    def test_time_reduction_grows_with_tightness(self, figure7):
        reductions = [p.time_reduction for p in figure7.points_for("mnist")]
        assert reductions[-1] > reductions[0]

    def test_accuracy_loss_below_one_percent(self, figure7):
        for p in figure7.points_for("mnist"):
            if p.found_valid:
                assert p.accuracy_loss < 0.01

    def test_fnas_latency_meets_spec(self, figure7):
        for p in figure7.points_for("mnist"):
            if p.found_valid:
                assert p.fnas_latency_ms <= p.spec_ms

    def test_format_handles_all_points(self, figure7):
        text = figure7.format()
        assert text.count("TS") >= 4


class TestFigure8:
    @pytest.fixture(scope="class")
    def figure8(self):
        return run_figure8()

    def test_sixteen_architectures(self, figure8):
        assert len(figure8.points) == 16
        assert len(figure8_architectures()) == 16

    def test_fnas_sched_never_loses(self, figure8):
        for p in figure8.points:
            assert p.fnas_cycles <= p.fixed_cycles

    def test_fnas_sched_wins_on_most(self, figure8):
        wins = sum(1 for p in figure8.points if p.fnas_cycles < p.fixed_cycles)
        assert wins >= 14

    def test_mean_improvement_positive(self, figure8):
        assert figure8.mean_improvement_percent > 5.0

    def test_filter_combinations_cover_both_choices(self, figure8):
        counts = {p.filter_counts for p in figure8.points}
        assert len(counts) == 16
        assert (64, 64, 64, 64) in counts
        assert (128, 128, 128, 128) in counts

    def test_format_renders(self, figure8):
        assert "FNAS-Sched" in figure8.format()


class TestPairedSearch:
    def test_trials_default_to_config(self):
        outcome = paired_run(
            "mnist", XC7Z020.name, specs_ms=[10.0], trials=5, seed=0,
        )
        assert len(outcome.nas.trials) == 5
        assert len(outcome.fnas[10.0].trials) == 5

    def test_nas_best_properties(self):
        outcome = paired_run(
            "mnist", XC7Z020.name, specs_ms=[10.0], trials=5, seed=0,
        )
        assert 0 < outcome.nas_best_accuracy <= 1
        assert outcome.nas_best_latency_ms > 0
        assert math.isfinite(outcome.nas_best_latency_ms)


class TestPairedBytes:
    """A paired run's stored bytes are a pure function of its plan."""

    PLAN = RunPlan(
        workload="paired",
        search=SearchPlan(trials=30),
        execution=ExecutionPolicy(batch_size=4),
        scenario=ScenarioPlan(datasets=("mnist",),
                              devices=("xc7z020-ddr-narrow",), boards=2,
                              specs_ms=(5.0, 2.0), include_nas=True),
    )

    #: SHA-256 of :attr:`PLAN`'s canonical stored result bytes.
    SHA256 = "56063ff9125585abbf04869fe2703b04a363d975ff905777cadafee4e4dc9fca"

    def test_stored_bytes_are_pinned(self):
        from repro.service import SearchService

        with SearchService(workers=1) as service:
            blob = service.submit(self.PLAN).result_bytes(timeout=300)
        assert hashlib.sha256(blob).hexdigest() == self.SHA256


class TestCampaignMode:
    """A paired run is its shards: fanning them across a pool or
    checkpointing them changes no ledger."""

    KWARGS = dict(dataset="mnist", specs_ms=[10.0, 5.0], trials=6, seed=0)

    @staticmethod
    def tokens_of(result):
        return [t.tokens for t in result.trials]

    def test_campaign_matches_serial_ledgers(self, tmp_path):
        serial = paired_run(device=XC7Z020.name, shard_workers=1,
                            **self.KWARGS)
        campaign = paired_run(
            device=XC7Z020.name, checkpoint_dir=str(tmp_path),
            shard_workers=2, **self.KWARGS,
        )
        assert self.tokens_of(campaign.nas) == self.tokens_of(serial.nas)
        for spec in self.KWARGS["specs_ms"]:
            assert self.tokens_of(campaign.fnas[spec]) == \
                   self.tokens_of(serial.fnas[spec])
            assert [t.reward for t in campaign.fnas[spec].trials] == \
                   [t.reward for t in serial.fnas[spec].trials]

    def test_reinvocation_resumes_from_checkpoints(self, tmp_path):
        first = paired_run(
            device=XC7Z020.name, checkpoint_dir=str(tmp_path), **self.KWARGS,
        )
        assert list(tmp_path.glob("*.checkpoint.json"))
        second = paired_run(
            device=XC7Z020.name, checkpoint_dir=str(tmp_path), **self.KWARGS,
        )
        assert self.tokens_of(second.nas) == self.tokens_of(first.nas)

    def test_registered_device_runs_pooled_and_checkpointed(self, tmp_path):
        """A device no catalog name covers is registered, then named."""
        custom = XC7Z020.scaled(0.5, name="half-zynq")
        DEVICES.register("half-zynq", custom)
        try:
            outcome = paired_run(
                device="half-zynq", checkpoint_dir=str(tmp_path),
                shard_workers=2, **self.KWARGS,
            )
        finally:
            DEVICES.unregister("half-zynq")
        assert outcome.platform.devices == (custom,)
        assert sorted(p.name for p in tmp_path.glob("*.checkpoint.json")) == [
            "mnist-half-zynq-fnas10ms-s1-ss0.checkpoint.json",
            "mnist-half-zynq-fnas5ms-s2-ss0.checkpoint.json",
            "mnist-half-zynq-nas-s0.checkpoint.json",
        ]
        assert len(outcome.nas.trials) == self.KWARGS["trials"]

    def test_unregistered_device_is_rejected_by_the_plan(self):
        with pytest.raises(KeyError, match="half-zynq"):
            paired_run(device="half-zynq", **self.KWARGS)
