"""Tests for the reproduction report generator."""

import itertools

import pytest

from repro.api import run_plan
from repro.core.search import SearchCancelled
from repro.experiments.report import report_plan


def _body(text):
    """The report without its wall-clock footer."""
    return text.rsplit("_generated in", 1)[0]


class TestReport:
    def test_contains_every_section(self):
        text = run_plan(report_plan(trials=6, seed=0))
        for heading in ("Table 1", "Figure 6", "Figure 7", "Figure 8",
                        "reuse strategy", "early pruning"):
            assert heading in text, f"missing section {heading!r}"

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "report.md"
        assert main(["report", "--trials", "6", "--output", str(out)]) == 0
        assert out.exists()
        assert "Table 1" in out.read_text()


class TestReportJobs:
    def test_a_report_job_checkpoints_its_searches(self, tmp_path):
        """On a service with a checkpoint root, the searches of a
        report's Table 1 and Figure 6/7 sections snapshot, and the
        report reads as an uncheckpointed one does."""
        from repro.service import SearchService

        with SearchService(workers=1,
                           checkpoint_dir=str(tmp_path)) as service:
            text = service.submit(report_plan(trials=3)).result(timeout=600)
        assert list(tmp_path.rglob("*.checkpoint.json"))
        assert _body(text) == _body(run_plan(report_plan(trials=3)))

    def test_a_report_stops_between_trials(self):
        from repro.service.executor import execute_plan

        polls = itertools.count()
        with pytest.raises(SearchCancelled):
            execute_plan(report_plan(trials=3),
                         should_stop=lambda: next(polls) >= 2)
