"""Tests for the reproduction report generator."""

from repro.api import run_plan
from repro.experiments.report import report_plan


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
