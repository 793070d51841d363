"""Tests for the markdown report writer and its CLI entry."""

import pytest

from repro.cli import main
from repro.harness import build_report, write_report


@pytest.fixture(scope="module")
def report_text():
    # Tiny scale so the whole experiment matrix runs quickly.
    return build_report(scale=3, repeats=1)


class TestBuildReport:
    def test_contains_all_sections(self, report_text):
        assert "## Table 1" in report_text
        assert "## Table 2" in report_text
        assert "## Table 3" in report_text
        assert "## Section 8.2" in report_text

    def test_all_benchmarks_present(self, report_text):
        for name in ("mtrt2", "tsp2", "sor2", "elevator2", "hedc2"):
            assert name in report_text

    def test_paper_reference_column(self, report_text):
        assert "5/10/29" in report_text  # hedc2's paper row.
        assert "0/0/16" in report_text  # elevator2's paper row.

    def test_valid_markdown_tables(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")

    def test_overheads_formatted(self, report_text):
        assert "%" in report_text
        assert "s (" in report_text


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        target = write_report(tmp_path / "report.md", scale=3)
        assert target.exists()
        assert "## Table 3" in target.read_text()

    def test_cli_output_flag(self, tmp_path, capsys):
        target = tmp_path / "cli_report.md"
        code = main(["tables", "--scale", "3", "--output", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        assert target.exists()
