"""Tests for the markdown experiment report and its CLI entry."""

import re

import pytest

from repro.cli import main
from repro.harness import CONFIG_FULL, build_report, run_workload, write_report
from repro.harness import report as report_module
from repro.harness import runner as runner_module
from repro.workloads import BENCHMARKS, TABLE2_BENCHMARKS

#: Wall-time cells ("0.123s" and "0.123s (+45%)"): the only cells that
#: differ between two runs of the report.
WALL_TIME = re.compile(r"\d+\.\d{3}s( \([+-]\d+%\))?")


def deterministic(text):
    return WALL_TIME.sub("<time>", text)


@pytest.fixture(scope="module")
def report_text():
    # Tiny scale so the whole experiment matrix runs quickly.
    return build_report(scale=3, repeats=1)


def table_rows(text, heading):
    """The body rows of the markdown table under ``heading``, as cell
    lists keyed by their first cell."""
    section = text.split(heading, 1)[1]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("## "):
            break
        if line.startswith("| ") and not line.startswith("| Example"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    return rows


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

    def test_table1_counts_every_dynamic_thread(self, report_text):
        rows = table_rows(report_text, "## Table 1")
        assert set(rows) == set(BENCHMARKS)
        for name, spec in BENCHMARKS.items():
            assert rows[name][:2] == [str(spec.loc(3)), str(spec.threads)]

    def test_table2_rows_cover_the_cpu_bound_benchmarks(self, report_text):
        events = table_rows(report_text, "### Access events emitted")
        assert set(events) == set(TABLE2_BENCHMARKS)

    def test_space_numbers_are_the_full_run(self, report_text):
        full = run_workload(BENCHMARKS["tsp2"], CONFIG_FULL, scale=3)
        assert (
            f"tsp2: {full.trie_nodes} trie nodes for "
            f"{full.monitored_locations} monitored locations"
        ) in report_text

    def test_each_pair_runs_once(self, monkeypatch):
        runs = []
        real = runner_module.run_workload

        def counting(spec, configuration, **kwargs):
            runs.append((spec.name, configuration.name))
            return real(spec, configuration, **kwargs)

        monkeypatch.setattr(runner_module, "run_workload", counting)
        monkeypatch.setattr(report_module, "run_workload", counting)
        build_report(scale=2, repeats=1)
        assert len(runs) == len(set(runs))
        assert ("tsp2", "Full") in runs
        assert ("elevator2", "NoOwnership") in runs


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        target = write_report(tmp_path / "report.md", scale=3)
        assert target.exists()
        assert "## Table 3" in target.read_text()

    def test_cli_output_flag(self, tmp_path, capsys, report_text):
        target = tmp_path / "cli_report.md"
        code = main(["tables", "--scale", "3", "--output", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        assert deterministic(target.read_text()) == deterministic(report_text)

    def test_cli_prints_the_same_report(self, capsys, report_text):
        assert main(["tables", "--scale", "3"]) == 0
        printed = capsys.readouterr().out
        assert deterministic(printed) == deterministic(report_text)
