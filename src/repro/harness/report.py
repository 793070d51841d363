"""The experiment report: the one table pipeline.

Runs the paper's evaluation and renders it as GitHub-flavoured
markdown: Table 1 (benchmark characteristics), Table 2 (runtime per
configuration, with overhead against Base) and its event-count
companion, Table 3 (racy objects per accuracy variant, beside the
paper's numbers), and the Section 8.2 space numbers.
``python -m repro tables`` prints it, ``--output FILE`` writes it, and
``examples/benchmark_tables.py`` prints it too.

Each (workload, configuration) pair runs once (Table 2 keeps the best
of ``repeats`` runs).  Table 3 reuses Table 2's Full runs, and Table 1's
thread counts and the space numbers read Table 3's Full run: under the
round-robin scheduler the counters of a run do not depend on which
table asked for it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..workloads import BENCHMARKS, TABLE2_BENCHMARKS
from .runner import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    overhead_percent,
    run_table2_row,
    run_workload,
)


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def build_report(scale: Optional[int] = None, repeats: int = 1) -> str:
    """Run every experiment and return the markdown report text."""
    table2 = {
        spec.name: run_table2_row(spec, scale=scale, repeats=repeats)
        for spec in TABLE2_BENCHMARKS.values()
    }
    table3 = {}
    for spec in BENCHMARKS.values():
        done = table2.get(spec.name, {})
        table3[spec.name] = {
            config.name: done[config.name]
            if config.name in done
            else run_workload(spec, config, scale=scale)
            for config in TABLE3_CONFIGS
        }

    sections: list[str] = [
        "# Experiment report (generated)",
        "",
        "Regenerated by `python -m repro tables` "
        "(`--output <file>` writes it to a file).",
        "",
    ]

    rows = [
        [
            spec.name,
            str(spec.loc(scale)),
            str(table3[spec.name]["Full"].threads),
            spec.description,
        ]
        for spec in BENCHMARKS.values()
    ]
    sections += [
        "## Table 1 — benchmark characteristics",
        "",
        _markdown_table(
            ["Example", "Lines of MJ", "Dynamic threads", "Description"], rows
        ),
        "",
    ]

    perf_rows = []
    event_rows = []
    config_names = [c.name for c in TABLE2_CONFIGS if c.name != "Base"]
    for name, outcomes in table2.items():
        base = outcomes["Base"]
        perf_row = [name, f"{base.wall_seconds:.3f}s"]
        event_row = [name]
        for config_name in config_names:
            outcome = outcomes[config_name]
            pct = overhead_percent(base, outcome)
            perf_row.append(f"{outcome.wall_seconds:.3f}s ({pct:+.0f}%)")
            event_row.append(str(outcome.events))
        perf_rows.append(perf_row)
        event_rows.append(event_row)
    sections += [
        f"## Table 2 — runtime performance (best of {repeats})",
        "",
        _markdown_table(["Example", "Base"] + config_names, perf_rows),
        "",
        "### Access events emitted (platform-independent)",
        "",
        _markdown_table(["Example"] + config_names, event_rows),
        "",
    ]

    rows = []
    for spec in BENCHMARKS.values():
        paper = (
            "/".join(str(n) for n in spec.paper_table3)
            if spec.paper_table3
            else "-"
        )
        rows.append(
            [spec.name]
            + [
                str(table3[spec.name][config.name].racy_object_count)
                for config in TABLE3_CONFIGS
            ]
            + [paper]
        )
    sections += [
        "## Table 3 — racy objects reported",
        "",
        _markdown_table(
            ["Example"]
            + [config.name for config in TABLE3_CONFIGS]
            + ["Paper (F/FM/NO)"],
            rows,
        ),
        "",
    ]

    full = table3["tsp2"]["Full"]
    sections += [
        "## Section 8.2 — space",
        "",
        f"tsp2: {full.trie_nodes} trie nodes for "
        f"{full.monitored_locations} monitored locations "
        f"(paper: 7967 nodes / 6562 locations).",
        "",
    ]
    return "\n".join(sections)


def write_report(
    path: "str | Path", scale: Optional[int] = None, repeats: int = 1
) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    target = Path(path)
    target.write_text(build_report(scale=scale, repeats=repeats))
    return target
