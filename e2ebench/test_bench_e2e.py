"""Checks on the end-to-end benchmark itself.

Run explicitly (the tier-1 suite collects only ``tests/``)::

    python3 -m pytest e2ebench/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import load_benchmark, require_source_tree  # noqa: E402

require_source_tree()

import compare  # noqa: E402
from sinks import NullSink  # noqa: E402

from repro.runtime.events import EventSink  # noqa: E402

BENCHMARK = load_benchmark()
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
JSON_KEYS = {"correct", "attempted", "failed", "metrics"}

#: Injected into the timed child only: a trie whose race check ignores
#: read-write conflicts.  The parent's oracle runs the real trie.
BROKEN_TRIE = """\
import sys
if "--child" in sys.argv:
    import repro.detector.pipeline
    import repro.difflab.inject
    repro.detector.pipeline.RaceDetector.trie_class = (
        repro.difflab.inject.ReadBlindLockTrie
    )
"""


def run_bench(*args, env=None, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "e2ebench/bench_e2e.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def check_output(stdout: str, section: str) -> None:
    """Every workload prints every listed metric with its unit, and
    ends with one contract JSON line carrying exactly those metrics."""
    lines = stdout.splitlines()
    for workload in WORKLOADS:
        for entry in BENCHMARK[section]:
            pattern = re.compile(
                rf"^{re.escape(workload)} {re.escape(entry['name'])} \S+ "
                rf"{re.escape(entry['unit'])} \[\S+, \S+\] n=\d+$"
            )
            assert any(pattern.match(line) for line in lines), (
                workload, entry["name"])
    answers = json_lines(stdout)
    assert len(answers) == len(WORKLOADS)
    assert json.loads(lines[-1]) == answers[-1]
    names = {entry["name"] for entry in BENCHMARK[section]}
    for answer in answers:
        assert set(answer) == JSON_KEYS
        assert answer["correct"] is True
        assert answer["failed"] == 0 and answer["attempted"] >= 1
        assert set(answer["metrics"]) == names
        for value in answer["metrics"].values():
            assert isinstance(value["value"], float)


def test_quick_run_prints_every_metric_in_time(tmp_path):
    started = time.monotonic()
    proc = run_bench("--quick", "--out", str(tmp_path))
    assert time.monotonic() - started < 90
    assert proc.returncode == 0, proc.stderr
    check_output(proc.stdout, "end_to_end")
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["end_to_end"]) == set(WORKLOADS)


def test_quick_trace_writes_spans_and_layers(tmp_path):
    proc = run_bench("--quick", "--trace", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    check_output(proc.stdout, "per_layer")
    for workload in WORKLOADS:
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert trace["spans"]
        for span in trace["spans"]:
            assert {"id", "parent", "name", "start", "end", "workload",
                    "op", "self"} <= set(span)
            assert span["workload"] == workload
            assert span["self"] <= span["end"] - span["start"] + 1e-9


def test_broken_trie_fails_the_oracle(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(BROKEN_TRIE)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = run_bench("--quick", "--workload", "live-tsp2",
                     "--out", str(tmp_path), env=env)
    assert proc.returncode != 0
    answer = json.loads(proc.stdout.splitlines()[-1])
    assert answer["correct"] is False and answer["failed"] > 0


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "live-tsp2", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not json_lines(proc.stdout)


def test_benchmark_file_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["e2ebench"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [entry["name"] for section in ("end_to_end", "per_layer")
                         for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_null_sink_overrides_every_event_sink_method():
    methods = [name for name, value in vars(EventSink).items()
               if callable(value) and not name.startswith("_")]
    assert methods
    for name in methods:
        assert name in vars(NullSink), name


@pytest.mark.parametrize("a_values, b_values, expected", [
    ([100, 101, 99, 100], [120, 121, 119, 120], "worse"),
    ([100, 101, 99, 100], [102, 101, 103, 102], "unchanged"),
    ([100, 150, 60, 100], [101, 140, 70, 100], "unresolved"),
    ([100, 150, 60, 100], [40, 45, 50, 55], "better"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "better"),
])
def test_compare_verdicts(a_values, b_values, expected):
    def side(values):
        return compare.side([{"median": v, "p25": v, "p75": v, "n": 1}
                             for v in values])

    _, label = compare.verdict(side(a_values), side(b_values), "lower", 0.1)
    assert label == expected
