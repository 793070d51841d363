"""Compare two sets of benchmark results, metric by metric.

    python3 e2ebench/compare.py DIR_A DIR_B [--json PATH]

Each side is a directory holding one or more ``results.json`` files
(found recursively), for example one per seed.  For every workload and
end-to-end metric it prints each side's median and quartiles over its
runs (a side with a single run shows that run's own quartiles), B's
change against A, and a verdict:

``worse``
    B's median is worse than A's by more than the metric's bound;
``unresolved``
    not worse, but either side's spread (p75 - p25, over the median) is
    wider than the bound, so "unchanged" cannot be told from noise —
    unless every run of B reads better than every run of A, which is
    ``better``;
``better``
    B's median is better than A's by more than the bound;
``unchanged``
    otherwise.

Per-layer metrics present on both sides are listed after, without a
verdict (they have no bound).  Exits 1 if any verdict is ``worse``.
Bounds and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from common import load_benchmark, summarize


def collect(directory: Path, section: str) -> dict:
    """``{(workload, metric): [per-run summaries]}`` under ``directory``."""
    found: dict = {}
    for path in sorted(directory.rglob("results.json")):
        data = json.loads(path.read_text())
        for workload, entry in data.get(section, {}).items():
            for name, summary in entry["metrics"].items():
                found.setdefault((workload, name), []).append(summary)
    return found


def side(runs: list) -> dict:
    """One side's median and quartiles: across runs, or within the
    only run."""
    if len(runs) == 1:
        return dict(runs[0], values=[runs[0]["median"]])
    summary = summarize([run["median"] for run in runs])
    return dict(summary, values=[run["median"] for run in runs])


def spread(summary: dict) -> float:
    if summary["median"] == 0:
        return float("inf") if summary["p75"] != summary["p25"] else 0.0
    return abs(summary["p75"] - summary["p25"]) / abs(summary["median"])


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(relative change of B against A, verdict)``."""
    change = (b["median"] - a["median"]) / a["median"]
    gain = -change if better == "lower" else change
    if gain < -bound:
        return change, "worse"
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            separated = max(b["values"]) < min(a["values"])
        else:
            separated = min(b["values"]) > max(a["values"])
        return change, "better" if separated else "unresolved"
    return change, "better" if gain > bound else "unchanged"


def _fmt(summary: dict) -> str:
    return (
        f"{summary['median']:.6g} [{summary['p25']:.6g}, "
        f"{summary['p75']:.6g}] n={summary['n']}"
    )


def compare(dir_a: Path, dir_b: Path) -> list:
    benchmark = load_benchmark()
    rows = []
    a_runs = collect(dir_a, "end_to_end")
    b_runs = collect(dir_b, "end_to_end")
    for entry in benchmark["end_to_end"]:
        for workload in (item["name"] for item in benchmark["workloads"]):
            key = (workload, entry["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = side(a_runs[key]), side(b_runs[key])
            change, label = verdict(a, b, entry["better"], entry["bound"])
            rows.append({
                "workload": workload, "metric": entry["name"],
                "unit": entry["unit"], "bound": entry["bound"],
                "a": {k: a[k] for k in ("median", "p25", "p75", "n")},
                "b": {k: b[k] for k in ("median", "p25", "p75", "n")},
                "spread_a": spread(a), "spread_b": spread(b),
                "change": change, "verdict": label,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the end-to-end rows as JSON")
    args = parser.parse_args(argv)
    rows = compare(args.dir_a, args.dir_b)
    for row in rows:
        print(
            f"{row['workload']:<10} {row['metric']:<12} "
            f"A {_fmt(row['a'])}  B {_fmt(row['b'])} {row['unit']}  "
            f"{row['change']:+.1%} (bound {row['bound']:.0%}, spread "
            f"{row['spread_a']:.1%}/{row['spread_b']:.1%})  {row['verdict']}"
        )
    a_layers = collect(args.dir_a, "per_layer")
    b_layers = collect(args.dir_b, "per_layer")
    for key in sorted(set(a_layers) & set(b_layers)):
        a, b = side(a_layers[key]), side(b_layers[key])
        print(f"{key[0]:<10} {key[1]:<26} A {a['median']:.6g}  "
              f"B {b['median']:.6g}")
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
