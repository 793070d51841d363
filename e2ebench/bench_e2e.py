"""One end-to-end benchmark for live ``check``, record-then-check, and
``repro serve``, with an outside-in layer ladder.

Run from the repository root::

    python3 e2ebench/bench_e2e.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out DIR]

Without ``--trace`` each workload's timed part runs alone in a fresh
interpreter (so its peak RSS is its own), then an oracle checks every
timed operation's answer outside the timed region, and the end-to-end
metrics are printed one per line as ``workload metric median unit
[p25, p75] n=N``.  With ``--trace`` the same inputs are climbed as a
layer ladder instead, every public call wrapped in a span, and the
per-layer metrics are printed; spans go to ``DIR/trace-<workload>.json``.
Either way the numbers are merged into ``DIR/results.json``, and the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` (one such line per workload).  The exit code is
nonzero if any oracle failed.

Metric names, units, and the workload list come from ``BENCHMARK.json``
at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

from common import (
    STATE_DIR,
    Clock,
    Tracer,
    load_benchmark,
    peak_rss_mb,
    pin_hash_seed,
    require_source_tree,
    run_isolated,
    summarize,
)

DEFAULT_SEED = 2002
QUICK_SECONDS = 1.0
#: A child that has not answered by now is killed (a whole run must end
#: within 180 s).
CHILD_TIMEOUT_S = 170
LIVE = ("live-tsp2", "live-sor2")


def unit_of(name: str) -> str:
    """The unit a metric's name implies."""
    for suffix, unit in (
        ("ns_per_event", "ns"), ("bytes_per_event", "B"), ("_per_s", "1/s"),
        ("_ms", "ms"), ("_mb", "MB"), ("_pct", "%"), ("ratio", "ratio"),
        (".s", "s"), ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
# Children: the timed part of one workload, or one bare recording.


def run_child(args) -> int:
    if args.child == "record":
        from logcheck import record_only

        answer = record_only(args.seed, args.quick, args.work)
    elif args.workload[0] in LIVE:
        from livecheck import timed

        answer = timed(args.workload[0], args.seed, args.seconds, args.quick)
    elif args.workload[0] == "log-synth":
        from logcheck import timed

        answer = timed(args.seed, args.seconds, args.quick, args.work)
    else:
        from serveload import run_load

        answer = run_load(json.loads((args.work / "spec.json").read_text()))
    answer["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(answer))
    return 0


def _child_argv(kind: str, workload: str, seed: int, seconds: float,
                quick: bool, work: Path) -> list:
    argv = [Path(__file__), "--child", kind, "--workload", workload,
            "--seed", seed, "--seconds", seconds, "--work", work]
    return argv + (["--quick"] if quick else [])


# ----------------------------------------------------------------------
# The end-to-end run.


def _live_or_log(workload, seed, seconds, quick, work):
    if workload in LIVE:
        import livecheck as module

        expected = module.oracle_hash(workload, seed, quick)
    else:
        import logcheck as module

        expected = module.detector_hash(module.oracle(seed, quick)[0])
    answer, rss = run_isolated(
        _child_argv("timed", workload, seed, seconds, quick, work),
        work, CHILD_TIMEOUT_S,
    )
    failed = sum(digest != expected for digest in answer["hashes"])
    metrics = module.metrics(answer)
    extras = dict(answer["extras"])
    extras["checks"] = len(answer["op_s"])
    extras["p50_wall_ms"] = summarize(answer["op_wall_s"])["median"] * 1000
    return metrics, extras, rss, len(answer["hashes"]), failed


def _serve(workload, seed, seconds, quick, work):
    import servemix

    spec = servemix.build_spec(seed, seconds, quick, work)
    (work / "spec.json").write_text(json.dumps(spec))
    answer, rss = run_isolated(
        _child_argv("timed", workload, seed, seconds, quick, work),
        work, CHILD_TIMEOUT_S,
    )
    attempted, failed = servemix.judge(answer, servemix.cli_reports(spec))
    return servemix.metrics(answer), servemix.extras(answer), rss, attempted, failed


def run_workload(workload, seed, seconds, quick, work, out) -> dict:
    measure = _serve if workload == "serve-mix" else _live_or_log
    metrics, extras, rss, attempted, failed = measure(
        workload, seed, seconds, quick, work
    )
    metrics["peak_rss_mb"] = summarize([rss])
    return {"metrics": metrics, "extras": extras,
            "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# The traced run: the layer ladder.


def trace_workload(workload, seed, seconds, quick, work, out) -> dict:
    clock = Clock()
    tracer = Tracer(workload)
    if workload in LIVE:
        import livecheck

        found = livecheck.trace(workload, seed, quick, clock, tracer)
    elif workload == "log-synth":
        import logcheck

        found = logcheck.trace(
            seed, quick, clock, tracer, work,
            lambda: run_isolated(
                _child_argv("record", workload, seed, seconds, quick, work),
                work, CHILD_TIMEOUT_S,
            )[1],
        )
    else:
        import servemix

        found = servemix.trace(seed, seconds, quick, clock, tracer, work)
    per_layer = found["per_layer"]
    per_layer["trace.overhead_pct"] = (
        found["traced_check"] / found["untraced_check"] - 1
    ) * 100
    tracer.write(out / f"trace-{workload}.json")
    return {
        "metrics": {name: summarize([value]) for name, value in per_layer.items()},
        "extras": found["extras"],
        "attempted": found["attempted"],
        "failed": found["failed"],
    }


# ----------------------------------------------------------------------
# Output.


def _line(workload: str, name: str, summary: dict, unit: str) -> str:
    return (
        f"{workload} {name} {summary['median']:.6g} {unit} "
        f"[{summary['p25']:.6g}, {summary['p75']:.6g}] n={summary['n']}"
    )


def report(workload: str, result: dict, listed: list) -> dict:
    """Print every listed metric (then the extras) and return the
    contract JSON object for this workload."""
    units = {entry["name"]: entry["unit"] for entry in listed}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"{workload}: no value for {', '.join(missing)}")
    for name, unit in units.items():
        print(_line(workload, name, result["metrics"][name], unit))
    for name, value in sorted(result["extras"].items()):
        print(_line(workload, name, summarize([value]), unit_of(name)))
    correct = result["failed"] == 0 and result["attempted"] > 0
    if not correct:
        print(f"{workload} ORACLE FAILED: {result['failed']} of "
              f"{result['attempted']} checked operations disagree",
              file=sys.stderr)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["median"], "unit": unit}
            for name, unit in units.items()
        },
    }


def save(out: Path, section: str, workload: str, entry: dict) -> None:
    """Merge one workload's numbers into ``out/results.json``."""
    path = out / "results.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault(section, {})[workload] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------


def parse_args(argv, benchmark: dict):
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: live check, record-then-check, "
        "and repro serve, with a --trace layer ladder.",
    )
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=names, help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                        f"{benchmark['run_seconds']}, or {QUICK_SECONDS:g} "
                        "with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the layer ladder instead")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and short phases (a smoke run)")
    parser.add_argument("--out", type=Path, default=STATE_DIR / "out",
                        help="where results.json and traces go")
    parser.add_argument("--child", choices=("timed", "record"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else benchmark["run_seconds"]
    return args


def main(argv=None) -> int:
    pin_hash_seed()
    require_source_tree()
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.child:
        return run_child(args)
    section = "per_layer" if args.trace else "end_to_end"
    listed = benchmark[section]
    args.out.mkdir(parents=True, exist_ok=True)
    measure = trace_workload if args.trace else run_workload
    all_correct = True
    for workload in args.workload:
        work = STATE_DIR / "work" / f"{workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            result = measure(
                workload, args.seed, args.seconds, args.quick, work, args.out
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        summary = report(workload, result, listed)
        save(args.out, section, workload, {
            **summary,
            "metrics": {
                entry["name"]: {
                    **result["metrics"][entry["name"]], "unit": entry["unit"]
                }
                for entry in listed
            },
            "extras": result["extras"],
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version()},
        })
        print(json.dumps(summary), flush=True)
        all_correct = all_correct and summary["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
