"""The compiled-engine before/after benchmarks: AST interpretation vs
closure-threaded code with statically specialized trace stubs.

Two configurations per workload:

* **Base** — no instrumentation, no detector: the pure interpretation
  speedup of closure-threading (all per-node dispatch, name resolution,
  and operand-purity decisions moved to compile time).
* **Full** — the planner's trace-site plan with the full detector
  attached: the end-to-end speedup of a detection run, where the
  compiled engine additionally fuses the instrumentation plan into the
  generated code (untraced sites are bare loads/stores, traced sites
  finish owned accesses and shared cache hits inline and call the
  pre-bound ``on_access_parts`` for the rest).  The row carries the
  inline fast path's two counts, ``inline_owned`` and
  ``inline_cache_hits``.

Engine construction — which for the compiled engine includes closure
compilation — stays *outside* the timed region, matching the harness
discipline: the paper measures the runtime of the instrumented
executable, not compile time.

Before any timing is accepted, both engines' runs are asserted to be
*byte-identical*: same schema-v3 event log, same output, same race
reports — and the timed Full runs, where the detector is the sole sink
and the inline fast path engages, must end with identical reports and
pipeline, ownership and cache counters.  A speedup over a divergent
execution would be meaningless.

A third section isolates the layer both engines share: the scheduler
run loop.  ``scheduler_rows`` time ``Scheduler.run`` alone, in µs per
step, over thread bodies that only ``yield`` (3 and 5 threads, under
``RandomPolicy(2002)`` and round-robin), for the rebuild-every-step
oracle loop kept in ``tests/scheduler_oracle.py`` and the production
loop that keeps its runnable list between steps.  ``scheduler_workload_rows``
put that layer in context: whole Base runs of the compiled engine under
``RandomPolicy(2002)`` with each loop swapped in, as µs per step.  Every
row is gated on both loops making the identical decision sequence
(pick order, per-thread and total steps, program output).

A fourth section counts what the compiled engine's flat per-activation
code (one :func:`repro.runtime.compile.run_code` frame per method call,
jumps for ``if``/``while``/peeled loops) removes: ``frames_rows`` run
the compiled Base rung of tsp2@28 and sor2@48 (planned, so loops are
peeled) under ``RandomPolicy(2002)`` and record steps, µs per step, the
mean number of generator frames on the stepped thread's resume chain
after each step, and the ``_Return`` exceptions raised per run.  Frames
and raises come from a separate untimed run, so the probe does not
perturb the timed one; every row is gated on the AST engine making the
same steps, output and per-thread steps.

Running ``PYTHONPATH=src python benchmarks/bench_compile.py`` writes
``BENCH_compile.json`` at the repo root with both configurations at the
bench scales; ``--quick`` uses smoke scales and skips the JSON (CI).
The pytest-benchmark tests below cover the same arms at smoke scale.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from benchlib import ROOT, machine_metadata, run_benchmark_main, runner_parser

from repro.detector import RaceDetector, canonical_report_order  # noqa: E402
from repro.instrument import PlannerConfig, plan_instrumentation  # noqa: E402
from repro.lang import compile_source  # noqa: E402
from repro.runtime import (  # noqa: E402
    MulticastSink,
    RandomPolicy,
    RecordingSink,
    RoundRobinPolicy,
    Scheduler,
    ThreadState,
    engine_class,
)
from repro.runtime import interpreter  # noqa: E402
from repro.workloads import ALL_WORKLOADS  # noqa: E402

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from tests.scheduler_oracle import OracleScheduler, use_oracle  # noqa: E402

#: Bench scales for the committed before/after numbers.
BENCH_SCALES = {"tsp2": 16, "mtrt2": 16, "sor2": 24}
#: Smoke scales for --quick and the pytest-benchmark tests.
QUICK_SCALES = {"tsp2": 6, "mtrt2": 6, "sor2": 8}

ENGINE_PAIR = ("ast", "compiled")


def _compile(name: str, scale: int):
    """Compile at ``scale`` and plan instrumentation (Full plan)."""
    spec = ALL_WORKLOADS[name]
    resolved = compile_source(spec.build(scale), filename=name)
    plan = plan_instrumentation(resolved, PlannerConfig())
    return resolved, plan


def _detector(resolved, plan):
    return RaceDetector(resolved=resolved, static_races=plan.static_races)


def _report_keys(detector):
    return [
        (str(report.key), report.field, report.object_label)
        for report in canonical_report_order(detector.reports.reports)
    ]


def assert_engine_parity(name, resolved, plan) -> dict:
    """One instrumented run per engine; everything must match exactly.

    Returns the shared observation (races, events) for the JSON row.
    """
    observed = {}
    for engine in ENGINE_PAIR:
        detector = _detector(resolved, plan)
        log = RecordingSink()
        runner = engine_class(engine)(
            resolved,
            sink=MulticastSink([log, detector]),
            trace_sites=plan.trace_sites,
        )
        result = runner.run()
        observed[engine] = {
            "steps": result.steps,
            "output": tuple(result.output),
            "log": log.log,
            "reports": _report_keys(detector),
            "races": detector.stats.races_reported,
            "events": result.accesses_emitted,
        }
    ast_side, compiled_side = observed["ast"], observed["compiled"]
    assert ast_side == compiled_side, (
        f"{name}: engines diverged — "
        + ", ".join(
            key for key in ast_side if ast_side[key] != compiled_side[key]
        )
    )
    return {"races": ast_side["races"], "events": ast_side["events"]}


def _detector_counters(detector) -> tuple:
    """Reports and every counter the inline fast path defers."""
    return (
        _report_keys(detector),
        repr(detector.stats),
        repr(detector.ownership.stats),
        repr(detector.cache.stats),
    )


def _time_engine(engine, resolved, trace_sites, sink_factory, repeats):
    """Best-of-``repeats`` wall time of ``runner.run()`` alone, and the
    last run's sink."""
    cls = engine_class(engine)
    best = None
    for _ in range(repeats):
        sink = sink_factory()
        runner = cls(resolved, sink=sink, trace_sites=trace_sites)
        started = time.perf_counter()
        runner.run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, sink


def bench_workload(name: str, scale: int, repeats: int) -> list:
    """Both configurations for one workload; cross-engine parity
    asserted first, and again on the timed Full runs' detectors."""
    resolved, plan = _compile(name, scale)
    shared = assert_engine_parity(name, resolved, plan)

    rows = []
    configurations = (
        # (config name, trace sites, sink factory, extra fields)
        ("Base", set(), lambda: None, {}),
        ("Full", plan.trace_sites, lambda: _detector(resolved, plan), shared),
    )
    for config, trace_sites, sink_factory, extra in configurations:
        ast_seconds, ast_sink = _time_engine(
            "ast", resolved, trace_sites, sink_factory, repeats
        )
        compiled_seconds, compiled_sink = _time_engine(
            "compiled", resolved, trace_sites, sink_factory, repeats
        )
        if compiled_sink is not None:
            assert _detector_counters(ast_sink) == _detector_counters(
                compiled_sink
            ), f"{name}: the timed detection runs diverged"
            extra = {
                **extra,
                "inline_owned": compiled_sink.inline_owned,
                "inline_cache_hits": compiled_sink.inline_cache_hits,
            }
        rows.append(
            {
                "workload": name,
                "scale": scale,
                "configuration": config,
                "ast_seconds": round(ast_seconds, 4),
                "compiled_seconds": round(compiled_seconds, 4),
                "speedup": round(ast_seconds / compiled_seconds, 3),
                **extra,
            }
        )
    return rows


# ----------------------------------------------------------------------
# The scheduler run loop: the oracle loop vs the incremental one.

SCHEDULER_LOOPS = (("oracle", OracleScheduler), ("incremental", Scheduler))
SCHEDULER_POLICIES = {
    "random(2002)": lambda: RandomPolicy(2002),
    "round-robin(10)": lambda: RoundRobinPolicy(10),
}
SCHEDULER_THREADS = (3, 5)
#: Steps per loop run (each thread yields steps // threads times).
SCHEDULER_STEPS = 300_000
QUICK_SCHEDULER_STEPS = 30_000
#: Whole-run context for the loop layer: compiled engine, Base plan.
SCHEDULER_WORKLOADS = {"sor2": 48, "tsp2": 28}
QUICK_SCHEDULER_WORKLOADS = {"sor2": 8, "tsp2": 6}


def _run_loop(scheduler_cls, make_policy, threads: int, steps: int, picks=None):
    """One ``run()`` of ``scheduler_cls`` over yield-only bodies;
    returns (seconds, total steps).  With ``picks`` each body logs its
    thread id per step (the untimed decision-sequence run)."""

    def body(thread_id, count):
        if picks is None:
            for _ in range(count):
                yield
        else:
            for _ in range(count):
                picks.append(thread_id)
                yield

    scheduler = scheduler_cls(make_policy())
    for thread_id in range(threads):
        scheduler.register(
            ThreadState(thread_id, f"T{thread_id}", body(thread_id, steps // threads))
        )
    started = time.perf_counter()
    total = scheduler.run()
    return time.perf_counter() - started, total


def bench_scheduler_loop(threads: int, policy: str, steps: int, repeats: int) -> dict:
    """One row: µs per step of each loop, gated on identical picks."""
    make_policy = SCHEDULER_POLICIES[policy]
    decisions = {}
    for name, cls in SCHEDULER_LOOPS:
        picks = []
        _, total = _run_loop(cls, make_policy, threads, steps, picks)
        decisions[name] = (total, picks)
    assert decisions["oracle"] == decisions["incremental"], (
        f"scheduler loops diverged: {threads} threads, {policy}"
    )
    total = decisions["oracle"][0]
    row = {"threads": threads, "policy": policy, "steps": total}
    for name, cls in SCHEDULER_LOOPS:
        seconds = min(
            _run_loop(cls, make_policy, threads, steps)[0] for _ in range(repeats)
        )
        row[f"{name}_us_per_step"] = round(seconds / total * 1e6, 3)
    row["speedup"] = round(
        row["oracle_us_per_step"] / row["incremental_us_per_step"], 3
    )
    return row


def _observe_run(
    resolved, oracle: bool = False, engine: str = "compiled", probe=None
):
    """A Base run under ``RandomPolicy(2002)``: (seconds, the decision
    fingerprint).  ``probe`` wraps each thread body as it registers."""
    runner = engine_class(engine)(
        resolved, trace_sites=set(), policy=RandomPolicy(2002)
    )
    if oracle:
        use_oracle(runner)
    if probe is not None:
        register = runner._scheduler.register

        def register_probed(thread):
            thread.body = probe(thread.body)
            register(thread)

        runner._scheduler.register = register_probed
    started = time.perf_counter()
    result = runner.run()
    seconds = time.perf_counter() - started
    fingerprint = (
        result.steps,
        tuple(result.output),
        tuple(t.steps for t in runner._threads),
    )
    return seconds, fingerprint


def bench_scheduler_workload(name: str, scale: int, repeats: int) -> dict:
    """Whole Base runs with each loop swapped in, as µs per step."""
    spec = ALL_WORKLOADS[name]
    resolved = compile_source(spec.build(scale), filename=name)
    _, oracle_fp = _observe_run(resolved, oracle=True)
    _, incremental_fp = _observe_run(resolved, oracle=False)
    assert oracle_fp == incremental_fp, f"{name}: scheduler loops diverged"
    steps = oracle_fp[0]
    row = {
        "workload": name,
        "scale": scale,
        "configuration": "Base",
        "engine": "compiled",
        "policy": "random(2002)",
        "steps": steps,
    }
    for loop, oracle in (("oracle", True), ("incremental", False)):
        seconds = min(
            _observe_run(resolved, oracle)[0] for _ in range(repeats)
        )
        row[f"{loop}_us_per_step"] = round(seconds / steps * 1e6, 3)
    row["speedup"] = round(
        row["oracle_us_per_step"] / row["incremental_us_per_step"], 3
    )
    return row


# ----------------------------------------------------------------------
# Flat per-activation code: resume-chain depth and _Return raises.

FRAMES_WORKLOADS = {"tsp2": 28, "sor2": 48}
QUICK_FRAMES_WORKLOADS = {"tsp2": 6, "sor2": 8}


class ChainProbe:
    """Stands in for a thread body: forwards each scheduler step, then
    adds the frames on the thread's resume chain — the body and every
    generator below it through ``gi_yieldfrom`` — to ``tally``."""

    def __init__(self, body, tally: list):
        self.body = body
        self.tally = tally

    def send(self, value):
        result = self.body.send(value)
        frames = 0
        generator = self.body
        while generator is not None:
            frames += 1
            generator = generator.gi_yieldfrom
        self.tally[0] += frames
        self.tally[1] += 1
        return result


@contextlib.contextmanager
def counting_return_raises():
    """Count every ``_Return`` constructed (each one is raised)."""
    raised = [0]
    original = interpreter._Return.__init__

    def counting_init(self, value):
        raised[0] += 1
        original(self, value)

    interpreter._Return.__init__ = counting_init
    try:
        yield raised
    finally:
        interpreter._Return.__init__ = original


def bench_frames(name: str, scale: int, repeats: int) -> dict:
    """One compiled Base row: µs per step from clean timed runs; frames
    per step and ``_Return`` raises from one probed, untimed run."""
    resolved, _ = _compile(name, scale)
    _, ast_fp = _observe_run(resolved, engine="ast")
    tally = [0, 0]
    with counting_return_raises() as raised:
        _, probed_fp = _observe_run(
            resolved, probe=lambda body: ChainProbe(body, tally)
        )
    assert probed_fp == ast_fp, f"{name}: the engines diverged"
    seconds = None
    for _ in range(repeats):
        elapsed, fingerprint = _observe_run(resolved)
        assert fingerprint == ast_fp, f"{name}: the timed run diverged"
        seconds = elapsed if seconds is None else min(seconds, elapsed)
    steps = ast_fp[0]
    return {
        "workload": name,
        "scale": scale,
        "configuration": "Base",
        "engine": "compiled",
        "policy": "random(2002)",
        "steps": steps,
        "us_per_step": round(seconds / steps * 1e6, 3),
        "frames_per_step": round(tally[0] / tally[1], 2),
        "return_raises": raised[0],
    }


def generate(quick: bool = False, repeats: int = 3) -> dict:
    scales = QUICK_SCALES if quick else BENCH_SCALES
    rows = []
    for name, scale in scales.items():
        print(f"[bench] {name}@{scale} ...", flush=True)
        for row in bench_workload(name, scale, repeats):
            print(
                f"[bench]   {row['configuration']:<12} "
                f"ast={row['ast_seconds']}s "
                f"compiled={row['compiled_seconds']}s "
                f"speedup={row['speedup']}x",
                flush=True,
            )
            rows.append(row)
    steps = QUICK_SCHEDULER_STEPS if quick else SCHEDULER_STEPS
    scheduler_rows = []
    for threads in SCHEDULER_THREADS:
        for policy in SCHEDULER_POLICIES:
            row = bench_scheduler_loop(threads, policy, steps, repeats)
            print(
                f"[bench] scheduler loop {threads} threads {policy:<16} "
                f"oracle={row['oracle_us_per_step']}us "
                f"incremental={row['incremental_us_per_step']}us "
                f"speedup={row['speedup']}x",
                flush=True,
            )
            scheduler_rows.append(row)
    workloads = QUICK_SCHEDULER_WORKLOADS if quick else SCHEDULER_WORKLOADS
    scheduler_workload_rows = []
    for name, scale in workloads.items():
        row = bench_scheduler_workload(name, scale, repeats)
        print(
            f"[bench] scheduler in {name}@{scale} Base "
            f"oracle={row['oracle_us_per_step']}us "
            f"incremental={row['incremental_us_per_step']}us "
            f"speedup={row['speedup']}x",
            flush=True,
        )
        scheduler_workload_rows.append(row)
    workloads = QUICK_FRAMES_WORKLOADS if quick else FRAMES_WORKLOADS
    frames_rows = []
    for name, scale in workloads.items():
        row = bench_frames(name, scale, repeats)
        print(
            f"[bench] frames in {name}@{scale} Base "
            f"{row['us_per_step']}us/step "
            f"frames/step={row['frames_per_step']} "
            f"_Return raises={row['return_raises']}",
            flush=True,
        )
        frames_rows.append(row)
    return {
        "benchmark": "closure-compiled engine vs AST interpreter",
        "baseline": (
            "AST interpreter: per-node dispatch and name resolution on "
            "every execution of every statement"
        ),
        "contender": (
            "closure-threaded code compiled per method body: pure/"
            "generator split at the AST interpreter's exact preemption "
            "points, instrumentation plan fused into the generated "
            "stubs (untraced sites are bare loads/stores, traced sites "
            "closures that finish owned accesses and shared cache hits "
            "inline and call the pre-bound on_access_parts for the "
            "rest); byte-identical event streams asserted before "
            "timing, identical detector reports and counters after"
        ),
        "quick": quick,
        "repeats": repeats,
        "machine": machine_metadata(),
        "rows": rows,
        "scheduler_loop": (
            "Scheduler.run alone over yield-only bodies (scheduler_rows) "
            "and whole compiled Base runs (scheduler_workload_rows), "
            "rebuild-every-step oracle loop vs the incremental loop; "
            "identical decision sequences asserted before timing"
        ),
        "scheduler_rows": scheduler_rows,
        "scheduler_workload_rows": scheduler_workload_rows,
        "frames": (
            "compiled Base runs of the planned (loop-peeled) programs: "
            "us per step from clean timed runs; mean generator frames "
            "on the stepped thread's resume chain after each step and "
            "_Return raises per run from a separate probed run; steps, "
            "output and per-thread steps asserted equal to the AST "
            "engine's"
        ),
        "frames_rows": frames_rows,
    }


# ----------------------------------------------------------------------
# pytest-benchmark coverage of the same arms at smoke scale.

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def tsp_quick():
    return _compile("tsp2", QUICK_SCALES["tsp2"])


class TestEngineParity:
    def test_byte_identical_before_timing(self, tsp_quick):
        resolved, plan = tsp_quick
        shared = assert_engine_parity("tsp2", resolved, plan)
        assert shared["events"] > 0


class TestBaseConfiguration:
    def test_ast_interpreter(self, benchmark, tsp_quick):
        resolved, _ = tsp_quick
        benchmark.group = "compile:base"
        benchmark(
            lambda: engine_class("ast")(resolved, trace_sites=set()).run()
        )

    def test_compiled_engine(self, benchmark, tsp_quick):
        resolved, _ = tsp_quick
        benchmark.group = "compile:base"
        benchmark(
            lambda: engine_class("compiled")(resolved, trace_sites=set()).run()
        )


class TestFullConfiguration:
    def test_ast_interpreter(self, benchmark, tsp_quick):
        resolved, plan = tsp_quick
        benchmark.group = "compile:full"

        def run():
            detector = _detector(resolved, plan)
            engine_class("ast")(
                resolved, sink=detector, trace_sites=plan.trace_sites
            ).run()
            return detector

        detector = benchmark(run)
        assert detector.stats.accesses > 0

    def test_compiled_engine(self, benchmark, tsp_quick):
        resolved, plan = tsp_quick
        benchmark.group = "compile:full"

        def run():
            detector = _detector(resolved, plan)
            engine_class("compiled")(
                resolved, sink=detector, trace_sites=plan.trace_sites
            ).run()
            return detector

        detector = benchmark(run)
        assert detector.stats.accesses > 0
        assert detector.inline_cache_hits > 0


class TestSchedulerLoop:
    def test_identical_decisions_before_timing(self):
        for threads in SCHEDULER_THREADS:
            for policy in SCHEDULER_POLICIES:
                row = bench_scheduler_loop(threads, policy, 3_000, 1)
                assert row["steps"] == 3_000 + threads

    def test_incremental_loop(self, benchmark):
        benchmark.group = "compile:scheduler"
        benchmark(
            lambda: _run_loop(
                Scheduler, SCHEDULER_POLICIES["random(2002)"], 3,
                QUICK_SCHEDULER_STEPS,
            )
        )

    def test_oracle_loop(self, benchmark):
        benchmark.group = "compile:scheduler"
        benchmark(
            lambda: _run_loop(
                OracleScheduler, SCHEDULER_POLICIES["random(2002)"], 3,
                QUICK_SCHEDULER_STEPS,
            )
        )


class TestFrames:
    def test_flat_code_rows(self):
        rows = [
            bench_frames(name, scale, 1)
            for name, scale in QUICK_FRAMES_WORKLOADS.items()
        ]
        for row in rows:
            # No return in these programs sits inside a sync body.
            assert row["return_raises"] == 0
            assert 1 <= row["frames_per_step"] <= 10
            assert row["steps"] > 0 and row["us_per_step"] > 0

    def test_probe_counts_the_resume_chain(self):
        def outer():
            yield
            yield from inner()

        def inner():
            yield

        tally = [0, 0]
        probe = ChainProbe(outer(), tally)
        probe.send(None)
        probe.send(None)
        assert tally == [1 + 2, 2]

    def test_compiled_base_run(self, benchmark):
        resolved, _ = _compile("sor2", QUICK_FRAMES_WORKLOADS["sor2"])
        benchmark.group = "compile:frames"
        benchmark(lambda: _observe_run(resolved))


# ----------------------------------------------------------------------
# Script entry point: (re)generate BENCH_compile.json.


def main(argv=None) -> int:
    parser = runner_parser(
        "Measure the compiled engine vs the AST interpreter.",
        "BENCH_compile.json",
    )
    return run_benchmark_main(parser, generate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
