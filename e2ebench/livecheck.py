"""The live workloads: ``repro check PROGRAM --engine compiled --seed N``.

Set-up is what ``check`` does before the program runs: compile the
source, plan instrumentation (the Full plan), and construct the
compiled engine with a Full detector attached.  One check is one
``runner.run()``.  The scheduler is ``RandomPolicy(seed)``.
"""

from __future__ import annotations

import statistics
import time

from common import Clock, summarize, traced
from ladder import climb, layer_metrics, rung_sink
from sinks import report_hash

from repro.detector import RaceDetector
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import RandomPolicy, engine_class
from repro.workloads import ALL_WORKLOADS

#: workload -> (program, scale, quick scale).  The scales keep one
#: check near half a second on the reference machine, so a run holds
#: enough checks for a steady median and the AST oracle stays cheap;
#: each keeps its program's profile (tsp2: ~99% of accesses end as
#: cache hits; sor2: ~230k interpreter steps, ~1.4k traced accesses).
PROGRAMS = {
    "live-tsp2": ("tsp2", 28, 10),
    "live-sor2": ("sor2", 48, 12),
}
SETUP_REPEATS = 9
MIN_CHECKS = 3


def program_source(program: str, scale: int):
    """``(filename, source)`` for a workload program at ``scale``."""
    return f"{program}.mj", ALL_WORKLOADS[program].build(scale)


def plan_program(filename: str, source: str):
    resolved = compile_source(source, filename=filename)
    return resolved, plan_instrumentation(resolved, PlannerConfig())


def make_check(resolved, plan, seed: int, engine: str = "compiled", sink=None):
    """An engine ready to run one check, and the sink it feeds."""
    if sink is None:
        sink = RaceDetector(resolved=resolved, static_races=plan.static_races)
    runner = engine_class(engine)(
        resolved,
        sink=sink,
        trace_sites=plan.trace_sites,
        policy=RandomPolicy(seed),
    )
    return runner, sink


def check_hash(detector, result) -> str:
    return report_hash(
        detector.reports.reports, detector.stats, detector.cache.stats,
        result.output,
    )


def timed(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The timed part, run alone in a fresh interpreter."""
    program, scale, quick_scale = PROGRAMS[workload]
    filename, source = program_source(program, quick_scale if quick else scale)
    clock = Clock()

    def set_up():
        resolved, plan = plan_program(filename, source)
        make_check(resolved, plan, seed)
        return resolved, plan

    setups = []
    for _ in range(SETUP_REPEATS):
        (resolved, plan), _, scaled = clock.time(set_up)
        setups.append(scaled)

    checks, walls, loop, hashes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(checks) < MIN_CHECKS or time.perf_counter() < deadline:
        (runner, detector), _, built = clock.time(
            lambda: make_check(resolved, plan, seed)
        )
        result, wall, ran = clock.time(runner.run)
        checks.append(ran)
        walls.append(wall)
        loop.append(built + ran)
        hashes.append(check_hash(detector, result))
    return {
        "setup_s": setups,
        "op_s": checks,
        "op_wall_s": walls,
        "ops_per_s": [1 / seconds for seconds in loop],
        "hashes": hashes,
        "extras": {"events": result.accesses_emitted, "steps": result.steps},
    }


def oracle_hash(workload: str, seed: int, quick: bool) -> str:
    """The AST interpreter's report for the same program and schedule."""
    program, scale, quick_scale = PROGRAMS[workload]
    resolved, plan = plan_program(
        *program_source(program, quick_scale if quick else scale)
    )
    runner, detector = make_check(resolved, plan, seed, engine="ast")
    return check_hash(detector, runner.run())


def program_ladder(filename: str, source: str, seed: int, clock, tracer) -> dict:
    """Set-up layers, the Base rung, the detector ladder, and three
    traced and three untraced Full checks, all on one program and
    schedule.  Every report a Full detector produced is in ``hashes``."""
    layers = {"compile": [], "plan": [], "build": []}
    for index in range(3):
        op = f"setup#{index}"
        resolved, _, scaled = clock.time(lambda: traced(
            tracer, "lang.compile_source", op,
            lambda: compile_source(source, filename=filename),
        ))
        layers["compile"].append(scaled)
        plan, _, scaled = clock.time(lambda: traced(
            tracer, "instrument.plan_instrumentation", op,
            lambda: plan_instrumentation(resolved, PlannerConfig()),
        ))
        layers["plan"].append(scaled)
        _, _, scaled = clock.time(lambda: traced(
            tracer, "engine.build", op,
            lambda: make_check(resolved, plan, seed),
        ))
        layers["build"].append(scaled)

    base = []
    for index in range(3):
        runner = engine_class("compiled")(
            resolved, sink=None, trace_sites=set(), policy=RandomPolicy(seed)
        )
        result, _, scaled = clock.time(lambda: traced(
            tracer, "ladder.run", f"base#{index}", runner.run
        ))
        base.append(scaled)
    steps = result.steps

    def prepare(rung, op):
        with tracer.span("engine.build", op):
            sink = rung_sink(
                rung, resolved=resolved, static_races=plan.static_races
            )
            runner, _ = make_check(resolved, plan, seed, sink=sink)
        return runner.run, sink

    ladder = climb(clock, tracer, prepare)
    full_result = ladder["full_value"]
    hashes = [check_hash(ladder["full_sink"], full_result)]
    checks, untraced = [], []
    for index in range(3):
        runner, detector = make_check(resolved, plan, seed)
        result, _, scaled = clock.time(lambda: traced(
            tracer, "runtime.run", f"check#{index}", runner.run
        ))
        checks.append(scaled)
        hashes.append(check_hash(detector, result))
        runner, detector = make_check(resolved, plan, seed)
        result, _, scaled = clock.time(runner.run)
        untraced.append(scaled)
        hashes.append(check_hash(detector, result))
    ladder.update(
        hashes=hashes,
        traced_check=statistics.median(checks),
        untraced_check=statistics.median(untraced),
        extras={
            "lang.compile_s": statistics.median(layers["compile"]),
            "instrument.plan_s": statistics.median(layers["plan"]),
            "instrument.sites_total": plan.stats.sites_total,
            "instrument.sites_traced": len(plan.trace_sites),
            "engine.build_s": statistics.median(layers["build"]),
            "interpret.base_s": statistics.median(base),
            "interpret.steps_per_s": steps / statistics.median(base),
            "emit.s": ladder["rungs"]["null"] - statistics.median(base),
            "emit.events": full_result.accesses_emitted,
        },
    )
    return ladder


def trace(workload: str, seed: int, quick: bool, clock, tracer) -> dict:
    """Per-layer numbers, every report checked against the AST oracle."""
    program, scale, quick_scale = PROGRAMS[workload]
    filename, source = program_source(program, quick_scale if quick else scale)
    ladder = program_ladder(filename, source, seed, clock, tracer)
    expected = oracle_hash(workload, seed, quick)
    return {
        "per_layer": layer_metrics([(1, ladder)]),
        "extras": ladder["extras"],
        "traced_check": ladder["traced_check"],
        "untraced_check": ladder["untraced_check"],
        "attempted": len(ladder["hashes"]),
        "failed": sum(digest != expected for digest in ladder["hashes"]),
    }


def metrics(answer: dict) -> dict:
    """End-to-end metric summaries from a :func:`timed` answer."""
    return {
        "setup_s": summarize(answer["setup_s"]),
        "p50_ms": summarize([value * 1000 for value in answer["op_s"]]),
        "ops_per_s": summarize(answer["ops_per_s"]),
    }
