"""Experiment runner: executes workloads under named configurations.

One :class:`Configuration` bundles a compile-time
:class:`~repro.instrument.planner.PlannerConfig` with a runtime
:class:`~repro.detector.config.DetectorConfig`; the named presets are
the one definition of the columns of the paper's Tables 2 and 3:

============== ============================ =========================
name           compile-time                 runtime
============== ============================ =========================
Base           no instrumentation at all    no detector
Full           static + weaker + peeling    ownership + cache + trie
NoStatic       every site instrumented      Full runtime
NoDominators   static only (no weaker/peel) Full runtime
NoPeeling      static + weaker, no peeling  Full runtime
NoCache        Full compile-time            cache disabled
FieldsMerged   Full compile-time            object-granularity keys
NoOwnership    Full compile-time            ownership disabled
============== ============================ =========================

Each run compiles the workload source fresh (the planner transforms the
AST in place), plans instrumentation, attaches the detector, executes
under a deterministic scheduler, and reports wall-clock time together
with the platform-independent counters the reproduction relies on
(events emitted, cache hits, trie work, races found).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..detector.config import DetectorConfig
from ..detector.pipeline import RaceDetector
from ..instrument.planner import PlannerConfig, plan_instrumentation
from ..lang.resolver import compile_source
from ..runtime import DEFAULT_ENGINE, engine_class
from ..runtime.scheduler import RoundRobinPolicy, SchedulingPolicy
from ..workloads.base import WorkloadSpec


@dataclass(frozen=True)
class Configuration:
    """A named experiment configuration."""

    name: str
    #: None = no instrumentation (the Base configuration).
    planner: Optional[PlannerConfig]
    #: None = no detector attached.
    detector: Optional[DetectorConfig]


#: Table 2 configurations (performance).
CONFIG_BASE = Configuration("Base", planner=None, detector=None)
CONFIG_FULL = Configuration("Full", PlannerConfig(), DetectorConfig())
CONFIG_NO_STATIC = Configuration(
    "NoStatic", PlannerConfig().but(static_analysis=False), DetectorConfig()
)
#: Disabling the weaker-than check also disables peeling (the paper
#: notes peeling "is useless without that check").
CONFIG_NO_DOMINATORS = Configuration(
    "NoDominators",
    PlannerConfig().but(static_weaker=False, loop_peeling=False),
    DetectorConfig(),
)
CONFIG_NO_PEELING = Configuration(
    "NoPeeling", PlannerConfig().but(loop_peeling=False), DetectorConfig()
)
CONFIG_NO_CACHE = Configuration(
    "NoCache", PlannerConfig(), DetectorConfig(cache=False)
)

#: Table 3 configurations (accuracy).
CONFIG_FIELDS_MERGED = Configuration(
    "FieldsMerged", PlannerConfig(), DetectorConfig(fields_merged=True)
)
CONFIG_NO_OWNERSHIP = Configuration(
    "NoOwnership", PlannerConfig(), DetectorConfig(ownership=False)
)

TABLE2_CONFIGS = [
    CONFIG_BASE,
    CONFIG_FULL,
    CONFIG_NO_STATIC,
    CONFIG_NO_DOMINATORS,
    CONFIG_NO_PEELING,
    CONFIG_NO_CACHE,
]

TABLE3_CONFIGS = [CONFIG_FULL, CONFIG_FIELDS_MERGED, CONFIG_NO_OWNERSHIP]


@dataclass
class RunOutcome:
    """Everything measured in one execution."""

    workload: str
    configuration: str
    wall_seconds: float
    steps: int
    threads: int
    output: list[str]
    #: Sites actually instrumented (0 for Base).
    sites_instrumented: int
    #: Access events emitted to the detector.
    events: int
    races_reported: int
    racy_objects: frozenset
    racy_object_count: int
    cache_hits: int = 0
    cache_hit_rate: float = 0.0
    owned_filtered: int = 0
    weaker_filtered: int = 0
    trie_nodes: int = 0
    monitored_locations: int = 0
    detector: Optional[RaceDetector] = None


def run_workload(
    spec: WorkloadSpec,
    configuration: Configuration,
    scale: Optional[int] = None,
    policy: Optional[SchedulingPolicy] = None,
    max_steps: int = 50_000_000,
    engine: str = DEFAULT_ENGINE,
) -> RunOutcome:
    """Compile, plan, execute, and measure one workload/config pair.

    Compilation and planning happen *outside* the timed region — the
    paper measures runtime overhead of the instrumented executable, not
    compile time.  Engine construction is likewise outside: for the
    compiled engine it includes code generation, which is compile
    time by the same argument.
    """
    source = spec.build(scale)
    resolved = compile_source(source, filename=spec.name)

    trace_sites: Optional[set] = set()
    detector: Optional[RaceDetector] = None
    sites_instrumented = 0
    static_races = None
    if configuration.planner is not None:
        plan = plan_instrumentation(resolved, configuration.planner)
        trace_sites = plan.trace_sites
        sites_instrumented = len(trace_sites)
        static_races = plan.static_races
    if configuration.detector is not None:
        detector = RaceDetector(
            config=configuration.detector,
            resolved=resolved,
            static_races=static_races,
        )

    chosen_policy = policy if policy is not None else RoundRobinPolicy(quantum=10)
    runner = engine_class(engine)(
        resolved,
        sink=detector,
        trace_sites=trace_sites,
        policy=chosen_policy,
        max_steps=max_steps,
    )
    started = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - started

    outcome = RunOutcome(
        workload=spec.name,
        configuration=configuration.name,
        wall_seconds=elapsed,
        steps=result.steps,
        threads=result.threads_created,
        output=result.output,
        sites_instrumented=sites_instrumented,
        events=result.accesses_emitted,
        races_reported=0,
        racy_objects=frozenset(),
        racy_object_count=0,
        detector=detector,
    )
    if detector is not None:
        outcome.races_reported = detector.stats.races_reported
        outcome.racy_objects = frozenset(detector.reports.racy_objects)
        outcome.racy_object_count = detector.reports.object_count
        outcome.cache_hits = detector.cache.stats.hits if detector.cache else 0
        outcome.cache_hit_rate = (
            detector.cache.stats.hit_rate if detector.cache else 0.0
        )
        outcome.owned_filtered = detector.stats.owned_filtered
        outcome.weaker_filtered = detector.stats.detector_weaker_filtered
        outcome.trie_nodes = detector.total_trie_nodes()
        outcome.monitored_locations = detector.monitored_locations
    return outcome


def run_table2_row(
    spec: WorkloadSpec,
    scale: Optional[int] = None,
    repeats: int = 3,
    configs=None,
    engine: str = DEFAULT_ENGINE,
) -> dict[str, RunOutcome]:
    """Run every Table 2 configuration; keeps the best of ``repeats``
    runs per configuration, as the paper does ("the best-performing
    run" of five)."""
    results: dict[str, RunOutcome] = {}
    for config in configs if configs is not None else TABLE2_CONFIGS:
        best: Optional[RunOutcome] = None
        for _ in range(repeats):
            outcome = run_workload(spec, config, scale=scale, engine=engine)
            if best is None or outcome.wall_seconds < best.wall_seconds:
                best = outcome
        results[config.name] = best
    return results


def run_table3_row(
    spec: WorkloadSpec,
    scale: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> dict[str, RunOutcome]:
    """Run the Table 3 accuracy configurations once each."""
    return {
        config.name: run_workload(spec, config, scale=scale, engine=engine)
        for config in TABLE3_CONFIGS
    }


def overhead_percent(base: RunOutcome, instrumented: RunOutcome) -> float:
    """Overhead relative to the Base run, as Table 2 reports it."""
    if base.wall_seconds <= 0:
        return 0.0
    return (instrumented.wall_seconds / base.wall_seconds - 1.0) * 100.0
