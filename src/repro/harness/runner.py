"""Experiment runner: executes workloads under named configurations.

One :class:`Configuration` bundles a compile-time
:class:`~repro.instrument.planner.PlannerConfig` with a runtime
:class:`~repro.detector.config.DetectorConfig`; the named presets map
to the columns of the paper's Tables 2 and 3:

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


def _full_planner() -> PlannerConfig:
    return PlannerConfig()


#: Table 2 configurations (performance).
CONFIG_BASE = Configuration("Base", planner=None, detector=None)
CONFIG_FULL = Configuration("Full", _full_planner(), DetectorConfig())
CONFIG_NO_STATIC = Configuration(
    "NoStatic", _full_planner().but(static_analysis=False), DetectorConfig()
)
CONFIG_NO_DOMINATORS = Configuration(
    "NoDominators",
    _full_planner().but(static_weaker=False, loop_peeling=False),
    DetectorConfig(),
)
CONFIG_NO_PEELING = Configuration(
    "NoPeeling", _full_planner().but(loop_peeling=False), DetectorConfig()
)
CONFIG_NO_CACHE = Configuration(
    "NoCache", _full_planner(), DetectorConfig(cache=False)
)

#: Table 3 configurations (accuracy).
CONFIG_FIELDS_MERGED = Configuration(
    "FieldsMerged", _full_planner(), DetectorConfig(fields_merged=True)
)
CONFIG_NO_OWNERSHIP = Configuration(
    "NoOwnership", _full_planner(), DetectorConfig(ownership=False)
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


@dataclass
class PostMortemOutcome:
    """One recorded execution analyzed with one shard and sharded."""

    workload: str
    configuration: str
    shards: int
    executor: str
    access_events: int
    replicated_sync_events: int
    races_reported: int
    monitored_locations: int
    trie_nodes: int
    #: True when the sharded run reproduced the one-shard run exactly
    #: (same reports, monitored locations, and trie node totals).
    matches_serial: bool
    sharded: "object" = None


def run_workload_post_mortem(
    spec: WorkloadSpec,
    configuration: Configuration,
    shards: int = 4,
    scale: Optional[int] = None,
    executor: str = "serial",
    policy: Optional[SchedulingPolicy] = None,
    max_steps: int = 50_000_000,
    engine: str = DEFAULT_ENGINE,
) -> PostMortemOutcome:
    """Record one execution, then detect offline with one shard and
    with ``shards``, checking that the two agree.

    ``executor`` is ``"serial"`` or ``"process"``, as for
    :func:`~repro.detector.sharded.detect_sharded`.
    """
    from ..detector.sharded import detect_sharded
    from ..runtime.events import RecordingSink

    if configuration.detector is None:
        raise ValueError("post-mortem detection needs a detector config")
    source = spec.build(scale)
    resolved = compile_source(source, filename=spec.name)
    trace_sites: Optional[set] = set()
    static_races = None
    if configuration.planner is not None:
        plan = plan_instrumentation(resolved, configuration.planner)
        trace_sites = plan.trace_sites
        static_races = plan.static_races

    log = RecordingSink()
    engine_class(engine)(
        resolved,
        sink=log,
        trace_sites=trace_sites,
        policy=policy if policy is not None else RoundRobinPolicy(quantum=10),
        max_steps=max_steps,
    ).run()
    one = detect_sharded(
        log,
        1,
        config=configuration.detector,
        resolved=resolved,
        static_races=static_races,
    )
    sharded = detect_sharded(
        log,
        shards,
        config=configuration.detector,
        resolved=resolved,
        static_races=static_races,
        executor=executor,
        validate=False,  # the one-shard pass above already validated
    )

    matches = (
        sharded.reports.reports == one.reports.reports
        and sharded.monitored_locations == one.monitored_locations
        and sharded.trie_nodes == one.trie_nodes
    )
    return PostMortemOutcome(
        workload=spec.name,
        configuration=configuration.name,
        shards=shards,
        executor=sharded.executor,
        access_events=sharded.partitioned_accesses,
        replicated_sync_events=sharded.replicated_sync_events,
        races_reported=sharded.races,
        monitored_locations=sharded.monitored_locations,
        trie_nodes=sharded.trie_nodes,
        matches_serial=matches,
        sharded=sharded,
    )


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
