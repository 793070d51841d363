"""The instrumentation planner — Figure 1's second phase.

Combines the optional static datarace analysis (Section 5), the loop
peeling transformation (Section 6.3), and the static weaker-than
elimination (Section 6.1) into an :class:`InstrumentationPlan`: the
(possibly transformed) program plus the set of access sites that emit
events at runtime.

The planner *transforms the resolved program in place* (loop peeling
rewrites method bodies); callers comparing several configurations
should compile the source once per configuration — the experiment
harness does exactly that.

Configuration flags map to Table 2's columns:

=================  ===========================================
``NoStatic``       ``static_analysis=False`` (every site racy)
``NoDominators``   ``static_weaker=False`` (implies no peeling,
                   which is useless without the elimination)
``NoPeeling``      ``loop_peeling=False``
``Base``           no plan at all: the interpreter runs with an
                   empty trace set and no detector attached
=================  ===========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..analysis.lower import lower_program
from ..analysis.raceset import StaticRaceSet, analyze_static_races
from ..lang.resolver import ResolvedProgram
from .loop_peeling import peel_loops
from .static_weaker import eliminate_redundant_traces


@dataclass(frozen=True)
class PlannerConfig:
    """Which compile-time phases run (Table 2's static dimensions)."""

    static_analysis: bool = True
    static_weaker: bool = True
    loop_peeling: bool = True
    #: Opt-in Section 10 extension: prune accesses to construction-
    #: immutable fields from the static datarace set.
    immutability_analysis: bool = False

    def but(self, **changes) -> "PlannerConfig":
        return replace(self, **changes)


@dataclass
class PlanStats:
    sites_total: int = 0
    sites_after_static: int = 0
    sites_cloned_by_peeling: int = 0
    loops_peeled: int = 0
    sites_eliminated_weaker: int = 0
    sites_instrumented: int = 0


@dataclass
class InstrumentationPlan:
    """The planner's product: what to trace, and why."""

    resolved: ResolvedProgram
    trace_sites: set[int]
    config: PlannerConfig
    stats: PlanStats
    static_races: Optional[StaticRaceSet] = None
    #: site_id -> justifying weaker site (for tooling/tests).
    eliminations: dict[int, int] = field(default_factory=dict)


def plan_instrumentation(
    resolved: ResolvedProgram, config: Optional[PlannerConfig] = None
) -> InstrumentationPlan:
    """Run the compile-time phases and produce the instrumentation plan.

    Mutates ``resolved`` when loop peeling is enabled.
    """
    if config is None:
        config = PlannerConfig()
    stats = PlanStats(sites_total=len(resolved.sites))

    # Phase 1: static datarace analysis (on the untransformed program).
    static_races: Optional[StaticRaceSet] = None
    if config.static_analysis:
        static_races = analyze_static_races(
            resolved, immutability=config.immutability_analysis
        )
        racy_origins = set(static_races.racy_sites)
    else:
        racy_origins = set(resolved.sites)

    # Phase 2: loop peeling (clones carry their origin site ids, so the
    # static race facts transfer).
    if config.loop_peeling and config.static_weaker:
        peeling = peel_loops(resolved)
        stats.loops_peeled = peeling.loops_peeled
        stats.sites_cloned_by_peeling = peeling.sites_cloned

    # The candidate trace set after the static phase: every (possibly
    # cloned) site whose origin the static analysis kept.
    candidates = {
        site_id
        for site_id in resolved.sites
        if resolved.origin_of(site_id) in racy_origins
    }
    stats.sites_after_static = len(candidates)

    # Phase 3: static weaker-than elimination, per method.
    eliminations: dict[int, int] = {}
    if config.static_weaker:
        functions = lower_program(resolved)
        for function in functions.values():
            result = eliminate_redundant_traces(function, traced_sites=candidates)
            eliminations.update(result.justification)
        candidates -= set(eliminations)
    stats.sites_eliminated_weaker = len(eliminations)
    stats.sites_instrumented = len(candidates)

    return InstrumentationPlan(
        resolved=resolved,
        trace_sites=candidates,
        config=config,
        stats=stats,
        static_races=static_races,
        eliminations=eliminations,
    )
