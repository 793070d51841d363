"""Compile-time instrumentation optimization (Section 6)."""

from .loop_peeling import LoopPeeler, PeelingStats, peel_loops
from .planner import (
    InstrumentationPlan,
    PlannerConfig,
    PlanStats,
    plan_instrumentation,
)
from .static_weaker import (
    EliminationResult,
    StaticWeakerAnalysis,
    eliminate_redundant_traces,
)

__all__ = [
    "EliminationResult",
    "InstrumentationPlan",
    "LoopPeeler",
    "PeelingStats",
    "PlanStats",
    "PlannerConfig",
    "StaticWeakerAnalysis",
    "eliminate_redundant_traces",
    "peel_loops",
    "plan_instrumentation",
]
