"""Static analyses: IR, CFG, dominators, SSA, value numbering, points-to,
ICG, single-instance, escape, and the static datarace set (Section 5)."""

from . import ir
from .cfg import FlowGraph
from .dataflow import TOP, DataflowProblem, meet_intersection, solve_forward
from .dominators import DominatorInfo
from .escape import EscapeAnalysis, EscapeInfo, analyze_escape
from .icfg import ICG, ICGBuilder, build_icg, method_node, sync_node
from .immutability import (
    ImmutabilityAnalysis,
    ImmutabilityInfo,
    analyze_immutability,
)
from .lower import Lowerer, lower_program
from .pointsto import (
    MAIN_THREAD,
    AbstractObject,
    CallEdge,
    ObjectCategory,
    PointsToAnalysis,
    PointsToResult,
    SiteBase,
    StartEdge,
    analyze_points_to,
    field_node,
    local_node,
    ret_node,
    static_node,
)
from .raceset import (
    StaticRaceAnalysis,
    StaticRaceSet,
    StaticRaceStats,
    analyze_static_races,
)
from .single_instance import (
    Multiplicity,
    SingleInstanceInfo,
    analyze_single_instance,
)
from .ssa import UNDEF, SSABuilder, build_ssa
from .valnum import ValueNumbering, value_numbering

__all__ = [
    "AbstractObject",
    "CallEdge",
    "DataflowProblem",
    "DominatorInfo",
    "EscapeAnalysis",
    "EscapeInfo",
    "FlowGraph",
    "ICG",
    "ICGBuilder",
    "ImmutabilityAnalysis",
    "ImmutabilityInfo",
    "Lowerer",
    "MAIN_THREAD",
    "Multiplicity",
    "ObjectCategory",
    "PointsToAnalysis",
    "PointsToResult",
    "SSABuilder",
    "SingleInstanceInfo",
    "SiteBase",
    "StartEdge",
    "StaticRaceAnalysis",
    "StaticRaceSet",
    "StaticRaceStats",
    "TOP",
    "UNDEF",
    "ValueNumbering",
    "analyze_escape",
    "analyze_immutability",
    "analyze_points_to",
    "analyze_single_instance",
    "analyze_static_races",
    "build_icg",
    "build_ssa",
    "field_node",
    "ir",
    "local_node",
    "lower_program",
    "meet_intersection",
    "method_node",
    "ret_node",
    "solve_forward",
    "static_node",
    "sync_node",
    "value_numbering",
]
