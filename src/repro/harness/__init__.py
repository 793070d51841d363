"""Experiment harness: named configurations, runners, the report."""

from .runner import (
    CONFIG_BASE,
    CONFIG_FIELDS_MERGED,
    CONFIG_FULL,
    CONFIG_NO_CACHE,
    CONFIG_NO_DOMINATORS,
    CONFIG_NO_OWNERSHIP,
    CONFIG_NO_PEELING,
    CONFIG_NO_STATIC,
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    Configuration,
    RunOutcome,
    overhead_percent,
    run_table2_row,
    run_table3_row,
    run_workload,
)
from .explore import ExplorationResult, explore_schedules
from .report import build_report, write_report

__all__ = [
    "CONFIG_BASE",
    "CONFIG_FIELDS_MERGED",
    "CONFIG_FULL",
    "CONFIG_NO_CACHE",
    "CONFIG_NO_DOMINATORS",
    "CONFIG_NO_OWNERSHIP",
    "CONFIG_NO_PEELING",
    "CONFIG_NO_STATIC",
    "Configuration",
    "ExplorationResult",
    "RunOutcome",
    "TABLE2_CONFIGS",
    "TABLE3_CONFIGS",
    "build_report",
    "explore_schedules",
    "overhead_percent",
    "run_table2_row",
    "run_table3_row",
    "run_workload",
    "write_report",
]
