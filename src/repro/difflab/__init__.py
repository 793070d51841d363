"""Differential race-oracle lab with automatic counterexample shrinking.

See :mod:`repro.difflab.expectations` for the declarative matrix,
:mod:`repro.difflab.lab` for the campaign driver, and
``docs/difflab.md`` for the triage guide.
"""

from .corpus import (
    DEFAULT_CORPUS,
    CorpusEntry,
    check_witness,
    load_corpus,
    save_entry,
    verify_corpus,
    verify_entry,
)
from .expectations import (
    EXPECTED,
    MATRIX,
    VIOLATION,
    Discrepancy,
    Expectation,
    classify_case,
    expected_classes,
    violation_classes,
)
from .inject import INJECTIONS
from .lab import (
    CampaignResult,
    CaseResult,
    Find,
    Violation,
    case_classes,
    class_items,
    fingerprint,
    run_campaign,
    run_case,
    shrink_case,
    synthesize_witness,
)
from .shrink import (
    ShrinkResult,
    ShrinkStats,
    count_statements,
    lock_order_ascending,
    shrink_program,
    shrink_schedule,
    validate_structure,
)
from .verdicts import (
    DEFAULT_SHARDS,
    CaseRun,
    EngineDivergence,
    ScheduleSpec,
    Verdict,
    compute_verdicts,
    execute_case,
)

__all__ = [
    "DEFAULT_CORPUS",
    "DEFAULT_SHARDS",
    "CampaignResult",
    "CaseResult",
    "CaseRun",
    "CorpusEntry",
    "Discrepancy",
    "EXPECTED",
    "EngineDivergence",
    "Expectation",
    "Find",
    "INJECTIONS",
    "MATRIX",
    "ScheduleSpec",
    "ShrinkResult",
    "ShrinkStats",
    "Verdict",
    "VIOLATION",
    "Violation",
    "case_classes",
    "check_witness",
    "class_items",
    "classify_case",
    "compute_verdicts",
    "count_statements",
    "execute_case",
    "expected_classes",
    "fingerprint",
    "load_corpus",
    "lock_order_ascending",
    "run_campaign",
    "run_case",
    "save_entry",
    "shrink_case",
    "shrink_program",
    "shrink_schedule",
    "synthesize_witness",
    "validate_structure",
    "verify_corpus",
    "verify_entry",
    "violation_classes",
]
