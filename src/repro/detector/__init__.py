"""The dynamic datarace detector — the paper's core runtime contribution.

Quick use::

    from repro.lang import compile_source
    from repro.runtime import run_program
    from repro.detector import RaceDetector

    resolved = compile_source(source_text)
    detector = RaceDetector(resolved=resolved)
    run_program(resolved, sink=detector)
    for report in detector.reports.reports:
        print(report.describe())
"""

from .cache import AccessCache, CacheStats
from .config import DetectorConfig
from .locksets import LockTracker, join_pseudo_lock
from .ownership import SHARED, OwnershipFilter, OwnershipStats
from .pipeline import LocationRecord, PipelineStats, RaceDetector
from .predict import (
    PREDICTORS,
    HybridPredictor,
    PredictedRace,
    SHBPredictor,
    Witness,
    find_witness,
    make_predictor,
    predict_races,
    replay_witness,
)
from .sharded import (
    ShardedDetectionResult,
    ShardOutcome,
    canonical_report_order,
    detect_sharded,
)
from .reference import RacePair, RecordedAccess, ReferenceDetector
from .report import RaceReport, ReportCollector
from .trie import LockTrie, PriorAccess, TrieNode, TrieStats
from .weaker import (
    THREAD_BOTTOM,
    THREAD_TOP,
    StoredAccess,
    access_leq,
    access_meet,
    is_race,
    thread_leq,
    thread_meet,
    weaker_than,
)

__all__ = [
    "AccessCache",
    "CacheStats",
    "DetectorConfig",
    "HybridPredictor",
    "LocationRecord",
    "LockTracker",
    "LockTrie",
    "PREDICTORS",
    "PredictedRace",
    "SHBPredictor",
    "Witness",
    "OwnershipFilter",
    "OwnershipStats",
    "PipelineStats",
    "PriorAccess",
    "RaceDetector",
    "RacePair",
    "RaceReport",
    "RecordedAccess",
    "ReferenceDetector",
    "ReportCollector",
    "SHARED",
    "ShardOutcome",
    "ShardedDetectionResult",
    "StoredAccess",
    "THREAD_BOTTOM",
    "THREAD_TOP",
    "TrieNode",
    "TrieStats",
    "canonical_report_order",
    "detect_sharded",
    "find_witness",
    "make_predictor",
    "predict_races",
    "replay_witness",
    "access_leq",
    "access_meet",
    "is_race",
    "join_pseudo_lock",
    "thread_leq",
    "thread_meet",
    "weaker_than",
]
