"""Post-mortem datarace detection (Section 1's alternative mode).

    "our approach could be easily modified to perform post-mortem
    datarace detection by creating a log of access events during
    program execution and performing the final datarace detection
    phase off-line."

The moving parts already exist — :class:`~repro.runtime.events.
RecordingSink` logs the stream, every detector is an
:class:`~repro.runtime.events.EventSink` — so this module is the thin
workflow layer: run once while logging, then analyze the log offline
with any combination of detectors (including the quadratic FullRace
oracle, which is exactly what one defers to post-mortem time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.resolver import ResolvedProgram
from ..runtime.binlog import LogLike, log_source
from ..runtime.events import RecordingSink
from ..runtime.interpreter import RunResult, run_program
from .config import DetectorConfig
from .pipeline import RaceDetector
from .reference import ReferenceDetector


@dataclass
class PostMortemResult:
    """Everything the offline phase produced."""

    run: RunResult
    log: RecordingSink
    detector: RaceDetector
    #: The full pair enumeration, when requested (None otherwise).
    full_race: Optional[list] = None

    @property
    def reports(self):
        return self.detector.reports.reports


def record_execution(
    resolved: ResolvedProgram,
    trace_sites: Optional[set] = None,
    policy=None,
    max_steps: int = 10_000_000,
) -> tuple[RunResult, RecordingSink]:
    """Phase 1: execute once, logging the full event stream."""
    log = RecordingSink()
    result = run_program(
        resolved,
        sink=log,
        trace_sites=trace_sites,
        policy=policy,
        max_steps=max_steps,
    )
    return result, log


def detect_from_log(
    log: LogLike,
    config: Optional[DetectorConfig] = None,
    resolved: Optional[ResolvedProgram] = None,
    static_races=None,
    enumerate_full_race: bool = False,
    validate: bool = True,
) -> tuple[RaceDetector, Optional[list]]:
    """Phase 2: run the detector (and optionally the FullRace oracle)
    over a recorded log.

    ``log`` is a :class:`~repro.runtime.events.RecordingSink`, a raw
    list of its tuple-encoded entries (e.g. the output of
    :func:`~repro.runtime.events.load_log`), a mapped
    :class:`~repro.runtime.binlog.BinaryLogReader`, or a path to an
    on-disk log of either format (auto-detected by magic bytes); each
    replays through the source's ``replay_into``.

    Validation happens exactly once per log: for tuple logs,
    ``validate`` (default on) checks the current tuple schema first, so
    a stale or corrupted log fails with a
    :class:`~repro.runtime.events.LogSchemaError` instead of being
    misdecoded; binary logs were already validated structurally when
    the reader opened, so no O(n) pre-scan runs here.
    """
    with log_source(log, validate) as source:
        detector = RaceDetector(
            config=config, resolved=resolved, static_races=static_races
        )
        source.replay_into(detector)
        pairs: Optional[list] = None
        if enumerate_full_race:
            oracle = ReferenceDetector(config)
            source.replay_into(oracle)
            pairs = oracle.full_race
    return detector, pairs


def detect_post_mortem(
    resolved: ResolvedProgram,
    config: Optional[DetectorConfig] = None,
    trace_sites: Optional[set] = None,
    policy=None,
    enumerate_full_race: bool = False,
    max_steps: int = 10_000_000,
) -> PostMortemResult:
    """The whole workflow: record, then detect offline."""
    run, log = record_execution(
        resolved, trace_sites=trace_sites, policy=policy, max_steps=max_steps
    )
    detector, pairs = detect_from_log(
        log,
        config=config,
        resolved=resolved,
        enumerate_full_race=enumerate_full_race,
    )
    return PostMortemResult(run=run, log=log, detector=detector, full_race=pairs)
