"""Post-mortem datarace detection, serial or sharded (Section 1).

    "our approach could be easily modified to perform post-mortem
    datarace detection by creating a log of access events during
    program execution and performing the final datarace detection
    phase off-line."

:func:`detect_sharded` is the one function that detects over a
recorded log; with one shard it is exactly one
:class:`~repro.detector.pipeline.RaceDetector` and one ``replay_into``.

The paper's detector state is *per memory location* — each location has
its own lockset trie, ownership record, and cache slots — so a recorded
event log partitions cleanly: route every access event to the shard
owning its object uid, replicate every synchronization event (monitor
enter/exit, thread start/end/join) to *all* shards, and each shard's
:class:`~repro.detector.pipeline.RaceDetector` sees exactly the
per-thread lockset history it would have seen in a serial run.  N
independent detectors then run with no shared state, and their outputs
merge into a single deterministic report.

Why the result is *identical* to a serial run, for every shard count:

* Locksets are driven only by the replicated sync events, so each
  shard's :class:`LockTracker` state at every access is exact.
* Tries, ownership, and race decisions are keyed per location, and
  every access of one location lands in one shard (routing is by
  object uid, which both normal and ``FieldsMerged`` keying are
  functions of).
* The per-thread caches only ever suppress events that the trie's
  weaker-than check would also have filtered (a cache hit certifies a
  previously recorded access that is weaker than the incoming one, and
  weaker-than is transitive), so cache effects can redistribute events
  between the ``cache_hits`` and ``detector_weaker_filtered`` counters
  but never change trie state, monitored locations, or reported races.

Merged counters therefore obey: ``races``, ``monitored_locations``,
``trie node totals``, ``accesses``, ``owned_filtered`` and
``detector_processed`` are invariant across shard counts, while
``cache_hits + detector_weaker_filtered`` is invariant as a *sum*.

Every log source replays through one spine: a mapped
:class:`~repro.runtime.binlog.BinaryLogReader` and a tuple log (a
:class:`~repro.runtime.events.RecordingSink`, or raw entries wrapped as
one by :func:`~repro.runtime.binlog.log_source`) both offer
``replay_into(sink, shard=-1, shards=1)``, which delivers shard
``shard`` of ``shards``'s stream — its own accesses plus every sync
event.  Every shard runs through one worker, :func:`_detect_shard`:
one detector, one filtered ``replay_into`` (unfiltered with one
shard).  Executors:

* ``"serial"`` — the worker runs in-process, one shard after another,
  on the source that is already open, so only one shard detector is
  alive at a time.  One shard always runs this way, whatever executor
  was asked for, and its result says so.
* ``"process"`` — a process pool runs the same worker, one task per
  shard (real parallelism).  A worker gets a handle it can unpickle —
  the mapped log's path, or the tuple log itself — plus ``(shard,
  shards)``, and replays its own filtered view.  Workers run without
  the resolved program; the parent post-fills site descriptors and
  static-partner lists so the reports are field-for-field identical
  to a serial run's.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from ..lang.resolver import ResolvedProgram
from ..runtime.binlog import BinaryLogReader, LogLike, log_source
from .cache import CacheStats
from .config import DetectorConfig
from .pipeline import PipelineStats, RaceDetector, static_partner_descriptors
from .report import RaceReport, ReportCollector
from .trie import TrieStats

_EXECUTORS = ("serial", "process")


@dataclass
class ShardOutcome:
    """One shard's detection output, compact enough to cross a process
    boundary."""

    shard_index: int
    reports: list[RaceReport]
    stats: PipelineStats
    trie_stats: TrieStats
    cache_stats: Optional[CacheStats]
    monitored_locations: int
    trie_nodes: int
    interned_locksets: int
    access_events: int


def _shard_outcome(shard_index: int, detector: RaceDetector) -> ShardOutcome:
    """Pack one shard detector's final state, identically for every
    executor and log format."""
    return ShardOutcome(
        shard_index=shard_index,
        reports=detector.reports.reports,
        stats=detector.stats,
        trie_stats=detector.trie_stats,
        cache_stats=detector.cache.stats if detector.cache is not None else None,
        monitored_locations=detector.monitored_locations,
        trie_nodes=detector.total_trie_nodes(),
        interned_locksets=detector.locks.interned_locksets,
        access_events=detector.stats.accesses,
    )


def _detect_shard(
    shard_index: int,
    log,
    shards: int,
    config: Optional[DetectorConfig],
) -> ShardOutcome:
    """Run shard ``shard_index`` of ``shards``: the one worker both
    executors use.

    Module-level (picklable).  ``log`` is an open log source (serial)
    or a handle a process-pool worker can unpickle: a mapped log's
    path — the worker opens its own mmap view and decodes only the
    blocks that shard consumes — or a tuple log, filtered as it
    replays.  With one shard the replay takes no filter.  Runs without
    the resolved program; site descriptors are post-filled by the
    parent.
    """
    detector = RaceDetector(config=config)
    # The replay allocates one trie node per new lockset prefix (~150k
    # on a 200k-event log), all live and none in a reference cycle, so
    # the cyclic collector's passes over them find nothing to free.
    # Pause it for the replay; reference counting still frees
    # everything, and the caller's setting comes back even when a
    # damaged log raises mid-replay.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with log_source(log, validate=False) as source:
            if shards == 1:
                source.replay_into(detector)
            else:
                source.replay_into(detector, shard_index, shards)
    finally:
        if collecting:
            gc.enable()
    return _shard_outcome(shard_index, detector)


def canonical_report_order(reports: Sequence[RaceReport]) -> list[RaceReport]:
    """Reports in the canonical cross-shard order: sorted by location
    key (stably, so each location's reports keep their log order).

    Apply to a serial detector's reports before comparing against a
    :class:`ShardedDetectionResult` — a location's reports are ordered
    identically in both, but locations interleave differently.
    """
    return sorted(reports, key=lambda report: str(report.key))


@dataclass
class ShardedDetectionResult:
    """The merged output of a sharded post-mortem run."""

    shards: int
    #: The executor that actually ran: ``"serial"`` for one shard.
    executor: str
    outcomes: list[ShardOutcome]
    #: Merged reports, in :func:`canonical_report_order`.
    reports: ReportCollector
    stats: PipelineStats
    trie_stats: TrieStats
    cache_stats: Optional[CacheStats]
    monitored_locations: int
    trie_nodes: int
    interned_locksets: int
    #: How the log split: accesses partitioned once, syncs copied
    #: to every shard.
    partitioned_accesses: int = 0
    replicated_sync_events: int = 0

    @property
    def races(self) -> int:
        return len(self.reports.reports)

    def shard_summary(self) -> str:
        loads = ", ".join(
            f"shard {outcome.shard_index}: {outcome.access_events}"
            for outcome in self.outcomes
        )
        return (
            f"{self.shards} shards ({self.executor}); access events per "
            f"shard: {loads}; {self.replicated_sync_events} sync events "
            f"replicated to each"
        )


def detect_sharded(
    log: LogLike,
    shards: int,
    config: Optional[DetectorConfig] = None,
    resolved: Optional[ResolvedProgram] = None,
    static_races=None,
    executor: str = "serial",
    validate: bool = True,
) -> ShardedDetectionResult:
    """Run sharded post-mortem detection over a recorded event log.

    ``log`` is anything :func:`~repro.runtime.binlog.log_source`
    accepts: a :class:`~repro.runtime.events.RecordingSink`, a raw list
    of its tuple-encoded entries, a mapped
    :class:`~repro.runtime.binlog.BinaryLogReader`, or a path to an
    on-disk ``MJBL`` log.
    ``executor`` selects how shards run: ``"serial"`` or
    ``"process"``; one shard always runs in-process, and the result
    records ``"serial"``.  The merged result is identical (races,
    monitored locations, trie node totals) to the one-shard run, for
    every shard count, executor, and log source.

    Validation happens exactly once per log.  Tuple logs: ``validate``
    (default on) schema-checks before any replay, so malformed entries
    fail with a clear :class:`~repro.runtime.events.LogSchemaError`
    rather than misdecoding inside a shard worker; callers holding a
    log they already validated (or recorded in-process this run) pass
    ``validate=False``.  Binary logs were validated structurally when
    the reader opened — no O(n) pre-scan happens here, and shard
    workers map only the byte ranges their partition consumes.
    """
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {_EXECUTORS}")
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shards == 1:
        executor = "serial"
    with log_source(log, validate) as source:
        if executor == "serial":
            outcomes = [
                _detect_shard(index, source, shards, config)
                for index in range(shards)
            ]
        else:
            # What a worker can unpickle: the mapped log's path, or the
            # resident tuple log itself.  One worker process per shard.
            handle = source.path if isinstance(source, BinaryLogReader) else source
            with ProcessPoolExecutor(shards) as pool:
                futures = [
                    pool.submit(_detect_shard, index, handle, shards, config)
                    for index in range(shards)
                ]
                outcomes = [future.result() for future in futures]
        accesses, syncs = source.access_count, source.sync_count
    return _merge_outcomes(
        outcomes, shards, executor, resolved, static_races, accesses, syncs
    )


def _merge_outcomes(
    outcomes: list[ShardOutcome],
    shards: int,
    executor: str,
    resolved: Optional[ResolvedProgram],
    static_races,
    accesses: int,
    syncs: int,
) -> ShardedDetectionResult:
    """Deterministic merge of per-shard outcomes into one result —
    the same for every executor and log format, so all produce
    byte-identical reports and counters."""
    outcomes.sort(key=lambda outcome: outcome.shard_index)

    # Post-fill source context: shard workers run without the resolved
    # program, so reports come back with empty descriptors regardless of
    # executor; filling here keeps both executors byte-identical.
    if resolved is not None:
        for outcome in outcomes:
            for report in outcome.reports:
                site_id = report.current.site_id
                if site_id in resolved.sites:
                    report.site_descriptor = resolved.sites[site_id].descriptor
                report.static_partners = static_partner_descriptors(
                    resolved, static_races, site_id
                )

    merged_reports = ReportCollector()
    for report in canonical_report_order(
        [report for outcome in outcomes for report in outcome.reports]
    ):
        merged_reports.add(report)

    stats = PipelineStats()
    trie_stats = TrieStats()
    cache_stats: Optional[CacheStats] = None
    monitored = 0
    nodes = 0
    locksets = 0
    for outcome in outcomes:
        stats.merge(outcome.stats)
        trie_stats.merge(outcome.trie_stats)
        if outcome.cache_stats is not None:
            if cache_stats is None:
                cache_stats = CacheStats()
            cache_stats.merge(outcome.cache_stats)
        monitored += outcome.monitored_locations
        nodes += outcome.trie_nodes
        locksets = max(locksets, outcome.interned_locksets)

    return ShardedDetectionResult(
        shards=shards,
        executor=executor,
        outcomes=outcomes,
        reports=merged_reports,
        stats=stats,
        trie_stats=trie_stats,
        cache_stats=cache_stats,
        monitored_locations=monitored,
        trie_nodes=nodes,
        interned_locksets=locksets,
        partitioned_accesses=accesses,
        replicated_sync_events=syncs,
    )

