"""Sharded parallel post-mortem detection.

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

Executors: ``"serial"`` (in-process loop; mapped logs decode once,
multiplexed across all shard detectors), ``"thread"`` (thread pool;
modest wins, the GIL serializes the hot path), and ``"process"``
(process pool; real parallelism — the compact tuple-encoded log entries
are cheap to pickle).  Process workers run without the resolved program;
the parent post-fills site descriptors and static-partner lists so the
reports are field-for-field identical to a serial run's.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..lang.resolver import ResolvedProgram
from ..runtime.binlog import BinaryLogReader, open_log
from ..runtime.events import RecordingSink, replay_entries, validate_entries
from .cache import CacheStats
from .config import DetectorConfig
from .pipeline import PipelineStats, RaceDetector, static_partner_descriptors
from .report import RaceReport, ReportCollector
from .trie import TrieStats

_EXECUTORS = ("serial", "thread", "process")


def partition_log(
    entries: Sequence[tuple], shards: int
) -> tuple[list[list[tuple]], int, int]:
    """Split a recorded event log into per-shard event streams.

    Access events are routed by ``object_uid % shards`` (all detector
    keys are functions of the uid, so every location's history lands in
    exactly one shard); synchronization events are replicated to every
    shard so each shard's lockset tracking is exact.

    Returns ``(shard_entries, access_events, sync_events)``.
    """
    if shards < 1:
        raise ValueError("shard count must be positive")
    access = RecordingSink.ACCESS
    shard_entries: list[list[tuple]] = [[] for _ in range(shards)]
    accesses = 0
    syncs = 0
    for entry in entries:
        if entry[0] == access:
            accesses += 1
            shard_entries[entry[1] % shards].append(entry)
        else:
            syncs += 1
            for stream in shard_entries:
                stream.append(entry)
    return shard_entries, accesses, syncs


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
    shard_index: int, entries: list[tuple], config: Optional[DetectorConfig]
) -> ShardOutcome:
    """Run one shard's detector over its partition of the log.

    Module-level (picklable) so it can be submitted to a process pool.
    Runs without the resolved program — site descriptors are post-filled
    by the parent — so only the config and the compact log entries cross
    the process boundary.
    """
    detector = RaceDetector(config=config)
    replay_entries(entries, detector)
    return _shard_outcome(shard_index, detector)


def _detect_shard_mapped(
    shard_index: int,
    path,
    shards: int,
    config: Optional[DetectorConfig],
) -> ShardOutcome:
    """Run one shard's detector over a *mapped* binary log.

    Module-level and picklable: only ``(path, shard, shards, config)``
    cross a process boundary — each worker opens its own mmap view and
    decodes batched, so no shard's event stream is ever materialized or
    pickled.  The shard index confines decoding to the byte ranges this
    shard consumes (its uid partition plus replicated sync blocks), and
    :meth:`~repro.runtime.binlog.BinaryLogReader.replay_into` feeds the
    detector columnar — whole record runs per ``iter_unpack`` sweep,
    no intermediate schema-v3 tuples.
    """
    detector = RaceDetector(config=config)
    with BinaryLogReader(path) as reader:
        reader.replay_into(detector, shard_index, shards)
    return _shard_outcome(shard_index, detector)


def _detect_shards_mapped_multiplexed(
    reader: BinaryLogReader, shards: int, config: Optional[DetectorConfig]
) -> list[ShardOutcome]:
    """All shards in one decode pass, through the already-open reader.

    The serial mapped executor's decode amplification fix: instead of N
    passes over the file (each inflating and unpacking every
    sync-bearing block to keep just its own uid partition),
    :meth:`~repro.runtime.binlog.BinaryLogReader.replay_sharded_into`
    decodes the file *once* and dispatches each access to the shard
    owning its uid straight from the unpack loop, broadcasting every
    sync event.  Each shard detector receives exactly the stream its
    own filtered pass would have delivered, in the same order, so the
    merged result is byte-identical; only the decode cost changes.
    """
    detectors = [RaceDetector(config=config) for _ in range(shards)]
    reader.replay_sharded_into(detectors)
    return [
        _shard_outcome(index, detector)
        for index, detector in enumerate(detectors)
    ]


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
    log,
    shards: int,
    config: Optional[DetectorConfig] = None,
    resolved: Optional[ResolvedProgram] = None,
    static_races=None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    validate: bool = True,
) -> ShardedDetectionResult:
    """Run sharded post-mortem detection over a recorded event log.

    ``log`` is a :class:`~repro.runtime.events.RecordingSink`, a raw
    list of its tuple-encoded entries, a mapped
    :class:`~repro.runtime.binlog.BinaryLogReader`, or a path to an
    on-disk log of either format (auto-detected by magic bytes).
    ``executor`` selects how shards run: ``"serial"``, ``"thread"``, or
    ``"process"``.  The merged result is identical (races, monitored
    locations, trie node totals) to a serial
    :func:`~repro.detector.postmortem.detect_from_log` run, for every
    shard count, executor, and log format.

    Validation happens exactly once per log.  Tuple logs: ``validate``
    (default on) schema-checks before partitioning, so stale layouts
    fail with a clear :class:`~repro.runtime.events.LogSchemaError`
    rather than misdecoding inside a shard worker; callers holding a
    log they already validated (or recorded in-process this run) pass
    ``validate=False``.  Binary logs were validated structurally when
    the reader opened — no O(n) pre-scan happens here, and shard
    workers map only the byte ranges their partition consumes.
    """
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {_EXECUTORS}")
    if isinstance(log, (str, Path)):
        log = open_log(log)
        validate = False  # open_log is the single validation point
    if isinstance(log, BinaryLogReader):
        return _detect_sharded_mapped(
            log, shards, config, resolved, static_races, executor, max_workers
        )
    entries = log.log if isinstance(log, RecordingSink) else log
    if validate:
        validate_entries(entries)
    shard_entries, accesses, syncs = partition_log(entries, shards)

    if executor == "serial" or shards == 1:
        outcomes = [
            _detect_shard(index, stream, config)
            for index, stream in enumerate(shard_entries)
        ]
    else:
        pool_cls = (
            ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
        )
        workers = min(max_workers or shards, shards)
        with pool_cls(max_workers=workers) as pool:
            futures = [
                pool.submit(_detect_shard, index, stream, config)
                for index, stream in enumerate(shard_entries)
            ]
            outcomes = [future.result() for future in futures]

    return _merge_outcomes(
        outcomes, shards, executor, resolved, static_races, accesses, syncs
    )


def _detect_sharded_mapped(
    reader: BinaryLogReader,
    shards: int,
    config: Optional[DetectorConfig],
    resolved: Optional[ResolvedProgram],
    static_races,
    executor: str,
    max_workers: Optional[int],
) -> ShardedDetectionResult:
    """Sharded detection over a mapped binary log: no partitioning pass,
    no materialized shard streams — each shard decodes its own byte
    ranges straight off the mmap (its own process's mmap, for the
    process executor; only the path crosses the boundary)."""
    path = reader.path
    if shards == 1:
        # Replay through the caller's open reader: re-opening the path
        # would decode the string table and block index a second time.
        detector = RaceDetector(config=config)
        reader.replay_into(detector)
        outcomes = [_shard_outcome(0, detector)]
    elif executor == "serial":
        # One decode pass multiplexed across all shard detectors —
        # serial sharding pays the file's decode cost once, not once
        # per shard.
        outcomes = _detect_shards_mapped_multiplexed(reader, shards, config)
    else:
        pool_cls = (
            ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
        )
        workers = min(max_workers or shards, shards)
        with pool_cls(max_workers=workers) as pool:
            futures = [
                pool.submit(_detect_shard_mapped, index, path, shards, config)
                for index in range(shards)
            ]
            outcomes = [future.result() for future in futures]
    return _merge_outcomes(
        outcomes,
        shards,
        executor,
        resolved,
        static_races,
        reader.access_count,
        reader.sync_count,
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
    shared by the tuple-partitioned and mmap-backed paths so both
    produce byte-identical reports and counters."""
    outcomes.sort(key=lambda outcome: outcome.shard_index)

    # Post-fill source context: shard workers run without the resolved
    # program, so reports come back with empty descriptors regardless of
    # executor; filling here keeps all three executors byte-identical.
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


def detect_sharded_post_mortem(
    resolved: ResolvedProgram,
    shards: int,
    config: Optional[DetectorConfig] = None,
    trace_sites: Optional[set] = None,
    policy=None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    max_steps: int = 10_000_000,
) -> tuple[ShardedDetectionResult, RecordingSink]:
    """The whole sharded workflow: record one execution, then detect
    over the partitioned log."""
    from .postmortem import record_execution

    _, log = record_execution(
        resolved, trace_sites=trace_sites, policy=policy, max_steps=max_steps
    )
    result = detect_sharded(
        log,
        shards,
        config=config,
        resolved=resolved,
        executor=executor,
        max_workers=max_workers,
    )
    return result, log
