"""The record-then-check workload: record a seeded ``synthlog`` trace to
MJBL v1, then ``repro check --from-log`` it.

Set-up is what has to happen before the first check can run: record
the trace (``synthesize_file``, i.e. ``synthesize_into`` a
``BinaryLogSink`` plus ``close()``) and ``open_log`` it.  One check is
``detect_sharded(open_log(path), 1)`` including the merge, the exact
``check --from-log`` path.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from common import Clock, summarize, traced
from ladder import climb, layer_metrics, rung_sink
from sinks import NullSink, races_hash, report_hash

from repro.baselines import EraserDetector, HappensBeforeDetector
from repro.detector import (
    DetectorConfig,
    RaceDetector,
    canonical_report_order,
    detect_sharded,
)
from repro.runtime import RecordingSink, open_log, replay_entries
from repro.runtime.synthlog import synthesize_file, synthesize_into

#: Trace length.  The default shape's working set (4096 objects x 4
#: fields) dwarfs the 256-entry caches, so about 1% of accesses hit
#: them and ~70k reach a trie that grows to ~150k nodes: decode,
#: lockset and trie dominate.
EVENTS = 200_000
QUICK_EVENTS = 20_000
SETUP_REPEATS = 5
MIN_CHECKS = 3


def check(reader):
    """One ``check --from-log``: one shard, serial, default config."""
    return detect_sharded(reader, 1, config=DetectorConfig(), validate=False)


def sharded_hash(result) -> str:
    return report_hash(result.reports.reports, result.stats, result.cache_stats)


def detector_hash(detector) -> str:
    """A serial detector's report, in the sharded path's canonical order."""
    return report_hash(
        canonical_report_order(detector.reports.reports),
        detector.stats,
        detector.cache.stats,
    )


def timed(seed: int, seconds: float, quick: bool, work: Path) -> dict:
    """The timed part, run alone in a fresh interpreter."""
    events = QUICK_EVENTS if quick else EVENTS
    clock = Clock()
    path = work / "synth.mjbl"
    setups, record_rates = [], []
    for _ in range(SETUP_REPEATS):
        _, _, recorded = clock.time(
            lambda: synthesize_file(path, events, seed=seed)
        )
        reader, _, opened = clock.time(lambda: open_log(path))
        reader.close()
        setups.append(recorded + opened)
        record_rates.append(events / recorded)

    checks, walls, loop, hashes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(checks) < MIN_CHECKS or time.perf_counter() < deadline:
        reader, _, opened = clock.time(lambda: open_log(path))
        try:
            result, wall, ran = clock.time(lambda: check(reader))
        finally:
            reader.close()
        checks.append(ran)
        walls.append(wall)
        loop.append(opened + ran)
        hashes.append(sharded_hash(result))
    path.unlink()
    return {
        "setup_s": setups,
        "op_s": checks,
        "op_wall_s": walls,
        "ops_per_s": [1 / seconds for seconds in loop],
        "hashes": hashes,
        "extras": {"record_events_per_s": statistics.median(record_rates)},
    }


def record_only(seed: int, quick: bool, work: Path) -> dict:
    """Record once and nothing else, so the child's peak RSS is the
    writer's."""
    path = work / "writer.mjbl"
    synthesize_file(path, QUICK_EVENTS if quick else EVENTS, seed=seed)
    path.unlink()
    return {}


def oracle(seed: int, quick: bool):
    """The same trace kept as resident tuples and replayed into one
    serial detector: independent of both halves of the MJBL codec.
    Returns ``(detector, entries)``."""
    log = RecordingSink()
    synthesize_into(log, QUICK_EVENTS if quick else EVENTS, seed=seed)
    detector = RaceDetector()
    replay_entries(log.log, detector)
    return detector, log.log


def log_ladder(path: Path, clock, tracer) -> dict:
    """The detector ladder over a recorded log, the decoder as source,
    then three traced and three untraced checks of the same log."""
    with open_log(path) as reader:
        def prepare(rung, op):
            sink = rung_sink(rung)
            return (lambda: reader.replay_into(sink)), sink

        ladder = climb(clock, tracer, prepare)
        hashes = [detector_hash(ladder["full_sink"])]
        checks, untraced = [], []
        for index in range(3):
            result, _, scaled = clock.time(lambda: traced(
                tracer, "sharded.detect_sharded", f"check#{index}",
                lambda: check(reader),
            ))
            checks.append(scaled)
            hashes.append(sharded_hash(result))
            result, _, scaled = clock.time(lambda: check(reader))
            untraced.append(scaled)
            hashes.append(sharded_hash(result))
    ladder.update(
        hashes=hashes,
        traced_check=statistics.median(checks),
        untraced_check=statistics.median(untraced),
    )
    return ladder


def trace(seed: int, quick: bool, clock, tracer, work: Path, writer_rss):
    """Per-layer numbers for log-synth, every report checked against
    :func:`oracle`; ``writer_rss()`` runs :func:`record_only` in a fresh
    interpreter and returns its MB."""
    events = QUICK_EVENTS if quick else EVENTS
    path = work / "trace.mjbl"
    writes, synths, opens = [], [], []
    for index in range(3):
        op = f"record#{index}"
        _, _, scaled = clock.time(lambda: traced(
            tracer, "synthlog.synthesize_into", op,
            lambda: synthesize_into(NullSink(), events, seed=seed),
        ))
        synths.append(scaled)
        _, _, scaled = clock.time(lambda: traced(
            tracer, "binlog.record", op,
            lambda: synthesize_file(path, events, seed=seed),
        ))
        writes.append(scaled)
        reader, _, scaled = clock.time(lambda: traced(
            tracer, "binlog.open_log", op, lambda: open_log(path)
        ))
        reader.close()
        opens.append(scaled)

    ladder = log_ladder(path, clock, tracer)
    with open_log(path) as reader:
        sharded, _, detect4 = clock.time(lambda: traced(
            tracer, "sharded.detect_sharded", "check4#0",
            lambda: detect_sharded(reader, 4, executor="serial"),
        ))
    reference, entries = oracle(seed, quick)
    result, _, tuple_check = clock.time(lambda: traced(
        tracer, "sharded.detect_sharded", "tuple#0",
        lambda: detect_sharded(entries, 1, validate=False),
    ))
    ladder["hashes"].append(sharded_hash(result))
    expected = detector_hash(reference)
    verdicts = [digest == expected for digest in ladder["hashes"]]
    verdicts.append(
        races_hash(sharded.reports.reports)
        == races_hash(canonical_report_order(reference.reports.reports))
    )
    size = os.path.getsize(path)
    path.unlink()
    extras = {
        "binlog.open_s": statistics.median(opens),
        "binlog.write_s": statistics.median(writes) - statistics.median(synths),
        "binlog.bytes_per_event": size / events,
        "binlog.writer_rss_mb": writer_rss(),
        "sharded.overhead_s": ladder["traced_check"] - ladder["rungs"]["full"],
        "sharded.detect4_s": detect4,
        "binlog.tuple_check_s": tuple_check,
    }
    return {
        "per_layer": layer_metrics([(1, ladder)]),
        "extras": extras,
        "traced_check": ladder["traced_check"],
        "untraced_check": ladder["untraced_check"],
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
    }


def upload_axes_seconds(path: Path, clock, repeats: int = 3) -> dict:
    """The service's extra replay axes over one upload, in-process."""
    seconds = {}
    with open_log(path) as reader:
        for name, detector_class in (
            ("baselines.hb_s", HappensBeforeDetector),
            ("baselines.eraser_s", EraserDetector),
        ):
            seconds[name] = statistics.median(
                clock.time(lambda: reader.replay_into(detector_class()))[2]
                for _ in range(repeats)
            )
    return seconds


def metrics(answer: dict) -> dict:
    return {
        "setup_s": summarize(answer["setup_s"]),
        "p50_ms": summarize([value * 1000 for value in answer["op_s"]]),
        "ops_per_s": summarize(answer["ops_per_s"]),
    }
