"""The binary event-log benchmarks: streaming record throughput and
mmap-backed sharded detection at 1M/10M events, vs the tuple baseline.

Four measurement families over deterministic synthetic traces
(``repro.runtime.synthlog`` — lock-disciplined plus thread-local access
mix with a bounded racy slice, shaped like a disciplined concurrent
program):

* **record** — stream N events through :class:`BinaryLogSink`, once
  uncompressed (v1) and once with per-block deflate (MJBL v2); wall
  time, events/s, on-disk bytes/event.  The sink holds no per-event
  state, so recording is flat-memory at any N.
* **detect-binary** — 4-shard detection over the mapped v1 file via
  the columnar :meth:`BinaryLogReader.replay_into` batch decoder; each
  shard unpacks only its own access events plus the replicated sync
  stream; the tuple log is never materialized.
* **detect-binary-v2** — the same detection over the v2-compressed
  file: blocks inflate on the fly, one at a time.
* **detect-tuple** — the baseline: materialize the same N events as
  schema-v3 tuples in memory, then run the identical sharded detection
  over the list.
* **sharding crossover** — the mapped v1 file detected as one shard,
  then with the ``process`` executor at 2 and 4 shards (one worker
  process per shard, each replaying its own filtered view).  A process
  arm's peak RSS adds the largest worker's (``RUSAGE_CHILDREN``) once
  per shard to the parent's: an upper bound on the concurrent
  footprint, since forked workers share pages with the parent.

Every arm runs in a fresh subprocess so ``resource.getrusage``'s
``ru_maxrss`` is a clean per-arm peak-RSS reading; the parent asserts
all detection arms report byte-identical races (same SHA-256 over the
ordered race keys) before accepting any timing.  The
committed claim: at 10M events the mapped path's peak RSS stays
bounded (detector state + touched file pages) while the tuple
baseline's grows with the trace — the record-then-analyze mode of the
paper's offline detection at trace sizes the in-memory log cannot hold.

Running ``PYTHONPATH=src python benchmarks/bench_binlog.py`` writes
``BENCH_binlog.json`` at the repo root with 1M and 10M rows, carrying
forward the file's previous 100M row; ``--tier100m`` measures the
100M-event nightly row afresh (v2-compressed record
under a writer peak-RSS ceiling, mapped detection, parity checked by
re-detecting at a different shard count — the tuple baseline cannot
hold 100M events).  ``--quick`` measures 100k events and skips the
JSON (CI).  The pytest-benchmark tests below cover record/detect arms
at smoke scale in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchlib import ROOT, machine_metadata, runner_parser

from repro.detector import detect_sharded  # noqa: E402
from repro.runtime.binlog import BinaryLogReader, BinaryLogSink  # noqa: E402
from repro.runtime.events import RecordingSink  # noqa: E402
from repro.runtime.synthlog import synthesize_into  # noqa: E402

#: Event counts for the committed numbers and for --quick (CI smoke).
BENCH_EVENTS = (1_000_000, 10_000_000)
QUICK_EVENTS = (100_000,)
TIER_100M_EVENTS = 100_000_000

SHARDS = 4
#: Shard counts of the process-executor crossover arms.
PROCESS_SHARDS = (2, 4)

#: Deflate level for the v2 arms (the CLI's ``--compress`` default).
COMPRESS_LEVEL = 6

#: The 100M-tier writer must stay flat-memory: one block buffer, the
#: string table, zlib state — not the trace.  ru_maxrss ceiling, KB.
WRITER_RSS_CEILING_KB = 192 * 1024


# ----------------------------------------------------------------------
# Worker arms.  Each runs in a fresh subprocess (one arm per process)
# and prints a single JSON line: seconds, peak RSS, race evidence.


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _report_evidence(outcome) -> dict:
    reports = outcome.reports.reports
    digest = hashlib.sha256(
        "\n".join(str(report.key) for report in reports).encode()
    ).hexdigest()
    return {"races": len(reports), "report_hash": digest}


def _resident(reader: BinaryLogReader) -> list:
    """The whole trace as resident schema-v3 tuples, decoded through
    the production replay spine."""
    log = RecordingSink()
    reader.replay_into(log)
    return log.log


def _worker_record(path: str, events: int, compress, shards: int) -> dict:
    sink = BinaryLogSink(path, compress=compress)
    started = time.perf_counter()
    count = synthesize_into(sink, events)
    sink.close()
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "events_per_second": count / elapsed,
        "file_bytes": os.path.getsize(path),
        "peak_rss_kb": _peak_rss_kb(),
    }


def _worker_detect_binary(path: str, events: int, compress, shards: int) -> dict:
    with BinaryLogReader(path) as reader:
        started = time.perf_counter()
        outcome = detect_sharded(
            reader, shards, executor="serial", validate=False
        )
        elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "peak_rss_kb": _peak_rss_kb(),
        **_report_evidence(outcome),
    }


def _worker_detect_tuple(path: str, events: int, compress, shards: int) -> dict:
    # The baseline pays what the in-memory format always pays: the whole
    # trace resident as Python tuples before detection can start.
    with BinaryLogReader(path) as reader:
        entries = _resident(reader)
    started = time.perf_counter()
    outcome = detect_sharded(
        entries, shards, executor="serial", validate=False
    )
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "peak_rss_kb": _peak_rss_kb(),
        **_report_evidence(outcome),
    }


def _worker_detect_process(path: str, events: int, compress, shards: int) -> dict:
    started = time.perf_counter()
    outcome = detect_sharded(path, shards, executor="process", validate=False)
    elapsed = time.perf_counter() - started
    # The pool has shut down, so every worker is reaped and counted.
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "seconds": elapsed,
        "peak_rss_kb": _peak_rss_kb() + shards * worker_kb,
        "worker_peak_rss_kb": worker_kb,
        **_report_evidence(outcome),
    }


_WORKERS = {
    "record": _worker_record,
    "detect-binary": _worker_detect_binary,
    "detect-tuple": _worker_detect_tuple,
    "detect-process": _worker_detect_process,
}


def _spawn(
    mode: str, path: Path, events: int,
    compress: int = None, shards: int = SHARDS,
) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker", mode,
        "--path", str(path),
        "--events", str(events),
        "--shards", str(shards),
    ]
    if compress is not None:
        argv += ["--compress", str(compress)]
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _record_arm(path: Path, events: int, compress=None) -> dict:
    flavor = "v2 deflate" if compress is not None else "v1"
    print(f"[bench] record {events:,} events ({flavor}) ...", flush=True)
    record = _spawn("record", path, events, compress=compress)
    print(
        f"[bench]   {record['seconds']:.2f}s = "
        f"{record['events_per_second']:,.0f} ev/s, "
        f"{record['file_bytes'] / events:.1f} B/event",
        flush=True,
    )
    return record


def _detect_arm(label: str, mode: str, path: Path, events: int,
                repeats: int, shards: int = SHARDS) -> dict:
    print(f"[bench] {label} {events:,} x{shards} shards ...", flush=True)
    best = None
    for _ in range(repeats):
        result = _spawn(mode, path, events, shards=shards)
        if best is None or result["seconds"] < best["seconds"]:
            best = result
    print(
        f"[bench]   {best['seconds']:.2f}s, "
        f"peak RSS {best['peak_rss_kb'] / 1024:.0f} MB, "
        f"races={best['races']}",
        flush=True,
    )
    return best


def bench_events(events: int, repeats: int) -> dict:
    """One row: record v1 + v2 once each, then the three detection
    arms best-of-N, each arm in its own subprocess for a clean
    peak-RSS reading.  Timing rows are accepted only after the
    three-way parity gate: mapped v1, mapped v2, and the tuple
    baseline must hash to identical race reports."""
    with tempfile.TemporaryDirectory(prefix="binlog-bench-") as tmp:
        path = Path(tmp) / f"synthetic-{events}.mjbl"
        v2_path = Path(tmp) / f"synthetic-{events}-v2.mjbl"
        record = _record_arm(path, events)
        record_v2 = _record_arm(v2_path, events, compress=COMPRESS_LEVEL)
        arms = {
            "detect-binary": _detect_arm(
                "detect-binary", "detect-binary", path, events, repeats
            ),
            "detect-binary-v2": _detect_arm(
                "detect-binary-v2", "detect-binary", v2_path, events, repeats
            ),
            "detect-tuple": _detect_arm(
                "detect-tuple", "detect-tuple", path, events, repeats
            ),
            "one-shard": _detect_arm(
                "detect-binary", "detect-binary", path, events, repeats,
                shards=1,
            ),
        }
        for shards in PROCESS_SHARDS:
            arms[f"process-{shards}"] = _detect_arm(
                "detect-process", "detect-process", path, events, repeats,
                shards=shards,
            )
    binary = arms["detect-binary"]
    binary_v2 = arms["detect-binary-v2"]
    tuples = arms["detect-tuple"]
    hashes = {arm["report_hash"] for arm in arms.values()}
    assert len(hashes) == 1, (
        f"{events}: detection arms disagree on races "
        f"({ {name: arm['report_hash'][:12] for name, arm in arms.items()} })"
    )
    assert len({arm["races"] for arm in arms.values()}) == 1
    crossover = {}
    for shards in PROCESS_SHARDS:
        arm = arms[f"process-{shards}"]
        crossover.update({
            f"process_{shards}_detect_seconds": round(arm["seconds"], 3),
            f"process_{shards}_peak_rss_kb": arm["peak_rss_kb"],
            f"process_{shards}_worker_peak_rss_kb": arm["worker_peak_rss_kb"],
        })
    return {
        "events": events,
        "shards": SHARDS,
        "executor": "serial",
        "races": binary["races"],
        "record_seconds": round(record["seconds"], 3),
        "record_events_per_second": round(record["events_per_second"]),
        "record_peak_rss_kb": record["peak_rss_kb"],
        "file_bytes": record["file_bytes"],
        "bytes_per_event": round(record["file_bytes"] / events, 2),
        "record_v2_seconds": round(record_v2["seconds"], 3),
        "record_v2_events_per_second": round(record_v2["events_per_second"]),
        "record_v2_peak_rss_kb": record_v2["peak_rss_kb"],
        "file_bytes_v2": record_v2["file_bytes"],
        "bytes_per_event_v2": round(record_v2["file_bytes"] / events, 2),
        "compression_ratio": round(
            record["file_bytes"] / record_v2["file_bytes"], 3
        ),
        "binary_detect_seconds": round(binary["seconds"], 3),
        "binary_peak_rss_kb": binary["peak_rss_kb"],
        "binary_v2_detect_seconds": round(binary_v2["seconds"], 3),
        "binary_v2_peak_rss_kb": binary_v2["peak_rss_kb"],
        "tuple_detect_seconds": round(tuples["seconds"], 3),
        "tuple_peak_rss_kb": tuples["peak_rss_kb"],
        "rss_ratio": round(tuples["peak_rss_kb"] / binary["peak_rss_kb"], 3),
        "one_shard_detect_seconds": round(arms["one-shard"]["seconds"], 3),
        "one_shard_peak_rss_kb": arms["one-shard"]["peak_rss_kb"],
        **crossover,
    }


def bench_tier_100m(repeats: int) -> dict:
    """The nightly 100M-event row: v2-compressed record under the
    writer RSS ceiling, mapped detection, parity by re-detecting the
    same file at a different shard count (the tuple baseline cannot
    hold 100M events in memory, so the cross-check is shard-count
    invariance of the report hash)."""
    events = TIER_100M_EVENTS
    with tempfile.TemporaryDirectory(prefix="binlog-bench-100m-") as tmp:
        path = Path(tmp) / "synthetic-100m-v2.mjbl"
        record = _record_arm(path, events, compress=COMPRESS_LEVEL)
        assert record["peak_rss_kb"] <= WRITER_RSS_CEILING_KB, (
            f"100M-tier writer peaked at {record['peak_rss_kb']} KB — "
            f"over the {WRITER_RSS_CEILING_KB} KB flat-memory ceiling"
        )
        four = _detect_arm(
            "detect-binary-v2", "detect-binary", path, events, repeats
        )
        two = _detect_arm(
            "detect-binary-v2 (parity)", "detect-binary", path, events,
            1, shards=2,
        )
    assert four["report_hash"] == two["report_hash"], (
        "100M tier: 4-shard and 2-shard detection disagree on races"
    )
    assert four["races"] == two["races"]
    return {
        "events": events,
        "tier": "100m",
        "shards": SHARDS,
        "executor": "serial",
        "races": four["races"],
        "record_v2_seconds": round(record["seconds"], 3),
        "record_v2_events_per_second": round(record["events_per_second"]),
        "record_v2_peak_rss_kb": record["peak_rss_kb"],
        "writer_rss_ceiling_kb": WRITER_RSS_CEILING_KB,
        "file_bytes_v2": record["file_bytes"],
        "bytes_per_event_v2": round(record["file_bytes"] / events, 2),
        "binary_v2_detect_seconds": round(four["seconds"], 3),
        "binary_v2_peak_rss_kb": four["peak_rss_kb"],
        "parity_shards": 2,
        "parity_detect_seconds": round(two["seconds"], 3),
    }


def generate(quick: bool = False, repeats: int = 3, tier100m: bool = False) -> dict:
    rows = []
    for events in (QUICK_EVENTS if quick else BENCH_EVENTS):
        row = bench_events(events, repeats)
        if not quick and events >= 1_000_000:
            assert row["tuple_peak_rss_kb"] > row["binary_peak_rss_kb"], (
                f"{events}: mapped detection should peak below the "
                f"tuple baseline ({row})"
            )
        rows.append(row)
    if tier100m:
        rows.append(bench_tier_100m(repeats=1))
    return {
        "benchmark": "binary event log: streaming record + mmap-sharded detect",
        "baseline": (
            "tuple log resident in memory: every event a Python tuple, "
            "the whole trace materialized before sharded detection"
        ),
        "contender": (
            "MJBL binary log (v1 raw and v2 per-block deflate): "
            "fixed-width struct records streamed to disk with bounded "
            "writer memory; 4-shard detection over the mapped file "
            "batch-decodes each shard's own accesses plus the "
            "replicated sync stream via the columnar replay_into "
            "path, skipping non-owned blocks via the uid-partition "
            "index"
        ),
        "trace": (
            "synthlog synthetic stream (seed 2002): lock-disciplined + "
            "thread-local access mix, bounded racy slice, all eight "
            "schema-v3 event kinds"
        ),
        "notes": (
            "The 1M/10M rows' shards/executor fields describe the three "
            "serial 4-shard arms; one_shard_* and process_{2,4}_* are "
            "the sharding crossover.  Process peak RSS adds the largest "
            "worker's (RUSAGE_CHILDREN) once per shard to the parent's. "
            "The 100M row is measured only with --tier100m (nightly); "
            "a run without it carries the output file's previous 100M "
            "row forward unchanged."
        ),
        "quick": quick,
        "repeats": repeats,
        "machine": machine_metadata(),
        "rows": rows,
    }


def _previous_100m_rows(output: str) -> list:
    """The 100M row of an existing payload at ``output``, if any."""
    try:
        rows = json.loads(Path(output).read_text())["rows"]
    except (OSError, ValueError, KeyError):
        return []
    return [row for row in rows if row.get("tier") == "100m"]


# ----------------------------------------------------------------------
# pytest-benchmark coverage at smoke scale, in-process.

import pytest  # noqa: E402

SMOKE_EVENTS = 50_000


@pytest.fixture(scope="module")
def smoke_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("binlog-bench") / "smoke.mjbl"
    sink = BinaryLogSink(path)
    synthesize_into(sink, SMOKE_EVENTS)
    return path


@pytest.fixture(scope="module")
def smoke_log_v2(tmp_path_factory):
    path = tmp_path_factory.mktemp("binlog-bench") / "smoke_v2.mjbl"
    sink = BinaryLogSink(path, compress=COMPRESS_LEVEL)
    synthesize_into(sink, SMOKE_EVENTS)
    return path


class TestRecord:
    def test_streaming_binary_record(self, benchmark, tmp_path):
        benchmark.group = "binlog:record"
        path = tmp_path / "bench.mjbl"

        def run():
            sink = BinaryLogSink(path)
            return synthesize_into(sink, SMOKE_EVENTS)

        count = benchmark(run)
        assert count == SMOKE_EVENTS


class TestDetect:
    def test_mapped_binary_sharded(self, benchmark, smoke_log):
        benchmark.group = "binlog:detect"
        with BinaryLogReader(smoke_log) as reader:
            outcome = benchmark(
                lambda: detect_sharded(
                    reader, SHARDS, executor="serial", validate=False
                )
            )
        assert outcome.stats.accesses > 0

    def test_mapped_compressed_sharded(self, benchmark, smoke_log_v2):
        benchmark.group = "binlog:detect"
        with BinaryLogReader(smoke_log_v2) as reader:
            outcome = benchmark(
                lambda: detect_sharded(
                    reader, SHARDS, executor="serial", validate=False
                )
            )
        assert outcome.stats.accesses > 0

    def test_tuple_baseline_sharded(self, benchmark, smoke_log):
        benchmark.group = "binlog:detect"
        with BinaryLogReader(smoke_log) as reader:
            entries = _resident(reader)
        outcome = benchmark(
            lambda: detect_sharded(
                entries, SHARDS, executor="serial", validate=False
            )
        )
        assert outcome.stats.accesses > 0

    def test_arms_report_identical_races(self, smoke_log, smoke_log_v2):
        # The three-way parity gate at smoke scale: mapped v1, mapped
        # v2-compressed, and the tuple baseline hash identically.
        with BinaryLogReader(smoke_log) as reader:
            entries = _resident(reader)
            mapped = detect_sharded(
                reader, SHARDS, executor="serial", validate=False
            )
        with BinaryLogReader(smoke_log_v2) as reader:
            mapped_v2 = detect_sharded(
                reader, SHARDS, executor="serial", validate=False
            )
        baseline = detect_sharded(
            entries, SHARDS, executor="serial", validate=False
        )
        assert (
            _report_evidence(mapped)
            == _report_evidence(mapped_v2)
            == _report_evidence(baseline)
        )


# ----------------------------------------------------------------------
# Script entry point: worker arms + BENCH_binlog.json generation.


def main(argv=None) -> int:
    parser = runner_parser(
        "Measure binary-log record throughput and mmap-sharded "
        "detection vs the tuple baseline.",
        "BENCH_binlog.json",
    )
    parser.add_argument(
        "--tier100m",
        action="store_true",
        help="append the 100M-event nightly row (v2-compressed record "
        "under the writer RSS ceiling + mapped detection)",
    )
    parser.add_argument("--worker", choices=sorted(_WORKERS), help=argparse.SUPPRESS)
    parser.add_argument("--path", help=argparse.SUPPRESS)
    parser.add_argument("--events", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--compress", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--shards", type=int, default=SHARDS, help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.worker:
        print(json.dumps(_WORKERS[options.worker](
            options.path, options.events, options.compress, options.shards
        )))
        return 0
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")
    payload = generate(
        quick=options.quick, repeats=options.repeats, tier100m=options.tier100m
    )
    if not options.quick and not options.tier100m:
        payload["rows"] += _previous_100m_rows(options.output)
    text = json.dumps(payload, indent=2)
    if options.quick:
        print(text)
    else:
        Path(options.output).write_text(text + "\n")
        print(f"[bench] wrote {options.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
