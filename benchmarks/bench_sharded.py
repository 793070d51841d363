"""The tentpole before/after benchmarks: hot-path event interning and
sharded post-mortem detection.

Two measurement families, each comparing the seed pipeline's event
representation ("before") against the interned hot path ("after"):

* **on-the-fly** — one full instrumented execution with the detector
  attached.  The legacy arm routes every access through the seed's
  spine: a per-event label f-string, a fresh :class:`MemoryLocation`,
  a frozen :class:`AccessEvent`, and the seed's ``on_access`` body
  (fresh-key dict probes, tuple-returning ownership admission, split
  cache lookup+insert).  The interned arm is the current pipeline:
  scalar ``on_access_parts`` end to end, canonical keys, fused cache
  transaction, no event allocation off the race path.
* **post-mortem** — detection over a pre-recorded log.  The serial
  baseline replays materialized event objects through the seed path
  (the seed's ``RecordingSink`` stored event objects); the sharded arm
  partitions the tuple-encoded log and runs independent detectors per
  shard (``repro.detector.sharded``), merged deterministically.

Running ``PYTHONPATH=src python benchmarks/bench_sharded.py`` writes
``BENCH_hotpath.json`` at the repo root with both families at the bench
scales; ``--quick`` uses smoke scales and skips the JSON (CI).  The
pytest-benchmark tests below cover the same four arms at smoke scale.

Both arms of every comparison are asserted to report the *same races*
before their timings are accepted.
"""

from __future__ import annotations

from benchlib import best_of, machine_metadata, run_benchmark_main, runner_parser

from repro.detector import (  # noqa: E402
    RaceDetector,
    canonical_report_order,
    detect_sharded,
)
from repro.lang import compile_source  # noqa: E402
from repro.runtime import (  # noqa: E402
    AccessEvent,
    EventSink,
    MemoryLocation,
    ObjectKind,
    RecordingSink,
    run_program,
)
from repro.workloads import ALL_WORKLOADS  # noqa: E402

#: Bench scales for the committed before/after numbers.
BENCH_SCALES = {"tsp2": 16, "mtrt2": 16, "sor2": 24}
#: Smoke scales for --quick and the pytest-benchmark tests.
QUICK_SCALES = {"tsp2": 6, "mtrt2": 6, "sor2": 8}

POST_MORTEM_SHARDS = 4


# ----------------------------------------------------------------------
# The "before" arms: the seed's event representation, rebuilt from the
# current building blocks so results stay comparable.


class SeedPathDetector(RaceDetector):
    """A detector whose per-event work matches the seed pipeline.

    ``on_access`` is the seed's body verbatim: the location key is the
    event's own (fresh) ``MemoryLocation``, ownership admission goes
    through the tuple-returning method call, and the cache transaction
    is a split lookup + insert (two index computations per miss).
    Reports and counters are identical to the interned path — only the
    per-event cost differs.
    """

    def on_access(self, event: AccessEvent) -> None:
        self.stats.accesses += 1
        location = event.location
        if self._fields_merged and event.object_kind is not ObjectKind.CLASS:
            key = location.object_uid
        else:
            key = location
        thread_id = event.thread_id

        if self.ownership is not None:
            admit, _ = self.ownership.admit(key, thread_id)
            if not admit:
                self.stats.owned_filtered += 1
                return

        if self.cache is not None:
            if self.cache.lookup(thread_id, key, event.kind):
                self.stats.cache_hits += 1
                return
            self.cache.insert(
                thread_id,
                key,
                event.kind,
                anchor_lock=self.locks.last_real_lock(thread_id),
            )

        self._detect_parts(
            key,
            location.object_uid,
            location.field,
            thread_id,
            event.kind,
            event.site_id,
            event.object_kind,
            event.object_label,
        )


class SeedEventSpine(EventSink):
    """Adapter reproducing the seed's interpreter→detector spine.

    The seed's ``_emit_access`` built a label f-string, a fresh
    ``MemoryLocation`` and a frozen ``AccessEvent`` for every traced
    access, then called ``sink.on_access(event)``.  The current
    interpreter emits scalars; this sink re-materializes the seed's
    per-event objects so the legacy arm pays the same allocation and
    formatting costs the seed paid.
    """

    def __init__(self, detector: RaceDetector):
        self.detector = detector

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        if object_kind is ObjectKind.ARRAY:
            label = f"array#{object_uid}"
        elif object_kind is ObjectKind.CLASS:
            label = object_label
        else:
            label = f"{object_label.split('#')[0]}#{object_uid}"
        self.detector.on_access(
            AccessEvent(
                location=MemoryLocation(object_uid, field),
                thread_id=thread_id,
                kind=kind,
                site_id=site_id,
                object_kind=object_kind,
                object_label=label,
            )
        )

    def on_monitor_enter(self, thread_id, lock_uid, reentrant) -> None:
        self.detector.on_monitor_enter(thread_id, lock_uid, reentrant)

    def on_monitor_exit(self, thread_id, lock_uid, reentrant) -> None:
        self.detector.on_monitor_exit(thread_id, lock_uid, reentrant)

    def on_thread_start(self, parent_id, child_id) -> None:
        self.detector.on_thread_start(parent_id, child_id)

    def on_thread_end(self, thread_id) -> None:
        self.detector.on_thread_end(thread_id)

    def on_thread_join(self, joiner_id, joined_id) -> None:
        self.detector.on_thread_join(joiner_id, joined_id)

    def on_run_end(self) -> None:
        self.detector.on_run_end()


def replay_event_objects(log: RecordingSink, detector: RaceDetector) -> None:
    """Serial post-mortem replay in the seed's representation: every
    access becomes a fresh event object delivered via ``on_access``."""
    access = RecordingSink.ACCESS
    enter = RecordingSink.ENTER
    exit_ = RecordingSink.EXIT
    start = RecordingSink.START
    end = RecordingSink.END
    for entry in log.log:
        tag = entry[0]
        if tag is access:
            detector.on_access(
                AccessEvent(
                    location=MemoryLocation(entry[1], entry[2]),
                    thread_id=entry[3],
                    kind=entry[4],
                    site_id=entry[5],
                    object_kind=entry[6],
                    object_label=entry[7],
                )
            )
        elif tag is enter:
            detector.on_monitor_enter(entry[1], entry[2], entry[3])
        elif tag is exit_:
            detector.on_monitor_exit(entry[1], entry[2], entry[3])
        elif tag is start:
            detector.on_thread_start(entry[1], entry[2])
        elif tag is end:
            detector.on_thread_end(entry[1])
        else:
            detector.on_thread_join(entry[1], entry[2])
    detector.on_run_end()


# ----------------------------------------------------------------------
# Measurement harness.


def _compile(name: str, scale: int):
    """Compile at ``scale`` for *full* dynamic detection.

    ``trace_sites=None`` traces every access site — the measurement
    targets the event spine, so the static planner (which would filter
    most of sor2's accesses away) is deliberately not applied.
    """
    spec = ALL_WORKLOADS[name]
    resolved = compile_source(spec.build(scale), filename=name)
    return resolved, None


def _report_keys(detector_or_result):
    reports = detector_or_result.reports.reports
    return [
        (str(report.key), report.field, report.object_label)
        for report in canonical_report_order(reports)
    ]


def bench_on_the_fly(name: str, scale: int, repeats: int) -> dict:
    """Legacy event-object spine vs interned scalar spine, full run."""
    resolved, trace_sites = _compile(name, scale)

    def legacy():
        detector = SeedPathDetector(resolved=resolved)
        run_program(
            resolved, sink=SeedEventSpine(detector), trace_sites=trace_sites
        )
        return detector

    def interned():
        detector = RaceDetector(resolved=resolved)
        run_program(resolved, sink=detector, trace_sites=trace_sites)
        return detector

    legacy_s, legacy_detector = best_of(repeats, legacy)
    interned_s, interned_detector = best_of(repeats, interned)
    assert _report_keys(legacy_detector) == _report_keys(interned_detector), (
        f"{name}: legacy and interned arms disagree on races"
    )
    return {
        "workload": name,
        "scale": scale,
        "accesses": interned_detector.stats.accesses,
        "races": interned_detector.stats.races_reported,
        "legacy_seconds": round(legacy_s, 4),
        "interned_seconds": round(interned_s, 4),
        "speedup": round(legacy_s / interned_s, 3),
    }


def bench_post_mortem(name: str, scale: int, shards: int, repeats: int) -> dict:
    """Serial (seed-representation) vs sharded post-mortem on one log."""
    resolved, trace_sites = _compile(name, scale)
    log = RecordingSink()
    run_program(resolved, sink=log, trace_sites=trace_sites)

    def serial():
        detector = SeedPathDetector(resolved=resolved)
        replay_event_objects(log, detector)
        return detector

    def sharded():
        return detect_sharded(log, shards, resolved=resolved, executor="serial")

    serial_s, serial_detector = best_of(repeats, serial)
    sharded_s, sharded_result = best_of(repeats, sharded)
    assert _report_keys(serial_detector) == _report_keys(sharded_result), (
        f"{name}: serial and sharded post-mortem disagree on races"
    )
    assert sharded_result.monitored_locations == serial_detector.monitored_locations
    assert sharded_result.trie_nodes == serial_detector.total_trie_nodes()
    return {
        "workload": name,
        "scale": scale,
        "log_events": len(log.log),
        "access_events": log.access_count,
        "shards": shards,
        "executor": "serial",
        "races": sharded_result.races,
        "serial_seconds": round(serial_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "speedup": round(serial_s / sharded_s, 3),
    }


def generate(quick: bool = False, repeats: int = 3) -> dict:
    scales = QUICK_SCALES if quick else BENCH_SCALES
    on_the_fly = []
    post_mortem = []
    for name, scale in scales.items():
        print(f"[bench] on-the-fly {name}@{scale} ...", flush=True)
        row = bench_on_the_fly(name, scale, repeats)
        print(
            f"[bench]   legacy={row['legacy_seconds']}s "
            f"interned={row['interned_seconds']}s "
            f"speedup={row['speedup']}x",
            flush=True,
        )
        on_the_fly.append(row)
        print(f"[bench] post-mortem {name}@{scale} ...", flush=True)
        row = bench_post_mortem(name, scale, POST_MORTEM_SHARDS, repeats)
        print(
            f"[bench]   serial={row['serial_seconds']}s "
            f"sharded={row['sharded_seconds']}s "
            f"speedup={row['speedup']}x",
            flush=True,
        )
        post_mortem.append(row)
    return {
        "benchmark": "hot-path interning + sharded post-mortem",
        "baseline": (
            "seed event spine: per-event label f-string, fresh "
            "MemoryLocation + AccessEvent, seed on_access body "
            "(fresh-key probes, split cache lookup/insert)"
        ),
        "contender": (
            "interned hot path: scalar on_access_parts, canonical "
            "location keys and locksets, fused cache transaction; "
            "post-mortem partitioned into independent per-shard "
            "detectors over the tuple-encoded log"
        ),
        "quick": quick,
        "repeats": repeats,
        "machine": machine_metadata(),
        "on_the_fly": on_the_fly,
        "post_mortem": post_mortem,
    }


# ----------------------------------------------------------------------
# pytest-benchmark coverage of the same four arms at smoke scale.

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def tsp_quick():
    resolved, trace_sites = _compile("tsp2", QUICK_SCALES["tsp2"])
    log = RecordingSink()
    run_program(resolved, sink=log, trace_sites=trace_sites)
    return resolved, trace_sites, log


class TestOnTheFlySpine:
    def test_legacy_event_spine(self, benchmark, tsp_quick):
        resolved, trace_sites, _ = tsp_quick
        benchmark.group = "sharded:on-the-fly"

        def run():
            detector = SeedPathDetector(resolved=resolved)
            run_program(
                resolved, sink=SeedEventSpine(detector), trace_sites=trace_sites
            )
            return detector

        detector = benchmark(run)
        assert detector.stats.accesses > 0

    def test_interned_parts_spine(self, benchmark, tsp_quick):
        resolved, trace_sites, _ = tsp_quick
        benchmark.group = "sharded:on-the-fly"

        def run():
            detector = RaceDetector(resolved=resolved)
            run_program(resolved, sink=detector, trace_sites=trace_sites)
            return detector

        detector = benchmark(run)
        assert detector.stats.accesses > 0


class TestPostMortem:
    def test_serial_event_object_replay(self, benchmark, tsp_quick):
        resolved, _, log = tsp_quick
        benchmark.group = "sharded:post-mortem"

        def run():
            detector = SeedPathDetector(resolved=resolved)
            replay_event_objects(log, detector)
            return detector

        detector = benchmark(run)
        assert detector.stats.accesses == log.access_count

    def test_sharded_tuple_replay(self, benchmark, tsp_quick):
        resolved, _, log = tsp_quick
        benchmark.group = "sharded:post-mortem"

        def run():
            return detect_sharded(
                log, POST_MORTEM_SHARDS, resolved=resolved, executor="serial"
            )

        result = benchmark(run)
        assert result.stats.accesses == log.access_count


# ----------------------------------------------------------------------
# Script entry point: (re)generate BENCH_hotpath.json.


def main(argv=None) -> int:
    parser = runner_parser(
        "Measure the hot-path interning + sharding speedups.",
        "BENCH_hotpath.json",
    )
    return run_benchmark_main(parser, generate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
