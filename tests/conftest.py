"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.detector import DetectorConfig, RaceDetector
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import RandomPolicy, RoundRobinPolicy, run_program
from repro.runtime.events import ObjectKind


def run_source(source: str, seed=None, sink=None, trace_sites=None, max_steps=2_000_000):
    """Compile and execute MJ source; returns the RunResult."""
    resolved = compile_source(source)
    policy = RandomPolicy(seed) if seed is not None else RoundRobinPolicy()
    return run_program(
        resolved, sink=sink, trace_sites=trace_sites, policy=policy,
        max_steps=max_steps,
    )


def access(uid, field, thread, kind, site=0) -> tuple:
    """One hand-built instance-field access as the seven arguments of
    ``EventSink.on_access_parts``, labelled ``Obj#<uid>``."""
    return (uid, field, thread, kind, site, ObjectKind.INSTANCE, f"Obj#{uid}")


def garble_string_table(path) -> int:
    """Overwrite the first byte of an MJBL log's first interned string
    with 0xFF (never valid UTF-8); returns that entry's byte offset."""
    from repro.runtime.binlog import BinaryLogReader

    with BinaryLogReader(path) as reader:
        entry = reader.strings_offset + 4  # past the table's count
    data = bytearray(path.read_bytes())
    data[entry + 4] = 0xFF  # past the entry's length
    path.write_bytes(bytes(data))
    return entry


def unbalanced_exit_log(events: int = 1_000):
    """A small synthetic tuple log in which the first outermost monitor
    exit releases a lock its thread does not hold: the lock uid has its
    low bit flipped, as by one damaged bit on disk."""
    from repro.runtime.events import RecordingSink
    from repro.runtime.synthlog import synthesize_into

    sink = RecordingSink()
    synthesize_into(sink, events)
    position, (tag, thread, lock, reentrant) = next(
        (i, entry)
        for i, entry in enumerate(sink.log)
        if entry[0] == RecordingSink.EXIT and not entry[3]
    )
    sink.log[position] = (tag, thread, lock ^ 1, reentrant)
    return sink


def detect(source: str, seed=None, detector_config=None, planner_config=None):
    """Full pipeline: compile, plan, run with a detector; returns it."""
    resolved = compile_source(source)
    plan = plan_instrumentation(
        resolved, planner_config if planner_config is not None else PlannerConfig()
    )
    detector = RaceDetector(
        config=detector_config if detector_config is not None else DetectorConfig(),
        resolved=resolved,
    )
    policy = RandomPolicy(seed) if seed is not None else RoundRobinPolicy()
    run_program(resolved, sink=detector, trace_sites=plan.trace_sites, policy=policy)
    return detector


def detect_unoptimized(source: str, seed=None, detector_config=None):
    """Run with every access site traced (no static phases at all)."""
    resolved = compile_source(source)
    detector = RaceDetector(
        config=detector_config if detector_config is not None else DetectorConfig(),
        resolved=resolved,
    )
    policy = RandomPolicy(seed) if seed is not None else RoundRobinPolicy()
    run_program(resolved, sink=detector, trace_sites=None, policy=policy)
    return detector


@pytest.fixture
def racy_two_writer_source() -> str:
    """Two threads increment a shared counter with no locks."""
    return """
    class Main {
      static def main() {
        var s = new Shared();
        s.x = 0;
        var a = new Worker(s);
        var b = new Worker(s);
        start a; start b;
        join a; join b;
        print s.x;
      }
    }
    class Shared { field x; }
    class Worker {
      field target;
      def init(s) { this.target = s; }
      def run() {
        var t = this.target;
        t.x = t.x + 1;
      }
    }
    """


@pytest.fixture
def safe_two_writer_source() -> str:
    """Two threads increment a shared counter under a common lock."""
    return """
    class Main {
      static def main() {
        var s = new Shared();
        s.x = 0;
        var a = new Worker(s);
        var b = new Worker(s);
        start a; start b;
        join a; join b;
        print s.x;
      }
    }
    class Shared { field x; }
    class Worker {
      field target;
      def init(s) { this.target = s; }
      def run() {
        var t = this.target;
        sync (t) {
          t.x = t.x + 1;
        }
      }
    }
    """
