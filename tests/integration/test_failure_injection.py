"""Failure injection: runtime errors mid-execution with detectors attached.

MJ has no exception handling: a runtime error aborts the whole run (the
paper's PEI-everywhere reality, taken to its limit).  These tests check
the abort path is clean — monitors unwind, the detector's partial state
stays consistent and queryable, and partial logs replay."""

import pytest

from repro.detector import RaceDetector, ReferenceDetector
from repro.lang import MJAssertionError, MJRuntimeError, compile_source
from repro.runtime import MulticastSink, RecordingSink, run_program


def run_expecting(source, exc_type, sink=None):
    resolved = compile_source(source)
    with pytest.raises(exc_type):
        run_program(resolved, sink=sink)


CRASH_IN_SYNC = """
class Main {
  static def main() {
    var s = new Shared();
    s.x = 0;
    var a = new Crasher(s);
    var b = new Worker(s);
    start a; start b;
    join a; join b;
  }
}
class Shared { field x; }
class Crasher {
  field s;
  def init(s) { this.s = s; }
  def run() {
    sync (this.s) {
      var boom = null;
      this.s.x = boom.x;      // Null deref while holding the lock.
    }
  }
}
class Worker {
  field s;
  def init(s) { this.s = s; }
  def run() {
    var i = 0;
    while (i < 30) {
      sync (this.s) { this.s.x = this.s.x + 1; }
      i = i + 1;
    }
  }
}
"""


class TestCrashMidRun:
    def test_null_deref_in_sync_propagates(self):
        run_expecting(CRASH_IN_SYNC, MJRuntimeError)

    def test_monitor_released_on_unwind(self):
        """The sync block's finally must release the monitor, so the
        detector's lock tracker never sees an unbalanced exit and the
        other thread can still make progress up to the abort."""
        resolved = compile_source(CRASH_IN_SYNC)
        detector = RaceDetector(resolved=resolved)
        with pytest.raises(MJRuntimeError):
            run_program(resolved, sink=detector)
        # The crashing thread's lockset unwound to its pseudo-lock only.
        crasher_lockset = detector.locks.lockset(1)
        assert all(lock < 0 for lock in crasher_lockset)

    def test_detector_state_queryable_after_abort(self):
        resolved = compile_source(CRASH_IN_SYNC)
        detector = RaceDetector(resolved=resolved)
        with pytest.raises(MJRuntimeError):
            run_program(resolved, sink=detector)
        # Partial statistics are consistent.
        assert detector.stats.accesses >= 0
        _ = detector.reports.object_count
        _ = detector.total_trie_nodes()

    def test_partial_log_replays(self):
        resolved = compile_source(CRASH_IN_SYNC)
        log = RecordingSink()
        with pytest.raises(MJRuntimeError):
            run_program(resolved, sink=log)
        # The truncated stream still feeds any detector.
        offline = ReferenceDetector()
        log.replay_into(offline)
        assert offline.full_race is not None

    def test_assertion_failure_in_thread(self):
        source = """
        class Main {
          static def main() {
            var w = new W();
            start w; join w;
          }
        }
        class W {
          def run() { assert 1 > 2; }
        }
        """
        run_expecting(source, MJAssertionError)

    def test_crash_with_multicast_sinks(self):
        resolved = compile_source(CRASH_IN_SYNC)
        races = RaceDetector(resolved=resolved)
        log = RecordingSink()
        with pytest.raises(MJRuntimeError):
            run_program(resolved, sink=MulticastSink([races, log]))
        # Both sinks saw the same partial stream up to the abort.
        assert log.log
        replayed = RaceDetector(resolved=resolved)
        log.replay_into(replayed)
        assert replayed.stats.accesses == races.stats.accesses
        assert (
            replayed.reports.racy_locations == races.reports.racy_locations
        )

    def test_out_of_bounds_mid_loop(self):
        source = """
        class Main {
          static def main() {
            var a = newarray(3);
            var w = new W(a);
            start w; join w;
          }
        }
        class W {
          field a;
          def init(a) { this.a = a; }
          def run() {
            var i = 0;
            while (i < 10) {
              this.a[i] = i;    // Blows up at i == 3.
              i = i + 1;
            }
          }
        }
        """
        resolved = compile_source(source)
        detector = RaceDetector(resolved=resolved)
        with pytest.raises(MJRuntimeError) as excinfo:
            run_program(resolved, sink=detector)
        assert "out of bounds" in str(excinfo.value)
        # Three successful writes were observed before the crash.
        assert detector.stats.accesses >= 1
