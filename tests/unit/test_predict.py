"""Unit tests for the predictive detectors (SHB + hybrid lockset/SHB).

The predictors are driven directly through the EventSink interface with
hand-built streams, so every edge rule (dropped lock coupling, the
lock-coupled write→read edge, start/join/condition edges, the hybrid's
lockset conjunct) is pinned independently of the interpreter.  See
``docs/prediction.md`` for the edge-rule table these tests encode.
"""

import pytest

from repro.baselines import HappensBeforeDetector
from repro.detector import (
    PREDICTORS,
    HybridPredictor,
    SHBPredictor,
    Witness,
    make_predictor,
    predict_races,
)
from repro.lang.ast import AccessKind
from repro.runtime.events import LogSchemaError

from ..conftest import access

READ = AccessKind.READ
WRITE = AccessKind.WRITE


def spawn(det, *children):
    """Start ``children`` from thread 0 (sets up join pseudo-locks)."""
    for child in children:
        det.on_thread_start(0, child)


class TestSHBEdges:
    def test_sibling_writes_unordered(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        (report,) = det.reports
        assert report.kind == "write-write"
        assert report.prior_thread == 1
        assert report.current_thread == 2
        assert str(report.location) in {str(l) for l in det.racy_locations}

    def test_start_edge_orders(self):
        det = SHBPredictor()
        det.on_access_parts(*access(1, "x", 0, WRITE))
        spawn(det, 1)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        assert not det.reports

    def test_join_edge_orders(self):
        det = SHBPredictor()
        spawn(det, 1)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_thread_end(1)
        det.on_thread_join(0, 1)
        det.on_access_parts(*access(1, "x", 0, WRITE))
        assert not det.reports

    def test_lock_release_acquire_edge_dropped(self):
        """The defining SHB difference: two critical sections on one
        lock are schedulable in the opposite order, so the lock edge
        that makes HB silent is dropped and SHB reports."""
        shb = SHBPredictor()
        hb = HappensBeforeDetector()
        for det in (shb, hb):
            spawn(det, 1, 2)
            for thread in (1, 2):
                det.on_monitor_enter(thread, 5, reentrant=False)
                det.on_access_parts(*access(1, "x", thread, WRITE))
                det.on_monitor_exit(thread, 5, reentrant=False)
        assert not hb.reports  # HB: ordered via release→acquire.
        (report,) = shb.reports
        assert report.kind == "write-write"

    def test_lock_coupled_write_read_edge(self):
        """A read that sees a same-lock write inherits the writer's
        whole clock: the message-passing idiom stays silent, including
        on the payload field written before the critical section."""
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "y", 1, WRITE))  # Payload, unlocked.
        det.on_monitor_enter(1, 5, reentrant=False)
        det.on_access_parts(*access(1, "x", 1, WRITE))  # Publish under L.
        det.on_monitor_exit(1, 5, reentrant=False)
        det.on_monitor_enter(2, 5, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, READ))  # Consume under L.
        det.on_monitor_exit(2, 5, reentrant=False)
        det.on_access_parts(*access(1, "y", 2, READ))  # Payload read: ordered.
        assert not det.reports

    def test_unlocked_write_not_coupled(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))  # No real lock held.
        det.on_monitor_enter(2, 5, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, READ))
        det.on_monitor_exit(2, 5, reentrant=False)
        (report,) = det.reports
        assert report.kind == "write-read"

    def test_pseudo_locks_never_couple(self):
        """Join pseudo-locks are in every thread's lockset but are not
        real monitors: the write→read edge must ignore them (coupling
        through S_j was proven unsound — both threads joining a dead
        thread k share S_k without any mutual exclusion)."""
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_thread_end(1)
        det.on_thread_join(2, 1)  # Thread 2 now holds S_1 …
        det.on_access_parts(*access(1, "x", 2, READ))  # … but writer held S_1 too.
        # The join *edge* orders this pair, so no report — but assert
        # the mechanism: a fresh sibling pair sharing only pseudo-locks
        # still races.
        assert not det.reports
        det.on_access_parts(*access(2, "z", 0, WRITE))
        spawn(det, 3)
        det.on_thread_end(3)
        det.on_thread_join(0, 3)
        det.on_access_parts(*access(2, "z", 0, WRITE))
        assert not det.reports

    def test_notify_wait_edge(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_notify(1, 7, notify_all=False)
        det.on_wait(2, 7)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert not det.reports

    def test_wait_without_notify_no_edge(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_wait(2, 7)  # Nothing notified cond 7 yet.
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(det.reports) == 1

    def test_read_histories_kept_per_thread(self):
        det = SHBPredictor()
        spawn(det, 1, 2, 3)
        det.on_access_parts(*access(1, "x", 1, READ))
        det.on_access_parts(*access(1, "x", 2, READ))
        det.on_access_parts(*access(1, "x", 3, WRITE))
        assert len(det.reports) == 2
        assert {r.kind for r in det.reports} == {"read-write"}
        assert {r.prior_thread for r in det.reports} == {1, 2}

    def test_write_resets_read_history(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, READ))
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        # One write-write report; the read was absorbed by the same
        # thread's write, not double-reported.
        assert [r.kind for r in det.reports] == ["write-write"]

    def test_report_describe(self):
        det = SHBPredictor()
        spawn(det, 1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        text = det.reports[0].describe()
        assert "predicted write-write race" in text
        assert "#1.x" in text


class TestSHBSupersetOfHB:
    """hb ⊆ shb, pinned on hand-built streams (the property suite
    re-checks it on fuzzed programs)."""

    def drive(self, script):
        shb, hb = SHBPredictor(), HappensBeforeDetector()
        for det in (shb, hb):
            script(det)
        shb_locs = {str(l) for l in shb.racy_locations}
        hb_locs = {str(l) for l in hb.racy_locations}
        assert hb_locs <= shb_locs, (hb_locs, shb_locs)
        return shb_locs, hb_locs

    def test_plain_race(self):
        def script(det):
            spawn(det, 1, 2)
            det.on_access_parts(*access(1, "x", 1, WRITE))
            det.on_access_parts(*access(1, "x", 2, READ))

        shb_locs, hb_locs = self.drive(script)
        assert shb_locs == hb_locs == {"#1.x"}

    def test_lock_ordered_is_strict_superset(self):
        def script(det):
            spawn(det, 1, 2)
            det.on_monitor_enter(1, 5, reentrant=False)
            det.on_access_parts(*access(1, "x", 1, WRITE))
            det.on_monitor_exit(1, 5, reentrant=False)
            det.on_monitor_enter(2, 5, reentrant=False)
            det.on_access_parts(*access(1, "x", 2, WRITE))
            det.on_monitor_exit(2, 5, reentrant=False)

        shb_locs, hb_locs = self.drive(script)
        assert shb_locs == {"#1.x"} and hb_locs == set()

    def test_condition_ordered_agrees(self):
        def script(det):
            spawn(det, 1, 2)
            det.on_access_parts(*access(1, "x", 1, WRITE))
            det.on_notify(1, 9, notify_all=True)
            det.on_wait(2, 9)
            det.on_access_parts(*access(1, "x", 2, WRITE))

        shb_locs, hb_locs = self.drive(script)
        assert shb_locs == hb_locs == set()


class TestHybridConjunct:
    def test_common_lock_filtered(self):
        """The SHB false-positive family the conjunct exists to kill:
        same-lock critical sections can never overlap, so the hybrid
        drops what pure SHB reports."""
        shb = make_predictor("shb")
        hyb = make_predictor("hybrid")
        for det in (shb, hyb):
            spawn(det, 1, 2)
            for thread in (1, 2):
                det.on_monitor_enter(thread, 5, reentrant=False)
                det.on_access_parts(*access(1, "x", thread, WRITE))
                det.on_monitor_exit(thread, 5, reentrant=False)
        assert len(shb.reports) == 1
        assert not hyb.reports

    def test_disjoint_locks_reported(self):
        hyb = HybridPredictor()
        spawn(hyb, 1, 2)
        hyb.on_monitor_enter(1, 5, reentrant=False)
        hyb.on_access_parts(*access(1, "x", 1, WRITE))
        hyb.on_monitor_exit(1, 5, reentrant=False)
        hyb.on_monitor_enter(2, 6, reentrant=False)
        hyb.on_access_parts(*access(1, "x", 2, WRITE))
        hyb.on_monitor_exit(2, 6, reentrant=False)
        assert len(hyb.reports) == 1

    def test_sibling_pseudo_locks_disjoint(self):
        hyb = HybridPredictor()
        spawn(hyb, 1, 2)
        hyb.on_access_parts(*access(1, "x", 1, WRITE))
        hyb.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(hyb.reports) == 1

    def test_conjunct_checks_lockset_at_each_endpoint(self):
        # Prior access locked, current unlocked: disjoint → reported.
        hyb = HybridPredictor()
        spawn(hyb, 1, 2)
        hyb.on_monitor_enter(1, 5, reentrant=False)
        hyb.on_access_parts(*access(1, "x", 1, WRITE))
        hyb.on_monitor_exit(1, 5, reentrant=False)
        hyb.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(hyb.reports) == 1

    def test_hybrid_subset_of_shb(self):
        def script(det):
            spawn(det, 1, 2, 3)
            det.on_monitor_enter(1, 5, reentrant=False)
            det.on_access_parts(*access(1, "x", 1, WRITE))
            det.on_monitor_exit(1, 5, reentrant=False)
            det.on_monitor_enter(2, 5, reentrant=False)
            det.on_access_parts(*access(1, "x", 2, WRITE))
            det.on_monitor_exit(2, 5, reentrant=False)
            det.on_access_parts(*access(1, "y", 3, WRITE))
            det.on_access_parts(*access(1, "y", 1, READ))

        shb, hyb = SHBPredictor(), HybridPredictor()
        for det in (shb, hyb):
            script(det)
        shb_locs = {str(l) for l in shb.racy_locations}
        hyb_locs = {str(l) for l in hyb.racy_locations}
        assert hyb_locs <= shb_locs
        assert hyb_locs == {"#1.y"} and shb_locs == {"#1.x", "#1.y"}


class TestRegistry:
    def test_registry_names(self):
        assert PREDICTORS == ("shb", "hybrid")
        assert isinstance(make_predictor("shb"), SHBPredictor)
        hybrid = make_predictor("hybrid")
        assert isinstance(hybrid, HybridPredictor)
        assert isinstance(hybrid, SHBPredictor)  # shares the engine
        assert (SHBPredictor.name, HybridPredictor.name) == PREDICTORS

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="shb, hybrid"):
            make_predictor("wcp")


class TestPredictRacesInputs:
    """predict_races consumes every log shape through one boundary."""

    SOURCE = """\
class S { field x; }
class W {
  field s;
  def init(a) { this.s = a; }
  def run() { this.s.x = 1; }
}
class Main {
  static def main() {
    var s = new S();
    var w0 = new W(s);
    var w1 = new W(s);
    start w0;
    start w1;
    join w0;
    join w1;
  }
}
"""

    @pytest.fixture(scope="class")
    def sink(self):
        from repro.lang.resolver import compile_source
        from repro.runtime import RecordingSink, run_program

        sink = RecordingSink()
        run_program(compile_source(self.SOURCE), sink=sink)
        return sink

    def reports(self, predictor):
        return [(str(r.location), r.kind, r.prior_thread, r.current_thread)
                for r in predictor.reports]

    def test_recording_sink_and_raw_entries_agree(self, sink):
        via_sink = predict_races(sink, "shb")
        via_list = predict_races(list(sink.log), "shb")
        assert self.reports(via_sink) == self.reports(via_list)
        assert self.reports(via_sink)  # the race is actually there

    def test_binary_path_agrees(self, sink, tmp_path):
        from repro.runtime.binlog import write_binary_log

        bin_path = write_binary_log(sink, tmp_path / "log.mjbl")
        for mode in PREDICTORS:
            baseline = self.reports(predict_races(sink, mode))
            assert self.reports(predict_races(bin_path, mode)) == baseline

    def test_mapped_reader_accepted(self, sink, tmp_path):
        from repro.runtime.binlog import BinaryLogReader, write_binary_log

        path = write_binary_log(sink, tmp_path / "log.mjbl")
        with BinaryLogReader(path) as reader:
            assert self.reports(predict_races(reader, "hybrid")) == (
                self.reports(predict_races(sink, "hybrid"))
            )

    def test_validation_rejects_malformed_entries(self):
        with pytest.raises(LogSchemaError):
            predict_races([("no-such-tag", 1, 2)], "shb")

    def test_unfinalized_binary_log_names_byte_offset(self, sink, tmp_path):
        """Satellite: a crashed recording surfaces a LogSchemaError with
        the offending byte offset through the predictive path too —
        never a bare struct error."""
        from repro.runtime.binlog import BinaryLogSink

        path = tmp_path / "crashed.mjbl"
        crashed = BinaryLogSink(path)
        crashed.on_access_parts(*access(1, "x", 1, WRITE))
        crashed.on_access_parts(*access(1, "x", 2, WRITE))
        crashed._file.flush()  # crash: close() never runs, no finalize
        crashed._file = None
        with pytest.raises(LogSchemaError, match="byte offset 12"):
            predict_races(path)

    def test_truncated_binary_log_rejected(self, sink, tmp_path):
        from repro.runtime.binlog import write_binary_log

        path = write_binary_log(sink, tmp_path / "whole.mjbl")
        data = path.read_bytes()
        clipped = tmp_path / "clipped.mjbl"
        clipped.write_bytes(data[: len(data) - 16])
        with pytest.raises(LogSchemaError, match="byte offset"):
            predict_races(clipped)


class TestWitness:
    def test_json_round_trip(self):
        witness = Witness(location="#1.x", choices=(0, 1, 1, 0, 2))
        payload = witness.to_json()
        assert payload == {"location": "#1.x", "choices": [0, 1, 1, 0, 2]}
        assert Witness.from_json(payload) == witness

    def test_choices_are_immutable(self):
        witness = Witness.from_json({"location": "#1.x", "choices": [1, 2]})
        assert witness.choices == (1, 2)
        with pytest.raises(AttributeError):
            witness.location = "#2.y"
