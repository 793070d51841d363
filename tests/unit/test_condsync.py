"""Condition synchronization: wait/notify/barrier semantics end-to-end.

Covers the interpreter (blocking, monitor release, FIFO wakeup, cyclic
barriers, error cases, lost-wakeup deadlocks), the sink event ordering
invariant (a releasing notify always precedes the wait entry in the
log), record/replay determinism of the wakeup choice, the HB detector's
condition edges, and the lockset baselines' deferral-through-handoff
behaviour built on :class:`SyncClocks`.
"""

import pytest

from repro.baselines import (
    EraserDetector,
    HappensBeforeDetector,
    ObjectRaceDetector,
)
from repro.baselines.condsync import SyncClocks
from repro.lang import compile_source
from repro.lang.ast import AccessKind
from repro.lang.errors import MJRuntimeError
from repro.runtime import (
    DeadlockError,
    RandomPolicy,
    RecordingSink,
    record_run,
    replay_run,
    run_program,
)

from ..conftest import access, run_source

READ = AccessKind.READ
WRITE = AccessKind.WRITE


# Main waits on the flag the child sets: under round-robin, main runs
# first, finds the flag unset, and must genuinely suspend before the
# child ever executes — so the program exercises a real wait on every
# schedule.
HANDSHAKE = """
class Main {
  static def main() {
    var s = new Shared();
    var c = new Child(s);
    start c;
    sync (s) {
      while (s.flag != 1) { wait s; }
    }
    print s.payload;
    join c;
  }
}
class Shared { field flag; field payload; }
class Child {
  field s;
  def init(s) { this.s = s; }
  def run() {
    this.s.payload = 42;
    sync (this.s) {
      this.s.flag = 1;
      notify this.s;
    }
  }
}
"""


class TestWaitNotify:
    def test_wait_blocks_until_notify(self):
        result = run_source(HANDSHAKE)
        assert result.output == ["42"]

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
    def test_handshake_deterministic_under_random_schedules(self, seed):
        assert run_source(HANDSHAKE, seed=seed).output == ["42"]

    def test_wait_releases_monitor(self):
        # The suspension is logged as a monitor release (exit) and the
        # wakeup as a reacquisition (enter), so lockset/HB consumers see
        # a sound monitor stream.  The child's enter on the same object
        # lands strictly inside main's release window.
        sink = RecordingSink()
        run_source(HANDSHAKE, sink=sink)
        main_enters = [
            i
            for i, e in enumerate(sink.log)
            if e[0] == RecordingSink.ENTER and e[1] == 0
        ]
        main_release = min(
            i
            for i, e in enumerate(sink.log)
            if e[0] == RecordingSink.EXIT and e[1] == 0
        )
        child_enter = min(
            i
            for i, e in enumerate(sink.log)
            if e[0] == RecordingSink.ENTER and e[1] == 1
        )
        assert len(main_enters) == 2  # initial acquire + wakeup reacquire
        assert main_enters[0] < main_release < child_enter < main_enters[1]

    def test_notify_precedes_wait_in_log(self):
        # The wait entry is emitted at wakeup-return, so the releasing
        # notify always appears first — the ordering the HB condition
        # clocks rely on.
        sink = RecordingSink()
        run_source(HANDSHAKE, sink=sink)
        notify_at = next(
            i for i, e in enumerate(sink.log) if e[0] == RecordingSink.NOTIFY
        )
        wait_at = next(
            i for i, e in enumerate(sink.log) if e[0] == RecordingSink.WAIT
        )
        assert notify_at < wait_at
        # Both target the same condition object.
        assert sink.log[notify_at][2] == sink.log[wait_at][2]

    def test_notifyall_wakes_all_waiters(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            var a = new Waiter(s);
            var b = new Waiter(s);
            start a; start b;
            sync (s) {
              while (s.parked != 2) { wait s; }
              s.go = 1;
              notifyall s;
            }
            join a; join b;
            print s.done;
          }
        }
        class Shared { field parked; field go; field done; }
        class Waiter {
          field s;
          def init(s) { this.s = s; }
          def run() {
            var s = this.s;
            sync (s) {
              s.parked = s.parked + 1;
              notifyall s;
              while (s.go != 1) { wait s; }
              s.done = s.done + 1;
            }
          }
        }
        """
        # Main's guard makes the uninitialized-field arithmetic safe:
        # ``parked`` starts null, so seed the counters first.
        source = source.replace(
            "var a = new Waiter(s);",
            "s.parked = 0; s.done = 0; var a = new Waiter(s);",
        )
        for seed in (None, 0, 3, 9):
            assert run_source(source, seed=seed).output == ["2"]

    def test_notify_wakes_oldest_waiter_first(self):
        # Waiter 1 is provably parked before waiter 2: each waiter bumps
        # the ready counter (signalled on a second condition object)
        # while already holding the parking monitor ``s``, which it only
        # releases by waiting — so once main's guarded wait on ``t``
        # sees the count, the bumper is in ``s``'s wait set before main
        # can possibly notify.  A single notify must wake the
        # FIFO-oldest, waiter 1 — were waiter 2 woken instead,
        # ``join a`` would deadlock and the test would fail.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            var t = new Shared();
            t.n = 0;
            var a = new Waiter(s, t, 1);
            var b = new Waiter(s, t, 2);
            start a;
            sync (t) { while (t.n != 1) { wait t; } }
            start b;
            sync (t) { while (t.n != 2) { wait t; } }
            sync (s) { notify s; }
            join a;
            sync (s) { notifyall s; }
            join b;
          }
        }
        class Shared { field n; }
        class Waiter {
          field s; field t; field tag;
          def init(s, t, tag) { this.s = s; this.t = t; this.tag = tag; }
          def run() {
            var s = this.s;
            var t = this.t;
            sync (s) {
              sync (t) { t.n = t.n + 1; notifyall t; }
              wait s;
              print this.tag;
            }
          }
        }
        """
        result = run_source(source)
        assert result.output == ["1", "2"]

    def test_lost_wakeup_reports_deadlock(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            sync (s) { wait s; }
          }
        }
        class Shared { field x; }
        """
        with pytest.raises(DeadlockError) as exc:
            run_source(source)
        assert "waits on monitor" in str(exc.value)

    def test_record_replay_reproduces_wakeup_choice(self):
        # Under RandomPolicy the notify wakeup choice is a recorded
        # decision; replaying must reproduce the event stream exactly.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.parked = 0;
            var a = new Waiter(s, 1);
            var b = new Waiter(s, 2);
            var c = new Waiter(s, 3);
            start a; start b; start c;
            sync (s) { while (s.parked != 3) { wait s; } }
            sync (s) { notify s; }
            sync (s) { notify s; }
            sync (s) { notify s; }
            join a; join b; join c;
          }
        }
        class Shared { field parked; }
        class Waiter {
          field s; field tag;
          def init(s, tag) { this.s = s; this.tag = tag; }
          def run() {
            var s = this.s;
            sync (s) {
              s.parked = s.parked + 1;
              notifyall s;
              wait s;
              print this.tag;
            }
          }
        }
        """
        resolved = compile_source(source)
        for seed in range(4):
            recorded = RecordingSink()
            result, trace = record_run(
                resolved, sink=recorded, inner_policy=RandomPolicy(seed)
            )
            replayed = RecordingSink()
            replay_result = replay_run(resolved, trace, sink=replayed)
            assert replayed.log == recorded.log
            assert replay_result.output == result.output


class TestWaitNotifyErrors:
    def _expect(self, body, message):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            var t = new Shared();
            BODY
          }
        }
        class Shared { field x; }
        """.replace("BODY", body)
        with pytest.raises(MJRuntimeError) as exc:
            run_source(source)
        assert message in str(exc.value)

    def test_wait_without_monitor(self):
        self._expect("wait s;", "wait without holding the monitor")

    def test_wait_not_innermost(self):
        self._expect(
            "sync (s) { sync (t) { wait s; } }",
            "innermost held monitor",
        )

    def test_notify_without_monitor(self):
        self._expect("notify s;", "without holding the monitor")

    def test_notifyall_without_monitor(self):
        self._expect("notifyall s;", "without holding the monitor")

    def test_wait_on_non_object(self):
        self._expect("sync (s) { wait 5; }", "requires an object")

    def test_notify_on_null(self):
        self._expect("sync (s) { notify s.x; }", "requires an object")


BARRIER_PAIR = """
class Main {
  static def main() {
    var s = new Shared();
    s.x = 0;
    var a = new W1(s);
    var b = new W2(s);
    start a; start b;
    join a; join b;
    print s.x;
  }
}
class Shared { field x; }
class W1 {
  field s;
  def init(s) { this.s = s; }
  def run() {
    this.s.x = 1;
    barrier this.s, 2;
    barrier this.s, 2;
    print this.s.x;
  }
}
class W2 {
  field s;
  def init(s) { this.s = s; }
  def run() {
    barrier this.s, 2;
    this.s.x = 2;
    barrier this.s, 2;
  }
}
"""


class TestBarrier:
    @pytest.mark.parametrize("seed", [None, 0, 1, 5, 13])
    def test_phases_order_accesses(self, seed):
        # W1's write lands in phase 0, W2's in phase 1, W1's read in
        # phase 2 — the barrier fences make the output deterministic
        # under every schedule.
        result = run_source(BARRIER_PAIR, seed=seed)
        assert result.output == ["2", "2"]

    def test_cyclic_reuse_across_generations(self):
        # One barrier object serves many generations; a counter bumped
        # once per phase by a designated thread stays exact.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.n = 0;
            var a = new W(s, 1);
            var b = new W(s, 0);
            start a; start b;
            join a; join b;
            print s.n;
          }
        }
        class Shared { field n; }
        class W {
          field s; field leader;
          def init(s, leader) { this.s = s; this.leader = leader; }
          def run() {
            var i = 0;
            while (i < 5) {
              if (this.leader == 1) { this.s.n = this.s.n + 1; }
              barrier this.s, 2;
              i = i + 1;
            }
          }
        }
        """
        for seed in (None, 2, 8):
            assert run_source(source, seed=seed).output == ["5"]

    def test_single_party_barrier_is_a_no_op(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            barrier s, 1;
            barrier s, 1;
            print 1;
          }
        }
        class Shared { field x; }
        """
        assert run_source(source).output == ["1"]

    def test_party_count_mismatch(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            var a = new W(s, 2);
            var b = new W(s, 3);
            start a; start b;
            join a; join b;
          }
        }
        class Shared { field x; }
        class W {
          field s; field n;
          def init(s, n) { this.s = s; this.n = n; }
          def run() { barrier this.s, this.n; }
        }
        """
        with pytest.raises(MJRuntimeError) as exc:
            run_source(source)
        assert "party count mismatch" in str(exc.value)

    def test_non_positive_parties(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            barrier s, 0;
          }
        }
        class Shared { field x; }
        """
        with pytest.raises(MJRuntimeError) as exc:
            run_source(source)
        assert "positive integer" in str(exc.value)

    def test_barrier_on_non_object(self):
        source = """
        class Main {
          static def main() { barrier 7, 1; }
        }
        """
        with pytest.raises(MJRuntimeError) as exc:
            run_source(source)
        assert "requires an object" in str(exc.value)

    def test_missing_party_reports_deadlock(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            barrier s, 2;
          }
        }
        class Shared { field x; }
        """
        with pytest.raises(DeadlockError) as exc:
            run_source(source)
        assert "barrier" in str(exc.value)


class TestSyncClocks:
    def test_inert_without_events(self):
        clocks = SyncClocks()
        assert not clocks.ordered(clocks.epoch(1), 2)

    def test_notify_then_wait_orders(self):
        clocks = SyncClocks()
        epoch = clocks.epoch(1)
        clocks.on_notify(1, 9)
        clocks.on_wait(2, 9)
        assert clocks.ordered(epoch, 2)

    def test_notifier_later_epoch_not_ordered(self):
        # The notifier advances past the published epoch, so accesses it
        # performs *after* the notify are not ordered before the waiter.
        clocks = SyncClocks()
        clocks.on_notify(1, 9)
        after = clocks.epoch(1)
        clocks.on_wait(2, 9)
        assert not clocks.ordered(after, 2)

    def test_wait_before_any_notify_is_noop(self):
        clocks = SyncClocks()
        epoch = clocks.epoch(1)
        clocks.on_wait(2, 9)
        clocks.on_notify(1, 9)
        assert not clocks.ordered(epoch, 2)

    def test_same_thread_always_ordered(self):
        clocks = SyncClocks()
        assert clocks.ordered(clocks.epoch(3), 3)


class TestEraserDeferral:
    def test_handoff_keeps_exclusive(self):
        # Owner's last access happens-before the new thread's first
        # (through a condition edge): Eraser defers — stays Exclusive,
        # no report even though the accesses share no lock.
        det = EraserDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_notify(1, 9, notify_all=True)
        det.on_monitor_exit(1, 9, reentrant=False)
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_wait(2, 9)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert not det.reports

    def test_unordered_transfer_still_reported(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert det.object_count == 1

    def test_handoff_chain_transfers_ownership(self):
        # After the handoff the *new* thread owns the location: a third
        # unordered thread then demotes it and reports.
        det = EraserDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_notify(1, 9, notify_all=True)
        det.on_monitor_exit(1, 9, reentrant=False)
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_wait(2, 9)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        det.on_access_parts(*access(1, "x", 3, WRITE))
        assert det.object_count == 1


class TestObjectRaceDeferral:
    def test_handoff_keeps_object_owned(self):
        det = ObjectRaceDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_notify(1, 9, notify_all=True)
        det.on_monitor_exit(1, 9, reentrant=False)
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_wait(2, 9)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert not det.reports

    def test_unordered_transfer_reported(self):
        det = ObjectRaceDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert det.object_count == 1


class TestHappensBeforeConditionEdges:
    def test_condition_edge_orders_handoff(self):
        det = HappensBeforeDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_notify(1, 9, notify_all=False)
        det.on_monitor_exit(1, 9, reentrant=False)
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_wait(2, 9)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert not det.reports

    def test_without_edge_reports(self):
        det = HappensBeforeDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(det.reports) == 1

    def test_notifier_tail_unordered_with_waiter(self):
        # Accesses the notifier performs after the notify race with the
        # woken waiter's accesses.
        det = HappensBeforeDetector()
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_notify(1, 9, notify_all=False)
        det.on_monitor_exit(1, 9, reentrant=False)
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_wait(2, 9)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(det.reports) == 1

    def test_join_of_unseen_thread_fabricates_no_epoch(self):
        # Regression: joining a thread that never emitted an event must
        # not invent a ``{tid: 1}`` epoch.  If it did, the joined
        # thread's real first access (seen later — e.g. in a sharded
        # partition) would appear ordered before the joiner's, hiding
        # the race asserted here.
        det = HappensBeforeDetector()
        det.on_access_parts(*access(1, "x", 1, WRITE))
        det.on_thread_join(1, 2)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        assert len(det.reports) == 1

    def test_join_of_seen_thread_still_orders(self):
        det = HappensBeforeDetector()
        det.on_thread_start(1, 2)
        det.on_access_parts(*access(1, "x", 2, WRITE))
        det.on_thread_end(2)
        det.on_thread_join(1, 2)
        det.on_access_parts(*access(1, "x", 1, WRITE))
        assert not det.reports
