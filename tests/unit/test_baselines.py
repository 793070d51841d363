"""Unit tests for the baseline detectors (Eraser, object race, HB)."""

from repro.baselines import (
    EraserDetector,
    HappensBeforeDetector,
    ObjectRaceDetector,
    VectorClock,
)
from repro.lang.ast import AccessKind

from ..conftest import access

READ = AccessKind.READ
WRITE = AccessKind.WRITE


class TestEraser:
    def test_virgin_to_exclusive_silent(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 1, WRITE))
        assert not det.reports

    def test_unlocked_sharing_reported(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.object_count == 1

    def test_consistent_lock_discipline_silent(self):
        det = EraserDetector()
        for thread in (1, 2, 1):
            det.on_monitor_enter(thread, 9, reentrant=False)
            det.on_access_parts(*access(1, "f", thread, WRITE))
            det.on_monitor_exit(thread, 9, reentrant=False)
        assert not det.reports

    def test_read_sharing_without_writes_silent(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        det.on_access_parts(*access(1, "f", 3, READ))
        assert not det.reports

    def test_write_after_read_sharing_reported(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        det.on_access_parts(*access(1, "f", 3, WRITE))
        assert det.object_count == 1

    def test_initialization_pattern_tolerated(self):
        # Eraser's Exclusive state absorbs unlocked initialization by
        # one thread before handoff under consistent locking.
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, READ))
        det.on_monitor_exit(2, 9, reentrant=False)
        assert not det.reports

    def test_single_common_lock_requirement(self):
        """Mutually-intersecting-but-no-common-lock → Eraser reports
        (the Section 8.3 difference)."""
        det = EraserDetector(join_pseudolocks=True)
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        # Children update the statistics repeatedly under the common
        # lock (as mtrt's do).  Eraser's candidate set starts at the
        # first *shared* access, so the repeat visits are what drive it
        # down to {50}.
        for _ in range(2):
            for child in (1, 2):
                det.on_monitor_enter(child, 50, reentrant=False)
                det.on_access_parts(*access(1, "f", child, WRITE))
                det.on_monitor_exit(child, 50, reentrant=False)
        det.on_thread_end(1)
        det.on_thread_end(2)
        det.on_thread_join(0, 1)
        det.on_thread_join(0, 2)
        assert det.object_count == 0  # So far the discipline holds.
        det.on_access_parts(*access(1, "f", 0, READ))
        # Candidate set {50} ∩ parent's {S1, S2} = ∅ → spurious report.
        assert det.object_count == 1

    def test_one_report_per_location(self):
        det = EraserDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        det.on_access_parts(*access(1, "f", 1, WRITE))
        assert len(det.reports) == 1


class TestObjectRaceDetector:
    def test_field_granularity_confusion(self):
        # Field f is written under lock by thread 2; field g is read
        # lock-free by thread 3.  Per-field there is no race; at object
        # granularity the candidate set empties with a write present.
        det = ObjectRaceDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))  # Owner (thread 1).
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, WRITE))  # Shared transition.
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "g", 3, READ))  # Lock-free other field.
        assert det.object_count == 1

    def test_ownership_filters_initialization(self):
        det = ObjectRaceDetector()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 1, WRITE))
        assert det.object_count == 0

    def test_consistent_object_lock_silent(self):
        det = ObjectRaceDetector()
        for thread in (1, 2, 3):
            det.on_monitor_enter(thread, 9, reentrant=False)
            det.on_access_parts(*access(1, "f", thread, WRITE))
            det.on_monitor_exit(thread, 9, reentrant=False)
        assert det.object_count == 0

    def test_reads_only_never_reported(self):
        det = ObjectRaceDetector()
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "g", 2, READ))
        det.on_access_parts(*access(1, "h", 3, READ))
        assert det.object_count == 0


class TestVectorClock:
    def test_join_takes_maximum(self):
        a = VectorClock({1: 3, 2: 1})
        a.join({1: 2, 2: 5, 3: 7})
        assert a == {1: 3, 2: 5, 3: 7}

    def test_happened_before(self):
        a = VectorClock({1: 3})
        assert a.happened_before(1, 3)
        assert a.happened_before(1, 2)
        assert not a.happened_before(1, 4)
        assert not a.happened_before(2, 1)


class TestHappensBefore:
    def test_unordered_writes_race(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.object_count == 1

    def test_start_edge_orders_parent_init(self):
        det = HappensBeforeDetector()
        det.on_access_parts(*access(1, "f", 0, WRITE))
        det.on_thread_start(0, 1)
        det.on_access_parts(*access(1, "f", 1, READ))
        assert det.object_count == 0

    def test_join_edge_orders_post_join_reads(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_thread_join(0, 1)
        det.on_access_parts(*access(1, "f", 0, READ))
        assert det.object_count == 0

    def test_lock_edge_hides_feasible_race(self):
        """Section 2.2: the acquisition order creates an HB edge and the
        feasible race disappears for an HB detector."""
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        # Thread 1: unlocked write, then a critical section on lock 9.
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_monitor_enter(1, 9, reentrant=False)
        det.on_monitor_exit(1, 9, reentrant=False)
        # Thread 2: critical section on 9 *after* thread 1's, then a
        # write — HB-ordered after thread 1's write via the lock.
        det.on_monitor_enter(2, 9, reentrant=False)
        det.on_monitor_exit(2, 9, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.object_count == 0  # HB misses the feasible race.

    def test_read_write_race(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.object_count == 1

    def test_write_read_race(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, READ))
        assert det.object_count == 1

    def test_read_read_no_race(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        assert det.object_count == 0

    def test_lock_protected_accesses_ordered(self):
        det = HappensBeforeDetector()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        for thread in (1, 2):
            det.on_monitor_enter(thread, 9, reentrant=False)
            det.on_access_parts(*access(1, "f", thread, WRITE))
            det.on_monitor_exit(thread, 9, reentrant=False)
        assert det.object_count == 0
