"""Unit tests for the hot-path interning layer: canonical location
keys, canonical versioned locksets, and the tuple-encoded event log."""

from repro.detector import LockTracker, RaceDetector
from repro.lang.ast import AccessKind
from repro.runtime import (
    LocationInterner,
    LogStatsSink,
    MemoryLocation,
    ObjectKind,
    RecordingSink,
    replay_entries,
)

from ..conftest import access

READ = AccessKind.READ
WRITE = AccessKind.WRITE


class TestLocationInterner:
    def test_same_pair_same_object(self):
        interner = LocationInterner()
        first = interner.intern(7, "x")
        second = interner.intern(7, "x")
        assert first is second
        assert first == MemoryLocation(7, "x")

    def test_distinct_pairs_distinct_objects(self):
        interner = LocationInterner()
        assert interner.intern(7, "x") is not interner.intern(7, "y")
        assert interner.intern(7, "x") is not interner.intern(8, "x")

    def test_len_counts_distinct_pairs(self):
        interner = LocationInterner()
        interner.intern(1, "a")
        interner.intern(1, "a")
        interner.intern(1, "b")
        interner.intern(2, "a")
        assert len(interner) == 3


class TestLocksetInterning:
    def test_same_value_same_object_across_threads(self):
        tracker = LockTracker()
        tracker.enter(1, 42)
        tracker.enter(2, 42)
        assert tracker.lockset(1) is tracker.lockset(2)

    def test_empty_lockset_is_canonical(self):
        tracker = LockTracker()
        assert tracker.lockset(1) is tracker.lockset(2)
        assert tracker.lockset(1) == frozenset()

    def test_reacquisition_reuses_interned_value(self):
        tracker = LockTracker()
        tracker.enter(1, 42)
        first = tracker.lockset(1)
        tracker.exit(1, 42)
        tracker.enter(1, 42)
        assert tracker.lockset(1) is first
        # {}, {42} — two distinct values ever seen.
        assert tracker.interned_locksets == 2

    def test_version_ticks_on_every_mutation(self):
        tracker = LockTracker()
        assert tracker.version(1) == 0
        tracker.enter(1, 42)
        assert tracker.version(1) == 1
        tracker.exit(1, 42)
        assert tracker.version(1) == 2
        tracker.acquire_pseudo(1, -1)
        assert tracker.version(1) == 3
        assert tracker.version(2) == 0

    def test_version_stable_across_queries(self):
        tracker = LockTracker()
        tracker.enter(1, 42)
        before = tracker.version(1)
        tracker.lockset(1)
        tracker.lockset(1)
        assert tracker.version(1) == before

    def test_mixed_real_and_pseudo_locks(self):
        tracker = LockTracker()
        tracker.enter(1, 42)
        tracker.acquire_pseudo(1, -1)
        tracker.enter(2, 42)
        tracker.acquire_pseudo(2, -1)
        assert tracker.lockset(1) is tracker.lockset(2)
        assert tracker.lockset(1) == frozenset({42, -1})


class TestRecordingSinkEncoding:
    def _event(self, uid=3, field="x", thread=1, kind=WRITE, site=9):
        return access(uid, field, thread, kind, site)

    def test_access_stored_as_tuple(self):
        sink = RecordingSink()
        sink.on_access_parts(*self._event())
        assert sink.log == [
            (RecordingSink.ACCESS, 3, "x", 1, WRITE, 9,
             ObjectKind.INSTANCE, "Obj#3")
        ]

    def test_access_count_ignores_sync_entries(self):
        sink = RecordingSink()
        sink.on_access_parts(*self._event())
        sink.on_monitor_enter(1, 42, False)
        sink.on_monitor_exit(1, 42, False)
        sink.on_access_parts(*self._event())
        assert sink.access_count == 2
        assert len(sink.log) == 4

    def test_replay_entries_delivers_parts(self):
        sink = RecordingSink()
        sink.on_access_parts(*self._event())
        sink.on_monitor_enter(1, 42, False)
        counter = LogStatsSink()
        replay_entries(sink.log, counter)
        assert counter.counts[RecordingSink.ACCESS] == 1
        assert counter.counts[RecordingSink.ENTER] == 1

    def test_recording_replay_recording_is_identity(self):
        sink = RecordingSink()
        sink.on_access_parts(*self._event())
        sink.on_thread_start(0, 1)
        sink.on_access_parts(*self._event(thread=1, kind=READ))
        sink.on_thread_end(1)
        sink.on_thread_join(0, 1)
        copy = RecordingSink()
        sink.replay_into(copy)
        assert copy.log == sink.log


class TestDetectorPartsPath:
    def _drive(self, detector):
        detector.on_thread_start(0, 1)
        detector.on_thread_start(0, 2)
        for thread in (1, 2):
            detector.on_access_parts(
                5, "x", thread, WRITE, 11, ObjectKind.INSTANCE, "Obj#5"
            )

    def test_reported_event_uses_interned_location(self):
        from repro.detector import DetectorConfig

        detector = RaceDetector(config=DetectorConfig(ownership=False))
        self._drive(detector)
        assert detector.stats.races_reported == 1
        (report,) = detector.reports.reports
        assert report.current.location is report.key
        assert report.key is detector.location_record(5, "x").key
