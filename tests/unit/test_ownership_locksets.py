"""Unit tests for the ownership filter (Section 7) and lockset tracking."""

import pytest

from repro.detector import (
    SHARED,
    LockTracker,
    OwnershipFilter,
    join_pseudo_lock,
)
from repro.runtime.events import LogCorruptError


class TestOwnershipFilter:
    def test_first_access_claims_ownership_and_is_filtered(self):
        own = OwnershipFilter()
        admit, transitioned = own.admit("m", 1)
        assert not admit and not transitioned
        assert own.owner_of("m") == 1

    def test_owner_accesses_stay_filtered(self):
        own = OwnershipFilter()
        own.admit("m", 1)
        admit, transitioned = own.admit("m", 1)
        assert not admit and not transitioned

    def test_second_thread_triggers_transition(self):
        own = OwnershipFilter()
        own.admit("m", 1)
        admit, transitioned = own.admit("m", 2)
        assert admit and transitioned
        assert own.is_shared("m")

    def test_after_transition_everything_admitted(self):
        own = OwnershipFilter()
        own.admit("m", 1)
        own.admit("m", 2)
        admit, transitioned = own.admit("m", 1)
        assert admit and not transitioned

    def test_locations_independent(self):
        own = OwnershipFilter()
        own.admit("a", 1)
        own.admit("a", 2)
        admit, _ = own.admit("b", 2)
        assert not admit
        assert own.owner_of("b") == 2

    def test_stats(self):
        own = OwnershipFilter()
        own.admit("m", 1)
        own.admit("m", 1)
        own.admit("m", 2)
        own.admit("m", 3)
        assert own.stats.owned_filtered == 2
        assert own.stats.transitions == 1
        assert own.stats.shared_passed == 1

    def test_owner_of_untouched_location_is_none(self):
        assert OwnershipFilter().owner_of("ghost") is None


class TestLockTracker:
    def test_empty_lockset(self):
        tracker = LockTracker()
        assert tracker.lockset(1) == frozenset()

    def test_enter_exit_roundtrip(self):
        tracker = LockTracker()
        tracker.enter(1, 10)
        assert tracker.lockset(1) == frozenset({10})
        tracker.exit(1, 10)
        assert tracker.lockset(1) == frozenset()

    def test_nested_locks(self):
        tracker = LockTracker()
        tracker.enter(1, 10)
        tracker.enter(1, 20)
        assert tracker.lockset(1) == frozenset({10, 20})
        assert tracker.last_real_lock(1) == 20
        tracker.exit(1, 20)
        assert tracker.last_real_lock(1) == 10

    def test_non_lifo_exit_asserts(self):
        tracker = LockTracker()
        tracker.enter(1, 10)
        tracker.enter(1, 20)
        with pytest.raises(LogCorruptError, match="thread 1 releases lock 10"):
            tracker.exit(1, 10)
        with pytest.raises(LogCorruptError, match="holding \\[\\]"):
            tracker.exit(2, 10)

    def test_threads_independent(self):
        tracker = LockTracker()
        tracker.enter(1, 10)
        assert tracker.lockset(2) == frozenset()

    def test_pseudo_locks_join_the_lockset(self):
        tracker = LockTracker()
        tracker.acquire_pseudo(1, join_pseudo_lock(1))
        tracker.enter(1, 10)
        assert tracker.lockset(1) == frozenset({10, join_pseudo_lock(1)})

    def test_pseudo_locks_are_not_eviction_anchors(self):
        tracker = LockTracker()
        tracker.acquire_pseudo(1, join_pseudo_lock(3))
        assert tracker.last_real_lock(1) is None

    def test_release_pseudo(self):
        tracker = LockTracker()
        tracker.acquire_pseudo(1, join_pseudo_lock(1))
        tracker.release_pseudo(1, join_pseudo_lock(1))
        assert tracker.lockset(1) == frozenset()

    def test_pseudo_lock_ids_negative_and_distinct(self):
        assert join_pseudo_lock(0) == -1
        assert join_pseudo_lock(5) == -6
        assert join_pseudo_lock(0) != join_pseudo_lock(1)

    def test_holds(self):
        tracker = LockTracker()
        tracker.enter(1, 10)
        assert tracker.holds(1, 10)
        assert not tracker.holds(1, 11)

    def test_lockset_cache_invalidation(self):
        tracker = LockTracker()
        first = tracker.lockset(1)
        tracker.enter(1, 10)
        second = tracker.lockset(1)
        assert first != second
        tracker.exit(1, 10)
        assert tracker.lockset(1) == frozenset()
