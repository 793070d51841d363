"""Unit tests for the per-thread access caches (Section 4).

Every test drives :meth:`AccessCache.access_tracked`, the one entry
point, with a real :class:`LockTracker`, the way :class:`RaceDetector`
does: a miss anchors its entry to the thread's most recently acquired
real lock, and an outermost monitorexit releases the lock in the
tracker and then evicts the lock's entries.
"""

import os
import subprocess
import sys
import zlib

import pytest

import repro
from repro.detector import (
    AccessCache,
    CacheStats,
    DetectorConfig,
    LockTracker,
    RaceDetector,
)
from repro.detector.cache import _HASH_MULTIPLIER, _MASK32, key_slot
from repro.lang.ast import AccessKind
from repro.runtime.events import MemoryLocation

from ..conftest import access

READ = AccessKind.READ
WRITE = AccessKind.WRITE


class TrackedCache:
    """An access cache plus the lock tracker that anchors its entries."""

    def __init__(self, size: int = 256):
        self.cache = AccessCache(size)
        self.locks = LockTracker()
        self.stats = self.cache.stats

    def access(self, thread_id, key, kind=READ) -> bool:
        return self.cache.access_tracked(thread_id, key, kind, self.locks)

    def enter(self, thread_id, lock_uid) -> None:
        self.locks.enter(thread_id, lock_uid)

    def exit(self, thread_id, lock_uid) -> None:
        self.locks.exit(thread_id, lock_uid)
        self.cache.on_lock_release(thread_id, lock_uid)

    def listed_entries(self, thread_id=1, kind=READ) -> tuple[int, int]:
        caches = self.cache._threads[thread_id]
        return (caches.write if kind is WRITE else caches.read).listed_entries


class TestBasicLookup:
    def test_miss_on_empty_cache(self):
        cache = TrackedCache()
        assert not cache.access(1, "m")
        assert cache.stats.misses == 1

    def test_hit_after_insert(self):
        cache = TrackedCache()
        cache.access(1, "m")
        assert cache.access(1, "m")
        assert cache.stats.hits == 1

    def test_read_and_write_caches_are_separate(self):
        cache = TrackedCache()
        cache.access(1, "m", READ)
        assert not cache.access(1, "m", WRITE)

    def test_write_does_not_satisfy_read_by_default(self):
        # Faithful to the paper: reads consult only the read cache.
        cache = TrackedCache()
        cache.access(1, "m", WRITE)
        assert not cache.access(1, "m", READ)

    def test_threads_have_independent_caches(self):
        cache = TrackedCache()
        cache.access(1, "m")
        assert not cache.access(2, "m")

    def test_different_locations_do_not_collide_logically(self):
        cache = TrackedCache()
        cache.access(1, "a")
        assert not cache.access(1, "b")


class TestConflictEviction:
    def test_direct_mapped_conflict_evicts_old_entry(self):
        # Size-1 cache: every distinct key maps to the same slot.
        cache = TrackedCache(size=1)
        cache.access(1, "a")
        cache.access(1, "b")
        assert cache.stats.conflict_evictions == 1
        assert cache.access(1, "b")
        assert not cache.access(1, "a")

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            AccessCache(size=0)


class TestLockEviction:
    def test_release_evicts_anchored_entries(self):
        cache = TrackedCache()
        cache.enter(1, 77)
        cache.access(1, "m")
        cache.exit(1, 77)
        assert cache.stats.lock_evictions == 1
        assert not cache.access(1, "m")

    def test_anchor_is_the_innermost_lock(self):
        cache = TrackedCache()
        cache.enter(1, 5)
        cache.enter(1, 6)
        cache.access(1, "m")
        cache.exit(1, 6)
        assert not cache.access(1, "m")

    def test_release_of_other_lock_keeps_entry(self):
        cache = TrackedCache()
        cache.enter(1, 77)
        cache.access(1, "m")
        cache.enter(1, 78)
        cache.exit(1, 78)
        assert cache.access(1, "m")

    def test_unanchored_entry_survives_all_releases(self):
        cache = TrackedCache()
        cache.access(1, "m")
        cache.enter(1, 77)
        cache.exit(1, 77)
        assert cache.access(1, "m")

    def test_release_only_affects_that_thread(self):
        cache = TrackedCache()
        cache.enter(1, 77)
        cache.enter(2, 77)
        cache.access(1, "m")
        cache.access(2, "m")
        cache.exit(1, 77)
        assert cache.access(2, "m")

    def test_release_evicts_both_read_and_write_entries(self):
        cache = TrackedCache()
        cache.enter(1, 5)
        cache.access(1, "m", READ)
        cache.access(1, "m", WRITE)
        cache.exit(1, 5)
        assert not cache.access(1, "m", READ)
        assert not cache.access(1, "m", WRITE)

    def test_conflict_evicted_entry_not_double_freed_by_release(self):
        cache = TrackedCache(size=1)
        cache.enter(1, 3)
        cache.access(1, "a")
        cache.access(1, "b")  # Conflict-evicts "a".
        cache.exit(1, 3)  # Must evict only "b".
        assert cache.stats.lock_evictions == 1

    def test_hit_never_queries_the_lock_stack(self):
        # Anchoring is lazy: only a miss asks for the anchor lock.
        class CountingTracker(LockTracker):
            queries = 0

            def last_real_lock(self, thread_id):
                CountingTracker.queries += 1
                return super().last_real_lock(thread_id)

        cache = AccessCache()
        locks = CountingTracker()
        assert not cache.access_tracked(1, "m", READ, locks)
        assert cache.access_tracked(1, "m", READ, locks)
        assert CountingTracker.queries == 1

    def test_detector_hit_never_reads_the_lock_stack(self):
        # The detector's inlined copy of access_tracked reads the
        # tracker's lock stacks directly, and only on a miss.
        class CountingStacks(dict):
            reads = 0

            def get(self, *args):
                CountingStacks.reads += 1
                return super().get(*args)

        detector = RaceDetector(DetectorConfig(ownership=False))
        stacks = CountingStacks()
        detector.locks._stacks = detector._lock_stacks = stacks
        detector.on_monitor_enter(1, 77, False)
        detector.on_access_parts(*access(5, "f", 1, READ))
        # The miss anchors its entry (and the trie's lockset lookup
        # reads the stack once more).
        assert CountingStacks.reads > 0
        after_miss = CountingStacks.reads
        detector.on_access_parts(*access(5, "f", 1, READ))
        assert detector.cache.stats.hits == 1
        assert CountingStacks.reads == after_miss


class TestStats:
    def test_hit_rate(self):
        cache = TrackedCache()
        cache.access(1, "m")
        cache.access(1, "m")
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert AccessCache().stats.hit_rate == 0.0

    def test_merge_accumulates_all_counters(self):
        a = CacheStats(hits=1, misses=2, conflict_evictions=3,
                       lock_evictions=4, list_compactions=6)
        b = CacheStats(hits=10, misses=20, conflict_evictions=30,
                       lock_evictions=40, list_compactions=60)
        a.merge(b)
        assert (a.hits, a.misses, a.conflict_evictions, a.lock_evictions,
                a.list_compactions) == (11, 22, 33, 44, 66)


class TestFusedAccess:
    def test_access_counts_one_hit_or_miss(self):
        cache = TrackedCache()
        assert not cache.access(1, "m")
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.access(1, "m")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_access_miss_records_the_access(self):
        cache = TrackedCache()
        cache.enter(1, 7)
        cache.access(1, "m", WRITE)
        assert cache.access(1, "m", WRITE)
        cache.exit(1, 7)
        assert not cache.access(1, "m", WRITE)

    def test_access_matches_direct_mapped_model(self):
        # The slot is the upper bits of a 32-bit multiplicative hash of
        # the location's address, the uid combined with the CRC-32 of
        # the field name (Section 4.3); a hit is exactly "this slot of
        # this thread's cache for this access kind holds this key".
        size = 8
        cache = TrackedCache(size=size)
        model = {}
        keys = [
            MemoryLocation(1, "a"), MemoryLocation(1, "b"),
            MemoryLocation(1, "a"), MemoryLocation(2, "a"),
            MemoryLocation(1, "a"), MemoryLocation(1, "b"),
            MemoryLocation(9, "next"), MemoryLocation(1, "a"), 17, 17,
        ]
        for step, key in enumerate(keys):
            kind = WRITE if step % 3 == 0 else READ
            if isinstance(key, int):
                address = key  # A FieldsMerged key: the uid alone.
            else:
                address = key.object_uid ^ zlib.crc32(key.field.encode())
            slot = (((address * _HASH_MULTIPLIER) & _MASK32) >> 16) % size
            expected = model.get((kind, slot)) == key
            model[(kind, slot)] = key
            assert cache.access(1, key, kind) == expected
        assert cache.stats.lookups == len(keys)


class TestStableSlots:
    """A location's slot depends on nothing that varies per process."""

    KEYS = (
        "[MemoryLocation(uid, field) for uid in (1, 2, 70000) "
        "for field in ('f', 'next', '[]')] + [5, 'm', ('m', 'f')]"
    )

    def slots_under(self, seed: str) -> str:
        script = (
            "from repro.detector.cache import key_slot\n"
            "from repro.runtime.events import MemoryLocation\n"
            f"print([key_slot(key, 256) for key in {self.KEYS}])\n"
        )
        return subprocess.run(
            [sys.executable, "-c", script],
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
            capture_output=True, text=True, check=True,
        ).stdout

    def test_slots_are_the_same_under_every_hash_seed(self):
        assert self.slots_under("0") == self.slots_under("1") != ""

    def test_detector_slots_match_key_slot(self):
        # The spine computes the slot from the uid and field it is
        # handed; it must land where key_slot puts the interned key.
        for config in (DetectorConfig(), DetectorConfig(fields_merged=True)):
            detector = RaceDetector(DetectorConfig(
                ownership=False, fields_merged=config.fields_merged
            ))
            for uid, field in ((3, "f"), (3, "g"), (70001, "[]")):
                detector.on_access_parts(*access(uid, field, 1, WRITE))
                key = uid if config.fields_merged else MemoryLocation(uid, field)
                slots = detector.cache._threads[1].write._slots
                assert slots[key_slot(key, len(slots))] == key


class TestEvictionListCompaction:
    def test_conflict_evictions_mark_dead_entries(self):
        cache = TrackedCache(size=1)
        cache.enter(1, 5)
        cache.access(1, "a")
        cache.access(1, "b")  # Conflict-evicts "a".
        assert cache.listed_entries() == (2, 1)

    def test_compaction_drops_dead_entries(self):
        # Size-1 cache under one never-released lock: every miss
        # conflict-evicts its predecessor, so without compaction the
        # lock's eviction list would grow with every access.
        cache = TrackedCache(size=1)
        cache.enter(1, 5)
        for step in range(1000):
            cache.access(1, f"k{step}")
        assert cache.stats.list_compactions > 0
        total, dead = cache.listed_entries()
        # The live set is exactly one entry; dead weight stays bounded
        # by the compaction trigger: after any insert, either the list
        # is at most half dead or it is below the compaction minimum.
        assert total < 64
        assert dead * 2 <= total or total < 16

    def test_compaction_preserves_lock_eviction(self):
        cache = TrackedCache(size=1)
        cache.enter(1, 5)
        for step in range(100):
            cache.access(1, f"k{step}")
        assert cache.stats.list_compactions > 0
        cache.exit(1, 5)
        assert cache.listed_entries() == (0, 0)
        assert not cache.access(1, "k99")

    def test_compaction_spans_multiple_locks(self):
        cache = TrackedCache(size=1)
        for lock in range(3):
            cache.enter(1, lock)
            for step in range(70):
                cache.access(1, f"k{lock}-{step}")
        assert cache.stats.list_compactions > 0
        for lock in reversed(range(3)):
            cache.exit(1, lock)
        assert cache.listed_entries() == (0, 0)
