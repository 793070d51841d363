"""Unit tests for the per-thread access caches (Section 4)."""

from repro.detector import AccessCache
from repro.lang.ast import AccessKind

READ = AccessKind.READ
WRITE = AccessKind.WRITE


class TestBasicLookup:
    def test_miss_on_empty_cache(self):
        cache = AccessCache()
        assert not cache.lookup(1, "m", READ)
        assert cache.stats.misses == 1

    def test_hit_after_insert(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=None)
        assert cache.lookup(1, "m", READ)
        assert cache.stats.hits == 1

    def test_read_and_write_caches_are_separate(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=None)
        assert not cache.lookup(1, "m", WRITE)

    def test_write_does_not_satisfy_read_by_default(self):
        # Faithful to the paper: reads consult only the read cache.
        cache = AccessCache()
        cache.insert(1, "m", WRITE, anchor_lock=None)
        assert not cache.lookup(1, "m", READ)

    def test_write_covers_read_extension(self):
        cache = AccessCache(write_covers_read=True)
        cache.insert(1, "m", WRITE, anchor_lock=None)
        assert cache.lookup(1, "m", READ)

    def test_threads_have_independent_caches(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=None)
        assert not cache.lookup(2, "m", READ)

    def test_different_locations_do_not_collide_logically(self):
        cache = AccessCache()
        cache.insert(1, "a", READ, anchor_lock=None)
        assert not cache.lookup(1, "b", READ)


class TestConflictEviction:
    def test_direct_mapped_conflict_evicts_old_entry(self):
        # Size-1 cache: every distinct key maps to the same slot.
        cache = AccessCache(size=1)
        cache.insert(1, "a", READ, anchor_lock=None)
        cache.insert(1, "b", READ, anchor_lock=None)
        assert not cache.lookup(1, "a", READ)
        assert cache.lookup(1, "b", READ)
        assert cache.stats.conflict_evictions == 1

    def test_invalid_size_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            AccessCache(size=0)


class TestLockEviction:
    def test_release_evicts_anchored_entries(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=77)
        cache.on_lock_release(1, 77)
        assert not cache.lookup(1, "m", READ)
        assert cache.stats.lock_evictions == 1

    def test_release_of_other_lock_keeps_entry(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=77)
        cache.on_lock_release(1, 78)
        assert cache.lookup(1, "m", READ)

    def test_unanchored_entry_survives_all_releases(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=None)
        cache.on_lock_release(1, 77)
        assert cache.lookup(1, "m", READ)

    def test_release_only_affects_that_thread(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=77)
        cache.insert(2, "m", READ, anchor_lock=77)
        cache.on_lock_release(1, 77)
        assert cache.lookup(2, "m", READ)

    def test_release_evicts_both_read_and_write_entries(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=5)
        cache.insert(1, "m", WRITE, anchor_lock=5)
        cache.on_lock_release(1, 5)
        assert not cache.lookup(1, "m", READ)
        assert not cache.lookup(1, "m", WRITE)

    def test_conflict_evicted_entry_not_double_freed_by_release(self):
        cache = AccessCache(size=1)
        cache.insert(1, "a", READ, anchor_lock=3)
        cache.insert(1, "b", READ, anchor_lock=3)  # Conflict-evicts "a".
        cache.on_lock_release(1, 3)  # Must evict only "b".
        assert cache.stats.lock_evictions == 1


class TestStats:
    def test_hit_rate(self):
        cache = AccessCache()
        cache.insert(1, "m", READ, anchor_lock=None)
        cache.lookup(1, "m", READ)
        cache.lookup(1, "n", READ)
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert AccessCache().stats.hit_rate == 0.0

    def test_write_covers_read_counts_one_lookup(self):
        # Regression: a covered read used to count a read-cache miss
        # *and* a write-cache hit, inflating lookups by one.
        cache = AccessCache(write_covers_read=True)
        cache.insert(1, "m", WRITE, anchor_lock=None)
        assert cache.lookup(1, "m", READ)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0
        assert cache.stats.lookups == 1

    def test_write_covers_read_miss_counts_once(self):
        cache = AccessCache(write_covers_read=True)
        assert not cache.lookup(1, "m", READ)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1

    def test_merge_accumulates_all_counters(self):
        from repro.detector import CacheStats

        a = CacheStats(hits=1, misses=2, conflict_evictions=3,
                       lock_evictions=4, list_compactions=6)
        b = CacheStats(hits=10, misses=20, conflict_evictions=30,
                       lock_evictions=40, list_compactions=60)
        a.merge(b)
        assert (a.hits, a.misses, a.conflict_evictions, a.lock_evictions,
                a.list_compactions) == (11, 22, 33, 44, 66)


class TestFusedAccess:
    def test_access_counts_one_hit_or_miss(self):
        cache = AccessCache()
        assert not cache.access(1, "m", READ, anchor_lock=None)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.access(1, "m", READ, anchor_lock=None)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_access_miss_records_the_access(self):
        cache = AccessCache()
        cache.access(1, "m", WRITE, anchor_lock=7)
        assert cache.lookup(1, "m", WRITE)
        cache.on_lock_release(1, 7)
        assert not cache.lookup(1, "m", WRITE)

    def test_access_write_covers_read_single_count(self):
        cache = AccessCache(write_covers_read=True)
        cache.insert(1, "m", WRITE, anchor_lock=None)
        assert cache.access(1, "m", READ, anchor_lock=None)
        assert cache.stats.lookups == 1

    def test_access_matches_lookup_insert_sequence(self):
        fused = AccessCache(size=8)
        split = AccessCache(size=8)
        keys = ["a", "b", "a", "c", "a", "b", "d", "a"]
        for step, key in enumerate(keys):
            kind = WRITE if step % 3 == 0 else READ
            hit_fused = fused.access(1, key, kind, anchor_lock=None)
            hit_split = split.lookup(1, key, kind)
            if not hit_split:
                split.insert(1, key, kind, anchor_lock=None)
            assert hit_fused == hit_split
        assert fused.stats == split.stats


class TestEvictionListCompaction:
    def test_conflict_evictions_mark_dead_entries(self):
        from repro.detector.cache import CacheStats, _DirectMappedCache

        cache = _DirectMappedCache(1, CacheStats())
        cache.insert("a", anchor_lock=5)
        cache.insert("b", anchor_lock=5)  # Conflict-evicts "a".
        total, dead = cache.listed_entries
        assert total == 2
        assert dead == 1

    def test_compaction_drops_dead_entries(self):
        # Size-1 cache under one never-released lock: every insert
        # conflict-evicts its predecessor, so without compaction the
        # lock's eviction list would grow with every access.
        from repro.detector.cache import CacheStats, _DirectMappedCache

        stats = CacheStats()
        cache = _DirectMappedCache(1, stats)
        for step in range(1000):
            cache.insert(f"k{step}", anchor_lock=5)
        assert stats.list_compactions > 0
        total, dead = cache.listed_entries
        # The live set is exactly one entry; dead weight stays bounded
        # by the compaction trigger: after any insert, either the list
        # is at most half dead or it is below the compaction minimum.
        assert total < 64
        assert dead * 2 <= total or total < 16

    def test_compaction_preserves_lock_eviction(self):
        from repro.detector.cache import CacheStats, _DirectMappedCache

        stats = CacheStats()
        cache = _DirectMappedCache(1, stats)
        for step in range(100):
            cache.insert(f"k{step}", anchor_lock=5)
        assert stats.list_compactions > 0
        cache.evict_lock(5)
        assert not cache.probe("k99")
        assert cache.listed_entries == (0, 0)

    def test_compaction_spans_multiple_locks(self):
        from repro.detector.cache import CacheStats, _DirectMappedCache

        stats = CacheStats()
        cache = _DirectMappedCache(1, stats)
        for step in range(200):
            cache.insert(f"k{step}", anchor_lock=step % 3)
        for lock in range(3):
            cache.evict_lock(lock)
        assert cache.listed_entries == (0, 0)
