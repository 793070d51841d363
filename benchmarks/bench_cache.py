"""Section 4 — the runtime cache as a fast path.

Two families of benchmarks:

* microbenchmarks of the per-event fast path (the paper inlines the
  cache lookup to ten PowerPC instructions; here we compare a cache hit
  against the trie weakness check it replaces);
* the tsp2 cache-effectiveness run, asserting the paper's observation
  that "in many benchmarks almost all accesses are discarded this way"
  (hit rates well above 90%) and recording how much trie work the
  cache absorbs.
"""

import pytest

from repro.detector import AccessCache, LockTracker, LockTrie
from repro.harness import CONFIG_FULL, CONFIG_NO_CACHE
from repro.lang.ast import AccessKind
from repro.runtime import LocationInterner
from repro.workloads import BENCHMARKS

from conftest import prepare


class TestFastPathMicro:
    """Keys are canonical :class:`MemoryLocation` objects, as the
    detector's location records hold them.  ``access_tracked`` is the
    cache's reference entry point and hashes the key on every call; the
    detector's spine reads the slot from the location record instead,
    so these time an upper bound on its probe."""

    def test_cache_hit_cost(self, benchmark):
        cache = AccessCache()
        locks = LockTracker()
        key = LocationInterner().intern(1, "f")
        cache.access_tracked(1, key, AccessKind.READ, locks)
        benchmark.group = "cache:fast-path"

        def hit():
            return cache.access_tracked(1, key, AccessKind.READ, locks)

        assert benchmark(hit)

    def test_trie_weak_check_cost_shallow(self, benchmark):
        trie = LockTrie()
        trie.insert(frozenset(), 1, AccessKind.READ)
        benchmark.group = "cache:fast-path"

        def check():
            return trie.find_weaker(frozenset(), 1, AccessKind.READ)

        assert benchmark(check)

    def test_trie_weak_check_cost_deep(self, benchmark):
        trie = LockTrie()
        for depth in range(1, 6):
            trie.insert(frozenset(range(depth)), 1, AccessKind.READ)
        lockset = frozenset(range(8))
        benchmark.group = "cache:fast-path"

        def check():
            return trie.find_weaker(lockset, 1, AccessKind.READ)

        assert benchmark(check)

    def test_cache_miss_and_insert_cost(self, benchmark):
        benchmark.group = "cache:fast-path"
        cache = AccessCache()
        locks = LockTracker()
        interner = LocationInterner()
        keys = [interner.intern(uid, "f") for uid in range(1, 513)]

        def miss_insert():
            for key in keys:
                cache.access_tracked(2, key, AccessKind.WRITE, locks)

        benchmark(miss_insert)


class TestCacheEffectiveness:
    def test_tsp2_hit_rate(self, benchmark):
        runner = prepare(BENCHMARKS["tsp2"], CONFIG_FULL)
        benchmark.group = "cache:tsp2"
        _, detector = benchmark(runner)
        rate = detector.cache.stats.hit_rate
        benchmark.extra_info["hit_rate"] = round(rate, 4)
        assert rate > 0.85  # "almost all accesses are discarded this way"

    def test_tsp2_trie_work_without_cache(self, benchmark):
        runner = prepare(BENCHMARKS["tsp2"], CONFIG_NO_CACHE)
        benchmark.group = "cache:tsp2"
        _, detector = benchmark(runner)
        checks = (
            detector.trie_stats.weaker_hits + detector.trie_stats.weaker_misses
        )
        benchmark.extra_info["trie_weak_checks"] = checks

        cached_runner = prepare(BENCHMARKS["tsp2"], CONFIG_FULL)
        _, cached = cached_runner()
        cached_checks = (
            cached.trie_stats.weaker_hits + cached.trie_stats.weaker_misses
        )
        benchmark.extra_info["trie_weak_checks_with_cache"] = cached_checks
        # The cache absorbs the overwhelming majority of detector work
        # (the paper's tsp NoCache row: 42% → 3722%).
        assert checks > 5 * max(cached_checks, 1)
