"""The runtime optimizer: per-thread access caches (Section 4).

Each thread has two direct-mapped caches — one for reads, one for
writes — indexed by memory location.  The design guarantees that any
entry found on lookup corresponds to a previously recorded access that
is *weaker than* the incoming access, so a hit means the event can be
dropped without reaching the trie detector:

* per-thread caches        →  ``p.t = q.t``;
* separate read/write caches →  ``p.a = q.a``;
* eviction on monitorexit  →  ``p.L ⊆ q.L`` (every cached entry's
  lockset is a subset of the thread's *current* lockset at all times);
* location-indexed lookup  →  ``p.m = q.m``.

Eviction exploits Java's nested (LIFO) locking discipline: when an
entry is created, the thread's most recently acquired *real* lock is
the first of the entry's real locks that will be released, so the entry
is linked onto that lock's eviction list; releasing the lock evicts the
whole list (Section 4.2).  Entries created while holding no real lock
are unconditional — only a conflict replacement can remove them.  Join
pseudo-locks ``S_j`` are deliberately *not* eviction anchors: they are
monotone (never released during the thread's lifetime), so they can
never invalidate the subset condition.

Section 7.2's ownership transition needs no eviction here: the
ownership filter runs before the cache, so while a location is owned
none of its accesses reach the cache, and once it is shared it stays
shared.  No thread can hold an entry for a location at its transition.

The hash follows the paper's implementation (Section 4.3): multiply the
location key's hash by a constant and take the upper bits of a 32-bit
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import AccessKind

#: Knuth-style multiplicative hashing constant (the paper multiplies the
#: 32-bit address by a constant and keeps the upper 16 bits).
_HASH_MULTIPLIER = 0x9E3779B1
_MASK32 = 0xFFFFFFFF


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    conflict_evictions: int = 0
    lock_evictions: int = 0
    #: Lazy compactions of the lock eviction lists (dead-entry sweeps).
    list_compactions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another collector's counters (shard merging)."""
        self.hits += other.hits
        self.misses += other.misses
        self.conflict_evictions += other.conflict_evictions
        self.lock_evictions += other.lock_evictions
        self.list_compactions += other.list_compactions


#: Compact the lock eviction lists only once they hold at least this
#: many entries (avoids churn on tiny lists).
_COMPACT_MIN_LISTED = 16


class _Entry:
    """One cache entry: a location key plus its slot and eviction links."""

    __slots__ = ("key", "index", "valid", "anchored")

    def __init__(self, key, index: int):
        self.key = key
        self.index = index
        self.valid = True
        self.anchored = False


class _DirectMappedCache:
    """A single direct-mapped cache (one access type of one thread)."""

    def __init__(self, size: int, stats: CacheStats):
        self._size = size
        self._slots: list[Optional[_Entry]] = [None] * size
        self._stats = stats
        #: lock uid -> entries to evict when the lock is released.
        self._lock_lists: dict[int, list[_Entry]] = {}
        #: Entries currently linked on some eviction list / of those,
        #: how many were invalidated by conflict eviction (dead weight a
        #: long-held lock would otherwise accumulate).
        self._listed = 0
        self._dead_listed = 0

    def _index(self, key) -> int:
        product = (hash(key) * _HASH_MULTIPLIER) & _MASK32
        return (product >> 16) % self._size

    def _insert_at(self, index: int, key, anchor_lock: Optional[int]) -> None:
        old = self._slots[index]
        if old is not None and old.valid:
            old.valid = False
            self._stats.conflict_evictions += 1
            if old.anchored:
                self._dead_listed += 1
        entry = _Entry(key, index)
        self._slots[index] = entry
        if anchor_lock is not None:
            entry.anchored = True
            self._lock_lists.setdefault(anchor_lock, []).append(entry)
            self._listed += 1
            if (
                self._dead_listed * 2 > self._listed
                and self._listed >= _COMPACT_MIN_LISTED
            ):
                self._compact_lock_lists()

    def _compact_lock_lists(self) -> None:
        """Drop invalidated entries from every eviction list.

        Conflict evictions invalidate entries in place but leave them
        linked on their anchor lock's list; a long-held lock would
        accumulate dead entries without bound.  Run lazily once more
        than half of the listed entries are dead."""
        self._stats.list_compactions += 1
        for lock_uid in list(self._lock_lists):
            live = [entry for entry in self._lock_lists[lock_uid] if entry.valid]
            if live:
                self._lock_lists[lock_uid] = live
            else:
                del self._lock_lists[lock_uid]
        self._listed = sum(len(entries) for entries in self._lock_lists.values())
        self._dead_listed = 0

    def evict_lock(self, lock_uid: int) -> None:
        entries = self._lock_lists.pop(lock_uid, None)
        if not entries:
            return
        self._listed -= len(entries)
        for entry in entries:
            if entry.valid:
                entry.valid = False
                self._slots[entry.index] = None
                self._stats.lock_evictions += 1
            else:
                self._dead_listed -= 1

    @property
    def listed_entries(self) -> tuple[int, int]:
        """(total, dead) entries on the lock eviction lists — test hook."""
        return self._listed, self._dead_listed


class ThreadCaches:
    """The read and write caches of one thread."""

    def __init__(self, size: int, stats: CacheStats):
        self.read = _DirectMappedCache(size, stats)
        self.write = _DirectMappedCache(size, stats)


class AccessCache:
    """All threads' caches plus the eviction triggers.

    ``size`` defaults to the paper's 256 entries per cache.  Reads
    consult only the read cache and writes only the write cache, as in
    the paper.
    """

    def __init__(self, size: int = 256):
        if size < 1:
            raise ValueError("cache size must be positive")
        self._size = size
        self._threads: dict[int, ThreadCaches] = {}
        self.stats = CacheStats()

    def access_tracked(self, thread_id: int, key, kind: AccessKind, locks) -> bool:
        """Fused lookup+insert, the one entry point.

        Returns True on a hit (a weaker access is already recorded, so
        the event is suppressed).  On a miss the access is recorded and
        False is returned; the entry is anchored to the thread's most
        recently acquired real lock, which ``locks`` (a
        :class:`~repro.detector.locksets.LockTracker`) is asked for only
        then — hits, the overwhelmingly common case, never query the
        lock stack.  Exactly one hit or one miss is counted per call.
        """
        caches = self._threads.get(thread_id)
        if caches is None:
            caches = ThreadCaches(self._size, self.stats)
            self._threads[thread_id] = caches
        cache = caches.write if kind is AccessKind.WRITE else caches.read
        index = cache._index(key)
        entry = cache._slots[index]
        if entry is not None and entry.valid and entry.key == key:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        cache._insert_at(index, key, locks.last_real_lock(thread_id))
        return False

    def on_lock_release(self, thread_id: int, lock_uid: int) -> None:
        """Outermost monitorexit: evict entries anchored to the lock."""
        caches = self._threads.get(thread_id)
        if caches is not None:
            caches.read.evict_lock(lock_uid)
            caches.write.evict_lock(lock_uid)

