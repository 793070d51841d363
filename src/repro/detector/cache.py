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
location's "address" by a constant and take the upper bits of a 32-bit
product.  The address is the object uid combined with a stable code
for the field (:func:`field_code`), so a location's slot is the same in
every process, whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from ..lang.ast import AccessKind
from ..runtime.events import MemoryLocation

#: Knuth-style multiplicative hashing constant (the paper multiplies the
#: 32-bit address by a constant and keeps the upper 16 bits).
_HASH_MULTIPLIER = 0x9E3779B1
_MASK32 = 0xFFFFFFFF

#: Field name -> its code, memoised (the detector's spine and the
#: compiled engine's stubs read it directly).
FIELD_CODES: dict[str, int] = {}


def field_code(field: str) -> int:
    """A field's code in the slot function: the CRC-32 of its UTF-8
    name, the same in every process."""
    code = FIELD_CODES.get(field)
    if code is None:
        FIELD_CODES[field] = code = zlib.crc32(field.encode("utf-8"))
    return code


def slot_of(uid: int, code: int, size: int) -> int:
    """The slot of location ``(uid, field)`` with ``code =
    field_code(field)`` — or of a ``FieldsMerged`` key ``uid``, with
    ``code = 0`` — in a cache of ``size`` slots."""
    return ((((uid ^ code) * _HASH_MULTIPLIER) & _MASK32) >> 16) % size


def key_slot(key, size: int) -> int:
    """:func:`slot_of` for a detector key: a ``MemoryLocation`` or a
    ``FieldsMerged`` object uid.  Any other key (hand-built ones in
    tests and microbenchmarks) is hashed through its ``repr``, which is
    also process-independent for strings, ints and tuples of them."""
    if isinstance(key, MemoryLocation):
        return slot_of(key.object_uid, field_code(key.field), size)
    if isinstance(key, int):
        return slot_of(key, 0, size)
    return slot_of(0, field_code(repr(key)), size)


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

#: ``codes[i]`` of a slot whose entry is on no eviction list (an empty
#: slot, or an entry made while the thread held no real lock).
UNLISTED = -1


class _DirectMappedCache:
    """A single direct-mapped cache (one access type of one thread).

    The layout is flat: ``_slots[i]`` is the location key cached in
    slot ``i``, or ``None``, so a hit is ``_slots[i] == key``.  An entry
    anchored to a lock gets an *entry code*, an integer unique within
    this cache with ``code % size == i``; the slot's code sits in the
    parallel ``_codes[i]`` (:data:`UNLISTED` otherwise) and the lock's
    eviction list holds the code.  A listed code is live iff
    ``_codes[code % size] == code``: replacing or evicting the slot's
    entry changes the slot's code, which kills every older code for it.
    No object is made per entry.
    """

    __slots__ = (
        "_size", "_slots", "_codes", "_stats", "_lock_lists", "_listed",
        "_dead_listed", "_next_code",
    )

    def __init__(self, size: int, stats: CacheStats):
        self._size = size
        self._slots: list = [None] * size
        self._codes: list[int] = [UNLISTED] * size
        self._stats = stats
        #: lock uid -> codes of the entries to evict when the lock is
        #: released.
        self._lock_lists: dict[int, list[int]] = {}
        #: Codes currently on some eviction list / of those, how many
        #: are dead because conflict eviction replaced their entry
        #: (dead weight a long-held lock would otherwise accumulate).
        self._listed = 0
        self._dead_listed = 0
        #: The next anchored entry's code, less its slot index.
        self._next_code = 0

    def insert(self, index: int, key, anchor_lock: Optional[int]) -> None:
        """Cache ``key`` in slot ``index``, replacing (conflict-evicting)
        its entry, and list it under ``anchor_lock`` unless ``None``."""
        codes = self._codes
        if self._slots[index] is not None:
            self._stats.conflict_evictions += 1
            if codes[index] != UNLISTED:
                self._dead_listed += 1
        self._slots[index] = key
        if anchor_lock is None:
            codes[index] = UNLISTED
        else:
            self.anchor(index, anchor_lock)

    def anchor(self, index: int, lock_uid: int) -> None:
        """List slot ``index``'s (new) entry under ``lock_uid``."""
        code = self._next_code + index
        self._next_code += self._size
        self._codes[index] = code
        codes = self._lock_lists.get(lock_uid)
        if codes is None:
            self._lock_lists[lock_uid] = [code]
        else:
            codes.append(code)
        self._listed += 1
        if (
            self._dead_listed * 2 > self._listed
            and self._listed >= _COMPACT_MIN_LISTED
        ):
            self._compact_lock_lists()

    def _compact_lock_lists(self) -> None:
        """Drop dead codes from every eviction list.

        Conflict evictions kill entries in place but leave their codes
        on their anchor lock's list; a long-held lock would accumulate
        dead codes without bound.  Run lazily once more than half of
        the listed codes are dead."""
        self._stats.list_compactions += 1
        slot_codes = self._codes
        size = self._size
        for lock_uid in list(self._lock_lists):
            live = [
                code
                for code in self._lock_lists[lock_uid]
                if slot_codes[code % size] == code
            ]
            if live:
                self._lock_lists[lock_uid] = live
            else:
                del self._lock_lists[lock_uid]
        self._listed = sum(len(codes) for codes in self._lock_lists.values())
        self._dead_listed = 0

    def evict_lock(self, lock_uid: int) -> None:
        listed = self._lock_lists.pop(lock_uid, None)
        if not listed:
            return
        self._listed -= len(listed)
        slots = self._slots
        slot_codes = self._codes
        size = self._size
        evicted = 0
        for code in listed:
            index = code % size
            if slot_codes[index] == code:
                slot_codes[index] = UNLISTED
                slots[index] = None
                evicted += 1
        self._stats.lock_evictions += evicted
        self._dead_listed -= len(listed) - evicted

    @property
    def listed_entries(self) -> tuple[int, int]:
        """(total, dead) codes on the lock eviction lists — test hook."""
        return self._listed, self._dead_listed


class ThreadCaches:
    """The read and write caches of one thread."""

    __slots__ = ("read", "write")

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
            caches = self.thread_caches(thread_id)
        cache = caches.write if kind is AccessKind.WRITE else caches.read
        index = key_slot(key, self._size)
        if cache._slots[index] == key:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        cache.insert(index, key, locks.last_real_lock(thread_id))
        return False

    def thread_caches(self, thread_id: int) -> ThreadCaches:
        """The thread's caches, made empty on its first access."""
        caches = self._threads.get(thread_id)
        if caches is None:
            self._threads[thread_id] = caches = ThreadCaches(
                self._size, self.stats
            )
        return caches

    def on_lock_release(self, thread_id: int, lock_uid: int) -> None:
        """Outermost monitorexit: evict entries anchored to the lock."""
        caches = self._threads.get(thread_id)
        if caches is not None:
            caches.read.evict_lock(lock_uid)
            caches.write.evict_lock(lock_uid)

