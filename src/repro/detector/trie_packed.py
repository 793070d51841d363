"""Packed lockset tries — the scheme the paper teases in Section 8.2.

    "We have a scheme for packing information for multiple locations
    into one trie which we cannot present due to space limitations."

The observation behind any such scheme: programs use few distinct
locksets but many memory locations, so per-location tries duplicate the
same small lock-path structure thousands of times (tsp: 7,967 nodes for
6,562 locations).  This module implements the natural packing: **one**
global trie over locksets whose nodes carry a per-location table of
``(thread, kind)`` meets.

* structure (nodes, edges) is shared by *all* locations — the node
  count is bounded by the number of distinct locksets, not locations;
* the three traversals are the same Cases I/II/III walks, consulting
  each visited node's entry for the queried location only;
* insertion and pruning update one location's entries, leaving other
  locations' data untouched.

The packed detector is behaviourally identical to the per-location one
(`tests/property/test_packed_trie.py` checks equivalence on random
streams); ``benchmarks/bench_space.py``-style numbers come out via
:meth:`PackedLockTrie.node_count` vs the per-location total.
Enable with ``DetectorConfig(packed_tries=True)``.
"""

from __future__ import annotations

from typing import Optional

from ..lang.ast import AccessKind
from .trie import _ABOVE_EVERY_LOCK, FILTERED, PriorAccess, TrieStats
from .weaker import THREAD_BOTTOM, access_meet, thread_meet

#: Hot traversals inline the one-line partial-order helpers of
#: :mod:`repro.detector.weaker`, exactly as :class:`~.trie.LockTrie`
#: does — see the note there.
_WRITE = AccessKind.WRITE


class PackedNode:
    """A lockset node holding per-location access summaries."""

    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: dict[int, "PackedNode"] = {}
        #: location key -> (thread_value, AccessKind).
        self.entries: dict = {}


class PackedLockTrie:
    """One trie for every location (lockset-major organization)."""

    def __init__(self, stats: Optional[TrieStats] = None):
        self.stats = stats if stats is not None else TrieStats()
        self.root = PackedNode()
        self.stats.nodes_allocated += 1
        self._locations: set = set()

    # ------------------------------------------------------------------

    def observe(self, key, lockset: frozenset, path: tuple, thread: int,
                kind: AccessKind, read_read_races: bool = False):
        """One location's access transaction, exactly as
        :meth:`~.trie.LockTrie.observe`: :data:`~.trie.FILTERED`, the
        racing prior access, or ``None``."""
        if self.find_weaker(key, lockset, thread, kind):
            return FILTERED
        root = self.root
        prior = self._find_race(
            root, [], key, lockset, thread, kind, read_read_races
        )
        node, merged = self._insert(key, path, thread, kind)
        self._prune(root, path, 0, key, merged[0], merged[1], node)
        return prior

    # ------------------------------------------------------------------

    def find_weaker(self, key, lockset: frozenset, thread: int,
                    kind: AccessKind) -> bool:
        found = self._find_weaker(self.root, key, lockset, thread, kind)
        if found:
            self.stats.weaker_hits += 1
        else:
            self.stats.weaker_misses += 1
        return found

    def _find_weaker(self, node, key, lockset, thread, kind) -> bool:
        entry = node.entries.get(key)
        if (
            entry is not None
            and (entry[0] == thread or entry[0] is THREAD_BOTTOM)
            and (entry[1] is kind or entry[1] is _WRITE)
        ):
            return True
        children = node.children
        if not children:
            return False
        # Intersect edges with the lockset from whichever side is smaller.
        if len(children) <= len(lockset):
            for lock, child in children.items():
                if lock in lockset and self._find_weaker(
                    child, key, lockset, thread, kind
                ):
                    return True
        else:
            get = children.get
            for lock in lockset:
                child = get(lock)
                if child is not None and self._find_weaker(
                    child, key, lockset, thread, kind
                ):
                    return True
        return False

    # ------------------------------------------------------------------

    def find_race(
        self,
        key,
        lockset: frozenset,
        thread: int,
        kind: AccessKind,
        read_read_races: bool = False,
    ) -> Optional[PriorAccess]:
        return self._find_race(
            self.root, [], key, lockset, thread, kind, read_read_races
        )

    def _find_race(self, node, path, key, lockset, thread, kind, rr):
        entry = node.entries.get(key)
        if entry is not None and (
            entry[0] != thread or entry[0] is THREAD_BOTTOM
        ):
            if rr or entry[1] is _WRITE or kind is _WRITE:
                self.stats.races_found += 1
                return PriorAccess(
                    thread=entry[0], lockset=frozenset(path), kind=entry[1]
                )
        for lock, child in node.children.items():
            if lock in lockset:
                continue  # Case I.
            # ``path`` is a shared mutable stack — push/pop instead of a
            # fresh tuple per edge; a hit freezes it before unwinding.
            path.append(lock)
            race = self._find_race(child, path, key, lockset, thread, kind, rr)
            if race is not None:
                return race
            path.pop()
        return None

    # ------------------------------------------------------------------

    def insert(self, key, lockset: frozenset, thread: int,
               kind: AccessKind) -> tuple:
        return self._insert(key, tuple(sorted(lockset)), thread, kind)

    def _insert(self, key, path: tuple, thread: int, kind: AccessKind) -> tuple:
        self._locations.add(key)
        node = self.root
        for lock in path:
            child = node.children.get(lock)
            if child is None:
                child = PackedNode()
                self.stats.nodes_allocated += 1
                node.children[lock] = child
            node = child
        entry = node.entries.get(key)
        if entry is None:
            self.stats.inserts += 1
            merged = (thread, kind)
        else:
            self.stats.updates += 1
            merged = (
                thread_meet(entry[0], thread),
                access_meet(entry[1], kind),
            )
        node.entries[key] = merged
        return node, merged

    def prune_stronger(self, key, lockset: frozenset, thread, kind,
                       keep: PackedNode) -> int:
        return self._prune(self.root, tuple(sorted(lockset)), 0, key, thread,
                           kind, keep)

    def _prune(self, node, path, index, key, thread, kind, keep) -> int:
        # Targeted walk (see LockTrie._prune): paths are sorted, so an
        # edge labeled above the smallest still-required lock
        # ``path[index]`` can never lead to a superset of the lockset —
        # skip the subtree.
        removed = 0
        if index == len(path):
            if node is not keep:
                entry = node.entries.get(key)
                if (
                    entry is not None
                    and (thread == entry[0] or thread is THREAD_BOTTOM)
                    and (kind is entry[1] or kind is _WRITE)
                ):
                    del node.entries[key]
                    removed += 1
            first = _ABOVE_EVERY_LOCK
        else:
            first = path[index]
        dead = []
        for lock, child in node.children.items():
            if lock > first:
                continue
            removed += self._prune(
                child, path, index + 1 if lock == first else index, key,
                thread, kind, keep,
            )
            if not child.children and not child.entries and child is not keep:
                dead.append(lock)
        for lock in dead:
            del node.children[lock]
            self.stats.nodes_freed += 1
        return removed

    # ------------------------------------------------------------------

    def stored_accesses(self, key) -> list:
        """One location's stored set, as (lockset, thread, kind)."""
        out: list = []
        self._collect(self.root, (), key, out)
        return out

    def _collect(self, node, path, key, out) -> None:
        entry = node.entries.get(key)
        if entry is not None:
            out.append((frozenset(path), entry[0], entry[1]))
        for lock, child in node.children.items():
            self._collect(child, path + (lock,), key, out)

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def entry_count(self) -> int:
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += len(node.entries)
            stack.extend(node.children.values())
        return total

    @property
    def location_count(self) -> int:
        return len(self._locations)
