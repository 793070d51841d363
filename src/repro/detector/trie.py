"""The per-location lockset trie (Section 3.2 of the paper).

For each memory location the detector keeps an edge-labeled trie: edges
carry lock ids, and each node represents the (possibly empty) set of
past accesses whose lockset is the node's root path.  Nodes hold the
*meet* of their accesses' thread and access-type values, so a node is a
lossy-but-sufficient summary:

* ``t`` — a concrete thread id, ``t⊥`` (two or more distinct threads),
  or ``t⊤`` (no accesses; pure internal node);
* ``a`` — READ or WRITE (internal nodes use READ, the meet identity).

Insertion canonicalizes locksets by storing them along the *sorted*
sequence of lock ids, so a given lockset always maps to one node.

Three traversals implement the algorithm of Section 3.2.1:

``find_weaker``
    Is there a stored access weaker than the incoming event?  Follows
    only edges labeled with locks in ``e.L`` (guaranteeing the subset
    condition) and tests each node's ``(t, a)`` against the partial
    orders.  In practice this filters the vast majority of events.

``find_race``
    Case I — the incoming edge's lock is in ``e.L``: the whole subtree
    shares a lock with ``e``; skip it.
    Case II — ``e.t ⊓ n.t = t⊥`` and ``e.a ⊓ n.a = WRITE``: datarace;
    report and stop.
    Case III — recurse into the children.

``insert`` + ``prune_stronger``
    Update the node for ``e.L`` with the meets, then remove stored
    accesses that the new access makes redundant (strictly stronger
    nodes), demoting their nodes to internal status and trimming
    childless internal nodes.

Each trie also keeps a *guard*: the locks held by every access it has
ever stored (Eraser's candidate lockset, the intersection of the stored
locksets).  An incoming lockset that meets the guard shares a lock with
every stored access, so Case I settles the whole trie and the race walk
is skipped; it is skipped on an empty trie too.  Every insertion
narrows the guard and a prune only removes accesses, so a guard is
never wider than the live intersection and the skip is exact.

The detector runs them as one transaction per access,
:meth:`LockTrie.observe`, which takes the lockset together with its
sorted lock path (interned once per distinct lockset by the
:class:`~repro.detector.locksets.LockTracker`) so no traversal sorts.
``observe`` runs the weakness check and the guard test inline and
calls ``_find_race``, ``_insert`` and ``_prune``, which settle what they
can in the frame already running instead of opening one per node.  The
public methods are thin wrappers over the same helpers; ``find_weaker``'s
``_find_weaker`` is the stand-alone form of the inlined check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from ..lang.ast import AccessKind
from .weaker import THREAD_BOTTOM, THREAD_TOP, ThreadValue

#: The traversals below inline the one-line partial-order helpers of
#: :mod:`repro.detector.weaker` (``thread_leq``, ``access_leq``, and
#: the ⊓-is-t⊥ / ⊓-is-WRITE tests) — at millions of node visits per
#: detection run the function-call overhead is measurable.  The inlined
#: forms are exact for every value the detector produces; incoming
#: event threads are concrete ids (or ``t⊥`` after a meet), never
#: ``t⊤``.
_WRITE = AccessKind.WRITE
_READ = AccessKind.READ

#: Allocates a node without running ``TrieNode.__init__``; ``_insert``
#: sets every slot itself.
_new_node = object.__new__

#: The edges of every childless node: one shared, read-only empty
#: mapping (a write into it raises instead of corrupting another node).
_NO_CHILDREN = MappingProxyType({})


class _Filtered:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FILTERED"


#: :meth:`LockTrie.observe`'s answer for an access the weakness check
#: dropped (a stored access is weaker, so the trie is left unchanged).
FILTERED = _Filtered()

#: Compares above (and unequal to) every lock id: the prune walk's
#: "smallest still-required lock" once the whole lockset is on the path.
_ABOVE_EVERY_LOCK = math.inf


class TrieNode:
    """One node of a lockset trie.

    ``label`` is the lock on the edge into the node (``None`` at the
    root).  ``edges`` holds the children in one of three layouts:
    :data:`_NO_CHILDREN` when there are none; the only child itself,
    which carries its own label; or a ``{lock: child}`` dict, allocated
    only when a second child arrives and collapsed back to the inline
    child when a prune leaves one.  Most nodes have at most one child
    (every thread's ``S_t`` node on the pseudo-lock shape has exactly
    one), so most nodes own no dict.  Every layout keeps insertion
    order, which is the race check's visit order.  Edges change only
    through :meth:`add_child` and :meth:`remove_child` (and the
    traversals of :class:`LockTrie`, which read ``edges`` directly, and
    its ``_insert``, which builds new nodes and their edges itself);
    :attr:`children` is a read-only view of them.
    """

    __slots__ = ("label", "thread", "kind", "edges")

    def __init__(self, label: Optional[int] = None) -> None:
        self.label = label
        self.thread: ThreadValue = THREAD_TOP
        self.kind: AccessKind = AccessKind.READ
        self.edges = _NO_CHILDREN

    @property
    def children(self) -> Mapping[int, "TrieNode"]:
        """A read-only ``{lock: child}`` view, in insertion order."""
        edges = self.edges
        if type(edges) is TrieNode:
            return MappingProxyType({edges.label: edges})
        if edges:
            return MappingProxyType(edges)
        return _NO_CHILDREN

    def child(self, lock: int) -> Optional["TrieNode"]:
        """The child on the edge labeled ``lock``, or ``None``."""
        edges = self.edges
        if type(edges) is TrieNode:
            return edges if edges.label == lock else None
        return edges.get(lock)

    def add_child(self, lock: int) -> "TrieNode":
        """Create and return the child on a new edge labeled ``lock``
        (no edge may carry that label yet)."""
        child = TrieNode(lock)
        edges = self.edges
        if type(edges) is TrieNode:
            self.edges = {edges.label: edges, lock: child}
        elif edges:
            edges[lock] = child
        else:
            self.edges = child
        return child

    def remove_child(self, lock: int) -> None:
        """Drop the edge labeled ``lock`` (``KeyError`` if there is
        none); a dict left with one child collapses to it."""
        edges = self.edges
        if type(edges) is TrieNode:
            if edges.label != lock:
                raise KeyError(lock)
            self.edges = _NO_CHILDREN
        elif edges:
            del edges[lock]
            if len(edges) == 1:
                (self.edges,) = edges.values()
        else:
            raise KeyError(lock)

    @property
    def holds_accesses(self) -> bool:
        """True if this node summarizes at least one stored access."""
        return self.thread is not THREAD_TOP

    def clear_accesses(self) -> None:
        self.thread = THREAD_TOP
        self.kind = AccessKind.READ


@dataclass
class PriorAccess:
    """What is known about the earlier access of a reported race.

    Because of the ``t⊥`` space optimization the earlier thread cannot
    always be identified (Section 3.1); ``thread`` is then ``t⊥``.
    """

    thread: ThreadValue
    lockset: frozenset
    kind: AccessKind


@dataclass
class TrieStats:
    """Operation counters, reported by the space/overhead benchmarks."""

    nodes_allocated: int = 0
    nodes_freed: int = 0
    weaker_hits: int = 0
    weaker_misses: int = 0
    #: Race checks settled by the guard (or an empty trie) without a
    #: walk; ``weaker_misses`` minus this is the walks that ran.
    race_walks_skipped: int = 0
    races_found: int = 0
    inserts: int = 0
    updates: int = 0

    @property
    def live_nodes(self) -> int:
        """Nodes currently allocated across every trie sharing these
        counters — the O(1) equivalent of summing ``node_count()``."""
        return self.nodes_allocated - self.nodes_freed

    def merge(self, other: "TrieStats") -> None:
        """Accumulate another detector's counters (shard merging)."""
        self.nodes_allocated += other.nodes_allocated
        self.nodes_freed += other.nodes_freed
        self.weaker_hits += other.weaker_hits
        self.weaker_misses += other.weaker_misses
        self.race_walks_skipped += other.race_walks_skipped
        self.races_found += other.races_found
        self.inserts += other.inserts
        self.updates += other.updates


class LockTrie:
    """The access history of one memory location."""

    __slots__ = ("stats", "guards", "root", "depth", "guard")

    def __init__(
        self, stats: Optional[TrieStats] = None, guards: Optional[dict] = None
    ):
        self.stats = stats if stats is not None else TrieStats()
        #: The intern table of guards (``{guard: guard}``): tries handed
        #: one table share one frozenset per distinct guard value.
        self.guards = guards if guards is not None else {}
        self.root = TrieNode()
        self.stats.nodes_allocated += 1
        #: The longest path ever inserted (never lowered by a prune):
        #: no stored access has a larger lockset.
        self.depth = 0
        #: The locks held by every access ever stored (the intersection
        #: of their locksets), or ``None`` while none has been.  A prune
        #: never widens it, so it is a subset of every stored lockset.
        self.guard = None

    # ------------------------------------------------------------------
    # The per-access transaction.

    def observe(
        self,
        lockset: frozenset,
        path: tuple,
        thread: int,
        kind: AccessKind,
    ):
        """Process one access: weakness check, race check, insert, prune.

        ``path`` is ``lockset`` as a sorted tuple.  Returns
        :data:`FILTERED` if a stored access is weaker (the trie is left
        unchanged); otherwise records the access and returns the prior
        access of the first race found, or ``None``.  Equivalent to
        ``find_weaker`` → ``find_race`` → ``insert`` → ``prune_stronger``.

        The weakness check (it filters most accesses, so those cost
        this one frame) and the guard test run inline; the other three
        steps call the overridable ``_find_race``, ``_insert`` and
        ``_prune``.
        """
        # Weakness check (``_find_weaker``, inlined).  Each child on an
        # edge of ``path`` is tested as it is found; only a child that
        # has children of its own and more of ``path`` left to follow
        # is queued for a later scan, and an only child's edges are
        # scanned next without queueing.
        stats = self.stats
        root = self.root
        node_thread = root.thread
        if (
            node_thread is not THREAD_TOP
            and (node_thread == thread or node_thread is THREAD_BOTTOM)
            and (root.kind is kind or root.kind is _WRITE)
        ):
            stats.weaker_hits += 1
            return FILTERED
        edges = root.edges
        end = len(path)
        if edges and end:
            index = 0
            pending = None
            while True:
                if type(edges) is TrieNode:
                    # An only child.  Stored paths are sorted, so its
                    # label can sit only in ``path[index:]`` if at all.
                    lock = edges.label
                    if lock in path:
                        node_thread = edges.thread
                        if (
                            node_thread is not THREAD_TOP
                            and (node_thread == thread or node_thread is THREAD_BOTTOM)
                            and (edges.kind is kind or edges.kind is _WRITE)
                        ):
                            stats.weaker_hits += 1
                            return FILTERED
                        index = path.index(lock) + 1
                        if index < end and edges.edges:
                            edges = edges.edges
                            continue
                else:
                    get = edges.get
                    while index < end:
                        child = get(path[index])
                        index += 1
                        if child is None:
                            continue
                        node_thread = child.thread
                        if (
                            node_thread is not THREAD_TOP
                            and (node_thread == thread or node_thread is THREAD_BOTTOM)
                            and (child.kind is kind or child.kind is _WRITE)
                        ):
                            stats.weaker_hits += 1
                            return FILTERED
                        if index < end and child.edges:
                            if pending is None:
                                pending = []
                            pending.append((child.edges, index))
                if not pending:
                    break
                edges, index = pending.pop()
        stats.weaker_misses += 1

        # Race check: no walk on an empty trie, or when the event holds
        # a lock every stored access held (Case I for the whole trie).
        guard = self.guard
        if guard is not None and guard.isdisjoint(lockset):
            prior = self._find_race(root, [], lockset, thread, kind)
        else:
            stats.race_walks_skipped += 1
            prior = None

        node = self._insert(lockset, path, thread, kind)
        # Prune with the node's *post-meet* value: if the insert merged
        # threads to t⊥ (or kinds to WRITE), the node now covers
        # strictly more stored accesses than the raw event would.  No
        # walk while no stored lockset is larger than this one: the
        # only one that can contain it is the node's own.
        if self.depth > end:
            self._prune(root, path, 0, node.thread, node.kind, node)
        return prior

    # ------------------------------------------------------------------
    # Weakness check.

    def find_weaker(
        self, lockset: frozenset, thread: int, kind: AccessKind
    ) -> bool:
        """True iff some stored access is weaker than ``(lockset, thread,
        kind)`` (so the incoming event can be ignored)."""
        return self._find_weaker(tuple(sorted(lockset)), thread, kind)

    def _find_weaker(self, path: tuple, thread: int, kind: AccessKind) -> bool:
        # Only edges labeled with locks in the event's lockset may be
        # followed.  Stored paths are sorted, so below the edge for
        # ``path[i]`` only ``path[i + 1:]`` can label a further edge.
        # The answer is a boolean, so visit order is free: an explicit
        # stack of ``(node, next index)`` instead of a call per node.
        stack = [(self.root, 0)]
        pop = stack.pop
        push = stack.append
        end = len(path)
        while stack:
            node, index = pop()
            node_thread = node.thread
            if (
                node_thread is not THREAD_TOP
                and (node_thread == thread or node_thread is THREAD_BOTTOM)
                and (node.kind is kind or node.kind is _WRITE)
            ):
                self.stats.weaker_hits += 1
                return True
            edges = node.edges
            if type(edges) is TrieNode:
                # Sorted paths: an only child's label can sit only in
                # ``path[index:]`` if it is in ``path`` at all.
                if edges.label in path:
                    push((edges, path.index(edges.label) + 1))
            elif edges:
                get = edges.get
                while index < end:
                    child = get(path[index])
                    index += 1
                    if child is not None:
                        push((child, index))
        self.stats.weaker_misses += 1
        return False

    # ------------------------------------------------------------------
    # Race check.

    def find_race(
        self,
        lockset: frozenset,
        thread: int,
        kind: AccessKind,
    ) -> Optional[PriorAccess]:
        """Search for a stored access racing with the incoming event.

        Returns information about the prior access of the first race
        found (depth-first order), or ``None``.  Like ``observe``, walks
        nothing on an empty trie or when ``lockset`` meets the guard.
        """
        guard = self.guard
        if guard is None or not guard.isdisjoint(lockset):
            self.stats.race_walks_skipped += 1
            return None
        return self._find_race(self.root, [], lockset, thread, kind)

    def _find_race(
        self,
        node: TrieNode,
        path: list,
        lockset: frozenset,
        thread: int,
        kind: AccessKind,
    ) -> Optional[PriorAccess]:
        # Case II: this node's accesses are lock-disjoint from the event
        # (guaranteed by Case I pruning below), involve another thread
        # (``n.t ⊓ e.t = t⊥``), and at least one side wrote.
        node_thread = node.thread
        if node_thread is not THREAD_TOP and (
            node_thread != thread or node_thread is THREAD_BOTTOM
        ):
            if node.kind is _WRITE or kind is _WRITE:
                self.stats.races_found += 1
                return PriorAccess(
                    thread=node_thread,
                    lockset=frozenset(path),
                    kind=node.kind,
                )
        edges = node.edges
        for child in (edges,) if type(edges) is TrieNode else edges.values():
            # Case I: the subtree's accesses all hold `lock`, which the
            # incoming event also holds — no race anywhere below.
            lock = child.label
            if lock in lockset:
                continue
            # Case II for the child, in this frame.
            node_thread = child.thread
            if (
                node_thread is not THREAD_TOP
                and (node_thread != thread or node_thread is THREAD_BOTTOM)
                and (child.kind is _WRITE or kind is _WRITE)
            ):
                self.stats.races_found += 1
                path.append(lock)
                return PriorAccess(
                    thread=node_thread,
                    lockset=frozenset(path),
                    kind=child.kind,
                )
            grandchildren = child.edges
            if not grandchildren:
                continue
            # Case I for every grandchild, in this frame: a child whose
            # edges below all carry locks the event holds is settled.
            if type(grandchildren) is TrieNode:
                if grandchildren.label in lockset:
                    continue
            else:
                for below in grandchildren:
                    if below not in lockset:
                        break
                else:
                    continue
            # Case III: a frame for the subtree the checks above could
            # not settle (it re-tests the child's Case II, false here).
            # ``path`` is a shared mutable stack — push/pop instead of
            # allocating a tuple per edge; a hit freezes it before
            # unwinding.
            path.append(lock)
            race = self._find_race(child, path, lockset, thread, kind)
            if race is not None:
                return race
            path.pop()
        return None

    # ------------------------------------------------------------------
    # Insertion and pruning.

    def insert(self, lockset: frozenset, thread: int, kind: AccessKind) -> TrieNode:
        """Record the access, creating or updating the node for ``lockset``."""
        return self._insert(
            frozenset(lockset), tuple(sorted(lockset)), thread, kind
        )

    def _insert(
        self, lockset: frozenset, path: tuple, thread: int, kind: AccessKind
    ) -> TrieNode:
        # Follow ``path`` as far as it is stored, then build the missing
        # suffix bottom-up, each new node the only child of the one
        # above it, and hang it below the last stored node.  New nodes
        # skip ``TrieNode.__init__``: a Python-level call per node costs
        # more than its four stores.
        stats = self.stats
        end = len(path)
        if end > self.depth:
            self.depth = end
        node = self.root
        index = 0
        while index < end:
            edges = node.edges
            if type(edges) is TrieNode:
                if edges.label != path[index]:
                    break
                node = edges
            else:
                child = edges.get(path[index])
                if child is None:
                    break
                node = child
            index += 1
        else:
            edges = None
        if edges is None:
            # The node for ``path`` exists: meet the access into it.
            node_thread = node.thread
            if node_thread is THREAD_TOP:
                stats.inserts += 1
                node.thread = thread
            else:
                stats.updates += 1
                if node_thread != thread:
                    node.thread = THREAD_BOTTOM
            if node.kind is not kind:
                node.kind = _WRITE
        else:
            stats.inserts += 1
            stats.nodes_allocated += end - index
            below = _new_node(TrieNode)
            below.label = path[end - 1]
            below.thread = thread
            below.kind = kind
            below.edges = _NO_CHILDREN
            new = below
            for position in range(end - 2, index - 1, -1):
                above = _new_node(TrieNode)
                above.label = path[position]
                above.thread = THREAD_TOP
                above.kind = _READ
                above.edges = below
                below = above
            if type(edges) is TrieNode:
                node.edges = {edges.label: edges, below.label: below}
            elif edges:
                edges[below.label] = below
            else:
                node.edges = below
            node = new
        # Narrow the guard to the locks this access holds too.
        guard = self.guard
        if guard is None:
            self.guard = self.guards.setdefault(lockset, lockset)
        elif not guard <= lockset:
            guard &= lockset
            self.guard = self.guards.setdefault(guard, guard)
        return node

    def prune_stronger(
        self, lockset: frozenset, thread: int, kind: AccessKind, keep: TrieNode
    ) -> int:
        """Remove stored accesses strictly stronger than the new access.

        A stored access at node ``n`` (path lockset ``n.L``) is stronger
        iff ``lockset ⊆ n.L ∧ thread ⊑ n.t ∧ kind ⊑ n.a``.  ``keep`` is
        the node just inserted for ``lockset`` (it trivially satisfies
        the condition and must survive).  Returns the number of nodes
        demoted.  Nothing is walked while no stored lockset is larger
        than ``lockset``: only ``keep``'s own path could contain it.

        The walk is targeted, not exhaustive: paths are stored in sorted
        lock order, so once the smallest still-required lock is smaller
        than an edge's label the whole subtree below that edge can never
        satisfy ``lockset ⊆ n.L`` and is skipped.  (Skipped subtrees are
        untouched, and the trie holds no dead internal nodes between
        prunes, so skipping never strands a trimmable node.)
        """
        path = tuple(sorted(lockset))
        if self.depth <= len(path):
            return 0
        return self._prune(self.root, path, 0, thread, kind, keep)

    def _prune(
        self,
        node: TrieNode,
        path: tuple,
        index: int,
        thread: int,
        kind: AccessKind,
        keep: TrieNode,
    ) -> int:
        # ``path[index:]`` are the locks still missing from the walk's
        # lockset; advancing ``index`` replaces slicing a fresh tuple.
        # Callers walk only while some stored lockset is larger than
        # ``path`` (``self.depth > len(path)``).
        end = len(path)
        removed = 0
        if index == end:
            if node is not keep:
                node_thread = node.thread
                if (
                    node_thread is not THREAD_TOP
                    and (thread == node_thread or thread is THREAD_BOTTOM)
                    and (kind is node.kind or kind is _WRITE)
                ):
                    node.clear_accesses()
                    removed = 1
            # Nothing is required any more: every edge qualifies.
            first = _ABOVE_EVERY_LOCK
        else:
            first = path[index]
        edges = node.edges
        if not edges:
            return removed
        dead = None
        for child in (edges,) if type(edges) is TrieNode else edges.values():
            lock = child.label
            if lock > first:
                # Edges below carry strictly larger labels, so
                # ``first`` can never join the path: skip.
                continue
            below = index + 1 if lock == first else index
            grandchildren = child.edges
            if grandchildren:
                if below != end:
                    # The child's frame would follow only the edges
                    # labeled at most the next required lock, and it
                    # would have work only below one that leads on or
                    # reaches a node covering the lockset other than
                    # ``keep``.  Without such an edge the child is
                    # settled here.
                    nxt = path[below]
                    last = below + 1 == end
                    for grandchild in (
                        (grandchildren,)
                        if type(grandchildren) is TrieNode
                        else grandchildren.values()
                    ):
                        below_lock = grandchild.label
                        if below_lock <= nxt and (
                            grandchild.edges
                            or (
                                last
                                and below_lock == nxt
                                and grandchild is not keep
                            )
                        ):
                            break
                    else:
                        continue
                removed += self._prune(child, path, below, thread, kind, keep)
                if child.edges or child.thread is not THREAD_TOP:
                    continue
            elif below != end or child is keep:
                continue
            else:
                # A leaf whose path covers the lockset: the demotion
                # test of the child's own frame, in this one.
                node_thread = child.thread
                if not (
                    node_thread is not THREAD_TOP
                    and (thread == node_thread or thread is THREAD_BOTTOM)
                    and (kind is child.kind or kind is _WRITE)
                ):
                    continue
                child.thread = THREAD_TOP
                child.kind = AccessKind.READ
                removed += 1
            # The child holds no access and has no children left: trim
            # it.  (``keep`` always holds one.)  A child this loop left
            # untouched cannot be trimmable: the trie holds no such
            # nodes between prunes.
            if dead is None:
                dead = []
            dead.append(lock)
        if dead is not None:
            for lock in dead:
                node.remove_child(lock)
            self.stats.nodes_freed += len(dead)
        return removed

    # ------------------------------------------------------------------
    # Introspection (tests, space accounting).

    def stored_accesses(self) -> list[tuple[frozenset, ThreadValue, AccessKind]]:
        """All stored accesses as ``(lockset, thread, kind)`` triples."""
        result = []
        self._collect(self.root, (), result)
        return result

    def _collect(self, node: TrieNode, path: tuple, out: list) -> None:
        if node.holds_accesses:
            out.append((frozenset(path), node.thread, node.kind))
        for child in node.children.values():
            self._collect(child, path + (child.label,), out)

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            edges = stack.pop().edges
            count += 1
            if type(edges) is TrieNode:
                stack.append(edges)
            else:
                stack.extend(edges.values())
        return count
