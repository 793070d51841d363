"""Per-thread lockset tracking for the detection pipeline.

The runtime's access events carry no lockset; the detector observes
monitor enter/exit notifications and maintains each thread's current set
of held locks — component ``e.L`` of the paper's access-event 5-tuple
(Section 2.4).

Two kinds of locks are tracked:

* **real locks** — uids of MJ objects whose monitors the thread holds.
  They follow Java's nested (LIFO) locking discipline, which the cache's
  eviction lists rely on (Section 4.2);
* **pseudo-locks** — the dummy ``S_j`` synchronization objects that
  model ``join`` ordering (Section 2.3).  Pseudo-locks are *monotone*
  within a thread's lifetime: a thread holds its own ``S_j`` from its
  first event, and permanently gains ``S_k`` when it joins thread ``k``.
  Monotonicity is what keeps the cache sound in their presence: an
  entry's lockset can only lose *real* locks, and those evictions are
  handled by the per-lock LIFO lists.

Pseudo-lock ids are negative (``-(thread_id + 1)``) so they can never
collide with object uids, which are positive.

Locksets are **interned and versioned**: programs cycle through a
handful of distinct locksets, so the tracker keeps one canonical
(pre-hashed) frozenset per distinct value and hands the same object out
to every thread currently holding that combination.  A per-thread
version counter ticks on every lockset mutation, letting consumers
detect "lockset unchanged since I last looked" without comparing sets.
Sharing canonical frozensets across events is sound because locksets
are immutable values — a mutation *replaces* a thread's lockset, it
never updates one in place.  Next to each canonical lockset the table
keeps its *sorted lock path* (the tuple the lockset trie is addressed
by), so the detector sorts once per distinct lockset rather than on
every access that reaches the trie.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.events import LogCorruptError

_EMPTY_LOCKSET: frozenset = frozenset()


def join_pseudo_lock(thread_id: int) -> int:
    """The dummy lock ``S_j`` for thread ``j`` (Section 2.3)."""
    return -(thread_id + 1)


class LockTracker:
    """Tracks every thread's held locks from the monitor event stream."""

    def __init__(self) -> None:
        #: thread id -> real lock uids in acquisition order (LIFO stack).
        self._stacks: dict[int, list[int]] = {}
        #: thread id -> set of held pseudo-locks.
        self._pseudo: dict[int, set[int]] = {}
        #: thread id -> cached intern-table entry (invalidated on change).
        self._cached: dict[int, Optional[tuple]] = {}
        #: thread id -> mutation counter.
        self._versions: dict[int, int] = {}
        #: value -> (canonical pre-hashed frozenset, sorted lock path):
        #: the intern table.
        self._intern: dict[frozenset, tuple] = {
            _EMPTY_LOCKSET: (_EMPTY_LOCKSET, ())
        }

    def _invalidate(self, thread_id: int) -> None:
        self._cached[thread_id] = None
        self._versions[thread_id] = self._versions.get(thread_id, 0) + 1

    # ------------------------------------------------------------------
    # Real locks (monitor events; the pipeline filters out reentrant ones).

    def enter(self, thread_id: int, lock_uid: int) -> None:
        """Record an outermost monitorenter."""
        self._stacks.setdefault(thread_id, []).append(lock_uid)
        self._invalidate(thread_id)

    def exit(self, thread_id: int, lock_uid: int) -> None:
        """Record an outermost monitorexit (the actual lock release)."""
        stack = self._stacks.get(thread_id)
        if not stack or stack[-1] != lock_uid:
            # Java enforces block-structured locking, and the MJ runtime
            # only has `sync` blocks, so only a damaged log can release
            # out of LIFO order.
            raise LogCorruptError(
                f"unbalanced monitor exit: thread {thread_id} releases "
                f"lock {lock_uid} while holding {stack or []}"
            )
        stack.pop()
        self._invalidate(thread_id)

    # ------------------------------------------------------------------
    # Pseudo-locks (thread lifecycle events).

    def acquire_pseudo(self, thread_id: int, pseudo_lock: int) -> None:
        self._pseudo.setdefault(thread_id, set()).add(pseudo_lock)
        self._invalidate(thread_id)

    def release_pseudo(self, thread_id: int, pseudo_lock: int) -> None:
        held = self._pseudo.get(thread_id)
        if held is not None:
            held.discard(pseudo_lock)
        self._invalidate(thread_id)

    # ------------------------------------------------------------------
    # Queries.

    def lockset(self, thread_id: int) -> frozenset:
        """The thread's current lockset (real + pseudo), as a canonical
        interned frozenset (identical object for identical value)."""
        cached = self._cached.get(thread_id)
        if cached is not None:
            return cached[0]
        return self.lockset_path(thread_id)[0]

    def lockset_path(self, thread_id: int) -> tuple[frozenset, tuple]:
        """``(lockset, path)``: the canonical lockset as :meth:`lockset`
        returns it, plus its locks as a sorted tuple.  Both are shared
        by every thread holding the same combination."""
        cached = self._cached.get(thread_id)
        if cached is not None:
            return cached
        stack = self._stacks.get(thread_id)
        pseudo = self._pseudo.get(thread_id)
        if stack:
            result = frozenset(stack).union(pseudo) if pseudo else frozenset(stack)
        elif pseudo:
            result = frozenset(pseudo)
        else:
            result = _EMPTY_LOCKSET
        entry = self._intern.get(result)
        if entry is None:
            # First sighting of this value: it becomes the canonical
            # object.  The dict insertion also computes (and frozenset
            # caches) its hash, so every later use is pre-hashed.
            self._intern[result] = entry = (result, tuple(sorted(result)))
        self._cached[thread_id] = entry
        return entry

    def version(self, thread_id: int) -> int:
        """Mutation counter for the thread's lockset (ticks on every
        enter/exit/pseudo-lock change)."""
        return self._versions.get(thread_id, 0)

    @property
    def interned_locksets(self) -> int:
        """Number of distinct lockset values seen so far."""
        return len(self._intern)

    def last_real_lock(self, thread_id: int) -> Optional[int]:
        """The most recently acquired *real* lock still held, or ``None``.

        This is the lock under which the cache registers new entries:
        by the LIFO discipline it is the first of the entry's (real)
        locks to be released, so evicting the entry then keeps the
        cache's subset invariant (Section 4.2).
        """
        stack = self._stacks.get(thread_id)
        if stack:
            return stack[-1]
        return None

    def holds(self, thread_id: int, lock_uid: int) -> bool:
        return lock_uid in self.lockset(thread_id)
