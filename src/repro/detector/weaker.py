"""The weaker-than relation (Section 3.1 of the paper).

Given two past access events ``p`` and ``q``, if every future access
that races with ``q`` also races with ``p``, then ``q`` is redundant for
race detection and only ``p`` (the *weaker* event) need be kept.  The
paper's sufficient dynamic condition is the partial order

.. math::

    p \\sqsubseteq q \\iff p.m = q.m \\land p.L \\subseteq q.L
                     \\land p.t \\sqsubseteq q.t \\land p.a \\sqsubseteq q.a

with the thread order ``t_i ⊑ t_j ⟺ t_i = t_j ∨ t_i = t⊥`` and the
access order ``a_i ⊑ a_j ⟺ a_i = a_j ∨ a_i = WRITE``.

``t⊥`` ("bottom": at least two distinct threads) and ``t⊤`` ("top": no
threads, used for internal trie nodes) are module-level sentinels here.
Thread ids in events are plain ints; the sentinels are private singleton
objects that compare unequal to every int.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Union

from ..lang.ast import AccessKind


class _ThreadSentinel:
    """Singleton sentinel for the t⊥ / t⊤ pseudo-thread values."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        # Sentinels are compared by identity; unpickling (e.g. when a
        # race report crosses a process-pool boundary in the sharded
        # post-mortem engine) must yield the canonical singleton.
        return (_sentinel_by_name, (self._name,))


def _sentinel_by_name(name: str) -> "_ThreadSentinel":
    return THREAD_BOTTOM if name == "t⊥" else THREAD_TOP


#: "At least two distinct threads" — the merged-thread value (Section 3.1).
THREAD_BOTTOM = _ThreadSentinel("t⊥")
#: "No threads" — the value of trie nodes that represent no accesses.
THREAD_TOP = _ThreadSentinel("t⊤")

ThreadValue = Union[int, _ThreadSentinel]


def thread_leq(t_i: ThreadValue, t_j: ThreadValue) -> bool:
    """The thread partial order ``t_i ⊑ t_j``."""
    return t_i == t_j or t_i is THREAD_BOTTOM


def access_leq(a_i: AccessKind, a_j: AccessKind) -> bool:
    """The access-type partial order ``a_i ⊑ a_j``."""
    return a_i is a_j or a_i is AccessKind.WRITE


def thread_meet(t_i: ThreadValue, t_j: ThreadValue) -> ThreadValue:
    """The meet operator ⊓ on thread values (Section 3.2.1)."""
    if t_i is THREAD_TOP:
        return t_j
    if t_j is THREAD_TOP:
        return t_i
    if t_i == t_j:
        return t_i
    return THREAD_BOTTOM


def access_meet(a_i: AccessKind, a_j: AccessKind) -> AccessKind:
    """The meet operator ⊓ on access types."""
    if a_i is a_j:
        return a_i
    return AccessKind.WRITE


@dataclass(frozen=True)
class StoredAccess:
    """An access event as the detector stores it: ``(m, t, L, a)``.

    The memory location is kept outside (detector state is partitioned
    by location), so this is the per-location residue ``(t, L, a)`` plus
    the location key for the standalone helpers below.
    """

    location: object
    thread: ThreadValue
    lockset: FrozenSet[int]
    kind: AccessKind


def weaker_than(p: StoredAccess, q: StoredAccess) -> bool:
    """Definition 2: ``p ⊑ q``."""
    return (
        p.location == q.location
        and p.lockset <= q.lockset
        and thread_leq(p.thread, q.thread)
        and access_leq(p.kind, q.kind)
    )


def is_race(e_i: StoredAccess, e_j: StoredAccess) -> bool:
    """``IsRace(e_i, e_j)`` from Section 2.4.

    Only meaningful for *concrete* events (integer thread ids); events
    whose thread is t⊥ represent merged history, and racing against
    them is the trie's job (Case II), not this predicate's.
    """
    if not (isinstance(e_i.thread, int) and isinstance(e_j.thread, int)):
        raise ValueError("IsRace is defined on concrete thread ids only")
    if e_i.location != e_j.location:
        return False
    if e_i.thread == e_j.thread:
        return False
    if e_i.lockset & e_j.lockset:
        return False
    return e_i.kind is AccessKind.WRITE or e_j.kind is AccessKind.WRITE
