"""Hand-injected detector bugs, for validating the lab itself.

A differential oracle is only trustworthy if it demonstrably *fails*
when the detector is broken.  This module provides deliberately wrong
:class:`~repro.detector.pipeline.RaceDetector` variants, selectable by
name from the CLI (``repro difflab --inject NAME``) and used by the
test suite to assert end-to-end: injected bug → classified violation →
shrunk reproducer.

Each :class:`Injection` pairs a *detector factory* (zero-argument
callable producing the broken detector) with the
:class:`~repro.detector.config.DetectorConfig` the rest of the battery
must run under so the comparison is apples-to-apples.  The config
matters: under the default ``join_pseudolocks`` modeling every thread's
lockset contains its own ``S_t`` pseudo-lock, so two distinct threads
never insert at the same trie node and the ``t⊥`` thread meet is
unreachable — a bug there is only observable with pseudo-locks
disabled (an empirical fact the lab itself surfaced; see
``docs/difflab.md``).

When a factory is injected the lab skips the sharded battery — shard
workers build plain detectors internally, so the parity axis would
compare a broken serial detector against correct shards and bury the
interesting Definition-1 violation under parity noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..detector.config import DetectorConfig
from ..detector.pipeline import RaceDetector
from ..detector.trie import LockTrie, PriorAccess
from ..lang.ast import AccessKind
from ..detector.weaker import THREAD_BOTTOM, thread_meet


@dataclass(frozen=True)
class Injection:
    """One named detector bug plus the battery config it needs."""

    name: str
    factory: Callable[[], RaceDetector]
    #: Config for the battery's reference detectors (and the factory's
    #: own detector) — the legitimate semantics the bug deviates from.
    config: DetectorConfig
    description: str


class NoMeetLockTrie(LockTrie):
    """BUG (deliberate): drops the ``t⊥`` thread meet on insert.

    When a second thread stores an access under an already-populated
    lockset node, the node keeps the *first* thread instead of meeting
    to ``t⊥``.  A later access by that first thread with a disjoint
    lockset then looks same-thread to ``find_race`` and the race with
    the second thread's stored access is silently missed — a
    Definition 1 completeness break (the §3.1 optimization done wrong).
    """

    def _insert(self, path, thread, kind):
        node = self.root
        for lock in path:
            node = node.child(lock)
            if node is None:
                break
        else:
            if node.holds_accesses:
                # The bug: re-store the existing thread value, so the
                # meet keeps it instead of going to t⊥.
                thread = node.thread
        return super()._insert(path, thread, kind)


class ReadBlindLockTrie(LockTrie):
    """BUG (deliberate): ``find_race`` demands two writes.

    Case II of the race check requires ``e.a ⊓ n.a = WRITE`` — one
    write suffices.  This variant requires *both* sides to be writes,
    as if read-write conflicts were as benign as read-read ones.  Any
    location raced only through read-write pairs (one thread reads it,
    another writes it) is silently missed, which the fuzzer's generated
    reader/writer mixes hit readily under the default config.
    """

    def _find_race(self, node, path, lockset, thread, kind):
        if node.holds_accesses and thread_meet(node.thread, thread) is THREAD_BOTTOM:
            # The bug: `node.kind is WRITE and kind is WRITE` instead of
            # the meet (which detects read-write conflicts too).
            if node.kind is AccessKind.WRITE and kind is AccessKind.WRITE:
                self.stats.races_found += 1
                return PriorAccess(
                    thread=node.thread,
                    lockset=frozenset(path),
                    kind=node.kind,
                )
        for lock, child in node.children.items():
            if lock in lockset:
                continue
            path.append(lock)
            race = self._find_race(child, path, lockset, thread, kind)
            if race is not None:
                return race
            path.pop()
        return None


#: The pseudo-lock-free semantics the t⊥ injection is observable under.
_NO_PSEUDOLOCKS = DetectorConfig(join_pseudolocks=False)


class DropTBottomMeetDetector(RaceDetector):
    """Paper detector wired to the broken no-meet trie."""

    trie_class = NoMeetLockTrie

    def __init__(self):
        super().__init__(config=_NO_PSEUDOLOCKS)


class ReadBlindDetector(RaceDetector):
    """Paper detector wired to the write-write-only race check."""

    trie_class = ReadBlindLockTrie


def drop_join_pseudolocks() -> RaceDetector:
    """Injection: the detector ignores the S_j join modeling (§2.3).

    Post-join accesses by the parent then look concurrent with the
    joined child's accesses: spurious reports, i.e. a precision-loss
    violation against the FullRace reference (which keeps the correct
    config).
    """
    return RaceDetector(config=DetectorConfig(join_pseudolocks=False))


#: Injection registry: name → Injection.
INJECTIONS = {
    injection.name: injection
    for injection in (
        Injection(
            name="read-write-blind",
            factory=ReadBlindDetector,
            config=DetectorConfig(),
            description="find_race only reports write-write pairs; "
            "read-write races are missed (definition1-miss).",
        ),
        Injection(
            name="drop-tbottom-meet",
            factory=DropTBottomMeetDetector,
            config=_NO_PSEUDOLOCKS,
            description="trie insert keeps the first thread instead of "
            "meeting to t-bottom; races against merged-away accesses "
            "are missed (definition1-miss; observable only without "
            "join pseudo-locks).",
        ),
        Injection(
            name="drop-join-pseudolocks",
            factory=drop_join_pseudolocks,
            config=DetectorConfig(),
            description="detector drops the S_j join pseudo-locks; "
            "post-join accesses spuriously race (precision-loss).",
        ),
    )
}
