"""A naïve reference detector: the ground truth for the optimized one.

Section 2.5 observes that enumerating ``FullRace`` — *all* racing access
pairs — needs worst-case ``O(N²)`` time and space, which is exactly what
this module does.  It stores every admitted access event and checks
``IsRace`` pairwise.  It exists for two purposes:

* the test suite's oracle: Definition 1 guarantees the optimized
  detector reports at least one access for every location with a
  non-empty ``MemRace(m)``; property-based tests compare the optimized
  detector's racy-location set against this reference on random event
  streams and schedules;
* the paper's *post-mortem* remark (Section 2.6): full ``FullRace``
  reconstruction is feasible offline; this is that reconstruction.

The reference applies the same front-half semantics as the pipeline
(join pseudo-locks, optional ownership filtering, optional field
merging) so the two detectors see identical event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import AccessKind
from ..runtime.events import EventSink, MemoryLocation, ObjectKind
from .config import DetectorConfig
from .locksets import LockTracker, join_pseudo_lock
from .ownership import OwnershipFilter


@dataclass(frozen=True)
class RecordedAccess:
    """One stored access with its attached lockset."""

    thread_id: int
    lockset: frozenset
    kind: AccessKind
    site_id: int
    object_label: str


@dataclass(frozen=True)
class RacePair:
    """An element of ``FullRace``: two conflicting accesses on one location."""

    key: object
    earlier: RecordedAccess
    later: RecordedAccess


class ReferenceDetector(EventSink):
    """Quadratic full-enumeration detector (the FullRace oracle)."""

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config if config is not None else DetectorConfig()
        self.locks = LockTracker()
        self.ownership = OwnershipFilter() if self.config.ownership else None
        self._history: dict = {}
        self.pairs: list[RacePair] = []
        self.racy_locations: set = set()
        self.racy_objects: set = set()
        if self.config.join_pseudolocks:
            self.locks.acquire_pseudo(0, join_pseudo_lock(0))

    # -- synchronization events (same semantics as the pipeline) --------

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.exit(thread_id, lock_uid)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        if self.config.join_pseudolocks:
            self.locks.acquire_pseudo(child_id, join_pseudo_lock(child_id))

    def on_thread_end(self, thread_id: int) -> None:
        if self.config.join_pseudolocks:
            self.locks.release_pseudo(thread_id, join_pseudo_lock(thread_id))

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        if self.config.join_pseudolocks:
            self.locks.acquire_pseudo(joiner_id, join_pseudo_lock(joined_id))

    # -- accesses --------------------------------------------------------

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        # FieldsMerged keys an object's fields by its uid alone; class
        # objects keep per-field static locations.
        if self.config.fields_merged and object_kind is not ObjectKind.CLASS:
            key = object_uid
        else:
            key = (object_uid, field)
        if self.ownership is not None:
            admit, _ = self.ownership.admit(key, thread_id)
            if not admit:
                return
        current = RecordedAccess(
            thread_id=thread_id,
            lockset=self.locks.lockset(thread_id),
            kind=kind,
            site_id=site_id,
            object_label=object_label,
        )
        history = self._history.setdefault(key, [])
        location = None
        for earlier in history:
            if self._is_race(earlier, current):
                if location is None:
                    location = key if type(key) is int else MemoryLocation(*key)
                self.pairs.append(
                    RacePair(key=location, earlier=earlier, later=current)
                )
                self.racy_locations.add(location)
                self.racy_objects.add(object_label)
        history.append(current)

    def _is_race(self, e_i: RecordedAccess, e_j: RecordedAccess) -> bool:
        if e_i.thread_id == e_j.thread_id:
            return False
        if e_i.lockset & e_j.lockset:
            return False
        return e_i.kind is AccessKind.WRITE or e_j.kind is AccessKind.WRITE

    # -- results ----------------------------------------------------------

    @property
    def full_race(self) -> list[RacePair]:
        """The complete ``FullRace`` set for the observed execution."""
        return self.pairs

    def mem_race(self, key) -> list[RacePair]:
        """``MemRace(m)``: the racing pairs on one location."""
        return [pair for pair in self.pairs if pair.key == key]
