"""Object-granularity race detection (Praun & Gross, OOPSLA 2001) — baseline.

Object race detection trades precision for speed by monitoring whole
*objects* rather than individual fields: all fields of an object share
one candidate lockset and one ownership record.  The paper's Table 3
isolates the granularity effect with its own detector's "FieldsMerged"
variant; this module additionally provides the baseline as described in
related work — object granularity *plus* Eraser's single-common-lock
definition plus an ownership filter — which the paper reports flooding
hedc with over 100 mostly-spurious reports against its own 5.

The coarsening produces two spurious-report patterns the paper calls
out (Section 8.3):

* objects mixing immutable (safely unsynchronized) fields with mutable
  locked fields — the immutable fields' lock-free accesses empty the
  object's candidate set;
* objects mixing thread-local fields with shared, synchronized fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..detector.locksets import LockTracker
from ..detector.ownership import SHARED, OwnershipFilter
from ..lang.ast import AccessKind
from ..runtime.events import EventSink
from .condsync import SyncClocks


@dataclass
class ObjectRaceReport:
    object_uid: int
    object_label: str
    thread_id: int
    site_id: int


class ObjectRaceDetector(EventSink):
    """Ownership + per-object candidate locksets (single-common-lock)."""

    def __init__(self):
        self.locks = LockTracker()
        self.ownership = OwnershipFilter()
        self._sync = SyncClocks()
        #: object uid -> condition-sync epoch of the owner's last access.
        self._owner_epoch: dict[int, tuple] = {}
        #: object uid -> candidate lockset (None = not yet shared).
        self._candidates: dict[int, Optional[frozenset]] = {}
        #: object uids with at least one shared *write*.
        self._written: set[int] = set()
        self._reported: set[int] = set()
        self.reports: list[ObjectRaceReport] = []
        self.racy_objects: set = set()

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.exit(thread_id, lock_uid)

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        self._sync.on_wait(thread_id, cond_uid)

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        self._sync.on_notify(thread_id, cond_uid)

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        owner = self.ownership.owner_of(object_uid)
        if (
            owner is not None
            and owner is not SHARED
            and owner != thread_id
            and self._sync.ordered(self._owner_epoch.get(object_uid), thread_id)
        ):
            # Condition-sync handoff: the object stays owned (by the new
            # thread) instead of transitioning to shared — the deferral
            # the paper's per-pair check does not share.
            self.ownership.reown(object_uid, thread_id)
            self._owner_epoch[object_uid] = self._sync.epoch(thread_id)
            return
        admit, _ = self.ownership.admit(object_uid, thread_id)
        if not admit:
            self._owner_epoch[object_uid] = self._sync.epoch(thread_id)
            return
        held = self.locks.lockset(thread_id)
        previous = self._candidates.get(object_uid)
        candidates = held if previous is None else (previous & held)
        self._candidates[object_uid] = candidates
        if kind is AccessKind.WRITE:
            self._written.add(object_uid)
        if (
            not candidates
            and object_uid in self._written
            and object_uid not in self._reported
        ):
            self._reported.add(object_uid)
            self.racy_objects.add(object_label)
            self.reports.append(
                ObjectRaceReport(
                    object_uid=object_uid,
                    object_label=object_label,
                    thread_id=thread_id,
                    site_id=site_id,
                )
            )

    @property
    def object_count(self) -> int:
        return len(self.racy_objects)
