"""The Eraser lockset algorithm (Savage et al., TOCS 1997) — baseline.

Eraser enforces the discipline that every shared location is protected
by a single lock held on *every* access: each location carries a
candidate lockset ``C(v)``, refined by intersection with the accessing
thread's held locks; an empty ``C(v)`` on a (write-involved) shared
access is reported.  The per-location state machine defers reporting
through the initialization and read-sharing phases:

    Virgin → Exclusive(t) → Shared (first read by another thread)
                           ↘ Shared-Modified (first write by another)

Differences from the paper's detector, which this module exists to
demonstrate (Sections 8.3 and 9):

* **single common lock** — Eraser requires one lock common to *all*
  accesses, whereas the paper only requires every conflicting *pair*
  to share some lock.  The mtrt idiom (two children sharing lock
  ``syncObject``, the parent accessing after ``join``) has pairwise-
  intersecting locksets ``{S1, sync}``, ``{S2, sync}``, ``{S1, S2}``
  but no common lock: Eraser reports a spurious race, the paper's
  detector reports none;
* **no join modeling** — Eraser has no counterpart of the ``S_j``
  pseudo-locks.  This implementation still runs *with* them by default
  so that the single-common-lock difference can be isolated; pass
  ``join_pseudolocks=False`` for the historically faithful variant.

Accesses arrive as scalars through :meth:`EraserDetector.on_access_parts`.
Per-location state is keyed by the plain ``(object_uid, field)`` tuple,
and a :class:`MemoryLocation` is built only when a race is reported.  A Virgin location is one with no entry
yet: its first access creates the entry in the Exclusive state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..detector.locksets import LockTracker, join_pseudo_lock
from ..lang.ast import AccessKind
from ..runtime.events import EventSink, MemoryLocation
from .condsync import SyncClocks


class LocationState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


class _LocationInfo:
    __slots__ = ("state", "owner", "owner_epoch", "candidates", "reported")

    def __init__(self, state: LocationState, owner: int, owner_epoch: tuple):
        self.state = state
        self.owner = owner
        #: Condition-sync epoch of the owner's most recent access; an
        #: Exclusive location hands ownership to a thread whose first
        #: access is wait/notify-ordered after this epoch instead of
        #: going Shared.
        self.owner_epoch = owner_epoch
        self.candidates: Optional[frozenset] = None
        self.reported = False


@dataclass
class EraserReport:
    location: object
    object_label: str
    field: str
    thread_id: int
    site_id: int


class EraserDetector(EventSink):
    """The Eraser state machine over the MJ event stream."""

    def __init__(self, join_pseudolocks: bool = False):
        self._join_pseudolocks = join_pseudolocks
        self.locks = LockTracker()
        self._sync = SyncClocks()
        self._locations: dict = {}
        self.reports: list[EraserReport] = []
        self.racy_locations: set = set()
        self.racy_objects: set = set()
        if join_pseudolocks:
            self.locks.acquire_pseudo(0, join_pseudo_lock(0))

    # -- synchronization ---------------------------------------------------

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if not reentrant:
            self.locks.exit(thread_id, lock_uid)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        if self._join_pseudolocks:
            self.locks.acquire_pseudo(child_id, join_pseudo_lock(child_id))

    def on_thread_end(self, thread_id: int) -> None:
        if self._join_pseudolocks:
            self.locks.release_pseudo(thread_id, join_pseudo_lock(thread_id))

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        if self._join_pseudolocks:
            self.locks.acquire_pseudo(joiner_id, join_pseudo_lock(joined_id))

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        self._sync.on_wait(thread_id, cond_uid)

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        self._sync.on_notify(thread_id, cond_uid)

    # -- the state machine --------------------------------------------------

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        key = (object_uid, field)
        info = self._locations.get(key)
        if info is None:
            self._locations[key] = _LocationInfo(
                LocationState.EXCLUSIVE, thread_id, self._sync.epoch(thread_id)
            )
            return
        state = info.state
        if state is LocationState.EXCLUSIVE:
            if thread_id == info.owner:
                info.owner_epoch = self._sync.epoch(thread_id)
                return
            if self._sync.ordered(info.owner_epoch, thread_id):
                # Condition-sync handoff: the previous owner's last
                # access happened before this one, so the initialization
                # discipline continues under the new owner — the state
                # machine stays Exclusive (Eraser's deferral).
                info.owner = thread_id
                info.owner_epoch = self._sync.epoch(thread_id)
                return
            info.candidates = self.locks.lockset(thread_id)
            if kind is AccessKind.WRITE:
                info.state = LocationState.SHARED_MODIFIED
                self._check(info, key, object_label, thread_id, site_id)
            else:
                info.state = LocationState.SHARED
            return
        # Shared / Shared-Modified: refine the candidate set.
        held = self.locks.lockset(thread_id)
        candidates = info.candidates
        info.candidates = held if candidates is None else candidates & held
        if state is LocationState.SHARED:
            if kind is AccessKind.WRITE:
                info.state = LocationState.SHARED_MODIFIED
                self._check(info, key, object_label, thread_id, site_id)
            return
        self._check(info, key, object_label, thread_id, site_id)

    def _check(self, info, key, object_label, thread_id, site_id) -> None:
        if info.reported or info.candidates:
            return
        info.reported = True
        location = MemoryLocation(*key)
        self.racy_locations.add(location)
        self.racy_objects.add(object_label)
        self.reports.append(
            EraserReport(
                location=location,
                object_label=object_label,
                field=location.field,
                thread_id=thread_id,
                site_id=site_id,
            )
        )

    @property
    def object_count(self) -> int:
        return len(self.racy_objects)
