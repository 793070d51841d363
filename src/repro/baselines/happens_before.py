"""A happened-before (vector clock) race detector — baseline.

Detectors in the TRaDe/Djit lineage order events by the happened-before
relation induced by synchronization: lock releases/acquires, thread
start, and join create edges; two conflicting accesses race iff neither
happens before the other.

The paper's Section 2.2 argues this definition *under-reports*: when
two critical sections on the same lock happen to execute in some order,
the HB edge through the lock hides the race that would have surfaced
under the opposite acquisition order — a *feasible* datarace.  The
lockset-based detector reports it; this baseline does not.  The
``examples/feasible_vs_actual.py`` example and the integration tests
drive exactly that scenario.

Implementation: Djit-style vector clocks with a full last-read map and
last-write epoch per location (FastTrack's read-map fallback without
the epoch fast path, so every unordered prior access is reported).
Accesses arrive as scalars through :meth:`~HappensBeforeDetector.on_access_parts`.
Per-location state is keyed by the plain ``(object_uid, field)`` tuple,
and a :class:`MemoryLocation` is built only when a race is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import AccessKind
from ..runtime.events import EventSink, MemoryLocation


class VectorClock(dict):
    """A sparse vector clock: thread id -> logical time (default 0)."""

    def copy(self) -> "VectorClock":
        return VectorClock(self)

    def join(self, other: dict) -> None:
        for thread, clock in other.items():
            if clock > self.get(thread, 0):
                self[thread] = clock

    def happened_before(self, thread: int, clock: int) -> bool:
        """True iff the epoch ``(thread, clock)`` ≤ this vector clock."""
        return clock <= self.get(thread, 0)


class _LocationHistory:
    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        #: Last write epoch: (thread, clock), or None.
        self.write: Optional[tuple] = None
        #: Last read epoch per thread.
        self.reads: dict = {}


@dataclass
class HBRaceReport:
    location: object
    object_label: str
    current_thread: int
    prior_thread: int
    site_id: int
    kind: str  # "write-write" | "write-read" | "read-write"


class HappensBeforeDetector(EventSink):
    """Vector-clock datarace detection over the MJ event stream."""

    #: The report type :meth:`_report` builds; subclasses and clones
    #: with the same report fields swap it.
    report_class = HBRaceReport

    def __init__(self):
        self._thread_clocks: dict[int, VectorClock] = {0: VectorClock({0: 1})}
        self._lock_clocks: dict[int, VectorClock] = {}
        #: Condition clocks: object uid -> join of every notifier's clock.
        #: ``wait``-returns join these, ordering waiters after notifiers
        #: (and barrier parties after all arrivals).
        self._cond_clocks: dict[int, VectorClock] = {}
        self._locations: dict = {}
        self.reports: list[HBRaceReport] = []
        self.racy_locations: set = set()
        self.racy_objects: set = set()

    # -- clock plumbing ----------------------------------------------------

    def _clock(self, thread_id: int) -> VectorClock:
        clock = self._thread_clocks.get(thread_id)
        if clock is None:
            clock = VectorClock({thread_id: 1})
            self._thread_clocks[thread_id] = clock
        return clock

    def _increment(self, thread_id: int) -> None:
        clock = self._clock(thread_id)
        clock[thread_id] = clock.get(thread_id, 0) + 1

    # -- synchronization events ---------------------------------------------

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if reentrant:
            return
        lock_clock = self._lock_clocks.get(lock_uid)
        if lock_clock is not None:
            self._clock(thread_id).join(lock_clock)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if reentrant:
            return
        self._lock_clocks[lock_uid] = self._clock(thread_id).copy()
        self._increment(thread_id)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        child = self._clock(child_id)
        child.join(self._clock(parent_id))
        self._increment(parent_id)

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        # Only join a clock the joined thread actually established.
        # Fabricating ``{joined_id: 1}`` here would invent a phantom
        # epoch for a thread that never emitted an event, silently
        # ordering the joiner after work that never happened (visible in
        # sharded partitions, where a thread's accesses may all live in
        # other shards).
        joined = self._thread_clocks.get(joined_id)
        if joined is not None:
            self._clock(joiner_id).join(joined)
        self._increment(joiner_id)

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        cond = self._cond_clocks.get(cond_uid)
        if cond is None:
            self._cond_clocks[cond_uid] = cond = VectorClock()
        cond.join(self._clock(thread_id))
        self._increment(thread_id)

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        # Emitted at wakeup-return, after the notify that released the
        # waiter, so joining the accumulated condition clock is sound.
        cond = self._cond_clocks.get(cond_uid)
        if cond is not None:
            self._clock(thread_id).join(cond)

    # -- accesses -----------------------------------------------------------

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        key = (object_uid, field)
        history = self._locations.get(key)
        if history is None:
            history = self._locations[key] = _LocationHistory()
        clock = self._thread_clocks.get(thread_id)
        if clock is None:
            clock = self._clock(thread_id)
        # ``happened_before(t, c)`` inlined: ``c <= clock.get(t, 0)``.
        get = clock.get
        is_write = kind is AccessKind.WRITE

        # Every access must be ordered after the previous write.
        write = history.write
        if write is not None:
            w_thread, w_clock = write
            if w_thread != thread_id and w_clock > get(w_thread, 0):
                self._report(
                    key, object_label, thread_id, site_id, w_thread,
                    "write-write" if is_write else "write-read",
                )

        if is_write:
            # A write must also be ordered after every previous read.
            reads = history.reads
            if reads:
                for r_thread, r_clock in reads.items():
                    if r_thread != thread_id and r_clock > get(r_thread, 0):
                        self._report(
                            key, object_label, thread_id, site_id, r_thread,
                            "read-write",
                        )
                history.reads = {}
            history.write = (thread_id, get(thread_id, 0))
        else:
            history.reads[thread_id] = get(thread_id, 0)

    def _report(
        self, key, object_label, thread_id, site_id, prior_thread, kind
    ) -> None:
        location = MemoryLocation(*key)
        self.racy_locations.add(location)
        self.racy_objects.add(object_label)
        self.reports.append(
            self.report_class(
                location=location,
                object_label=object_label,
                current_thread=thread_id,
                prior_thread=prior_thread,
                site_id=site_id,
                kind=kind,
            )
        )

    @property
    def object_count(self) -> int:
        return len(self.racy_objects)
