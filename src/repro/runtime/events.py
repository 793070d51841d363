"""The event stream flowing from the instrumented runtime to detectors.

The paper's instrumented executable generates *access events* plus the
synchronization notifications the runtime phases need (Figure 1).  The
MJ interpreter plays the role of the instrumented executable: it emits

* an access, as scalars through :meth:`EventSink.on_access_parts`, for
  every executed, *instrumented* memory-access site (the instrumentation
  plan decides which sites are instrumented — Sections 5 and 6),
* monitor enter/exit notifications (the cache evicts on outermost
  monitorexit, Section 4.2),
* thread start / join / end notifications (used for the ownership model
  and the ``S_j`` join pseudo-locks, Sections 2.3 and 7).

Note an access carries *no lockset*: per the paper's architecture the
detector itself observes monitor operations, so the lockset component
``e.L`` of the formal 5-tuple (Section 2.4) is attached by
:class:`repro.detector.locksets.LockTracker` inside the detection
pipeline.  An :class:`AccessEvent` object exists only inside a race
report, built for the access that raced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..lang.ast import AccessKind


class MemoryLocation(NamedTuple):
    """A logical memory location ``e.m``: an object uid plus a field name.

    Array elements share the pseudo-field ``"[]"`` (footnote 1 of the
    paper); static fields use the owning class object's uid.  Detector
    variants may deliberately coarsen the key (the ``FieldsMerged``
    configuration of Table 3 keys by ``object_uid`` alone).
    """

    object_uid: int
    field: str

    def __str__(self) -> str:
        return f"#{self.object_uid}.{self.field}"


class ObjectKind(enum.Enum):
    """What kind of heap entity a location's object uid refers to."""

    INSTANCE = "instance"
    ARRAY = "array"
    CLASS = "class"


class LocationInterner:
    """Per-object field tables interning :class:`MemoryLocation` keys.

    The runtime emits millions of accesses but touches few distinct
    ``(object, field)`` pairs, so the hot path should reuse one
    canonical key object per pair instead of allocating a fresh
    NamedTuple per event.  Canonical keys make downstream dict lookups
    hit the identity fast path and keep per-location state (tries,
    ownership, caches) keyed by a single shared object.
    """

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        #: object uid -> field name -> canonical MemoryLocation.
        self._tables: dict[int, dict[str, MemoryLocation]] = {}

    def intern(self, object_uid: int, field: str) -> MemoryLocation:
        """The canonical location for ``(object_uid, field)``."""
        table = self._tables.get(object_uid)
        if table is None:
            self._tables[object_uid] = table = {}
        location = table.get(field)
        if location is None:
            table[field] = location = MemoryLocation(object_uid, field)
        return location

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


@dataclass(frozen=True)
class AccessEvent:
    """One executed memory access, as a race report carries it.

    ``site_id`` is the paper's source-location component ``e.s``: it is
    used only for reporting and optimization bookkeeping, never for the
    race decision itself.
    """

    location: MemoryLocation
    thread_id: int
    kind: AccessKind
    site_id: int
    object_kind: ObjectKind = ObjectKind.INSTANCE
    #: Textual description of the accessed object, for race reports
    #: (e.g. ``"Task#17"``).  Table 3 counts racy *objects*, so reports
    #: aggregate on this.
    object_label: str = ""

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


class EventSink:
    """Receiver interface for the runtime event stream.

    Detectors and statistics collectors subclass this; all methods
    default to no-ops so sinks override only what they observe.
    ``reentrant`` is True on monitor events that do not change lock
    ownership (inner enter/exit of a reentrant monitor).
    """

    def on_access_parts(
        self,
        object_uid: int,
        field: str,
        thread_id: int,
        kind: AccessKind,
        site_id: int,
        object_kind: ObjectKind,
        object_label: str,
    ) -> None:
        """An instrumented memory access executed, delivered as scalars.

        The one way an access enters a sink: the runtime and every log
        replay call it, and no per-access event object is built.  The
        location ``e.m`` is the ``(object_uid, field)`` pair; a sink
        builds a :class:`MemoryLocation` only for what it reports.
        """

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        """``thread_id`` entered the monitor of object ``lock_uid``."""

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        """``thread_id`` exited the monitor of object ``lock_uid``."""

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        """``parent_id`` executed ``start`` on thread ``child_id``."""

    def on_thread_end(self, thread_id: int) -> None:
        """Thread ``thread_id`` finished executing."""

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        """``joiner_id`` completed a ``join`` on finished thread ``joined_id``."""

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        """``thread_id`` returned from a ``wait`` on object ``cond_uid``.

        Emitted at wakeup (after the monitor is re-acquired), so in the
        log a notify entry always precedes the wait entries it released —
        post-mortem happens-before replay sees edges in causal order.
        The monitor release/re-acquire around the suspension is reported
        through the ordinary :meth:`on_monitor_exit` /
        :meth:`on_monitor_enter` events, keeping locksets exact.
        """

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        """``thread_id`` executed ``notify``/``notifyall`` on ``cond_uid``.

        Barrier arrivals are reported as ``notify_all`` on the barrier
        object followed by one :meth:`on_wait` per released thread.
        The lockset detectors deliberately ignore these events (the
        paper's precision argument, Section 2.2); happens-before
        detectors turn them into clock edges.
        """

    def on_run_end(self) -> None:
        """The whole program execution completed (post-mortem flush point)."""


class MulticastSink(EventSink):
    """Fans the event stream out to several sinks, in order."""

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        for sink in self.sinks:
            sink.on_access_parts(
                object_uid, field, thread_id, kind, site_id, object_kind, object_label
            )

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        for sink in self.sinks:
            sink.on_monitor_enter(thread_id, lock_uid, reentrant)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        for sink in self.sinks:
            sink.on_monitor_exit(thread_id, lock_uid, reentrant)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        for sink in self.sinks:
            sink.on_thread_start(parent_id, child_id)

    def on_thread_end(self, thread_id: int) -> None:
        for sink in self.sinks:
            sink.on_thread_end(thread_id)

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        for sink in self.sinks:
            sink.on_thread_join(joiner_id, joined_id)

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        for sink in self.sinks:
            sink.on_wait(thread_id, cond_uid)

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        for sink in self.sinks:
            sink.on_notify(thread_id, cond_uid, notify_all)

    def on_run_end(self) -> None:
        for sink in self.sinks:
            sink.on_run_end()


class CountingSink(EventSink):
    """Counts events; used by the benchmark harness for the
    platform-independent side of Table 2."""

    def __init__(self) -> None:
        self.accesses = 0
        self.reads = 0
        self.writes = 0
        self.monitor_enters = 0
        self.monitor_exits = 0
        self.thread_starts = 0
        self.thread_joins = 0
        self.waits = 0
        self.notifies = 0

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        self.accesses += 1
        if kind is AccessKind.WRITE:
            self.writes += 1
        else:
            self.reads += 1

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        self.monitor_enters += 1

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        self.monitor_exits += 1

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        self.thread_starts += 1

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        self.thread_joins += 1

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        self.waits += 1

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        self.notifies += 1


class LogSchemaError(ValueError):
    """A recorded event log cannot be read by this build.

    Raised instead of letting a stale or corrupted log misdecode: a log
    recorded by another build (different layout) or truncated in
    transit would otherwise be silently misread as field values shifting
    into the wrong positions.

    Consumers that need to act on *why* a log was rejected catch the
    three subclasses below — the error taxonomy shared by the CLI
    (distinct exit codes) and the ``repro serve`` daemon (distinct HTTP
    statuses):

    ==============================  =========  ====
    subclass                        CLI exit   HTTP
    ==============================  =========  ====
    :class:`LogNotFoundError`       2          404
    :class:`LogCorruptError`        3          422
    :class:`LogSchemaMismatchError` 4          400
    ==============================  =========  ====
    """


class LogNotFoundError(LogSchemaError):
    """The referenced log file does not exist (or cannot be opened)."""


class LogCorruptError(LogSchemaError):
    """The log's bytes are damaged: bad magic, truncated sections,
    unknown record tags, CRC mismatches, out-of-range string ids.

    Carries the byte ``offset`` of the first damage when it is known —
    the CLI prints it, and the daemon's 422 response body echoes it so
    clients can locate the corruption without re-parsing the message.
    """

    def __init__(self, message: str, offset=None) -> None:
        super().__init__(message)
        #: Byte offset of the first corrupt structure, or None.
        self.offset = offset


class LogSchemaMismatchError(LogSchemaError):
    """The log is structurally intact but was recorded under a schema
    this build does not read (an ``MJBL`` format version from another
    build, or raw tuple entries with the wrong layout)."""


class RecordingSink(EventSink):
    """Records the full event stream as a list of compact tuples.

    The backbone of post-mortem detection (Section 1 notes the approach
    "could be easily modified to perform post-mortem datarace detection
    by creating a log of access events") and of the deterministic-replay
    tests.

    Access events are stored *tuple-encoded* — ``(ACCESS, object_uid,
    field, thread_id, kind, site_id, object_kind, object_label)``, the
    arguments of :meth:`EventSink.on_access_parts` — so recording mode
    allocates no per-event object, and :meth:`replay_into` re-delivers
    the stream through that same entry point.  The plain tuples are
    also what makes sharded post-mortem detection cheap to fan out
    across processes (:mod:`repro.detector.sharded`).

    The tuple log lives only in memory: post-mortem consumers call
    :func:`validate_entries` before replaying entries they did not
    record themselves, and the at-rest format is ``MJBL``
    (:mod:`repro.runtime.binlog`).
    """

    ACCESS = "access"
    ENTER = "enter"
    EXIT = "exit"
    START = "start"
    END = "end"
    JOIN = "join"
    WAIT = "wait"
    NOTIFY = "notify"

    def __init__(self, log: Optional[list] = None) -> None:
        # ``log`` wraps already-recorded entries without copying them:
        # the tuple-log view :func:`repro.runtime.binlog.log_source`
        # hands the replay spine.
        self.log: list[tuple] = [] if log is None else log

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        self.log.append(
            (
                self.ACCESS,
                object_uid,
                field,
                thread_id,
                kind,
                site_id,
                object_kind,
                object_label,
            )
        )

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        self.log.append((self.ENTER, thread_id, lock_uid, reentrant))

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        self.log.append((self.EXIT, thread_id, lock_uid, reentrant))

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        self.log.append((self.START, parent_id, child_id))

    def on_thread_end(self, thread_id: int) -> None:
        self.log.append((self.END, thread_id))

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        self.log.append((self.JOIN, joiner_id, joined_id))

    def on_wait(self, thread_id: int, cond_uid: int) -> None:
        self.log.append((self.WAIT, thread_id, cond_uid))

    def on_notify(self, thread_id: int, cond_uid: int, notify_all: bool) -> None:
        self.log.append((self.NOTIFY, thread_id, cond_uid, notify_all))

    @property
    def access_count(self) -> int:
        return sum(1 for entry in self.log if entry[0] == self.ACCESS)

    @property
    def sync_count(self) -> int:
        return len(self.log) - self.access_count

    # -- the log-source interface (shared with BinaryLogReader) ---------

    def replay_into(self, sink: EventSink, shard: int = -1, shards: int = 1) -> None:
        """Re-deliver the recorded stream to ``sink`` (post-mortem mode):
        all of it (``shard < 0``), or shard ``shard`` of ``shards``'s
        stream — see :func:`replay_entries`."""
        replay_entries(self.log, sink, shard, shards)

    def close(self) -> None:
        """A resident log holds no resources; present so every log
        source closes (and works as a context manager) alike."""

    def __enter__(self) -> "RecordingSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Column types per entry tag, after the tag column: ids are ``int``,
#: ``reentrant`` / ``notify_all`` are ``bool``.  An entry's arity is one
#: more than its column count.
_ENTRY_COLUMNS = {
    RecordingSink.ACCESS: (int, str, int, AccessKind, int, ObjectKind, str),
    RecordingSink.ENTER: (int, int, bool),
    RecordingSink.EXIT: (int, int, bool),
    RecordingSink.START: (int, int),
    RecordingSink.END: (int,),
    RecordingSink.JOIN: (int, int),
    RecordingSink.WAIT: (int, int),
    RecordingSink.NOTIFY: (int, int, bool),
}


def validate_entries(entries) -> None:
    """Check a tuple-encoded log against the current schema.

    Raises :class:`LogSchemaError` naming the first offending entry.
    Post-mortem detection calls this before replaying raw entries that
    may have been built by other code or pickled.
    """
    for index, entry in enumerate(entries):
        if not isinstance(entry, tuple) or not entry:
            raise LogSchemaMismatchError(
                f"log entry {index} is not a tagged tuple: {entry!r}"
            )
        tag = entry[0]
        columns = _ENTRY_COLUMNS.get(tag) if isinstance(tag, str) else None
        if columns is None:
            raise LogSchemaMismatchError(
                f"log entry {index} has unknown tag {tag!r} "
                f"(known: {sorted(_ENTRY_COLUMNS)})"
            )
        if len(entry) != len(columns) + 1:
            raise LogSchemaMismatchError(
                f"log entry {index} ({tag!r}) has {len(entry)} "
                f"columns, the schema expects {len(columns) + 1}: "
                f"{entry!r}"
            )
        if not all(map(isinstance, entry[1:], columns)):
            raise LogSchemaMismatchError(
                f"log entry {index} has mistyped {tag} columns: {entry!r}"
            )


def replay_entries(entries, sink: EventSink, shard: int = -1, shards: int = 1) -> None:
    """Deliver a sequence of tuple-encoded log entries to ``sink``,
    closing with :meth:`EventSink.on_run_end`.

    Accepts the compact entries produced by :class:`RecordingSink`.
    Delivers every entry (``shard < 0``), or shard ``shard`` of
    ``shards``'s stream — its own accesses (``object_uid % shards ==
    shard``) plus every sync event, in log order — the stream a shard
    worker of :mod:`repro.detector.sharded` detects over.
    """
    if shard >= 0:
        if shard >= shards:
            raise ValueError(f"shard {shard} out of range for {shards} shards")
        if shards > 1:
            entries = (
                entry
                for entry in entries
                if entry[0] != RecordingSink.ACCESS or entry[1] % shards == shard
            )
    access = RecordingSink.ACCESS
    enter = RecordingSink.ENTER
    exit_ = RecordingSink.EXIT
    start = RecordingSink.START
    end = RecordingSink.END
    join = RecordingSink.JOIN
    wait = RecordingSink.WAIT
    notify = RecordingSink.NOTIFY
    on_access_parts = sink.on_access_parts
    for entry in entries:
        tag = entry[0]
        if tag == access:
            on_access_parts(
                entry[1], entry[2], entry[3], entry[4], entry[5], entry[6], entry[7]
            )
        elif tag == enter:
            sink.on_monitor_enter(entry[1], entry[2], entry[3])
        elif tag == exit_:
            sink.on_monitor_exit(entry[1], entry[2], entry[3])
        elif tag == start:
            sink.on_thread_start(entry[1], entry[2])
        elif tag == end:
            sink.on_thread_end(entry[1])
        elif tag == join:
            sink.on_thread_join(entry[1], entry[2])
        elif tag == wait:
            sink.on_wait(entry[1], entry[2])
        elif tag == notify:
            sink.on_notify(entry[1], entry[2], entry[3])
    sink.on_run_end()
