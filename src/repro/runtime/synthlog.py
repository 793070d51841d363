"""Synthetic event-stream generator for log-scale testing.

The committed MJ workloads top out around a few hundred thousand
events — enough to validate detection, nowhere near enough to exercise
the at-rest story the binary log exists for.  This module synthesizes
schema-v3 event streams of arbitrary size (10M+ events) *directly into
an* :class:`~repro.runtime.events.EventSink`, so a
:class:`~repro.runtime.binlog.BinaryLogSink` records them with bounded
memory while a :class:`~repro.runtime.events.RecordingSink` fed the
same seed materializes the identical tuple log for parity checks.

The stream is deterministic (a 64-bit LCG, no ``random`` module) and
*well-formed*: monitor enters and exits balance per thread, every
worker is started before it acts and ended before it is joined, so the
detector battery consumes it exactly like a recorded MJ run.  The
access mix is shaped like a disciplined concurrent program so detector
state and report volume stay bounded at any scale:

* **lock-disciplined objects** — each object is permanently assigned
  one lock (``uid % locks``) and is only touched by a thread holding
  that lock, so locksets never empty out;
* **thread-local objects** — per-thread slices the ownership model
  filters, the common case the paper's Section 7 optimizes;
* a small **racy slice** touched without locks from random threads at
  a fixed total budget (~``racy_total`` accesses per trace), so large
  traces exercise the race-reporting path with a bounded report count;
* occasional **notify/wait pairs** on condition objects, covering the
  schema-v3 condition-synchronization tags at scale.
"""

from __future__ import annotations

import inspect

from ..lang.ast import AccessKind
from .events import EventSink, ObjectKind

#: uid layout; disjoint pools so routing by ``uid % shards`` spreads
#: every pool across shards.
_LOCK_BASE = 100
_COND_BASE = 5_000
_RACY_BASE = 8_000
_OBJECT_BASE = 10_000
_LOCAL_BASE = 1_000_000

_MASK = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407


class _Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = (seed * 2 + 1) & _MASK

    def next(self, bound: int) -> int:
        self.state = (self.state * _MUL + _INC) & _MASK
        return (self.state >> 33) % bound


def _check_shape(
    events: int, threads: int, racy_total: int, cond_total: int
) -> None:
    """Raise ``ValueError`` for a trace shape :func:`synthesize_into`
    cannot deliver exactly."""
    if threads < 1:
        raise ValueError(f"threads={threads} must be at least 1")
    if events < threads * 4 + racy_total + 2 * cond_total:
        raise ValueError(
            f"events={events} is too small for {threads} threads' "
            f"lifecycle plus the racy/condition budgets"
        )


def synthesize_into(
    sink: EventSink,
    events: int,
    threads: int = 8,
    objects: int = 4096,
    fields: int = 4,
    locks: int = 64,
    locals_per_thread: int = 64,
    racy_objects: int = 8,
    racy_total: int = 256,
    conds: int = 8,
    cond_total: int = 128,
    seed: int = 2002,
) -> int:
    """Stream a deterministic synthetic trace of exactly ``events``
    events into ``sink``; returns the event count delivered.

    ``events`` counts *all* delivered events — accesses, monitor
    operations, condition notifications, and thread lifecycle.
    ``racy_total`` and ``cond_total`` are per-trace budgets, not rates,
    so report volume and condition-object state stay constant as the
    trace grows.
    """
    _check_shape(events, threads, racy_total, cond_total)
    rng = _Lcg(seed)
    read = AccessKind.READ
    write = AccessKind.WRITE
    instance = ObjectKind.INSTANCE
    field_names = [f"f{i}" for i in range(fields)]
    labels: dict[int, str] = {}

    def label_of(uid: int) -> str:
        label = labels.get(uid)
        if label is None:
            labels[uid] = label = f"Syn#{uid}"
        return label

    emitted = 0
    for tid in range(1, threads + 1):
        sink.on_thread_start(0, tid)
        emitted += 1

    per_lock = max(1, objects // locks)
    racy_interval = max(1, events // max(1, racy_total))
    cond_interval = max(1, events // max(1, cond_total))
    next_racy = racy_interval
    next_cond = cond_interval

    held: list[int] = [0] * (threads + 1)  # 0 = no lock held
    held_count = 0
    on_access_parts = sink.on_access_parts

    def access(tid: int, uid: int, roll: int) -> None:
        on_access_parts(
            uid,
            field_names[roll % fields],
            tid,
            write if roll % 3 == 0 else read,
            rng.next(64),
            instance,
            label_of(uid),
        )

    # Teardown needs one end + one join per thread plus one exit per
    # currently-held lock; the loop keeps that reserve exact.
    while emitted + threads * 2 + held_count < events:
        tid = 1 + rng.next(threads)
        roll = rng.next(1000)
        budget = events - (emitted + threads * 2 + held_count)
        if emitted >= next_racy and budget >= 1:
            # The racy slice: no lock, any thread, fixed per-trace budget.
            access(tid, _RACY_BASE + rng.next(racy_objects), roll)
            emitted += 1
            next_racy += racy_interval
            continue
        if emitted >= next_cond and budget >= 2:
            # A notify/wait pair on a condition object (notify first, as
            # the recorder orders wakeups); lockset detection ignores
            # them, the format must carry them.
            cond_uid = _COND_BASE + rng.next(conds)
            other = 1 + rng.next(threads)
            sink.on_notify(tid, cond_uid, roll % 2 == 0)
            sink.on_wait(other, cond_uid)
            emitted += 2
            next_cond += cond_interval
            continue
        lock_held = held[tid]
        if lock_held:
            if roll < 150:
                sink.on_monitor_exit(tid, lock_held, False)
                held[tid] = 0
                held_count -= 1
            else:
                # Lock-disciplined access: only objects assigned to the
                # held lock, so the lockset intersection never empties.
                lock_index = lock_held - _LOCK_BASE
                uid = _OBJECT_BASE + lock_index + locks * rng.next(per_lock)
                access(tid, uid, roll)
            emitted += 1
            continue
        if roll < 300 and budget >= 2:  # enter costs the event + a reserved exit
            lock_uid = _LOCK_BASE + rng.next(locks)
            sink.on_monitor_enter(tid, lock_uid, False)
            held[tid] = lock_uid
            held_count += 1
        else:
            # Thread-local access: the ownership model's fast path.
            uid = _LOCAL_BASE + tid * locals_per_thread + rng.next(locals_per_thread)
            access(tid, uid, roll)
        emitted += 1

    for tid in range(1, threads + 1):
        if held[tid]:
            sink.on_monitor_exit(tid, held[tid], False)
            held[tid] = 0
            emitted += 1
        sink.on_thread_end(tid)
        emitted += 1
    for tid in range(1, threads + 1):
        sink.on_thread_join(0, tid)
        emitted += 1
    sink.on_run_end()
    return emitted


def synthesize_file(
    path,
    events: int,
    compress=None,
    records_per_block=None,
    **kwargs,
) -> int:
    """Stream a synthetic trace straight to an MJBL file at ``path``.

    The one-call form the ``repro synthlog`` command and the benchmarks
    share: ``compress=None`` writes format v1, an integer zlib level
    (0-9) writes v2.  Extra keyword arguments go to
    :func:`synthesize_into`.  Returns the event count written.  Rejected
    arguments raise before the file is opened, so an existing file at
    ``path`` is left as it was.
    """
    from .binlog import DEFAULT_RECORDS_PER_BLOCK, BinaryLogSink

    shape = inspect.signature(synthesize_into).bind(None, events, **kwargs)
    shape.apply_defaults()
    _check_shape(
        events,
        shape.arguments["threads"],
        shape.arguments["racy_total"],
        shape.arguments["cond_total"],
    )
    sink = BinaryLogSink(
        path,
        records_per_block=(
            DEFAULT_RECORDS_PER_BLOCK
            if records_per_block is None
            else records_per_block
        ),
        compress=compress,
    )
    try:
        return synthesize_into(sink, events, **kwargs)
    finally:
        sink.close()
