"""Deterministic thread scheduling for the MJ interpreter.

The paper evaluates on real JVM threads; under CPython a faithful
wall-clock evaluation is impossible (GIL), so this reproduction executes
MJ threads as coroutines under a *deterministic, seeded* scheduler.
Each thread is a Python generator that yields at preemption points
(statement boundaries, memory accesses, monitor operations).  The
scheduler picks which runnable thread advances next.

Two policies are provided:

* :class:`RoundRobinPolicy` — rotate between runnable threads with a
  configurable quantum of steps;
* :class:`RandomPolicy` — seeded pseudo-random choice per step, which
  explores more interleavings across seeds (used by the test suite to
  check the detector's guarantees over many schedules).

Determinism matters doubly here: the dynamic detector's report set can
legitimately vary across interleavings (it is an *on-the-fly* detector),
so reproducible experiments need reproducible schedules.
"""

from __future__ import annotations

import enum
import random
from typing import Iterator, Optional

from ..lang.errors import MJRuntimeError


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"  # Waiting for a monitor.
    JOINING = "joining"  # Waiting for another thread to finish.
    WAITING = "waiting"  # In a wait set (wait/barrier); only a notify wakes it.
    FINISHED = "finished"


class ThreadState:
    """Bookkeeping for one MJ thread.

    ``thread_id`` 0 is always the main thread; children are numbered in
    start order, matching the paper's ``T1``, ``T2``, ... notation.
    """

    def __init__(self, thread_id: int, name: str, body: Iterator):
        self.thread_id = thread_id
        self.name = name
        self.body = body
        self.status = ThreadStatus.RUNNABLE
        #: Monitor (a values.Monitor) this thread is blocked on, if any.
        self.blocked_on = None
        #: ThreadState this thread is joining on, if any.
        self.joining_on: Optional["ThreadState"] = None
        #: Human-readable label for what a WAITING thread waits on (set by
        #: the interpreter; used in lost-wakeup deadlock reports).
        self.waiting_on: Optional[str] = None
        self.steps = 0

    def __repr__(self) -> str:
        return f"<thread {self.name} ({self.status.value})>"


class DeadlockError(MJRuntimeError):
    """All live threads are blocked on monitors or joins."""


class StepLimitExceeded(MJRuntimeError):
    """The scheduler's global step budget was exhausted."""


class SchedulingPolicy:
    """Chooses the next thread to run from the runnable set."""

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        raise NotImplementedError

    def pick_waiter(self, waiters: list[int]) -> int:
        """Choose which waiting thread a ``notify`` wakes.

        ``waiters`` is the non-empty wait set in arrival (FIFO) order;
        the default takes the oldest waiter, which keeps round-robin and
        replayed schedules deterministic.
        """
        return waiters[0]


class RoundRobinPolicy(SchedulingPolicy):
    """Run each thread for up to ``quantum`` consecutive steps."""

    def __init__(self, quantum: int = 10):
        if quantum < 1:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._current_id: Optional[int] = None
        self._remaining = 0

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        if self._remaining > 0:
            for thread in runnable:
                if thread.thread_id == self._current_id:
                    self._remaining -= 1
                    return thread
        # Rotate: pick the next thread id after the current one.
        runnable_sorted = sorted(runnable, key=lambda t: t.thread_id)
        chosen = runnable_sorted[0]
        if self._current_id is not None:
            for thread in runnable_sorted:
                if thread.thread_id > self._current_id:
                    chosen = thread
                    break
        self._current_id = chosen.thread_id
        self._remaining = self.quantum - 1
        return chosen


class RandomPolicy(SchedulingPolicy):
    """Seeded uniform choice among runnable threads at every step."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        return self._rng.choice(runnable)

    def pick_waiter(self, waiters: list[int]) -> int:
        return self._rng.choice(waiters)


class Scheduler:
    """Drives all MJ threads to completion under a policy.

    The scheduler owns thread registration and the unblocking rules:

    * a ``BLOCKED`` thread becomes runnable when its monitor is free or
      already owned by it;
    * a ``JOINING`` thread becomes runnable when its target finished;
    * a ``WAITING`` thread becomes runnable only through :meth:`wake`.

    ``max_steps`` bounds total execution to catch accidental infinite
    loops in workloads.  A thread's ``body`` is its entry method's
    generator; when it returns, :attr:`on_thread_end` (set by the
    engine) receives the thread id before the thread is marked
    ``FINISHED``.
    """

    def __init__(self, policy: SchedulingPolicy, max_steps: int = 10_000_000):
        self.policy = policy
        self.max_steps = max_steps
        self.threads: list[ThreadState] = []
        self.total_steps = 0
        #: Called with a thread's id when its body returns (the sink's
        #: ``on_thread_end``), or ``None``.  A body that raises ends the
        #: run without it.
        self.on_thread_end = None
        #: Set when a thread changed status behind the run loop's back
        #: (a registration or a wakeup); the loop then rebuilds its
        #: runnable list before the next pick.
        self._stale = True

    def register(self, thread: ThreadState) -> None:
        self.threads.append(thread)
        self._stale = True

    def wake(self, thread: ThreadState) -> None:
        """Make a ``WAITING`` thread runnable (notify, barrier trip).

        The only sanctioned way to set another thread ``RUNNABLE``: a
        status written directly would leave the run loop's runnable
        list stale.
        """
        thread.status = ThreadStatus.RUNNABLE
        self._stale = True

    def run(self) -> int:
        """Run until every thread finishes; returns total steps executed.

        This loop runs once per scheduler step, so it keeps the runnable
        list — the ``RUNNABLE`` threads in registration order — between
        steps instead of rebuilding it each time.  The list is rebuilt
        (status refresh and collection fused into one pass) only when it
        may be stale:

        * after :meth:`register` adds a thread;
        * after a step leaves the stepped thread not ``RUNNABLE``
          (blocked, joining, waiting or finished);
        * after :meth:`wake` makes a waiting thread runnable;
        * on every step while any thread is ``BLOCKED``, because a
          monitor release is not signalled to the scheduler.

        A ``JOINING`` thread needs no per-step poll: its target can only
        finish here, on a step that already marks the list stale.

        Picks: under :class:`RandomPolicy` the loop draws
        ``runnable[randbelow(n)]`` with the policy's own generator —
        exactly what ``Random.choice`` does, so the seeded stream is
        unchanged; under :class:`RoundRobinPolicy` the in-quantum case
        is a direct lookup (threads register with ``thread_id`` equal
        to their list index; the id is still verified before trusting
        it).  Every other policy gets ``policy.choose(runnable)``, and
        must treat that list as read-only.  Every choice is
        bit-identical to rebuilding the list on every step.
        """
        threads = self.threads
        policy = self.policy
        round_robin = policy if type(policy) is RoundRobinPolicy else None
        randbelow = (
            policy._rng._randbelow if type(policy) is RandomPolicy else None
        )
        RUNNABLE = ThreadStatus.RUNNABLE
        BLOCKED = ThreadStatus.BLOCKED
        JOINING = ThreadStatus.JOINING
        FINISHED = ThreadStatus.FINISHED
        on_thread_end = self.on_thread_end
        max_steps = self.max_steps
        total = self.total_steps
        # Rebuild the runnable list before the next pick: set when the
        # stepped thread left RUNNABLE or some thread is still BLOCKED.
        poll = True
        try:
            while True:
                if poll or self._stale:
                    self._stale = False
                    poll = False
                    runnable = []
                    append = runnable.append
                    for thread in threads:
                        status = thread.status
                        if status is RUNNABLE:
                            append(thread)
                        elif status is BLOCKED:
                            monitor = thread.blocked_on
                            if monitor is not None and monitor.can_acquire(
                                thread.thread_id
                            ):
                                thread.status = RUNNABLE
                                thread.blocked_on = None
                                append(thread)
                            else:
                                poll = True
                        elif status is JOINING:
                            target = thread.joining_on
                            if target is not None and target.status is FINISHED:
                                thread.status = RUNNABLE
                                thread.joining_on = None
                                append(thread)
                    count = len(runnable)
                    if not count:
                        self._raise_if_deadlocked()
                        return total
                if randbelow is not None:
                    thread = runnable[randbelow(count)]
                else:
                    thread = None
                    if round_robin is not None and round_robin._remaining > 0:
                        current_id = round_robin._current_id
                        if current_id is not None and current_id < len(threads):
                            current = threads[current_id]
                            if (
                                current.thread_id == current_id
                                and current.status is RUNNABLE
                            ):
                                round_robin._remaining -= 1
                                thread = current
                    if thread is None:
                        thread = policy.choose(runnable)
                try:
                    thread.body.send(None)
                    thread.steps += 1
                    if thread.status is not RUNNABLE:
                        poll = True
                except StopIteration:
                    if on_thread_end is not None:
                        on_thread_end(thread.thread_id)
                    thread.status = FINISHED
                    thread.steps += 1
                    poll = True
                total += 1
                if total > max_steps:
                    raise StepLimitExceeded(
                        f"execution exceeded {self.max_steps} scheduler steps"
                    )
        finally:
            self.total_steps = total

    def _raise_if_deadlocked(self) -> None:
        """Called when nothing is runnable: raise :class:`DeadlockError`
        unless every thread has finished."""
        live = [t for t in self.threads if t.status is not ThreadStatus.FINISHED]
        if not live:
            return
        held = ", ".join(f"{t.name} ({t.status.value})" for t in live)
        waiting = [t for t in live if t.status is ThreadStatus.WAITING]
        if waiting:
            lost = "; ".join(
                f"{t.name} waits on {t.waiting_on or '?'}" for t in waiting
            )
            raise DeadlockError(
                "deadlock: all live threads waiting: "
                f"{held} — lost wakeup: {lost} and no live thread "
                "can notify"
            )
        raise DeadlockError(f"deadlock: all live threads waiting: {held}")
