"""The rebuild-every-step scheduler loop: the test-side oracle for the
incremental one.

Production :meth:`~repro.runtime.scheduler.Scheduler.run` keeps its
runnable list between steps and rebuilds it only when it may be stale.
This module keeps the loop it replaced, verbatim — refresh every status
and collect the runnable threads on *every* step, then pick through
``policy.choose`` (or the round-robin in-quantum lookup) — so property
tests and ``benchmarks/bench_compile.py`` can check that the incremental
loop makes exactly the decisions the old one did: same picks, same step
counts, same event log, same error text.

Swap it into an engine with :func:`use_oracle` before calling ``run()``.
"""

from __future__ import annotations

from repro.runtime.scheduler import (
    DeadlockError,
    RoundRobinPolicy,
    Scheduler,
    StepLimitExceeded,
    ThreadStatus,
)


class OracleScheduler(Scheduler):
    """A :class:`Scheduler` whose ``run`` rebuilds the runnable list on
    every step."""

    def run(self) -> int:
        """The parent loop, verbatim: rebuild the runnable list (status
        refresh and collection fused into one pass) on every step, take
        the round-robin in-quantum shortcut, else ``policy.choose``."""
        threads = self.threads
        policy = self.policy
        round_robin = policy if type(policy) is RoundRobinPolicy else None
        RUNNABLE = ThreadStatus.RUNNABLE
        BLOCKED = ThreadStatus.BLOCKED
        JOINING = ThreadStatus.JOINING
        FINISHED = ThreadStatus.FINISHED
        max_steps = self.max_steps
        total = self.total_steps
        try:
            while True:
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
                    elif status is JOINING:
                        target = thread.joining_on
                        if target is not None and target.status is FINISHED:
                            thread.status = RUNNABLE
                            thread.joining_on = None
                            append(thread)
                if not runnable:
                    live = [
                        t for t in threads if t.status is not FINISHED
                    ]
                    if not live:
                        return total
                    held = ", ".join(
                        f"{t.name} ({t.status.value})" for t in live
                    )
                    waiting = [
                        t for t in live if t.status is ThreadStatus.WAITING
                    ]
                    if waiting:
                        lost = "; ".join(
                            f"{t.name} waits on {t.waiting_on or '?'}"
                            for t in waiting
                        )
                        raise DeadlockError(
                            "deadlock: all live threads waiting: "
                            f"{held} — lost wakeup: {lost} and no live thread "
                            "can notify"
                        )
                    raise DeadlockError(
                        f"deadlock: all live threads waiting: {held}"
                    )
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
                except StopIteration:
                    thread.status = FINISHED
                    thread.steps += 1
                total += 1
                if total > max_steps:
                    raise StepLimitExceeded(
                        f"execution exceeded {self.max_steps} scheduler steps"
                    )
        finally:
            self.total_steps = total


def use_oracle(engine):
    """Replace ``engine``'s scheduler with an :class:`OracleScheduler`
    under the same policy and step budget; returns ``engine``."""
    current = engine._scheduler
    engine._scheduler = OracleScheduler(current.policy, current.max_steps)
    return engine
