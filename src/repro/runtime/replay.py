"""Schedule record/replay — the DejaVu role (Section 2.6).

The paper pairs its on-the-fly detector with the DejaVu record/replay
platform: rare races are caught cheaply online, and the expensive
FullRace reconstruction runs offline against a *replayed* execution.
MJ's scheduler is deterministic given its decision sequence, so
record/replay here is exact and lightweight:

* :class:`RecordingPolicy` wraps any policy and logs every scheduling
  decision (the chosen thread id per step) into a
  :class:`ScheduleTrace`;
* :class:`ReplayPolicy` re-executes a trace, step for step, raising
  :class:`ReplayDivergence` if the program's runnable set no longer
  matches the recorded choice (e.g. the source changed).

Combined with :class:`~repro.runtime.events.RecordingSink` and the
:class:`~repro.detector.reference.ReferenceDetector`, this gives the
paper's full post-mortem workflow: detect online with the optimized
detector, then replay the same schedule and enumerate ``FullRace``
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.errors import MJRuntimeError
from .scheduler import SchedulingPolicy, ThreadState


@dataclass
class ScheduleTrace:
    """A recorded sequence of scheduling decisions."""

    choices: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.choices)


class RecordingPolicy(SchedulingPolicy):
    """Wraps a policy, recording every decision it makes."""

    def __init__(self, inner: SchedulingPolicy):
        self.inner = inner
        self.trace = ScheduleTrace()

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        chosen = self.inner.choose(runnable)
        self.trace.choices.append(chosen.thread_id)
        return chosen

    def pick_waiter(self, waiters: list[int]) -> int:
        chosen = self.inner.pick_waiter(waiters)
        self.trace.choices.append(chosen)
        return chosen


class ReplayDivergence(MJRuntimeError):
    """The execution being replayed no longer matches the trace."""


class TraceExhausted(ReplayDivergence):
    """The trace and the replayed execution consumed different numbers
    of decisions.

    Raised mid-run when the program needs a decision the trace no longer
    has, and by :meth:`ReplayPolicy.verify_exhausted` when the program
    *finished* with recorded decisions left over — the previously silent
    direction of the mismatch (a shorter replay is just as diverged as a
    longer one; both mean the program changed since recording).
    """


class ReplayPolicy(SchedulingPolicy):
    """Replays a recorded schedule decision-for-decision."""

    def __init__(self, trace: ScheduleTrace):
        self._trace = trace
        self._position = 0

    def _next_decision(self, needed_for: str) -> int:
        """Consume and return the next recorded decision.

        Both decision kinds (scheduling choices and wakeup picks) draw
        from the same interleaved sequence, so exhaustion is checked in
        exactly one place.
        """
        if self._position >= len(self._trace.choices):
            raise TraceExhausted(
                f"schedule trace exhausted after {self._position} "
                f"decision(s) but the program still needs {needed_for}"
            )
        wanted = self._trace.choices[self._position]
        self._position += 1
        return wanted

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        wanted = self._next_decision("a scheduling choice")
        for thread in runnable:
            if thread.thread_id == wanted:
                return thread
        runnable_ids = sorted(t.thread_id for t in runnable)
        raise ReplayDivergence(
            f"at step {self._position - 1} the trace chose thread "
            f"{wanted}, but only {runnable_ids} are runnable — the "
            f"program or its inputs changed since recording"
        )

    def pick_waiter(self, waiters: list[int]) -> int:
        wanted = self._next_decision("a wakeup choice")
        if wanted in waiters:
            return wanted
        raise ReplayDivergence(
            f"at decision {self._position - 1} the trace woke thread "
            f"{wanted}, but only {sorted(waiters)} are waiting — the "
            f"program or its inputs changed since recording"
        )

    def verify_exhausted(self) -> None:
        """Assert the finished run consumed the whole trace.

        Call after the replayed execution completes (``replay_run`` does
        this for every engine).  Leftover decisions mean the replay
        finished *early* relative to the recording — a divergence the
        per-step checks cannot see.
        """
        remaining = len(self._trace.choices) - self._position
        if remaining > 0:
            raise TraceExhausted(
                f"replayed execution finished after {self._position} "
                f"decision(s) but the trace recorded "
                f"{len(self._trace.choices)} — {remaining} decision(s) "
                f"left over; the program or its inputs changed since "
                f"recording"
            )


class FallbackReplayPolicy(SchedulingPolicy):
    """Replays a trace *prefix*, then hands over to a fallback policy.

    Unlike :class:`ReplayPolicy` this never raises
    :class:`ReplayDivergence`: when the trace is exhausted, or the
    recorded choice is no longer runnable (the program was edited — the
    difflab shrinker's case), the fallback policy decides instead.
    That makes truncated traces usable as schedule *hints*, which is
    what delta-debugging a schedule needs: a shrunk prefix either still
    steers the program into the failure or the candidate is rejected.
    """

    def __init__(self, trace: ScheduleTrace, fallback: SchedulingPolicy = None):
        from .scheduler import RoundRobinPolicy

        self._trace = trace
        self._position = 0
        self.fallback = fallback if fallback is not None else RoundRobinPolicy()
        #: Steps decided by the trace (vs. delegated to the fallback).
        self.replayed_steps = 0
        self.fallback_steps = 0

    def choose(self, runnable: list[ThreadState]) -> ThreadState:
        if self._position < len(self._trace.choices):
            wanted = self._trace.choices[self._position]
            self._position += 1
            for thread in runnable:
                if thread.thread_id == wanted:
                    self.replayed_steps += 1
                    return thread
        self.fallback_steps += 1
        return self.fallback.choose(runnable)

    def pick_waiter(self, waiters: list[int]) -> int:
        if self._position < len(self._trace.choices):
            wanted = self._trace.choices[self._position]
            self._position += 1
            if wanted in waiters:
                self.replayed_steps += 1
                return wanted
        self.fallback_steps += 1
        return self.fallback.pick_waiter(waiters)


def record_run(
    resolved, sink=None, inner_policy=None, engine="ast", **run_kwargs
):
    """Execute once while recording the schedule; returns
    ``(RunResult, ScheduleTrace)``."""
    from . import engine_runner
    from .scheduler import RoundRobinPolicy

    policy = RecordingPolicy(
        inner_policy if inner_policy is not None else RoundRobinPolicy()
    )
    result = engine_runner(engine)(
        resolved, sink=sink, policy=policy, **run_kwargs
    )
    return result, policy.trace


def replay_run(
    resolved, trace: ScheduleTrace, sink=None, engine="ast", **run_kwargs
):
    """Re-execute under a recorded schedule; returns the RunResult.

    Raises :class:`TraceExhausted` when the replayed execution and the
    trace disagree about how many decisions the run takes — in either
    direction.  A trace recorded on one engine replays on any other:
    the engines make identical scheduling decisions.
    """
    from . import engine_runner

    policy = ReplayPolicy(trace)
    result = engine_runner(engine)(
        resolved, sink=sink, policy=policy, **run_kwargs
    )
    policy.verify_exhausted()
    return result
