"""The compiled MJ engine: a drop-in :class:`Interpreter` replacement.

:class:`CompiledInterpreter` executes the closure-threaded code produced
by :mod:`repro.runtime.compile` instead of walking the AST.  Everything
observable is identical to the AST engine — scheduler decision
sequences, uid allocation order, the schema-v3 event stream byte for
byte, error messages, wait/notify/barrier semantics — because the
compiled closures yield at exactly the interpreter's preemption points
and perform memory operations in the same order.  Only the per-step
constant factor changes: node dispatch, locals access, method
resolution, and the traced/untraced decision all happen at compile
time.

Synchronization statements are *cold* (a handful of executions per
thread, versus millions of memory accesses), so their post-evaluation
logic lives here as engine kernels that the compiled closures delegate
to after evaluating operands.  The kernels are line-for-line the
interpreter's, operating on the same inherited runtime state
(``_lock_stacks``, ``_wait_sets``, ``_woken``, ``_barriers``), which
keeps the two engines' semantics from drifting apart structurally as
well as observably.
"""

from __future__ import annotations

from typing import Optional

from ..lang.errors import MJRuntimeError, SourceLocation
from ..lang.resolver import ResolvedProgram
from .compile import _UNBOUND, ProgramCompiler, run_code
from .events import EventSink, ObjectKind
from .interpreter import Interpreter, RunResult
from .scheduler import SchedulingPolicy, ThreadState, ThreadStatus
from .values import MJArray, MJClassObject, MJObject, Reference, mj_repr


class CompiledInterpreter(Interpreter):
    """Executes one resolved MJ program through compiled closures.

    Construction compiles the whole program (one cheap AST walk);
    :meth:`run` then drives the compiled entry point under the same
    scheduler the AST engine uses.  All constructor parameters and the
    :class:`RunResult` contract match :class:`Interpreter`.
    """

    def __init__(
        self,
        resolved: ResolvedProgram,
        sink: Optional[EventSink] = None,
        trace_sites: Optional[set[int]] = None,
        policy: Optional[SchedulingPolicy] = None,
        max_steps: int = 10_000_000,
    ):
        super().__init__(
            resolved,
            sink=sink,
            trace_sites=trace_sites,
            policy=policy,
            max_steps=max_steps,
        )
        #: [accesses_executed, accesses_emitted] as list cells — the
        #: trace stubs increment these (cheaper than attribute stores);
        #: run() folds them back into the public counters.
        self._counts = [0, 0]
        #: The detector's inline fast path, or None (recording,
        #: multicast, or absent sinks; ownership or the single-probe
        #: cache off).  Bound before compilation: the trace stubs
        #: specialize on it.
        inline = getattr(sink, "inline_fast_path", None)
        self._fast_path = inline() if inline is not None else None
        self._compiled = ProgramCompiler(self).compile()

    # ------------------------------------------------------------------
    # Entry point.

    def run(self) -> RunResult:
        main_thread = ThreadState(thread_id=0, name="main", body=None)
        main_thread.body = self._main_body(main_thread)
        self._threads.append(main_thread)
        self._scheduler.register(main_thread)
        try:
            steps = self._scheduler.run()
        finally:
            if self._fast_path is not None:
                # Apply the fast path's deferred counter effects, even
                # when the run ends in an error: every counter then
                # matches the AST engine's.
                self._counts[1] += self._fast_path.fold()
            self.accesses_executed = self._counts[0]
            self.accesses_emitted = self._counts[1]
        if self._sink is not None:
            self._sink.on_run_end()
        return RunResult(
            output=self.output,
            steps=steps,
            threads_created=len(self._threads),
            accesses_executed=self.accesses_executed,
            accesses_emitted=self.accesses_emitted,
        )

    def _main_body(self, thread: ThreadState):
        return self._thread_body(self._compiled.main_entry, None, thread)

    def _thread_body(self, entry, this, thread: ThreadState):
        """Drive a zero-argument compiled method (main / run) through
        :func:`run_code`: every scheduler step of the thread traverses
        this frame, so it holds no more than the frame set-up and the
        end-of-thread event.  ``main``/``run`` declaring parameters
        raises exactly like the AST engine's ``_invoke``."""
        if entry.nparams != 0:
            raise MJRuntimeError(
                f"{entry.qname} expects {entry.nparams} argument(s), got 0",
                entry.location,
            )
        frame = [_UNBOUND] * entry.nslots
        frame[0] = this
        yield from run_code(entry.code, frame, thread)
        if self._sink is not None:
            self._sink.on_thread_end(thread.thread_id)

    # ------------------------------------------------------------------
    # Label interning (slow path of the traced stubs).

    def _label_of(self, ref: Reference) -> tuple:
        """Compute and intern the (ObjectKind, label) pair for ``ref``."""
        uid = ref.uid
        if isinstance(ref, MJArray):
            cached = (ObjectKind.ARRAY, f"array#{uid}")
        elif isinstance(ref, MJClassObject):
            cached = (ObjectKind.CLASS, f"class {ref.class_info.name}")
        else:
            cached = (ObjectKind.INSTANCE, f"{ref.class_info.name}#{uid}")
        self._ref_labels[uid] = cached
        return cached

    # ------------------------------------------------------------------
    # Thread lifecycle kernels.

    def _start_kernel(self, obj, thread: ThreadState, location: SourceLocation):
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"start requires a thread object, got {mj_repr(obj)}",
                location,
            )
        run_entry = self._compiled.vtables[obj.class_info.name].get("run")
        if run_entry is None:
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no 'run' method",
                location,
            )
        if obj.uid in self._started_objects:
            raise MJRuntimeError(
                f"thread object {obj!r} started twice", location
            )
        child_id = len(self._threads)
        child = ThreadState(thread_id=child_id, name=f"T{child_id}", body=None)
        child.body = self._child_body(child, obj, run_entry)
        self._threads.append(child)
        self._started_objects[obj.uid] = child
        self._scheduler.register(child)
        if self._sink is not None:
            self._sink.on_thread_start(thread.thread_id, child_id)
        yield

    def _child_body(self, thread: ThreadState, obj: MJObject, run_entry):
        return self._thread_body(run_entry, obj, thread)

    def _join_kernel(self, obj, thread: ThreadState, location: SourceLocation):
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"join requires a thread object, got {mj_repr(obj)}",
                location,
            )
        target = self._started_objects.get(obj.uid)
        if target is None:
            raise MJRuntimeError(
                "join on a thread object that was never started", location
            )
        while target.status is not ThreadStatus.FINISHED:
            thread.status = ThreadStatus.JOINING
            thread.joining_on = target
            yield
        if self._sink is not None:
            self._sink.on_thread_join(thread.thread_id, target.thread_id)

    # ------------------------------------------------------------------
    # Condition synchronization kernels.

    def _wait_kernel(self, obj, thread: ThreadState, location: SourceLocation):
        if not isinstance(obj, Reference):
            raise MJRuntimeError(
                f"wait requires an object, got {mj_repr(obj)}", location
            )
        monitor = obj.monitor
        if monitor.owner != thread.thread_id:
            raise MJRuntimeError("wait without holding the monitor", location)
        stack = self._lock_stacks.get(thread.thread_id)
        if not stack or stack[-1] != obj.uid:
            raise MJRuntimeError(
                "wait target must be the innermost held monitor "
                "(release/re-acquire would break lock nesting otherwise)",
                location,
            )
        # Release every reentrancy level; restored verbatim at wakeup.
        depth = monitor.count
        for _ in range(depth):
            freed = monitor.release(thread.thread_id)
            if self._sink is not None:
                self._sink.on_monitor_exit(
                    thread.thread_id, obj.uid, reentrant=not freed
                )
        self._wait_sets.setdefault(obj.uid, []).append(thread.thread_id)
        thread.status = ThreadStatus.WAITING
        thread.waiting_on = f"monitor #{obj.uid}"
        yield
        while thread.thread_id not in self._woken:
            yield
        self._woken.discard(thread.thread_id)
        thread.waiting_on = None
        while not monitor.can_acquire(thread.thread_id):
            thread.status = ThreadStatus.BLOCKED
            thread.blocked_on = monitor
            yield
        for _ in range(depth):
            outermost = monitor.acquire(thread.thread_id)
            if self._sink is not None:
                self._sink.on_monitor_enter(
                    thread.thread_id, obj.uid, reentrant=not outermost
                )
        # Emitted after re-acquisition so the notify entry precedes it.
        if self._sink is not None:
            self._sink.on_wait(thread.thread_id, obj.uid)

    def _notify_kernel(
        self, obj, thread: ThreadState, notify_all: bool, location: SourceLocation
    ) -> None:
        if not isinstance(obj, Reference):
            keyword = "notifyall" if notify_all else "notify"
            raise MJRuntimeError(
                f"{keyword} requires an object, got {mj_repr(obj)}", location
            )
        monitor = obj.monitor
        if monitor.owner != thread.thread_id:
            keyword = "notifyall" if notify_all else "notify"
            raise MJRuntimeError(
                f"{keyword} without holding the monitor", location
            )
        if self._sink is not None:
            self._sink.on_notify(thread.thread_id, obj.uid, notify_all)
        waiters = self._wait_sets.get(obj.uid)
        if not waiters:
            return  # Lost notification — a no-op, as in Java.
        if notify_all:
            released = list(waiters)
            waiters.clear()
        else:
            chosen = self._scheduler.policy.pick_waiter(list(waiters))
            waiters.remove(chosen)
            released = [chosen]
        for waiter_id in released:
            self._wake(waiter_id)

    def _barrier_kernel(
        self, obj, parties, thread: ThreadState, location: SourceLocation
    ):
        # The compiled closure has already verified obj is a Reference
        # (before evaluating the parties expression, as the AST engine
        # orders it).
        if not isinstance(parties, int) or isinstance(parties, bool) or parties < 1:
            raise MJRuntimeError(
                f"barrier party count must be a positive integer, got "
                f"{mj_repr(parties)}",
                location,
            )
        state = self._barriers.get(obj.uid)
        if state is None or state["parties"] is None:
            if state is None:
                state = {"parties": parties, "arrived": [], "generation": 0}
                self._barriers[obj.uid] = state
            else:
                state["parties"] = parties
        elif state["parties"] != parties:
            raise MJRuntimeError(
                f"barrier #{obj.uid} party count mismatch: generation "
                f"{state['generation']} opened with {state['parties']}, "
                f"this arrival says {parties}",
                location,
            )
        if self._sink is not None:
            self._sink.on_notify(thread.thread_id, obj.uid, True)
        state["arrived"].append(thread.thread_id)
        if len(state["arrived"]) == state["parties"]:
            # Last arriver trips the barrier and does not suspend.
            for waiter_id in state["arrived"]:
                if waiter_id != thread.thread_id:
                    self._wake(waiter_id)
            state["arrived"] = []
            state["parties"] = None  # Next generation re-fixes the count.
            state["generation"] += 1
            if self._sink is not None:
                self._sink.on_wait(thread.thread_id, obj.uid)
            return
        generation = state["generation"]
        thread.status = ThreadStatus.WAITING
        thread.waiting_on = (
            f"barrier #{obj.uid} generation {generation} "
            f"({len(state['arrived'])}/{state['parties']} arrived)"
        )
        yield
        while thread.thread_id not in self._woken:
            yield
        self._woken.discard(thread.thread_id)
        thread.waiting_on = None
        if self._sink is not None:
            self._sink.on_wait(thread.thread_id, obj.uid)


def run_compiled_program(
    resolved: ResolvedProgram,
    sink: Optional[EventSink] = None,
    trace_sites: Optional[set[int]] = None,
    policy: Optional[SchedulingPolicy] = None,
    max_steps: int = 10_000_000,
) -> RunResult:
    """Execute ``resolved`` once through the compiled engine."""
    engine = CompiledInterpreter(
        resolved,
        sink=sink,
        trace_sites=trace_sites,
        policy=policy,
        max_steps=max_steps,
    )
    return engine.run()
