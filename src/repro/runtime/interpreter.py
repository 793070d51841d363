"""The MJ interpreter — this reproduction's "instrumented executable".

The interpreter executes a resolved MJ program under a deterministic
scheduler (:mod:`repro.runtime.scheduler`), emitting the runtime event
stream (:mod:`repro.runtime.events`) that detectors consume.

Instrumentation is site-selective: the interpreter takes a set of
*traced* site ids (``None`` = every access site, the paper's default
when static analysis is skipped; the empty set = the "Base"
configuration of Table 2).  An access at an untraced site executes
normally but emits no access event — exactly the effect of the
paper's instrumenter omitting the ``trace`` pseudo-instruction
(Section 6.1).

Threads are coroutines: every interpreter routine that can suspend is a
generator, and ``yield`` marks a preemption point.  Preemption points
sit before each memory access, at monitor operations, at thread
start/join, and at loop back-edges, so seeded schedulers can realize
many interleavings of the access/synchronization events — which is all
a lockset-based detector observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import MJAssertionError, MJRuntimeError, SourceLocation
from ..lang.resolver import ARRAY_FIELD, ResolvedProgram
from .events import EventSink, ObjectKind
from .scheduler import (
    RoundRobinPolicy,
    Scheduler,
    SchedulingPolicy,
    ThreadState,
    ThreadStatus,
)
from .values import (
    MJArray,
    MJClassObject,
    MJObject,
    Reference,
    _UidAllocator,
    mj_repr,
)


class _Return(Exception):
    """Internal control-flow signal for ``return`` statements."""

    def __init__(self, value):
        self.value = value


@dataclass
class Frame:
    """One activation record."""

    method: ast.MethodDecl
    locals: dict
    this: Optional[MJObject]


@dataclass
class RunResult:
    """Outcome of one complete program execution."""

    output: list[str]
    steps: int
    threads_created: int
    #: Accesses *executed* (traced or not) — the denominator for
    #: instrumentation-coverage statistics.
    accesses_executed: int
    #: Accesses actually emitted to the sink.
    accesses_emitted: int

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


class Interpreter:
    """Executes one resolved MJ program.

    Parameters
    ----------
    resolved:
        The resolved program.
    sink:
        Receiver of runtime events, or ``None`` to run uninstrumented.
    trace_sites:
        Site ids whose accesses emit events.  ``None`` traces every
        site.  Site ids of *transformed* programs are mapped through
        ``origin`` semantics by the caller (see
        :mod:`repro.instrument.planner`), not here.
    policy:
        Scheduling policy; defaults to round-robin with quantum 10.
    max_steps:
        Global scheduler step budget.
    """

    def __init__(
        self,
        resolved: ResolvedProgram,
        sink: Optional[EventSink] = None,
        trace_sites: Optional[set[int]] = None,
        policy: Optional[SchedulingPolicy] = None,
        max_steps: int = 10_000_000,
    ):
        self._resolved = resolved
        self._sink = sink
        # Pre-bound sink fast path: one call per emitted access.
        self._emit_parts = sink.on_access_parts if sink is not None else None
        self._trace_sites = trace_sites
        self._uids = _UidAllocator()
        self._class_objects: dict[str, MJClassObject] = {}
        self._scheduler = Scheduler(
            policy or RoundRobinPolicy(quantum=10), max_steps=max_steps
        )
        self._threads: list[ThreadState] = []
        self._started_objects: dict[int, ThreadState] = {}
        #: thread id -> stack of monitor uids in lexical sync order; used
        #: to enforce that ``wait`` targets the innermost held monitor.
        self._lock_stacks: dict[int, list[int]] = {}
        #: monitor uid -> waiting thread ids in arrival (FIFO) order.
        self._wait_sets: dict[int, list[int]] = {}
        #: thread ids released by a notify/barrier but not yet resumed.
        self._woken: set[int] = set()
        #: barrier uid -> {"parties", "arrived", "generation"} state.
        self._barriers: dict[int, dict] = {}
        #: object uid -> (ObjectKind, label), interned for emission.
        self._ref_labels: dict[int, tuple] = {}
        self.output: list[str] = []
        self.accesses_executed = 0
        self.accesses_emitted = 0

    # ------------------------------------------------------------------
    # Entry point.

    def run(self) -> RunResult:
        """Execute the program to completion and return the result."""
        main_thread = ThreadState(thread_id=0, name="main", body=None)
        main_thread.body = self._main_body(main_thread)
        self._threads.append(main_thread)
        self._scheduler.register(main_thread)
        steps = self._scheduler.run()
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
        method = self._resolved.main_method
        yield from self._invoke(method, None, [], thread)
        if self._sink is not None:
            self._sink.on_thread_end(thread.thread_id)

    # ------------------------------------------------------------------
    # Class objects and allocation.

    def _class_object(self, class_name: str) -> MJClassObject:
        obj = self._class_objects.get(class_name)
        if obj is None:
            info = self._resolved.class_info(class_name)
            obj = MJClassObject(self._uids, info)
            self._class_objects[class_name] = obj
        return obj

    def _static_owner_object(
        self, class_name: str, field_name: str, location: SourceLocation
    ) -> MJClassObject:
        """Canonicalize a static access to the declaring class's object."""
        info = self._resolved.class_info(class_name)
        owner = info.static_field_owner(field_name)
        if owner is None:
            raise MJRuntimeError(
                f"class {class_name!r} has no static field {field_name!r}",
                location,
            )
        return self._class_object(owner.name)

    # ------------------------------------------------------------------
    # Event emission.

    def _emit_access(
        self,
        ref: Reference,
        field_name: str,
        kind: ast.AccessKind,
        site_id: int,
        thread: ThreadState,
    ) -> None:
        self.accesses_executed += 1
        if self._sink is None:
            return
        if self._trace_sites is not None and site_id not in self._trace_sites:
            return
        # The (object kind, label) pair is a pure function of the
        # reference, so it is computed once per object, not per event —
        # the hot path does one dict probe instead of isinstance checks
        # and an f-string per access.
        uid = ref.uid
        cached = self._ref_labels.get(uid)
        if cached is None:
            if isinstance(ref, MJArray):
                cached = (ObjectKind.ARRAY, f"array#{uid}")
            elif isinstance(ref, MJClassObject):
                cached = (ObjectKind.CLASS, f"class {ref.class_info.name}")
            else:
                cached = (ObjectKind.INSTANCE, f"{ref.class_info.name}#{uid}")
            self._ref_labels[uid] = cached
        self.accesses_emitted += 1
        self._emit_parts(
            uid, field_name, thread.thread_id, kind, site_id, cached[0], cached[1]
        )

    # ------------------------------------------------------------------
    # Method invocation.

    def _invoke(self, method: ast.MethodDecl, receiver, args, thread: ThreadState):
        if len(args) != len(method.params):
            raise MJRuntimeError(
                f"{method.qualified_name} expects {len(method.params)} "
                f"argument(s), got {len(args)}",
                method.location,
            )
        frame = Frame(
            method=method,
            locals=dict(zip(method.params, args)),
            this=receiver,
        )
        try:
            yield from self._exec_block(method.body, frame, thread)
        except _Return as signal:
            return signal.value
        return None

    # ------------------------------------------------------------------
    # Statements.

    def _exec_block(self, block: ast.Block, frame: Frame, thread: ThreadState):
        for stmt in block.body:
            yield from self._exec_stmt(stmt, frame, thread)

    def _exec_stmt(self, stmt: ast.Stmt, frame: Frame, thread: ThreadState):
        # Same leaf-type dispatch as _eval, ordered by execution
        # frequency.
        node_type = type(stmt)
        if node_type is ast.AssignLocal:
            frame.locals[stmt.name] = yield from self._eval(stmt.value, frame, thread)
        elif node_type is ast.If:
            cond = yield from self._eval_bool(stmt.cond, frame, thread)
            if cond:
                yield from self._exec_block(stmt.then_block, frame, thread)
            elif stmt.else_block is not None:
                yield from self._exec_block(stmt.else_block, frame, thread)
        elif node_type is ast.While:
            while True:
                cond = yield from self._eval_bool(stmt.cond, frame, thread)
                if not cond:
                    break
                yield from self._exec_block(stmt.body, frame, thread)
                yield  # Loop back-edge preemption point.
        elif node_type is ast.FieldWrite:
            obj = yield from self._eval(stmt.obj, frame, thread)
            value = yield from self._eval(stmt.value, frame, thread)
            yield  # Preemption point before the write.
            self._write_field(obj, stmt.field_name, value, stmt, thread)
        elif node_type is ast.ArrayWrite:
            array = yield from self._eval(stmt.array, frame, thread)
            index = yield from self._eval(stmt.index, frame, thread)
            value = yield from self._eval(stmt.value, frame, thread)
            yield
            self._write_array(array, index, value, stmt, thread)
        elif node_type is ast.VarDecl:
            frame.locals[stmt.name] = yield from self._eval(stmt.init, frame, thread)
        elif node_type is ast.ExprStmt:
            yield from self._eval(stmt.expr, frame, thread)
        elif node_type is ast.StaticFieldWrite:
            value = yield from self._eval(stmt.value, frame, thread)
            owner = self._static_owner_object(
                stmt.class_name, stmt.field_name, stmt.location
            )
            yield
            self._emit_access(
                owner, stmt.field_name, ast.AccessKind.WRITE, stmt.site_id, thread
            )
            owner.statics[stmt.field_name] = value
        elif node_type is ast.Sync:
            yield from self._exec_sync(stmt, frame, thread)
        elif node_type is ast.Start:
            yield from self._exec_start(stmt, frame, thread)
        elif node_type is ast.Join:
            yield from self._exec_join(stmt, frame, thread)
        elif node_type is ast.Wait:
            yield from self._exec_wait(stmt, frame, thread)
        elif node_type is ast.Notify:
            yield from self._exec_notify(stmt, frame, thread)
        elif node_type is ast.Barrier:
            yield from self._exec_barrier(stmt, frame, thread)
        elif node_type is ast.Return:
            value = None
            if stmt.value is not None:
                value = yield from self._eval(stmt.value, frame, thread)
            raise _Return(value)
        elif node_type is ast.Print:
            value = yield from self._eval(stmt.value, frame, thread)
            self.output.append(mj_repr(value))
        elif node_type is ast.Assert:
            cond = yield from self._eval_bool(stmt.cond, frame, thread)
            if not cond:
                raise MJAssertionError("assertion failed", stmt.location)
        elif node_type is ast.Block:
            yield from self._exec_block(stmt, frame, thread)
        else:
            raise MJRuntimeError(
                f"unhandled statement {type(stmt).__name__}", stmt.location
            )

    def _write_field(self, obj, field_name, value, stmt, thread: ThreadState):
        if obj is None:
            raise MJRuntimeError(
                f"null dereference writing field {field_name!r}", stmt.location
            )
        if isinstance(obj, MJArray):
            raise MJRuntimeError(
                f"cannot write field {field_name!r} of an array", stmt.location
            )
        if isinstance(obj, MJClassObject):
            if field_name not in obj.statics:
                raise MJRuntimeError(
                    f"class {obj.class_info.name!r} has no static field "
                    f"{field_name!r}",
                    stmt.location,
                )
            self._emit_access(
                obj, field_name, ast.AccessKind.WRITE, stmt.site_id, thread
            )
            obj.statics[field_name] = value
            return
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"cannot write field {field_name!r} of {mj_repr(obj)}",
                stmt.location,
            )
        if field_name not in obj.fields:
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no field {field_name!r}",
                stmt.location,
            )
        self._emit_access(obj, field_name, ast.AccessKind.WRITE, stmt.site_id, thread)
        obj.fields[field_name] = value

    def _write_array(self, array, index, value, stmt, thread: ThreadState):
        if array is None:
            raise MJRuntimeError("null dereference in array write", stmt.location)
        if not isinstance(array, MJArray):
            raise MJRuntimeError(
                f"array write applied to {mj_repr(array)}", stmt.location
            )
        if not isinstance(index, int) or isinstance(index, bool):
            raise MJRuntimeError("array index must be an integer", stmt.location)
        if index < 0 or index >= len(array):
            raise MJRuntimeError(
                f"array index {index} out of bounds [0, {len(array)})",
                stmt.location,
            )
        self._emit_access(array, ARRAY_FIELD, ast.AccessKind.WRITE, stmt.site_id, thread)
        array.elements[index] = value

    # ------------------------------------------------------------------
    # Synchronization and threads.

    def _exec_sync(self, stmt: ast.Sync, frame: Frame, thread: ThreadState):
        lock = yield from self._eval(stmt.lock, frame, thread)
        if not isinstance(lock, Reference):
            raise MJRuntimeError(
                f"sync requires an object, got {mj_repr(lock)}", stmt.location
            )
        monitor = lock.monitor
        while not monitor.can_acquire(thread.thread_id):
            thread.status = ThreadStatus.BLOCKED
            thread.blocked_on = monitor
            yield
        outermost = monitor.acquire(thread.thread_id)
        if self._sink is not None:
            self._sink.on_monitor_enter(
                thread.thread_id, lock.uid, reentrant=not outermost
            )
        stack = self._lock_stacks.setdefault(thread.thread_id, [])
        stack.append(lock.uid)
        try:
            yield from self._exec_block(stmt.body, frame, thread)
        finally:
            stack.pop()
            # A thread torn down mid-wait (deadlock unwinding) already
            # released the monitor; only release when actually held.
            if monitor.owner == thread.thread_id:
                released = monitor.release(thread.thread_id)
                if self._sink is not None:
                    self._sink.on_monitor_exit(
                        thread.thread_id, lock.uid, reentrant=not released
                    )

    def _exec_start(self, stmt: ast.Start, frame: Frame, thread: ThreadState):
        obj = yield from self._eval(stmt.thread, frame, thread)
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"start requires a thread object, got {mj_repr(obj)}",
                stmt.location,
            )
        run_method = obj.class_info.resolve_method("run")
        if run_method is None or run_method.is_static:
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no 'run' method",
                stmt.location,
            )
        if obj.uid in self._started_objects:
            raise MJRuntimeError(
                f"thread object {obj!r} started twice", stmt.location
            )
        child_id = len(self._threads)
        child = ThreadState(
            thread_id=child_id, name=f"T{child_id}", body=None
        )
        child.body = self._child_body(child, obj, run_method)
        self._threads.append(child)
        self._started_objects[obj.uid] = child
        self._scheduler.register(child)
        if self._sink is not None:
            self._sink.on_thread_start(thread.thread_id, child_id)
        yield

    def _child_body(self, thread: ThreadState, obj: MJObject, run_method):
        yield from self._invoke(run_method, obj, [], thread)
        if self._sink is not None:
            self._sink.on_thread_end(thread.thread_id)

    def _exec_join(self, stmt: ast.Join, frame: Frame, thread: ThreadState):
        obj = yield from self._eval(stmt.thread, frame, thread)
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"join requires a thread object, got {mj_repr(obj)}",
                stmt.location,
            )
        target = self._started_objects.get(obj.uid)
        if target is None:
            raise MJRuntimeError(
                "join on a thread object that was never started", stmt.location
            )
        while target.status is not ThreadStatus.FINISHED:
            thread.status = ThreadStatus.JOINING
            thread.joining_on = target
            yield
        if self._sink is not None:
            self._sink.on_thread_join(thread.thread_id, target.thread_id)

    # ------------------------------------------------------------------
    # Condition synchronization.

    def _exec_wait(self, stmt: ast.Wait, frame: Frame, thread: ThreadState):
        obj = yield from self._eval(stmt.target, frame, thread)
        if not isinstance(obj, Reference):
            raise MJRuntimeError(
                f"wait requires an object, got {mj_repr(obj)}", stmt.location
            )
        monitor = obj.monitor
        if monitor.owner != thread.thread_id:
            raise MJRuntimeError(
                "wait without holding the monitor", stmt.location
            )
        stack = self._lock_stacks.get(thread.thread_id)
        if not stack or stack[-1] != obj.uid:
            raise MJRuntimeError(
                "wait target must be the innermost held monitor "
                "(release/re-acquire would break lock nesting otherwise)",
                stmt.location,
            )
        # Release every reentrancy level; the lock nesting is restored
        # verbatim at wakeup, so enclosing sync blocks stay balanced.
        # The releases go out as ordinary monitor-exit events — the
        # detectors' locksets must not contain the released lock while
        # the thread waits.
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
        # The wait event is emitted at wakeup-return, after the monitor
        # is held again, so in the log the releasing notify entry always
        # precedes it (happens-before replay sees edges causally).
        if self._sink is not None:
            self._sink.on_wait(thread.thread_id, obj.uid)

    def _exec_notify(self, stmt: ast.Notify, frame: Frame, thread: ThreadState):
        obj = yield from self._eval(stmt.target, frame, thread)
        if not isinstance(obj, Reference):
            keyword = "notifyall" if stmt.notify_all else "notify"
            raise MJRuntimeError(
                f"{keyword} requires an object, got {mj_repr(obj)}",
                stmt.location,
            )
        monitor = obj.monitor
        if monitor.owner != thread.thread_id:
            keyword = "notifyall" if stmt.notify_all else "notify"
            raise MJRuntimeError(
                f"{keyword} without holding the monitor", stmt.location
            )
        if self._sink is not None:
            self._sink.on_notify(thread.thread_id, obj.uid, stmt.notify_all)
        waiters = self._wait_sets.get(obj.uid)
        if not waiters:
            return  # Lost notification — a no-op, as in Java.
        if stmt.notify_all:
            released = list(waiters)
            waiters.clear()
        else:
            chosen = self._scheduler.policy.pick_waiter(list(waiters))
            waiters.remove(chosen)
            released = [chosen]
        for waiter_id in released:
            self._wake(waiter_id)

    def _wake(self, thread_id: int) -> None:
        self._woken.add(thread_id)
        state = self._threads[thread_id]
        self._scheduler.wake(state)
        state.waiting_on = None

    def _exec_barrier(self, stmt: ast.Barrier, frame: Frame, thread: ThreadState):
        obj = yield from self._eval(stmt.target, frame, thread)
        if not isinstance(obj, Reference):
            raise MJRuntimeError(
                f"barrier requires an object, got {mj_repr(obj)}", stmt.location
            )
        parties = yield from self._eval(stmt.parties, frame, thread)
        if not isinstance(parties, int) or isinstance(parties, bool) or parties < 1:
            raise MJRuntimeError(
                f"barrier party count must be a positive integer, got "
                f"{mj_repr(parties)}",
                stmt.location,
            )
        state = self._barriers.get(obj.uid)
        if state is None or state["parties"] is None:
            # First arrival of this generation fixes the party count.
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
                stmt.location,
            )
        # Arrival: an all-to-all rendezvous is encoded as one notifyall
        # per arrival plus one wait per release, giving happens-before
        # consumers the full edge set without a dedicated event tag.
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

    # ------------------------------------------------------------------
    # Expressions.

    def _eval_bool(self, expr: ast.Expr, frame: Frame, thread: ThreadState):
        value = yield from self._eval(expr, frame, thread)
        if not isinstance(value, bool):
            raise MJRuntimeError(
                f"condition must be a boolean, got {mj_repr(value)}",
                expr.location,
            )
        return value

    def _eval(self, expr: ast.Expr, frame: Frame, thread: ThreadState):
        # Dispatch on the concrete node type (every node class is a
        # leaf, so identity comparison is equivalent to isinstance and
        # skips the mro walk).  Checks are ordered by how often each
        # node kind is evaluated in loop-heavy programs.
        node_type = type(expr)
        if node_type is ast.VarRef:
            if expr.name not in frame.locals:
                raise MJRuntimeError(
                    f"unbound variable {expr.name!r}", expr.location
                )
            return frame.locals[expr.name]
        if node_type is ast.Binary:
            return (yield from self._eval_binary(expr, frame, thread))
        if node_type is ast.FieldRead:
            obj = yield from self._eval(expr.obj, frame, thread)
            yield  # Preemption point before the read.
            return self._read_field(obj, expr, thread)
        if node_type is ast.ArrayRead:
            array = yield from self._eval(expr.array, frame, thread)
            index = yield from self._eval(expr.index, frame, thread)
            yield
            return self._read_array(array, index, expr, thread)
        if node_type is ast.IntLiteral:
            return expr.value
        if node_type is ast.ThisRef:
            return frame.this
        if node_type is ast.Call:
            return (yield from self._eval_call(expr, frame, thread))
        if node_type is ast.BoolLiteral:
            return expr.value
        if node_type is ast.StringLiteral:
            return expr.value
        if node_type is ast.NullLiteral:
            return None
        if node_type is ast.ClassRef:
            return self._class_object(expr.class_name)
        if node_type is ast.Unary:
            operand = yield from self._eval(expr.operand, frame, thread)
            if expr.op == "!":
                if not isinstance(operand, bool):
                    raise MJRuntimeError("'!' requires a boolean", expr.location)
                return not operand
            if expr.op == "-":
                if not isinstance(operand, int) or isinstance(operand, bool):
                    raise MJRuntimeError("unary '-' requires an integer", expr.location)
                return -operand
            raise MJRuntimeError(f"unknown unary operator {expr.op!r}", expr.location)
        if node_type is ast.StaticFieldRead:
            owner = self._static_owner_object(
                expr.class_name, expr.field_name, expr.location
            )
            yield
            self._emit_access(
                owner, expr.field_name, ast.AccessKind.READ, expr.site_id, thread
            )
            return owner.statics[expr.field_name]
        if node_type is ast.New:
            return (yield from self._eval_new(expr, frame, thread))
        if node_type is ast.NewArray:
            size = yield from self._eval(expr.size, frame, thread)
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise MJRuntimeError(
                    "array size must be a non-negative integer", expr.location
                )
            array = MJArray(self._uids, size, expr.alloc_id)
            return array
        raise MJRuntimeError(
            f"unhandled expression {type(expr).__name__}", expr.location
        )

    def _read_field(self, obj, expr: ast.FieldRead, thread: ThreadState):
        if obj is None:
            raise MJRuntimeError(
                f"null dereference reading field {expr.field_name!r}",
                expr.location,
            )
        if isinstance(obj, MJArray):
            if expr.field_name == "length":
                # Array length is immutable: reading it is race-free by
                # construction, so it is not an access event.
                return len(obj)
            raise MJRuntimeError(
                f"arrays have no field {expr.field_name!r}", expr.location
            )
        if isinstance(obj, MJClassObject):
            if expr.field_name not in obj.statics:
                raise MJRuntimeError(
                    f"class {obj.class_info.name!r} has no static field "
                    f"{expr.field_name!r}",
                    expr.location,
                )
            self._emit_access(
                obj, expr.field_name, ast.AccessKind.READ, expr.site_id, thread
            )
            return obj.statics[expr.field_name]
        if not isinstance(obj, MJObject):
            raise MJRuntimeError(
                f"cannot read field {expr.field_name!r} of {mj_repr(obj)}",
                expr.location,
            )
        if expr.field_name not in obj.fields:
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no field {expr.field_name!r}",
                expr.location,
            )
        self._emit_access(
            obj, expr.field_name, ast.AccessKind.READ, expr.site_id, thread
        )
        return obj.fields[expr.field_name]

    def _read_array(self, array, index, expr: ast.ArrayRead, thread: ThreadState):
        if array is None:
            raise MJRuntimeError("null dereference in array read", expr.location)
        if not isinstance(array, MJArray):
            raise MJRuntimeError(
                f"array read applied to {mj_repr(array)}", expr.location
            )
        if not isinstance(index, int) or isinstance(index, bool):
            raise MJRuntimeError("array index must be an integer", expr.location)
        if index < 0 or index >= len(array):
            raise MJRuntimeError(
                f"array index {index} out of bounds [0, {len(array)})",
                expr.location,
            )
        self._emit_access(array, ARRAY_FIELD, ast.AccessKind.READ, expr.site_id, thread)
        return array.elements[index]

    def _eval_binary(self, expr: ast.Binary, frame: Frame, thread: ThreadState):
        op = expr.op
        if op == "&&":
            left = yield from self._eval_bool(expr.left, frame, thread)
            if not left:
                return False
            return (yield from self._eval_bool(expr.right, frame, thread))
        if op == "||":
            left = yield from self._eval_bool(expr.left, frame, thread)
            if left:
                return True
            return (yield from self._eval_bool(expr.right, frame, thread))
        left = yield from self._eval(expr.left, frame, thread)
        right = yield from self._eval(expr.right, frame, thread)
        if op == "==":
            return self._equals(left, right)
        if op == "!=":
            return not self._equals(left, right)
        if op == "+" and isinstance(left, str):
            return left + mj_repr(right)
        if op == "+" and isinstance(right, str):
            return mj_repr(left) + right
        if op in ("+", "-", "*", "/", "%", "<", "<=", ">", ">="):
            for operand in (left, right):
                if not isinstance(operand, int) or isinstance(operand, bool):
                    raise MJRuntimeError(
                        f"operator {op!r} requires integers, got "
                        f"{mj_repr(left)} and {mj_repr(right)}",
                        expr.location,
                    )
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise MJRuntimeError("division by zero", expr.location)
                return int(left / right)  # Truncating, like Java.
            if op == "%":
                if right == 0:
                    raise MJRuntimeError("modulo by zero", expr.location)
                return left - int(left / right) * right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        raise MJRuntimeError(f"unknown operator {op!r}", expr.location)

    @staticmethod
    def _equals(left, right) -> bool:
        if isinstance(left, Reference) or isinstance(right, Reference):
            return left is right
        return left == right

    def _eval_new(self, expr: ast.New, frame: Frame, thread: ThreadState):
        info = self._resolved.class_info(expr.class_name)
        obj = MJObject(self._uids, info, expr.alloc_id)
        init = info.resolve_method("init")
        if init is not None and not init.is_static:
            args = []
            for arg in expr.args:
                args.append((yield from self._eval(arg, frame, thread)))
            yield from self._invoke(init, obj, args, thread)
        elif expr.args:
            raise MJRuntimeError(
                f"class {expr.class_name!r} has no 'init' method but "
                f"'new' was given arguments",
                expr.location,
            )
        return obj

    def _eval_call(self, expr: ast.Call, frame: Frame, thread: ThreadState):
        args = []
        receiver = None
        if expr.receiver is not None:
            receiver = yield from self._eval(expr.receiver, frame, thread)
        for arg in expr.args:
            args.append((yield from self._eval(arg, frame, thread)))
        if expr.is_static:
            info = self._resolved.class_info(expr.static_class)
            method = info.resolve_method(expr.method_name)
            if method is None or not method.is_static:
                raise MJRuntimeError(
                    f"no static method {expr.method_name!r} in class "
                    f"{expr.static_class!r}",
                    expr.location,
                )
            return (yield from self._invoke(method, None, args, thread))
        if receiver is None:
            raise MJRuntimeError(
                f"null dereference calling {expr.method_name!r}", expr.location
            )
        if not isinstance(receiver, MJObject):
            raise MJRuntimeError(
                f"cannot call method {expr.method_name!r} on {mj_repr(receiver)}",
                expr.location,
            )
        method = receiver.class_info.resolve_method(expr.method_name)
        if method is None or method.is_static:
            raise MJRuntimeError(
                f"class {receiver.class_info.name!r} has no instance method "
                f"{expr.method_name!r}",
                expr.location,
            )
        return (yield from self._invoke(method, receiver, args, thread))


def run_program(
    resolved: ResolvedProgram,
    sink: Optional[EventSink] = None,
    trace_sites: Optional[set[int]] = None,
    policy: Optional[SchedulingPolicy] = None,
    max_steps: int = 10_000_000,
) -> RunResult:
    """Execute ``resolved`` once; convenience wrapper around Interpreter."""
    interpreter = Interpreter(
        resolved,
        sink=sink,
        trace_sites=trace_sites,
        policy=policy,
        max_steps=max_steps,
    )
    return interpreter.run()
