"""AST → closure-threaded code: the MJ compilation backend.

The tree-walking interpreter (:mod:`repro.runtime.interpreter`) pays a
per-*execution* price for work that is a pure function of the program
text: node-type dispatch, local-variable dict probes, method resolution,
operator decoding, and — critically — the per-access decision of whether
a site is traced.  This module pays all of those costs once, at compile
time, by lowering every resolved AST node into a Python closure with its
operands pre-bound:

* locals live in a flat frame *list* at slot indices assigned per
  method (dict probes become list indexing);
* method targets are resolved ahead of time — static calls bind the
  compiled callee directly (arity checked at compile time), instance
  calls go through per-class method tables built once;
* operators compile to specialized combiner closures (no string
  comparison chains at runtime);
* every access site gets a *statically specialized trace stub*: a site
  in the instrumentation plan compiles to a closure that has the sink's
  ``on_access_parts``, the interned label cache, the constant field
  name, site id and access kind already captured, while a site outside
  the plan (eliminated by the static race set, Section 6.1's omitted
  ``trace`` pseudo-instruction) compiles to a plain load/store whose
  only residue is the ``accesses_executed`` counter.

Scheduling parity is the load-bearing invariant.  The scheduler charges
one step per ``yield`` reaching it through the generator stack, and the
AST interpreter yields only at real preemption points (before each
memory access, at monitor operations, thread start/join/wait/barrier,
and loop back-edges).  Pure subtrees — literals, locals, arithmetic —
never yield, so they compile to *plain* closures ``f(frame) -> value``
called directly.  Any subtree containing a preemption point compiles to
a *generator* closure ``g(frame, thread)`` that yields at exactly the
same points the interpreter does.  Every compilation routine therefore
returns a ``(is_gen, closure)`` pair and callers splice pure operands
in as direct calls.  The result: identical scheduler decision
sequences, identical event streams, byte for byte.

Beyond per-node closures, three *fusions* flatten the generator stack
the scheduler must traverse on every step (the AST engine's dominant
hidden cost — each live ``yield from`` level taxes every resume):

1. each method activation is *flat code*: its statements, with every
   ``if``, ``while`` and nested block lowered to branches and jumps,
   form one instruction tuple run by the module-level generator
   :func:`run_code` — one frame per activation however deeply the
   control flow nests, and ``return`` is a plain generator return;
2. calls inline the callee prologue — arity check, frame allocation —
   into the call-site closure, which delegates straight to ``run_code``
   on the callee's code, so one call costs two generator frames, not
   the interpreter's invoke/block/statement stack;
3. value-producing generator closures accept a compile-time
   *destination* (an assignment's frame slot), so ``x = a[i] +
   this.f`` runs in a single generator frame end to end.
"""

from __future__ import annotations

from ..lang import ast
from ..lang.errors import MJAssertionError, MJError, MJRuntimeError
from ..lang.resolver import ARRAY_FIELD
from .interpreter import _Return
from .scheduler import ThreadStatus
from .values import MJArray, MJClassObject, MJObject, Reference, mj_repr

#: Sentinel stored in unassigned frame slots so reads of
#: not-yet-bound locals raise the same error the AST interpreter does.
_UNBOUND = object()

#: Destination marker for gen-expression templates (fusion 3): a
#: non-negative int destination means "store into that frame slot";
#: ``_DEST_VALUE`` means "return the value to the consuming closure".
_DEST_VALUE = None

#: Returned by a ``sync`` body's code when control falls off its end,
#: as opposed to a ``return`` statement inside the body.
_FELL_THROUGH = object()

# Flat-code opcodes.  An instruction is ``(op, arg, target, location)``;
# :func:`run_code` spells the opcodes as literals (cheaper than global
# loads on the per-instruction path).
_GEN = 0  # yield from arg(frame, thread)
_PURE = 1  # arg(frame)
_BR = 2  # branch on the pure condition arg(frame): False jumps to target
_BR_OPS = 3  # branch on the condition whose op stream is arg (_linearize)
_BACK = 4  # loop back-edge: yield (a preemption point), jump to target
_JUMP = 5  # jump to target
_RET = 6  # return arg(frame)
_RET_GEN = 7  # return (yield from arg(frame, thread))
_END = 8  # return the constant arg


def run_code(code, frame, thread):
    """Run one activation's flat code: the single generator frame of a
    method call, a thread body, or a ``sync`` body.

    A ``return`` inside a ``sync`` body cannot end this frame directly
    (the monitor must be released first): the sync closure raises
    :class:`_Return` once its ``finally`` has run, and the enclosing
    activation's runner catches it here.
    """
    pc = 0
    try:
        while True:
            op, arg, target, location = code[pc]
            if op == 0:
                yield from arg(frame, thread)
                pc += 1
            elif op == 1:
                arg(frame)
                pc += 1
            elif op == 2:
                cond = arg(frame)
                if cond is True:
                    pc += 1
                elif cond is False:
                    pc = target
                else:
                    _condition_error(cond, location)
            elif op == 4:
                yield  # Loop back-edge preemption point.
                pc = target
            elif op == 3:
                stack = []
                append = stack.append
                for item in arg:
                    tag = item[0]
                    if tag == 0:
                        append(item[1](frame))
                    elif tag == 4:
                        right = stack.pop()
                        append(item[1](stack.pop(), right))
                    elif tag == 1:
                        obj = item[1](frame)
                        yield  # Preemption point before the read.
                        if type(obj) is MJObject and item[2] in obj.fields:
                            item[3](obj, thread)
                            append(obj.fields[item[2]])
                        else:
                            append(item[4](obj, thread))
                    elif tag == 2:
                        array = item[1](frame)
                        index = item[2](frame)
                        yield
                        if (
                            type(array) is MJArray
                            and type(index) is int
                            and 0 <= index < len(array.elements)
                        ):
                            item[3](array, thread)
                            append(array.elements[index])
                        else:
                            append(item[4](array, index))
                    else:
                        append((yield from item[1](frame, thread)))
                cond = stack[0]
                if cond is True:
                    pc += 1
                elif cond is False:
                    pc = target
                else:
                    _condition_error(cond, location)
            elif op == 5:
                pc = target
            elif op == 6:
                return arg(frame)
            elif op == 7:
                return (yield from arg(frame, thread))
            else:
                return arg
    except _Return as signal:
        return signal.value


def _condition_error(cond, location):
    """Raise the AST interpreter's error for a non-boolean condition."""
    raise MJRuntimeError(
        f"condition must be a boolean, got {mj_repr(cond)}", location
    )


class MethodEntry:
    """Everything a call site needs to enter a compiled method."""

    __slots__ = ("nparams", "nslots", "code", "qname", "location")

    def __init__(self, nparams, nslots, qname, location):
        self.nparams = nparams
        self.nslots = nslots
        #: The body's flat code for :func:`run_code`, filled in once the
        #: body is compiled (two-phase, for mutual recursion).
        self.code = ()
        self.qname = qname
        self.location = location


class CompiledProgram:
    """The output of compilation: entry point + per-class method tables."""

    __slots__ = ("main_entry", "vtables")

    def __init__(self, main_entry, vtables):
        #: Compiled ``Main.main`` — the compiled engine runs it as the
        #: main thread's body.
        self.main_entry = main_entry
        #: class name -> {method name -> MethodEntry} for instance
        #: dispatch; statics are deliberately absent (calling one
        #: through an instance raises like the interpreter).
        self.vtables = vtables


def _collect_slots(method: ast.MethodDecl) -> dict:
    """Assign a frame slot to every name the method can bind.

    Slot 0 is reserved for ``this``; parameters take 1..n in order;
    every ``var``-declared or assigned name after that.  MJ locals are
    method-scoped (the interpreter keeps one flat dict per frame), so a
    flat slot map is exact.  A duplicate parameter name keeps only its
    last slot live, matching ``dict(zip(params, args))``.
    """
    slots: dict = {}
    for index, param in enumerate(method.params):
        slots[param] = index + 1
    next_slot = len(method.params) + 1
    for node in method.body.walk():
        node_type = type(node)
        if node_type is ast.VarDecl or node_type is ast.AssignLocal:
            if node.name not in slots:
                slots[node.name] = next_slot
                next_slot += 1
    return slots


def _noop(frame):
    return None


def _pure_fns(instructions):
    """The closures of a run of pure statement instructions, or
    ``None`` if any instruction is not one."""
    for instruction in instructions:
        if instruction[0] != _PURE:
            return None
    return tuple(instruction[1] for instruction in instructions)


def _pure_runner(fns: tuple):
    """One plain closure running ``fns`` in order."""
    if not fns:
        return _noop
    if len(fns) == 1:
        return fns[0]

    def run_pure(frame):
        for fn in fns:
            fn(frame)

    return run_pure


class ProgramCompiler:
    """Lowers one resolved program for one engine instance.

    Compilation closes over the engine's mutable runtime state (uid
    allocator, sink, label cache, counters), so a compiled program is
    engine-private.  Compilation is a single cheap AST walk and happens
    at engine construction — outside any timed region, matching how the
    harness excludes compile time.
    """

    def __init__(self, engine):
        self.engine = engine
        self.resolved = engine._resolved
        #: id(MethodDecl) -> MethodEntry (created before body compile).
        self._entries: dict = {}
        #: Methods whose bodies still need compiling.
        self._pending: list = []
        #: class name -> {method name -> MethodEntry}; populated at the
        #: end but captured (as an object) by call closures earlier.
        self.vtables: dict = {}

    # ------------------------------------------------------------------
    # Driver.

    def compile(self) -> CompiledProgram:
        resolved = self.resolved
        for method in resolved.methods:
            self._entry(method)
        main_entry = self._entry(resolved.main_method)
        self._drain()
        for name, info in resolved.classes.items():
            table: dict = {}
            for ancestor in info.ancestors():
                for method_name in ancestor.own_methods:
                    if method_name in table:
                        continue
                    decl = info.resolve_method(method_name)
                    if decl is not None and not decl.is_static:
                        table[method_name] = self._entry(decl)
            self.vtables[name] = table
        self._drain()
        return CompiledProgram(main_entry=main_entry, vtables=self.vtables)

    def _drain(self) -> None:
        while self._pending:
            method, slots, entry = self._pending.pop()
            entry.code = self._code(method.body.body, slots, None)

    def _entry(self, method: ast.MethodDecl) -> MethodEntry:
        key = id(method)
        entry = self._entries.get(key)
        if entry is None:
            slots = _collect_slots(method)
            entry = MethodEntry(
                nparams=len(method.params),
                nslots=len(slots) + 1,
                qname=method.qualified_name,
                location=method.location,
            )
            self._entries[key] = entry
            self._pending.append((method, slots, entry))
        return entry

    # ------------------------------------------------------------------
    # Trace stubs.

    def _record_stub(self, site_id, kind: ast.AccessKind, field_name: str):
        """The statically specialized instrumentation stub for one site.

        Traced sites get a closure over the pre-bound sink fast path and
        the interned label cache; untraced sites (outside the static
        race set, or no sink attached) reduce to one counter increment —
        the compiled analogue of the instrumenter omitting the ``trace``
        pseudo-instruction.

        With a :class:`~repro.detector.pipeline.RaceDetector` sink that
        has ownership and a single-probe cache on, a traced site instead
        compiles to the inline fast path
        (:class:`~repro.detector.pipeline.InlineFastPath`), which
        finishes owned accesses and shared cache hits without calling
        the sink.
        """
        engine = self.engine
        counts = engine._counts
        sink = engine._sink
        trace_sites = engine._trace_sites
        if sink is None or (
            trace_sites is not None and site_id not in trace_sites
        ):

            def record(ref, thread):
                counts[0] += 1

            return record

        emit = engine._emit_parts
        labels = engine._ref_labels
        label_of = engine._label_of

        fast = engine._fast_path
        if fast is None:

            def record(ref, thread):
                counts[0] += 1
                counts[1] += 1
                uid = ref.uid
                try:
                    cached = labels[uid]
                except KeyError:
                    cached = label_of(ref)
                emit(
                    uid,
                    field_name,
                    thread.thread_id,
                    kind,
                    site_id,
                    cached[0],
                    cached[1],
                )

            return record

        # The detector's dominant outcomes inlined.  Keying mirrors
        # on_access_parts, the owner check mirrors its inlined
        # OwnershipFilter.admit, and the cache probe mirrors
        # AccessCache.access_tracked's hit path (which mutates nothing
        # but the hit counter).  A completed branch performs the
        # spine's *state* effect (the virgin claim) inline and defers
        # its *counter* effects to one list-cell increment, folded back
        # by InlineFastPath.fold at run end.  Transitions and cache
        # misses fall through to the unmodified spine call, which
        # re-derives the key and counts everything itself — the fast
        # path must not touch any state before falling through.
        owners = fast.owners
        intern = fast.intern
        merged = fast.fields_merged
        shared = fast.shared
        cache_threads = fast.cache_threads
        cache_size = fast.cache_size
        hash_multiplier = fast.hash_multiplier
        hash_mask = fast.hash_mask
        # The field's code in the cache's slot function, folded in now;
        # a FieldsMerged instance key (the uid alone) has code 0.
        code = fast.field_code(field_name)
        is_write = kind is ast.AccessKind.WRITE
        owned_cell = fast.owned_cell
        hit_cell = fast.hit_cell

        def record(ref, thread):
            counts[0] += 1
            uid = ref.uid
            if merged and type(ref) is not MJClassObject:
                key = uid
                key_code = 0
            else:
                key = intern(uid, field_name)
                key_code = code
            tid = thread.thread_id
            owner = owners.get(key)
            if owner is shared:
                caches = cache_threads.get(tid)
                if caches is not None:
                    slots = (caches.write if is_write else caches.read)._slots
                    if slots[
                        ((((uid ^ key_code) * hash_multiplier) & hash_mask) >> 16)
                        % cache_size
                    ] == key:
                        hit_cell[0] += 1
                        return
            elif owner is None:
                owners[key] = tid
                owned_cell[0] += 1
                return
            elif owner == tid:
                owned_cell[0] += 1
                return
            counts[1] += 1
            try:
                cached = labels[uid]
            except KeyError:
                cached = label_of(ref)
            emit(uid, field_name, tid, kind, site_id, cached[0], cached[1])

        return record

    # ------------------------------------------------------------------
    # Flat code (fusion 1: one runner frame per activation).

    def _code(self, stmts: list, ctx, end) -> tuple:
        """A statement list as finished flat code for :func:`run_code`,
        closed by an instruction returning ``end``."""
        code: list = []
        self._emit_block(stmts, ctx, code)
        code.append((_END, end, None, None))
        return tuple(code)

    def _emit_block(self, stmts: list, ctx, code: list) -> None:
        """Append a statement list's instructions to ``code``; branch
        targets are absolute indices into ``code``."""
        for stmt in stmts:
            node_type = type(stmt)
            if node_type is ast.If:
                self._emit_if(stmt, ctx, code)
            elif node_type is ast.While:
                self._emit_while(stmt, ctx, code)
            elif node_type is ast.Block:
                self._emit_block(stmt.body, ctx, code)
            elif node_type is ast.Return:
                if stmt.value is None:
                    code.append((_END, None, None, None))
                else:
                    is_gen, fn = self._compile_expr(stmt.value, ctx)
                    code.append((_RET_GEN if is_gen else _RET, fn, None, None))
            else:
                is_gen, fn = self._compile_stmt(stmt, ctx)
                code.append((_GEN if is_gen else _PURE, fn, None, None))

    def _condition(self, cond: ast.Expr, ctx):
        """``(_BR, fn)`` for a pure condition; ``(_BR_OPS, ops)`` for a
        generator one, which the runner evaluates inline via its
        postfix op stream (see _linearize) — no condition frame."""
        is_gen, fn = self._compile_expr(cond, ctx)
        if not is_gen:
            return _BR, fn
        ops: list = []
        self._linearize(cond, ctx, ops)
        return _BR_OPS, tuple(ops)

    def _emit_if(self, stmt: ast.If, ctx, code: list) -> None:
        op, cond = self._condition(stmt.cond, ctx)
        cond_location = stmt.cond.location
        start = len(code)
        code.append(None)  # The branch, patched below.
        self._emit_block(stmt.then_block.body, ctx, code)
        middle = len(code)
        else_fns = ()
        if stmt.else_block is not None:
            code.append(None)  # The jump over the else arm.
            self._emit_block(stmt.else_block.body, ctx, code)
            else_fns = _pure_fns(code[middle + 1 :])
        then_fns = _pure_fns(code[start + 1 : middle])
        if op == _BR and then_fns is not None and else_fns is not None:
            # Pure condition and arms: one plain closure, no jumps.
            del code[start:]
            then_pure = _pure_runner(then_fns)
            else_pure = _pure_runner(else_fns)

            def if_pure(frame):
                cond_value = cond(frame)
                if cond_value is True:
                    then_pure(frame)
                elif cond_value is False:
                    else_pure(frame)
                else:
                    _condition_error(cond_value, cond_location)

            code.append((_PURE, if_pure, None, None))
            return
        target = len(code)
        if stmt.else_block is not None:
            code[middle] = (_JUMP, None, target, None)
            target = middle + 1
        code[start] = (op, cond, target, cond_location)

    def _emit_while(self, stmt: ast.While, ctx, code: list) -> None:
        op, cond = self._condition(stmt.cond, ctx)
        cond_location = stmt.cond.location
        top = len(code)
        code.append(None)  # The loop-exit branch, patched below.
        self._emit_block(stmt.body.body, ctx, code)
        body_fns = _pure_fns(code[top + 1 :])
        if op == _BR and body_fns is not None:
            # Pure condition and body: a leaf generator whose only yield
            # is the back-edge.
            del code[top:]
            body_pure = _pure_runner(body_fns)

            def while_pc_pb(frame, thread):
                while True:
                    cond_value = cond(frame)
                    if cond_value is not True:
                        if cond_value is False:
                            break
                        _condition_error(cond_value, cond_location)
                    body_pure(frame)
                    yield  # Loop back-edge preemption point.

            code.append((_GEN, while_pc_pb, None, None))
            return
        code.append((_BACK, None, top, None))
        code[top] = (op, cond, len(code), cond_location)

    # ------------------------------------------------------------------
    # Statements.

    def _compile_stmt(self, stmt: ast.Stmt, ctx):
        node_type = type(stmt)
        if node_type is ast.AssignLocal or node_type is ast.VarDecl:
            value = stmt.value if node_type is ast.AssignLocal else stmt.init
            slot = ctx[stmt.name]
            value_gen, value_fn = self._compile_expr(value, ctx, dest=slot)
            if value_gen:
                # The template stores into the slot itself (fusion 3).
                return True, value_fn

            def assign(frame):
                frame[slot] = value_fn(frame)

            return False, assign
        if node_type is ast.FieldWrite:
            return self._compile_field_write(stmt, ctx)
        if node_type is ast.ArrayWrite:
            return self._compile_array_write(stmt, ctx)
        if node_type is ast.StaticFieldWrite:
            return self._compile_static_write(stmt, ctx)
        if node_type is ast.ExprStmt:
            # Expression closures share the statement calling convention
            # (run_code discards values), so reuse them directly.
            return self._compile_expr(stmt.expr, ctx)
        if node_type is ast.Sync:
            return self._compile_sync(stmt, ctx)
        if node_type is ast.Start:
            return self._compile_unary_kernel(
                stmt.thread, self.engine._start_kernel, stmt.location, ctx
            )
        if node_type is ast.Join:
            return self._compile_unary_kernel(
                stmt.thread, self.engine._join_kernel, stmt.location, ctx
            )
        if node_type is ast.Wait:
            return self._compile_unary_kernel(
                stmt.target, self.engine._wait_kernel, stmt.location, ctx
            )
        if node_type is ast.Notify:
            return self._compile_notify(stmt, ctx)
        if node_type is ast.Barrier:
            return self._compile_barrier(stmt, ctx)
        if node_type is ast.Print:
            value_gen, value_fn = self._compile_expr(stmt.value, ctx)
            out_append = self.engine.output.append
            if value_gen:

                def print_gen(frame, thread):
                    out_append(mj_repr((yield from value_fn(frame, thread))))

                return True, print_gen

            def print_pure(frame):
                out_append(mj_repr(value_fn(frame)))

            return False, print_pure
        if node_type is ast.Assert:
            cond_gen, cond_fn = self._compile_expr(stmt.cond, ctx)
            cond_location = stmt.cond.location
            location = stmt.location
            if cond_gen:

                def assert_gen(frame, thread):
                    cond = yield from cond_fn(frame, thread)
                    if type(cond) is not bool:
                        _condition_error(cond, cond_location)
                    if not cond:
                        raise MJAssertionError("assertion failed", location)

                return True, assert_gen

            def assert_pure(frame):
                cond = cond_fn(frame)
                if type(cond) is not bool:
                    _condition_error(cond, cond_location)
                if not cond:
                    raise MJAssertionError("assertion failed", location)

            return False, assert_pure
        location = stmt.location
        name = node_type.__name__

        def unhandled(frame):
            raise MJRuntimeError(f"unhandled statement {name}", location)

        return False, unhandled

    # ------------------------------------------------------------------
    # Memory writes.

    def _compile_field_write(self, stmt: ast.FieldWrite, ctx):
        obj_gen, obj_fn = self._compile_expr(stmt.obj, ctx)
        value_gen, value_fn = self._compile_expr(stmt.value, ctx)
        field_name = stmt.field_name
        record = self._record_stub(
            stmt.site_id, ast.AccessKind.WRITE, field_name
        )
        location = stmt.location

        def slow(obj, value, thread):
            if obj is None:
                raise MJRuntimeError(
                    f"null dereference writing field {field_name!r}", location
                )
            if isinstance(obj, MJArray):
                raise MJRuntimeError(
                    f"cannot write field {field_name!r} of an array", location
                )
            if isinstance(obj, MJClassObject):
                if field_name not in obj.statics:
                    raise MJRuntimeError(
                        f"class {obj.class_info.name!r} has no static field "
                        f"{field_name!r}",
                        location,
                    )
                record(obj, thread)
                obj.statics[field_name] = value
                return
            if not isinstance(obj, MJObject):
                raise MJRuntimeError(
                    f"cannot write field {field_name!r} of {mj_repr(obj)}",
                    location,
                )
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no field {field_name!r}",
                location,
            )

        if not obj_gen and not value_gen:

            def write_pure_ops(frame, thread):
                obj = obj_fn(frame)
                value = value_fn(frame)
                yield  # Preemption point before the write.
                if type(obj) is MJObject:
                    fields = obj.fields
                    if field_name in fields:
                        record(obj, thread)
                        fields[field_name] = value
                        return
                slow(obj, value, thread)

            return True, write_pure_ops

        def write_gen_ops(frame, thread):
            if obj_gen:
                obj = yield from obj_fn(frame, thread)
            else:
                obj = obj_fn(frame)
            if value_gen:
                value = yield from value_fn(frame, thread)
            else:
                value = value_fn(frame)
            yield
            if type(obj) is MJObject:
                fields = obj.fields
                if field_name in fields:
                    record(obj, thread)
                    fields[field_name] = value
                    return
            slow(obj, value, thread)

        return True, write_gen_ops

    def _compile_array_write(self, stmt: ast.ArrayWrite, ctx):
        array_gen, array_fn = self._compile_expr(stmt.array, ctx)
        index_gen, index_fn = self._compile_expr(stmt.index, ctx)
        value_gen, value_fn = self._compile_expr(stmt.value, ctx)
        record = self._record_stub(
            stmt.site_id, ast.AccessKind.WRITE, ARRAY_FIELD
        )
        location = stmt.location

        def fail(array, index):
            if array is None:
                raise MJRuntimeError(
                    "null dereference in array write", location
                )
            if not isinstance(array, MJArray):
                raise MJRuntimeError(
                    f"array write applied to {mj_repr(array)}", location
                )
            if not isinstance(index, int) or isinstance(index, bool):
                raise MJRuntimeError(
                    "array index must be an integer", location
                )
            raise MJRuntimeError(
                f"array index {index} out of bounds [0, {len(array)})",
                location,
            )

        if not (array_gen or index_gen or value_gen):

            def awrite_pure_ops(frame, thread):
                array = array_fn(frame)
                index = index_fn(frame)
                value = value_fn(frame)
                yield
                if type(array) is MJArray:
                    elements = array.elements
                    if type(index) is int and 0 <= index < len(elements):
                        record(array, thread)
                        elements[index] = value
                        return
                fail(array, index)

            return True, awrite_pure_ops

        def awrite_gen_ops(frame, thread):
            if array_gen:
                array = yield from array_fn(frame, thread)
            else:
                array = array_fn(frame)
            if index_gen:
                index = yield from index_fn(frame, thread)
            else:
                index = index_fn(frame)
            if value_gen:
                value = yield from value_fn(frame, thread)
            else:
                value = value_fn(frame)
            yield
            if type(array) is MJArray:
                elements = array.elements
                if type(index) is int and 0 <= index < len(elements):
                    record(array, thread)
                    elements[index] = value
                    return
            fail(array, index)

        return True, awrite_gen_ops

    def _resolve_static_owner(self, class_name: str, field_name: str):
        """Compile-time static-field owner resolution; ``None`` defers
        the (identical) failure to runtime."""
        try:
            info = self.resolved.class_info(class_name)
        except MJError:
            return None
        return info.static_field_owner(field_name)

    def _compile_static_write(self, stmt: ast.StaticFieldWrite, ctx):
        value_gen, value_fn = self._compile_expr(stmt.value, ctx)
        field_name = stmt.field_name
        location = stmt.location
        owner = self._resolve_static_owner(stmt.class_name, field_name)
        if owner is None:
            resolve_owner = self.engine._static_owner_object
            class_name = stmt.class_name

            def swrite_unresolved(frame, thread):
                if value_gen:
                    yield from value_fn(frame, thread)
                else:
                    value_fn(frame)
                resolve_owner(class_name, field_name, location)

            return True, swrite_unresolved
        class_object = self.engine._class_object
        owner_name = owner.name
        record = self._record_stub(
            stmt.site_id, ast.AccessKind.WRITE, field_name
        )

        def swrite(frame, thread):
            if value_gen:
                value = yield from value_fn(frame, thread)
            else:
                value = value_fn(frame)
            owner_obj = class_object(owner_name)
            yield
            record(owner_obj, thread)
            owner_obj.statics[field_name] = value

        return True, swrite

    # ------------------------------------------------------------------
    # Synchronization statements.

    def _compile_sync(self, stmt: ast.Sync, ctx):
        lock_gen, lock_fn = self._compile_expr(stmt.lock, ctx)
        body = self._code(stmt.body.body, ctx, _FELL_THROUGH)
        engine = self.engine
        sink = engine._sink
        on_enter = sink.on_monitor_enter if sink is not None else None
        on_exit = sink.on_monitor_exit if sink is not None else None
        lock_stacks = engine._lock_stacks
        location = stmt.location
        BLOCKED = ThreadStatus.BLOCKED

        def sync(frame, thread):
            if lock_gen:
                lock = yield from lock_fn(frame, thread)
            else:
                lock = lock_fn(frame)
            if not isinstance(lock, Reference):
                raise MJRuntimeError(
                    f"sync requires an object, got {mj_repr(lock)}", location
                )
            monitor = lock.monitor
            thread_id = thread.thread_id
            while not monitor.can_acquire(thread_id):
                thread.status = BLOCKED
                thread.blocked_on = monitor
                yield
            outermost = monitor.acquire(thread_id)
            if on_enter is not None:
                on_enter(thread_id, lock.uid, reentrant=not outermost)
            stack = lock_stacks.setdefault(thread_id, [])
            stack.append(lock.uid)
            try:
                value = yield from run_code(body, frame, thread)
            finally:
                stack.pop()
                # A thread torn down mid-wait already released the
                # monitor; only release when actually held.
                if monitor.owner == thread_id:
                    released = monitor.release(thread_id)
                    if on_exit is not None:
                        on_exit(thread_id, lock.uid, reentrant=not released)
            if value is not _FELL_THROUGH:
                # A return inside the body: with the monitor released,
                # unwind to the enclosing activation's runner.
                raise _Return(value)

        return True, sync

    def _compile_unary_kernel(self, operand: ast.Expr, kernel, location, ctx):
        """start/join/wait: evaluate one operand, hand off to an engine
        kernel generator."""
        operand_gen, operand_fn = self._compile_expr(operand, ctx)

        def run_kernel(frame, thread):
            if operand_gen:
                obj = yield from operand_fn(frame, thread)
            else:
                obj = operand_fn(frame)
            yield from kernel(obj, thread, location)

        return True, run_kernel

    def _compile_notify(self, stmt: ast.Notify, ctx):
        target_gen, target_fn = self._compile_expr(stmt.target, ctx)
        kernel = self.engine._notify_kernel
        notify_all = stmt.notify_all
        location = stmt.location

        def notify(frame, thread):
            if target_gen:
                obj = yield from target_fn(frame, thread)
            else:
                obj = target_fn(frame)
            kernel(obj, thread, notify_all, location)
            return
            yield  # Unreached; forces generator (notify never suspends).

        return True, notify

    def _compile_barrier(self, stmt: ast.Barrier, ctx):
        target_gen, target_fn = self._compile_expr(stmt.target, ctx)
        parties_gen, parties_fn = self._compile_expr(stmt.parties, ctx)
        kernel = self.engine._barrier_kernel
        location = stmt.location

        def barrier(frame, thread):
            if target_gen:
                obj = yield from target_fn(frame, thread)
            else:
                obj = target_fn(frame)
            # The target check precedes parties evaluation (the
            # interpreter orders them this way too).
            if not isinstance(obj, Reference):
                raise MJRuntimeError(
                    f"barrier requires an object, got {mj_repr(obj)}", location
                )
            if parties_gen:
                parties = yield from parties_fn(frame, thread)
            else:
                parties = parties_fn(frame)
            yield from kernel(obj, parties, thread, location)

        return True, barrier

    # ------------------------------------------------------------------
    # Expressions.
    #
    # ``dest`` (fusion 3) tells a gen-expression template what to do
    # with its value: _DEST_VALUE returns it to the consuming closure,
    # a slot index stores it into the frame.  Pure closures always
    # return the value — their consumer handles the destination, since
    # no frame is saved by fusing.

    def _compile_expr(self, expr: ast.Expr, ctx, dest=_DEST_VALUE):
        node_type = type(expr)
        if dest is not _DEST_VALUE:
            # Route to the dest-aware templates; any other generator
            # shape gets an explicit store wrapper so the destination
            # is never silently dropped.
            if node_type is ast.Binary and expr.op not in ("&&", "||"):
                return self._compile_binary(expr, ctx, dest)
            if node_type is ast.FieldRead:
                return self._compile_field_read(expr, ctx, dest)
            if node_type is ast.ArrayRead:
                return self._compile_array_read(expr, ctx, dest)
            if node_type is ast.Call:
                return self._compile_call(expr, ctx, dest)
            if node_type is ast.New:
                return self._compile_new(expr, ctx, dest)
            if node_type is ast.StaticFieldRead:
                return self._compile_static_read(expr, ctx, dest)
            is_gen, fn = self._compile_expr(expr, ctx)
            if not is_gen:
                return is_gen, fn

            def store_wrap(frame, thread):
                frame[dest] = yield from fn(frame, thread)

            return True, store_wrap
        if node_type is ast.VarRef:
            return self._compile_var_ref(expr, ctx)
        if node_type is ast.Binary:
            return self._compile_binary(expr, ctx, dest)
        if node_type is ast.FieldRead:
            return self._compile_field_read(expr, ctx, dest)
        if node_type is ast.ArrayRead:
            return self._compile_array_read(expr, ctx, dest)
        if node_type is ast.IntLiteral or node_type is ast.BoolLiteral \
                or node_type is ast.StringLiteral:
            value = expr.value

            def const(frame):
                return value

            return False, const
        if node_type is ast.ThisRef:

            def this_ref(frame):
                return frame[0]

            return False, this_ref
        if node_type is ast.Call:
            return self._compile_call(expr, ctx, dest)
        if node_type is ast.NullLiteral:

            def null(frame):
                return None

            return False, null
        if node_type is ast.ClassRef:
            class_object = self.engine._class_object
            class_name = expr.class_name

            def class_ref(frame):
                return class_object(class_name)

            return False, class_ref
        if node_type is ast.Unary:
            return self._compile_unary(expr, ctx)
        if node_type is ast.StaticFieldRead:
            return self._compile_static_read(expr, ctx, dest)
        if node_type is ast.New:
            return self._compile_new(expr, ctx, dest)
        if node_type is ast.NewArray:
            return self._compile_new_array(expr, ctx)
        location = expr.location
        name = node_type.__name__

        def unhandled(frame):
            raise MJRuntimeError(f"unhandled expression {name}", location)

        return False, unhandled

    def _compile_var_ref(self, expr: ast.VarRef, ctx):
        name = expr.name
        location = expr.location
        slot = ctx.get(name)
        if slot is None:
            # Never assigned anywhere in the method: always unbound.
            def unbound(frame):
                raise MJRuntimeError(
                    f"unbound variable {name!r}", location
                )

            return False, unbound

        def var_ref(frame):
            value = frame[slot]
            if value is _UNBOUND:
                raise MJRuntimeError(f"unbound variable {name!r}", location)
            return value

        return False, var_ref

    def _compile_unary(self, expr: ast.Unary, ctx):
        operand_gen, operand_fn = self._compile_expr(expr.operand, ctx)
        op = expr.op
        location = expr.location
        if op == "!":

            def apply(value):
                if not isinstance(value, bool):
                    raise MJRuntimeError("'!' requires a boolean", location)
                return not value

        elif op == "-":

            def apply(value):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise MJRuntimeError(
                        "unary '-' requires an integer", location
                    )
                return -value

        else:

            def apply(value):
                raise MJRuntimeError(
                    f"unknown unary operator {op!r}", location
                )

        if operand_gen:

            def unary_gen(frame, thread):
                return apply((yield from operand_fn(frame, thread)))

            return True, unary_gen

        def unary_pure(frame):
            return apply(operand_fn(frame))

        return False, unary_pure

    def _compile_binary(self, expr: ast.Binary, ctx, dest=_DEST_VALUE):
        op = expr.op
        if op == "&&" or op == "||":
            return self._compile_shortcircuit(expr, ctx)
        combine = _binary_combiner(op, expr.location)
        left_acc = self._access_operand(expr.left, ctx)
        right_acc = self._access_operand(expr.right, ctx)
        if left_acc is not None and right_acc is not None:
            # At least one side must actually yield, else both compiled
            # pure and we would not be here — checked below.
            if left_acc[0] != "pure" or right_acc[0] != "pure":
                return True, self._fused_binary(
                    left_acc, right_acc, combine, dest
                )
        left_gen, left_fn = self._compile_expr(expr.left, ctx)
        right_gen, right_fn = self._compile_expr(expr.right, ctx)
        if not left_gen and not right_gen:
            if op in _INT_FAST_OPS:
                fast = _INT_FAST_OPS[op]

                def binary_fast(frame):
                    left = left_fn(frame)
                    right = right_fn(frame)
                    if type(left) is int and type(right) is int:
                        return fast(left, right)
                    return combine(left, right)

                return False, binary_fast

            def binary_pure(frame):
                return combine(left_fn(frame), right_fn(frame))

            return False, binary_pure

        # A call combined with a pure operand folds the combine into the
        # call closure itself, removing the binary frame from the resume
        # chain (hot for recursive accumulations like
        # ``count = count + search(...)``).  The pure side cannot yield
        # and frames are thread-local, so only error ordering is
        # observable — preserved by evaluating a pure *left* operand at
        # the top of the call generator (exactly where the binary frame
        # would have) and a pure *right* operand after the call returns.
        if left_gen != right_gen:
            if right_gen and type(expr.right) is ast.Call:
                return self._compile_call(
                    expr.right, ctx, dest, fold=(combine, left_fn, None)
                )
            if left_gen and type(expr.left) is ast.Call:
                return self._compile_call(
                    expr.left, ctx, dest, fold=(combine, None, right_fn)
                )

        # A deeper tree (nested binaries over accesses/calls) flattens
        # to one generator frame running a postfix op sequence instead
        # of one frame per interior node.
        ops: list = []
        self._linearize(expr.left, ctx, ops)
        self._linearize(expr.right, ctx, ops)
        ops.append((4, combine))
        if len(ops) > 3:
            # Left-deep spines — leaf, then (leaf, combine) pairs — are
            # the common shape and evaluate without a value stack.
            if len(ops) % 2 == 1 and ops[0][0] != 4 and all(
                ops[i][0] != 4 and ops[i + 1][0] == 4
                for i in range(1, len(ops), 2)
            ):
                pairs = tuple(
                    (ops[i], ops[i + 1][1]) for i in range(1, len(ops), 2)
                )
                return True, self._spine_eval(ops[0], pairs, dest)
            return True, self._tree_eval(tuple(ops), dest)

        def binary_gen(frame, thread):
            if left_gen:
                left = yield from left_fn(frame, thread)
            else:
                left = left_fn(frame)
            if right_gen:
                right = yield from right_fn(frame, thread)
            else:
                right = right_fn(frame)
            value = combine(left, right)
            if dest is _DEST_VALUE:
                return value
            frame[dest] = value

        return True, binary_gen

    # -- Flattened binary trees (fusion 3, deep case). -----------------

    def _linearize(self, expr: ast.Expr, ctx, ops: list) -> None:
        """Append postfix ops for ``expr`` to ``ops``.

        Op encodings: ``(0, fn)`` pure value; ``(1, obj_fn, field_name,
        record, slow)`` field read; ``(2, array_fn, index_fn, record,
        fail)`` array read; ``(3, gen_fn)`` any other generator
        sub-expression (delegated); ``(4, combine)`` apply an operator
        to the top two stack values.  Postfix order preserves the
        interpreter's left-to-right leaf evaluation and the point at
        which each combiner (and its errors) runs.
        """
        if type(expr) is ast.Binary and expr.op not in ("&&", "||"):
            is_gen, fn = self._compile_expr(expr, ctx)
            if not is_gen:
                ops.append((0, fn))
                return
            self._linearize(expr.left, ctx, ops)
            self._linearize(expr.right, ctx, ops)
            ops.append((4, _binary_combiner(expr.op, expr.location)))
            return
        acc = self._access_operand(expr, ctx)
        if acc is None:
            _, fn = self._compile_expr(expr, ctx)
            ops.append((3, fn))
        elif acc[0] == "pure":
            ops.append((0, acc[1]))
        elif acc[0] == "field":
            ops.append((1,) + acc[1:])
        else:
            ops.append((2,) + acc[1:])

    def _spine_eval(self, first, pairs, dest):
        """Stack-free evaluator for a left-deep binary spine: evaluate
        the first leaf, then fold each (leaf, combiner) pair into the
        accumulator.  Leaf encodings match :meth:`_linearize`."""

        def spine(frame, thread):
            op = first
            tag = op[0]
            if tag == 0:
                acc = op[1](frame)
            elif tag == 1:
                obj = op[1](frame)
                yield  # Preemption point before the read.
                if type(obj) is MJObject and op[2] in obj.fields:
                    op[3](obj, thread)
                    acc = obj.fields[op[2]]
                else:
                    acc = op[4](obj, thread)
            elif tag == 2:
                array = op[1](frame)
                index = op[2](frame)
                yield
                if (
                    type(array) is MJArray
                    and type(index) is int
                    and 0 <= index < len(array.elements)
                ):
                    op[3](array, thread)
                    acc = array.elements[index]
                else:
                    acc = op[4](array, index)
            else:
                acc = yield from op[1](frame, thread)
            for op, comb in pairs:
                tag = op[0]
                if tag == 0:
                    value = op[1](frame)
                elif tag == 1:
                    obj = op[1](frame)
                    yield
                    if type(obj) is MJObject and op[2] in obj.fields:
                        op[3](obj, thread)
                        value = obj.fields[op[2]]
                    else:
                        value = op[4](obj, thread)
                elif tag == 2:
                    array = op[1](frame)
                    index = op[2](frame)
                    yield
                    if (
                        type(array) is MJArray
                        and type(index) is int
                        and 0 <= index < len(array.elements)
                    ):
                        op[3](array, thread)
                        value = array.elements[index]
                    else:
                        value = op[4](array, index)
                else:
                    value = yield from op[1](frame, thread)
                acc = comb(acc, value)
            if dest is _DEST_VALUE:
                return acc
            frame[dest] = acc

        return spine

    def _tree_eval(self, ops: tuple, dest):
        """One generator frame evaluating a postfix op sequence over a
        small value stack; yields exactly where the nested closures
        would (before each access, inside delegated generators)."""

        def tree(frame, thread):
            stack = []
            push = stack.append
            pop = stack.pop
            for op in ops:
                tag = op[0]
                if tag == 0:
                    push(op[1](frame))
                elif tag == 4:
                    right = pop()
                    push(op[1](pop(), right))
                elif tag == 1:
                    obj = op[1](frame)
                    yield  # Preemption point before the read.
                    if type(obj) is MJObject and op[2] in obj.fields:
                        op[3](obj, thread)
                        push(obj.fields[op[2]])
                    else:
                        push(op[4](obj, thread))
                elif tag == 2:
                    array = op[1](frame)
                    index = op[2](frame)
                    yield
                    if (
                        type(array) is MJArray
                        and type(index) is int
                        and 0 <= index < len(array.elements)
                    ):
                        op[3](array, thread)
                        push(array.elements[index])
                    else:
                        push(op[4](array, index))
                else:
                    push((yield from op[1](frame, thread)))
            value = stack[0]
            if dest is _DEST_VALUE:
                return value
            frame[dest] = value

        return tree

    # -- Fused binary over access-read operands (fusion 3). ------------

    def _access_operand(self, expr: ast.Expr, ctx):
        """Classify an operand for the fused binary template.

        Returns ``("pure", fn)``, ``("field", obj_fn, field_name,
        record, slow)``, ``("array", array_fn, index_fn, record,
        fail)``, or ``None`` when the operand is a generator of another
        shape (falls back to the generic chain).
        """
        node_type = type(expr)
        if node_type is ast.FieldRead:
            obj_gen, obj_fn = self._compile_expr(expr.obj, ctx)
            if obj_gen:
                return None
            record, slow = self._field_read_parts(expr)
            return ("field", obj_fn, expr.field_name, record, slow)
        if node_type is ast.ArrayRead:
            array_gen, array_fn = self._compile_expr(expr.array, ctx)
            index_gen, index_fn = self._compile_expr(expr.index, ctx)
            if array_gen or index_gen:
                return None
            record, fail = self._array_read_parts(expr)
            return ("array", array_fn, index_fn, record, fail)
        is_gen, fn = self._compile_expr(expr, ctx)
        if is_gen:
            return None
        return ("pure", fn)

    def _fused_binary(self, left_acc, right_acc, combine, dest):
        """One generator frame computing ``combine(left, right)`` where
        operands may be field/array reads (each yielding exactly like
        the AST engine before its access)."""
        lmode = left_acc[0]
        rmode = right_acc[0]
        # Pad so each operand unpacks once at closure creation; the
        # meaning of l1..l4 depends on the mode (see _access_operand).
        l1, l2, l3, l4 = (left_acc + (None, None, None))[1:5]
        r1, r2, r3, r4 = (right_acc + (None, None, None))[1:5]

        def fused(frame, thread):
            if lmode == "pure":
                left = l1(frame)
            elif lmode == "field":
                obj = l1(frame)
                yield  # Preemption point before the read.
                if type(obj) is MJObject and l2 in obj.fields:
                    l3(obj, thread)
                    left = obj.fields[l2]
                else:
                    left = l4(obj, thread)
            else:
                array = l1(frame)
                index = l2(frame)
                yield
                if (
                    type(array) is MJArray
                    and type(index) is int
                    and 0 <= index < len(array.elements)
                ):
                    l3(array, thread)
                    left = array.elements[index]
                else:
                    left = l4(array, index)
            if rmode == "pure":
                right = r1(frame)
            elif rmode == "field":
                obj = r1(frame)
                yield
                if type(obj) is MJObject and r2 in obj.fields:
                    r3(obj, thread)
                    right = obj.fields[r2]
                else:
                    right = r4(obj, thread)
            else:
                array = r1(frame)
                index = r2(frame)
                yield
                if (
                    type(array) is MJArray
                    and type(index) is int
                    and 0 <= index < len(array.elements)
                ):
                    r3(array, thread)
                    right = array.elements[index]
                else:
                    right = r4(array, index)
            value = combine(left, right)
            if dest is _DEST_VALUE:
                return value
            frame[dest] = value

        return fused

    def _compile_shortcircuit(self, expr: ast.Binary, ctx):
        left_gen, left_fn = self._compile_expr(expr.left, ctx)
        right_gen, right_fn = self._compile_expr(expr.right, ctx)
        left_location = expr.left.location
        right_location = expr.right.location
        is_and = expr.op == "&&"
        if not left_gen and not right_gen:

            def shortcircuit_pure(frame):
                left = left_fn(frame)
                if type(left) is not bool:
                    _condition_error(left, left_location)
                if left is not is_and:
                    # and: left False -> False; or: left True -> True.
                    return left
                right = right_fn(frame)
                if type(right) is not bool:
                    _condition_error(right, right_location)
                return right

            return False, shortcircuit_pure

        def shortcircuit_gen(frame, thread):
            if left_gen:
                left = yield from left_fn(frame, thread)
            else:
                left = left_fn(frame)
            if type(left) is not bool:
                _condition_error(left, left_location)
            if left is not is_and:
                return left
            if right_gen:
                right = yield from right_fn(frame, thread)
            else:
                right = right_fn(frame)
            if type(right) is not bool:
                _condition_error(right, right_location)
            return right

        return True, shortcircuit_gen

    # ------------------------------------------------------------------
    # Memory reads.

    def _field_read_parts(self, expr: ast.FieldRead):
        """The record stub and slow path shared by every field-read
        template."""
        field_name = expr.field_name
        record = self._record_stub(
            expr.site_id, ast.AccessKind.READ, field_name
        )
        location = expr.location

        def slow(obj, thread):
            if obj is None:
                raise MJRuntimeError(
                    f"null dereference reading field {field_name!r}", location
                )
            if isinstance(obj, MJArray):
                if field_name == "length":
                    # Array length is immutable: not an access event.
                    return len(obj)
                raise MJRuntimeError(
                    f"arrays have no field {field_name!r}", location
                )
            if isinstance(obj, MJClassObject):
                if field_name not in obj.statics:
                    raise MJRuntimeError(
                        f"class {obj.class_info.name!r} has no static field "
                        f"{field_name!r}",
                        location,
                    )
                record(obj, thread)
                return obj.statics[field_name]
            if not isinstance(obj, MJObject):
                raise MJRuntimeError(
                    f"cannot read field {field_name!r} of {mj_repr(obj)}",
                    location,
                )
            raise MJRuntimeError(
                f"class {obj.class_info.name!r} has no field {field_name!r}",
                location,
            )

        return record, slow

    def _compile_field_read(self, expr: ast.FieldRead, ctx, dest=_DEST_VALUE):
        obj_gen, obj_fn = self._compile_expr(expr.obj, ctx)
        field_name = expr.field_name
        record, slow = self._field_read_parts(expr)

        if not obj_gen:

            def read_pure_obj(frame, thread):
                obj = obj_fn(frame)
                yield  # Preemption point before the read.
                if type(obj) is MJObject:
                    fields = obj.fields
                    if field_name in fields:
                        record(obj, thread)
                        value = fields[field_name]
                    else:
                        value = slow(obj, thread)
                else:
                    value = slow(obj, thread)
                if dest is _DEST_VALUE:
                    return value
                frame[dest] = value

            return True, read_pure_obj

        def read_gen_obj(frame, thread):
            obj = yield from obj_fn(frame, thread)
            yield
            if type(obj) is MJObject:
                fields = obj.fields
                if field_name in fields:
                    record(obj, thread)
                    value = fields[field_name]
                else:
                    value = slow(obj, thread)
            else:
                value = slow(obj, thread)
            if dest is _DEST_VALUE:
                return value
            frame[dest] = value

        return True, read_gen_obj

    def _array_read_parts(self, expr: ast.ArrayRead):
        record = self._record_stub(
            expr.site_id, ast.AccessKind.READ, ARRAY_FIELD
        )
        location = expr.location

        def fail(array, index):
            if array is None:
                raise MJRuntimeError(
                    "null dereference in array read", location
                )
            if not isinstance(array, MJArray):
                raise MJRuntimeError(
                    f"array read applied to {mj_repr(array)}", location
                )
            if not isinstance(index, int) or isinstance(index, bool):
                raise MJRuntimeError(
                    "array index must be an integer", location
                )
            raise MJRuntimeError(
                f"array index {index} out of bounds [0, {len(array)})",
                location,
            )

        return record, fail

    def _compile_array_read(self, expr: ast.ArrayRead, ctx, dest=_DEST_VALUE):
        array_gen, array_fn = self._compile_expr(expr.array, ctx)
        index_gen, index_fn = self._compile_expr(expr.index, ctx)
        record, fail = self._array_read_parts(expr)

        if not array_gen and not index_gen:

            def aread_pure_ops(frame, thread):
                array = array_fn(frame)
                index = index_fn(frame)
                yield
                if type(array) is MJArray:
                    elements = array.elements
                    if type(index) is int and 0 <= index < len(elements):
                        record(array, thread)
                        value = elements[index]
                        if dest is _DEST_VALUE:
                            return value
                        frame[dest] = value
                        return
                value = fail(array, index)

            return True, aread_pure_ops

        def aread_gen_ops(frame, thread):
            if array_gen:
                array = yield from array_fn(frame, thread)
            else:
                array = array_fn(frame)
            if index_gen:
                index = yield from index_fn(frame, thread)
            else:
                index = index_fn(frame)
            yield
            if type(array) is MJArray:
                elements = array.elements
                if type(index) is int and 0 <= index < len(elements):
                    record(array, thread)
                    value = elements[index]
                    if dest is _DEST_VALUE:
                        return value
                    frame[dest] = value
                    return
            value = fail(array, index)

        return True, aread_gen_ops

    def _compile_static_read(
        self, expr: ast.StaticFieldRead, ctx, dest=_DEST_VALUE
    ):
        field_name = expr.field_name
        location = expr.location
        owner = self._resolve_static_owner(expr.class_name, field_name)
        if owner is None:
            resolve_owner = self.engine._static_owner_object
            class_name = expr.class_name

            def sread_unresolved(frame, thread):
                resolve_owner(class_name, field_name, location)
                yield  # Unreached: resolution above always raises.

            return True, sread_unresolved
        class_object = self.engine._class_object
        owner_name = owner.name
        record = self._record_stub(
            expr.site_id, ast.AccessKind.READ, field_name
        )

        def sread(frame, thread):
            owner_obj = class_object(owner_name)
            yield
            record(owner_obj, thread)
            value = owner_obj.statics[field_name]
            if dest is _DEST_VALUE:
                return value
            frame[dest] = value

        return True, sread

    # ------------------------------------------------------------------
    # Allocation and calls (fusion 2: prologue inlined at the site).

    def _compile_new(self, expr: ast.New, ctx, dest=_DEST_VALUE):
        class_name = expr.class_name
        location = expr.location
        try:
            info = self.resolved.class_info(class_name)
        except MJError:
            class_info = self.resolved.class_info

            def new_unknown(frame):
                class_info(class_name)  # Raises the resolver's error.
                raise MJRuntimeError(f"unknown class {class_name!r}", location)

            return False, new_unknown
        uids = self.engine._uids
        alloc_id = expr.alloc_id
        init = info.resolve_method("init")
        if init is None or init.is_static:
            if expr.args:

                def new_bad_args(frame):
                    # The interpreter allocates (drawing a uid) before
                    # noticing the missing init; preserve that.
                    MJObject(uids, info, alloc_id)
                    raise MJRuntimeError(
                        f"class {class_name!r} has no 'init' method but "
                        f"'new' was given arguments",
                        location,
                    )

                return False, new_bad_args

            def new_plain(frame):
                return MJObject(uids, info, alloc_id)

            return False, new_plain
        entry = self._entry(init)
        arg_parts = [self._compile_expr(arg, ctx) for arg in expr.args]
        args_pure = not any(is_gen for is_gen, _ in arg_parts)
        pure_arg_fns = tuple(fn for _, fn in arg_parts)
        arg_items = tuple(arg_parts)
        if args_pure:
            arg_ops = ()
        else:
            ops_list: list = []
            for arg in expr.args:
                self._linearize(arg, ctx, ops_list)
            arg_ops = tuple(ops_list)
        nparams = entry.nparams
        nslots = entry.nslots
        if len(expr.args) != nparams:
            qname, entry_location = entry.qname, entry.location
            nargs = len(expr.args)

            def new_arity_error(frame, thread):
                MJObject(uids, info, alloc_id)
                for is_gen, fn in arg_items:
                    if is_gen:
                        yield from fn(frame, thread)
                    else:
                        fn(frame)
                raise MJRuntimeError(
                    f"{qname} expects {nparams} argument(s), got {nargs}",
                    entry_location,
                )

            return True, new_arity_error

        def new_fused(frame, thread):
            obj = MJObject(uids, info, alloc_id)
            nframe = [_UNBOUND] * nslots
            nframe[0] = obj
            if args_pure:
                for i, fn in enumerate(pure_arg_fns):
                    nframe[i + 1] = fn(frame)
            else:
                values = []
                append = values.append
                for op in arg_ops:
                    tag = op[0]
                    if tag == 0:
                        append(op[1](frame))
                    elif tag == 4:
                        right = values.pop()
                        append(op[1](values.pop(), right))
                    elif tag == 1:
                        robj = op[1](frame)
                        yield  # Preemption point before the read.
                        if type(robj) is MJObject and op[2] in robj.fields:
                            op[3](robj, thread)
                            append(robj.fields[op[2]])
                        else:
                            append(op[4](robj, thread))
                    elif tag == 2:
                        array = op[1](frame)
                        index = op[2](frame)
                        yield
                        if (
                            type(array) is MJArray
                            and type(index) is int
                            and 0 <= index < len(array.elements)
                        ):
                            op[3](array, thread)
                            append(array.elements[index])
                        else:
                            append(op[4](array, index))
                    else:
                        append((yield from op[1](frame, thread)))
                nframe[1 : nparams + 1] = values
            yield from run_code(entry.code, nframe, thread)
            if dest is _DEST_VALUE:
                return obj
            frame[dest] = obj

        return True, new_fused

    def _compile_new_array(self, expr: ast.NewArray, ctx):
        size_gen, size_fn = self._compile_expr(expr.size, ctx)
        uids = self.engine._uids
        alloc_id = expr.alloc_id
        location = expr.location

        def build(size):
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise MJRuntimeError(
                    "array size must be a non-negative integer", location
                )
            return MJArray(uids, size, alloc_id)

        if size_gen:

            def new_array_gen(frame, thread):
                return build((yield from size_fn(frame, thread)))

            return True, new_array_gen

        def new_array(frame):
            return build(size_fn(frame))

        return False, new_array

    def _compile_call(self, expr: ast.Call, ctx, dest=_DEST_VALUE, fold=None):
        # ``fold`` is (combiner, pre_fn, post_fn) from _compile_binary:
        # a binary combine over this call's value and one pure operand,
        # executed inside the call closure (see the fold comment there).
        if fold is not None:
            fold_combine, fold_pre, fold_post = fold
        else:
            fold_combine = fold_pre = fold_post = None
        if expr.receiver is not None:
            recv_gen, recv_fn = self._compile_expr(expr.receiver, ctx)
        else:
            recv_gen, recv_fn = False, None
        arg_parts = [self._compile_expr(arg, ctx) for arg in expr.args]
        args_pure = not any(is_gen for is_gen, _ in arg_parts)
        pure_arg_fns = tuple(fn for _, fn in arg_parts)
        arg_items = tuple(arg_parts)
        if args_pure:
            arg_ops = ()
        else:
            # One concatenated postfix stream for all arguments: each
            # argument leaves exactly one value, so after running the
            # stream the value stack IS the argument list, evaluated
            # inline in the call-site frame (see _linearize).
            ops_list: list = []
            for arg in expr.args:
                self._linearize(arg, ctx, ops_list)
            arg_ops = tuple(ops_list)
        nargs = len(expr.args)
        method_name = expr.method_name
        location = expr.location

        if expr.is_static:
            static_class = expr.static_class
            try:
                info = self.resolved.class_info(static_class)
                method = info.resolve_method(method_name)
            except MJError:
                method = None
            if method is not None and method.is_static:
                entry = self._entry(method)
                nparams = entry.nparams
                if nargs != nparams:
                    qname, entry_location = entry.qname, entry.location

                    def call_static_arity(frame, thread):
                        if fold_pre is not None:
                            fold_pre(frame)
                        if recv_fn is not None:
                            if recv_gen:
                                yield from recv_fn(frame, thread)
                            else:
                                recv_fn(frame)
                        for is_gen, fn in arg_items:
                            if is_gen:
                                yield from fn(frame, thread)
                            else:
                                fn(frame)
                        raise MJRuntimeError(
                            f"{qname} expects {nparams} argument(s), "
                            f"got {nargs}",
                            entry_location,
                        )

                    return True, call_static_arity
                nslots = entry.nslots

                def call_static(frame, thread):
                    if fold_pre is not None:
                        fold_left = fold_pre(frame)
                    if recv_fn is not None:
                        if recv_gen:
                            yield from recv_fn(frame, thread)
                        else:
                            recv_fn(frame)
                    nframe = [_UNBOUND] * nslots
                    if args_pure:
                        for i, fn in enumerate(pure_arg_fns):
                            nframe[i + 1] = fn(frame)
                    else:
                        values = []
                        append = values.append
                        for op in arg_ops:
                            tag = op[0]
                            if tag == 0:
                                append(op[1](frame))
                            elif tag == 4:
                                right = values.pop()
                                append(op[1](values.pop(), right))
                            elif tag == 1:
                                obj = op[1](frame)
                                yield  # Preemption point before the read.
                                if type(obj) is MJObject and op[2] in obj.fields:
                                    op[3](obj, thread)
                                    append(obj.fields[op[2]])
                                else:
                                    append(op[4](obj, thread))
                            elif tag == 2:
                                array = op[1](frame)
                                index = op[2](frame)
                                yield
                                if (
                                    type(array) is MJArray
                                    and type(index) is int
                                    and 0 <= index < len(array.elements)
                                ):
                                    op[3](array, thread)
                                    append(array.elements[index])
                                else:
                                    append(op[4](array, index))
                            else:
                                append((yield from op[1](frame, thread)))
                        nframe[1 : nparams + 1] = values
                    nframe[0] = None
                    value = yield from run_code(entry.code, nframe, thread)
                    if fold_pre is not None:
                        value = fold_combine(fold_left, value)
                    elif fold_post is not None:
                        value = fold_combine(value, fold_post(frame))
                    if dest is _DEST_VALUE:
                        return value
                    frame[dest] = value

                return True, call_static

            class_info = self.resolved.class_info

            def call_static_missing(frame, thread):
                if fold_pre is not None:
                    fold_pre(frame)
                if recv_fn is not None:
                    if recv_gen:
                        yield from recv_fn(frame, thread)
                    else:
                        recv_fn(frame)
                for is_gen, fn in arg_items:
                    if is_gen:
                        yield from fn(frame, thread)
                    else:
                        fn(frame)
                class_info(static_class)  # Unknown class raises here.
                raise MJRuntimeError(
                    f"no static method {method_name!r} in class "
                    f"{static_class!r}",
                    location,
                )

            return True, call_static_missing

        vtables = self.vtables
        #: Monomorphic inline cache: [last class_info, its entry].  Call
        #: sites are overwhelmingly monomorphic, so an identity check
        #: replaces the per-call name + table lookups.
        cache = [None, None]

        def dispatch_error(receiver):
            if receiver is None:
                raise MJRuntimeError(
                    f"null dereference calling {method_name!r}", location
                )
            if not isinstance(receiver, MJObject):
                raise MJRuntimeError(
                    f"cannot call method {method_name!r} on "
                    f"{mj_repr(receiver)}",
                    location,
                )
            raise MJRuntimeError(
                f"class {receiver.class_info.name!r} has no instance method "
                f"{method_name!r}",
                location,
            )

        def call_virtual(frame, thread):
            if fold_pre is not None:
                fold_left = fold_pre(frame)
            if recv_fn is None:
                receiver = None
            elif recv_gen:
                receiver = yield from recv_fn(frame, thread)
            else:
                receiver = recv_fn(frame)
            if args_pure:
                args = [fn(frame) for fn in pure_arg_fns]
            else:
                args = []
                append = args.append
                for op in arg_ops:
                    tag = op[0]
                    if tag == 0:
                        append(op[1](frame))
                    elif tag == 4:
                        right = args.pop()
                        append(op[1](args.pop(), right))
                    elif tag == 1:
                        obj = op[1](frame)
                        yield  # Preemption point before the read.
                        if type(obj) is MJObject and op[2] in obj.fields:
                            op[3](obj, thread)
                            append(obj.fields[op[2]])
                        else:
                            append(op[4](obj, thread))
                    elif tag == 2:
                        array = op[1](frame)
                        index = op[2](frame)
                        yield
                        if (
                            type(array) is MJArray
                            and type(index) is int
                            and 0 <= index < len(array.elements)
                        ):
                            op[3](array, thread)
                            append(array.elements[index])
                        else:
                            append(op[4](array, index))
                    else:
                        append((yield from op[1](frame, thread)))
            if type(receiver) is MJObject:
                class_info = receiver.class_info
                if class_info is cache[0]:
                    entry = cache[1]
                else:
                    entry = vtables[class_info.name].get(method_name)
                    if entry is not None:
                        cache[0] = class_info
                        cache[1] = entry
                if entry is not None:
                    nparams = entry.nparams
                    if nargs != nparams:
                        raise MJRuntimeError(
                            f"{entry.qname} expects {nparams} argument(s), "
                            f"got {nargs}",
                            entry.location,
                        )
                    nframe = [_UNBOUND] * entry.nslots
                    nframe[0] = receiver
                    if nparams:
                        nframe[1 : nparams + 1] = args
                    value = yield from run_code(entry.code, nframe, thread)
                    if fold_pre is not None:
                        value = fold_combine(fold_left, value)
                    elif fold_post is not None:
                        value = fold_combine(value, fold_post(frame))
                    if dest is _DEST_VALUE:
                        return value
                    frame[dest] = value
                    return
            dispatch_error(receiver)

        return True, call_virtual


# ---------------------------------------------------------------------------
# Binary operator combiners.

#: Fast paths spliced inline when both operands are already ints; the
#: full combiner re-checks and raises for everything else.
_INT_FAST_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _binary_combiner(op: str, location):
    """A closure implementing one binary operator on evaluated operands,
    bit-for-bit compatible with ``Interpreter._eval_binary``."""
    if op == "==":

        def combine(left, right):
            if isinstance(left, Reference) or isinstance(right, Reference):
                return left is right
            return left == right

        return combine
    if op == "!=":

        def combine(left, right):
            if isinstance(left, Reference) or isinstance(right, Reference):
                return left is not right
            return not (left == right)

        return combine

    def type_error(left, right):
        raise MJRuntimeError(
            f"operator {op!r} requires integers, got "
            f"{mj_repr(left)} and {mj_repr(right)}",
            location,
        )

    def ints_only(left, right):
        for operand in (left, right):
            if not isinstance(operand, int) or isinstance(operand, bool):
                type_error(left, right)

    if op == "+":

        def combine(left, right):
            if isinstance(left, str):
                return left + mj_repr(right)
            if isinstance(right, str):
                return mj_repr(left) + right
            if type(left) is int and type(right) is int:
                return left + right
            ints_only(left, right)
            return left + right

        return combine
    if op == "-":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left - right
            ints_only(left, right)
            return left - right

        return combine
    if op == "*":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left * right
            ints_only(left, right)
            return left * right

        return combine
    if op == "/":

        def combine(left, right):
            if not (type(left) is int and type(right) is int):
                ints_only(left, right)
            if right == 0:
                raise MJRuntimeError("division by zero", location)
            return int(left / right)  # Truncating, like Java.

        return combine
    if op == "%":

        def combine(left, right):
            if not (type(left) is int and type(right) is int):
                ints_only(left, right)
            if right == 0:
                raise MJRuntimeError("modulo by zero", location)
            return left - int(left / right) * right

        return combine
    if op == "<":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left < right
            ints_only(left, right)
            return left < right

        return combine
    if op == "<=":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left <= right
            ints_only(left, right)
            return left <= right

        return combine
    if op == ">":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left > right
            ints_only(left, right)
            return left > right

        return combine
    if op == ">=":

        def combine(left, right):
            if type(left) is int and type(right) is int:
                return left >= right
            ints_only(left, right)
            return left >= right

        return combine

    def combine(left, right):
        raise MJRuntimeError(f"unknown operator {op!r}", location)

    return combine
