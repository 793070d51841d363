"""AST → generated Python source: the MJ compilation backend.

The tree-walking interpreter (:mod:`repro.runtime.interpreter`) pays a
per-*execution* price for work that is a pure function of the program
text: node-type dispatch, local-variable dict probes, method resolution,
operator decoding, and the per-access decision of whether a site is
traced.  This module pays those costs once, by writing every MJ method
as one Python generator function and letting CPython compile the lot:

* MJ locals are Python locals (``v<slot>``; slot 0 is ``this``).  A
  local that may be read before its first assignment starts as the
  :data:`_UNBOUND` sentinel and each such read checks for it, so the
  AST interpreter's "unbound variable" error survives; reads that a
  definite-assignment pass proves bound skip the check.
* ``if`` and ``while`` are Python control flow; ``sync`` is an inline
  ``try``/``finally``; ``return`` is a Python ``return``.
* A call is inline dispatch — a static call names its callee, a
  virtual call probes a monomorphic per-site cache (class, callee)
  whose miss path resolves the method and checks the arity — plus one
  ``yield from`` of the callee's function, so an activation costs one
  generator frame.  The call passes its depth, and the callee raises
  the interpreter's error past ``MAX_CALL_DEPTH``.
* Operators run inline on ints, with the interpreter's error path
  behind a type test; a flow-insensitive pass types the locals that
  only ever hold ints or booleans, which drops the tests on them.
* A site outside the instrumentation plan is one counter increment in
  the generated code (Section 6.1's omitted ``trace``); a traced site
  calls its statically specialized trace stub (:meth:`_record_stub`).

Scheduling parity is the load-bearing invariant.  The scheduler charges
one step per ``yield`` reaching it, and the generated code yields at
exactly the AST interpreter's preemption points: before each memory
access (after its operands are evaluated), at monitor acquisition,
thread start/join/wait/barrier, and loop back-edges.  Operands are
evaluated left to right into temporaries, so errors, allocations and
events keep the interpreter's order.  The result: identical scheduler
decision sequences and byte-identical event streams.

The source text never contains text from the MJ program.  Names are
slot, temporary, constant or function numbers; field names, string
literals, source locations, class descriptors, call-site caches, trace
stubs and the engine's kernels are *bound constants*: parameters of one
generated factory per program (``make``), the engine's state under the
fixed names of :data:`_ENGINE_PARAMS` and the rest as ``c<n>``.  The
engine calls the factory with its own values, so the text is a pure
function of the program's shape, its instrumentation plan and whether a
sink is attached, and :func:`_factory` compiles each distinct text once
per process in a bounded cache.

CPython caps a function at 20 statically nested blocks and the
tokenizer at 100 indentation levels.  A statement list or short-circuit
operand that would nest deeper than :data:`_MAX_LEVEL` /
:data:`_MAX_BLOCKS` moves into a helper generator function defined at
the top of its method (MJ locals reach it as closure cells); a helper
returns :data:`_FELL_THROUGH` unless an MJ ``return`` ran inside it.
"""

from __future__ import annotations

import builtins

from ..lang import ast
from ..lang.errors import MJAssertionError, MJError, MJRuntimeError
from ..lang.resolver import ARRAY_FIELD
from .interpreter import MAX_CALL_DEPTH, call_depth_error
from .scheduler import ThreadStatus
from .values import MJArray, MJClassObject, MJObject, Reference, mj_repr

#: Value of an MJ local before its first assignment.
_UNBOUND = object()

#: Returned by a statement helper whose statements ran to the end (as
#: opposed to an MJ ``return`` inside them).
_FELL_THROUGH = object()

#: Indentation level at which a nested statement list or short-circuit
#: operand moves into a helper function.  One statement adds at most a
#: few levels of its own, far inside CPython's limit of 100.
_MAX_LEVEL = 48

#: Enclosing ``while``/``try`` blocks at which a nested statement list
#: moves into a helper function (CPython allows 20).
_MAX_BLOCKS = 14

#: Distinct generated texts whose compiled factories stay cached.
_CACHE_SIZE = 32

#: Int literals rendered into the text; larger ones are bound constants.
_INLINE_INT = 1 << 62

# Static types the code generator tracks: int, bool, or unknown (None);
# _TOP only exists while typing locals (no assignment seen yet).
_INT = "i"
_BOOL = "b"
_OBJECT = "o"
_TOP = "?"

_COMPARISONS = frozenset(("<", "<=", ">", ">="))
_INT_RESULTS = frozenset(("-", "*", "/", "%"))

#: The engine state every factory takes before its per-program constants.
_ENGINE_PARAMS = (
    "CN",  # [accesses_executed, accesses_emitted]
    "OUT",  # output.append
    "CO",  # class name -> class object (allocates on first use)
    "SO",  # the unresolved static access: raises the interpreter's error
    "LS",  # thread id -> lexical monitor stack
    "ENTER",  # sink.on_monitor_enter
    "EXIT",  # sink.on_monitor_exit
    "UIDS",  # the uid allocator
    "KSTART",
    "KJOIN",
    "KWAIT",
    "KNOTIFY",
    "KBARRIER",
)


# ---------------------------------------------------------------------------
# Runtime helpers the generated code calls: error and slow paths.  Each
# raises (or computes) exactly what Interpreter does for the same case.


def _unbound(site):
    name, location = site
    raise MJRuntimeError(f"unbound variable {name!r}", location)


def _condition_error(value, location):
    raise MJRuntimeError(
        f"condition must be a boolean, got {mj_repr(value)}", location
    )


def _not_error(value, location):
    raise MJRuntimeError("'!' requires a boolean", location)


def _neg_error(value, location):
    raise MJRuntimeError("unary '-' requires an integer", location)


def _unary_unknown(site):
    op, location = site
    raise MJRuntimeError(f"unknown unary operator {op!r}", location)


def _operator_unknown(site):
    op, location = site
    raise MJRuntimeError(f"unknown operator {op!r}", location)


def _ints_only(op, left, right, location):
    for operand in (left, right):
        if not isinstance(operand, int) or isinstance(operand, bool):
            raise MJRuntimeError(
                f"operator {op!r} requires integers, got "
                f"{mj_repr(left)} and {mj_repr(right)}",
                location,
            )


def _add(left, right, location):
    if isinstance(left, str):
        return left + mj_repr(right)
    if isinstance(right, str):
        return mj_repr(left) + right
    _ints_only("+", left, right, location)
    return left + right


def _int_operator(op):
    """The slow path of an int-only operator: its operands are not both
    ints, or (``/``, ``%``) the divisor is zero.  It always raises."""

    def slow(left, right, location):
        _ints_only(op, left, right, location)
        # Two ints reach here only as / or % with a zero divisor.
        word = "division" if op == "/" else "modulo"
        raise MJRuntimeError(f"{word} by zero", location)

    return slow


#: operator -> (inline Python operator, slow-path helper name).
_ARITH = {
    "+": ("+", "ADD"),
    "-": ("-", "SUB"),
    "*": ("*", "MUL"),
    "<": ("<", "LT"),
    "<=": ("<=", "LE"),
    ">": (">", "GT"),
    ">=": (">=", "GE"),
}


def _read_field_slow(obj, thread, site):
    field_name, record, location = site
    if obj is None:
        raise MJRuntimeError(
            f"null dereference reading field {field_name!r}", location
        )
    if isinstance(obj, MJArray):
        if field_name == "length":
            # Array length is immutable: not an access event.
            return len(obj)
        raise MJRuntimeError(f"arrays have no field {field_name!r}", location)
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
            f"cannot read field {field_name!r} of {mj_repr(obj)}", location
        )
    raise MJRuntimeError(
        f"class {obj.class_info.name!r} has no field {field_name!r}", location
    )


def _write_field_slow(obj, value, thread, site):
    field_name, record, location = site
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
            f"cannot write field {field_name!r} of {mj_repr(obj)}", location
        )
    raise MJRuntimeError(
        f"class {obj.class_info.name!r} has no field {field_name!r}", location
    )


def _array_error(verb):
    def fail(array, index, location):
        if array is None:
            raise MJRuntimeError(f"null dereference in array {verb}", location)
        if not isinstance(array, MJArray):
            raise MJRuntimeError(
                f"array {verb} applied to {mj_repr(array)}", location
            )
        if not isinstance(index, int) or isinstance(index, bool):
            raise MJRuntimeError("array index must be an integer", location)
        raise MJRuntimeError(
            f"array index {index} out of bounds [0, {len(array)})", location
        )

    return fail


def _new_array_error(size, location):
    raise MJRuntimeError("array size must be a non-negative integer", location)


def _new_unknown(site):
    class_info, class_name, location = site
    class_info(class_name)  # Raises the resolver's error.
    raise MJRuntimeError(f"unknown class {class_name!r}", location)


def _new_without_init(site):
    class_name, location = site
    raise MJRuntimeError(
        f"class {class_name!r} has no 'init' method but 'new' was given "
        f"arguments",
        location,
    )


def _arity_error(entry, nargs):
    raise MJRuntimeError(
        f"{entry.qname} expects {entry.nparams} argument(s), got {nargs}",
        entry.location,
    )


def _static_missing(site):
    class_info, class_name, method_name, location = site
    class_info(class_name)  # An unknown class raises here.
    raise MJRuntimeError(
        f"no static method {method_name!r} in class {class_name!r}", location
    )


def _dispatch(receiver, cell, site):
    """A virtual call's cache miss: resolve the callee (raising the
    interpreter's dispatch or arity error), cache it, return it."""
    method_name, nargs, location, vtables = site
    if type(receiver) is MJObject:
        info = receiver.class_info
        entry = vtables[info.name].get(method_name)
        if entry is not None:
            if entry.nparams != nargs:
                _arity_error(entry, nargs)
            cell[0] = info
            cell[1] = entry.fn
            return entry.fn
    if receiver is None:
        raise MJRuntimeError(
            f"null dereference calling {method_name!r}", location
        )
    if not isinstance(receiver, MJObject):
        raise MJRuntimeError(
            f"cannot call method {method_name!r} on {mj_repr(receiver)}",
            location,
        )
    raise MJRuntimeError(
        f"class {receiver.class_info.name!r} has no instance method "
        f"{method_name!r}",
        location,
    )


def _sync_error(lock, location):
    raise MJRuntimeError(f"sync requires an object, got {mj_repr(lock)}", location)


def _barrier_error(obj, location):
    raise MJRuntimeError(
        f"barrier requires an object, got {mj_repr(obj)}", location
    )


def _assert_failed(location):
    raise MJAssertionError("assertion failed", location)


def _unhandled(site):
    what, location = site
    raise MJRuntimeError(f"unhandled {what}", location)


#: The generated module's globals.
_GLOBALS = {
    "__builtins__": builtins,
    "O": MJObject,
    "A": MJArray,
    "R": Reference,
    "U": _UNBOUND,
    "NR": _FELL_THROUGH,
    "BLOCKED": ThreadStatus.BLOCKED,
    "MR": mj_repr,
    "UB": _unbound,
    "CE": _condition_error,
    "NOT": _not_error,
    "NEG": _neg_error,
    "UNOP": _unary_unknown,
    "BADOP": _operator_unknown,
    "ADD": _add,
    "SUB": _int_operator("-"),
    "MUL": _int_operator("*"),
    "DIV": _int_operator("/"),
    "MOD": _int_operator("%"),
    "LT": _int_operator("<"),
    "LE": _int_operator("<="),
    "GT": _int_operator(">"),
    "GE": _int_operator(">="),
    "FR": _read_field_slow,
    "FW": _write_field_slow,
    "AR": _array_error("read"),
    "AW": _array_error("write"),
    "NAE": _new_array_error,
    "NEWU": _new_unknown,
    "NEWA": _new_without_init,
    "ARITY": _arity_error,
    "SMISS": _static_missing,
    "DISPATCH": _dispatch,
    "SYE": _sync_error,
    "BAE": _barrier_error,
    "AF": _assert_failed,
    "UNH": _unhandled,
    "DEEP": call_depth_error,
}

#: text -> compiled factory, least recently used first.
_FACTORIES: dict = {}


def _factory(text: str):
    """The factory ``make`` defined by ``text``, compiled at most once
    per process while it stays among the :data:`_CACHE_SIZE` most
    recently used texts."""
    make = _FACTORIES.pop(text, None)
    if make is None:
        namespace = dict(_GLOBALS)
        exec(compile(text, "<mj-generated>", "exec"), namespace)
        make = namespace["make"]
        while len(_FACTORIES) >= _CACHE_SIZE:
            del _FACTORIES[next(iter(_FACTORIES))]
    _FACTORIES[text] = make
    return make


class MethodEntry:
    """Everything a call site or thread start needs to enter a method."""

    __slots__ = ("index", "nparams", "fn", "qname", "location")

    def __init__(self, index, nparams, qname, location):
        #: The method's function is ``m<index>`` in the generated text.
        self.index = index
        self.nparams = nparams
        #: The generated generator function ``fn(thread, depth, this,
        #: *args)``, bound once the factory has run; ``depth`` is the
        #: activation's call depth (1 for a thread's entry method).
        self.fn = None
        self.qname = qname
        self.location = location


class CompiledProgram:
    """The output of compilation: entry point + per-class method tables."""

    __slots__ = ("main_entry", "vtables", "text")

    def __init__(self, main_entry, vtables, text):
        #: ``Main.main`` — the compiled engine runs it as the main
        #: thread's body.
        self.main_entry = main_entry
        #: class name -> {method name -> MethodEntry} for instance
        #: dispatch; statics are deliberately absent (calling one
        #: through an instance raises like the interpreter).
        self.vtables = vtables
        #: The generated source (the factory cache's key).
        self.text = text


def _collect_slots(method: ast.MethodDecl) -> dict:
    """Assign a slot to every name the method can bind.

    Slot 0 is ``this``; parameters take 1..n in order; every
    ``var``-declared or assigned name after that.  MJ locals are
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


def _local_types(method: ast.MethodDecl, slots: dict, nparams: int) -> dict:
    """slot -> _INT / _BOOL for the non-parameter locals that only ever
    hold one of those types (a greatest fixpoint over assignments:
    ``j = j + 1`` keeps ``j`` an int).  A read before the first
    assignment raises, so it never observes another type."""
    assignments = []
    for node in method.body.walk():
        node_type = type(node)
        if node_type is ast.VarDecl:
            assignments.append((slots[node.name], node.init))
        elif node_type is ast.AssignLocal:
            assignments.append((slots[node.name], node.value))
    types = {slot: _TOP for slot, _ in assignments if slot > nparams}

    def type_of(expr):
        node_type = type(expr)
        if node_type is ast.IntLiteral:
            return _INT
        if node_type is ast.BoolLiteral:
            return _BOOL
        if node_type is ast.VarRef:
            return types.get(slots.get(expr.name))
        if node_type is ast.Unary:
            return _BOOL if expr.op == "!" else _INT if expr.op == "-" else None
        if node_type is ast.Binary:
            op = expr.op
            if op in _INT_RESULTS:
                return _INT
            if op == "+":
                left, right = type_of(expr.left), type_of(expr.right)
                if left is None or right is None:
                    return None
                if left == _TOP or right == _TOP:
                    return _TOP if _BOOL not in (left, right) else None
                return _INT if left == right == _INT else None
            if op in _COMPARISONS or op in ("==", "!=", "&&", "||"):
                return _BOOL
        return None

    changed = True
    while changed:
        changed = False
        for slot, expr in assignments:
            current = types.get(slot)
            if current is None:
                continue
            found = type_of(expr)
            if found == _TOP or found == current:
                continue
            types[slot] = found if current == _TOP else None
            changed = True
    return {slot: kind for slot, kind in types.items() if kind in (_INT, _BOOL)}


class _Code:
    """The lines of one generated function under construction."""

    __slots__ = ("lines", "level", "blocks", "yields")

    def __init__(self, level):
        self.lines: list = []
        #: Indentation level of the next emitted line.
        self.level = level
        #: Enclosing while/try blocks at the next emitted line.
        self.blocks = 0
        #: Whether a yield was emitted (a function without one is made
        #: a generator by an unreachable trailing yield).
        self.yields = False

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.level + line)


class ProgramCompiler:
    """Generates, compiles and binds one program for one engine.

    Generation closes over the engine's runtime state (uid allocator,
    sink, label cache, counters) only through the factory's arguments,
    so the text can be shared; the bound functions are engine-private.
    """

    def __init__(self, engine):
        self.engine = engine
        self.resolved = engine._resolved
        #: id(MethodDecl) -> MethodEntry (created before body generation).
        self._entries: dict = {}
        self._pending: list = []
        #: class name -> {method name -> MethodEntry}; filled at the end,
        #: read by the dispatch miss path at run time.
        self.vtables: dict = {}
        self._consts: list = []
        self._shared: dict = {}
        self._functions: list = []
        sink = engine._sink
        counts = engine._counts

        def count(ref, thread):
            counts[0] += 1

        #: The record callable of every untraced site's slow path.
        self.count = count
        self._engine_args = (
            counts,
            engine.output.append,
            engine._class_object,
            engine._static_owner_object,
            engine._lock_stacks,
            sink.on_monitor_enter if sink is not None else None,
            sink.on_monitor_exit if sink is not None else None,
            engine._uids,
            engine._start_kernel,
            engine._join_kernel,
            engine._wait_kernel,
            engine._notify_kernel,
            engine._barrier_kernel,
        )

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
        entries = sorted(self._entries.values(), key=lambda entry: entry.index)
        params = ", ".join(
            _ENGINE_PARAMS + tuple(f"c{i}" for i in range(len(self._consts)))
        )
        names = "".join(f"m{entry.index}, " for entry in entries)
        text = "\n".join(
            [f"def make({params}):"]
            + self._functions
            + [f"    return ({names})", ""]
        )
        functions = _factory(text)(*self._engine_args, *self._consts)
        for entry, fn in zip(entries, functions):
            entry.fn = fn
        return CompiledProgram(main_entry, self.vtables, text)

    def _drain(self) -> None:
        while self._pending:
            method, entry = self._pending.pop(0)
            self._functions.extend(_MethodWriter(self, method, entry).write())

    def _entry(self, method: ast.MethodDecl) -> MethodEntry:
        key = id(method)
        entry = self._entries.get(key)
        if entry is None:
            entry = MethodEntry(
                index=len(self._entries),
                nparams=len(method.params),
                qname=method.qualified_name,
                location=method.location,
            )
            self._entries[key] = entry
            self._pending.append((method, entry))
        return entry

    # ------------------------------------------------------------------
    # Bound constants.

    def const(self, value) -> str:
        """A fresh factory parameter bound to ``value``."""
        self._consts.append(value)
        return f"c{len(self._consts) - 1}"

    def shared(self, key, value) -> str:
        """One factory parameter per distinct hashable ``key``."""
        name = self._shared.get(key)
        if name is None:
            name = self._shared[key] = self.const(value)
        return name

    # ------------------------------------------------------------------
    # Trace stubs.

    def _record_stub(self, site_id, kind: ast.AccessKind, field_name: str):
        """The statically specialized instrumentation stub for one site,
        or ``None`` for an untraced site (outside the static race set,
        or no sink attached), whose generated code only counts the
        access — the analogue of the instrumenter omitting the
        ``trace`` pseudo-instruction.

        With a :class:`~repro.detector.pipeline.RaceDetector` sink that
        has ownership and a single-probe cache on, a traced site
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
            return None

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

        # The detector's dominant outcomes inlined.  The record lookup
        # mirrors on_access_parts' (the field's table is bound here, so
        # an access costs one get), the owner check mirrors its inlined
        # OwnershipFilter.admit, and the cache probe mirrors
        # AccessCache.access_tracked's hit path (which mutates nothing
        # but the hit counter).  A completed branch performs the
        # spine's *state* effect (the virgin claim) inline and defers
        # its *counter* effects to one list-cell increment, folded back
        # by InlineFastPath.fold at run end.  Transitions and cache
        # misses fall through to the unmodified spine call, which finds
        # the same record and counts everything itself — the fast path
        # must not touch any state but the record's creation before
        # falling through.
        table = fast.location_table(field_name)
        make_record = fast.location_record
        merged = fast.fields_merged
        merged_table = fast.location_table(None)
        shared = fast.shared
        cache_threads = fast.cache_threads
        is_write = kind is ast.AccessKind.WRITE
        owned_cell = fast.owned_cell
        hit_cell = fast.hit_cell

        def record(ref, thread):
            counts[0] += 1
            uid = ref.uid
            if merged and type(ref) is not MJClassObject:
                location = merged_table.get(uid)
                if location is None:
                    location = make_record(uid, None)
            else:
                location = table.get(uid)
                if location is None:
                    location = make_record(uid, field_name)
            tid = thread.thread_id
            owner = location.owner
            if owner is shared:
                caches = cache_threads.get(tid)
                if caches is not None:
                    slots = (caches.write if is_write else caches.read)._slots
                    if slots[location.slot] is location.key:
                        hit_cell[0] += 1
                        return
            elif owner is None:
                location.owner = tid
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


class _MethodWriter:
    """Writes one MJ method as the generator function
    ``m<index>(th, d, v0, v1, ..., vn)``: ``th`` is the running thread,
    ``d`` the activation's call depth (checked against
    :data:`~repro.runtime.interpreter.MAX_CALL_DEPTH`), ``v0`` the
    receiver (``None`` in a static method), ``v1..vn`` the arguments.

    Expression methods return ``(code, atomic, static_type)``.  A
    non-atomic ``code`` must be consumed by the very next emitted line
    (or stored into a temporary first), so that everything evaluates in
    the interpreter's order; an atomic one (a name or literal) may be
    read any number of times.
    """

    def __init__(self, compiler: ProgramCompiler, method, entry):
        self.compiler = compiler
        self.const = compiler.const
        self.shared = compiler.shared
        self.resolved = compiler.resolved
        self.method = method
        self.entry = entry
        self.slots = _collect_slots(method)
        self.nparams = len(method.params)
        #: v0 .. v<nslots - 1>: this, the parameters, the locals.
        self.nslots = max(self.slots.values(), default=0) + 1
        self.types = _local_types(method, self.slots, self.nparams)
        #: Slots surely bound at the current point (definite assignment).
        self.assigned = set(range(self.nparams + 1))
        #: Slots read where they may still be unbound.
        self.needs_init: set = set()
        self.temps = 0
        self.helpers: list = []
        self.code = _Code(2)
        self.has_sink = compiler.engine._sink is not None
        #: An instance method's receiver is always an MJObject (dispatch,
        #: ``new`` and ``start`` only ever pass one).
        self.this_type = None if method.is_static else _OBJECT

    # ------------------------------------------------------------------
    # Assembly.

    def write(self) -> list:
        body = self.code
        for stmt in self.method.body.body:
            self.stmt(stmt)
        self._close(body, "return None")
        params = ", ".join(f"v{i}" for i in range(self.nparams + 1))
        name = self.const(self.method.qualified_name)
        location = self.const(self.method.location)
        lines = [
            f"    def m{self.entry.index}(th, d, {params}):",
            f"        if d > {MAX_CALL_DEPTH}: DEEP({name}, {location})",
        ]
        locals_ = range(self.nparams + 1, self.nslots)
        if self.helpers:
            init = [f"v{slot}" for slot in locals_]
        else:
            init = [f"v{slot}" for slot in locals_ if slot in self.needs_init]
        if init:
            lines.append("        " + " = ".join(init) + " = U")
        for name, helper in self.helpers:
            lines.append(f"        def {name}():")
            lines.extend(helper.lines)
        lines.extend(body.lines)
        return lines

    @staticmethod
    def _close(code: _Code, final: str) -> None:
        code.emit(final)
        if not code.yields:
            code.emit("yield  # Unreachable: makes the function a generator.")

    def temp(self) -> str:
        self.temps += 1
        return f"x{self.temps}"

    def _deep(self) -> bool:
        code = self.code
        return code.level >= _MAX_LEVEL or code.blocks >= _MAX_BLOCKS

    def _helper(self, fill) -> str:
        """A new helper function defined at the top of this method; its
        body is whatever ``fill(code)`` emits.  Returns its name."""
        name = f"h{len(self.helpers) + 1}"
        helper = _Code(3)
        self.helpers.append((name, helper))
        slots = ", ".join(f"v{slot}" for slot in range(self.nslots))
        helper.emit(f"nonlocal {slots}")
        outer = self.code
        self.code = helper
        try:
            fill(helper)
        finally:
            self.code = outer
        return name

    # ------------------------------------------------------------------
    # Statements.

    def block(self, stmts: list) -> None:
        """A nested statement list, one level in (a helper if deep)."""
        code = self.code
        code.level += 1
        if self._deep():

            def fill(helper):
                for stmt in stmts:
                    self.stmt(stmt)
                self._close(helper, "return NR")

            name = self._helper(fill)
            result = self.temp()
            code.emit(f"{result} = yield from {name}()")
            code.emit(f"if {result} is not NR:")
            code.emit(f"    return {result}")
            code.yields = True
        else:
            mark = len(code.lines)
            for stmt in stmts:
                self.stmt(stmt)
            if len(code.lines) == mark:
                code.emit("pass")
        code.level -= 1

    def stmt(self, stmt) -> None:
        node_type = type(stmt)
        emit = self.code.emit
        if node_type is ast.AssignLocal or node_type is ast.VarDecl:
            value = stmt.value if node_type is ast.AssignLocal else stmt.init
            code, _, _ = self.expr(value)
            slot = self.slots[stmt.name]
            emit(f"v{slot} = {code}")
            self.assigned.add(slot)
        elif node_type is ast.If:
            cond = self.condition(stmt.cond)
            before = set(self.assigned)
            emit(f"if {cond}:")
            self.block(stmt.then_block.body)
            then_assigned = self.assigned
            self.assigned = set(before)
            if stmt.else_block is not None:
                emit("else:")
                self.block(stmt.else_block.body)
            self.assigned &= then_assigned
        elif node_type is ast.While:
            self.while_(stmt)
        elif node_type is ast.FieldWrite:
            self.field_write(stmt)
        elif node_type is ast.ArrayWrite:
            self.array_write(stmt)
        elif node_type is ast.ExprStmt:
            code, atomic, _ = self.expr(stmt.expr)
            if not atomic:
                emit(code)
        elif node_type is ast.Return:
            if stmt.value is None:
                emit("return None")
            else:
                code, _, _ = self.expr(stmt.value)
                emit(f"return {code}")
        elif node_type is ast.StaticFieldWrite:
            self.static_write(stmt)
        elif node_type is ast.Sync:
            self.sync(stmt)
        elif node_type is ast.Block:
            for inner in stmt.body:
                self.stmt(inner)
        elif node_type is ast.Print:
            code, _, _ = self.expr(stmt.value)
            emit(f"OUT(MR({code}))")
        elif node_type is ast.Assert:
            cond = self.condition(stmt.cond)
            emit(f"if not ({cond}):")
            emit(f"    AF({self.const(stmt.location)})")
        elif node_type is ast.Start:
            self.kernel("KSTART", stmt.thread, stmt.location)
        elif node_type is ast.Join:
            self.kernel("KJOIN", stmt.thread, stmt.location)
        elif node_type is ast.Wait:
            self.kernel("KWAIT", stmt.target, stmt.location)
        elif node_type is ast.Notify:
            target = self.atom(stmt.target)
            emit(
                f"KNOTIFY({target}, th, {stmt.notify_all is True}, "
                f"{self.const(stmt.location)})"
            )
        elif node_type is ast.Barrier:
            target = self.atom(stmt.target)
            location = self.const(stmt.location)
            # The target check precedes the parties evaluation, as the
            # interpreter orders them.
            emit(f"if not isinstance({target}, R):")
            emit(f"    BAE({target}, {location})")
            parties = self.atom(stmt.parties)
            emit(
                f"yield from KBARRIER({target}, {parties}, th, {location})"
            )
            self.code.yields = True
        else:
            site = self.const((f"statement {node_type.__name__}", stmt.location))
            emit(f"UNH({site})")

    def kernel(self, kernel: str, operand, location) -> None:
        """start/join/wait: one operand, then an engine kernel."""
        obj = self.atom(operand)
        self.code.emit(f"yield from {kernel}({obj}, th, {self.const(location)})")
        self.code.yields = True

    def condition(self, expr) -> str:
        """Code for ``expr`` checked to be a boolean, as conditions and
        short-circuit operands are."""
        code, atomic, kind = self.expr(expr)
        if kind == _BOOL:
            return code
        if not atomic:
            code = self.store(code)
        self.code.emit(f"if type({code}) is not bool:")
        self.code.emit(f"    CE({code}, {self.const(expr.location)})")
        return code

    def while_(self, stmt: ast.While) -> None:
        code = self.code
        header = len(code.lines)
        code.emit("while True:")
        code.level += 1
        code.blocks += 1
        before = set(self.assigned)
        cond = self.condition(stmt.cond)
        if len(code.lines) == header + 1:
            # The condition needs no statements: test it in the header.
            code.lines[header] = "    " * (code.level - 1) + f"while {cond}:"
        else:
            code.emit(f"if not ({cond}):")
            code.emit("    break")
        code.level -= 1
        self.block(stmt.body.body)
        code.level += 1
        code.emit("yield  # Loop back-edge preemption point.")
        code.yields = True
        code.level -= 1
        code.blocks -= 1
        self.assigned = before

    def record(self, site_id, kind, field_name, ref: str):
        """The line recording one access to ``ref``, and the site's
        record callable for the slow paths."""
        stub = self.compiler._record_stub(site_id, kind, field_name)
        if stub is None:
            return "CN[0] += 1", self.compiler.count
        return f"{self.const(stub)}({ref}, th)", stub

    def field_write(self, stmt: ast.FieldWrite) -> None:
        obj, obj_type = self.atom_typed(stmt.obj)
        value = self.atom(stmt.value)
        field = self.shared(("str", stmt.field_name), stmt.field_name)
        line, stub = self.record(
            stmt.site_id, ast.AccessKind.WRITE, stmt.field_name, obj
        )
        site = self.const((stmt.field_name, stub, stmt.location))
        emit = self.code.emit
        emit("yield  # Preemption point before the write.")
        self.code.yields = True
        test = f"{field} in {obj}.fields"
        if obj_type != _OBJECT:
            test = f"type({obj}) is O and {test}"
        emit(f"if {test}:")
        emit(f"    {line}")
        emit(f"    {obj}.fields[{field}] = {value}")
        emit("else:")
        emit(f"    FW({obj}, {value}, th, {site})")

    def array_write(self, stmt: ast.ArrayWrite) -> None:
        array = self.atom(stmt.array)
        index, index_type = self.atom_typed(stmt.index)
        value = self.atom(stmt.value)
        line, _ = self.record(stmt.site_id, ast.AccessKind.WRITE, ARRAY_FIELD, array)
        emit = self.code.emit
        emit("yield  # Preemption point before the write.")
        self.code.yields = True
        emit(f"if {self.in_bounds(array, index, index_type)}:")
        emit(f"    {line}")
        emit(f"    {array}.elements[{index}] = {value}")
        emit("else:")
        emit(f"    AW({array}, {index}, {self.const(stmt.location)})")

    @staticmethod
    def in_bounds(array: str, index: str, index_type) -> str:
        test = f"type({array}) is A and "
        if index_type != _INT:
            test += f"type({index}) is int and "
        return test + f"0 <= {index} < len({array}.elements)"

    def static_write(self, stmt: ast.StaticFieldWrite) -> None:
        value = self.atom(stmt.value)
        owner = _static_owner(self.resolved, stmt.class_name, stmt.field_name)
        emit = self.code.emit
        if owner is None:
            names = self.const((stmt.class_name, stmt.field_name, stmt.location))
            emit(f"SO(*{names})")
            return
        obj = self.temp()
        owner_name = self.shared(("str", owner.name), owner.name)
        field = self.shared(("str", stmt.field_name), stmt.field_name)
        emit(f"{obj} = CO({owner_name})")
        line, _ = self.record(
            stmt.site_id, ast.AccessKind.WRITE, stmt.field_name, obj
        )
        emit("yield  # Preemption point before the write.")
        self.code.yields = True
        emit(line)
        emit(f"{obj}.statics[{field}] = {value}")

    def sync(self, stmt: ast.Sync) -> None:
        code, _, _ = self.expr(stmt.lock)
        lock = self.store(code)  # Fixed even if the body reassigns a local.
        monitor = self.temp()
        stack = self.temp()
        emit = self.code.emit
        emit(f"if not isinstance({lock}, R):")
        emit(f"    SYE({lock}, {self.const(stmt.location)})")
        emit(f"{monitor} = {lock}.monitor")
        emit(f"while not {monitor}.can_acquire(th.thread_id):")
        emit("    th.status = BLOCKED")
        emit(f"    th.blocked_on = {monitor}")
        emit("    yield")
        self.code.yields = True
        acquire = f"{monitor}.acquire(th.thread_id)"
        if self.has_sink:
            emit(f"ENTER(th.thread_id, {lock}.uid, reentrant=not {acquire})")
        else:
            emit(acquire)
        emit(f"{stack} = LS.setdefault(th.thread_id, [])")
        emit(f"{stack}.append({lock}.uid)")
        emit("try:")
        self.code.blocks += 1
        self.block(stmt.body.body)
        self.code.blocks -= 1
        emit("finally:")
        emit(f"    {stack}.pop()")
        # A thread torn down mid-wait already released the monitor;
        # only release when actually held.
        emit(f"    if {monitor}.owner == th.thread_id:")
        release = f"{monitor}.release(th.thread_id)"
        if self.has_sink:
            emit(f"        EXIT(th.thread_id, {lock}.uid, reentrant=not {release})")
        else:
            emit(f"        {release}")

    # ------------------------------------------------------------------
    # Expressions.

    def store(self, code: str) -> str:
        name = self.temp()
        self.code.emit(f"{name} = {code}")
        return name

    def atom(self, expr) -> str:
        return self.atom_typed(expr)[0]

    def atom_typed(self, expr):
        code, atomic, kind = self.expr(expr)
        if not atomic:
            code = self.store(code)
        return code, kind

    def expr(self, expr):
        node_type = type(expr)
        if node_type is ast.VarRef:
            slot = self.slots.get(expr.name)
            if slot is None:
                # Never assigned anywhere in the method: always unbound.
                site = self.const((expr.name, expr.location))
                self.code.emit(f"UB({site})")
                return "None", True, None
            if slot not in self.assigned:
                self.needs_init.add(slot)
                site = self.const((expr.name, expr.location))
                self.code.emit(f"if v{slot} is U:")
                self.code.emit(f"    UB({site})")
            return f"v{slot}", True, self.types.get(slot)
        if node_type is ast.Binary:
            if expr.op == "&&" or expr.op == "||":
                return self.shortcircuit(expr)
            return self.binary(expr)
        if node_type is ast.FieldRead:
            return self.field_read(expr)
        if node_type is ast.ArrayRead:
            return self.array_read(expr)
        if node_type is ast.IntLiteral:
            value = expr.value
            if -_INLINE_INT < value < _INLINE_INT:
                return repr(value), True, _INT
            return self.const(value), True, _INT
        if node_type is ast.BoolLiteral:
            return repr(expr.value is True), True, _BOOL
        if node_type is ast.ThisRef:
            return "v0", True, self.this_type
        if node_type is ast.Call:
            return self.call(expr)
        if node_type is ast.StringLiteral:
            return self.shared(("str", expr.value), expr.value), True, None
        if node_type is ast.NullLiteral:
            return "None", True, None
        if node_type is ast.ClassRef:
            name = self.shared(("str", expr.class_name), expr.class_name)
            return f"CO({name})", False, None
        if node_type is ast.Unary:
            return self.unary(expr)
        if node_type is ast.StaticFieldRead:
            return self.static_read(expr)
        if node_type is ast.New:
            return self.new(expr)
        if node_type is ast.NewArray:
            size, kind = self.atom_typed(expr.size)
            test = f"{size} >= 0" if kind == _INT else (
                f"type({size}) is int and {size} >= 0"
            )
            alloc = self.const(expr.alloc_id)
            location = self.const(expr.location)
            return (
                f"A(UIDS, {size}, {alloc}) if {test} else NAE({size}, {location})",
                False,
                None,
            )
        site = self.const((f"expression {node_type.__name__}", expr.location))
        self.code.emit(f"UNH({site})")
        return "None", True, None

    def unary(self, expr: ast.Unary):
        operand, kind = self.atom_typed(expr.operand)
        location = self.const(expr.location)
        if expr.op == "!":
            if kind == _BOOL:
                return f"not {operand}", False, _BOOL
            return (
                f"(not {operand}) if type({operand}) is bool "
                f"else NOT({operand}, {location})",
                False,
                _BOOL,
            )
        if expr.op == "-":
            if kind == _INT:
                return f"-{operand}", False, _INT
            return (
                f"-{operand} if type({operand}) is int "
                f"else NEG({operand}, {location})",
                False,
                _INT,
            )
        self.code.emit(f"UNOP({self.const((expr.op, expr.location))})")
        return "None", True, None

    def binary(self, expr: ast.Binary):
        op = expr.op
        left, left_type = self.atom_typed(expr.left)
        right, right_type = self.atom_typed(expr.right)
        if op == "==" or op == "!=":
            # Python's == is MJ's: identity on references (which define
            # no __eq__), value equality on ints, booleans and strings.
            return f"{left} {op} {right}", False, _BOOL
        tests = [
            f"type({operand}) is int"
            for operand, kind in ((left, left_type), (right, right_type))
            if kind != _INT
        ]
        location = self.const(expr.location)
        if op in _ARITH:
            symbol, slow = _ARITH[op]
            kind = _BOOL if op in _COMPARISONS else _INT
            if op == "+" and tests:
                kind = None  # String concatenation.
            fast = f"{left} {symbol} {right}"
            if not tests:
                return fast, False, kind
            guard = " and ".join(tests)
            return (
                f"{fast} if {guard} else {slow}({left}, {right}, {location})",
                False,
                kind,
            )
        if op == "/" or op == "%":
            quotient = f"int({left} / {right})"
            fast = quotient if op == "/" else f"{left} - {quotient} * {right}"
            guard = " and ".join(tests + [right])
            slow = "DIV" if op == "/" else "MOD"
            return (
                f"{fast} if {guard} else {slow}({left}, {right}, {location})",
                False,
                _INT,
            )
        self.code.emit(f"BADOP({self.const((op, expr.location))})")
        return "None", True, None

    def shortcircuit(self, expr: ast.Binary):
        is_and = expr.op == "&&"
        left = self.condition(expr.left)
        if not atomic_code(left):
            left = self.store(left)
        code = self.code
        result = self.temp()
        header = len(code.lines)
        code.emit(f"if {left}:" if is_and else f"if not {left}:")
        code.level += 1
        if self._deep():

            def fill(helper):
                value = self.condition(expr.right)
                self._close(helper, f"return {value}")

            right = f"(yield from {self._helper(fill)}())"
            code.yields = True
        else:
            right = self.condition(expr.right)
            if len(code.lines) == header + 1:
                # The right operand needs no statements: one expression.
                del code.lines[header]
                code.level -= 1
                word = "and" if is_and else "or"
                return f"{left} {word} ({right})", False, _BOOL
        code.emit(f"{result} = {right}")
        code.level -= 1
        code.emit("else:")
        code.emit(f"    {result} = {'False' if is_and else 'True'}")
        return result, True, _BOOL

    def field_read(self, expr: ast.FieldRead):
        obj = self.atom(expr.obj)
        field = self.shared(("str", expr.field_name), expr.field_name)
        line, stub = self.record(
            expr.site_id, ast.AccessKind.READ, expr.field_name, obj
        )
        site = self.const((expr.field_name, stub, expr.location))
        value = self.temp()
        emit = self.code.emit
        emit("yield  # Preemption point before the read.")
        self.code.yields = True
        if expr.field_name == "length":
            # Mostly an array's length, which has no .fields to probe.
            emit(f"if type({obj}) is O and {field} in {obj}.fields:")
            emit(f"    {line}")
            emit(f"    {value} = {obj}.fields[{field}]")
            emit("else:")
            emit(f"    {value} = FR({obj}, th, {site})")
            return value, True, None
        # Only an MJObject has .fields: anything else, or a missing
        # field, takes the slow path, which raises or reads a static.
        emit("try:")
        emit(f"    {value} = {obj}.fields[{field}]")
        emit("except (KeyError, AttributeError):")
        emit(f"    {value} = FR({obj}, th, {site})")
        emit("else:")
        emit(f"    {line}")
        return value, True, None

    def array_read(self, expr: ast.ArrayRead):
        array = self.atom(expr.array)
        index, index_type = self.atom_typed(expr.index)
        line, _ = self.record(expr.site_id, ast.AccessKind.READ, ARRAY_FIELD, array)
        value = self.temp()
        emit = self.code.emit
        emit("yield  # Preemption point before the read.")
        self.code.yields = True
        emit(f"if {self.in_bounds(array, index, index_type)}:")
        emit(f"    {line}")
        emit(f"    {value} = {array}.elements[{index}]")
        emit("else:")
        emit(f"    {value} = AR({array}, {index}, {self.const(expr.location)})")
        return value, True, None

    def static_read(self, expr: ast.StaticFieldRead):
        owner = _static_owner(self.resolved, expr.class_name, expr.field_name)
        emit = self.code.emit
        if owner is None:
            names = self.const((expr.class_name, expr.field_name, expr.location))
            emit(f"SO(*{names})")
            return "None", True, None
        obj = self.temp()
        owner_name = self.shared(("str", owner.name), owner.name)
        field = self.shared(("str", expr.field_name), expr.field_name)
        emit(f"{obj} = CO({owner_name})")
        line, _ = self.record(
            expr.site_id, ast.AccessKind.READ, expr.field_name, obj
        )
        emit("yield  # Preemption point before the read.")
        self.code.yields = True
        emit(line)
        return f"{obj}.statics[{field}]", False, None

    def args(self, exprs) -> list:
        return [self.atom(arg) for arg in exprs]

    def invoke(self, callee: str, this: str, args: list):
        self.code.yields = True
        joined = "".join(f", {arg}" for arg in args)
        code = f"(yield from {callee}(th, d + 1, {this}{joined}))"
        return code, False, None

    def new(self, expr: ast.New):
        class_name = expr.class_name
        emit = self.code.emit
        try:
            info = self.resolved.class_info(class_name)
        except MJError:
            site = (self.resolved.class_info, class_name, expr.location)
            emit(f"NEWU({self.const(site)})")
            return "None", True, None
        make = f"O(UIDS, {self.const(info)}, {self.const(expr.alloc_id)})"
        init = info.resolve_method("init")
        if init is None or init.is_static:
            if not expr.args:
                return make, False, None
            # The interpreter allocates (drawing a uid) before noticing
            # the missing init, and evaluates no argument.
            emit(make)
            emit(f"NEWA({self.const((class_name, expr.location))})")
            return "None", True, None
        obj = self.store(make)
        entry = self.compiler._entry(init)
        args = self.args(expr.args)
        if len(args) != entry.nparams:
            emit(f"ARITY({self.const(entry)}, {len(args)})")
            return obj, True, None
        code, _, _ = self.invoke(f"m{entry.index}", obj, args)
        emit(code)
        return obj, True, None

    def call(self, expr: ast.Call):
        emit = self.code.emit
        if expr.receiver is not None:
            receiver, receiver_type = self.atom_typed(expr.receiver)
        else:
            receiver, receiver_type = "None", None
        args = self.args(expr.args)
        nargs = len(args)
        method_name = expr.method_name
        if expr.is_static:
            try:
                info = self.resolved.class_info(expr.static_class)
                method = info.resolve_method(method_name)
            except MJError:
                method = None
            if method is None or not method.is_static:
                site = (
                    self.resolved.class_info,
                    expr.static_class,
                    method_name,
                    expr.location,
                )
                emit(f"SMISS({self.const(site)})")
                return "None", True, None
            entry = self.compiler._entry(method)
            if nargs != entry.nparams:
                emit(f"ARITY({self.const(entry)}, {nargs})")
                return "None", True, None
            return self.invoke(f"m{entry.index}", "None", args)
        # Monomorphic inline cache: [class_info, callee], filled by the
        # miss path only for a callee whose arity matches the site.
        cell = self.const([None, None])
        site = self.const(
            (method_name, nargs, expr.location, self.compiler.vtables)
        )
        test = f"{receiver}.class_info is {cell}[0]"
        if receiver_type != _OBJECT:
            test = f"type({receiver}) is O and {test}"
        callee = f"({cell}[1] if {test} else DISPATCH({receiver}, {cell}, {site}))"
        return self.invoke(callee, receiver, args)


def atomic_code(code: str) -> bool:
    """Whether ``code`` is a bare name or literal."""
    return code.isidentifier() or code.lstrip("-").isdigit()


def _static_owner(resolved, class_name: str, field_name: str):
    """Compile-time static-field owner resolution; ``None`` defers the
    (identical) failure to run time."""
    try:
        info = resolved.class_info(class_name)
    except MJError:
        return None
    return info.static_field_owner(field_name)
