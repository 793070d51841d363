"""The compiled MJ engine: a drop-in :class:`Interpreter` replacement.

:class:`CompiledInterpreter` runs the Python generator functions that
:mod:`repro.runtime.compile` generates, one per MJ method, instead of
walking the AST.  Everything observable is identical to the AST engine
— scheduler decision sequences, uid allocation order, the schema-v3
event stream byte for byte, error messages, wait/notify/barrier
semantics — because the generated code yields at exactly the
interpreter's preemption points and performs memory operations in the
same order.  Only the per-step constant factor changes: node dispatch,
locals access, method resolution, and the traced/untraced decision all
happen at compile time, and a method activation is one generator frame.

The generated code is the only thing the two engines do not share.
Everything else is :class:`Interpreter`'s: :meth:`~Interpreter.run`,
the label cache, the end-of-thread event, and the start, join, wait,
notify and barrier kernels, which the generated code calls once it has
evaluated their operands.  This class adds its construction (the inline
fast path and the code generator), the fold of the trace stubs'
counters, and how a thread's entry method is found: through the
compiled method tables rather than ``resolve_method``.
"""

from __future__ import annotations

from typing import Optional

from ..lang.resolver import ResolvedProgram
from .compile import ProgramCompiler, _arity_error
from .events import EventSink
from .interpreter import Interpreter
from .scheduler import SchedulingPolicy, ThreadState
from .values import MJObject


class CompiledInterpreter(Interpreter):
    """Executes one resolved MJ program through generated code.

    Construction generates the program's source (one AST walk), fetches
    its compiled factory from the process-wide cache, and binds it;
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
        #: _schedule() folds them back into the public counters.
        self._counts = [0, 0]
        #: The detector's inline fast path, or None (recording,
        #: multicast, or absent sinks; ownership or the single-probe
        #: cache off).  Bound before compilation: the trace stubs
        #: specialize on it.
        inline = getattr(sink, "inline_fast_path", None)
        self._fast_path = inline() if inline is not None else None
        self._compiled = ProgramCompiler(self).compile()

    def _schedule(self) -> int:
        """Run every thread to completion, then fold the counters.

        A compiled activation is one Python frame, so the call depth
        bound fits the default recursion limit and the run leaves it
        alone.
        """
        try:
            return self._scheduler.run()
        finally:
            if self._fast_path is not None:
                # Apply the fast path's deferred counter effects, even
                # when the run ends in an error: every counter then
                # matches the AST engine's.
                self._counts[1] += self._fast_path.fold()
            self.accesses_executed = self._counts[0]
            self.accesses_emitted = self._counts[1]

    def _entry_body(self, obj: Optional[MJObject], thread: ThreadState):
        if obj is None:
            entry = self._compiled.main_entry
        else:
            entry = self._compiled.vtables[obj.class_info.name].get("run")
            if entry is None:
                return None
        if entry.nparams != 0:
            return _arity_failure(entry)
        return entry.fn(thread, 1, obj)


def _arity_failure(entry):
    """A thread body whose first step raises the entry method's arity
    error, as the AST engine's ``_invoke`` does."""
    _arity_error(entry, 0)
    yield
