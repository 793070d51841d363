"""Global value numbering over SSA form.

The static weaker-than relation needs ``valnum(o_i) = valnum(o_j)`` —
proof that two access instructions' base-object references hold the
same value (Section 6.1).  After SSA construction every register has a
unique definition, so value numbers attach to SSA names:

* constants hash by value, class constants by class;
* ``Move`` forwards its operand's number (copy propagation);
* pure operators (``BinOp``/``UnOp``) hash by ``(op, operand VNs)``;
* phis hash by ``(block, predecessor → operand VN)`` when all operands
  are already numbered — two phis in the same block with identical
  operand maps merge; otherwise (loop-carried values) they get a fresh
  number, which is conservative but sound;
* everything observing mutable state (loads, allocations, calls) gets
  a fresh number per definition — the analysis never assumes two loads
  yield the same value.

Soundness property used downstream: ``vn(a) == vn(b)`` implies the two
registers hold the same value at any point where both are in scope.
"""

from __future__ import annotations

from typing import Optional

from . import ir
from .cfg import FlowGraph
from .ssa import UNDEF


class ValueNumbering:
    """Assigns value numbers to every SSA register of a function."""

    def __init__(self, function: ir.Function, graph: FlowGraph):
        self._function = function
        self._graph = graph
        self._next = 0
        self._expr_table: dict = {}
        self.register_vn: dict[str, int] = {}
        self._compute()

    # ------------------------------------------------------------------

    def _fresh(self) -> int:
        self._next += 1
        return self._next

    def _lookup(self, key) -> int:
        vn = self._expr_table.get(key)
        if vn is None:
            vn = self._fresh()
            self._expr_table[key] = vn
        return vn

    def vn(self, register: Optional[str]) -> Optional[int]:
        """The value number of ``register``, or None if unknown."""
        if register is None:
            return None
        return self.register_vn.get(register)

    def same_value(self, reg_a: str, reg_b: str) -> bool:
        """True iff the two registers provably hold the same value."""
        vn_a = self.vn(reg_a)
        vn_b = self.vn(reg_b)
        return vn_a is not None and vn_a == vn_b

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        for block_id in self._graph.rpo:
            for instr in self._function.blocks[block_id].instrs:
                dest = instr.defs()
                if dest is None:
                    continue
                self.register_vn[dest] = self._number(instr, block_id)
        # Entry parameters were renamed to name#1 by SSA; ensure they
        # have numbers even if never redefined (defs() of params is
        # implicit).
        for param in self._function.params:
            name = f"{param}#1"
            if name not in self.register_vn:
                self.register_vn[name] = self._lookup(("param", param))

    def _number(self, instr: ir.Instr, block_id: int) -> int:
        if isinstance(instr, ir.Const):
            return self._lookup(("const", type(instr.value).__name__, instr.value))
        if isinstance(instr, ir.ClassConst):
            return self._lookup(("classconst", instr.class_name))
        if isinstance(instr, ir.Move):
            vn = self.vn(instr.src)
            if vn is not None:
                return vn
            return self._lookup(("reg", instr.src))
        if isinstance(instr, ir.BinOp):
            left = self.vn(instr.left)
            right = self.vn(instr.right)
            if left is None or right is None:
                return self._fresh()
            return self._lookup(("bin", instr.op, left, right))
        if isinstance(instr, ir.UnOp):
            operand = self.vn(instr.operand)
            if operand is None:
                return self._fresh()
            return self._lookup(("un", instr.op, operand))
        if isinstance(instr, ir.Phi):
            operand_vns = []
            for pred, reg in sorted(instr.operands.items()):
                if reg == UNDEF:
                    return self._fresh()
                vn = self.vn(reg)
                if vn is None:
                    # Back-edge operand not yet numbered (loop-carried):
                    # conservatively fresh.
                    return self._fresh()
                operand_vns.append((pred, vn))
            if operand_vns and len({vn for _, vn in operand_vns}) == 1:
                # All operands agree: the phi is a no-op.
                return operand_vns[0][1]
            return self._lookup(("phi", block_id, tuple(operand_vns)))
        # Loads, allocations, calls: opaque.
        return self._fresh()


def value_numbering(function: ir.Function, graph: FlowGraph) -> ValueNumbering:
    """Compute value numbers for an SSA-form function."""
    return ValueNumbering(function, graph)
