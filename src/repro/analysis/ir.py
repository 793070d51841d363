"""A lightweight linear IR for the static analyses.

The paper's instrumentation optimizer runs inside Jalapeño's optimizing
compiler on its high-level IR (HIR), where trace pseudo-instructions
are inserted, SSA is built, and value numbering drives the static
weaker-than elimination (Section 6.2).  This module is the analogous
IR for MJ: every method body is lowered (:mod:`repro.analysis.lower`)
to a control-flow graph of basic blocks holding simple register
instructions.

Registers are strings: MJ locals and parameters keep their names
(plus ``this``); intermediate values use ``%N`` temporaries, which are
single-assignment by construction.

Memory-access instructions (``GetField``/``PutField``/``GetStatic``/
``PutStatic``/``ALoad``/``AStore``) carry the ``site_id`` of the AST
access node they were lowered from — these are the paper's ``trace``
pseudo-instruction positions — together with their static ``sync_stack``
(the enclosing sync-block ids, outermost first) and ``loop_depth``
(number of enclosing MJ loops), which the instrumentation and
single-instance analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..lang.errors import SourceLocation


class Instr:
    """Base class of IR instructions.

    ``uses()`` returns the registers read; ``defs()`` the register
    written (or ``None``).  Subclasses set ``is_barrier`` when they can
    transfer control out of the method body's straight-line reasoning —
    calls (which may transitively start/join threads) and explicit
    thread operations.  Barriers invalidate the static weaker-than
    relation's ``Exec`` condition (Definition 4 in the paper).
    """

    is_barrier = False
    #: The site id when this instruction is a memory access, else None.
    site_id: Optional[int] = None

    sync_stack: tuple = ()
    loop_depth: int = 0
    location: SourceLocation = SourceLocation(0, 0, "<ir>")

    def uses(self) -> tuple:
        return ()

    def defs(self) -> Optional[str]:
        return None


@dataclass
class Const(Instr):
    dest: str
    value: object

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = const {self.value!r}"


@dataclass
class Move(Instr):
    dest: str
    src: str

    def uses(self):
        return (self.src,)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = {self.src}"


@dataclass
class BinOp(Instr):
    dest: str
    op: str
    left: str
    right: str

    def uses(self):
        return (self.left, self.right)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = {self.left} {self.op} {self.right}"


@dataclass
class UnOp(Instr):
    dest: str
    op: str
    operand: str

    def uses(self):
        return (self.operand,)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = {self.op}{self.operand}"


@dataclass
class GetField(Instr):
    dest: str
    obj: str
    field_name: str
    site_id: Optional[int] = None

    def uses(self):
        return (self.obj,)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = {self.obj}.{self.field_name}  [site {self.site_id}]"


@dataclass
class PutField(Instr):
    obj: str
    field_name: str
    src: str
    site_id: Optional[int] = None

    def uses(self):
        return (self.obj, self.src)

    def __str__(self):
        return f"{self.obj}.{self.field_name} = {self.src}  [site {self.site_id}]"


@dataclass
class GetStatic(Instr):
    dest: str
    class_name: str
    field_name: str
    site_id: Optional[int] = None

    def defs(self):
        return self.dest

    def __str__(self):
        return (
            f"{self.dest} = {self.class_name}.{self.field_name}"
            f"  [site {self.site_id}]"
        )


@dataclass
class PutStatic(Instr):
    class_name: str
    field_name: str
    src: str
    site_id: Optional[int] = None

    def uses(self):
        return (self.src,)

    def __str__(self):
        return (
            f"{self.class_name}.{self.field_name} = {self.src}"
            f"  [site {self.site_id}]"
        )


@dataclass
class ALoad(Instr):
    dest: str
    array: str
    index: str
    site_id: Optional[int] = None

    def uses(self):
        return (self.array, self.index)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = {self.array}[{self.index}]  [site {self.site_id}]"


@dataclass
class AStore(Instr):
    array: str
    index: str
    src: str
    site_id: Optional[int] = None

    def uses(self):
        return (self.array, self.index, self.src)

    def __str__(self):
        return f"{self.array}[{self.index}] = {self.src}  [site {self.site_id}]"


@dataclass
class NewObj(Instr):
    dest: str
    class_name: str
    alloc_id: int

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = new {self.class_name}  [alloc {self.alloc_id}]"


@dataclass
class NewArr(Instr):
    dest: str
    size: str
    alloc_id: int

    def uses(self):
        return (self.size,)

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = newarray({self.size})  [alloc {self.alloc_id}]"


@dataclass
class ClassConst(Instr):
    """Materializes a class object reference (static sync locks)."""

    dest: str
    class_name: str

    def defs(self):
        return self.dest

    def __str__(self):
        return f"{self.dest} = classof {self.class_name}"


@dataclass
class Invoke(Instr):
    """A method call (instance, static, or implicit ``init`` from ``new``)."""

    dest: Optional[str]
    receiver: Optional[str]
    method_name: str
    args: list
    call_id: Optional[int] = None
    static_class: Optional[str] = None
    is_init: bool = False

    is_barrier = True

    def uses(self):
        regs = []
        if self.receiver is not None:
            regs.append(self.receiver)
        regs.extend(self.args)
        return tuple(regs)

    def defs(self):
        return self.dest

    def __str__(self):
        args = ", ".join(self.args)
        target = (
            f"{self.static_class}.{self.method_name}"
            if self.static_class
            else f"{self.receiver}.{self.method_name}"
        )
        prefix = f"{self.dest} = " if self.dest else ""
        return f"{prefix}call {target}({args})"


@dataclass
class MonitorEnter(Instr):
    lock: str
    sync_id: int

    def uses(self):
        return (self.lock,)

    def __str__(self):
        return f"monitorenter {self.lock}  [sync {self.sync_id}]"


@dataclass
class MonitorExit(Instr):
    lock: str
    sync_id: int

    def uses(self):
        return (self.lock,)

    def __str__(self):
        return f"monitorexit {self.lock}  [sync {self.sync_id}]"


@dataclass
class StartT(Instr):
    thread: str

    is_barrier = True

    def uses(self):
        return (self.thread,)

    def __str__(self):
        return f"start {self.thread}"


@dataclass
class JoinT(Instr):
    thread: str

    is_barrier = True

    def uses(self):
        return (self.thread,)

    def __str__(self):
        return f"join {self.thread}"


@dataclass
class WaitI(Instr):
    """``wait target`` — releases the monitor and blocks until notified."""

    target: str

    is_barrier = True

    def uses(self):
        return (self.target,)

    def __str__(self):
        return f"wait {self.target}"


@dataclass
class NotifyI(Instr):
    """``notify target`` / ``notifyall target``."""

    target: str
    notify_all: bool

    is_barrier = True

    def uses(self):
        return (self.target,)

    def __str__(self):
        keyword = "notifyall" if self.notify_all else "notify"
        return f"{keyword} {self.target}"


@dataclass
class BarrierI(Instr):
    """``barrier target, parties`` — cyclic barrier rendezvous."""

    target: str
    parties: str

    is_barrier = True

    def uses(self):
        return (self.target, self.parties)

    def __str__(self):
        return f"barrier {self.target}, {self.parties}"


@dataclass
class PrintI(Instr):
    src: str

    def uses(self):
        return (self.src,)

    def __str__(self):
        return f"print {self.src}"


@dataclass
class AssertI(Instr):
    src: str

    def uses(self):
        return (self.src,)

    def __str__(self):
        return f"assert {self.src}"


@dataclass
class Ret(Instr):
    src: Optional[str] = None

    def uses(self):
        return (self.src,) if self.src is not None else ()

    def __str__(self):
        return f"return {self.src}" if self.src else "return"


@dataclass
class Phi(Instr):
    """SSA phi node (inserted by :mod:`repro.analysis.ssa`).

    ``operands`` maps predecessor block id → register.
    """

    dest: str
    var: str
    operands: dict = field(default_factory=dict)

    def uses(self):
        return tuple(self.operands.values())

    def defs(self):
        return self.dest

    def __str__(self):
        ops = ", ".join(f"B{b}:{r}" for b, r in sorted(self.operands.items()))
        return f"{self.dest} = phi({ops})"


#: Instructions carrying a trace point (memory-access instructions).
ACCESS_INSTRS = (GetField, PutField, GetStatic, PutStatic, ALoad, AStore)


class Block:
    """A basic block: straight-line instructions plus successor edges.

    A block ends either by falling through / jumping (one successor),
    branching on ``branch_reg`` (two successors: [true, false]), or
    returning (no successors).
    """

    def __init__(self, block_id: int):
        self.id = block_id
        self.instrs: list[Instr] = []
        self.successors: list[int] = []
        self.branch_reg: Optional[str] = None

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def __str__(self):
        lines = [f"B{self.id}:"]
        lines.extend(f"  {instr}" for instr in self.instrs)
        if self.branch_reg is not None:
            lines.append(
                f"  br {self.branch_reg} ? B{self.successors[0]} "
                f": B{self.successors[1]}"
            )
        elif self.successors:
            lines.append(f"  jmp B{self.successors[0]}")
        else:
            lines.append("  (exit)")
        return "\n".join(lines)


class Function:
    """A lowered method: entry block 0, a list of blocks, its registers."""

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = list(params)
        self.blocks: list[Block] = []
        self._next_temp = 0

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def new_temp(self) -> str:
        temp = f"%{self._next_temp}"
        self._next_temp += 1
        return temp

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {block.id: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors:
                preds[succ].append(block.id)
        return preds

    def instructions(self) -> Iterator[tuple[int, int, Instr]]:
        """Yield ``(block_id, index, instr)`` for every instruction."""
        for block in self.blocks:
            for index, instr in enumerate(block.instrs):
                yield block.id, index, instr

    def access_instructions(self) -> Iterator[tuple[int, int, Instr]]:
        for block_id, index, instr in self.instructions():
            if isinstance(instr, ACCESS_INSTRS):
                yield block_id, index, instr

    def __str__(self):
        header = f"def {self.name}({', '.join(self.params)})"
        return header + "\n" + "\n".join(str(block) for block in self.blocks)
