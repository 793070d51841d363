"""Static weaker-than elimination of redundant trace points (Section 6).

A trace site ``S_j`` can be left uninstrumented when some other traced
site ``S_i`` in the same method always generates a weaker event first:

.. math::

   S_i \\sqsubseteq S_j \\iff Exec(S_i, S_j) \\land a_i \\sqsubseteq a_j
        \\land outer(S_i, S_j)
        \\land valnum(o_i) = valnum(o_j) \\land f_i = f_j

* ``Exec`` (Definition 4) — ``S_i`` dominates ``S_j`` and no method
  invocation (or thread start/join, which calls may hide) lies on any
  path between them.  Dominance comes from the dominator tree built
  during SSA construction; the no-barrier-between condition is a small
  forward must-dataflow ("the trace from ``S_i`` is *available*": ``S_i``
  generates availability, barriers kill it, merge is AND).  The paper
  deliberately uses dominance, not post-dominance, because Java's
  potentially-excepting instructions make post-dominance vacuous.
* ``a_i ⊑ a_j`` — a write covers a later read or write; a read covers
  only a later read.
* ``outer`` — ``S_j`` sits at the same sync-block nesting as ``S_i`` or
  deeper inside it (the enclosing sync-id stack of ``S_i`` is a prefix
  of ``S_j``'s), guaranteeing ``e_i.L ⊆ e_j.L``.
* ``valnum``/field — the base objects provably coincide.  Array
  accesses compare the base only: the runtime tracks one location per
  array (footnote 1), so equal bases mean equal locations whatever the
  indices.

Only sites that will actually be instrumented may serve as the weaker
source ``S_i`` (a site pruned by static datarace analysis emits no
event and can justify nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import ir
from ..analysis.ssa import build_ssa
from ..analysis.valnum import value_numbering
from ..lang.ast import AccessKind

#: Maps IR access instructions to (group, kind).
_WRITE_INSTRS = (ir.PutField, ir.PutStatic, ir.AStore)


@dataclass
class _Site:
    """One access instruction with its position and matching key."""

    instr: ir.Instr
    block: int
    index: int
    key: tuple
    kind: AccessKind
    site_id: int


@dataclass
class EliminationResult:
    """Sites whose traces the static weaker-than relation removed."""

    eliminated: set[int]
    #: site_id -> the site_id of a weaker site justifying the removal.
    justification: dict[int, int]


class StaticWeakerAnalysis:
    """Per-function elimination; run by the planner over every method."""

    def __init__(
        self,
        function: ir.Function,
        traced_sites: Optional[set[int]],
    ):
        self._function = function
        self._traced = traced_sites
        self._graph, self._dom = build_ssa(function)
        self._vn = value_numbering(function, self._graph)
        #: Availability cache: source (block, index) -> block-entry states.
        self._avail_cache: dict[tuple[int, int], dict[int, bool]] = {}

    # ------------------------------------------------------------------

    def eliminate(self) -> EliminationResult:
        sites = self._collect_sites()
        by_key: dict[tuple, list[_Site]] = {}
        for site in sites:
            by_key.setdefault(site.key, []).append(site)

        eliminated: set[int] = set()
        justification: dict[int, int] = {}
        for group in by_key.values():
            if len(group) < 2:
                continue
            for target in group:
                for source in group:
                    if source.instr is target.instr:
                        continue
                    if source.site_id in eliminated:
                        # An eliminated trace emits nothing; it cannot
                        # justify further removal.  (Chains remain
                        # covered transitively by source's own source.)
                        continue
                    if self._weaker(source, target):
                        eliminated.add(target.site_id)
                        justification[target.site_id] = source.site_id
                        break
        return EliminationResult(eliminated=eliminated, justification=justification)

    # ------------------------------------------------------------------

    def _collect_sites(self) -> list[_Site]:
        sites = []
        for block_id, index, instr in self._function.access_instructions():
            if block_id not in self._graph.reachable:
                continue
            if instr.site_id is None:
                continue
            if self._traced is not None and instr.site_id not in self._traced:
                continue
            key = self._key_of(instr)
            if key is None:
                continue
            kind = (
                AccessKind.WRITE
                if isinstance(instr, _WRITE_INSTRS)
                else AccessKind.READ
            )
            sites.append(
                _Site(
                    instr=instr,
                    block=block_id,
                    index=index,
                    key=key,
                    kind=kind,
                    site_id=instr.site_id,
                )
            )
        return sites

    def _key_of(self, instr: ir.Instr) -> Optional[tuple]:
        """The (f, valnum(o)) matching key; None when the base has no VN."""
        if isinstance(instr, (ir.GetField, ir.PutField)):
            base_vn = self._vn.vn(instr.obj)
            if base_vn is None:
                return None
            return ("field", instr.field_name, base_vn)
        if isinstance(instr, (ir.GetStatic, ir.PutStatic)):
            return ("static", instr.class_name, instr.field_name)
        if isinstance(instr, (ir.ALoad, ir.AStore)):
            base_vn = self._vn.vn(instr.array)
            if base_vn is None:
                return None
            return ("array", base_vn)
        return None

    # ------------------------------------------------------------------
    # The S_i ⊑ S_j test.

    def _weaker(self, source: _Site, target: _Site) -> bool:
        # a_i ⊑ a_j.
        if not (source.kind is target.kind or source.kind is AccessKind.WRITE):
            return False
        # outer(S_i, S_j): S_i's sync stack is a prefix of S_j's.
        if not self._outer(source.instr.sync_stack, target.instr.sync_stack):
            return False
        # Exec condition (a): dominance.
        if not self._dominates(source, target):
            return False
        # Exec condition (b): no call/start/join on any path between.
        return self._available_at(source, target)

    @staticmethod
    def _outer(stack_i: tuple, stack_j: tuple) -> bool:
        return len(stack_i) <= len(stack_j) and stack_j[: len(stack_i)] == stack_i

    def _dominates(self, source: _Site, target: _Site) -> bool:
        if source.block == target.block:
            return source.index < target.index
        return self._dom.strictly_dominates(source.block, target.block)

    # ------------------------------------------------------------------
    # Trace availability dataflow.

    def _available_at(self, source: _Site, target: _Site) -> bool:
        """All paths from ``source`` to ``target`` are barrier-free.

        Forward must-dataflow: the source instruction *generates*
        availability, barrier instructions kill it, and block entry
        availability is the conjunction over predecessors.  Because the
        method entry starts unavailable, availability at the target also
        re-establishes the dominance condition — the explicit dominance
        check above keeps the implementation aligned with the paper's
        formulation (and is cheaper as an early filter).
        """
        entry_avail = self._solve_availability(source)
        state = entry_avail.get(target.block, False)
        block = self._function.blocks[target.block]
        for index in range(target.index):
            state = self._transfer(block.instrs[index], (target.block, index),
                                   source, state)
        return state

    def _solve_availability(self, source: _Site) -> dict[int, bool]:
        key = (source.block, source.index)
        cached = self._avail_cache.get(key)
        if cached is not None:
            return cached

        # Must-analysis: optimistic initialization (all available) and
        # iterate down to the greatest fixpoint; only the method entry
        # is pinned unavailable.
        entry: dict[int, bool] = {b: True for b in self._graph.reachable}
        entry[0] = False
        changed = True
        while changed:
            changed = False
            for block_id in self._graph.rpo:
                if block_id == 0:
                    in_state = False
                else:
                    preds = self._graph.preds[block_id]
                    in_state = bool(preds) and all(
                        self._block_out(pred, entry[pred], source)
                        for pred in preds
                    )
                if entry[block_id] != in_state:
                    entry[block_id] = in_state
                    changed = True
        self._avail_cache[key] = entry
        return entry

    def _block_out(self, block_id: int, in_state: bool, source: _Site) -> bool:
        state = in_state
        for index, instr in enumerate(self._function.blocks[block_id].instrs):
            state = self._transfer(instr, (block_id, index), source, state)
        return state

    @staticmethod
    def _transfer(instr, position, source: _Site, state: bool) -> bool:
        if position == (source.block, source.index):
            return True
        if instr.is_barrier:
            return False
        return state


def eliminate_redundant_traces(
    function: ir.Function, traced_sites: Optional[set[int]]
) -> EliminationResult:
    """Run static weaker-than elimination on one lowered function.

    ``function`` is converted to SSA in place.  ``traced_sites`` is the
    set of sites that will be instrumented (``None`` = all sites).
    """
    return StaticWeakerAnalysis(function, traced_sites).eliminate()
