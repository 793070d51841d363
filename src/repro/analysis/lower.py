"""Lowering from MJ ASTs to the linear IR.

One :class:`~repro.analysis.ir.Function` is produced per method.  The
lowering mirrors how the paper's system sees Java bytecode compiled to
Jalapeño HIR: every AST memory access becomes one access instruction
carrying its ``site_id`` (the trace point), calls become explicit
``Invoke`` barriers (including the implicit ``init`` call of ``new``),
sync blocks become ``MonitorEnter``/``MonitorExit`` bracketing, and
short-circuit boolean operators expand to control flow.

While lowering, each instruction is stamped with

* ``sync_stack`` — the ids of statically enclosing sync blocks,
  outermost first (used for the ``outer`` condition of the static
  weaker-than relation, Section 6.1);
* ``loop_depth`` — the number of enclosing MJ loops (used by the
  single-instance analysis, Section 5.3).
"""

from __future__ import annotations

from typing import Optional

from ..lang import ast
from ..lang.resolver import ResolvedProgram
from . import ir


class _LoweringContext:
    """Mutable state while lowering one method."""

    def __init__(self, function: ir.Function):
        self.function = function
        self.block = function.new_block()
        self.sync_stack: tuple = ()
        self.loop_depth = 0


class Lowerer:
    """Lowers every method of a resolved program."""

    def __init__(self, resolved: ResolvedProgram):
        self._resolved = resolved

    def lower_program(self) -> dict[str, ir.Function]:
        """Lower all methods; keys are qualified names (``Class.method``)."""
        functions = {}
        for method in self._resolved.methods:
            functions[method.qualified_name] = self.lower_method(method)
        return functions

    def lower_method(self, method: ast.MethodDecl) -> ir.Function:
        params = list(method.params)
        if not method.is_static:
            params = ["this"] + params
        function = ir.Function(method.qualified_name, params)
        ctx = _LoweringContext(function)
        self._lower_block(method.body, ctx)
        self._emit(ctx, ir.Ret(None))
        ctx.block.successors = []
        return function

    # ------------------------------------------------------------------
    # Emission helpers.

    def _emit(self, ctx: _LoweringContext, instr: ir.Instr, location=None) -> ir.Instr:
        instr.sync_stack = ctx.sync_stack
        instr.loop_depth = ctx.loop_depth
        if location is not None:
            instr.location = location
        ctx.block.append(instr)
        return instr

    # ------------------------------------------------------------------
    # Statements.

    def _lower_block(self, block: ast.Block, ctx: _LoweringContext) -> None:
        for stmt in block.body:
            self._lower_stmt(stmt, ctx)

    def _lower_stmt(self, stmt: ast.Stmt, ctx: _LoweringContext) -> None:
        if isinstance(stmt, (ast.VarDecl, ast.AssignLocal)):
            value_expr = stmt.init if isinstance(stmt, ast.VarDecl) else stmt.value
            reg = self._lower_expr(value_expr, ctx)
            self._emit(ctx, ir.Move(stmt.name, reg), stmt.location)
        elif isinstance(stmt, ast.FieldWrite):
            obj = self._lower_expr(stmt.obj, ctx)
            value = self._lower_expr(stmt.value, ctx)
            self._emit(
                ctx,
                ir.PutField(obj, stmt.field_name, value, site_id=stmt.site_id),
                stmt.location,
            )
        elif isinstance(stmt, ast.StaticFieldWrite):
            value = self._lower_expr(stmt.value, ctx)
            self._emit(
                ctx,
                ir.PutStatic(
                    stmt.class_name, stmt.field_name, value, site_id=stmt.site_id
                ),
                stmt.location,
            )
        elif isinstance(stmt, ast.ArrayWrite):
            array = self._lower_expr(stmt.array, ctx)
            index = self._lower_expr(stmt.index, ctx)
            value = self._lower_expr(stmt.value, ctx)
            self._emit(
                ctx, ir.AStore(array, index, value, site_id=stmt.site_id), stmt.location
            )
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt, ctx)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt, ctx)
        elif isinstance(stmt, ast.Sync):
            lock = self._lower_expr(stmt.lock, ctx)
            self._emit(ctx, ir.MonitorEnter(lock, stmt.sync_id), stmt.location)
            outer_stack = ctx.sync_stack
            ctx.sync_stack = outer_stack + (stmt.sync_id,)
            self._lower_block(stmt.body, ctx)
            ctx.sync_stack = outer_stack
            self._emit(ctx, ir.MonitorExit(lock, stmt.sync_id), stmt.location)
        elif isinstance(stmt, ast.Start):
            thread = self._lower_expr(stmt.thread, ctx)
            self._emit(ctx, ir.StartT(thread), stmt.location)
        elif isinstance(stmt, ast.Join):
            thread = self._lower_expr(stmt.thread, ctx)
            self._emit(ctx, ir.JoinT(thread), stmt.location)
        elif isinstance(stmt, ast.Wait):
            target = self._lower_expr(stmt.target, ctx)
            self._emit(ctx, ir.WaitI(target), stmt.location)
        elif isinstance(stmt, ast.Notify):
            target = self._lower_expr(stmt.target, ctx)
            self._emit(ctx, ir.NotifyI(target, stmt.notify_all), stmt.location)
        elif isinstance(stmt, ast.Barrier):
            target = self._lower_expr(stmt.target, ctx)
            parties = self._lower_expr(stmt.parties, ctx)
            self._emit(ctx, ir.BarrierI(target, parties), stmt.location)
        elif isinstance(stmt, ast.Return):
            reg = None
            if stmt.value is not None:
                reg = self._lower_expr(stmt.value, ctx)
            self._emit(ctx, ir.Ret(reg), stmt.location)
            # Anything after a return is unreachable; park it in a fresh
            # block with no predecessors.
            ctx.block.successors = []
            ctx.block = ctx.function.new_block()
        elif isinstance(stmt, ast.Print):
            reg = self._lower_expr(stmt.value, ctx)
            self._emit(ctx, ir.PrintI(reg), stmt.location)
        elif isinstance(stmt, ast.Assert):
            reg = self._lower_expr(stmt.cond, ctx)
            self._emit(ctx, ir.AssertI(reg), stmt.location)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, ctx)
        elif isinstance(stmt, ast.Block):
            self._lower_block(stmt, ctx)
        else:
            raise TypeError(f"unhandled statement {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If, ctx: _LoweringContext) -> None:
        cond = self._lower_expr(stmt.cond, ctx)
        cond_block = ctx.block
        then_block = ctx.function.new_block()
        join_block: Optional[ir.Block] = None

        ctx.block = then_block
        self._lower_block(stmt.then_block, ctx)
        then_end = ctx.block

        if stmt.else_block is not None:
            else_block = ctx.function.new_block()
            ctx.block = else_block
            self._lower_block(stmt.else_block, ctx)
            else_end = ctx.block
            join_block = ctx.function.new_block()
            cond_block.branch_reg = cond
            cond_block.successors = [then_block.id, else_block.id]
            then_end.successors = [join_block.id]
            else_end.successors = [join_block.id]
        else:
            join_block = ctx.function.new_block()
            cond_block.branch_reg = cond
            cond_block.successors = [then_block.id, join_block.id]
            then_end.successors = [join_block.id]
        ctx.block = join_block

    def _lower_while(self, stmt: ast.While, ctx: _LoweringContext) -> None:
        preheader = ctx.block
        header = ctx.function.new_block()
        preheader.successors = [header.id]
        ctx.block = header

        ctx.loop_depth += 1
        cond = self._lower_expr(stmt.cond, ctx)
        cond_end = ctx.block

        body_block = ctx.function.new_block()
        ctx.block = body_block
        self._lower_block(stmt.body, ctx)
        body_end = ctx.block
        ctx.loop_depth -= 1

        exit_block = ctx.function.new_block()
        cond_end.branch_reg = cond
        cond_end.successors = [body_block.id, exit_block.id]
        body_end.successors = [header.id]
        ctx.block = exit_block

    # ------------------------------------------------------------------
    # Expressions.

    def _lower_expr(self, expr: ast.Expr, ctx: _LoweringContext) -> str:
        function = ctx.function
        if isinstance(expr, ast.IntLiteral):
            temp = function.new_temp()
            self._emit(ctx, ir.Const(temp, expr.value), expr.location)
            return temp
        if isinstance(expr, ast.BoolLiteral):
            temp = function.new_temp()
            self._emit(ctx, ir.Const(temp, expr.value), expr.location)
            return temp
        if isinstance(expr, ast.StringLiteral):
            temp = function.new_temp()
            self._emit(ctx, ir.Const(temp, expr.value), expr.location)
            return temp
        if isinstance(expr, ast.NullLiteral):
            temp = function.new_temp()
            self._emit(ctx, ir.Const(temp, None), expr.location)
            return temp
        if isinstance(expr, ast.VarRef):
            return expr.name
        if isinstance(expr, ast.ThisRef):
            return "this"
        if isinstance(expr, ast.ClassRef):
            temp = function.new_temp()
            self._emit(ctx, ir.ClassConst(temp, expr.class_name), expr.location)
            return temp
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._lower_short_circuit(expr, ctx)
            left = self._lower_expr(expr.left, ctx)
            right = self._lower_expr(expr.right, ctx)
            temp = function.new_temp()
            self._emit(ctx, ir.BinOp(temp, expr.op, left, right), expr.location)
            return temp
        if isinstance(expr, ast.Unary):
            operand = self._lower_expr(expr.operand, ctx)
            temp = function.new_temp()
            self._emit(ctx, ir.UnOp(temp, expr.op, operand), expr.location)
            return temp
        if isinstance(expr, ast.FieldRead):
            obj = self._lower_expr(expr.obj, ctx)
            temp = function.new_temp()
            self._emit(
                ctx,
                ir.GetField(temp, obj, expr.field_name, site_id=expr.site_id),
                expr.location,
            )
            return temp
        if isinstance(expr, ast.StaticFieldRead):
            temp = function.new_temp()
            self._emit(
                ctx,
                ir.GetStatic(
                    temp, expr.class_name, expr.field_name, site_id=expr.site_id
                ),
                expr.location,
            )
            return temp
        if isinstance(expr, ast.ArrayRead):
            array = self._lower_expr(expr.array, ctx)
            index = self._lower_expr(expr.index, ctx)
            temp = function.new_temp()
            self._emit(
                ctx, ir.ALoad(temp, array, index, site_id=expr.site_id), expr.location
            )
            return temp
        if isinstance(expr, ast.New):
            temp = function.new_temp()
            self._emit(
                ctx, ir.NewObj(temp, expr.class_name, expr.alloc_id), expr.location
            )
            info = self._resolved.class_info(expr.class_name)
            init = info.resolve_method("init")
            if init is not None and not init.is_static:
                args = [self._lower_expr(arg, ctx) for arg in expr.args]
                self._emit(
                    ctx,
                    ir.Invoke(
                        dest=None,
                        receiver=temp,
                        method_name="init",
                        args=args,
                        call_id=self._resolved.id_allocator.call_id(),
                        is_init=True,
                    ),
                    expr.location,
                )
            return temp
        if isinstance(expr, ast.NewArray):
            size = self._lower_expr(expr.size, ctx)
            temp = function.new_temp()
            self._emit(ctx, ir.NewArr(temp, size, expr.alloc_id), expr.location)
            return temp
        if isinstance(expr, ast.Call):
            receiver = None
            if expr.receiver is not None:
                receiver = self._lower_expr(expr.receiver, ctx)
            args = [self._lower_expr(arg, ctx) for arg in expr.args]
            temp = function.new_temp()
            self._emit(
                ctx,
                ir.Invoke(
                    dest=temp,
                    receiver=receiver,
                    method_name=expr.method_name,
                    args=args,
                    call_id=expr.call_id,
                    static_class=expr.static_class,
                ),
                expr.location,
            )
            return temp
        raise TypeError(f"unhandled expression {type(expr).__name__}")

    def _lower_short_circuit(self, expr: ast.Binary, ctx: _LoweringContext) -> str:
        """Expand ``&&`` / ``||`` into control flow.

        The result register ``$scN`` is assigned on both paths; SSA
        later merges the assignments with a phi.
        """
        function = ctx.function
        result = f"$sc{function.new_temp()[1:]}"
        left = self._lower_expr(expr.left, ctx)
        entry_end = ctx.block

        rhs_block = function.new_block()
        short_block = function.new_block()
        join_block = function.new_block()

        entry_end.branch_reg = left
        if expr.op == "&&":
            entry_end.successors = [rhs_block.id, short_block.id]
            short_value = False
        else:
            entry_end.successors = [short_block.id, rhs_block.id]
            short_value = True

        ctx.block = rhs_block
        right = self._lower_expr(expr.right, ctx)
        self._emit(ctx, ir.Move(result, right), expr.location)
        ctx.block.successors = [join_block.id]

        ctx.block = short_block
        self._emit(ctx, ir.Const(result, short_value), expr.location)
        ctx.block.successors = [join_block.id]

        ctx.block = join_block
        return result


def lower_program(resolved: ResolvedProgram) -> dict[str, ir.Function]:
    """Lower every method of ``resolved``; keyed by qualified name."""
    return Lowerer(resolved).lower_program()
