"""Name resolution and semantic analysis for MJ programs.

The resolver performs the front end's semantic phase:

* builds the class table (single inheritance, cycle detection, member
  duplication checks);
* normalizes ``sync`` methods into explicit ``sync (this) { ... }`` (or
  ``sync (ClassRef) { ... }`` for static methods) so downstream phases
  see only sync *blocks*, matching the paper's treatment of synchronized
  methods and blocks as a single construct (Section 5.2);
* rewrites ``Name.member`` accesses into static accesses when ``Name``
  is a class, and binds bare calls to implicit-``this`` or static calls;
* checks local-variable scoping (MJ requires explicit ``this.f`` for
  instance fields, so every bare identifier is a local, a parameter, or
  a class name);
* assigns the identifiers used by every later phase: ``site_id`` for
  memory accesses (trace points), ``stmt_id`` for statements (CFG
  nodes), ``alloc_id`` for allocation sites (points-to abstract
  objects), ``sync_id`` for sync blocks (ICG nodes), ``call_id`` for
  call sites (call-graph edges).

The result is a :class:`ResolvedProgram`, the unit every analysis,
transformation, and the interpreter operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ast
from .errors import ResolveError, SourceLocation

#: The pseudo-field name used for array-element accesses.  The paper
#: associates a single memory location with all elements of an array
#: (Section 2.1, footnote 1); the pseudo-field keeps array accesses
#: uniform with field accesses throughout the pipeline.
ARRAY_FIELD = "[]"


class IdAllocator:
    """Allocates the unique identifiers used across the pipeline.

    Program transformations (loop peeling) run after resolution and
    clone access sites; they draw fresh ids from the same allocator so
    ids remain unique program-wide.
    """

    def __init__(self) -> None:
        self._next_site = 0
        self._next_stmt = 0
        self._next_alloc = 0
        self._next_sync = 0
        self._next_call = 0

    def site_id(self) -> int:
        self._next_site += 1
        return self._next_site

    def stmt_id(self) -> int:
        self._next_stmt += 1
        return self._next_stmt

    def alloc_id(self) -> int:
        self._next_alloc += 1
        return self._next_alloc

    def sync_id(self) -> int:
        self._next_sync += 1
        return self._next_sync

    def call_id(self) -> int:
        self._next_call += 1
        return self._next_call


@dataclass
class ClassInfo:
    """Resolved information about one class."""

    decl: ast.ClassDecl
    superclass: Optional["ClassInfo"] = None
    own_instance_fields: dict[str, ast.FieldDecl] = field(default_factory=dict)
    own_static_fields: dict[str, ast.FieldDecl] = field(default_factory=dict)
    own_methods: dict[str, ast.MethodDecl] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.decl.name

    def ancestors(self):
        """Yield this class and its superclasses, most-derived first."""
        info: Optional[ClassInfo] = self
        while info is not None:
            yield info
            info = info.superclass

    def resolve_method(self, name: str) -> Optional[ast.MethodDecl]:
        """Find ``name`` in this class or an ancestor (dynamic dispatch)."""
        for info in self.ancestors():
            method = info.own_methods.get(name)
            if method is not None:
                return method
        return None

    def instance_fields(self) -> dict[str, ast.FieldDecl]:
        """All instance fields, including inherited ones."""
        fields: dict[str, ast.FieldDecl] = {}
        for info in reversed(list(self.ancestors())):
            fields.update(info.own_instance_fields)
        return fields

    def static_field_owner(self, name: str) -> Optional["ClassInfo"]:
        """The class in the ancestor chain declaring static field ``name``."""
        for info in self.ancestors():
            if name in info.own_static_fields:
                return info
        return None

    @property
    def is_thread_class(self) -> bool:
        """A class is startable iff it (or an ancestor) defines ``run``."""
        return self.resolve_method("run") is not None


@dataclass
class SiteInfo:
    """Metadata about one memory-access site (a trace point)."""

    site_id: int
    node: ast.Node
    method: ast.MethodDecl
    access_kind: ast.AccessKind
    field_name: str
    location: SourceLocation

    @property
    def descriptor(self) -> str:
        verb = "write" if self.access_kind is ast.AccessKind.WRITE else "read"
        return f"{verb} of .{self.field_name} in {self.method.qualified_name} at {self.location}"


@dataclass
class ResolvedProgram:
    """An MJ program after semantic analysis — the pipeline's currency."""

    program: ast.Program
    classes: dict[str, ClassInfo]
    sites: dict[int, SiteInfo]
    methods: list[ast.MethodDecl]
    main_method: ast.MethodDecl
    id_allocator: IdAllocator
    source: Optional[str] = None

    def class_info(self, name: str) -> ClassInfo:
        info = self.classes.get(name)
        if info is None:
            raise ResolveError(f"unknown class {name!r}")
        return info

    def register_cloned_site(self, node: ast.Node, template: SiteInfo) -> int:
        """Register a cloned access node, allocating it a fresh site id.

        Used by program transformations.  The clone's ``origin_site_id``
        is set to the *root* origin of ``template`` so static facts
        computed before any transformation still apply.
        """
        site_id = self.id_allocator.site_id()
        node.site_id = site_id
        origin = template.node.origin_site_id
        node.origin_site_id = origin if origin is not None else template.site_id
        self.sites[site_id] = SiteInfo(
            site_id=site_id,
            node=node,
            method=template.method,
            access_kind=template.access_kind,
            field_name=template.field_name,
            location=template.location,
        )
        return site_id

    def origin_of(self, site_id: int) -> int:
        """The original (pre-transformation) site id for ``site_id``."""
        node = self.sites[site_id].node
        return node.origin_site_id if node.origin_site_id is not None else site_id


class Resolver:
    """Performs semantic analysis; see the module docstring."""

    def __init__(self, program: ast.Program, source: Optional[str] = None):
        self._program = program
        self._source = source
        self._classes: dict[str, ClassInfo] = {}
        self._sites: dict[int, SiteInfo] = {}
        self._methods: list[ast.MethodDecl] = []
        self._ids = IdAllocator()
        # Per-method resolution state.
        self._current_class: Optional[ClassInfo] = None
        self._current_method: Optional[ast.MethodDecl] = None
        self._scopes: list[set[str]] = []

    # ------------------------------------------------------------------
    # Entry point.

    def resolve(self) -> ResolvedProgram:
        self._build_class_table()
        self._normalize_sync_methods()
        for class_decl in self._program.classes:
            self._current_class = self._classes[class_decl.name]
            for method in class_decl.methods:
                self._resolve_method(method)
        main_method = self._find_main()
        return ResolvedProgram(
            program=self._program,
            classes=self._classes,
            sites=self._sites,
            methods=self._methods,
            main_method=main_method,
            id_allocator=self._ids,
            source=self._source,
        )

    # ------------------------------------------------------------------
    # Class table construction.

    def _build_class_table(self) -> None:
        for class_decl in self._program.classes:
            if class_decl.name in self._classes:
                raise ResolveError(
                    f"duplicate class {class_decl.name!r}", class_decl.location
                )
            info = ClassInfo(decl=class_decl)
            for field_decl in class_decl.fields:
                table = (
                    info.own_static_fields
                    if field_decl.is_static
                    else info.own_instance_fields
                )
                if field_decl.name in table:
                    raise ResolveError(
                        f"duplicate field {field_decl.name!r} in class "
                        f"{class_decl.name!r}",
                        field_decl.location,
                    )
                table[field_decl.name] = field_decl
            for method in class_decl.methods:
                if method.name in info.own_methods:
                    raise ResolveError(
                        f"duplicate method {method.name!r} in class "
                        f"{class_decl.name!r}",
                        method.location,
                    )
                method.class_name = class_decl.name
                info.own_methods[method.name] = method
            self._classes[class_decl.name] = info

        # Link superclasses and reject cycles.
        for info in self._classes.values():
            super_name = info.decl.superclass
            if super_name is None:
                continue
            super_info = self._classes.get(super_name)
            if super_info is None:
                raise ResolveError(
                    f"unknown superclass {super_name!r} of class {info.name!r}",
                    info.decl.location,
                )
            info.superclass = super_info
        for info in self._classes.values():
            seen = set()
            for ancestor in info.ancestors():
                if ancestor.name in seen:
                    raise ResolveError(
                        f"inheritance cycle involving class {ancestor.name!r}",
                        info.decl.location,
                    )
                seen.add(ancestor.name)

    def _normalize_sync_methods(self) -> None:
        """Rewrite ``sync def m`` into a method whose body is one sync block."""
        for class_decl in self._program.classes:
            for method in class_decl.methods:
                if not method.is_sync:
                    continue
                lock: ast.Expr
                if method.is_static:
                    lock = ast.ClassRef(
                        class_name=class_decl.name, location=method.location
                    )
                else:
                    lock = ast.ThisRef(location=method.location)
                sync_block = ast.Sync(
                    lock=lock, body=method.body, location=method.location
                )
                method.body = ast.Block(
                    body=[sync_block], location=method.location
                )

    def _find_main(self) -> ast.MethodDecl:
        main_class = self._classes.get("Main")
        if main_class is None:
            raise ResolveError("program must declare a 'Main' class")
        main = main_class.own_methods.get("main")
        if main is None or not main.is_static or main.params:
            raise ResolveError(
                "class 'Main' must declare 'static def main()' with no parameters"
            )
        return main

    # ------------------------------------------------------------------
    # Method resolution.

    def _resolve_method(self, method: ast.MethodDecl) -> None:
        self._current_method = method
        self._methods.append(method)
        self._scopes = [set(method.params)]
        if len(set(method.params)) != len(method.params):
            raise ResolveError(
                f"duplicate parameter in {method.qualified_name}", method.location
            )
        self._resolve_block(method.body)
        self._scopes = []
        self._current_method = None

    def _declare_local(self, name: str, location: SourceLocation) -> None:
        if any(name in scope for scope in self._scopes):
            raise ResolveError(f"duplicate local variable {name!r}", location)
        self._scopes[-1].add(name)

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def _is_class(self, name: str) -> bool:
        return name in self._classes

    # ------------------------------------------------------------------
    # Statements.

    def _resolve_block(self, block: ast.Block) -> None:
        block.stmt_id = self._ids.stmt_id()
        self._scopes.append(set())
        # Statement lists are resolved in place; rewrites replace entries.
        for index, stmt in enumerate(block.body):
            block.body[index] = self._resolve_stmt(stmt)
        self._scopes.pop()

    def _resolve_stmt(self, stmt: ast.Stmt) -> ast.Stmt:
        stmt.stmt_id = self._ids.stmt_id()
        if isinstance(stmt, ast.VarDecl):
            stmt.init = self._resolve_expr(stmt.init)
            self._declare_local(stmt.name, stmt.location)
            return stmt
        if isinstance(stmt, ast.AssignLocal):
            if not self._is_local(stmt.name):
                raise ResolveError(
                    f"assignment to undeclared variable {stmt.name!r}",
                    stmt.location,
                )
            stmt.value = self._resolve_expr(stmt.value)
            return stmt
        if isinstance(stmt, ast.FieldWrite):
            rewritten = self._maybe_static_write(stmt)
            if rewritten is not None:
                return rewritten
            stmt.obj = self._resolve_expr(stmt.obj)
            stmt.value = self._resolve_expr(stmt.value)
            self._register_site(stmt, stmt.field_name)
            return stmt
        if isinstance(stmt, ast.StaticFieldWrite):
            self._check_static_field(stmt.class_name, stmt.field_name, stmt.location)
            stmt.value = self._resolve_expr(stmt.value)
            self._register_site(stmt, stmt.field_name)
            return stmt
        if isinstance(stmt, ast.ArrayWrite):
            stmt.array = self._resolve_expr(stmt.array)
            stmt.index = self._resolve_expr(stmt.index)
            stmt.value = self._resolve_expr(stmt.value)
            self._register_site(stmt, ARRAY_FIELD)
            return stmt
        if isinstance(stmt, ast.If):
            stmt.cond = self._resolve_expr(stmt.cond)
            self._resolve_block(stmt.then_block)
            if stmt.else_block is not None:
                self._resolve_block(stmt.else_block)
            return stmt
        if isinstance(stmt, ast.While):
            stmt.cond = self._resolve_expr(stmt.cond)
            self._resolve_block(stmt.body)
            return stmt
        if isinstance(stmt, ast.Sync):
            stmt.sync_id = self._ids.sync_id()
            stmt.lock = self._resolve_expr(stmt.lock)
            self._resolve_block(stmt.body)
            return stmt
        if isinstance(stmt, ast.Start):
            stmt.thread = self._resolve_expr(stmt.thread)
            return stmt
        if isinstance(stmt, ast.Join):
            stmt.thread = self._resolve_expr(stmt.thread)
            return stmt
        if isinstance(stmt, ast.Wait):
            stmt.target = self._resolve_expr(stmt.target)
            return stmt
        if isinstance(stmt, ast.Notify):
            stmt.target = self._resolve_expr(stmt.target)
            return stmt
        if isinstance(stmt, ast.Barrier):
            stmt.target = self._resolve_expr(stmt.target)
            stmt.parties = self._resolve_expr(stmt.parties)
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._resolve_expr(stmt.value)
            return stmt
        if isinstance(stmt, (ast.Print, ast.Assert)):
            if isinstance(stmt, ast.Print):
                stmt.value = self._resolve_expr(stmt.value)
            else:
                stmt.cond = self._resolve_expr(stmt.cond)
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._resolve_expr(stmt.expr)
            return stmt
        if isinstance(stmt, ast.Block):
            self._resolve_block(stmt)
            return stmt
        raise ResolveError(f"unhandled statement {type(stmt).__name__}")

    def _maybe_static_write(self, stmt: ast.FieldWrite) -> Optional[ast.Stmt]:
        """Rewrite ``Class.f = v`` (parsed as a FieldWrite) if applicable."""
        obj = stmt.obj
        if (
            isinstance(obj, ast.VarRef)
            and not self._is_local(obj.name)
            and self._is_class(obj.name)
        ):
            rewritten = ast.StaticFieldWrite(
                class_name=obj.name,
                field_name=stmt.field_name,
                value=stmt.value,
                location=stmt.location,
            )
            rewritten.stmt_id = stmt.stmt_id
            self._check_static_field(
                rewritten.class_name, rewritten.field_name, rewritten.location
            )
            rewritten.value = self._resolve_expr(rewritten.value)
            self._register_site(rewritten, rewritten.field_name)
            return rewritten
        return None

    # ------------------------------------------------------------------
    # Expressions.

    def _resolve_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, (ast.IntLiteral, ast.BoolLiteral, ast.StringLiteral,
                             ast.NullLiteral, ast.ClassRef)):
            return expr
        if isinstance(expr, ast.ThisRef):
            assert self._current_method is not None
            if self._current_method.is_static:
                raise ResolveError(
                    "'this' used in a static method", expr.location
                )
            return expr
        if isinstance(expr, ast.VarRef):
            if self._is_local(expr.name):
                return expr
            raise ResolveError(
                f"unknown variable {expr.name!r}", expr.location
            )
        if isinstance(expr, ast.Binary):
            expr.left = self._resolve_expr(expr.left)
            expr.right = self._resolve_expr(expr.right)
            return expr
        if isinstance(expr, ast.Unary):
            expr.operand = self._resolve_expr(expr.operand)
            return expr
        if isinstance(expr, ast.FieldRead):
            obj = expr.obj
            if (
                isinstance(obj, ast.VarRef)
                and not self._is_local(obj.name)
                and self._is_class(obj.name)
            ):
                rewritten = ast.StaticFieldRead(
                    class_name=obj.name,
                    field_name=expr.field_name,
                    location=expr.location,
                )
                self._check_static_field(
                    rewritten.class_name, rewritten.field_name, rewritten.location
                )
                self._register_site(rewritten, rewritten.field_name)
                return rewritten
            expr.obj = self._resolve_expr(expr.obj)
            self._register_site(expr, expr.field_name)
            return expr
        if isinstance(expr, ast.StaticFieldRead):
            self._check_static_field(expr.class_name, expr.field_name, expr.location)
            self._register_site(expr, expr.field_name)
            return expr
        if isinstance(expr, ast.ArrayRead):
            expr.array = self._resolve_expr(expr.array)
            expr.index = self._resolve_expr(expr.index)
            self._register_site(expr, ARRAY_FIELD)
            return expr
        if isinstance(expr, ast.New):
            if expr.class_name not in self._classes:
                raise ResolveError(
                    f"unknown class {expr.class_name!r} in 'new'", expr.location
                )
            expr.alloc_id = self._ids.alloc_id()
            expr.args = [self._resolve_expr(arg) for arg in expr.args]
            return expr
        if isinstance(expr, ast.NewArray):
            expr.alloc_id = self._ids.alloc_id()
            expr.size = self._resolve_expr(expr.size)
            return expr
        if isinstance(expr, ast.Call):
            return self._resolve_call(expr)
        raise ResolveError(f"unhandled expression {type(expr).__name__}")

    def _resolve_call(self, expr: ast.Call) -> ast.Expr:
        expr.call_id = self._ids.call_id()
        receiver = expr.receiver
        if receiver is None:
            expr = self._bind_bare_call(expr)
        elif (
            isinstance(receiver, ast.VarRef)
            and not self._is_local(receiver.name)
            and self._is_class(receiver.name)
        ):
            target_class = self._classes[receiver.name]
            method = target_class.resolve_method(expr.method_name)
            if method is None or not method.is_static:
                raise ResolveError(
                    f"no static method {expr.method_name!r} in class "
                    f"{receiver.name!r}",
                    expr.location,
                )
            expr.static_class = method.class_name
            expr.receiver = None
        if expr.receiver is not None:
            expr.receiver = self._resolve_expr(expr.receiver)
        expr.args = [self._resolve_expr(arg) for arg in expr.args]
        return expr

    def _bind_bare_call(self, expr: ast.Call) -> ast.Call:
        """Bind ``m(...)`` to ``this.m(...)`` or a static call."""
        assert self._current_class is not None
        assert self._current_method is not None
        method = self._current_class.resolve_method(expr.method_name)
        if method is None:
            raise ResolveError(
                f"unknown method {expr.method_name!r} in class "
                f"{self._current_class.name!r}",
                expr.location,
            )
        if method.is_static:
            expr.static_class = method.class_name
        else:
            if self._current_method.is_static:
                raise ResolveError(
                    f"instance method {expr.method_name!r} called from "
                    f"static method {self._current_method.qualified_name}",
                    expr.location,
                )
            expr.receiver = ast.ThisRef(location=expr.location)
        return expr

    # ------------------------------------------------------------------
    # Shared checks and registration.

    def _check_static_field(
        self, class_name: str, field_name: str, location: SourceLocation
    ) -> None:
        info = self._classes.get(class_name)
        if info is None:
            raise ResolveError(f"unknown class {class_name!r}", location)
        if info.static_field_owner(field_name) is None:
            raise ResolveError(
                f"class {class_name!r} has no static field {field_name!r}",
                location,
            )

    def _register_site(self, node, field_name: str) -> None:
        assert self._current_method is not None
        site_id = self._ids.site_id()
        node.site_id = site_id
        self._sites[site_id] = SiteInfo(
            site_id=site_id,
            node=node,
            method=self._current_method,
            access_kind=node.access_kind,
            field_name=field_name,
            location=node.location,
        )


def resolve(program: ast.Program, source: Optional[str] = None) -> ResolvedProgram:
    """Resolve a parsed program in one call."""
    return Resolver(program, source).resolve()


def compile_source(source: str, filename: str = "<input>") -> ResolvedProgram:
    """Parse and resolve MJ source text in one call."""
    from .parser import parse

    return resolve(parse(source, filename), source=source)
