"""Recursive-descent parser for the MJ language.

Grammar (EBNF):

.. code-block:: text

    program     := classdecl* EOF
    classdecl   := "class" IDENT ("extends" IDENT)? "{" member* "}"
    member      := "static"? "field" IDENT ";"
                 | "static"? "sync"? "def" IDENT "(" params? ")" block
    params      := IDENT ("," IDENT)*
    block       := "{" stmt* "}"
    stmt        := "var" IDENT "=" expr ";"
                 | "if" "(" expr ")" block ("else" (block | ifstmt))?
                 | "while" "(" expr ")" block
                 | "sync" "(" expr ")" block
                 | "start" expr ";"
                 | "join" expr ";"
                 | "wait" expr ";"
                 | "notify" expr ";"
                 | "notifyall" expr ";"
                 | "barrier" expr "," expr ";"
                 | "return" expr? ";"
                 | "print" expr ";"
                 | "assert" expr ";"
                 | expr ("=" expr)? ";"     -- assignment or call
    expr        := or
    or          := and ("||" and)*
    and         := equality ("&&" equality)*
    equality    := relational (("==" | "!=") relational)*
    relational  := additive (("<" | "<=" | ">" | ">=") additive)*
    additive    := term (("+" | "-") term)*
    term        := unary (("*" | "/" | "%") unary)*
    unary       := ("!" | "-") unary | postfix
    postfix     := primary ("." IDENT ("(" args? ")")? | "[" expr "]")*
    primary     := INT | STRING | "true" | "false" | "null" | "this"
                 | "new" IDENT "(" args? ")" | "newarray" "(" expr ")"
                 | IDENT ("(" args? ")")? | "(" expr ")"
    args        := expr ("," expr)*

Assignments are parsed by first parsing an expression and then, if an
``=`` follows, reinterpreting the expression as an l-value (a local
variable, field read, or array read).  The distinction between instance
and static member accesses (``obj.f`` vs ``Class.f``) is left to the
resolver, which knows the set of class names.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers.

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _match(self, kind: TokenKind) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        if self._check(kind):
            return self._advance()
        actual = self._peek()
        raise ParseError(
            f"expected {kind.value!r} {context}, found {actual.text!r}",
            actual.location,
        )

    # ------------------------------------------------------------------
    # Declarations.

    def parse_program(self) -> ast.Program:
        start = self._peek().location
        classes = []
        while not self._check(TokenKind.EOF):
            classes.append(self._parse_class())
        return ast.Program(classes=classes, location=start)

    def _parse_class(self) -> ast.ClassDecl:
        keyword = self._expect(TokenKind.CLASS, "to begin a class declaration")
        name = self._expect(TokenKind.IDENT, "after 'class'").text
        superclass = None
        if self._match(TokenKind.EXTENDS):
            superclass = self._expect(TokenKind.IDENT, "after 'extends'").text
        self._expect(TokenKind.LBRACE, "to open the class body")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._check(TokenKind.RBRACE):
            member = self._parse_member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self._expect(TokenKind.RBRACE, "to close the class body")
        return ast.ClassDecl(
            name=name,
            superclass=superclass,
            fields=fields,
            methods=methods,
            location=keyword.location,
        )

    def _parse_member(self) -> ast.FieldDecl | ast.MethodDecl:
        start = self._peek().location
        is_static = self._match(TokenKind.STATIC) is not None
        if self._match(TokenKind.FIELD):
            name = self._expect(TokenKind.IDENT, "after 'field'").text
            self._expect(TokenKind.SEMI, "after field declaration")
            return ast.FieldDecl(name=name, is_static=is_static, location=start)
        is_sync = self._match(TokenKind.SYNC) is not None
        self._expect(TokenKind.DEF, "to begin a method declaration")
        name = self._expect(TokenKind.IDENT, "after 'def'").text
        self._expect(TokenKind.LPAREN, "after the method name")
        params: list[str] = []
        if not self._check(TokenKind.RPAREN):
            params.append(self._expect(TokenKind.IDENT, "as a parameter name").text)
            while self._match(TokenKind.COMMA):
                params.append(
                    self._expect(TokenKind.IDENT, "as a parameter name").text
                )
        self._expect(TokenKind.RPAREN, "to close the parameter list")
        body = self._parse_block()
        return ast.MethodDecl(
            name=name,
            params=params,
            body=body,
            is_sync=is_sync,
            is_static=is_static,
            location=start,
        )

    # ------------------------------------------------------------------
    # Statements.

    def _parse_block(self) -> ast.Block:
        open_brace = self._expect(TokenKind.LBRACE, "to open a block")
        body = []
        while not self._check(TokenKind.RBRACE):
            body.append(self._parse_stmt())
        self._expect(TokenKind.RBRACE, "to close the block")
        return ast.Block(body=body, location=open_brace.location)

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.VAR:
            return self._parse_var_decl()
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.WHILE:
            return self._parse_while()
        if token.kind is TokenKind.SYNC:
            return self._parse_sync()
        if token.kind is TokenKind.START:
            self._advance()
            thread = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'start' statement")
            return ast.Start(thread=thread, location=token.location)
        if token.kind is TokenKind.JOIN:
            self._advance()
            thread = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'join' statement")
            return ast.Join(thread=thread, location=token.location)
        if token.kind is TokenKind.WAIT:
            self._advance()
            target = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'wait' statement")
            return ast.Wait(target=target, location=token.location)
        if token.kind in (TokenKind.NOTIFY, TokenKind.NOTIFYALL):
            self._advance()
            target = self._parse_expr()
            keyword = "notifyall" if token.kind is TokenKind.NOTIFYALL else "notify"
            self._expect(TokenKind.SEMI, f"after '{keyword}' statement")
            return ast.Notify(
                target=target,
                notify_all=token.kind is TokenKind.NOTIFYALL,
                location=token.location,
            )
        if token.kind is TokenKind.BARRIER:
            self._advance()
            target = self._parse_expr()
            self._expect(TokenKind.COMMA, "after the barrier expression")
            parties = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'barrier' statement")
            return ast.Barrier(
                target=target, parties=parties, location=token.location
            )
        if token.kind is TokenKind.RETURN:
            self._advance()
            value = None
            if not self._check(TokenKind.SEMI):
                value = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'return' statement")
            return ast.Return(value=value, location=token.location)
        if token.kind is TokenKind.PRINT:
            self._advance()
            value = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'print' statement")
            return ast.Print(value=value, location=token.location)
        if token.kind is TokenKind.ASSERT:
            self._advance()
            cond = self._parse_expr()
            self._expect(TokenKind.SEMI, "after 'assert' statement")
            return ast.Assert(cond=cond, location=token.location)
        return self._parse_assignment_or_call()

    def _parse_var_decl(self) -> ast.Stmt:
        keyword = self._advance()
        name = self._expect(TokenKind.IDENT, "after 'var'").text
        self._expect(TokenKind.ASSIGN, "after the variable name")
        init = self._parse_expr()
        self._expect(TokenKind.SEMI, "after variable declaration")
        return ast.VarDecl(name=name, init=init, location=keyword.location)

    def _parse_if(self) -> ast.Stmt:
        keyword = self._advance()
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "after the if condition")
        then_block = self._parse_block()
        else_block = None
        if self._match(TokenKind.ELSE):
            if self._check(TokenKind.IF):
                nested = self._parse_if()
                else_block = ast.Block(body=[nested], location=nested.location)
            else:
                else_block = self._parse_block()
        return ast.If(
            cond=cond,
            then_block=then_block,
            else_block=else_block,
            location=keyword.location,
        )

    def _parse_while(self) -> ast.Stmt:
        keyword = self._advance()
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "after the while condition")
        body = self._parse_block()
        return ast.While(cond=cond, body=body, location=keyword.location)

    def _parse_sync(self) -> ast.Stmt:
        keyword = self._advance()
        self._expect(TokenKind.LPAREN, "after 'sync'")
        lock = self._parse_expr()
        self._expect(TokenKind.RPAREN, "after the sync lock expression")
        body = self._parse_block()
        return ast.Sync(lock=lock, body=body, location=keyword.location)

    def _parse_assignment_or_call(self) -> ast.Stmt:
        start = self._peek().location
        target = self._parse_expr()
        if self._match(TokenKind.ASSIGN):
            value = self._parse_expr()
            self._expect(TokenKind.SEMI, "after assignment")
            return self._make_assignment(target, value, start)
        self._expect(TokenKind.SEMI, "after expression statement")
        if not isinstance(target, ast.Call):
            raise ParseError(
                "only calls may be used as expression statements", start
            )
        return ast.ExprStmt(expr=target, location=start)

    def _make_assignment(
        self, target: ast.Expr, value: ast.Expr, location
    ) -> ast.Stmt:
        """Reinterpret a parsed expression as the l-value of an assignment."""
        if isinstance(target, ast.VarRef):
            return ast.AssignLocal(name=target.name, value=value, location=location)
        if isinstance(target, ast.FieldRead):
            return ast.FieldWrite(
                obj=target.obj,
                field_name=target.field_name,
                value=value,
                location=location,
            )
        if isinstance(target, ast.ArrayRead):
            return ast.ArrayWrite(
                array=target.array,
                index=target.index,
                value=value,
                location=location,
            )
        raise ParseError("invalid assignment target", location)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing).

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_binary_level(self, kinds, next_level) -> ast.Expr:
        left = next_level()
        while self._peek().kind in kinds:
            op = self._advance()
            right = next_level()
            left = ast.Binary(
                op=op.text, left=left, right=right, location=op.location
            )
        return left

    def _parse_or(self) -> ast.Expr:
        return self._parse_binary_level({TokenKind.OR}, self._parse_and)

    def _parse_and(self) -> ast.Expr:
        return self._parse_binary_level({TokenKind.AND}, self._parse_equality)

    def _parse_equality(self) -> ast.Expr:
        return self._parse_binary_level(
            {TokenKind.EQ, TokenKind.NE}, self._parse_relational
        )

    def _parse_relational(self) -> ast.Expr:
        return self._parse_binary_level(
            {TokenKind.LT, TokenKind.LE, TokenKind.GT, TokenKind.GE},
            self._parse_additive,
        )

    def _parse_additive(self) -> ast.Expr:
        return self._parse_binary_level(
            {TokenKind.PLUS, TokenKind.MINUS}, self._parse_term
        )

    def _parse_term(self) -> ast.Expr:
        return self._parse_binary_level(
            {TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT},
            self._parse_unary,
        )

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in (TokenKind.NOT, TokenKind.MINUS):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(op=token.text, operand=operand, location=token.location)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._check(TokenKind.DOT):
                dot = self._advance()
                name = self._expect(TokenKind.IDENT, "after '.'").text
                if self._match(TokenKind.LPAREN):
                    args = self._parse_args()
                    expr = ast.Call(
                        receiver=expr,
                        method_name=name,
                        args=args,
                        location=dot.location,
                    )
                else:
                    expr = ast.FieldRead(
                        obj=expr, field_name=name, location=dot.location
                    )
            elif self._check(TokenKind.LBRACKET):
                bracket = self._advance()
                index = self._parse_expr()
                self._expect(TokenKind.RBRACKET, "after array index")
                expr = ast.ArrayRead(
                    array=expr, index=index, location=bracket.location
                )
            else:
                return expr

    def _parse_args(self) -> list[ast.Expr]:
        """Parse call arguments; the '(' has already been consumed."""
        args: list[ast.Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._parse_expr())
            while self._match(TokenKind.COMMA):
                args.append(self._parse_expr())
        self._expect(TokenKind.RPAREN, "to close the argument list")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return ast.IntLiteral(value=token.value, location=token.location)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(value=token.value, location=token.location)
        if token.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLiteral(value=True, location=token.location)
        if token.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLiteral(value=False, location=token.location)
        if token.kind is TokenKind.NULL:
            self._advance()
            return ast.NullLiteral(location=token.location)
        if token.kind is TokenKind.THIS:
            self._advance()
            return ast.ThisRef(location=token.location)
        if token.kind is TokenKind.NEW:
            self._advance()
            name = self._expect(TokenKind.IDENT, "after 'new'").text
            self._expect(TokenKind.LPAREN, "after the class name")
            args = self._parse_args()
            return ast.New(class_name=name, args=args, location=token.location)
        if token.kind is TokenKind.NEWARRAY:
            self._advance()
            self._expect(TokenKind.LPAREN, "after 'newarray'")
            size = self._parse_expr()
            self._expect(TokenKind.RPAREN, "after the array size")
            return ast.NewArray(size=size, location=token.location)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._match(TokenKind.LPAREN):
                args = self._parse_args()
                return ast.Call(
                    receiver=None,
                    method_name=token.text,
                    args=args,
                    location=token.location,
                )
            return ast.VarRef(name=token.text, location=token.location)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
            return expr
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.location
        )


#: The deepest nesting of statements and expressions (blocks do not
#: count) a program may have.  Every later phase — resolver, static
#: analyses, both engines — recurses over the AST, and this bound keeps
#: each of them well inside Python's default recursion limit, so a
#: deeper program is a parse error instead of a crash in some phase.
MAX_NESTING = 256


def parse(source: str, filename: str = "<input>") -> ast.Program:
    """Parse MJ source text into an unresolved :class:`Program`."""
    parser = Parser(tokenize(source, filename))
    try:
        program = parser.parse_program()
    except RecursionError:
        # Parenthesized nesting recurses through every precedence level.
        raise ParseError(
            "expression nested too deeply to parse", parser._peek().location
        ) from None
    _check_nesting(program)
    return program


def _nested_nodes(root: ast.Node):
    """Every node under ``root`` with its nesting depth: the statements
    and expressions (blocks do not count) on its path from ``root``.
    An explicit stack: a left-associative operator chain nests as deep
    as it is long without recursing in the parser."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (ast.Expr, ast.Stmt)) and type(node) is not ast.Block:
            depth += 1
        yield node, depth
        stack.extend((child, depth) for child in node.children())


def nesting_depth(root: ast.Node) -> int:
    """The deepest nesting of statements and expressions under ``root``."""
    return max(depth for _, depth in _nested_nodes(root))


def _check_nesting(program: ast.Program) -> None:
    """Raise :class:`ParseError` if ``program`` nests deeper than
    :data:`MAX_NESTING`."""
    for node, depth in _nested_nodes(program):
        if depth > MAX_NESTING:
            raise ParseError(
                f"program nested deeper than {MAX_NESTING} levels",
                node.location,
            )
