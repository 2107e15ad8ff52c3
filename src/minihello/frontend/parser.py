"""Recursive-descent parser: token stream -> package AST.

Statements and primary expressions are parsed by recursive descent. Binary
expressions are parsed by one loop over a table of binding powers (Pratt,
"Top Down Operator Precedence", POPL 1973), so an operand costs the same
few calls whatever its operator's precedence.

Parsing a package is atomic: if any unit fails, no AST is produced. Errors
from all units are collected so the translator can report everything at once.
"""

from __future__ import annotations

from . import ast_nodes as A
from .diagnostics import FrontendError, Loc, ParseError, SourceErrors
from .lexer import SourceUnit, Token, tokenize
from .types import T_BOOL, T_CHAR, T_HOST, T_INT, T_QUEUE, T_VOID, TArray, TClass, Type
from ..values import ClassKey

_PRIM_TYPES = {"int": T_INT, "bool": T_BOOL, "char": T_CHAR, "void": T_VOID,
               "host": T_HOST, "queue": T_QUEUE}

_CLASS_QUALS = {"public", "external", "group"}
_MEMBER_QUALS = {"public", "static", "external", "message", "iterator"}

_ASSIGN_OPS = ("=", "+=", "-=")
_POSTFIX = frozenset({".", ".+", "[", "(", "++"})

# Binding powers of the binary operators, loosest first; all are
# left-associative.
_BINARY_BP = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4,
              ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}

# Two bounds turn deeply nested hostile input into a diagnostic instead of
# a blown interpreter stack, in the parser or in the passes after it.
# MAX_EXPR_DEPTH bounds expressions nested in parentheses, brackets and
# arguments, for which the parser recurses about five calls deep.
# MAX_NESTING bounds how deep the tree grows. Every nested statement,
# expression, ternary branch and unary operator adds a level, and so does
# every binary or postfix operator of a chain, which the parser reads in a
# loop but which makes a left-deep tree. The levels of a chain are counted
# while its later operands are parsed, so the tree is at most twice
# MAX_NESTING deep, which the checker walks well within the recursion limit
# that het and hee set.
MAX_EXPR_DEPTH = 48
MAX_NESTING = 2048


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.last = len(tokens) - 1  # the eof token, which advance never passes
        self.pos = 0
        self.depth = 0    # expressions nested in brackets, for MAX_EXPR_DEPTH
        self.nesting = 0  # tree levels, for MAX_NESTING

    # -- token plumbing --

    def peek(self, k: int = 0) -> Token:
        if k:
            return self.tokens[min(self.pos + k, self.last)]
        return self.tokens[self.pos]

    def at(self, kind: str, k: int = 0) -> bool:
        return (self.peek(k) if k else self.tokens[self.pos]).kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise ParseError(tok.loc, f"expected {want}, found {self._show(tok)}")
        self.pos += 1  # never past eof: no caller expects "eof"
        return tok

    def _nest(self) -> None:
        """Go one tree level deeper; the caller steps back out."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(self.peek().loc, "nesting too deep")

    @staticmethod
    def _show(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of file"
        if tok.kind in ("ident", "int", "string", "charlit"):
            return f"{tok.kind} '{tok.text or tok.value}'"
        return f"'{tok.kind}'"

    # -- unit structure --

    def parse_unit(self) -> tuple[str, list[A.ClassDecl]]:
        if not self.at("package"):
            raise ParseError(self.peek().loc,
                             "source unit must begin with a package directive",
                             code="MissingPackageDirective")
        self.advance()
        name = self.expect("ident", "package name").text
        self.expect(";")
        classes = []
        while not self.at("eof"):
            classes.append(self.parse_class())
        return name, classes

    def parse_class(self) -> A.ClassDecl:
        loc = self.peek().loc
        quals = self._parse_quals(_CLASS_QUALS, "class")
        self.expect("class")
        name = self.expect("ident", "class name").text
        self.expect("{")
        fields: list[A.FieldDecl] = []
        methods: list[A.MethodDecl] = []
        enums: list[A.EnumEntry] = []
        while not self.at("}"):
            self._parse_member(name, fields, methods, enums)
        self.expect("}")
        if self.at(";"):
            self.advance()
        return A.ClassDecl(loc, name, quals, fields, methods, enums)

    def _parse_quals(self, allowed: set[str], where: str) -> frozenset[str]:
        quals = set()
        while self.peek().kind in allowed:
            tok = self.advance()
            if tok.kind in quals:
                raise ParseError(tok.loc, f"duplicate qualifier '{tok.kind}'")
            quals.add(tok.kind)
        return frozenset(quals)

    def _parse_member(self, class_name: str, fields, methods, enums) -> None:
        loc = self.peek().loc
        if self.at("enum"):
            self.advance()
            self.expect("{")
            while True:
                eloc = self.peek().loc
                ename = self.expect("ident", "enum constant name").text
                self.expect("=")
                expr = self.parse_expr()
                enums.append(A.EnumEntry(eloc, ename, expr))
                if self.at(","):
                    self.advance()
                    continue
                break
            self.expect("}")
            if self.at(";"):
                self.advance()
            return
        quals = self._parse_quals(_MEMBER_QUALS, "member")
        # Constructor: the class name immediately followed by '('.
        if self.at("ident") and self.peek().text == class_name and self.at("(", 1):
            name_tok = self.advance()
            params = self._parse_params()
            body = self.parse_block()
            decl = A.MethodDecl(loc, name_tok.text, quals, params, T_VOID, False, body, is_ctor=True)
            methods.append(decl)
            return
        ret_copy = False
        if self.at("copy"):
            self.advance()
            ret_copy = True
        declared = self.parse_type()
        name = self.expect("ident", "member name").text
        if self.at("("):
            params = self._parse_params()
            body = self.parse_block()
            methods.append(A.MethodDecl(loc, name, quals, params, declared, ret_copy, body))
        else:
            self.expect(";")
            if ret_copy:
                raise ParseError(loc, "'copy' applies to method return types, not fields")
            fields.append(A.FieldDecl(loc, name, declared, quals))

    def _parse_params(self) -> list[A.ParamDecl]:
        self.expect("(")
        params: list[A.ParamDecl] = []
        if not self.at(")"):
            while True:
                ploc = self.peek().loc
                copy = False
                if self.at("copy"):
                    self.advance()
                    copy = True
                declared = self.parse_type()
                pname = self.expect("ident", "parameter name").text
                params.append(A.ParamDecl(ploc, pname, declared, copy))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        return params

    # -- types --

    def parse_type(self) -> Type:
        tok = self.peek()
        if tok.kind in _PRIM_TYPES:
            self.advance()
            base = _PRIM_TYPES[tok.kind]
        elif tok.kind == "ident":
            self.advance()
            base = TClass(ClassKey("", tok.text))  # package resolved by the checker
        else:
            raise ParseError(tok.loc, f"expected a type, found {self._show(tok)}")
        while self.at("[") and self.at("]", 1):
            self.advance()
            self.advance()
            base = TArray(base)
        return base

    def _looks_like_decl(self) -> bool:
        """Statement starts with a type: prim keyword, or ident [[]]* ident."""
        if self.peek().kind in _PRIM_TYPES:
            return True
        if not self.at("ident"):
            return False
        k = 1
        while self.at("[", k) and self.at("]", k + 1):
            k += 2
        return self.at("ident", k)

    # -- statements --

    def parse_block(self) -> A.Block:
        loc = self.expect("{").loc
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return A.Block(loc, stmts)

    def parse_stmt(self) -> A.Stmt:
        self._nest()
        stmt = self._parse_stmt()
        self.nesting -= 1
        return stmt

    def _parse_stmt(self) -> A.Stmt:
        tok = self.peek()
        if tok.kind == "{":
            return self.parse_block()
        if tok.kind == ";":
            self.advance()
            return A.Empty(tok.loc)
        if tok.kind == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            other = None
            if self.at("else"):
                self.advance()
                other = self.parse_stmt()
            return A.If(tok.loc, cond, then, other)
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return A.While(tok.loc, cond, self.parse_stmt())
        if tok.kind == "for":
            self.advance()
            self.expect("(")
            init = None if self.at(";") else self._parse_simple_stmt()
            self.expect(";")
            cond = None if self.at(";") else self.parse_expr()
            self.expect(";")
            step = None if self.at(")") else self._parse_simple_stmt()
            self.expect(")")
            return A.For(tok.loc, init, cond, step, self.parse_stmt())
        if tok.kind == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return A.Return(tok.loc, value)
        stmt = self._parse_simple_stmt()
        self.expect(";")
        return stmt

    def _parse_simple_stmt(self) -> A.Stmt:
        """Declaration, assignment, message post, or expression (no trailing ';')."""
        loc = self.peek().loc
        if self._looks_like_decl():
            declared = self.parse_type()
            name = self.expect("ident", "variable name").text
            init = None
            if self.at("="):
                self.advance()
                init = self.parse_expr()
            return A.VarDecl(loc, declared, name, init)
        expr = self.parse_expr()
        nxt = self.peek()
        if nxt.kind in _ASSIGN_OPS:
            self.advance()
            if not isinstance(expr, (A.NameRef, A.FieldAccess, A.Index)):
                raise ParseError(nxt.loc, "left side of assignment is not assignable")
            return A.Assign(loc, expr, nxt.kind, self.parse_expr())
        if nxt.kind == "#>":
            self.advance()
            self.expect("(")
            target = self.parse_expr()
            self.expect(",")
            method = self.expect("ident", "message method name").text
            self.expect("(")
            args = self._parse_args()
            self.expect(")")
            return A.MessagePost(loc, expr, target, method, args)
        return A.ExprStmt(loc, expr)

    # -- expressions --

    def _parse_args(self) -> list[A.Expr]:
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        return args

    def parse_expr(self) -> A.Expr:
        if self.depth >= MAX_EXPR_DEPTH:
            raise ParseError(self.peek().loc, "expression nesting too deep")
        self.depth += 1
        self._nest()
        left = self._parse_ternary()
        if self.at("<=>"):
            loc = self.advance().loc
            left = A.QueuedEval(loc, left, self._parse_ternary())
        self.depth -= 1
        self.nesting -= 1
        return left

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(1)
        if not self.at("?"):
            return cond
        loc = self.advance().loc
        self._nest()
        then = self._parse_ternary()
        self.expect(":")
        other = self._parse_ternary()
        self.nesting -= 1
        return A.Ternary(loc, cond, then, other)

    def _parse_binary(self, min_bp: int) -> A.Expr:
        """Operands joined by operators that bind at least `min_bp`."""
        left = self._parse_unary()
        chain = 0
        while True:
            tok = self.tokens[self.pos]
            bp = _BINARY_BP.get(tok.kind)
            if bp is None or bp < min_bp:
                break
            self.pos += 1
            chain += 1
            self._nest()
            left = A.Binary(tok.loc, tok.kind, left, self._parse_binary(bp + 1))
        self.nesting -= chain
        return left

    def _parse_unary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "-" or tok.kind == "!":
            self.pos += 1
            self._nest()
            operand = self._parse_unary()
            self.nesting -= 1
            return A.Unary(tok.loc, tok.kind, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        chain = 0
        while True:
            tok = self.tokens[self.pos]
            if tok.kind not in _POSTFIX:
                self.nesting -= chain
                return expr
            chain += 1
            self._nest()
            if tok.kind == ".":
                self.advance()
                name = self.expect("ident", "member name").text
                expr = A.FieldAccess(tok.loc, expr, name)
            elif tok.kind == ".+":
                self.advance()
                method = self.expect("ident", "iterator method name").text
                self.expect("(")
                args = self._parse_args()
                expr = A.GroupIterate(tok.loc, expr, method, args)
            elif tok.kind == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = A.Index(tok.loc, expr, index)
            elif tok.kind == "(":
                if not isinstance(expr, (A.NameRef, A.FieldAccess)):
                    raise ParseError(tok.loc, "expression is not callable")
                self.advance()
                args = self._parse_args()
                expr = A.Call(tok.loc, expr, args)
            else:  # "++"
                self.advance()
                expr = self._make_post_incr(expr, tok.loc, +1)

    @staticmethod
    def _make_post_incr(target: A.Expr, loc: Loc, delta: int) -> A.Expr:
        if not isinstance(target, (A.NameRef, A.FieldAccess, A.Index)):
            raise ParseError(loc, "'++' needs an assignable operand")
        return A.PostIncr(loc, target, delta)

    def _parse_primary(self) -> A.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return A.NameRef(tok.loc, tok.text)
        if tok.kind == "int":
            self.advance()
            return A.IntLit(tok.loc, tok.value)
        if tok.kind == "string":
            self.advance()
            return A.StrLit(tok.loc, tok.value)
        if tok.kind == "charlit":
            self.advance()
            return A.CharLit(tok.loc, tok.value)
        if tok.kind == "true" or tok.kind == "false":
            self.advance()
            return A.BoolLit(tok.loc, tok.kind == "true")
        if tok.kind == "null":
            self.advance()
            return A.NullLit(tok.loc)
        if tok.kind == "this":
            self.advance()
            return A.ThisExpr(tok.loc)
        if tok.kind == "this_host":
            self.advance()
            return A.ThisHostExpr(tok.loc)
        if tok.kind == "hosts":
            self.advance()
            return A.HostsExpr(tok.loc)
        if tok.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "new":
            self.advance()
            name = self._expect_class_name()
            self.expect("(")
            args = self._parse_args()
            return A.NewObject(tok.loc, name, args)
        if tok.kind == "create":
            return self._parse_create(self.advance().loc)
        raise ParseError(tok.loc, f"expected an expression, found {self._show(tok)}")

    def _expect_class_name(self) -> str:
        tok = self.peek()
        if tok.kind == "ident" or tok.kind in ("queue", "host"):
            self.advance()
            return tok.text
        raise ParseError(tok.loc, f"expected a class name, found {self._show(tok)}")

    def _parse_create(self, loc: Loc) -> A.Expr:
        host = None
        if self.at("("):
            self.advance()
            host = self.parse_expr()
            self.expect(")")
        tok = self.peek()
        if tok.kind in _PRIM_TYPES and tok.kind not in ("queue", "host"):
            # Array creation: create char[n] or create char[n][m].
            if host is not None:
                raise ParseError(loc, "array creation does not take a placement host")
            self.advance()
            elem = _PRIM_TYPES[tok.kind]
            dims = []
            self.expect("[")
            dims.append(self.parse_expr())
            self.expect("]")
            if self.at("[") and not self.at("]", 1):
                self.advance()
                dims.append(self.parse_expr())
                self.expect("]")
            return A.NewArray(loc, elem, dims)
        name = self._expect_class_name()
        if self.at("["):
            if host is not None:
                raise ParseError(loc, "array creation does not take a placement host")
            dims = []
            self.advance()
            dims.append(self.parse_expr())
            self.expect("]")
            if self.at("[") and not self.at("]", 1):
                self.advance()
                dims.append(self.parse_expr())
                self.expect("]")
            return A.NewArray(loc, TClass(ClassKey("", name)), dims)
        self.expect("(")
        args = self._parse_args()
        return A.CreateObject(loc, host, name, args)


def parse_unit(unit: SourceUnit) -> tuple[str, list[A.ClassDecl]]:
    tokens = tokenize(unit)
    return _Parser(tokens).parse_unit()


def parse_package(units: list[SourceUnit]) -> A.PackageAst:
    """Parse all units into one package AST, atomically.

    Any unit failure aborts the whole parse; diagnostics from every failing
    unit are aggregated into a SourceErrors.
    """
    if not units:
        raise SourceErrors([])
    results = []
    errors = []
    for unit in units:
        try:
            results.append((unit, parse_unit(unit)))
        except FrontendError as exc:
            errors.append(exc.to_diagnostic())
    if errors:
        raise SourceErrors(errors)
    pkg_name = results[0][1][0]
    classes: list[A.ClassDecl] = []
    seen: dict[str, Loc] = {}
    for unit, (name, decls) in results:
        if name != pkg_name:
            raise ParseError(Loc(unit.path, 1, 1),
                             f"package name '{name}' does not match '{pkg_name}'",
                             code="PackageNameMismatch")
        for decl in decls:
            if decl.name in seen:
                raise ParseError(decl.loc, f"duplicate class '{decl.name}'")
            seen[decl.name] = decl.loc
            classes.append(decl)
    first_loc = Loc(units[0].path, 1, 1)
    return A.PackageAst(first_loc, pkg_name, classes)
