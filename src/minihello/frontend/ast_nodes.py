"""Abstract syntax for a source package.

Every node carries its source location. The checker sets each expression
node's `ty` to its static type; it leaves the tree otherwise as parsed and
returns what it resolves in the IR it emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Loc
from .types import Type


@dataclass
class Node:
    loc: Loc


@dataclass
class Expr(Node):
    ty: Type | None = field(default=None, init=False, compare=False)


# --- expressions -----------------------------------------------------------

@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class CharLit(Expr):
    code: int


@dataclass
class StrLit(Expr):
    data: bytes


@dataclass
class NullLit(Expr):
    pass


@dataclass
class NameRef(Expr):
    name: str


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class ThisHostExpr(Expr):
    pass


@dataclass
class HostsExpr(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    obj: Expr
    name: str


@dataclass
class Index(Expr):
    obj: Expr
    index: Expr


@dataclass
class Unary(Expr):
    op: str  # '-' | '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / % < <= > >= == != && ||
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class PostIncr(Expr):
    target: Expr  # NameRef | FieldAccess | Index
    delta: int    # +1 or -1


@dataclass
class Call(Expr):
    callee: Expr  # NameRef (bare) or FieldAccess (method)
    args: list[Expr]


@dataclass
class NewObject(Expr):
    class_name: str
    args: list[Expr]


@dataclass
class CreateObject(Expr):
    host: Expr | None  # None = local host's default partition
    class_name: str
    args: list[Expr]


@dataclass
class NewArray(Expr):
    elem: Type  # element type of the innermost dimension
    dims: list[Expr]  # 1 or 2 dimensions


@dataclass
class QueuedEval(Expr):
    queue: Expr
    body: Expr


@dataclass
class GroupIterate(Expr):
    group: Expr
    method: str
    args: list[Expr]


# --- statements ------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt]


@dataclass
class VarDecl(Stmt):
    declared: Type
    name: str
    init: Expr | None


@dataclass
class Assign(Stmt):
    target: Expr  # NameRef | FieldAccess | Index
    op: str       # '=' | '+=' | '-='
    value: Expr


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Stmt | None
    body: Stmt


@dataclass
class Return(Stmt):
    value: Expr | None


@dataclass
class MessagePost(Stmt):
    queue: Expr
    target: Expr
    method: str
    args: list[Expr]


@dataclass
class Empty(Stmt):
    pass


# --- declarations ----------------------------------------------------------

@dataclass
class ParamDecl(Node):
    name: str
    declared: Type
    copy: bool


@dataclass
class EnumEntry(Node):
    name: str
    expr: Expr


@dataclass
class FieldDecl(Node):
    name: str
    declared: Type
    quals: frozenset[str]


@dataclass
class MethodDecl(Node):
    name: str
    quals: frozenset[str]
    params: list[ParamDecl]
    ret: Type
    ret_copy: bool
    body: Block
    is_ctor: bool = False


@dataclass
class ClassDecl(Node):
    name: str
    quals: frozenset[str]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    enums: list[EnumEntry]


@dataclass
class PackageAst(Node):
    name: str
    classes: list[ClassDecl]
