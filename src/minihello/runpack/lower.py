"""Lowering: checked package -> runpack image.

Deterministic by construction; every table is ordered by source order, so
compiling the same sources twice yields byte-identical images.
"""

from __future__ import annotations

from ..frontend import ast_nodes as A
from ..frontend.checker import CheckedPackage
from ..frontend.types import TArray, TClass, TPrim, Type
from . import ir
from .image import RunpackImage


class InternalLoweringError(Exception):
    """A node the checker should have rejected reached the lowering pass."""


CLASS_QUAL_BITS = {"external": ir.CQ_EXTERNAL, "group": ir.CQ_GROUP,
                   "public": ir.CQ_PUBLIC}
METHOD_QUAL_BITS = {"public": ir.MQ_PUBLIC, "static": ir.MQ_STATIC,
                    "external": ir.MQ_EXTERNAL, "message": ir.MQ_MESSAGE,
                    "iterator": ir.MQ_ITERATOR}

_BIN_OP = {"-": "sub", "*": "mul", "/": "div", "%": "mod",
           "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
           "==": "eq", "!=": "ne"}


def type_desc(ty: Type) -> ir.TypeDesc:
    depth = 0
    while isinstance(ty, TArray):
        depth += 1
        ty = ty.elem
    if isinstance(ty, TClass):
        return ir.TypeDesc("class", depth, ty.key)
    assert isinstance(ty, TPrim)
    base = "int" if ty.kind == "null" else ty.kind
    return ir.TypeDesc(base, depth)


class _Lowerer:
    def __init__(self, pkg: CheckedPackage):
        self.pkg = pkg
        self.constants: list[bytes] = []
        self._pool_index: dict[bytes, int] = {}

    def _pool(self, data: bytes) -> int:
        idx = self._pool_index.get(data)
        if idx is None:
            idx = len(self.constants)
            self.constants.append(data)
            self._pool_index[data] = idx
        return idx

    def run(self) -> RunpackImage:
        classes = []
        for name in self.pkg.class_order:
            decl = next(c for c in self.pkg.ast.classes if c.name == name)
            classes.append(self._lower_class(decl))
        return RunpackImage(self.pkg.name, classes, self.constants)

    def _lower_class(self, decl: A.ClassDecl) -> ir.ClassCode:
        sig = self.pkg.class_sigs[decl.name]
        quals = 0
        for q in decl.quals:
            quals |= CLASS_QUAL_BITS[q]
        fields = [(f.name, type_desc(sig.fields[f.name].ty)) for f in decl.fields]
        methods = [self._lower_method(decl, m) for m in decl.methods]
        return ir.ClassCode(decl.name, quals, fields, methods)

    def _lower_method(self, cls: A.ClassDecl, m: A.MethodDecl) -> ir.MethodCode:
        sig = self.pkg.class_sigs[cls.name].methods[m.name]
        quals = 0
        for q in m.quals:
            quals |= METHOD_QUAL_BITS[q]
        if m.is_ctor:
            quals |= ir.MQ_CTOR
        params = [ir.IrParam(p.name, type_desc(p.ty), p.copy) for p in sig.params]
        body = self._stmt(m.body)
        assert isinstance(body, ir.IrBlock)
        n_slots = m.n_slots if m.n_slots is not None else len(params)
        return ir.MethodCode(m.name, quals, params, type_desc(sig.ret),
                             sig.ret_copy, max(n_slots, len(params)), body)

    # -- statements --

    def _stmt(self, stmt: A.Stmt) -> ir.IrNode:
        if isinstance(stmt, A.Block):
            return ir.IrBlock([self._stmt(s) for s in stmt.stmts])
        if isinstance(stmt, A.VarDecl):
            init = self._expr(stmt.init) if stmt.init is not None else None
            return ir.IrVarDecl(stmt.slot, type_desc(stmt.declared), init)
        if isinstance(stmt, A.Assign):
            target = self._expr(stmt.target)
            op = {"set": "set", "int": {"+=": "addi", "-=": "subi"}.get(stmt.op, "addi"),
                  "concat": "concat"}[stmt.res_kind]
            return ir.IrAssign(target, op, self._expr(stmt.value))
        if isinstance(stmt, A.ExprStmt):
            return ir.IrExprStmt(self._expr(stmt.expr))
        if isinstance(stmt, A.If):
            other = self._stmt(stmt.other) if stmt.other is not None else None
            return ir.IrIf(self._expr(stmt.cond), self._stmt(stmt.then), other)
        if isinstance(stmt, A.While):
            return ir.IrWhile(self._expr(stmt.cond), self._stmt(stmt.body))
        if isinstance(stmt, A.For):
            init = self._stmt(stmt.init) if stmt.init is not None else None
            cond = self._expr(stmt.cond) if stmt.cond is not None else None
            step = self._stmt(stmt.step) if stmt.step is not None else None
            return ir.IrFor(init, cond, step, self._stmt(stmt.body))
        if isinstance(stmt, A.Return):
            value = self._expr(stmt.value) if stmt.value is not None else None
            return ir.IrReturn(value)
        if isinstance(stmt, A.MessagePost):
            return ir.IrPost(self._expr(stmt.queue), self._expr(stmt.target),
                             stmt.method, [self._expr(a) for a in stmt.args])
        if isinstance(stmt, A.Empty):
            return ir.IrNop()
        raise InternalLoweringError(f"unhandled statement {stmt!r}")

    # -- expressions --

    def _expr(self, expr: A.Expr) -> ir.IrNode:
        if isinstance(expr, A.IntLit):
            return ir.IrInt(expr.value)
        if isinstance(expr, A.BoolLit):
            return ir.IrBool(expr.value)
        if isinstance(expr, A.CharLit):
            return ir.IrChar(expr.code)
        if isinstance(expr, A.StrLit):
            return ir.IrStr(self._pool(expr.data))
        if isinstance(expr, A.NullLit):
            return ir.IrNull()
        if isinstance(expr, A.ThisExpr):
            return ir.IrThis()
        if isinstance(expr, A.ThisHostExpr):
            return ir.IrThisHost()
        if isinstance(expr, A.HostsExpr):
            return ir.IrHostsRoot()
        if isinstance(expr, A.NameRef):
            kind, payload = expr.res[0], expr.res[1]
            if kind == "local":
                return ir.IrLocal(payload)
            if kind == "field":
                return ir.IrFieldGet(ir.IrThis(), payload, expr.name)
            if kind == "enum":
                return ir.IrInt(payload)
            raise InternalLoweringError(f"unresolved name {expr.name}")
        if isinstance(expr, A.FieldAccess):
            return ir.IrFieldGet(self._expr(expr.obj), expr.res_index, expr.name)
        if isinstance(expr, A.Index):
            return ir.IrIndex(self._expr(expr.obj), self._expr(expr.index))
        if isinstance(expr, A.Unary):
            return ir.IrUn("neg" if expr.op == "-" else "not", self._expr(expr.operand))
        if isinstance(expr, A.Binary):
            left, right = self._expr(expr.left), self._expr(expr.right)
            if expr.op in ("&&", "||"):
                return ir.IrLogic("and" if expr.op == "&&" else "or", left, right)
            if expr.op == "+":
                return ir.IrBin("concat" if expr.res_kind == "concat" else "add",
                                left, right)
            return ir.IrBin(_BIN_OP[expr.op], left, right)
        if isinstance(expr, A.Ternary):
            return ir.IrTernary(self._expr(expr.cond), self._expr(expr.then),
                                self._expr(expr.other))
        if isinstance(expr, A.PostIncr):
            return ir.IrPostIncr(self._expr(expr.target), expr.delta)
        if isinstance(expr, A.Call):
            return self._call(expr)
        if isinstance(expr, A.NewObject):
            return ir.IrNew(expr.res_class.key, [self._expr(a) for a in expr.args])
        if isinstance(expr, A.CreateObject):
            host = self._expr(expr.host) if expr.host is not None else None
            return ir.IrCreate(host, expr.res_class.key,
                               [self._expr(a) for a in expr.args])
        if isinstance(expr, A.NewArray):
            return ir.IrNewArray(type_desc(expr.elem),
                                 [self._expr(d) for d in expr.dims])
        if isinstance(expr, A.QueuedEval):
            return ir.IrQueuedEval(self._expr(expr.queue), self._expr(expr.body))
        if isinstance(expr, A.GroupIterate):
            return ir.IrIterate(self._expr(expr.group), expr.method,
                                [self._expr(a) for a in expr.args])
        raise InternalLoweringError(f"unhandled expression {expr!r}")

    def _call(self, expr: A.Call) -> ir.IrNode:
        kind = expr.res[0]
        args = [self._expr(a) for a in expr.args]
        if kind == "builtin":
            return ir.IrCallBuiltin(expr.res[1].hook, args)
        if kind == "static":
            return ir.IrCallStatic(expr.res[1], expr.res[2].name, args)
        if kind == "method":
            if isinstance(expr.callee, A.FieldAccess):
                obj = self._expr(expr.callee.obj)
                method = expr.callee.name
            else:  # bare call on this
                obj = ir.IrThis()
                method = expr.callee.name
            return ir.IrCallMethod(obj, method, args)
        raise InternalLoweringError(f"unresolved call {expr!r}")


def compile_package(pkg: CheckedPackage) -> RunpackImage:
    return _Lowerer(pkg).run()
