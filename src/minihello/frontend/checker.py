"""Static checker and IR emitter: name resolution, typing, qualifier rules,
and the typed IR of every method body, in one walk.

Each expression check sets the node's static type (`Expr.ty`) and returns
the IR node it compiles to, each statement check returns its IR statement,
so `check` returns a CheckedPackage that already holds the lowered classes
and the constant pool; `runpack.compile_package` only wraps them in an
image. Every table is in source order, so compiling the same sources twice
yields byte-identical images. All failures raise CheckError with one of the
stable codes TypeError, UnknownName, QualifierError.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import ast_nodes as A
from .diagnostics import CheckError, Diagnostic, Loc
from .types import (
    T_BOOL, T_CHAR, T_HOST, T_INT, T_NULL, T_QUEUE, T_STRING, T_VOID,
    ClassSig, FieldSig, MethodSig, ParamSig, TArray, TClass, TPrim, Type,
    assignable, is_reference,
)
from .. import stdlib  # a module: stdlib imports this package too
from ..runpack import ir
from ..values import ClassKey, div_i64, mod_i64, wrap_i64


@dataclass
class CheckedPackage:
    name: str
    ast: A.PackageAst
    class_sigs: dict[str, ClassSig]
    main: tuple[str, str] | None  # (class name, method name)
    classes: list[ir.ClassCode]   # in source order
    constants: list[bytes]        # the constant pool
    warnings: list[Diagnostic] = dc_field(default_factory=list)


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


def method_code(sig: MethodSig, n_slots: int, body: ir.IrBlock) -> ir.MethodCode:
    quals = sum(METHOD_QUAL_BITS[q] for q in sig.quals)
    if sig.is_ctor:
        quals |= ir.MQ_CTOR
    params = [ir.IrParam(p.name, type_desc(p.ty), p.copy) for p in sig.params]
    return ir.MethodCode(sig.name, quals, params, type_desc(sig.ret), sig.ret_copy,
                         n_slots, body)


def class_code(sig: ClassSig, methods: list[ir.MethodCode]) -> ir.ClassCode:
    return ir.ClassCode(sig.key.name, sum(CLASS_QUAL_BITS[q] for q in sig.quals),
                        [(f.name, type_desc(f.ty)) for f in sig.fields.values()],
                        methods)


def _err(loc: Loc, code: str, msg: str) -> CheckError:
    return CheckError(loc, code, msg)


class _Scope:
    def __init__(self, parent: "_Scope | None"):
        self.parent = parent
        self.names: dict[str, tuple[int, Type]] = {}

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _MethodCtx:
    def __init__(self, cls: ClassSig, sig: MethodSig):
        self.cls = cls
        self.sig = sig
        self.static = sig.has("static")
        self.next_slot = 0
        self.scope = _Scope(None)

    def declare(self, loc: Loc, name: str, ty: Type) -> int:
        if name in self.scope.names:
            raise _err(loc, "UnknownName", f"'{name}' already declared in this scope")
        slot = self.next_slot
        self.next_slot += 1
        self.scope.names[name] = (slot, ty)
        return slot

    def push(self):
        self.scope = _Scope(self.scope)

    def pop(self):
        self.scope = self.scope.parent


class Checker:
    def __init__(self, ast: A.PackageAst):
        self.ast = ast
        self.package = ast.name
        self.sigs: dict[str, ClassSig] = {}
        self.warnings: list[Diagnostic] = []
        self.main: tuple[str, str] | None = None
        # Each string literal's bytes and IR node, in the order the constant
        # pool numbers them (see _number_later_first).
        self.strings: list[tuple[bytes, ir.IrStr]] = []

    # -- entry point --

    def run(self) -> CheckedPackage:
        self._collect_signatures()
        classes = [self._check_class(decl) for decl in self.ast.classes]
        pool: dict[bytes, int] = {}
        for data, node in self.strings:
            node.pool = pool.setdefault(data, len(pool))
        return CheckedPackage(self.package, self.ast, self.sigs, self.main,
                              classes, list(pool), self.warnings)

    def _number_later_first(self, start: int, mid: int) -> None:
        """Number the strings met since `mid` before those met from `start`
        to `mid`. The pool numbers a method call's arguments before its
        receiver, and an if's else branch before its condition and then
        branch: the order images have always had, so that the same sources
        keep compiling to the same bytes and content hash."""
        strings = self.strings
        strings[start:] = strings[mid:] + strings[start:mid]

    # -- signature collection --

    def _collect_signatures(self) -> None:
        for decl in self.ast.classes:
            if decl.name in stdlib.BUILTIN_CLASSES:
                raise _err(decl.loc, "QualifierError",
                           f"'{decl.name}' is a builtin class and cannot be redefined")
            sig = ClassSig(ClassKey(self.package, decl.name), decl.quals)
            self.sigs[decl.name] = sig
        for decl in self.ast.classes:
            sig = self.sigs[decl.name]
            self._fold_enums(decl, sig)
            for f in decl.fields:
                if f.name in sig.fields:
                    raise _err(f.loc, "UnknownName", f"duplicate field '{f.name}'")
                ty = self._resolve_type(f.declared, f.loc)
                if ty == T_VOID:
                    raise _err(f.loc, "TypeError", "field cannot have type void")
                sig.fields[f.name] = FieldSig(f.name, ty, len(sig.fields))
            for m in decl.methods:
                self._collect_method(decl, sig, m)

    def _collect_method(self, decl: A.ClassDecl, sig: ClassSig, m: A.MethodDecl) -> None:
        if m.name in sig.methods:
            raise _err(m.loc, "UnknownName", f"duplicate method '{m.name}'")
        if m.name in sig.fields:
            raise _err(m.loc, "UnknownName", f"'{m.name}' already declared as a field")
        params = []
        for p in m.params:
            pty = self._resolve_type(p.declared, p.loc)
            if pty == T_VOID:
                raise _err(p.loc, "TypeError", "parameter cannot have type void")
            if p.copy and not isinstance(pty, (TArray, TClass)):
                raise _err(p.loc, "QualifierError",
                           "'copy' applies only to array or object parameters")
            params.append(ParamSig(p.name, pty, p.copy))
        ret = self._resolve_type(m.ret, m.loc)
        msig = MethodSig(m.name, m.quals, tuple(params), ret, m.ret_copy, m.is_ctor)
        # Qualifier rules.
        if msig.has("iterator") and not sig.is_group:
            raise _err(m.loc, "QualifierError",
                       "'iterator' methods may appear only in 'group' classes")
        if msig.has("external") and not sig.is_external:
            raise _err(m.loc, "QualifierError",
                       "'external' methods may appear only in 'external' classes")
        if msig.has("message") and ret != T_VOID:
            raise _err(m.loc, "QualifierError", "'message' methods must return void")
        if m.is_ctor and (msig.has("static") or msig.has("message") or msig.has("iterator")):
            raise _err(m.loc, "QualifierError", "constructor has an invalid qualifier")
        if m.ret_copy and not isinstance(ret, (TArray, TClass)):
            raise _err(m.loc, "QualifierError",
                       "'copy' applies only to array or object return types")
        if m.name == "main" and not m.is_ctor:
            self._note_main(decl, m, msig)
        sig.methods[m.name] = msig

    def _note_main(self, decl: A.ClassDecl, m: A.MethodDecl, msig: MethodSig) -> None:
        form_args = (msig.ret == T_INT and len(msig.params) == 1
                     and msig.params[0].ty == TArray(T_STRING))
        form_void = msig.ret == T_VOID and len(msig.params) == 0
        if not (msig.has("static") and msig.has("public") and (form_args or form_void)):
            raise _err(m.loc, "QualifierError",
                       "main must be 'static public int main(char[][] argv)' "
                       "or 'static public void main()'")
        if self.main is not None:
            raise _err(m.loc, "QualifierError", "package already has a main")
        self.main = (decl.name, m.name)

    def _fold_enums(self, decl: A.ClassDecl, sig: ClassSig) -> None:
        for entry in decl.enums:
            if entry.name in sig.enums:
                raise _err(entry.loc, "UnknownName", f"duplicate enum constant '{entry.name}'")
            sig.enums[entry.name] = self._fold_const(entry.expr, sig)

    def _fold_const(self, expr: A.Expr, sig: ClassSig) -> int:
        """An enum value, folded as compiled code computes it: wrapping to
        64 bits, with `/` and `%` truncated toward zero."""
        expr.ty = T_INT
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.Unary) and expr.op == "-":
            return wrap_i64(-self._fold_const(expr.operand, sig))
        if isinstance(expr, A.Binary):
            left = self._fold_const(expr.left, sig)
            right = self._fold_const(expr.right, sig)
            if expr.op == "+":
                return wrap_i64(left + right)
            if expr.op == "-":
                return wrap_i64(left - right)
            if expr.op == "*":
                return wrap_i64(left * right)
            if expr.op in ("/", "%"):
                if right == 0:
                    raise _err(expr.loc, "TypeError", "division by zero in constant")
                return (div_i64 if expr.op == "/" else mod_i64)(left, right)
        if isinstance(expr, A.NameRef) and expr.name in sig.enums:
            return sig.enums[expr.name]
        raise _err(expr.loc, "TypeError", "enum value must be a constant integer expression")

    # -- type resolution --

    def _resolve_type(self, ty: Type, loc: Loc) -> Type:
        if isinstance(ty, TArray):
            return TArray(self._resolve_type(ty.elem, loc))
        if isinstance(ty, TClass) and ty.key.package == "":
            name = ty.key.name
            if name in self.sigs:
                return TClass(self.sigs[name].key)
            if name in stdlib.BUILTIN_CLASSES:
                return TClass(stdlib.BUILTIN_CLASSES[name].key)
            raise _err(loc, "UnknownName", f"unknown type '{name}'")
        return ty

    def _class_for(self, ty: Type) -> ClassSig | None:
        if not isinstance(ty, TClass):
            return None
        if ty.key.package == self.package:
            return self.sigs.get(ty.key.name)
        return stdlib.BUILTIN_CLASSES.get(ty.key.name)

    def _resolve_class_name(self, name: str, loc: Loc) -> ClassSig:
        """Exact lookup, then the unique case-insensitive fallback (with a warning)."""
        if name in self.sigs:
            return self.sigs[name]
        if name in stdlib.BUILTIN_CLASSES:
            return stdlib.BUILTIN_CLASSES[name]
        folded = [c for c in list(self.sigs) + list(stdlib.BUILTIN_CLASSES)
                  if c.lower() == name.lower()]
        if len(folded) == 1:
            self.warnings.append(Diagnostic(
                loc, "warning", "NameCase",
                f"no class '{name}'; assuming '{folded[0]}'"))
            target = folded[0]
            return self.sigs.get(target) or stdlib.BUILTIN_CLASSES[target]
        raise _err(loc, "UnknownName", f"unknown class '{name}'")

    # -- class and method bodies --

    def _check_class(self, decl: A.ClassDecl) -> ir.ClassCode:
        sig = self.sigs[decl.name]
        return class_code(sig, [self._check_method(sig, m) for m in decl.methods])

    def _check_method(self, sig: ClassSig, m: A.MethodDecl) -> ir.MethodCode:
        ctx = _MethodCtx(sig, sig.methods[m.name])
        for p, psig in zip(m.params, ctx.sig.params):
            ctx.declare(p.loc, p.name, psig.ty)
        body = self._check_block(ctx, m.body)
        return method_code(ctx.sig, ctx.next_slot, body)

    def _check_block(self, ctx: _MethodCtx, block: A.Block) -> ir.IrBlock:
        ctx.push()
        stmts = [self._check_stmt(ctx, stmt) for stmt in block.stmts]
        ctx.pop()
        return ir.IrBlock(stmts)

    def _check_stmt(self, ctx: _MethodCtx, stmt: A.Stmt) -> ir.IrNode:
        if isinstance(stmt, A.Block):
            return self._check_block(ctx, stmt)
        if isinstance(stmt, A.VarDecl):
            ty = self._resolve_type(stmt.declared, stmt.loc)
            if ty == T_VOID:
                raise _err(stmt.loc, "TypeError", "variable cannot have type void")
            init = None
            if stmt.init is not None:
                init, ity = self._check_expr(ctx, stmt.init)
                if not assignable(ty, ity):
                    raise _err(stmt.loc, "TypeError",
                               f"cannot initialize {ty} from {ity}")
            return ir.IrVarDecl(ctx.declare(stmt.loc, stmt.name, ty), type_desc(ty), init)
        if isinstance(stmt, A.Assign):
            return self._check_assign(ctx, stmt)
        if isinstance(stmt, A.ExprStmt):
            return ir.IrExprStmt(self._check_expr(ctx, stmt.expr)[0])
        if isinstance(stmt, A.If):
            start = len(self.strings)
            cond = self._require(ctx, stmt.cond, T_BOOL, "if condition")
            then = self._check_stmt(ctx, stmt.then)
            if stmt.other is None:
                return ir.IrIf(cond, then, None)
            mid = len(self.strings)
            other = self._check_stmt(ctx, stmt.other)
            self._number_later_first(start, mid)
            return ir.IrIf(cond, then, other)
        if isinstance(stmt, A.While):
            cond = self._require(ctx, stmt.cond, T_BOOL, "while condition")
            return ir.IrWhile(cond, self._check_stmt(ctx, stmt.body))
        if isinstance(stmt, A.For):
            ctx.push()
            init = cond = step = None
            if stmt.init is not None:
                init = self._check_stmt(ctx, stmt.init)
            if stmt.cond is not None:
                cond = self._require(ctx, stmt.cond, T_BOOL, "for condition")
            if stmt.step is not None:
                step = self._check_stmt(ctx, stmt.step)
            body = self._check_stmt(ctx, stmt.body)
            ctx.pop()
            return ir.IrFor(init, cond, step, body)
        if isinstance(stmt, A.Return):
            want = ctx.sig.ret
            if stmt.value is None:
                if want != T_VOID:
                    raise _err(stmt.loc, "TypeError", f"return needs a value of type {want}")
                return ir.IrReturn(None)
            value, got = self._check_expr(ctx, stmt.value)
            if want == T_VOID:
                raise _err(stmt.loc, "TypeError", "void method cannot return a value")
            if not assignable(want, got):
                raise _err(stmt.loc, "TypeError", f"cannot return {got} as {want}")
            return ir.IrReturn(value)
        if isinstance(stmt, A.MessagePost):
            return self._check_post(ctx, stmt)
        if isinstance(stmt, A.Empty):
            return ir.IrNop()
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _check_assign(self, ctx: _MethodCtx, stmt: A.Assign) -> ir.IrAssign:
        target, tty = self._check_lvalue(ctx, stmt.target)
        value, vty = self._check_expr(ctx, stmt.value)
        if stmt.op == "=":
            if not assignable(tty, vty):
                raise _err(stmt.loc, "TypeError", f"cannot assign {vty} to {tty}")
            op = "set"
        elif stmt.op == "+=":
            if tty == T_INT and vty == T_INT:
                op = "addi"
            elif tty == T_STRING and vty == T_STRING:
                op = "concat"
            else:
                raise _err(stmt.loc, "TypeError", f"'+=' not defined for {tty} and {vty}")
        else:  # "-="
            if tty != T_INT or vty != T_INT:
                raise _err(stmt.loc, "TypeError", f"'-=' not defined for {tty} and {vty}")
            op = "subi"
        return ir.IrAssign(target, op, value)

    def _check_lvalue(self, ctx: _MethodCtx, expr: A.Expr) -> tuple[ir.IrNode, Type]:
        if not isinstance(expr, (A.NameRef, A.FieldAccess, A.Index)):
            raise _err(expr.loc, "TypeError", "expression is not assignable")
        node, ty = self._check_expr(ctx, expr)
        if isinstance(node, ir.IrInt):  # a name that is an enum constant
            raise _err(expr.loc, "TypeError", "enum constant is not assignable")
        return node, ty

    def _require(self, ctx: _MethodCtx, expr: A.Expr, want: Type, what: str) -> ir.IrNode:
        node, got = self._check_expr(ctx, expr)
        if got != want:
            raise _err(expr.loc, "TypeError", f"{what} must be {want}, found {got}")
        return node

    # -- expressions --

    def _check_expr(self, ctx: _MethodCtx, expr: A.Expr) -> tuple[ir.IrNode, Type]:
        node, ty = self._infer(ctx, expr)
        expr.ty = ty
        return node, ty

    def _infer(self, ctx: _MethodCtx, expr: A.Expr) -> tuple[ir.IrNode, Type]:
        if isinstance(expr, A.IntLit):
            return ir.IrInt(expr.value), T_INT
        if isinstance(expr, A.BoolLit):
            return ir.IrBool(expr.value), T_BOOL
        if isinstance(expr, A.CharLit):
            return ir.IrChar(expr.code), T_CHAR
        if isinstance(expr, A.StrLit):
            node = ir.IrStr(0)  # numbered in run()
            self.strings.append((expr.data, node))
            return node, T_STRING
        if isinstance(expr, A.NullLit):
            return ir.IrNull(), T_NULL
        if isinstance(expr, A.ThisExpr):
            if ctx.static:
                raise _err(expr.loc, "TypeError", "'this' is not available in a static method")
            return ir.IrThis(), TClass(ctx.cls.key)
        if isinstance(expr, A.ThisHostExpr):
            return ir.IrThisHost(), T_HOST
        if isinstance(expr, A.HostsExpr):
            return ir.IrHostsRoot(), TClass(stdlib.BUILTIN_CLASSES["host_group"].key)
        if isinstance(expr, A.NameRef):
            return self._infer_name(ctx, expr)
        if isinstance(expr, A.FieldAccess):
            return self._infer_field(ctx, expr)
        if isinstance(expr, A.Index):
            obj, oty = self._check_expr(ctx, expr.obj)
            if not isinstance(oty, TArray):
                raise _err(expr.loc, "TypeError", f"cannot index {oty}")
            index = self._require(ctx, expr.index, T_INT, "array index")
            return ir.IrIndex(obj, index), oty.elem
        if isinstance(expr, A.Unary):
            return self._infer_unary(ctx, expr)
        if isinstance(expr, A.Binary):
            return self._infer_binary(ctx, expr)
        if isinstance(expr, A.Ternary):
            cond = self._require(ctx, expr.cond, T_BOOL, "condition")
            then, t1 = self._check_expr(ctx, expr.then)
            other, t2 = self._check_expr(ctx, expr.other)
            node = ir.IrTernary(cond, then, other)
            if t1 == t2:
                return node, t1
            if t1 == T_NULL and is_reference(t2):
                return node, t2
            if t2 == T_NULL and is_reference(t1):
                return node, t1
            raise _err(expr.loc, "TypeError", f"ternary branches disagree: {t1} vs {t2}")
        if isinstance(expr, A.PostIncr):
            target, tty = self._check_lvalue(ctx, expr.target)
            if tty != T_INT:
                raise _err(expr.loc, "TypeError", "'++' needs an int operand")
            return ir.IrPostIncr(target, expr.delta), T_INT
        if isinstance(expr, A.Call):
            return self._infer_call(ctx, expr)
        if isinstance(expr, A.NewObject):
            cls = self._resolve_class_name(expr.class_name, expr.loc)
            if cls.builtin:
                raise _err(expr.loc, "QualifierError",
                           f"builtin class '{cls.key.name}' cannot be created with new")
            args = self._check_ctor_args(ctx, expr.loc, cls, expr.args)
            return ir.IrNew(cls.key, args), TClass(cls.key)
        if isinstance(expr, A.CreateObject):
            return self._infer_create(ctx, expr)
        if isinstance(expr, A.NewArray):
            elem = self._resolve_type(expr.elem, expr.loc)
            if elem == T_VOID:
                raise _err(expr.loc, "TypeError", "array element cannot be void")
            dims = [self._require(ctx, dim, T_INT, "array dimension") for dim in expr.dims]
            ty: Type = TArray(elem)
            if len(expr.dims) == 2:
                ty = TArray(ty)
            return ir.IrNewArray(type_desc(elem), dims), ty
        if isinstance(expr, A.QueuedEval):
            queue, qty = self._check_expr(ctx, expr.queue)
            if qty != T_QUEUE:
                raise _err(expr.loc, "TypeError", f"'<=>' needs a queue, found {qty}")
            body, ty = self._check_expr(ctx, expr.body)
            return ir.IrQueuedEval(queue, body), ty
        if isinstance(expr, A.GroupIterate):
            return self._infer_iterate(ctx, expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _infer_name(self, ctx: _MethodCtx, expr: A.NameRef) -> tuple[ir.IrNode, Type]:
        hit = ctx.scope.lookup(expr.name)
        if hit is not None:
            slot, ty = hit
            return ir.IrLocal(slot), ty
        if not ctx.static and expr.name in ctx.cls.fields:
            fsig = ctx.cls.fields[expr.name]
            return ir.IrFieldGet(ir.IrThis(), fsig.index, expr.name), fsig.ty
        if expr.name in ctx.cls.enums:
            return ir.IrInt(ctx.cls.enums[expr.name]), T_INT
        raise _err(expr.loc, "UnknownName", f"unknown name '{expr.name}'")

    def _infer_field(self, ctx: _MethodCtx, expr: A.FieldAccess) -> tuple[ir.IrNode, Type]:
        obj, oty = self._check_expr(ctx, expr.obj)
        cls = self._class_for(oty)
        if cls is None:
            raise _err(expr.loc, "TypeError", f"{oty} has no fields")
        fsig = cls.fields.get(expr.name)
        if fsig is None:
            raise _err(expr.loc, "UnknownName",
                       f"class '{cls.key.name}' has no field '{expr.name}'")
        return ir.IrFieldGet(obj, fsig.index, expr.name), fsig.ty

    def _infer_unary(self, ctx: _MethodCtx, expr: A.Unary) -> tuple[ir.IrNode, Type]:
        operand, oty = self._check_expr(ctx, expr.operand)
        if expr.op == "-":
            if oty != T_INT:
                raise _err(expr.loc, "TypeError", f"unary '-' needs int, found {oty}")
            return ir.IrUn("neg", operand), T_INT
        if oty != T_BOOL:
            raise _err(expr.loc, "TypeError", f"'!' needs bool, found {oty}")
        return ir.IrUn("not", operand), T_BOOL

    def _infer_binary(self, ctx: _MethodCtx, expr: A.Binary) -> tuple[ir.IrNode, Type]:
        left, lty = self._check_expr(ctx, expr.left)
        right, rty = self._check_expr(ctx, expr.right)
        op = expr.op
        if op == "+":
            if lty == T_INT and rty == T_INT:
                return ir.IrBin("add", left, right), T_INT
            if lty == T_STRING and rty == T_STRING:
                return ir.IrBin("concat", left, right), T_STRING
            raise _err(expr.loc, "TypeError", f"'+' not defined for {lty} and {rty}")
        if op in ("&&", "||"):
            if lty == T_BOOL and rty == T_BOOL:
                return ir.IrLogic("and" if op == "&&" else "or", left, right), T_BOOL
            raise _err(expr.loc, "TypeError", f"'{op}' needs bool operands")
        node = ir.IrBin(_BIN_OP[op], left, right)
        if op in ("-", "*", "/", "%"):
            if lty == T_INT and rty == T_INT:
                return node, T_INT
            raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
        if op in ("<", "<=", ">", ">="):
            if lty == rty and lty in (T_INT, T_CHAR):
                return node, T_BOOL
            raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
        # == and !=
        ok = (lty == rty and lty in (T_INT, T_CHAR, T_BOOL)) \
            or (lty == rty and isinstance(lty, TClass)) \
            or (lty == T_NULL and is_reference(rty)) \
            or (rty == T_NULL and is_reference(lty)) \
            or (lty == T_NULL and rty == T_NULL)
        if not ok:
            raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
        return node, T_BOOL

    # -- calls --

    def _check_args(self, ctx: _MethodCtx, loc: Loc, what: str,
                    params, args: list[A.Expr]) -> list[ir.IrNode]:
        if len(args) != len(params):
            raise _err(loc, "TypeError",
                       f"{what} takes {len(params)} argument(s), got {len(args)}")
        nodes = []
        for psig, arg in zip(params, args):
            node, aty = self._check_expr(ctx, arg)
            nodes.append(node)
            want = psig.ty if isinstance(psig, ParamSig) else psig
            if want is None:  # polymorphic (any array)
                if not isinstance(aty, TArray):
                    raise _err(arg.loc, "TypeError", f"expected an array, found {aty}")
                continue
            if not assignable(want, aty):
                raise _err(arg.loc, "TypeError", f"expected {want}, found {aty}")
        return nodes

    def _check_ctor_args(self, ctx: _MethodCtx, loc: Loc, cls: ClassSig,
                         args: list[A.Expr]) -> list[ir.IrNode]:
        ctor = cls.methods.get(cls.key.name)
        params = ctor.params if ctor is not None else ()
        return self._check_args(ctx, loc, f"constructor of '{cls.key.name}'", params, args)

    def _infer_call(self, ctx: _MethodCtx, expr: A.Call) -> tuple[ir.IrNode, Type]:
        callee = expr.callee
        if isinstance(callee, A.NameRef):
            return self._infer_bare_call(ctx, expr, callee)
        assert isinstance(callee, A.FieldAccess)
        # Static call through a class name.
        if isinstance(callee.obj, A.NameRef) and ctx.scope.lookup(callee.obj.name) is None \
                and callee.obj.name not in ctx.cls.fields \
                and (callee.obj.name in self.sigs
                     or callee.obj.name in stdlib.BUILTIN_CLASSES):
            cls = (self.sigs.get(callee.obj.name)
                   or stdlib.BUILTIN_CLASSES[callee.obj.name])
            msig = cls.methods.get(callee.name)
            if msig is None:
                raise _err(expr.loc, "UnknownName",
                           f"class '{cls.key.name}' has no method '{callee.name}'")
            if not msig.has("static"):
                raise _err(expr.loc, "TypeError",
                           f"'{callee.name}' is not static")
            callee.obj.ty = TClass(cls.key)
            args = self._check_args(ctx, expr.loc, f"'{callee.name}'", msig.params, expr.args)
            callee.ty = msig.ret
            return ir.IrCallStatic(cls.key, callee.name, args), msig.ret
        start = len(self.strings)
        obj, oty = self._check_expr(ctx, callee.obj)
        cls = self._class_for(oty)
        if cls is None:
            raise _err(expr.loc, "TypeError", f"{oty} has no methods")
        msig = cls.methods.get(callee.name)
        if msig is None:
            raise _err(expr.loc, "UnknownName",
                       f"class '{cls.key.name}' has no method '{callee.name}'")
        if msig.has("static"):
            raise _err(expr.loc, "TypeError",
                       f"static method '{callee.name}' called on an instance")
        # An external-class instance may live on another host, so only its
        # external methods are callable through a reference; instances of
        # non-external classes can never be remote (their refs cannot cross
        # hosts), so local method calls on them are fine.
        if not msig.has("external") and cls.is_external \
                and not isinstance(callee.obj, A.ThisExpr):
            raise _err(expr.loc, "QualifierError",
                       f"method '{callee.name}' is not external and may only be "
                       "invoked on 'this'")
        mid = len(self.strings)
        args = self._check_args(ctx, expr.loc, f"'{callee.name}'", msig.params, expr.args)
        self._number_later_first(start, mid)
        callee.ty = msig.ret
        return ir.IrCallMethod(obj, callee.name, args), msig.ret

    def _infer_bare_call(self, ctx: _MethodCtx, expr: A.Call,
                         callee: A.NameRef) -> tuple[ir.IrNode, Type]:
        name = callee.name
        if ctx.scope.lookup(name) is not None or name in ctx.cls.fields:
            raise _err(expr.loc, "TypeError", f"'{name}' is not callable")
        msig = ctx.cls.methods.get(name)
        if msig is not None and not msig.is_ctor:
            if not msig.has("static") and ctx.static:
                raise _err(expr.loc, "TypeError",
                           f"cannot call instance method '{name}' from a static method")
            args = self._check_args(ctx, expr.loc, f"'{name}'", msig.params, expr.args)
            callee.ty = msig.ret
            if msig.has("static"):
                return ir.IrCallStatic(ctx.cls.key, name, args), msig.ret
            return ir.IrCallMethod(ir.IrThis(), name, args), msig.ret
        fsig = stdlib.BUILTIN_FUNCS.get(name)
        if fsig is not None:
            args = self._check_args(ctx, expr.loc, f"'{name}'", fsig.params, expr.args)
            callee.ty = fsig.ret
            return ir.IrCallBuiltin(fsig.hook, args), fsig.ret
        raise _err(expr.loc, "UnknownName", f"unknown function '{name}'")

    def _infer_create(self, ctx: _MethodCtx, expr: A.CreateObject) -> tuple[ir.IrNode, Type]:
        host = None
        if expr.host is not None:
            host, hty = self._check_expr(ctx, expr.host)
            if hty != T_HOST:
                raise _err(expr.loc, "TypeError",
                           f"create placement must be a host, found {hty}")
        cls = self._resolve_class_name(expr.class_name, expr.loc)
        if cls.builtin and cls.key.name != "queue":
            raise _err(expr.loc, "QualifierError",
                       f"builtin class '{cls.key.name}' cannot be created")
        if expr.host is not None and not cls.is_external:
            raise _err(expr.loc, "QualifierError",
                       f"class '{cls.key.name}' is not external and cannot be "
                       "created on another host")
        args = self._check_ctor_args(ctx, expr.loc, cls, expr.args)
        return ir.IrCreate(host, cls.key, args), TClass(cls.key)

    def _infer_iterate(self, ctx: _MethodCtx, expr: A.GroupIterate) -> tuple[ir.IrNode, Type]:
        group, gty = self._check_expr(ctx, expr.group)
        cls = self._class_for(gty)
        if cls is None or not cls.is_group:
            raise _err(expr.loc, "QualifierError",
                       f"'.+' needs a group class instance, found {gty}")
        msig = cls.methods.get(expr.method)
        if msig is None:
            raise _err(expr.loc, "UnknownName",
                       f"group class '{cls.key.name}' has no method '{expr.method}'")
        if not msig.has("iterator"):
            raise _err(expr.loc, "QualifierError",
                       f"'{expr.method}' is not an iterator method")
        args = self._check_args(ctx, expr.loc, f"'{expr.method}'", msig.params, expr.args)
        return ir.IrIterate(group, expr.method, args), T_VOID

    def _check_post(self, ctx: _MethodCtx, stmt: A.MessagePost) -> ir.IrPost:
        queue, qty = self._check_expr(ctx, stmt.queue)
        if qty != T_QUEUE:
            raise _err(stmt.loc, "TypeError", f"'#>' needs a queue, found {qty}")
        target, tty = self._check_expr(ctx, stmt.target)
        cls = self._class_for(tty)
        if cls is None:
            raise _err(stmt.loc, "TypeError", f"{tty} has no methods")
        msig = cls.methods.get(stmt.method)
        if msig is None:
            raise _err(stmt.loc, "UnknownName",
                       f"class '{cls.key.name}' has no method '{stmt.method}'")
        if not msig.has("message"):
            raise _err(stmt.loc, "QualifierError",
                       f"'{stmt.method}' is not a 'message' method")
        if not msig.has("external") and cls.is_external \
                and not isinstance(stmt.target, A.ThisExpr):
            raise _err(stmt.loc, "QualifierError",
                       f"method '{stmt.method}' is not external and may only be "
                       "posted to 'this'")
        args = self._check_args(ctx, stmt.loc, f"'{stmt.method}'", msig.params, stmt.args)
        return ir.IrPost(queue, target, stmt.method, args)


def check(ast: A.PackageAst) -> CheckedPackage:
    return Checker(ast).run()
