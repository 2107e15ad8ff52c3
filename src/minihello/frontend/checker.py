"""Static checker: name resolution, typing, and qualifier rules.

The checker annotates the AST in place (expression types, resolved slots,
field indices, call targets) and returns a CheckedPackage the lowering pass
consumes. All failures raise CheckError with one of the stable codes
TypeError, UnknownName, QualifierError.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import ast_nodes as A
from .diagnostics import CheckError, Diagnostic, Loc
from .types import (
    T_BOOL, T_CHAR, T_HOST, T_INT, T_NULL, T_QUEUE, T_STRING, T_VOID,
    ClassSig, FieldSig, MethodSig, ParamSig, TArray, TClass, Type, assignable,
    is_reference,
)
from .. import stdlib  # a module: stdlib imports this package too
from ..values import ClassKey


@dataclass
class CheckedPackage:
    name: str
    ast: A.PackageAst
    class_sigs: dict[str, ClassSig]
    class_order: list[str]
    main: tuple[str, str] | None  # (class name, method name)
    warnings: list[Diagnostic] = dc_field(default_factory=list)


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

    # -- entry point --

    def run(self) -> CheckedPackage:
        self._collect_signatures()
        for decl in self.ast.classes:
            self._check_class(decl)
        return CheckedPackage(self.package, self.ast, self.sigs,
                              [c.name for c in self.ast.classes], self.main, self.warnings)

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
        expr.ty = T_INT
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.Unary) and expr.op == "-":
            return -self._fold_const(expr.operand, sig)
        if isinstance(expr, A.Binary):
            left = self._fold_const(expr.left, sig)
            right = self._fold_const(expr.right, sig)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if right == 0:
                    raise _err(expr.loc, "TypeError", "division by zero in constant")
                return int(left / right)
            if expr.op == "%":
                if right == 0:
                    raise _err(expr.loc, "TypeError", "division by zero in constant")
                return left - int(left / right) * right
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

    def _check_class(self, decl: A.ClassDecl) -> None:
        sig = self.sigs[decl.name]
        for m in decl.methods:
            self._check_method(sig, m)

    def _check_method(self, sig: ClassSig, m: A.MethodDecl) -> None:
        ctx = _MethodCtx(sig, sig.methods[m.name])
        for p, psig in zip(m.params, ctx.sig.params):
            ctx.declare(p.loc, p.name, psig.ty)
        self._check_block(ctx, m.body)
        m.n_slots = ctx.next_slot

    def _check_block(self, ctx: _MethodCtx, block: A.Block) -> None:
        ctx.push()
        for stmt in block.stmts:
            self._check_stmt(ctx, stmt)
        ctx.pop()

    def _check_stmt(self, ctx: _MethodCtx, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self._check_block(ctx, stmt)
        elif isinstance(stmt, A.VarDecl):
            ty = self._resolve_type(stmt.declared, stmt.loc)
            if ty == T_VOID:
                raise _err(stmt.loc, "TypeError", "variable cannot have type void")
            stmt.declared = ty
            if stmt.init is not None:
                ity = self._check_expr(ctx, stmt.init)
                if not assignable(ty, ity):
                    raise _err(stmt.loc, "TypeError",
                               f"cannot initialize {ty} from {ity}")
            stmt.slot = ctx.declare(stmt.loc, stmt.name, ty)
        elif isinstance(stmt, A.Assign):
            self._check_assign(ctx, stmt)
        elif isinstance(stmt, A.ExprStmt):
            self._check_expr(ctx, stmt.expr)
        elif isinstance(stmt, A.If):
            self._require(ctx, stmt.cond, T_BOOL, "if condition")
            self._check_stmt(ctx, stmt.then)
            if stmt.other is not None:
                self._check_stmt(ctx, stmt.other)
        elif isinstance(stmt, A.While):
            self._require(ctx, stmt.cond, T_BOOL, "while condition")
            self._check_stmt(ctx, stmt.body)
        elif isinstance(stmt, A.For):
            ctx.push()
            if stmt.init is not None:
                self._check_stmt(ctx, stmt.init)
            if stmt.cond is not None:
                self._require(ctx, stmt.cond, T_BOOL, "for condition")
            if stmt.step is not None:
                self._check_stmt(ctx, stmt.step)
            self._check_stmt(ctx, stmt.body)
            ctx.pop()
        elif isinstance(stmt, A.Return):
            want = ctx.sig.ret
            if stmt.value is None:
                if want != T_VOID:
                    raise _err(stmt.loc, "TypeError", f"return needs a value of type {want}")
            else:
                got = self._check_expr(ctx, stmt.value)
                if want == T_VOID:
                    raise _err(stmt.loc, "TypeError", "void method cannot return a value")
                if not assignable(want, got):
                    raise _err(stmt.loc, "TypeError", f"cannot return {got} as {want}")
        elif isinstance(stmt, A.MessagePost):
            self._check_post(ctx, stmt)
        elif isinstance(stmt, A.Empty):
            pass
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def _check_assign(self, ctx: _MethodCtx, stmt: A.Assign) -> None:
        tty = self._check_lvalue(ctx, stmt.target)
        vty = self._check_expr(ctx, stmt.value)
        if stmt.op == "=":
            if not assignable(tty, vty):
                raise _err(stmt.loc, "TypeError", f"cannot assign {vty} to {tty}")
            stmt.res_kind = "set"
        elif stmt.op == "+=":
            if tty == T_INT and vty == T_INT:
                stmt.res_kind = "int"
            elif tty == T_STRING and vty == T_STRING:
                stmt.res_kind = "concat"
            else:
                raise _err(stmt.loc, "TypeError", f"'+=' not defined for {tty} and {vty}")
        elif stmt.op == "-=":
            if tty != T_INT or vty != T_INT:
                raise _err(stmt.loc, "TypeError", f"'-=' not defined for {tty} and {vty}")
            stmt.res_kind = "int"

    def _check_lvalue(self, ctx: _MethodCtx, expr: A.Expr) -> Type:
        if isinstance(expr, A.NameRef):
            ty = self._check_expr(ctx, expr)
            if expr.res is not None and expr.res[0] == "enum":
                raise _err(expr.loc, "TypeError", "enum constant is not assignable")
            return ty
        if isinstance(expr, (A.FieldAccess, A.Index)):
            return self._check_expr(ctx, expr)
        raise _err(expr.loc, "TypeError", "expression is not assignable")

    def _require(self, ctx: _MethodCtx, expr: A.Expr, want: Type, what: str) -> None:
        got = self._check_expr(ctx, expr)
        if got != want:
            raise _err(expr.loc, "TypeError", f"{what} must be {want}, found {got}")

    # -- expressions --

    def _check_expr(self, ctx: _MethodCtx, expr: A.Expr) -> Type:
        ty = self._infer(ctx, expr)
        expr.ty = ty
        return ty

    def _infer(self, ctx: _MethodCtx, expr: A.Expr) -> Type:
        if isinstance(expr, A.IntLit):
            return T_INT
        if isinstance(expr, A.BoolLit):
            return T_BOOL
        if isinstance(expr, A.CharLit):
            return T_CHAR
        if isinstance(expr, A.StrLit):
            return T_STRING
        if isinstance(expr, A.NullLit):
            return T_NULL
        if isinstance(expr, A.ThisExpr):
            if ctx.static:
                raise _err(expr.loc, "TypeError", "'this' is not available in a static method")
            return TClass(ctx.cls.key)
        if isinstance(expr, A.ThisHostExpr):
            return T_HOST
        if isinstance(expr, A.HostsExpr):
            return TClass(stdlib.BUILTIN_CLASSES["host_group"].key)
        if isinstance(expr, A.NameRef):
            return self._infer_name(ctx, expr)
        if isinstance(expr, A.FieldAccess):
            return self._infer_field(ctx, expr)
        if isinstance(expr, A.Index):
            oty = self._check_expr(ctx, expr.obj)
            if not isinstance(oty, TArray):
                raise _err(expr.loc, "TypeError", f"cannot index {oty}")
            self._require(ctx, expr.index, T_INT, "array index")
            return oty.elem
        if isinstance(expr, A.Unary):
            return self._infer_unary(ctx, expr)
        if isinstance(expr, A.Binary):
            return self._infer_binary(ctx, expr)
        if isinstance(expr, A.Ternary):
            self._require(ctx, expr.cond, T_BOOL, "condition")
            t1 = self._check_expr(ctx, expr.then)
            t2 = self._check_expr(ctx, expr.other)
            if t1 == t2:
                return t1
            if t1 == T_NULL and is_reference(t2):
                return t2
            if t2 == T_NULL and is_reference(t1):
                return t1
            raise _err(expr.loc, "TypeError", f"ternary branches disagree: {t1} vs {t2}")
        if isinstance(expr, A.PostIncr):
            tty = self._check_lvalue(ctx, expr.target)
            if tty != T_INT:
                raise _err(expr.loc, "TypeError", "'++' needs an int operand")
            return T_INT
        if isinstance(expr, A.Call):
            return self._infer_call(ctx, expr)
        if isinstance(expr, A.NewObject):
            cls = self._resolve_class_name(expr.class_name, expr.loc)
            if cls.builtin:
                raise _err(expr.loc, "QualifierError",
                           f"builtin class '{cls.key.name}' cannot be created with new")
            self._check_ctor_args(ctx, expr.loc, cls, expr.args)
            expr.res_class = cls
            return TClass(cls.key)
        if isinstance(expr, A.CreateObject):
            return self._infer_create(ctx, expr)
        if isinstance(expr, A.NewArray):
            elem = self._resolve_type(expr.elem, expr.loc)
            if elem == T_VOID:
                raise _err(expr.loc, "TypeError", "array element cannot be void")
            expr.elem = elem
            for dim in expr.dims:
                self._require(ctx, dim, T_INT, "array dimension")
            ty: Type = TArray(elem)
            if len(expr.dims) == 2:
                ty = TArray(ty)
            return ty
        if isinstance(expr, A.QueuedEval):
            qty = self._check_expr(ctx, expr.queue)
            if qty != T_QUEUE:
                raise _err(expr.loc, "TypeError", f"'<=>' needs a queue, found {qty}")
            return self._check_expr(ctx, expr.body)
        if isinstance(expr, A.GroupIterate):
            return self._infer_iterate(ctx, expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _infer_name(self, ctx: _MethodCtx, expr: A.NameRef) -> Type:
        hit = ctx.scope.lookup(expr.name)
        if hit is not None:
            slot, ty = hit
            expr.res = ("local", slot)
            return ty
        if not ctx.static and expr.name in ctx.cls.fields:
            fsig = ctx.cls.fields[expr.name]
            expr.res = ("field", fsig.index)
            return fsig.ty
        if expr.name in ctx.cls.enums:
            expr.res = ("enum", ctx.cls.enums[expr.name])
            return T_INT
        raise _err(expr.loc, "UnknownName", f"unknown name '{expr.name}'")

    def _infer_field(self, ctx: _MethodCtx, expr: A.FieldAccess) -> Type:
        oty = self._check_expr(ctx, expr.obj)
        cls = self._class_for(oty)
        if cls is None:
            raise _err(expr.loc, "TypeError", f"{oty} has no fields")
        fsig = cls.fields.get(expr.name)
        if fsig is None:
            raise _err(expr.loc, "UnknownName",
                       f"class '{cls.key.name}' has no field '{expr.name}'")
        expr.res_index = fsig.index
        return fsig.ty

    def _infer_unary(self, ctx: _MethodCtx, expr: A.Unary) -> Type:
        oty = self._check_expr(ctx, expr.operand)
        if expr.op == "-":
            if oty != T_INT:
                raise _err(expr.loc, "TypeError", f"unary '-' needs int, found {oty}")
            return T_INT
        if oty != T_BOOL:
            raise _err(expr.loc, "TypeError", f"'!' needs bool, found {oty}")
        return T_BOOL

    def _infer_binary(self, ctx: _MethodCtx, expr: A.Binary) -> Type:
        lty = self._check_expr(ctx, expr.left)
        rty = self._check_expr(ctx, expr.right)
        op = expr.op
        if op == "+":
            if lty == T_INT and rty == T_INT:
                expr.res_kind = "int"
                return T_INT
            if lty == T_STRING and rty == T_STRING:
                expr.res_kind = "concat"
                return T_STRING
            raise _err(expr.loc, "TypeError", f"'+' not defined for {lty} and {rty}")
        if op in ("-", "*", "/", "%"):
            if lty == T_INT and rty == T_INT:
                return T_INT
            raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
        if op in ("<", "<=", ">", ">="):
            if lty == rty and lty in (T_INT, T_CHAR):
                return T_BOOL
            raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
        if op in ("==", "!="):
            ok = (lty == rty and lty in (T_INT, T_CHAR, T_BOOL)) \
                or (lty == rty and isinstance(lty, TClass)) \
                or (lty == T_NULL and is_reference(rty)) \
                or (rty == T_NULL and is_reference(lty)) \
                or (lty == T_NULL and rty == T_NULL)
            if not ok:
                raise _err(expr.loc, "TypeError", f"'{op}' not defined for {lty} and {rty}")
            return T_BOOL
        if op in ("&&", "||"):
            if lty == T_BOOL and rty == T_BOOL:
                return T_BOOL
            raise _err(expr.loc, "TypeError", f"'{op}' needs bool operands")
        raise AssertionError(f"unhandled operator {op}")

    # -- calls --

    def _check_args(self, ctx: _MethodCtx, loc: Loc, what: str,
                    params, args: list[A.Expr]) -> None:
        if len(args) != len(params):
            raise _err(loc, "TypeError",
                       f"{what} takes {len(params)} argument(s), got {len(args)}")
        for psig, arg in zip(params, args):
            aty = self._check_expr(ctx, arg)
            want = psig.ty if isinstance(psig, ParamSig) else psig
            if want is None:  # polymorphic (any array)
                if not isinstance(aty, TArray):
                    raise _err(arg.loc, "TypeError", f"expected an array, found {aty}")
                continue
            if not assignable(want, aty):
                raise _err(arg.loc, "TypeError", f"expected {want}, found {aty}")

    def _check_ctor_args(self, ctx: _MethodCtx, loc: Loc, cls: ClassSig,
                         args: list[A.Expr]) -> None:
        ctor = cls.methods.get(cls.key.name)
        params = ctor.params if ctor is not None else ()
        self._check_args(ctx, loc, f"constructor of '{cls.key.name}'", params, args)

    def _infer_call(self, ctx: _MethodCtx, expr: A.Call) -> Type:
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
            self._check_args(ctx, expr.loc, f"'{callee.name}'", msig.params, expr.args)
            expr.res = ("static", cls.key, msig)
            callee.ty = msig.ret
            return msig.ret
        oty = self._check_expr(ctx, callee.obj)
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
        self._check_args(ctx, expr.loc, f"'{callee.name}'", msig.params, expr.args)
        expr.res = ("method", cls.key, msig)
        callee.ty = msig.ret
        return msig.ret

    def _infer_bare_call(self, ctx: _MethodCtx, expr: A.Call, callee: A.NameRef) -> Type:
        name = callee.name
        if ctx.scope.lookup(name) is not None or name in ctx.cls.fields:
            raise _err(expr.loc, "TypeError", f"'{name}' is not callable")
        msig = ctx.cls.methods.get(name)
        if msig is not None and not msig.is_ctor:
            if not msig.has("static") and ctx.static:
                raise _err(expr.loc, "TypeError",
                           f"cannot call instance method '{name}' from a static method")
            self._check_args(ctx, expr.loc, f"'{name}'", msig.params, expr.args)
            kind = "static" if msig.has("static") else "method"
            expr.res = (kind, ctx.cls.key, msig)
            callee.ty = msig.ret
            return msig.ret
        fsig = stdlib.BUILTIN_FUNCS.get(name)
        if fsig is not None:
            self._check_args(ctx, expr.loc, f"'{name}'", fsig.params, expr.args)
            expr.res = ("builtin", fsig)
            callee.ty = fsig.ret
            return fsig.ret
        raise _err(expr.loc, "UnknownName", f"unknown function '{name}'")

    def _infer_create(self, ctx: _MethodCtx, expr: A.CreateObject) -> Type:
        if expr.host is not None:
            hty = self._check_expr(ctx, expr.host)
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
        self._check_ctor_args(ctx, expr.loc, cls, expr.args)
        expr.res_class = cls
        return TClass(cls.key)

    def _infer_iterate(self, ctx: _MethodCtx, expr: A.GroupIterate) -> Type:
        gty = self._check_expr(ctx, expr.group)
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
        self._check_args(ctx, expr.loc, f"'{expr.method}'", msig.params, expr.args)
        expr.res_sig = msig
        return T_VOID

    def _check_post(self, ctx: _MethodCtx, stmt: A.MessagePost) -> None:
        qty = self._check_expr(ctx, stmt.queue)
        if qty != T_QUEUE:
            raise _err(stmt.loc, "TypeError", f"'#>' needs a queue, found {qty}")
        tty = self._check_expr(ctx, stmt.target)
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
        self._check_args(ctx, stmt.loc, f"'{stmt.method}'", msig.params, stmt.args)
        stmt.res_sig = msig


def check(ast: A.PackageAst) -> CheckedPackage:
    return Checker(ast).run()
