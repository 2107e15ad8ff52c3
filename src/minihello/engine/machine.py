"""Closure compiler for runpack IR (Feeley & Lapalme, "Using Closures for
Code Generation", 1987).

The engine compiles a method body into nested Python closures the first
time the method runs, and caches the result on the method's RuntimeClass.
Every closure takes the engine and the Frame as its arguments and captures
only the IR, so one compiled body serves any host.

Most nodes cannot suspend: literals, locals, arithmetic, comparisons, array
access, `create T[n]`, intrinsic calls, `#>` and the control flow built from
them. They compile to plain functions. A node that may wait on a network
future compiles to a generator function that yields only the futures the
engine yields: field access (the object may live on another host), method
calls, `new` and `create (h)`, `<=>` and `.+`. A parent is a generator only
when one of its children is. Each compile function returns a pair
(fn, suspends), so the parent knows which children to `yield from`.

Expressions return their value. Statements return None to fall through to
the next statement, or a one-element tuple holding the method's result once
a `return` has run. Integer arithmetic wraps at 64 bits; division by zero
and out-of-range indexing raise engine faults.
"""

from __future__ import annotations

import operator

from ..errors import (E_ARITHMETIC, E_INDEX, E_NULL_REF, EngineError)
from ..runpack import ir
from ..values import (Array, Char, CharArray, TAG_ARRAY, TAG_BOOL, TAG_INT,
                      TAG_OBJECT, values_equal)


class Frame:
    __slots__ = ("this_ref", "locals", "consts", "ctx")

    def __init__(self, this_ref, locals_, consts, ctx):
        self.this_ref = this_ref
        self.locals = locals_
        self.consts = consts
        self.ctx = ctx


def default_value(ty: ir.TypeDesc):
    if ty.depth > 0 or ty.base == "class":
        return None
    if ty.base == "int":
        return 0
    if ty.base == "bool":
        return False
    if ty.base == "char":
        return Char(0)
    return None


def _as_int(v) -> int:
    if isinstance(v, Char):
        return v.code
    return v


def _array_elem_tag(ty: ir.TypeDesc) -> int:
    if ty.depth > 0:
        return TAG_ARRAY
    if ty.base == "int":
        return TAG_INT
    if ty.base == "bool":
        return TAG_BOOL
    return TAG_OBJECT


def new_array(elem: ir.TypeDesc, dims: list[int]):
    for d in dims:
        if d < 0:
            raise EngineError(E_INDEX, f"negative array size {d}")
    if len(dims) == 1:
        if elem.depth == 0 and elem.base == "char":
            return CharArray.wrap(bytearray(dims[0]))
        fill = default_value(elem)
        return Array(_array_elem_tag(elem), [fill] * dims[0])
    inner = [new_array(elem, dims[1:]) for _ in range(dims[0])]
    return Array(TAG_ARRAY, inner)


def compile_method(mc: ir.MethodCode):
    """Compile a method body. Returns (body, suspends): body(engine, frame)
    returns None, or (result,) if a return statement ran; when `suspends`
    it is a generator function."""
    return _stmt(mc.body)


# --- values --------------------------------------------------------------------

_BIAS = 1 << 63
_MASK = (1 << 64) - 1

# Chars are immutable, so reads share one instance per code.
_CHARS = tuple(Char(code) for code in range(256))

def _wrap(n: int) -> int:
    """wrap_i64 in one expression: adding 2**63 maps the 64-bit range onto
    [0, 2**64), where the mask wraps it."""
    return ((n + _BIAS) & _MASK) - _BIAS


def _div(a, b):
    if b == 0:
        raise EngineError(E_ARITHMETIC, "division by zero")
    q = abs(a) // abs(b)
    return _wrap(-q if (a < 0) != (b < 0) else q)  # truncates toward zero


def _mod(a, b):
    if b == 0:
        raise EngineError(E_ARITHMETIC, "division by zero")
    r = a % b  # takes the sign of b; the truncated remainder takes a's
    if r and (r < 0) != (a < 0):
        r -= b
    return r


def _concat(a, b):
    if a is None or b is None:
        raise EngineError(E_NULL_REF, "concat on null string")
    return a.concat(b)


def _eq(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a == b
    return values_equal(a, b)


def _compare(cmp):
    """An ordering on ints, and on chars by code."""
    def op(a, b):
        try:
            return cmp(a, b)
        except TypeError:  # a Char has no ordering of its own
            return cmp(_as_int(a), _as_int(b))
    return op


_BINOPS = {
    "add": lambda a, b: _wrap(a + b),
    "sub": lambda a, b: _wrap(a - b),
    "mul": lambda a, b: _wrap(a * b),
    "div": _div,
    "mod": _mod,
    "lt": _compare(operator.lt),
    "le": _compare(operator.le),
    "gt": _compare(operator.gt),
    "ge": _compare(operator.ge),
    "eq": _eq,
    "ne": lambda a, b: not _eq(a, b),
    "concat": _concat,
}


def _read_index(arr, idx):
    if arr is None:
        raise EngineError(E_NULL_REF, "indexing null array")
    if isinstance(arr, CharArray):
        if not 0 <= idx < len(arr.data):
            raise EngineError(E_INDEX, f"index {idx} out of range")
        return _CHARS[arr.data[idx]]
    if not 0 <= idx < len(arr.items):
        raise EngineError(E_INDEX, f"index {idx} out of range")
    return arr.items[idx]


def _write_index(arr, idx, value) -> None:
    if arr is None:
        raise EngineError(E_NULL_REF, "indexing null array")
    if isinstance(arr, CharArray):
        if not isinstance(value, Char):
            raise EngineError(E_INDEX, "char array takes char elements")
        if not 0 <= idx < len(arr.data):
            raise EngineError(E_INDEX, f"index {idx} out of range")
        arr.data[idx] = value.code
    else:
        if not 0 <= idx < len(arr.items):
            raise EngineError(E_INDEX, f"index {idx} out of range")
        arr.items[idx] = value


def _append(old, value) -> None:
    if old is None or value is None:
        raise EngineError(E_NULL_REF, "concat on null string")
    old.append(value)  # += appends in place


def _as_generator(fn, suspends):
    if suspends:
        return fn

    def gen(e, f):
        return fn(e, f)
        yield  # unreachable: makes this a generator function

    return gen


# --- expressions ---------------------------------------------------------------

def _expr(node):
    return _EXPRS[type(node)](node)


def _const(value):
    return (lambda e, f: value), False


def _local(node):
    slot = node.slot
    return (lambda e, f: f.locals[slot]), False


def _str(node):
    pool = node.pool
    return (lambda e, f: CharArray(f.consts[pool])), False  # fresh each time


def _values(nodes):
    """A list of expressions evaluated left to right, as one node."""
    items = [_expr(n) for n in nodes]
    fns = tuple(fn for fn, _ in items)
    if not any(s for _, s in items):
        return (lambda e, f: [fn(e, f) for fn in fns]), False

    def gen(e, f):
        out = []
        for fn, s in items:
            out.append((yield from fn(e, f)) if s else fn(e, f))
        return out

    return gen, True


def _field_get(node):
    obj, os_ = _expr(node.obj)
    name, hint = node.name, node.index

    def get(e, f):
        o = (yield from obj(e, f)) if os_ else obj(e, f)
        if o is None:
            raise EngineError(E_NULL_REF, f"field '{name}' of null")
        if o.host == e.host_name:
            record = e.deref(o)
            if record.acl is not None:
                e.check_local_object(o, record, write=False, ctx=f.ctx)
            return record.fields[e.field_index(record.cls, name, hint)]
        return (yield from e.remote_get_field(o, name, f.ctx))

    return get, True


def _index(node):
    arr, as_ = _expr(node.arr)
    idx, is_ = _expr(node.idx)
    if not (as_ or is_):
        return (lambda e, f: _read_index(arr(e, f), idx(e, f))), False

    def gen(e, f):
        a = (yield from arr(e, f)) if as_ else arr(e, f)
        i = (yield from idx(e, f)) if is_ else idx(e, f)
        return _read_index(a, i)

    return gen, True


def _bin(node):
    left, ls = _expr(node.left)
    right, rs = _expr(node.right)
    op = _BINOPS[node.op]
    if not (ls or rs):
        return (lambda e, f: op(left(e, f), right(e, f))), False

    def gen(e, f):
        a = (yield from left(e, f)) if ls else left(e, f)
        b = (yield from right(e, f)) if rs else right(e, f)
        return op(a, b)

    return gen, True


def _logic(node):
    left, ls = _expr(node.left)
    right, rs = _expr(node.right)
    is_and = node.op == "and"
    if not (ls or rs):
        if is_and:
            return (lambda e, f: right(e, f) if left(e, f) else False), False
        return (lambda e, f: True if left(e, f) else right(e, f)), False

    def gen(e, f):
        a = (yield from left(e, f)) if ls else left(e, f)
        if is_and:
            if not a:
                return False
        elif a:
            return True
        return (yield from right(e, f)) if rs else right(e, f)

    return gen, True


def _un(node):
    operand, s = _expr(node.operand)
    op = (lambda v: _wrap(-v)) if node.op == "neg" else (lambda v: not v)
    if not s:
        return (lambda e, f: op(operand(e, f))), False

    def gen(e, f):
        return op((yield from operand(e, f)))

    return gen, True


def _ternary(node):
    cond, cs = _expr(node.cond)
    then, ts = _expr(node.then)
    other, os_ = _expr(node.other)
    if not (cs or ts or os_):
        return (lambda e, f: then(e, f) if cond(e, f) else other(e, f)), False

    def gen(e, f):
        c = (yield from cond(e, f)) if cs else cond(e, f)
        if c:
            return (yield from then(e, f)) if ts else then(e, f)
        return (yield from other(e, f)) if os_ else other(e, f)

    return gen, True


def _post_incr(node):
    delta = node.delta
    if isinstance(node.target, ir.IrLocal):
        slot = node.target.slot

        def incr_local(e, f):
            locals_ = f.locals
            old = locals_[slot]
            locals_[slot] = _wrap(old + delta)
            return old

        return incr_local, False
    get, gs = _expr(node.target)
    put, ps = _store(node.target)
    if not (gs or ps):
        def incr(e, f):
            old = get(e, f)
            put(e, f, _wrap(old + delta))
            return old

        return incr, False

    def gen(e, f):
        old = (yield from get(e, f)) if gs else get(e, f)
        value = _wrap(old + delta)
        if ps:
            yield from put(e, f, value)
        else:
            put(e, f, value)
        return old

    return gen, True


def _call_method(node):
    obj, os_ = _expr(node.obj)
    args, as_ = _values(node.args)
    method = node.method

    def call(e, f):
        o = (yield from obj(e, f)) if os_ else obj(e, f)
        a = (yield from args(e, f)) if as_ else args(e, f)
        return (yield from e.invoke(o, method, a, f.ctx))

    return call, True


def _call_static(node):
    args, as_ = _values(node.args)
    cls, method = node.cls, node.method

    def call(e, f):
        a = (yield from args(e, f)) if as_ else args(e, f)
        return (yield from e.invoke_static(cls, method, a, f.ctx))

    return call, True


def _call_builtin(node):
    args, as_ = _values(node.args)
    hook = node.hook
    if not as_:
        return (lambda e, f: e.call_intrinsic(hook, args(e, f), f.ctx)), False

    def call(e, f):
        return e.call_intrinsic(hook, (yield from args(e, f)), f.ctx)

    return call, True


def _new(node):
    args, as_ = _values(node.args)
    cls = node.cls

    def new(e, f):
        a = (yield from args(e, f)) if as_ else args(e, f)
        return (yield from e.create_object(cls, ("heap",), a, f.ctx))

    return new, True


def _create(node):
    host, hs = _expr(node.host) if node.host is not None else (None, False)
    args, as_ = _values(node.args)
    cls = node.cls

    def create(e, f):
        if host is None:
            placement = ("partition", 0)
        else:
            href = (yield from host(e, f)) if hs else host(e, f)
            if href is None:
                raise EngineError(E_NULL_REF, "create placement host is null")
            if href.host == e.host_name:
                placement = ("partition", 0)
            else:
                placement = ("remote", href.host, None)
        a = (yield from args(e, f)) if as_ else args(e, f)
        return (yield from e.create_object(cls, placement, a, f.ctx))

    return create, True


def _new_array(node):
    dims, ds = _values(node.dims)
    elem = node.elem
    if not ds:
        return (lambda e, f: new_array(elem, dims(e, f))), False

    def gen(e, f):
        return new_array(elem, (yield from dims(e, f)))

    return gen, True


def _queued_eval(node):
    queue, qs = _expr(node.queue)
    body = _as_generator(*_expr(node.body))

    def queued(e, f):
        q = (yield from queue(e, f)) if qs else queue(e, f)
        return (yield from e.queued_eval_ir(q, f, body))

    return queued, True


def _iterate(node):
    group, gs = _expr(node.group)
    args, as_ = _values(node.args)
    method = node.method

    def iterate(e, f):
        g = (yield from group(e, f)) if gs else group(e, f)
        a = (yield from args(e, f)) if as_ else args(e, f)
        yield from e.iterate(g, method, a, f.ctx)
        return None

    return iterate, True


_EXPRS = {
    ir.IrInt: lambda n: _const(n.value),
    ir.IrBool: lambda n: _const(n.value),
    ir.IrChar: lambda n: _const(Char(n.code)),
    ir.IrStr: _str,
    ir.IrNull: lambda n: _const(None),
    ir.IrLocal: _local,
    ir.IrThis: lambda n: ((lambda e, f: f.this_ref), False),
    ir.IrThisHost: lambda n: ((lambda e, f: e.this_host_ref()), False),
    ir.IrHostsRoot: lambda n: ((lambda e, f: e.hosts_root_ref()), False),
    ir.IrFieldGet: _field_get,
    ir.IrIndex: _index,
    ir.IrBin: _bin,
    ir.IrLogic: _logic,
    ir.IrUn: _un,
    ir.IrTernary: _ternary,
    ir.IrPostIncr: _post_incr,
    ir.IrCallMethod: _call_method,
    ir.IrCallStatic: _call_static,
    ir.IrCallBuiltin: _call_builtin,
    ir.IrNew: _new,
    ir.IrCreate: _create,
    ir.IrNewArray: _new_array,
    ir.IrQueuedEval: _queued_eval,
    ir.IrIterate: _iterate,
}


# --- assignment targets ----------------------------------------------------------

def _store(target):
    """Compile a store into `target`: (put, suspends) with put(e, f, value).
    The target's subexpressions are evaluated when the store runs."""
    if isinstance(target, ir.IrLocal):
        slot = target.slot

        def put_local(e, f, value):
            f.locals[slot] = value

        return put_local, False
    if isinstance(target, ir.IrIndex):
        arr, as_ = _expr(target.arr)
        idx, is_ = _expr(target.idx)
        if not (as_ or is_):
            def put_index(e, f, value):
                _write_index(arr(e, f), idx(e, f), value)

            return put_index, False

        def put_index_gen(e, f, value):
            a = (yield from arr(e, f)) if as_ else arr(e, f)
            i = (yield from idx(e, f)) if is_ else idx(e, f)
            _write_index(a, i, value)

        return put_index_gen, True
    if isinstance(target, ir.IrFieldGet):
        obj, os_ = _expr(target.obj)
        name, hint = target.name, target.index

        def put_field(e, f, value):
            o = (yield from obj(e, f)) if os_ else obj(e, f)
            if o is None:
                raise EngineError(E_NULL_REF, f"field '{name}' of null")
            if o.host == e.host_name:
                record = e.deref(o)
                if record.acl is not None:
                    e.check_local_object(o, record, write=True, ctx=f.ctx)
                record.fields[e.field_index(record.cls, name, hint)] = value
            else:
                yield from e.remote_set_field(o, name, value, f.ctx)

        return put_field, True
    raise AssertionError(f"bad assignment target {target!r}")


# --- statements ------------------------------------------------------------------

_RETURN_NONE = (None,)


def _stmt(node):
    return _STMTS[type(node)](node)


def _nop(e, f):
    return None


def _block(node):
    items = [_stmt(s) for s in node.stmts]
    if not any(s for _, s in items):
        stmts = tuple(fn for fn, _ in items)
        if not stmts:
            return _nop, False
        if len(stmts) == 1:
            return stmts[0], False

        def block(e, f):
            for stmt in stmts:
                done = stmt(e, f)
                if done is not None:
                    return done
            return None

        return block, False

    def gen(e, f):
        for stmt, s in items:
            done = (yield from stmt(e, f)) if s else stmt(e, f)
            if done is not None:
                return done
        return None

    return gen, True


def _var_decl(node):
    slot = node.slot
    if node.init is None:
        value = default_value(node.ty)

        def declare(e, f):
            f.locals[slot] = value

        return declare, False
    init, s = _expr(node.init)
    if not s:
        def declare_init(e, f):
            f.locals[slot] = init(e, f)

        return declare_init, False

    def gen(e, f):
        f.locals[slot] = yield from init(e, f)

    return gen, True


def _assign(node):
    value, vs = _expr(node.value)
    target = node.target
    if node.op == "set":
        if isinstance(target, ir.IrLocal) and not vs:
            slot = target.slot

            def set_local(e, f):
                f.locals[slot] = value(e, f)

            return set_local, False
        put, ps = _store(target)
        if not (vs or ps):
            def set_(e, f):
                put(e, f, value(e, f))

            return set_, False

        def set_gen(e, f):
            v = (yield from value(e, f)) if vs else value(e, f)
            if ps:
                yield from put(e, f, v)
            else:
                put(e, f, v)

        return set_gen, True
    get, gs = _expr(target)
    if node.op == "concat":
        if not (vs or gs):
            def concat(e, f):
                v = value(e, f)
                _append(get(e, f), v)

            return concat, False

        def concat_gen(e, f):
            v = (yield from value(e, f)) if vs else value(e, f)
            _append((yield from get(e, f)) if gs else get(e, f), v)

        return concat_gen, True
    sign = 1 if node.op == "addi" else -1
    if isinstance(target, ir.IrLocal) and not vs:
        slot = target.slot

        def add_local(e, f):
            v = value(e, f)
            locals_ = f.locals
            locals_[slot] = _wrap(locals_[slot] + sign * v)

        return add_local, False
    put, ps = _store(target)
    if not (vs or gs or ps):
        def add(e, f):
            v = value(e, f)
            put(e, f, _wrap(get(e, f) + sign * v))

        return add, False

    def add_gen(e, f):
        v = (yield from value(e, f)) if vs else value(e, f)
        old = (yield from get(e, f)) if gs else get(e, f)
        if ps:
            yield from put(e, f, _wrap(old + sign * v))
        else:
            put(e, f, _wrap(old + sign * v))

    return add_gen, True


def _expr_stmt(node):
    expr, s = _expr(node.expr)
    if not s:
        def run(e, f):
            expr(e, f)

        return run, False

    def gen(e, f):
        yield from expr(e, f)

    return gen, True


def _if(node):
    cond, cs = _expr(node.cond)
    then, ts = _stmt(node.then)
    other, os_ = _stmt(node.other) if node.other is not None else (_nop, False)
    if not (cs or ts or os_):
        def if_(e, f):
            if cond(e, f):
                return then(e, f)
            return other(e, f)

        return if_, False

    def gen(e, f):
        c = (yield from cond(e, f)) if cs else cond(e, f)
        if c:
            return (yield from then(e, f)) if ts else then(e, f)
        return (yield from other(e, f)) if os_ else other(e, f)

    return gen, True


def _while(node):
    cond, cs = _expr(node.cond)
    body, bs = _stmt(node.body)
    if not (cs or bs):
        def while_(e, f):
            while cond(e, f):
                done = body(e, f)
                if done is not None:
                    return done
            return None

        return while_, False

    def gen(e, f):
        while (yield from cond(e, f)) if cs else cond(e, f):
            done = (yield from body(e, f)) if bs else body(e, f)
            if done is not None:
                return done
        return None

    return gen, True


def _for(node):
    # init and step are simple statements, which never return
    init, is_ = _stmt(node.init) if node.init is not None else (_nop, False)
    cond, cs = (_expr(node.cond) if node.cond is not None
                else _const(True))
    step, ss = _stmt(node.step) if node.step is not None else (_nop, False)
    body, bs = _stmt(node.body)
    if not (is_ or cs or ss or bs):
        def for_(e, f):
            init(e, f)
            while cond(e, f):
                done = body(e, f)
                if done is not None:
                    return done
                step(e, f)
            return None

        return for_, False

    def gen(e, f):
        if is_:
            yield from init(e, f)
        else:
            init(e, f)
        while (yield from cond(e, f)) if cs else cond(e, f):
            done = (yield from body(e, f)) if bs else body(e, f)
            if done is not None:
                return done
            if ss:
                yield from step(e, f)
            else:
                step(e, f)
        return None

    return gen, True


def _return(node):
    if node.value is None:
        return (lambda e, f: _RETURN_NONE), False
    value, s = _expr(node.value)
    if not s:
        return (lambda e, f: (value(e, f),)), False

    def gen(e, f):
        return ((yield from value(e, f)),)

    return gen, True


def _post(node):
    # #> enqueues and returns at once; it suspends only in its operands
    parts, s = _values([node.queue, node.target, *node.args])
    method = node.method
    if not s:
        def post(e, f):
            q, target, *args = parts(e, f)
            e.post_message(q, target, method, args, f.ctx)

        return post, False

    def gen(e, f):
        q, target, *args = yield from parts(e, f)
        e.post_message(q, target, method, args, f.ctx)

    return gen, True


_STMTS = {
    ir.IrBlock: _block,
    ir.IrVarDecl: _var_decl,
    ir.IrAssign: _assign,
    ir.IrExprStmt: _expr_stmt,
    ir.IrIf: _if,
    ir.IrWhile: _while,
    ir.IrFor: _for,
    ir.IrReturn: _return,
    ir.IrPost: _post,
    ir.IrNop: lambda n: (_nop, False),
}
