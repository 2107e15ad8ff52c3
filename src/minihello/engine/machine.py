"""Compiles runpack IR method bodies to Python functions.

The first time a method runs, `compile_method` writes its body as the source
of one Python function and compiles it with `compile()`. The engine caches
the function on the method's RuntimeClass, and a cache here shares it
between engines: it is keyed by the image's content hash, the class and the
method, so a host that loads or fetches a package it has seen before does
not compile it again.

The function is `f(e, this, ctx, l0=None, l1=None, ..., *_)`: the engine,
the receiver (None in a static method), the task context and the arguments.
Every IR local slot is a Python local `l<slot>`, parameters first, and the
function returns the method's result. Its code object is named after the
package, class and method.

A body with a node that may wait on a network future is a generator
function, and `yield from` appears only at those nodes: field access (the
object may live on another host), method and static calls, `new` and
`create`, `<=>` and `.+`. A field access on an object of this host takes an
inline path that makes no generator call. A `<=>` expression becomes a
nested generator function that reads and writes the caller's locals through
closure cells; the engine runs it on the queue's lane. Every other body is a
plain function. An expression or statement nested deeper than Python lets one
function nest (about 200 parentheses, 20 loops and 100 indents) goes on in a
nested function of the same kind.

Each operator is one template in `_BINOPS`, calling one helper where it
needs one (`_wrap`, `_div`, `_mod`, `_eq`, `_compare`, `_read_index`,
`_write_index`, `_append`): integers wrap at 64 bits (`_wrap` runs only when
a result leaves the range), `/` and `%` truncate, and division by zero and
out-of-range indexing raise engine faults. When both operands are ints by
their IR type, the comparisons are plain Python operators (`_INT_BINOPS`).
Expressions evaluate left to right, as Python evaluates them; a store
evaluates its value first and then its target.
Compound assignment and `++` on an element or field evaluate the target's
subexpressions twice, once to read and once to store.

No reference cycle runs through a body's frame or cells, so a method's
locals are freed by reference counting when it returns. A statement that
holds the value it stores in a temporary clears it when it ends; the other
temporaries hold ints and object references.
"""

from __future__ import annotations

import itertools
import operator
import threading

from ..errors import (E_ARITHMETIC, E_INDEX, E_NULL_REF, EngineError)
from ..runpack import ir
from ..security import READ, WRITE
from ..values import (Array, Char, CharArray, TAG_ARRAY, TAG_BOOL, TAG_INT,
                      TAG_OBJECT, values_equal)


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


# --- what the generated code calls ---------------------------------------------

_BIAS = 1 << 63
_MASK = (1 << 64) - 1


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


# Chars are immutable, so reads share one instance per code.
_CHARS = tuple(Char(code) for code in range(256))


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


def _get_field(e, o, name, hint, ctx):
    """A field of an object on this host."""
    record = e.deref(o)
    if record.acl is not None:
        e.check_local_object(record, READ, ctx)
    return record.fields[e.field_index(record.cls, name, hint)]


def _set_field(e, o, name, hint, value, ctx) -> None:
    record = e.deref(o)
    if record.acl is not None:
        e.check_local_object(record, WRITE, ctx)
    record.fields[e.field_index(record.cls, name, hint)] = value


def _field_of(o, name):
    """The object of a field access that did not take the local path."""
    if o is None:
        raise EngineError(E_NULL_REF, f"field '{name}' of null")
    return o


_PARTITION = ("partition", 0)


def _placement(e, href):
    if href is None:
        raise EngineError(E_NULL_REF, "create placement host is null")
    if href.host == e.host_name:
        return _PARTITION
    return ("remote", href.host, None)


_HELPERS = {
    "_wrap": _wrap, "_div": _div, "_mod": _mod, "_concat": _concat,
    "_eq": _eq, "_lt": _compare(operator.lt), "_le": _compare(operator.le),
    "_gt": _compare(operator.gt), "_ge": _compare(operator.ge),
    "_read_index": _read_index, "_write_index": _write_index,
    "_append": _append, "_get_field": _get_field, "_set_field": _set_field,
    "_field_of": _field_of, "_placement": _placement, "new_array": new_array,
    "CharArray": CharArray, "_HEAP": ("heap",), "_PARTITION": _PARTITION,
    "_NEXT": object(),  # what a nested statement returns when it falls through
}

# Operator templates over the operands' source. Results of "add", "sub" and
# "mul" wrap (see `_Source.wrap`).
_BINOPS = {
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    "div": "_div({}, {})",
    "mod": "_mod({}, {})",
    "lt": "_lt({}, {})",
    "le": "_le({}, {})",
    "gt": "_gt({}, {})",
    "ge": "_ge({}, {})",
    "eq": "_eq({}, {})",
    "ne": "(not _eq({}, {}))",
    "concat": "_concat({}, {})",
}
# The comparisons when both operands are ints.
_INT_BINOPS = {"lt": "({} < {})", "le": "({} <= {})", "gt": "({} > {})",
               "ge": "({} >= {})", "eq": "({} == {})", "ne": "({} != {})"}
_WRAPPED = frozenset(("add", "sub", "mul"))
_INT_RESULTS = _WRAPPED | {"div", "mod"}
# Deeper expressions and statements go to a nested function.
_MAX_DEPTH = 16

# Nodes that may wait on a network future.
_SUSPENDING = (ir.IrFieldGet, ir.IrCallMethod, ir.IrCallStatic, ir.IrNew,
               ir.IrCreate, ir.IrQueuedEval, ir.IrIterate)


# --- compilation ---------------------------------------------------------------

# (content hash, class key, method name) -> (function, suspends)
_SHARED: dict = {}
_SHARED_LIMIT = 4096
_SHARED_LOCK = threading.Lock()  # the TCP runtime compiles on many threads


def compile_method(mc: ir.MethodCode, cls, consts: list[bytes],
                   content_hash: bytes = b""):
    """Compile a method body of class `cls` (a ClassKey), whose image has
    constant pool `consts`. Returns (fn, suspends); when `suspends`, fn is a
    generator function. Bodies of an image with a content hash are shared."""
    key = (content_hash, cls, mc.name) if content_hash else None
    compiled = _SHARED.get(key) if key else None
    if compiled is None:
        compiled = _Source(mc, consts).function(
            f"{cls.package}.{cls.name}.{mc.name}")
        if key:
            with _SHARED_LOCK:
                if len(_SHARED) >= _SHARED_LIMIT:
                    del _SHARED[next(iter(_SHARED))]  # the oldest goes
                _SHARED[key] = compiled
    return compiled


def _walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in node.__slots__:
            child = getattr(node, name)
            if isinstance(child, ir.IrNode):
                stack.append(child)
            elif isinstance(child, list):
                stack += [item for item in child if isinstance(item, ir.IrNode)]


def _suspends(node) -> bool:
    return any(isinstance(n, _SUSPENDING) for n in _walk(node))


def _int_slots(mc: ir.MethodCode) -> set[int]:
    """The slots that are declared int wherever they are declared."""
    types: dict[int, set] = {}
    for slot, param in enumerate(mc.params):
        types.setdefault(slot, set()).add(param.ty)
    for node in _walk(mc.body):
        if isinstance(node, ir.IrVarDecl):
            types.setdefault(node.slot, set()).add(node.ty)
    return {slot for slot, tys in types.items() if tys == {ir.TD_INT}}


class _Scope:
    """One Python function being written: the body, or a function nested in
    it for a `<=>` expression or a deep expression or statement."""

    def __init__(self, indent: str):
        self.indent = indent  # of the function's body
        self.lines: list[str] = []
        self.writes: set[int] = set()  # local slots this function assigns


class _Source:
    """Writes one method body as the source of a Python function."""

    def __init__(self, mc: ir.MethodCode, consts: list[bytes]):
        self.mc = mc
        self.consts = consts
        self.env = dict(_HELPERS)  # the function's globals
        self.ids = itertools.count()
        self.ints = _int_slots(mc)
        self.scope = _Scope("    ")
        self.depth = 0  # of the expression being written, in this function
        # Nested functions, all defined at the top of the body's function,
        # so that Python's limit of 100 indents does not bound the nesting.
        self.defs: list[str] = []

    def function(self, name: str):
        mc = self.mc
        suspends = _suspends(mc.body)
        n_params = len(mc.params)
        params = "".join(f", l{i}=None" for i in range(n_params))
        self.block(mc.body, self.scope.indent)
        lines = [f"def _body(e, this, ctx{params}, *_):"]
        if mc.n_slots > n_params:  # a local read before any store reads None
            lines.append("    " + " = ".join(
                [f"l{i}" for i in range(n_params, mc.n_slots)] + ["None"]))
        lines += self.defs + self.scope.lines
        code = compile("\n".join(lines) + "\n", f"<hello {name}>", "exec")
        exec(code, self.env)
        fn = self.env.pop("_body")
        fn.__code__ = fn.__code__.replace(co_name=name)
        fn.__name__ = fn.__qualname__ = name
        return fn, suspends

    def const(self, value) -> str:
        name = f"k{next(self.ids)}"
        self.env[name] = value
        return name

    def temp(self) -> str:
        return f"t{next(self.ids)}"

    def wrap(self, value: str) -> str:
        """`_wrap(value)`, with no call when the value is in range."""
        t = self.temp()
        return (f"({t} if {-_BIAS} <= ({t} := {value}) <= {_BIAS - 1}"
                f" else _wrap({t}))")

    def assigned(self, slot: int) -> str:
        """The local of `slot`, which the function being written assigns."""
        self.scope.writes.add(slot)
        return f"l{slot}"

    def emit(self, indent: str, line: str) -> None:
        self.scope.lines.append(indent + line)

    # --- expressions -----------------------------------------------------------

    def expr(self, node) -> str:
        if self.depth == _MAX_DEPTH:  # Python's parser nests only so deep
            return self.call_nested(
                lambda ind: self.emit(ind, f"return {self.expr(node)}"), node)
        self.depth += 1
        value = _EXPRS[type(node)](self, node)
        self.depth -= 1
        return value

    def args(self, nodes) -> str:
        return "[" + ", ".join(self.expr(n) for n in nodes) + "]"

    def is_int(self, node) -> bool:
        if isinstance(node, (ir.IrInt, ir.IrPostIncr)):
            return True
        if isinstance(node, ir.IrLocal):
            return node.slot in self.ints
        if isinstance(node, ir.IrBin):
            return node.op in _INT_RESULTS
        return isinstance(node, ir.IrUn) and node.op == "neg"

    def field_get(self, node):
        o, name = self.temp(), repr(node.name)
        return (f"(_get_field(e, {o}, {name}, {node.index}, ctx)"
                f" if ({o} := {self.expr(node.obj)}) is not None"
                f" and {o}.host == e.host_name"
                f" else (yield from e.remote_get_field("
                f"_field_of({o}, {name}), {name}, ctx)))")

    def bin(self, node):
        both_int = self.is_int(node.left) and self.is_int(node.right)
        template = (_INT_BINOPS.get(node.op) if both_int else None) \
            or _BINOPS[node.op]
        value = template.format(self.expr(node.left), self.expr(node.right))
        return self.wrap(value) if node.op in _WRAPPED else value

    def logic(self, node):
        left, right = self.expr(node.left), self.expr(node.right)
        if node.op == "and":
            return f"({right} if {left} else False)"
        return f"(True if {left} else {right})"

    def un(self, node):
        if node.op == "not":
            return f"(not {self.expr(node.operand)})"
        if isinstance(node.operand, ir.IrInt):  # a negative literal
            return f"({_wrap(-node.operand.value)})"
        return self.wrap(f"-{self.expr(node.operand)}")

    def post_incr(self, node):
        old = self.temp()
        target, delta = node.target, node.delta
        if isinstance(target, ir.IrLocal):
            local = self.assigned(target.slot)
            new = self.wrap(f"{old} + {delta}")
            return f"(({old} := {local}), ({local} := {new}))[0]"
        get = self.expr(target)
        put = self.store(target, self.wrap(f"{old} + {delta}"))
        return f"(({old} := {get}), {put})[0]"

    def create(self, node):
        placement = ("_PARTITION" if node.host is None
                     else f"_placement(e, {self.expr(node.host)})")
        return (f"(yield from e.create_object({self.const(node.cls)}, "
                f"{placement}, {self.args(node.args)}, ctx))")

    def queued_eval(self, node):
        queue = self.expr(node.queue)
        fn = self.nested(lambda ind: self.emit(
            ind, f"return {self.expr(node.body)}"), node.body, True)
        return f"(yield from e.queued_eval({queue}, {fn}, ctx))"

    def nested(self, write, node, generator: bool) -> str:
        """Define a function of no arguments at the top of the body's
        function, over its locals, and return its name. `write(indent)`
        emits its body, which `node` is compiled from; it is a generator
        function when `generator` is true or the node may suspend."""
        fn = f"f{next(self.ids)}"
        outer, depth = self.scope, self.depth
        inner = self.scope = _Scope("        ")
        self.depth = 0
        try:
            write(inner.indent)
        finally:
            self.scope, self.depth = outer, depth
        self.defs.append(f"    def {fn}():")
        if inner.writes:
            self.defs.append("        nonlocal " + ", ".join(
                f"l{slot}" for slot in sorted(inner.writes)))
        self.defs += inner.lines
        if generator and not _suspends(node):
            self.defs.append("        yield  # a generator function")
        return fn

    def call_nested(self, write, node) -> str:
        fn = self.nested(write, node, False)
        return f"(yield from {fn}())" if _suspends(node) else f"{fn}()"

    # --- stores ----------------------------------------------------------------

    def store(self, target, value: str) -> str:
        """An expression that stores the source `value` into `target`. It
        evaluates the target's subexpressions, then `value`."""
        if isinstance(target, ir.IrIndex):
            return (f"_write_index({self.expr(target.arr)}, "
                    f"{self.expr(target.idx)}, {value})")
        if isinstance(target, ir.IrFieldGet):
            o, name = self.temp(), repr(target.name)
            return (f"(_set_field(e, {o}, {name}, {target.index}, {value}, ctx)"
                    f" if ({o} := {self.expr(target.obj)}) is not None"
                    f" and {o}.host == e.host_name"
                    f" else (yield from e.remote_set_field("
                    f"_field_of({o}, {name}), {name}, {value}, ctx)))")
        raise AssertionError(f"bad assignment target {target!r}")

    # --- statements ------------------------------------------------------------

    def block(self, node, ind: str) -> None:
        """Statements at one indentation; `pass` when there are none."""
        start = len(self.scope.lines)
        self.stmt(node, ind)
        if len(self.scope.lines) == start:
            self.emit(ind, "pass")

    def stmt(self, node, ind: str) -> None:
        if len(ind) - len(self.scope.indent) == 4 * _MAX_DEPTH and isinstance(
                node, (ir.IrIf, ir.IrWhile, ir.IrFor)):
            # Python allows 20 nested loops in a function and 100 indents
            def write(inner):
                self.stmt(node, inner)
                self.emit(inner, "return _NEXT")

            t = self.temp()
            self.emit(ind, f"if ({t} := {self.call_nested(write, node)})"
                           " is not _NEXT:")
            self.emit(ind + "    ", f"return {t}")
            return
        _STMTS[type(node)](self, node, ind)

    def stmts(self, node, ind):
        for stmt in node.stmts:
            self.stmt(stmt, ind)

    def var_decl(self, node, ind):
        if node.init is not None:
            value = self.expr(node.init)
        else:
            value = self.const(default_value(node.ty))
        self.emit(ind, f"{self.assigned(node.slot)} = {value}")

    def assign(self, node, ind):
        target, value, op = node.target, node.value, node.op
        local = isinstance(target, ir.IrLocal)
        if op == "set" and local:
            self.emit(ind, f"{self.assigned(target.slot)} = {self.expr(value)}")
            return
        v = self.temp()  # the value first
        self.emit(ind, f"{v} = {self.expr(value)}")
        if op in ("addi", "subi"):  # the temporaries hold ints
            sign = "+" if op == "addi" else "-"
            if local:
                name = self.assigned(target.slot)
                self.emit(ind, f"{name} = {self.wrap(f'{name} {sign} {v}')}")
            else:
                old = self.temp()
                self.emit(ind, f"{old} = {self.expr(target)}")
                self.emit(ind, self.store(target, self.wrap(f"{old} {sign} {v}")))
            return
        if op == "set":
            self.emit(ind, self.store(target, v))
        else:
            self.emit(ind, f"_append({self.expr(target)}, {v})")
        self.emit(ind, f"{v} = None")

    def expr_stmt(self, node, ind):
        expr = node.expr
        if isinstance(expr, ir.IrPostIncr) and isinstance(expr.target, ir.IrLocal):
            name = self.assigned(expr.target.slot)
            self.emit(ind, f"{name} = {self.wrap(f'{name} + {expr.delta}')}")
        else:
            self.emit(ind, self.expr(expr))

    def if_(self, node, ind):
        self.emit(ind, f"if {self.expr(node.cond)}:")
        self.block(node.then, ind + "    ")
        if node.other is not None:
            self.emit(ind, "else:")
            self.block(node.other, ind + "    ")

    def while_(self, node, ind):
        self.emit(ind, f"while {self.expr(node.cond)}:")
        self.block(node.body, ind + "    ")

    def for_(self, node, ind):
        if node.init is not None:
            self.stmt(node.init, ind)
        cond = "True" if node.cond is None else self.expr(node.cond)
        self.emit(ind, f"while {cond}:")
        self.block(node.body, ind + "    ")
        if node.step is not None:
            self.stmt(node.step, ind + "    ")

    def return_(self, node, ind):
        self.emit(ind, "return" if node.value is None
                  else f"return {self.expr(node.value)}")

    def post(self, node, ind):
        # #> enqueues and returns at once; it suspends only in its operands
        self.emit(ind, f"e.post_message({self.expr(node.queue)}, "
                       f"{self.expr(node.target)}, {node.method!r}, "
                       f"{self.args(node.args)}, ctx)")


_EXPRS = {
    ir.IrInt: lambda s, n: repr(n.value) if n.value >= 0 else f"({n.value})",
    ir.IrBool: lambda s, n: repr(n.value),
    ir.IrChar: lambda s, n: s.const(Char(n.code)),
    ir.IrStr: lambda s, n: f"CharArray({s.const(s.consts[n.pool])})",
    ir.IrNull: lambda s, n: "None",
    ir.IrLocal: lambda s, n: f"l{n.slot}",
    ir.IrThis: lambda s, n: "this",
    ir.IrThisHost: lambda s, n: "e.this_host_ref()",
    ir.IrHostsRoot: lambda s, n: "e.hosts_root_ref()",
    ir.IrFieldGet: _Source.field_get,
    ir.IrIndex: lambda s, n: f"_read_index({s.expr(n.arr)}, {s.expr(n.idx)})",
    ir.IrBin: _Source.bin,
    ir.IrLogic: _Source.logic,
    ir.IrUn: _Source.un,
    ir.IrTernary: lambda s, n: (f"({s.expr(n.then)} if {s.expr(n.cond)}"
                                f" else {s.expr(n.other)})"),
    ir.IrPostIncr: _Source.post_incr,
    ir.IrCallMethod: lambda s, n: (
        f"(yield from e.invoke({s.expr(n.obj)}, {n.method!r}, "
        f"{s.args(n.args)}, ctx))"),
    ir.IrCallStatic: lambda s, n: (
        f"(yield from e.invoke_static({s.const(n.cls)}, {n.method!r}, "
        f"{s.args(n.args)}, ctx))"),
    ir.IrCallBuiltin: lambda s, n: (
        f"e.call_intrinsic({n.hook!r}, {s.args(n.args)}, ctx)"),
    ir.IrNew: lambda s, n: (
        f"(yield from e.create_object({s.const(n.cls)}, _HEAP, "
        f"{s.args(n.args)}, ctx))"),
    ir.IrCreate: _Source.create,
    ir.IrNewArray: lambda s, n: f"new_array({s.const(n.elem)}, {s.args(n.dims)})",
    ir.IrQueuedEval: _Source.queued_eval,
    ir.IrIterate: lambda s, n: (
        f"((yield from e.iterate({s.expr(n.group)}, {n.method!r}, "
        f"{s.args(n.args)}, ctx)), None)[1]"),
}

_STMTS = {
    ir.IrBlock: _Source.stmts,
    ir.IrVarDecl: _Source.var_decl,
    ir.IrAssign: _Source.assign,
    ir.IrExprStmt: _Source.expr_stmt,
    ir.IrIf: _Source.if_,
    ir.IrWhile: _Source.while_,
    ir.IrFor: _Source.for_,
    ir.IrReturn: _Source.return_,
    ir.IrPost: _Source.post,
    ir.IrNop: lambda s, n, ind: None,
}
