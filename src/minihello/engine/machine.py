"""Compiles runpack IR method bodies to Python functions.

The first time a method runs, `compile_method` writes its body as the source
of one Python function and compiles it with `compile()`, with its image's
`Image`, which the engine builds once per installed image. The engine
caches the function on the method's RuntimeClass, and a cache here shares
it between engines: it is keyed by the image's content hash, the class and
the method, so a host that loads or fetches a package it has seen before
does not compile it again.

The function is `f(e, this, ctx, l0=None, l1=None, ..., *_)`: the engine,
the receiver (None in a static method), the task context and the arguments.
Every IR local slot is a Python local `l<slot>`, parameters first, and the
function returns the method's result. Its code object is named after the
package, class and method.

A static call of a method of the caller's own image that has no copy
parameter and no copy return is a direct site: a Python call of the
callee's compiled function, `d<n>(e, None, ctx, args...)`, with the
arguments evaluated left to right, as `Engine.invoke_static` gets them, and
faults passing through bare, as they pass through it. The global `d<n>`
starts as a `_Bind`, which at the site's first run compiles the callee
through `compile_method` with the caller's `Image` and puts the function in
its own place. Every other static call goes through `Engine.invoke_static`,
which stays the one generic path: main, a call from outside the image, and
a callee with a `copy` parameter or return; it looks the method up and
marshals the arguments on every call. Only bodies of an image with a
content hash have direct sites, and only they are shared.
A site is bound within its own image and needs no guard: bodies are shared
between engines by (content hash, class, method), and one image's class
table never changes. So a body that waits while its own package is
installed again keeps calling its own image's statics when it resumes,
where `Engine.invoke_static` would reach the new image's.

A body with a node that may wait on a future is a generator function, and
`yield from` appears only at those nodes: field access (the object may live
on another host), method calls, static calls through the engine, direct
calls of a body that may wait, `new` and `create`, `<=>`, `.+`, and the
`exec_read` builtin, which waits for a command's output. Whether a method
may wait is an analysis over the image (`Image.waiting`), a least fixpoint
over direct calls: a method waits only if its body has a node that may
wait other than a direct call, or calls directly a method that waits. So a
body that only calls itself, as a recursive function does, is a plain
function. A `<=>` expression becomes a nested generator function that
reads and writes the caller's locals through closure cells; the engine
runs it on the queue's lane. Every other body is a plain function. An
expression or statement nested deeper than Python lets one function nest
(about 200 parentheses, 20 loops and 100 indents) goes on in a nested
function of the same kind. A chain of direct calls deeper than Python's
recursion limit raises RecursionError, which the task driver
(`runtime.HostView`) turns into a StackOverflow fault of the task.

Each operator is one template in `_BINOPS`, calling one helper where it
needs one (`_wrap`, `_div`, `_mod`, `_eq`, `_compare`, `_read_index`,
`_write_index`, `_append`): integers wrap at 64 bits (`_wrap` runs only when
a result leaves the range), `/` and `%` truncate, and division by zero and
out-of-range indexing raise engine faults (`values.wrap_i64`, `div_i64`
and `mod_i64` compute, and the checker folds constants with them).

A type pass, `_Source.ty`, types each expression from what the body fixes:
literals, the declared types of slots (a slot counts only if it is declared
with one type wherever it is declared), the element types of typed arrays,
and the result types of operators and builtins. Field reads and calls stay
untyped. The pass trusts a slot to hold a value of its declared type, so
the engine checks a value that arrives from another host against the
parameter or field it fills (`fits`) before a body sees it. An expression
it cannot type compiles to the generic template. The typed and the other
specialised sites keep every check of the helper they stand in for, and
call that helper on their slow path, which raises the same fault:
- A field get or set of an object on this host (the code has tested the
  ref's host) finds the record in the engine's `objects`, tests its
  partition and that it has no ACL, and reads its slot from the site's
  inline cache, one (layout token, class, slot) entry (Deutsch and
  Schiffman, POPL 1984). The class is tested with `==`, since each IR node
  read from a `.rpk` has a class key of its own, and the token with `is`:
  bodies are shared between engines, and an engine replaces its `layout`
  token whenever `install_image` changes a class. On a miss,
  `_get_field`/`_set_field` call `Engine.deref` for a missing record or one
  of another partition, which raises its fault, check an ACL, take the slot
  from the loaded class (`RuntimeClass.field_index`, or the slot the IR was
  lowered with when the class is not loaded) and refill the cache.
- An element read or write of a typed array tests the null and the bounds
  inline. The test does not short-circuit before the index is evaluated,
  so the array, then the index, are evaluated once on either path. A
  `char[]` write also tests that the array shares no bytes (`CharArray.
  shared`), and that the value is a char when the pass does not know it.
  Slow path: `_read_index`, `_write_index`.
- The comparisons on two ints, on two chars (by code) and `==`/`!=` on two
  bools are Python's operators (`_INT_BINOPS`). Slow path: none; other
  operands take `_eq` and `_compare`.
- A `/` or `%` whose divisor is an int literal or a negated one, other than
  0 and -1, is Python's `//` or `%` inline on the magnitudes (`div_by`): it
  cannot divide by zero or overflow. Any other int-typed divisor takes
  Python's operator when the dividend is >= 0 and the divisor > 0
  (`div_positive`). Slow path: `_div`, `_mod`, so `/ 0` faults only when it
  runs and `INT_MIN / -1` wraps.
- `sizear(a, 1)` on a typed array is its length after a null test. Slow
  path: the intrinsic. Every builtin but `exec_read` calls its intrinsic,
  bound as a constant of the body; `exec_read` waits in
  `Engine.exec_read`, which looks its intrinsic up when it runs.
- `+=` of a string literal appends the constant's bytes to an array that
  is not null and shares no bytes. Slow path: `_append`.
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
from ..stdlib import INTRINSICS
from ..values import (Array, Char, CharArray, ObjectRef, TAG_ARRAY, TAG_BOOL,
                      TAG_INT, TAG_OBJECT, INT_MAX, INT_MIN, div_i64, mod_i64,
                      values_equal, wrap_i64)


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


_KINDS = {"int": int, "bool": bool, "char": Char}


def fits(ty: ir.TypeDesc, v) -> bool:
    """Whether `v` is a value of type `ty`, with the elements of an array
    and of its nested arrays. A value from another host is checked before
    a compiled body gets it, since the body's typed sites trust the types
    of their operands."""
    if ty.depth == 0:
        if ty.base == "class":
            return v is None or type(v) is ObjectRef
        return type(v) is _KINDS.get(ty.base)
    if v is None:
        return True
    elem = ir.TypeDesc(ty.base, ty.depth - 1, ty.cls)
    if elem == ir.TD_CHAR:
        return type(v) is CharArray
    return (type(v) is Array and v.elem_tag == _array_elem_tag(elem)
            and all(fits(elem, item) for item in v.items))


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

def _div(a, b):
    if b == 0:
        raise EngineError(E_ARITHMETIC, "division by zero")
    return div_i64(a, b)


def _mod(a, b):
    if b == 0:
        raise EngineError(E_ARITHMETIC, "division by zero")
    return mod_i64(a, b)


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
        if arr.shared:
            arr.unshare()
        arr.data[idx] = value.code
    else:
        if not 0 <= idx < len(arr.items):
            raise EngineError(E_INDEX, f"index {idx} out of range")
        arr.items[idx] = value


def _append(old, value) -> None:
    if old is None or value is None:
        raise EngineError(E_NULL_REF, "concat on null string")
    old.append(value)  # += appends in place


def _get_field(e, o, name, hint, ctx, site):
    """A field of an object on this host, where the access site's inline
    path missed: the caller has tested `o.host`. A missing record, or one
    of another partition, goes to `Engine.deref`, which raises the engine's
    fault."""
    record = e.objects.get(o.oid)
    if record is None or record.partition != o.partition:
        record = e.deref(o)
    if record.acl is not None:
        e.check_local_object(record, READ, ctx)
    return record.fields[_slot(e, record.cls, name, hint, site)]


def _set_field(e, o, name, hint, value, ctx, site) -> None:
    record = e.objects.get(o.oid)
    if record is None or record.partition != o.partition:
        record = e.deref(o)
    if record.acl is not None:
        e.check_local_object(record, WRITE, ctx)
    record.fields[_slot(e, record.cls, name, hint, site)] = value


def _slot(e, cls, name, hint, site) -> int:
    """The slot of field `name` in objects of `cls`: from the loaded class,
    or `hint` when the class is not loaded or has no such field. A slot of
    the loaded class refills `site[0]`, the access site's cache."""
    rc = e.classes.get(cls)
    slot = rc.field_index(name) if rc is not None else None
    if slot is None:
        return hint
    site[0] = (e.layout, cls, slot)
    return slot


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
    "_wrap": wrap_i64, "_div": _div, "_mod": _mod, "_concat": _concat,
    "_eq": _eq, "_lt": _compare(operator.lt), "_le": _compare(operator.le),
    "_gt": _compare(operator.gt), "_ge": _compare(operator.ge),
    "_read_index": _read_index, "_write_index": _write_index,
    "_append": _append, "_get_field": _get_field, "_set_field": _set_field,
    "_field_of": _field_of, "_placement": _placement, "new_array": new_array,
    "CharArray": CharArray, "Char": Char, "_CHARS": _CHARS,
    "_HEAP": ("heap",), "_PARTITION": _PARTITION,
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
# The comparisons when both operands are ints, bools, or chars by code.
_INT_BINOPS = {"lt": "({} < {})", "le": "({} <= {})", "gt": "({} > {})",
               "ge": "({} >= {})", "eq": "({} == {})", "ne": "({} != {})"}
_WRAPPED = frozenset(("add", "sub", "mul"))

# --- the type pass: what `_Source.ty` knows of each kind of node ----------------

_STRING = ir.TypeDesc("char", 1)
_BIN_TYPES = {op: ir.TD_INT for op in ("add", "sub", "mul", "div", "mod")}
_BIN_TYPES.update({op: ir.TD_BOOL for op in _INT_BINOPS}, concat=_STRING)
_LEAF_TYPES = {ir.IrInt: ir.TD_INT, ir.IrPostIncr: ir.TD_INT,
               ir.IrBool: ir.TD_BOOL, ir.IrLogic: ir.TD_BOOL,
               ir.IrChar: ir.TD_CHAR, ir.IrStr: _STRING}
_BUILTIN_TYPES = {"sizear": ir.TD_INT, "parse_int": ir.TD_INT,
                  "exec_open": ir.TD_INT, "write_stdout": ir.TD_INT,
                  "exec_read": ir.TypeDesc("int", 1)}
_COMPARED = (ir.TD_INT, ir.TD_BOOL, ir.TD_CHAR)
# Deeper expressions and statements go to a nested function.
_MAX_DEPTH = 16

# Nodes that may wait on a future, and the builtin that does.
_SUSPENDING = (ir.IrFieldGet, ir.IrCallMethod, ir.IrCallStatic, ir.IrNew,
               ir.IrCreate, ir.IrQueuedEval, ir.IrIterate)
_SUSPENDING_HOOK = "exec_read"


# --- compilation ---------------------------------------------------------------

# (content hash, class key, method name) -> (function, suspends)
_SHARED: dict = {}
_SHARED_LIMIT = 4096
_SHARED_LOCK = threading.Lock()  # every Node's loop thread compiles


def compile_method(mc: ir.MethodCode, cls, image: Image):
    """Compile a method body of class `cls` (a ClassKey) of `image`.
    Returns (fn, suspends); when `suspends`, fn is a generator function.
    Only the bodies of an image with a class table here (`Image.classes`)
    are shared, and only they call the static methods of their own image
    directly: a shared body always has its direct sites."""
    key = (image.content_hash, cls, mc.name) if image.classes else None
    compiled = _SHARED.get(key) if key else None
    if compiled is None:
        compiled = _Source(mc, cls, image).function(
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


def _waits_at(node) -> bool:
    """Whether `node` may wait on a future, a static call counted as one
    that goes through `Engine.invoke_static`."""
    return isinstance(node, _SUSPENDING) or (
        isinstance(node, ir.IrCallBuiltin) and node.hook == _SUSPENDING_HOOK)


class Image:
    """One installed image as its compiled bodies see it: its package,
    constant pool, content hash and class table, by name. The engine builds
    one per installed image. An image without a content hash (the builtin
    classes', or one a test builds) has no class table here, so its bodies
    have no direct sites and are not shared."""

    def __init__(self, package: str, consts: list[bytes],
                 content_hash: bytes = b"", classes=()):
        self.package = package
        self.consts = consts
        self.content_hash = content_hash
        self.classes = ({code.name: code for code in classes}
                        if content_hash else {})

    def callee(self, node) -> tuple[str, str] | None:
        """The (class, method) names of the method that the static call
        `node` calls directly: a static method of this image with no copy
        parameter and no copy return. None for a call that goes through
        `Engine.invoke_static`."""
        cls = node.cls
        code = (self.classes.get(cls.name) if cls.package == self.package
                else None)
        mc = code.method(node.method) if code is not None else None
        if mc is None or not mc.has(ir.MQ_STATIC) or mc.ret_copy or any(
                p.copy for p in mc.params):
            return None
        return cls.name, node.method

    def waiting(self, cls: str, mc: ir.MethodCode) -> set:
        """The methods, among `mc` of class `cls` and those it reaches by
        direct calls, that may wait on a future. It is the least fixpoint
        in which a method waits if its body has a node that may wait other
        than a direct call (`_waits_at`), or calls directly a method that
        waits; so a body that only calls itself, or other bodies that do
        not wait, is a plain function."""
        start = (cls, mc.name)
        calls: dict[tuple, set] = {}  # method -> the methods it calls directly
        waits = set()
        todo = [start]
        while todo:
            key = todo.pop()
            if key in calls:
                continue
            calls[key] = callees = set()
            body = mc.body if key == start else (
                self.classes[key[0]].method(key[1]).body)
            for node in _walk(body):
                callee = (self.callee(node) if type(node) is ir.IrCallStatic
                          else None)
                if callee is not None:
                    callees.add(callee)
                    todo.append(callee)
                elif _waits_at(node):
                    waits.add(key)
        grew = True
        while grew:
            grew = False
            for key, callees in calls.items():
                if key not in waits and not callees.isdisjoint(waits):
                    waits.add(key)
                    grew = True
        return waits


class _Bind:
    """The callee of a direct site until the site first runs: compiles the
    callee with the caller's image, puts its function in its own place
    among the caller's globals, and calls it."""

    __slots__ = ("env", "name", "callee")

    def __init__(self, env: dict, name: str, callee: tuple):
        self.env, self.name, self.callee = env, name, callee

    def __call__(self, *args):
        fn = compile_method(*self.callee)[0]
        self.env[self.name] = fn
        return fn(*args)


def _slot_types(mc: ir.MethodCode) -> dict[int, ir.TypeDesc]:
    """The type of each slot that is declared with one type wherever it is
    declared."""
    types: dict[int, set] = {}
    for slot, param in enumerate(mc.params):
        types.setdefault(slot, set()).add(param.ty)
    for node in _walk(mc.body):
        if isinstance(node, ir.IrVarDecl):
            types.setdefault(node.slot, set()).add(node.ty)
    return {slot: tys.pop() for slot, tys in types.items() if len(tys) == 1}


def _writes_locals(node) -> bool:
    """Whether evaluating `node` may assign a local: `++` does, and so does
    a `<=>` body, through its closure cells."""
    return any(isinstance(n, (ir.IrPostIncr, ir.IrQueuedEval))
               for n in _walk(node))


def _int_literal(node) -> int | None:
    """The value of an int literal or a negated one; None for any other
    expression."""
    if isinstance(node, ir.IrInt):
        return node.value
    if (isinstance(node, ir.IrUn) and node.op == "neg"
            and isinstance(node.operand, ir.IrInt)):
        return wrap_i64(-node.operand.value)
    return None


class _Scope:
    """One Python function being written: the body, or a function nested in
    it for a `<=>` expression or a deep expression or statement."""

    def __init__(self, indent: str):
        self.indent = indent  # of the function's body
        self.lines: list[str] = []
        self.writes: set[int] = set()  # local slots this function assigns


class _Source:
    """Writes one method body as the source of a Python function."""

    def __init__(self, mc: ir.MethodCode, cls, image: Image):
        self.mc = mc
        self.image = image
        self.env = dict(_HELPERS)  # the function's globals
        self.ids = itertools.count()
        self.types = _slot_types(mc)
        self.waiting = image.waiting(cls.name, mc)
        self.callees: dict[tuple, str] = {}  # (class, method) -> global
        self.scope = _Scope("    ")
        self.depth = 0  # of the expression being written, in this function
        # Nested functions, all defined at the top of the body's function,
        # so that Python's limit of 100 indents does not bound the nesting.
        self.defs: list[str] = []

    def function(self, name: str):
        mc = self.mc
        suspends = self.suspends(mc.body)
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

    def suspends(self, node) -> bool:
        """Whether evaluating `node` may wait on a future: at a node that
        waits (`_waits_at`) other than a direct call, or at a direct call of
        a method that waits."""
        for n in _walk(node):
            if type(n) is ir.IrCallStatic:
                callee = self.image.callee(n)
                if callee is None or callee in self.waiting:
                    return True
            elif _waits_at(n):
                return True
        return False

    def wrap(self, value: str) -> str:
        """`_wrap(value)`, with no call when the value is in range."""
        t = self.temp()
        return (f"({t} if {INT_MIN} <= ({t} := {value}) <= {INT_MAX}"
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

    def once(self, node, *later) -> tuple[str, str]:
        """The source that evaluates `node`, and a name that reads its value
        again after it and `later`, the nodes evaluated next. A literal,
        `this`, or a local that `later` cannot assign is its own name; any
        other value is held in a temporary."""
        value = self.expr(node)
        if isinstance(node, (ir.IrInt, ir.IrThis)) or isinstance(
                node, ir.IrLocal) and not any(map(_writes_locals, later)):
            return value, value
        t = self.temp()
        return f"({t} := {value})", t

    # --- the type pass ---------------------------------------------------------

    def ty(self, node) -> ir.TypeDesc | None:
        """The type of the value of expression `node`, from literals, the
        slots' declared types, the element types of typed arrays, operators
        and builtins; None where the pass does not know it. A field's value
        is not typed: an object received by value is built with the fields
        its sender wrote."""
        kind = type(node)
        if kind is ir.IrLocal:
            return self.types.get(node.slot)
        if kind is ir.IrBin:
            return _BIN_TYPES[node.op]
        if kind is ir.IrIndex:
            arr = self.ty(node.arr)
            return arr and ir.TypeDesc(arr.base, arr.depth - 1, arr.cls)
        if kind is ir.IrUn:
            return ir.TD_INT if node.op == "neg" else ir.TD_BOOL
        if kind is ir.IrCallBuiltin:
            return _BUILTIN_TYPES.get(node.hook)
        if kind is ir.IrNewArray:
            elem = node.elem
            return ir.TypeDesc(elem.base, elem.depth + len(node.dims), elem.cls)
        if kind is ir.IrTernary:
            then = self.ty(node.then)
            return then if then == self.ty(node.other) else None
        return _LEAF_TYPES.get(kind)

    def is_int(self, node) -> bool:
        return self.ty(node) == ir.TD_INT

    # --- specialised sites -----------------------------------------------------

    def field_site(self, o: str) -> tuple[str, str, str]:
        """The inline path of a field access of the object ref `o` of this
        host: its guard, the slot it reads, and the site's cache, a list
        holding one (layout token, class, slot) entry. The guard finds the
        record and tests its partition, that it has no ACL, and that the
        entry is of the record's class, by `==`, and of the engine's layout;
        the entry is read once, as one tuple, since engines on other threads
        refill it."""
        r, c = self.temp(), self.temp()
        site = self.const([(None, None, 0)])
        guard = (f"({r} := e.objects.get({o}.oid)) is not None"
                 f" and {r}.partition == {o}.partition and {r}.acl is None"
                 f" and ({c} := {site}[0])[1] == {r}.cls"
                 f" and {c}[0] is e.layout")
        return guard, f"{r}.fields[{c}[2]]", site

    def field_get(self, node):
        o1, o = self.once(node.obj)
        name = repr(node.name)
        guard, slot, site = self.field_site(o)
        return (f"(({slot} if {guard} else _get_field("
                f"e, {o}, {name}, {node.index}, ctx, {site}))"
                f" if {o1} is not None and {o}.host == e.host_name"
                f" else (yield from e.remote_get_field("
                f"_field_of({o}, {name}), {name}, ctx)))")

    def index_site(self, node, kind) -> tuple[str, str, str, str]:
        """The inline path of an element access `node` of an array of type
        `kind`: its guard, the element, the array and the index. The guard
        tests the null and the bounds, and does not short-circuit before the
        index is evaluated, so the array, then the index, are evaluated
        once whichever path runs."""
        a1, a = self.once(node.arr, node.idx)
        i1, i = self.once(node.idx)
        data = "data" if kind == _STRING else "items"
        guard = (f"(({a1} is not None) & (0 <= {i1}))"
                 f" and {i} < len({a}.{data})")
        return guard, f"{a}.{data}[{i}]", a, i

    def index(self, node, code: bool = False):
        """An element read; with `code`, the code of an element of a typed
        `char[]`."""
        kind = self.ty(node.arr)
        if kind is None:
            return f"_read_index({self.expr(node.arr)}, {self.expr(node.idx)})"
        guard, elem, a, i = self.index_site(node, kind)
        if kind == _STRING:
            return (f"({elem} if {guard} else _read_index({a}, {i}).code)"
                    if code else
                    f"(_CHARS[{elem}] if {guard} else _read_index({a}, {i}))")
        return f"({elem} if {guard} else _read_index({a}, {i}))"

    def code(self, node) -> str:
        """The code of a char-typed expression."""
        if isinstance(node, ir.IrChar):
            return repr(node.code)
        if isinstance(node, ir.IrIndex):
            return self.index(node, code=True)
        return f"{self.expr(node)}.code"

    def builtin(self, node):
        """A builtin: `exec_read` waits, through the engine, which looks its
        intrinsic up when it runs; the others call theirs, bound when the
        body compiles. `sizear(a, 1)` on a typed array is its length."""
        hook, args = node.hook, node.args
        if hook == _SUSPENDING_HOOK:
            return f"(yield from e.exec_read({self.args(args)}, ctx))"
        if hook not in INTRINSICS:
            return f"e.call_intrinsic({hook!r}, {self.args(args)}, ctx)"
        fn = self.const(INTRINSICS[hook])
        kind = self.ty(args[0]) if args else None
        if hook == "sizear" and kind and kind.depth and _int_literal(
                args[1]) == 1:
            a1, a = self.once(args[0])
            data = "data" if kind == _STRING else "items"
            return (f"(len({a}.{data}) if {a1} is not None"
                    f" else {fn}(e, ctx, [{a}, 1]))")
        return f"{fn}(e, ctx, {self.args(args)})"

    def bin(self, node):
        op, left, right = node.op, node.left, node.right
        if op in ("div", "mod"):
            divisor = _int_literal(right)
            if divisor not in (None, 0, -1):
                return self.div_by(op, self.expr(left), divisor)
            if divisor is None and self.is_int(right):
                return self.div_positive(op, left, right)
        if op in _INT_BINOPS:
            kind = self.ty(left)
            if kind in _COMPARED and kind == self.ty(right):
                if kind == ir.TD_CHAR:
                    return _INT_BINOPS[op].format(self.code(left),
                                                  self.code(right))
                return _INT_BINOPS[op].format(self.expr(left), self.expr(right))
        value = _BINOPS[op].format(self.expr(left), self.expr(right))
        return self.wrap(value) if op in _WRAPPED else value

    def div_positive(self, op: str, left, right) -> str:
        """`left / right` or `left % right` by an int that is not a literal:
        Python's operator when the dividend is >= 0 and the divisor > 0,
        where it truncates as the language does and needs no wrap, and
        `_div`/`_mod` otherwise. The test does not short-circuit, so both
        operands are evaluated once, the dividend first."""
        a1, a = self.once(left, right)
        b1, b = self.once(right)
        py, helper = ("//", "_div") if op == "div" else ("%", "_mod")
        return (f"({a} {py} {b} if (({a1} >= 0) & ({b1} > 0))"
                f" else {helper}({a}, {b}))")

    def div_by(self, op: str, left: str, divisor: int) -> str:
        """`left / divisor` or `left % divisor`, truncating, with Python's
        own operator on the magnitudes. The result is no larger than the
        dividend, so it needs no wrap; 0 and -1 are left to `_div`/`_mod`."""
        t, c = self.temp(), abs(divisor)
        py = "//" if op == "div" else "%"
        value = f"({t} {py} {c} if ({t} := {left}) >= 0 else -(-{t} {py} {c}))"
        return f"(-{value})" if op == "div" and divisor < 0 else value

    def logic(self, node):
        left, right = self.expr(node.left), self.expr(node.right)
        if node.op == "and":
            return f"({right} if {left} else False)"
        return f"(True if {left} else {right})"

    def un(self, node):
        if node.op == "not":
            return f"(not {self.expr(node.operand)})"
        if isinstance(node.operand, ir.IrInt):  # a negative literal
            return f"({_int_literal(node)})"
        return self.wrap(f"-{self.expr(node.operand)}")

    def call_static(self, node):
        """A static call: of a method of this image with no copy parameter
        and no copy return, a direct call of its compiled function, bound
        when the site first runs (`_Bind`); of any other, through
        `Engine.invoke_static`."""
        callee = self.image.callee(node)
        if callee is None:
            return (f"(yield from e.invoke_static({self.const(node.cls)}, "
                    f"{node.method!r}, {self.args(node.args)}, ctx))")
        fn = self.callees.get(callee)
        if fn is None:
            fn = self.callees[callee] = f"d{next(self.ids)}"
            image = self.image
            self.env[fn] = _Bind(self.env, fn, (
                image.classes[callee[0]].method(callee[1]), node.cls, image))
        args = "".join(f", {self.expr(a)}" for a in node.args)
        call = f"{fn}(e, None, ctx{args})"
        return f"(yield from {call})" if callee in self.waiting else call

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
        if generator and not self.suspends(node):
            self.defs.append("        yield  # a generator function")
        return fn

    def call_nested(self, write, node) -> str:
        fn = self.nested(write, node, False)
        return f"(yield from {fn}())" if self.suspends(node) else f"{fn}()"

    # --- stores ----------------------------------------------------------------

    def store(self, target, value: str) -> str:
        """An expression that stores the source `value` into `target`,
        through the helpers. It evaluates the target's subexpressions, then
        `value`."""
        if isinstance(target, ir.IrIndex):
            return (f"_write_index({self.expr(target.arr)}, "
                    f"{self.expr(target.idx)}, {value})")
        o1, o = self.once(target.obj)
        name = repr(target.name)
        site = self.const([(None, None, 0)])
        return (f"(_set_field(e, {o}, {name}, {target.index}, {value}, ctx, "
                f"{site}) if {o1} is not None and {o}.host == e.host_name"
                f" else (yield from e.remote_set_field("
                f"_field_of({o}, {name}), {name}, {value}, ctx)))")

    def store_stmt(self, target, value: str, ind: str, is_char: bool) -> None:
        """Statements that store `value` into `target`, as `store` does,
        with the inline path of a field or of a typed array's element
        first. `is_char` says that `value` is a char by its type."""
        inner = ind + "    "
        if isinstance(target, ir.IrFieldGet):
            o1, o = self.once(target.obj)
            name = repr(target.name)
            guard, slot, site = self.field_site(o)
            self.emit(ind, f"if {o1} is not None and {o}.host == e.host_name:")
            self.emit(inner, f"if {guard}:")
            self.emit(inner + "    ", f"{slot} = {value}")
            self.emit(inner, "else:")
            self.emit(inner + "    ", f"_set_field(e, {o}, {name}, "
                                       f"{target.index}, {value}, ctx, {site})")
            self.emit(ind, "else:")
            self.emit(inner, f"yield from e.remote_set_field("
                             f"_field_of({o}, {name}), {name}, {value}, ctx)")
            return
        kind = self.ty(target.arr)
        if kind is None:
            self.emit(ind, self.store(target, value))
            return
        guard, elem, a, i = self.index_site(target, kind)
        put = f"{elem} = {value}"
        if kind == _STRING:  # a shared array gets its own bytes first
            guard += f" and not {a}.shared"
            if not is_char:
                guard += f" and {value}.__class__ is Char"
            put += ".code"
        self.emit(ind, f"if {guard}:")
        self.emit(inner, put)
        self.emit(ind, "else:")
        self.emit(inner, f"_write_index({a}, {i}, {value})")

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
        if op == "concat" and isinstance(value, ir.IrStr):
            # appends the constant's bytes, unless the target is null or
            # shares its bytes, where `_append` faults or copies
            t1, t = self.once(target)
            k = self.const(self.image.consts[value.pool])
            self.emit(ind, f"if {t1} is not None and not {t}.shared:")
            self.emit(ind + "    ", f"{t}.data += {k}")
            self.emit(ind, "else:")
            self.emit(ind + "    ", f"_append({t}, CharArray({k}))")
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
                self.store_stmt(target, self.wrap(f"{old} {sign} {v}"), ind,
                                False)
            return
        if op == "set":
            self.store_stmt(target, v, ind, self.ty(value) == ir.TD_CHAR)
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
    ir.IrStr: lambda s, n: f"CharArray({s.const(s.image.consts[n.pool])})",
    ir.IrNull: lambda s, n: "None",
    ir.IrLocal: lambda s, n: f"l{n.slot}",
    ir.IrThis: lambda s, n: "this",
    ir.IrThisHost: lambda s, n: "e.this_host_ref()",
    ir.IrHostsRoot: lambda s, n: "e.hosts_root_ref()",
    ir.IrFieldGet: _Source.field_get,
    ir.IrIndex: _Source.index,
    ir.IrBin: _Source.bin,
    ir.IrLogic: _Source.logic,
    ir.IrUn: _Source.un,
    ir.IrTernary: lambda s, n: (f"({s.expr(n.then)} if {s.expr(n.cond)}"
                                f" else {s.expr(n.other)})"),
    ir.IrPostIncr: _Source.post_incr,
    ir.IrCallMethod: lambda s, n: (
        f"(yield from e.invoke({s.expr(n.obj)}, {n.method!r}, "
        f"{s.args(n.args)}, ctx))"),
    ir.IrCallStatic: _Source.call_static,
    ir.IrCallBuiltin: _Source.builtin,
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
