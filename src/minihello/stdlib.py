"""Builtin classes (host, host_group, queue) and the intrinsic function set.

Every package sees these without importing anything. The checker consumes the
signature tables; the engine binds the native implementations. The intrinsic
set is closed: the checker rejects unknown builtin names at compile time.
"""

from __future__ import annotations

import subprocess

from .errors import E_BAD_DIMENSION, E_EXEC_FAILED, E_INDEX, EngineError
from .frontend.types import (
    T_HOST, T_HOST_GROUP, T_INT, T_STRING, T_VOID, BuiltinFuncSig, ClassSig,
    FieldSig, HOST_GROUP_KEY, HOST_KEY, MethodSig, ParamSig, QUEUE_KEY, TArray,
)
from .values import Array, CharArray, ObjectRef, TAG_INT, wrap_i64

# Well-known object ids inside every host's partition 0.
HOST_OBJECT_OID = 1
HOSTS_NODE_OID = 2
SERVICE_QUEUE_OID = 3


def _host_sig() -> ClassSig:
    sig = ClassSig(HOST_KEY, frozenset({"public", "external"}), builtin=True)
    sig.methods["name"] = MethodSig("name", frozenset({"public", "external"}),
                                    (), T_STRING)
    sig.methods["print"] = MethodSig("print", frozenset({"public", "external"}),
                                     (ParamSig("str", T_STRING, True),), T_VOID)
    return sig


def _host_group_sig() -> ClassSig:
    sig = ClassSig(HOST_GROUP_KEY, frozenset({"public", "external", "group"}),
                   builtin=True)
    sig.fields["current_host"] = FieldSig("current_host", T_HOST, 0)
    sig.methods["children"] = MethodSig(
        "children", frozenset({"public", "external"}), (),
        TArray(T_HOST_GROUP), ret_copy=True)
    sig.methods["print"] = MethodSig(
        "print", frozenset({"public", "external", "iterator"}),
        (ParamSig("str", T_STRING, True),), T_VOID)
    return sig


def _queue_sig() -> ClassSig:
    sig = ClassSig(QUEUE_KEY, frozenset({"public", "external"}), builtin=True)
    sig.methods["queue"] = MethodSig("queue", frozenset({"public", "external"}),
                                     (), T_VOID, is_ctor=True)
    return sig


BUILTIN_CLASSES: dict[str, ClassSig] = {
    "host": _host_sig(),
    "host_group": _host_group_sig(),
    "queue": _queue_sig(),
}

# None in a params tuple means "any array" (sizear is rank-polymorphic).
BUILTIN_FUNCS: dict[str, BuiltinFuncSig] = {
    "hello": BuiltinFuncSig("hello", (T_STRING,), T_HOST, "hello"),
    "sizear": BuiltinFuncSig("sizear", (None, T_INT), T_INT, "sizear"),
    "sizearg": BuiltinFuncSig("sizearg", (None, T_INT), T_INT, "sizear"),
    "print": BuiltinFuncSig("print", (T_STRING,), T_VOID, "print"),
    "parse_int": BuiltinFuncSig("parse_int", (T_STRING,), T_INT, "parse_int"),
    "exec_open": BuiltinFuncSig("exec_open", (T_STRING,), T_INT, "exec_open"),
    "exec_read": BuiltinFuncSig("exec_read", (T_INT, T_STRING, T_INT),
                                TArray(T_INT), "exec_read"),
    "write_stdout": BuiltinFuncSig("write_stdout", (T_STRING, T_INT), T_INT,
                                   "write_stdout"),
}


# --- intrinsic implementations ----------------------------------------------

def intrinsic_sizear(engine, ctx, args):
    arr, dim = args
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise EngineError(E_BAD_DIMENSION, "dimension must be an int")
    cur = arr
    d = dim
    if d < 1:
        raise EngineError(E_BAD_DIMENSION, f"dimension {dim} out of range")
    while d > 1:
        if not isinstance(cur, Array) or len(cur.items) == 0 \
                or not isinstance(cur.items[0], (Array, CharArray)):
            raise EngineError(E_BAD_DIMENSION, f"dimension {dim} out of range")
        cur = cur.items[0]
        d -= 1
    if isinstance(cur, CharArray):
        return len(cur.data)
    if isinstance(cur, Array):
        return len(cur.items)
    raise EngineError(E_BAD_DIMENSION, "sizear needs an array")


def intrinsic_parse_int(engine, ctx, args):
    (s,) = args
    text = bytes(s.data)
    i, n = 0, len(text)
    while i < n and text[i] in b" \t\r\n":
        i += 1
    sign = 1
    if i < n and text[i] in b"+-":
        if text[i] == ord("-"):
            sign = -1
        i += 1
    value = 0
    while i < n and ord("0") <= text[i] <= ord("9"):
        value = value * 10 + (text[i] - ord("0"))
        i += 1
    return wrap_i64(sign * value)


def intrinsic_print(engine, ctx, args):
    (s,) = args
    engine.write_stdout(bytes(s.data))
    return None


def intrinsic_hello(engine, ctx, args):
    (name,) = args
    return engine.hello_lookup(name.to_str())


def intrinsic_exec_open(engine, ctx, args):
    (cmd,) = args
    command = cmd.to_str()
    if not command.strip():
        raise EngineError(E_EXEC_FAILED, "empty command")
    try:
        proc = subprocess.Popen(command, shell=True, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
    except OSError as exc:
        raise EngineError(E_EXEC_FAILED, str(exc)) from exc
    return engine.register_exec_handle(proc, ctx.queue)


def intrinsic_exec_read(engine, ctx, args):
    """The status array (n, eof, err) of a read of a command's output into
    a buffer, which `Engine.exec_read` waited for. `args` are the process,
    maxn and the read's (n, err); at EOF the process is reaped and its
    output pipe closed."""
    proc, maxn, (n, err) = args
    eof = n < maxn
    if eof and not err:
        proc.wait()
        proc.stdout.close()
    return Array(TAG_INT, [n, 1 if eof else 0, 1 if err else 0])


def intrinsic_write_stdout(engine, ctx, args):
    buf, length = args
    if length < 0 or length > len(buf.data):
        raise EngineError(E_INDEX, "write length exceeds buffer")
    # a view, released on return so that the program may resize `buf`
    with memoryview(buf.data)[:length] as data:
        engine.write_stdout(data)
    return length


INTRINSICS = {
    "sizear": intrinsic_sizear,
    "parse_int": intrinsic_parse_int,
    "print": intrinsic_print,
    "hello": intrinsic_hello,
    "exec_open": intrinsic_exec_open,
    "exec_read": intrinsic_exec_read,
    "write_stdout": intrinsic_write_stdout,
}


# --- native builtin class methods -------------------------------------------

def native_host_name(engine, ctx, this_ref, args):
    return CharArray.from_str(engine.host_name)


def native_print(engine, ctx, this_ref, args):
    """`print` of a host, and the iterator `print` of the hosts group."""
    (s,) = args
    engine.write_stdout(bytes(s.data))
    return None


def native_group_children(engine, ctx, this_ref, args):
    return engine.hosts_group_children()


NATIVE_METHODS = {
    (HOST_KEY, "name"): native_host_name,
    (HOST_KEY, "print"): native_print,
    (HOST_GROUP_KEY, "children"): native_group_children,
    (HOST_GROUP_KEY, "print"): native_print,
}


def host_ref(host_name: str) -> ObjectRef:
    return ObjectRef(host_name, 0, HOST_OBJECT_OID, HOST_KEY)


def hosts_node_ref(host_name: str) -> ObjectRef:
    return ObjectRef(host_name, 0, HOSTS_NODE_OID, HOST_GROUP_KEY)
