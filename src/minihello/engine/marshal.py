"""Argument and return-value marshaling: deep copy, reference translation,
and conversion to and from wire bytes.

Rules, applied per parameter (and to return values under the return's copy
flag):

- primitives always travel by value;
- arrays travel by value across hosts; locally they pass by reference unless
  the parameter is copy-qualified (message posts additionally snapshot array
  arguments at enqueue time so callers may reuse buffers);
- a local copy of a `char[]`, under a copy-qualified parameter or in a post
  snapshot, is copy-on-write: it shares the original's bytes, and whichever
  array is written first gets its own. The three sites that write a
  `char[]`'s bytes, `machine._write_index`, `CharArray.append` (`+=`) and
  `Engine.exec_read`, each make that copy; a copy taken while `exec_read`
  is filling the array is made at once;
- under a copy-qualified parameter, the reachable local object graph is
  copied with aliasing and cycles preserved; objects living on other hosts
  stay references; builtin instances (hosts, queues, group nodes) always
  stay references;
- without the copy qualifier an object travels as a remote reference back to
  the original;
- a non-external user object that would have to cross hosts is refused with
  NonCopyableValue.

A value leaving the host is written to its wire bytes in one walk
(`to_wire`). A value arriving is read in one walk too: the decoder builds
each of its objects as a heap record through the frame's `Intake`, the
records join the heap once the frame is accepted, and the value is final.
Each received `char[]` owns the bytes the decoder copied out of the frame.
All that is left for the receiving task is `from_wire`: to load the
classes those objects name that this host lacks.
"""

from __future__ import annotations

import struct

from ..errors import E_NON_COPYABLE, EngineError
from ..frontend.types import STD_PACKAGE
from ..net.wirevalues import write_value
from ..runpack import ir
from ..values import Array, CharArray, ObjectRef
from .objects import ObjectRecord

_U16 = struct.Struct(">H")


def _is_builtin(cls) -> bool:
    return cls.package == STD_PACKAGE


def local_copy(engine, v, memo: dict | None = None):
    """Structural deep copy inside one engine: fresh arrays, fresh heap
    objects, aliasing and cycles preserved. References to builtin instances
    and to remote objects are preserved as references. A `char[]` copy is
    copy-on-write (`_copy_chars`)."""
    if memo is None:
        memo = {}
    if isinstance(v, CharArray):
        return _copy_chars(engine, v)
    if isinstance(v, Array):
        key = id(v)
        if key in memo:
            return memo[key]
        out = Array(v.elem_tag, [])
        memo[key] = out
        out.items = [local_copy(engine, item, memo) for item in v.items]
        return out
    if isinstance(v, ObjectRef):
        if v.host != engine.host_name or _is_builtin(v.cls):
            return v
        key = ("obj", v.partition, v.oid)
        if key in memo:
            return memo[key]
        record = engine.deref(v)
        new_ref = engine.alloc_object(record.cls, None, [None] * len(record.fields))
        memo[key] = new_ref
        new_record = engine.deref(new_ref)
        new_record.fields = [local_copy(engine, f, memo) for f in record.fields]
        return new_ref
    return v


def _copy_chars(engine, v: CharArray) -> CharArray:
    """A copy of `v` that shares its bytes until either array is written,
    or, while `exec_read` is filling `v`, a copy of the bytes it holds now."""
    if v in engine.filling:
        return CharArray(v.data)
    return v.share()


def snapshot_arrays(engine, v):
    """Copy used at message-post enqueue: arrays are snapshotted, object
    references pass through untouched. A `char[]` snapshot is copy-on-write
    (`_copy_chars`)."""
    if isinstance(v, CharArray):
        return _copy_chars(engine, v)
    if isinstance(v, Array):
        return Array(v.elem_tag, [snapshot_arrays(engine, item) for item in v.items])
    return v


def to_wire(engine, v, copy: bool, out: bytearray | None = None) -> bytearray:
    """Append the wire encoding of a value that leaves this host to `out`
    (a new buffer when None) and return the buffer. The value is walked
    once: a local object the rules send by value is written straight from
    its heap record."""
    if out is None:
        out = bytearray()
    host = engine.host_name
    # id(cls) -> (cls, crosses by value); holding cls keeps its id unique
    rules: dict[int, tuple] = {}

    def crossing(ref: ObjectRef):
        if ref.host != host:
            return None
        rule = rules.get(id(ref.cls))
        if rule is None:
            rule = rules[id(ref.cls)] = (
                ref.cls, _crosses_by_value(engine, ref.cls, copy))
        return engine.deref(ref) if rule[1] else None

    write_value(out, v, crossing)
    return out


def _crosses_by_value(engine, cls, copy: bool) -> bool:
    """Whether a local object of `cls` leaves this host by value (or as a
    reference); raises NonCopyableValue if it may not leave at all."""
    if _is_builtin(cls):
        return False
    rc = engine.runtime_class(cls)
    if rc is not None and rc.has(ir.CQ_EXTERNAL):
        return copy
    if copy:
        raise EngineError(
            E_NON_COPYABLE,
            f"object of non-external class {cls} inside a copied graph "
            "crossing hosts")
    raise EngineError(
        E_NON_COPYABLE,
        f"{cls} is not external; it can neither cross hosts by value nor be "
        "referenced remotely")


def write_args(engine, params: list[ir.IrParam] | None, args: list,
               out: bytearray) -> None:
    """Append an argument list that leaves this host to `out`: its u16
    count, then each argument under its parameter's copy flag.

    `params` may be None when the callee's signature is not known locally;
    arrays then travel by value and objects as references."""
    out += _U16.pack(len(args))
    for i, arg in enumerate(args):
        copy = params[i].copy if params is not None and i < len(params) else False
        to_wire(engine, arg, copy, out)


class Intake:
    """The object constructor (`new_object`) of one arriving frame's values:
    each object node becomes a heap record as it is decoded. The records
    enter `engine.objects` at `commit`, once the frame is accepted, so a
    malformed or refused frame adds none; its oids are never used again.
    `missing` lists the classes they name that the engine has not loaded,
    in first-seen order."""

    __slots__ = ("engine", "records", "missing")

    def __init__(self, engine):
        self.engine = engine
        self.records: dict[int, ObjectRecord] = {}
        self.missing: list = []

    def __call__(self, cls, fields: list) -> ObjectRef:
        engine = self.engine
        if cls not in engine.classes and cls not in self.missing:
            self.missing.append(cls)
        oid = next(engine.oids)
        self.records[oid] = ObjectRecord(cls, fields, None)
        return ObjectRef(engine.host_name, None, oid, cls)

    def commit(self) -> None:
        self.engine.objects.update(self.records)


def from_wire(engine, missing: list, fetch_from: str | None, ctx):
    """Load the classes of received objects that this host lacks
    (`Intake.missing`), from `fetch_from`, in order. Generator: may wait on
    a fetch."""
    for cls in missing:
        yield from engine.ensure_class(cls, fetch_from, ctx)


def marshal_args(engine, params: list[ir.IrParam] | None, args: list, *,
                 post: bool):
    """Marshal an argument list for an invocation on this host.

    `params` may be None when the callee's signature is not known locally;
    no argument is then copied.
    """
    memo: dict = {}
    out = []
    for i, arg in enumerate(args):
        copy = params[i].copy if params is not None and i < len(params) else False
        if copy:
            out.append(local_copy(engine, arg, memo))
        elif post:
            out.append(snapshot_arrays(engine, arg))
        else:
            out.append(arg)
    return out
