"""Wire encoding of runtime values.

Tag-length-value, big-endian. Tags: 0 null, 1 bool, 2 int, 3 char, 4 array,
5 object-node, 6 remote-ref, 7 back-ref. Object graphs travel as a node
list: the first visit of a node emits tag 5 with its class and fields, every
revisit emits tag 7 with the node's index, so shared nodes and cycles
round-trip exactly. char arrays are encoded as raw bytes for bulk transfer.

`write_value` appends a value to a buffer in one walk. The marshaler
(`engine/marshal.py`) gives it the rule by which local objects cross, so a
copied object graph is written straight from its heap records. The decoder
returns object nodes as `WireObject`s, which the marshaler turns into heap
objects at the receiving host. It copies each char array out of the input
into a fresh `bytearray`, which the marshaler adopts without another copy;
only values that are still local are copied there.
"""

from __future__ import annotations

import functools
import struct

from ..bio import Reader
from ..values import (Array, Char, CharArray, ClassKey, ObjectRef, TAG_ARRAY,
                      TAG_BACK_REF, TAG_BOOL, TAG_CHAR, TAG_INT, TAG_NULL,
                      TAG_OBJECT, TAG_REMOTE_REF, WireObject)

_ELEM_TAGS = frozenset((TAG_BOOL, TAG_INT, TAG_CHAR, TAG_ARRAY, TAG_OBJECT))
_MAX_DEPTH = 200
_CACHE_SIZE = 1024  # hosts or classes whose encodings are kept

_TAG_U8 = struct.Struct(">BB")      # bool, char
_TAG_I64 = struct.Struct(">Bq")     # int
_TAG_U32 = struct.Struct(">BI")     # back-ref; array element tag and count
_ARRAY = struct.Struct(">BBI")      # tag, element tag, count
_U16 = struct.Struct(">H")          # string length, field count
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_REF_IDS = struct.Struct(">BIQ")    # space, partition, oid


class MalformedEncoding(Exception):
    pass


class UnknownTag(MalformedEncoding):
    pass


# ------------------------------------------------------------------ encoding

def _wstr(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError("string too long for wire")
    return _U16.pack(len(data)) + data


# Hosts and classes repeat across values, so their encodings are kept; they
# are pure functions of their argument.
@functools.lru_cache(maxsize=_CACHE_SIZE)
def _host_wire(host: str) -> bytes:
    return _wstr(host)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _class_wire(cls: ClassKey) -> bytes:
    return _wstr(cls.package) + _wstr(cls.name)


def _ref_wire(ref: ObjectRef) -> bytes:
    pid = ref.partition
    ids = (_REF_IDS.pack(0, 0, ref.oid) if pid is None
           else _REF_IDS.pack(1, pid, ref.oid))
    return b"%c%b%b%b" % (TAG_REMOTE_REF, _host_wire(ref.host), ids,
                          _class_wire(ref.cls))


def encode_value(v) -> bytes:
    """The encoding of a value whose object references all travel as
    references; `WireObject` nodes are written as object nodes."""
    out = bytearray()
    _write(out, v, None, {}, 0)
    return bytes(out)


def write_value(out: bytearray, v, local=None) -> None:
    """Append the encoding of `v` to `out`, with a back-reference table of
    its own. `local(ref)` decides how an ObjectRef crosses: it returns None
    to send the reference, or a record (with `cls` and `fields`) to send the
    object by value; it may raise to refuse the value. Without it every
    ObjectRef travels as a reference."""
    _write(out, v, local, {}, 0)


def _write(out: bytearray, v, local, seen: dict[int, int], depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise MalformedEncoding("value nesting too deep")
    t = type(v)
    if t is ObjectRef:
        node = local(v) if local is not None else None
        if node is None:
            out += _ref_wire(v)
            return
    elif t is WireObject:
        node = v
    elif t is int:
        out += _TAG_I64.pack(TAG_INT, v)
        return
    elif v is None:
        out.append(TAG_NULL)
        return
    elif t is CharArray:
        data = v.data
        out += _ARRAY.pack(TAG_ARRAY, TAG_CHAR, len(data))
        out += data
        return
    elif t is Array:
        items = v.items
        out += _ARRAY.pack(TAG_ARRAY, v.elem_tag, len(items))
        depth += 1
        for item in items:
            _write(out, item, local, seen, depth)
        return
    elif t is bool:
        out += _TAG_U8.pack(TAG_BOOL, 1 if v else 0)
        return
    elif t is Char:
        out += _TAG_U8.pack(TAG_CHAR, v.code & 0xFF)
        return
    else:
        raise MalformedEncoding(f"not an encodable value: {v!r}")
    # an object node: first visit writes it, a revisit its index
    idx = seen.get(id(node))
    if idx is not None:
        out += _TAG_U32.pack(TAG_BACK_REF, idx)
        return
    seen[id(node)] = len(seen)
    fields = node.fields
    out.append(TAG_OBJECT)
    out += _class_wire(node.cls)
    out += _U16.pack(len(fields))
    depth += 1
    for f in fields:
        _write(out, f, local, seen, depth)


# ------------------------------------------------------------------ decoding

def decode_value(data: bytes):
    r = Reader(data)
    v = decode_value_prefix(r)
    if not r.at_end():
        raise MalformedEncoding("trailing bytes after value")
    return v


def decode_value_prefix(r: Reader):
    """Decode one value from the reader's current position and move the
    reader past it."""
    try:
        v, r.pos = _read(r.data, r.pos, [], 0)
    except (struct.error, IndexError) as exc:  # fixed-size read past the end
        raise MalformedEncoding(f"truncated value: {exc}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise MalformedEncoding(str(exc)) from exc
    return v


def _read_str(data, pos: int) -> tuple[str, int]:
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    end = pos + n
    if end > len(data):
        raise MalformedEncoding(f"string of {n} bytes runs past the end")
    return str(data[pos:end], "utf-8"), end


def _read_class(data, pos: int) -> tuple[ClassKey, int]:
    (n,) = _U16.unpack_from(data, pos)
    (m,) = _U16.unpack_from(data, pos + 2 + n)
    end = pos + 4 + n + m
    if end > len(data):
        raise MalformedEncoding("class name runs past the end")
    return _class_key(bytes(data[pos:end])), end


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _class_key(raw: bytes) -> ClassKey:
    """The class whose two strings, package and name, are encoded in `raw`."""
    mid = 2 + _U16.unpack_from(raw)[0]
    return ClassKey(str(raw[2:mid], "utf-8"), str(raw[mid + 2:], "utf-8"))


def _read(data, pos: int, nodes: list, depth: int):
    """The value at `pos` and the position after it."""
    if depth > _MAX_DEPTH:
        raise MalformedEncoding("value nesting too deep")
    tag = data[pos]
    pos += 1
    if tag == TAG_BACK_REF:
        (idx,) = _U32.unpack_from(data, pos)
        if idx >= len(nodes):
            raise MalformedEncoding(f"back-ref {idx} out of range")
        return nodes[idx], pos + 4
    if tag == TAG_OBJECT:
        cls, pos = _read_class(data, pos)
        (n_fields,) = _U16.unpack_from(data, pos)
        pos += 2
        node = WireObject(cls)
        nodes.append(node)  # registered before fields so cycles resolve
        fields = node.fields
        depth += 1
        for _ in range(n_fields):
            v, pos = _read(data, pos, nodes, depth)
            fields.append(v)
        return node, pos
    if tag == TAG_INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == TAG_ARRAY:
        elem, count = _TAG_U32.unpack_from(data, pos)
        pos += 5
        if elem not in _ELEM_TAGS:
            raise MalformedEncoding(f"bad array element tag {elem}")
        if elem == TAG_CHAR:
            end = pos + count
            if end > len(data):
                raise MalformedEncoding(f"char array of {count} bytes runs past the end")
            return CharArray.wrap(bytearray(data[pos:end])), end
        items = []
        depth += 1
        for _ in range(count):
            v, pos = _read(data, pos, nodes, depth)
            items.append(v)
        return Array(elem, items), pos
    if tag == TAG_NULL:
        return None, pos
    if tag == TAG_REMOTE_REF:
        host, pos = _read_str(data, pos)
        space, pid, oid = _REF_IDS.unpack_from(data, pos)
        cls, pos = _read_class(data, pos + 13)
        if space not in (0, 1):
            raise MalformedEncoding(f"bad ref space {space}")
        return ObjectRef(host, None if space == 0 else pid, oid, cls), pos
    if tag == TAG_BOOL:
        return data[pos] != 0, pos + 1
    if tag == TAG_CHAR:
        return Char(data[pos]), pos + 1
    raise UnknownTag(f"unknown value tag {tag}")
