"""Big-endian binary reader and writer, and the codecs built on them.

A Codec is a (write, read) pair: write(w, value) appends a value to a
Writer, read(r) takes one back from a Reader. A layout is declared once, as
a codec built from the scalar codecs here with `list_of`, `optional`,
`tuple_of` and `struct`, and both ends use it: the .rpk image format
(`runpack/image.py`, `runpack/ir.py`) and every fixed-form frame payload
(`net/frames.py`).
"""

from __future__ import annotations

from struct import Struct
from typing import Any, Callable, NamedTuple

_U16 = Struct(">H")
_U32 = Struct(">I")
_U64 = Struct(">Q")
_I64 = Struct(">q")


class ShortRead(Exception):
    """Raised when a reader runs past the end of its buffer."""


class BadString(Exception):
    """Raised when a string a reader takes is not UTF-8."""


class Writer:
    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

    def u8(self, n: int) -> "Writer":
        self.buf.append(n & 0xFF)
        return self

    def u16(self, n: int) -> "Writer":
        self.buf += _U16.pack(n)
        return self

    def u32(self, n: int) -> "Writer":
        self.buf += _U32.pack(n)
        return self

    def u64(self, n: int) -> "Writer":
        self.buf += _U64.pack(n)
        return self

    def i64(self, n: int) -> "Writer":
        self.buf += _I64.pack(n)
        return self

    def raw(self, data: bytes | bytearray) -> "Writer":
        self.buf += data
        return self

    def wstr(self, s: str) -> "Writer":
        data = s.encode("utf-8")
        if len(data) > 0xFFFF:
            raise ValueError("string too long for wire")
        self.u16(len(data))
        self.buf += data
        return self

    def lp_bytes(self, data: bytes | bytearray) -> "Writer":
        """Length-prefixed (u32) byte block."""
        self.u32(len(data))
        self.buf += data
        return self

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | bytearray | memoryview):
        self.data = memoryview(data) if not isinstance(data, memoryview) else data
        self.pos = 0

    def _take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ShortRead(f"need {n} bytes at {self.pos}, have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return bytes(self._take(n))

    def wstr(self) -> str:
        n = self.u16()
        try:
            return str(self._take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise BadString(f"string at {self.pos - n} is not UTF-8: {exc}") from None

    def lp_bytes(self) -> bytes:
        n = self.u32()
        return bytes(self._take(n))

    def rest(self) -> bytes:
        return bytes(self._take(self.remaining()))

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def at_end(self) -> bool:
        return self.pos >= len(self.data)


# --- codecs ----------------------------------------------------------------------

class Codec(NamedTuple):
    write: Callable[[Writer, Any], Any]
    read: Callable[[Reader], Any]

    def pack(self, value) -> bytearray:
        """A new buffer holding `value`: a sender hands it on as it is."""
        w = Writer()
        self.write(w, value)
        return w.buf

    def unpack(self, data):
        """The value at the start of `data`; bytes after it are ignored."""
        return self.read(Reader(data))


U8 = Codec(Writer.u8, Reader.u8)
U16 = Codec(Writer.u16, Reader.u16)
U32 = Codec(Writer.u32, Reader.u32)
U64 = Codec(Writer.u64, Reader.u64)
I64 = Codec(Writer.i64, Reader.i64)
BOOL = Codec(lambda w, v: w.u8(1 if v else 0), lambda r: r.u8() != 0)
STR = Codec(Writer.wstr, Reader.wstr)
BYTES = Codec(Writer.lp_bytes, Reader.lp_bytes)
REST = Codec(Writer.raw, Reader.rest)  # the rest of the buffer, unprefixed
EMPTY = Codec(lambda w, v: None, lambda r: None)


def fixed(n: int) -> Codec:
    """Codec of `n` raw bytes, unprefixed."""
    return Codec(Writer.raw, lambda r: r.raw(n))


def optional(codec: Codec) -> Codec:
    """Codec of a value or None, after a u8 presence flag."""
    write, read = codec

    def write_opt(w: Writer, value) -> None:
        w.u8(0 if value is None else 1)
        if value is not None:
            write(w, value)
    return Codec(write_opt, lambda r: read(r) if r.u8() else None)


def list_of(codec: Codec, count: Codec = U16) -> Codec:
    """Codec of a list: its length through `count`, then each item."""
    write, read = codec
    write_n, read_n = count

    def write_list(w: Writer, items) -> None:
        write_n(w, len(items))
        for item in items:
            write(w, item)
    return Codec(write_list, lambda r: [read(r) for _ in range(read_n(r))])


def tuple_of(*codecs: Codec) -> Codec:
    """Codec of a tuple: its items in order, each through its own codec."""
    writers = [c.write for c in codecs]
    readers = [c.read for c in codecs]

    def write(w: Writer, items) -> None:
        for write_item, item in zip(writers, items):
            write_item(w, item)
    return Codec(write, lambda r: tuple([read(r) for read in readers]))


def struct(cls, *codecs: Codec) -> Codec:
    """Codec of `cls`, a dataclass or named tuple: its first len(codecs)
    fields in order, each through its own codec. Reading passes them to
    `cls` positionally."""
    writers = list(zip(cls.__match_args__, [c.write for c in codecs]))
    readers = [c.read for c in codecs]

    def write(w: Writer, obj) -> None:
        for name, write_field in writers:
            write_field(w, getattr(obj, name))
    return Codec(write, lambda r: cls(*[read(r) for read in readers]))
