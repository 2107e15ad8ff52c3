"""Runtime value model shared by the interpreter, the marshaler, and the wire codec.

A runtime value is one of: None (null), bool, int (64-bit two's-complement,
wrapping), Char, CharArray (char[], the string representation), Array, or
ObjectRef (a local or remote object reference). An object is always a
record in its host's heap, named by an ObjectRef; one that arrives by value
is built as a record there while its frame is decoded.

ClassKey and ObjectRef are named tuples, so that hashing, comparing and
building them, which every class lookup and field access does, run in C.
Their repr is that of the frozen dataclasses they replace. Being tuples, a
ClassKey also compares equal to the plain 2-tuple of its fields; nothing
relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bio import STR, struct

# Wire tags; also used as array element tags.
TAG_NULL = 0
TAG_BOOL = 1
TAG_INT = 2
TAG_CHAR = 3
TAG_ARRAY = 4
TAG_OBJECT = 5
TAG_REMOTE_REF = 6
TAG_BACK_REF = 7

# 64-bit ints, as compiled code and the checker's constant folding compute
# them: results wrap, and `/` and `%` truncate toward zero.
INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1
_MASK = (1 << 64) - 1


def wrap_i64(n: int) -> int:
    """`n` in 64-bit two's complement: adding 2**63 maps the 64-bit range
    onto [0, 2**64), where the mask wraps it."""
    return ((n - INT_MIN) & _MASK) + INT_MIN


def div_i64(a: int, b: int) -> int:
    """`a / b`, truncated toward zero and wrapped; `b` is not 0."""
    q = abs(a) // abs(b)
    return wrap_i64(-q if (a < 0) != (b < 0) else q)


def mod_i64(a: int, b: int) -> int:
    """`a % b`, which takes the sign of `a`; `b` is not 0."""
    r = a % b  # takes the sign of b
    return r - b if r and (r < 0) != (a < 0) else r


class ClassKey(NamedTuple):
    """Package-qualified class name; stable across hosts and images."""
    package: str
    name: str

    def __str__(self) -> str:
        return f"{self.package}.{self.name}"


KEY = struct(ClassKey, STR, STR)  # a class key in images and frame payloads


@dataclass(frozen=True, slots=True)
class Char:
    code: int  # 0..255


class ObjectRef(NamedTuple):
    """Reference to an object. partition None means the owner engine's heap;
    a heap ref is only dereferenceable at its owning host."""
    host: str
    partition: int | None
    oid: int
    cls: ClassKey


class CharArray:
    """Mutable byte string; the runtime representation of char[].

    A copy made by `share` is copy-on-write: the two arrays hold the same
    `bytearray` and both are marked `shared`. Exactly three sites write an
    array's bytes: `machine._write_index`, `append` (which `+=` uses) and
    `Engine.exec_read`, before it hands `data` to the pipe read. Each first
    gives a shared array bytes of its own (`unshare`); nothing else writes
    `data`."""

    __slots__ = ("data", "shared")
    elem_tag = TAG_CHAR

    def __init__(self, data: bytes | bytearray = b""):
        self.data = bytearray(data)
        self.shared = False

    @classmethod
    def wrap(cls, data: bytearray) -> "CharArray":
        """An array over `data` itself, without a copy; the caller hands the
        buffer over."""
        arr = cls.__new__(cls)
        arr.data = data
        arr.shared = False
        return arr

    @classmethod
    def from_str(cls, s: str) -> "CharArray":
        return cls(s.encode("utf-8"))

    def to_str(self) -> str:
        return self.data.decode("utf-8", errors="replace")

    def __len__(self) -> int:
        return len(self.data)

    def concat(self, other: "CharArray") -> "CharArray":
        return CharArray(self.data + other.data)

    def share(self) -> "CharArray":
        """A copy of this array that holds the same bytes until either of
        the two is written."""
        self.shared = True
        arr = CharArray.wrap(self.data)
        arr.shared = True
        return arr

    def unshare(self) -> bytearray:
        """This array's bytes, copied first if another array may hold them."""
        if self.shared:
            self.data = bytearray(self.data)
            self.shared = False
        return self.data

    def append(self, other: "CharArray") -> None:
        if self.shared:  # the concatenation is this array's own copy
            self.data = self.data + other.data
            self.shared = False
        else:
            self.data += other.data

    def __repr__(self) -> str:
        return f"CharArray({bytes(self.data)!r})"


class Array:
    """Homogeneous array of non-char elements. elem_tag names the element kind
    (TAG_ARRAY for nested arrays, TAG_OBJECT for reference elements)."""

    __slots__ = ("elem_tag", "items")

    def __init__(self, elem_tag: int, items: list | None = None):
        self.elem_tag = elem_tag
        self.items = items if items is not None else []

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"Array(tag={self.elem_tag}, n={len(self.items)})"


def values_equal(a, b) -> bool:
    """Shallow equality as defined by the language's == operator: primitives
    by value, references by identity triple, null only equal to null."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, ObjectRef) and isinstance(b, ObjectRef):
        return (a.host, a.partition, a.oid) == (b.host, b.partition, b.oid)
    if isinstance(a, Char) and isinstance(b, Char):
        return a.code == b.code
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return a is b
