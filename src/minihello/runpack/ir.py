"""Typed IR trees for compiled method bodies, with their binary codec.

The IR is what a runpack image carries instead of native code: a tree
form whose operators are already type-resolved (integer add vs string
concat, and so on), which `engine/machine.py` compiles to Python
functions the first time a method runs. Method and class references are
name-based so images stay stable across hosts.

The codec is one table, NODE_TABLE, that gives each node class its tag and
one field codec per dataclass field, from `bio`'s codec toolkit and the
IR-specific codecs here; `encode` and `decode` walk it, and
`runpack/image.py` builds the class table from the same field codecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bio import (BOOL, I64, STR, U8, U16, Codec, Reader, Writer, list_of,
                   optional, struct)
from ..values import KEY, ClassKey

# Class qualifier bits.
CQ_EXTERNAL = 1
CQ_GROUP = 2
CQ_PUBLIC = 4

# Method qualifier bits.
MQ_PUBLIC = 1
MQ_STATIC = 2
MQ_EXTERNAL = 4
MQ_MESSAGE = 8
MQ_ITERATOR = 16
MQ_CTOR = 32

_BASES = ("void", "int", "bool", "char", "class")


@dataclass(frozen=True, slots=True)
class TypeDesc:
    """Compact runtime type: base kind, array depth, class key when base='class'."""
    base: str
    depth: int = 0
    cls: ClassKey | None = None


TD_VOID = TypeDesc("void")
TD_INT = TypeDesc("int")
TD_BOOL = TypeDesc("bool")
TD_CHAR = TypeDesc("char")


class IrNode:
    pass


# --- expressions -------------------------------------------------------------

@dataclass(slots=True)
class IrInt(IrNode):
    value: int


@dataclass(slots=True)
class IrBool(IrNode):
    value: bool


@dataclass(slots=True)
class IrChar(IrNode):
    code: int


@dataclass(slots=True)
class IrStr(IrNode):
    pool: int  # constant pool index


@dataclass(slots=True)
class IrNull(IrNode):
    pass


@dataclass(slots=True)
class IrLocal(IrNode):
    slot: int


@dataclass(slots=True)
class IrThis(IrNode):
    pass


@dataclass(slots=True)
class IrThisHost(IrNode):
    pass


@dataclass(slots=True)
class IrHostsRoot(IrNode):
    pass


@dataclass(slots=True)
class IrFieldGet(IrNode):
    obj: IrNode
    index: int
    name: str


@dataclass(slots=True)
class IrIndex(IrNode):
    arr: IrNode
    idx: IrNode


@dataclass(slots=True)
class IrBin(IrNode):
    op: str  # add sub mul div mod lt le gt ge eq ne concat
    left: IrNode
    right: IrNode


@dataclass(slots=True)
class IrLogic(IrNode):
    op: str  # and | or (short-circuit)
    left: IrNode
    right: IrNode


@dataclass(slots=True)
class IrUn(IrNode):
    op: str  # neg | not
    operand: IrNode


@dataclass(slots=True)
class IrTernary(IrNode):
    cond: IrNode
    then: IrNode
    other: IrNode


@dataclass(slots=True)
class IrPostIncr(IrNode):
    target: IrNode  # IrLocal | IrFieldGet | IrIndex
    delta: int


@dataclass(slots=True)
class IrCallMethod(IrNode):
    obj: IrNode
    method: str
    args: list[IrNode]


@dataclass(slots=True)
class IrCallStatic(IrNode):
    cls: ClassKey
    method: str
    args: list[IrNode]


@dataclass(slots=True)
class IrCallBuiltin(IrNode):
    hook: str
    args: list[IrNode]


@dataclass(slots=True)
class IrNew(IrNode):
    cls: ClassKey
    args: list[IrNode]


@dataclass(slots=True)
class IrCreate(IrNode):
    host: IrNode | None  # None = local default partition
    cls: ClassKey
    args: list[IrNode]


@dataclass(slots=True)
class IrNewArray(IrNode):
    elem: TypeDesc
    dims: list[IrNode]


@dataclass(slots=True)
class IrQueuedEval(IrNode):
    queue: IrNode
    body: IrNode


@dataclass(slots=True)
class IrIterate(IrNode):
    group: IrNode
    method: str
    args: list[IrNode]


# --- statements ---------------------------------------------------------------

@dataclass(slots=True)
class IrBlock(IrNode):
    stmts: list[IrNode]


@dataclass(slots=True)
class IrVarDecl(IrNode):
    slot: int
    ty: TypeDesc
    init: IrNode | None


@dataclass(slots=True)
class IrAssign(IrNode):
    target: IrNode  # IrLocal | IrFieldGet | IrIndex
    op: str         # set | addi | subi | concat
    value: IrNode


@dataclass(slots=True)
class IrExprStmt(IrNode):
    expr: IrNode


@dataclass(slots=True)
class IrIf(IrNode):
    cond: IrNode
    then: IrNode
    other: IrNode | None


@dataclass(slots=True)
class IrWhile(IrNode):
    cond: IrNode
    body: IrNode


@dataclass(slots=True)
class IrFor(IrNode):
    init: IrNode | None
    cond: IrNode | None
    step: IrNode | None
    body: IrNode


@dataclass(slots=True)
class IrReturn(IrNode):
    value: IrNode | None


@dataclass(slots=True)
class IrPost(IrNode):
    queue: IrNode
    target: IrNode
    method: str
    args: list[IrNode]


@dataclass(slots=True)
class IrNop(IrNode):
    pass


# --- method / class containers -------------------------------------------------

@dataclass(slots=True)
class IrParam:
    name: str
    ty: TypeDesc
    copy: bool


@dataclass(slots=True)
class MethodCode:
    name: str
    quals: int
    params: list[IrParam]
    ret: TypeDesc
    ret_copy: bool
    n_slots: int
    body: IrBlock = field(default_factory=lambda: IrBlock([]))

    def has(self, bit: int) -> bool:
        return bool(self.quals & bit)


@dataclass(slots=True)
class ClassCode:
    name: str
    quals: int
    fields: list[tuple[str, TypeDesc]]
    methods: list[MethodCode]
    _by_name: dict = field(default_factory=dict, repr=False)

    def method(self, name: str) -> MethodCode | None:
        if not self._by_name:
            self._by_name = {m.name: m for m in self.methods}
        return self._by_name.get(name)

    def has(self, bit: int) -> bool:
        return bool(self.quals & bit)


# --- binary codec ---------------------------------------------------------------
#
# A node is its u8 tag, which is its index in NODE_TABLE, then its dataclass
# fields in order, each through the codec the table gives it. Reading checks
# tags, op indices, constant-pool indices and local slots as it goes, so a
# decoded body needs no second walk.

class IrFormatError(Exception):
    pass


class BodyReader(Reader):
    """Reader of one method body: knows the pool size and slot count to check."""
    __slots__ = ("pool_size", "n_slots")

    def __init__(self, data: bytes, pool_size: int, n_slots: int):
        super().__init__(data)
        self.pool_size = pool_size
        self.n_slots = n_slots


def _below(read, limit: str, what: str):
    def read_checked(r: BodyReader) -> int:
        value = read(r)
        if value >= getattr(r, limit):
            raise IrFormatError(f"{what} {value} out of range")
        return value
    return read_checked


DELTA = Codec(lambda w, v: w.u8(v & 0xFF), lambda r: (r.u8() ^ 0x80) - 0x80)
SLOT = Codec(Writer.u16, _below(Reader.u16, "n_slots", "slot"))
POOL = Codec(Writer.u32, _below(Reader.u32, "pool_size", "constant index"))


def enum(*names: str) -> Codec:
    """Codec of one of `names`, written as its u8 index."""
    def read(r: Reader) -> str:
        i = r.u8()
        if i >= len(names):
            raise IrFormatError(f"index {i} is not one of {names}")
        return names[i]
    return Codec(lambda w, name: w.u8(names.index(name)), read)


def _type_codec() -> Codec:
    """Codec of a TypeDesc: base, array depth, and the class key when the
    base is 'class'."""
    base_codec = enum(*_BASES)

    def write(w: Writer, ty: TypeDesc) -> None:
        base_codec.write(w, ty.base)
        w.u8(ty.depth)
        if ty.base == "class":
            KEY.write(w, ty.cls)

    def read(r: Reader) -> TypeDesc:
        base = base_codec.read(r)
        return TypeDesc(base, r.u8(), KEY.read(r) if base == "class" else None)
    return Codec(write, read)


TYPE = _type_codec()


def encode(w: Writer, node: IrNode) -> None:
    tag, write = _ENCODE[type(node)]
    w.u8(tag)
    write(w, node)


def decode(r: Reader) -> IrNode:
    tag = r.u8()
    if tag >= len(_DECODE):
        raise IrFormatError(f"bad node tag {tag}")
    return _DECODE[tag](r)


def decode_body(data: bytes, pool_size: int, n_slots: int) -> IrBlock:
    """Decode one method body, which must be one block and nothing more."""
    r = BodyReader(data, pool_size, n_slots)
    body = decode(r)
    if not isinstance(body, IrBlock):
        raise IrFormatError("method body is not a block")
    if not r.at_end():
        raise IrFormatError("trailing bytes in method body")
    return body


NODE = Codec(encode, decode)
OPT = optional(NODE)
NODES = list_of(NODE)

# One entry per node class, in tag order: the class, then one codec per field.
NODE_TABLE = (
    (IrInt, I64),
    (IrBool, BOOL),
    (IrChar, U8),
    (IrStr, POOL),
    (IrNull,),
    (IrLocal, SLOT),
    (IrThis,),
    (IrThisHost,),
    (IrHostsRoot,),
    (IrFieldGet, NODE, U16, STR),
    (IrIndex, NODE, NODE),
    (IrBin, enum("add", "sub", "mul", "div", "mod", "lt", "le", "gt", "ge",
                 "eq", "ne", "concat"), NODE, NODE),
    (IrLogic, enum("and", "or"), NODE, NODE),
    (IrUn, enum("neg", "not"), NODE),
    (IrTernary, NODE, NODE, NODE),
    (IrPostIncr, NODE, DELTA),
    (IrCallMethod, NODE, STR, NODES),
    (IrCallStatic, KEY, STR, NODES),
    (IrCallBuiltin, STR, NODES),
    (IrNew, KEY, NODES),
    (IrCreate, OPT, KEY, NODES),
    (IrNewArray, TYPE, NODES),
    (IrQueuedEval, NODE, NODE),
    (IrIterate, NODE, STR, NODES),
    (IrBlock, NODES),
    (IrVarDecl, SLOT, TYPE, OPT),
    (IrAssign, NODE, enum("set", "addi", "subi", "concat"), NODE),
    (IrExprStmt, NODE),
    (IrIf, NODE, NODE, OPT),
    (IrWhile, NODE, NODE),
    (IrFor, OPT, OPT, OPT, NODE),
    (IrReturn, OPT),
    (IrPost, NODE, NODE, STR, NODES),
    (IrNop,),
)

_CODECS = [struct(cls, *codecs) for cls, *codecs in NODE_TABLE]
_ENCODE = {entry[0]: (tag, codec.write)
           for tag, (entry, codec) in enumerate(zip(NODE_TABLE, _CODECS))}
_DECODE = [codec.read for codec in _CODECS]
