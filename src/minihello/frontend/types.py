"""Static types and declaration signatures used by the checker, the builtin
class table and the engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..values import ClassKey


class Type:
    pass


@dataclass(frozen=True, slots=True)
class TPrim(Type):
    kind: str  # 'int' | 'bool' | 'char' | 'void' | 'null'

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True, slots=True)
class TArray(Type):
    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


@dataclass(frozen=True, slots=True)
class TClass(Type):
    key: ClassKey

    def __str__(self) -> str:
        return self.key.name


T_INT = TPrim("int")
T_BOOL = TPrim("bool")
T_CHAR = TPrim("char")
T_VOID = TPrim("void")
T_NULL = TPrim("null")

STD_PACKAGE = "standard"
HOST_KEY = ClassKey(STD_PACKAGE, "host")
QUEUE_KEY = ClassKey(STD_PACKAGE, "queue")
HOST_GROUP_KEY = ClassKey(STD_PACKAGE, "host_group")
T_HOST = TClass(HOST_KEY)
T_QUEUE = TClass(QUEUE_KEY)
T_HOST_GROUP = TClass(HOST_GROUP_KEY)

T_STRING = TArray(T_CHAR)


def is_reference(ty: Type) -> bool:
    return isinstance(ty, (TArray, TClass))


def assignable(target: Type, value: Type) -> bool:
    if target == value:
        return True
    if value == T_NULL and is_reference(target):
        return True
    return False


@dataclass(frozen=True, slots=True)
class ParamSig:
    name: str
    ty: Type
    copy: bool


@dataclass
class MethodSig:
    name: str
    quals: frozenset[str]  # subset of {public, static, external, message, iterator}
    params: tuple[ParamSig, ...]
    ret: Type
    ret_copy: bool = False
    is_ctor: bool = False

    def has(self, qual: str) -> bool:
        return qual in self.quals


@dataclass
class FieldSig:
    name: str
    ty: Type
    index: int


@dataclass
class ClassSig:
    key: ClassKey
    quals: frozenset[str]  # subset of {public, external, group}
    fields: dict[str, FieldSig] = field(default_factory=dict)
    methods: dict[str, MethodSig] = field(default_factory=dict)
    enums: dict[str, int] = field(default_factory=dict)
    builtin: bool = False

    def has(self, qual: str) -> bool:
        return qual in self.quals

    @property
    def is_external(self) -> bool:
        return "external" in self.quals

    @property
    def is_group(self) -> bool:
        return "group" in self.quals


@dataclass(frozen=True, slots=True)
class BuiltinFuncSig:
    name: str
    params: tuple[Type, ...]
    ret: Type
    hook: str  # engine intrinsic id
