"""ClassKey and ObjectRef: named tuples that print, hash and refuse
assignment as the frozen dataclasses they replaced did."""

from dataclasses import dataclass

import pytest

from minihello.values import ClassKey, ObjectRef


@dataclass(frozen=True, slots=True)
class OldClassKey:
    package: str
    name: str

    def __str__(self) -> str:
        return f"{self.package}.{self.name}"


@dataclass(frozen=True, slots=True)
class OldObjectRef:
    host: str
    partition: int | None
    oid: int
    cls: OldClassKey


KEYS = [("p", "C"), ("std", "host_group"), ("", "x"), ("pkg'q", 'n"é\\')]
REFS = [("a", None, 10), ("host-7", 0, 2), ("b'c", 3, 1 << 40)]


def old_name(text: str) -> str:
    return text.replace("OldClassKey", "ClassKey").replace(
        "OldObjectRef", "ObjectRef")


@pytest.mark.parametrize("fields", KEYS)
def test_class_key_prints_as_the_dataclass(fields):
    new, old = ClassKey(*fields), OldClassKey(*fields)
    assert repr(new) == old_name(repr(old))
    assert str(new) == str(old)
    assert f"{new}" == f"{old}"


@pytest.mark.parametrize("fields", REFS)
@pytest.mark.parametrize("key", KEYS[:2])
def test_object_ref_prints_as_the_dataclass(fields, key):
    new = ObjectRef(*fields, ClassKey(*key))
    old = OldObjectRef(*fields, OldClassKey(*key))
    assert repr(new) == old_name(repr(old))
    assert str(new) == old_name(str(old))


def test_equal_keys_hash_equal():
    a, b = ClassKey("p", "C"), ClassKey("p", "C")
    assert a == b and hash(a) == hash(b)
    assert ClassKey("p", "C") != ClassKey("p", "D")
    r1 = ObjectRef("h", None, 3, ClassKey("p", "C"))
    r2 = ObjectRef("h", None, 3, ClassKey("p", "C"))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert {r1: 1}[r2] == 1
    assert r1 != ObjectRef("h", 0, 3, ClassKey("p", "C"))


def test_fields_cannot_be_assigned():
    key = ClassKey("p", "C")
    ref = ObjectRef("h", None, 3, key)
    with pytest.raises(AttributeError):
        key.name = "D"
    with pytest.raises(AttributeError):
        ref.oid = 4
    with pytest.raises(AttributeError):
        ref.extra = 1
