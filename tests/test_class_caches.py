"""How compiled bodies find a field's slot and a static method: a warm
field access site reads its slot inline, with no helper call; a class
installed again is seen at once, a failed lookup is never kept, and no
copy or access check is skipped."""

import pytest

from minihello.engine import machine
from minihello.errors import (E_ACCESS_DENIED, E_UNKNOWN_METHOD,
                              E_UNKNOWN_OBJECT, EngineError)
from minihello.security import ANONYMOUS_SID, READ, WRITE, CredentialSet
from minihello.values import ClassKey, ObjectRef

from conftest import compile_text, mesh_scenario, run_task

BOX = ClassKey("swap", "Box")
M = ClassKey("swap", "M")

SWAP_SRC = """
package swap;
class Box {{ public int {first}; public int {second}; public Box() {{}} }}
class M {{
    static public int version() {{ return {version}; }}
    static public int geta(Box x) {{ return x.a; }}
    static public void seta(Box x, int v) {{ x.a = v; }}
    public int inst() {{ return 0; }}
    static public int main(char[][] argv) {{
        Box x = new Box();
        seta(x, 3);
        return geta(x) * 10 + version();
    }}
}}
"""

V1 = compile_text(SWAP_SRC.format(first="a", second="b", version=1))
V2 = compile_text(SWAP_SRC.format(first="b", second="a", version=2))


def run_main(scen, image) -> int:
    fut = scen.run_main("solo", image, ["x"])
    scen.run()
    return fut.result()


def static(scen, method: str, args: list):
    return run_task(scen, "solo",
                    lambda e, ctx: e.invoke_static(M, method, args, ctx))


def helper_calls(scen, method: str, args: list):
    """The value of the static `M.method` and how many `_get_field` and
    `_set_field` calls the compiled bodies of `geta` and `seta` made."""
    rc = scen.hosts["solo"].engine.classes[M]
    envs = [rc.compiled(rc.method(m))[0].__globals__ for m in ("geta", "seta")]
    calls = []
    for env in envs:
        for name in ("_get_field", "_set_field"):
            env[name] = lambda *a, h=getattr(machine, name): (
                calls.append(h), h(*a))[1]
    try:
        return static(scen, method, args), len(calls)
    finally:
        for env in envs:
            env.update(_get_field=machine._get_field,
                       _set_field=machine._set_field)


def test_a_class_installed_again_is_used_at_once():
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    assert run_main(scen, V1) == 31
    ref = engine.alloc_object(BOX, None, [10, 20])  # a = 10, b = 20
    assert helper_calls(scen, "geta", [ref]) == (10, 0)  # main warmed it
    assert static(scen, "version", []) == 1
    # V2 has the fields of Box the other way round and another version()
    assert run_main(scen, V2) == 32
    assert static(scen, "version", []) == 2
    ref = engine.alloc_object(BOX, None, [20, 10])  # b = 20, a = 10
    assert static(scen, "geta", [ref]) == 10
    static(scen, "seta", [ref, 7])
    assert engine.deref(ref).fields == [20, 7]
    assert helper_calls(scen, "seta", [ref, 8]) == (None, 0)
    assert helper_calls(scen, "geta", [ref]) == (8, 0)


def test_an_unknown_static_method_fails_on_every_call():
    scen = mesh_scenario(["solo"])
    assert run_main(scen, V1) == 31
    for method in ("nope", "nope", "inst", "inst"):
        with pytest.raises(EngineError) as info:
            static(scen, method, [])
        assert info.value.code == E_UNKNOWN_METHOD


def test_a_copy_parameter_is_copied_on_every_call():
    image = compile_text("""
package cp;
class Box { public int a; public Box() {} }
class M {
    static public int bump(copy Box x) { x.a = x.a + 1; return x.a; }
    static public int main(char[][] argv) {
        Box x = new Box();
        x.a = 5;
        int r = bump(x);
        int s = bump(x);
        return r * 100 + s * 10 + x.a;
    }
}
""")
    scen = mesh_scenario(["solo"])
    assert run_main(scen, image) == 665  # 677 if the caller's Box were bumped


@pytest.mark.parametrize("granted, method, args", [
    (WRITE, "geta", []),    # may write, not read
    (READ, "seta", [4]),    # may read, not write
])
def test_an_object_acl_is_checked_on_a_warm_field_access(granted, method, args):
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    assert run_main(scen, V1) == 31
    ref = engine.alloc_object(BOX, None, [1, 2])
    assert helper_calls(scen, method, [ref] + args)[1] == 0  # a warm site
    engine.deref(ref).fields = [1, 2]
    engine.deref(ref).acl = CredentialSet({ANONYMOUS_SID: granted})
    audits = engine.audit_count
    with pytest.raises(EngineError) as info:
        static(scen, method, [ref] + args)
    assert info.value.code == E_ACCESS_DENIED
    assert engine.audit_count == audits + 1
    assert engine.deref(ref).fields == [1, 2]


@pytest.mark.parametrize("method, args", [("geta", []), ("seta", [4])])
def test_a_local_field_access_checks_the_refs_partition_and_oid(method, args):
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    assert run_main(scen, V1) == 31
    heap = engine.alloc_object(BOX, None, [1, 2])
    shared = engine.alloc_object(BOX, 0, [1, 2])
    bad = [heap._replace(partition=0),     # a heap oid under partition 0
           shared._replace(partition=None),  # a shared oid under the heap
           ObjectRef("solo", None, 10**9, BOX)]  # no such oid
    for ref in bad:
        with pytest.raises(EngineError) as info:
            static(scen, method, [ref] + args)
        assert info.value.code == E_UNKNOWN_OBJECT
    assert engine.deref(heap).fields == engine.deref(shared).fields == [1, 2]
