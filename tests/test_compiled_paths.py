"""Compiled-body paths that no other test runs: `+=` and `-=` on an int
local, unary minus on an expression, `create (this_host)`, the defaults of
uninitialised bool and char locals and fields, ordering of chars, `==` on
bools, and the faults of reading a null or an `int[]` out of range and of
writing a null or a `char[]` out of range. Each expected value is worked
out by hand."""

import pytest

from minihello.errors import E_INDEX, E_NULL_REF, EngineError
from minihello.values import Char, ClassKey

from conftest import compile_text, mesh_scenario, run_task

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
M = ClassKey("paths", "M")

IMAGE = compile_text("""
package paths;
external class Cell {
    public int n;
    public bool flag;
    public char ch;
    external public Cell() {}
}
class M {
    static public int addsub(int a, int v, int w) {
        int x = a;
        x += v;
        x -= w;
        return x;
    }
    static public int neg(int a) { return -a; }
    static public int negsum(int a, int b) { return -(a + b); }
    static public Cell here() { return create (this_host) Cell(); }
    static public bool localflag() { bool b; return b; }
    static public char localchar() { char c; return c; }
    static public bool lt(char a, char b) { return a < b; }
    static public bool ge(char a, char b) { return a >= b; }
    static public bool beq(bool a, bool b) { return a == b; }
    static public bool bne(bool a, bool b) { return a != b; }
    static public int readnull() { int[] a = null; return a[0]; }
    static public int readat(int i) { int[] a = create int[3]; return a[i]; }
    static public void writenull() { char[] s = null; s[0] = 'x'; }
    static public void writeat(int i) { char[] s = create char[2]; s[i] = 'x'; }
}
""")


@pytest.fixture(scope="module")
def scen():
    scen = mesh_scenario(["solo"])
    scen.hosts["solo"].engine.install_image(IMAGE)
    return scen


def static(scen, method: str, *args):
    return run_task(scen, "solo",
                    lambda e, ctx: e.invoke_static(M, method, list(args), ctx))


@pytest.mark.parametrize("a, v, w, want", [
    (10, 5, 3, 12),
    (-4, -6, 2, -12),
    (INT_MAX, 1, 2, INT_MAX - 1),  # += wraps to INT_MIN, -= wraps back
    (INT_MIN, 0, 1, INT_MAX),
])
def test_add_and_subtract_assign_on_an_int_local(scen, a, v, w, want):
    assert static(scen, "addsub", a, v, w) == want


def test_unary_minus_on_an_expression(scen):
    assert [static(scen, "neg", a) for a in (5, -7, 0, INT_MAX)] \
        == [-5, 7, 0, INT_MIN + 1]
    assert static(scen, "neg", INT_MIN) == INT_MIN  # wraps
    assert static(scen, "negsum", 3, 4) == -7
    assert static(scen, "negsum", INT_MAX, 1) == INT_MIN  # -(INT_MIN)


def test_create_on_this_host_makes_a_shared_object(scen):
    ref = static(scen, "here")
    assert (ref.host, ref.partition, ref.cls) == \
        ("solo", 0, ClassKey("paths", "Cell"))
    assert scen.hosts["solo"].engine.deref(ref).fields == [0, False, Char(0)]


def test_uninitialised_bool_and_char_locals(scen):
    assert static(scen, "localflag") is False
    assert static(scen, "localchar") == Char(0)


@pytest.mark.parametrize("a, b, lt, ge", [
    ("a", "b", True, False),
    ("b", "a", False, True),
    ("a", "a", False, True),
    ("\x00", "\xff", True, False),
])
def test_ordering_of_chars(scen, a, b, lt, ge):
    a, b = Char(ord(a)), Char(ord(b))
    assert static(scen, "lt", a, b) is lt
    assert static(scen, "ge", a, b) is ge


@pytest.mark.parametrize("a, b", [(False, False), (False, True),
                                  (True, False), (True, True)])
def test_equality_of_bools(scen, a, b):
    assert static(scen, "beq", a, b) is (a == b)
    assert static(scen, "bne", a, b) is (a != b)


@pytest.mark.parametrize("method, args, code", [
    ("readnull", (), E_NULL_REF),
    ("readat", (3,), E_INDEX),
    ("readat", (-1,), E_INDEX),
    ("writenull", (), E_NULL_REF),
    ("writeat", (2,), E_INDEX),
    ("writeat", (-1,), E_INDEX),
])
def test_array_faults(scen, method, args, code):
    with pytest.raises(EngineError) as exc:
        static(scen, method, *args)
    assert exc.value.code == code
