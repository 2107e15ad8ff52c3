"""The specialised sites of compiled bodies against the generic helpers they
stand in for. Each site has an inline path and falls back to the helper
(`machine._read_index`, `_write_index`, `_get_field`, `_set_field`, `_div`,
`_mod`, `_eq` and the orderings, `_append`, `intrinsic_sizear`), so on any
operand the compiled site must give what the helper gives: the same value
or the same fault, and the same state after. Hypothesis draws the operands,
with the edges each inline path tests for: null, the indexes -1, the length
and INT_MIN, a `char[]` that shares its bytes, divisors 0 and -1, and
objects that are on another host, of another partition, missing, guarded by
an ACL, or of a class key equal to the compiled one but not the same
object. Fixed cases cover a class installed again with a new field layout,
two engines running one shared body, and an index with a side effect on a
null array."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from minihello.engine import machine
from minihello.errors import (E_ACCESS_DENIED, E_NULL_REF, E_UNKNOWN_OBJECT,
                              EngineError)
from minihello.security import ANONYMOUS_SID, ALL_PRIVS, EXEC, CredentialSet
from minihello.stdlib import intrinsic_sizear
from minihello.values import (Array, Char, CharArray, ClassKey, ObjectRef,
                              TAG_INT)

from conftest import compile_text, mesh_scenario, run_task

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
BOX = ClassKey("sites", "Box")
S = ClassKey("sites", "S")

SOURCE = """
package sites;
external class Box {
    public int n; public char c; public bool f; public char[] s;
    external public Box() {}
}
class S {
    static public char readc(char[] a, int i) { return a[i]; }
    static public int readi(int[] a, int i) { return a[i]; }
    static public bool isat(char[] a, int i, char v) { return a[i] == v; }
    static public void writec(char[] a, int i, char v) { a[i] = v; }
    static public void writei(int[] a, int i, int v) { a[i] = v; }
    static public int sizec(char[] a) { return sizear(a, 1); }
    static public int sizei(int[] a) { return sizear(a, 1); }
    static public int div(int a, int b) { return a / b; }
    static public int mod(int a, int b) { return a % b; }
    static public bool eq(char a, char b) { return a == b; }
    static public bool ne(char a, char b) { return a != b; }
    static public bool lt(char a, char b) { return a < b; }
    static public bool le(char a, char b) { return a <= b; }
    static public bool gt(char a, char b) { return a > b; }
    static public bool ge(char a, char b) { return a >= b; }
    static public void app(char[] s) { s += "xy"; }
    static public int getn(Box b) { return b.n; }
    static public void setn(Box b, int v) { b.n = v; }
    static public char readbump(char[] a, Box b) { return a[b.n++]; }
    static public char pick(bool p, char[] a, char[] b, int i) {
        return (p ? a : b)[i];
    }
    static public int sizenew(int n) { return sizear(create char[n], 1); }
    static public void copyc(char[] a, int i, Box b) { a[i] = b.c; }
    static public void setat(Box b, int i, char v) { b.s[i] = v; }
    static public bool flagis(Box b, bool v) { return b.f == v; }
}
"""
IMAGE = compile_text(SOURCE)
# Box again, alone in its package's image, with its fields the other way
# round; installing it keeps the compiled bodies of S.
SWAPPED = compile_text(
    "package sites;\n"
    "external class Box {\n"
    "    public char c; public int n; public bool f; public char[] s;\n"
    "    external public Box() {}\n"
    "}\n")

HELPERS = {
    "readc": machine._read_index, "readi": machine._read_index,
    "isat": lambda a, i, v: machine._eq(machine._read_index(a, i), v),
    "writec": machine._write_index, "writei": machine._write_index,
    "sizec": lambda a: intrinsic_sizear(None, None, [a, 1]),
    "sizei": lambda a: intrinsic_sizear(None, None, [a, 1]),
    "div": machine._div, "mod": machine._mod,
    "eq": machine._eq, "ne": lambda a, b: not machine._eq(a, b),
    "lt": machine._HELPERS["_lt"], "le": machine._HELPERS["_le"],
    "gt": machine._HELPERS["_gt"], "ge": machine._HELPERS["_ge"],
    "app": lambda s: machine._append(s, CharArray(b"xy")),
}


@pytest.fixture(scope="module")
def scen():
    scen = mesh_scenario(["a", "b"], seed=2)
    for name in ("a", "b"):
        scen.hosts[name].engine.install_image(IMAGE)
    return scen


def body(engine, method: str):
    """The compiled function of `S.method` on `engine`."""
    rc = engine.classes[S]
    return rc.compiled(rc.method(method))[0]


def outcome(fn, *args):
    """("value", result) or ("fault", code); any other exception escapes,
    and fails the test."""
    try:
        return "value", fn(*args)
    except EngineError as err:
        return "fault", err.code


# --- arrays -----------------------------------------------------------------

@st.composite
def chars_and_index(draw):
    """A `char[]` operand, as (bytes or None, shared), and an index."""
    data = draw(st.none() | st.binary(max_size=6))
    n = len(data or b"")
    index = draw(st.sampled_from([-1, n, INT_MIN, INT_MAX, 0])
                 | st.integers(-2, n + 1))
    return data, draw(st.booleans()), index


def chars(data, shared):
    """The array, and the copy that shares its bytes (None unless shared)."""
    if data is None:
        return None, None
    arr = CharArray(data)
    return arr, arr.share() if shared else None


def state(arr, other):
    """What a site may change: the bytes of both arrays and who shares."""
    if arr is None:
        return None
    return (bytes(arr.data), arr.shared, None if other is None else (
        bytes(other.data), other.shared, other.data is arr.data))


@given(chars_and_index(), st.integers(0, 255))
@settings(max_examples=150, deadline=None)
def test_char_array_sites(scen, case, code):
    data, shared, i = case
    engine = scen.hosts["a"].engine
    for method, args in (("readc", (i,)), ("isat", (i, Char(code))),
                         ("writec", (i, Char(code))), ("sizec", ()),
                         ("app", ())):
        fn = body(engine, method)
        arr, other = chars(data, shared)
        got = outcome(fn, None, None, None, arr, *args), state(arr, other)
        arr, other = chars(data, shared)
        want = outcome(HELPERS[method], arr, *args), state(arr, other)
        assert got == want, method


@given(st.none() | st.lists(st.integers(INT_MIN, INT_MAX), max_size=6),
       st.integers(-2, 8) | st.sampled_from([INT_MIN, INT_MAX]),
       st.integers(INT_MIN, INT_MAX))
@settings(max_examples=150, deadline=None)
def test_int_array_sites(scen, items, i, value):
    engine = scen.hosts["a"].engine
    for method, args in (("readi", (i,)), ("writei", (i, value)),
                         ("sizei", ())):
        fn = body(engine, method)
        results = []
        for run in (lambda *a: fn(None, None, None, *a), HELPERS[method]):
            arr = None if items is None else Array(TAG_INT, list(items))
            results.append((outcome(run, arr, *args),
                            None if arr is None else arr.items))
        assert results[0] == results[1], method


def test_a_char_write_gives_a_shared_array_its_own_bytes(scen):
    fn = body(scen.hosts["a"].engine, "writec")
    arr = CharArray(b"abc")
    other = arr.share()
    fn(None, None, None, arr, 1, Char(ord("X")))
    assert (bytes(arr.data), bytes(other.data)) == (b"aXc", b"abc")
    assert not arr.shared


def test_an_index_is_evaluated_once_even_on_a_null_array(scen):
    engine = scen.hosts["a"].engine
    box = engine.alloc_object(BOX, None, [1, Char(0), False, None])
    call = body(engine, "readbump")
    with pytest.raises(EngineError) as exc:
        run_task(scen, "a", lambda e, ctx: call(e, None, ctx, None, box))
    assert exc.value.code == E_NULL_REF
    assert engine.deref(box).fields[0] == 2
    assert run_task(scen, "a", lambda e, ctx: call(
        e, None, ctx, CharArray(b"xyz"), box)) == Char(ord("z"))
    assert engine.deref(box).fields[0] == 3


def counting(fns, names):
    """Count the calls the compiled functions `fns` make to the helpers
    `names`, by name."""
    calls = {name: 0 for name in names}
    for fn in fns:
        for name in names:
            helper = getattr(machine, name)
            fn.__globals__[name] = lambda *a, h=helper, n=name: (
                calls.__setitem__(n, calls[n] + 1), h(*a))[1]
    return calls


def restore(fns, names):
    for fn in fns:
        fn.__globals__.update({name: getattr(machine, name) for name in names})


# --- operators --------------------------------------------------------------

EDGES = st.sampled_from([INT_MIN, INT_MIN + 1, -7, -1, 0, 1, 7, INT_MAX])


@given(EDGES | st.integers(INT_MIN, INT_MAX),
       EDGES | st.integers(-9, 9) | st.integers(INT_MIN, INT_MAX))
@settings(max_examples=300, deadline=None)
def test_division_by_an_int_local(scen, a, b):
    engine = scen.hosts["a"].engine
    for method in ("div", "mod"):
        assert outcome(body(engine, method), None, None, None, a, b) \
            == outcome(HELPERS[method], a, b), method


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_char_comparisons(scen, x, y):
    engine = scen.hosts["a"].engine
    for method in ("eq", "ne", "lt", "le", "gt", "ge"):
        a, b = Char(x), Char(y)
        assert body(engine, method)(None, None, None, a, b) \
            == HELPERS[method](a, b), method


def test_the_array_division_and_comparison_sites_are_inline(scen):
    """On operands their inline paths take, the sites call no helper."""
    engine = scen.hosts["a"].engine
    names = ("_mod", "_div", "_eq", "_read_index")
    for method, args in (("mod", (7, 3)), ("div", (7, 3)),
                         ("eq", (Char(1), Char(1))),
                         ("isat", (CharArray(b"a"), 0, Char(97)))):
        fn = body(engine, method)
        calls = counting([fn], names)
        try:
            fn(None, None, None, *args)
        finally:
            restore([fn], names)
        assert set(calls.values()) == {0}, method


# --- fields -----------------------------------------------------------------

KINDS = ["heap", "shared", "acl-allows", "acl-denies", "other-partition",
         "missing", "null", "other-host"]


def field_operand(scen, kind: str, equal_key: bool, n: int):
    """An object ref of `kind` whose Box has field n = `n`, and its record
    (None when there is none here). With `equal_key`, the ref and record
    hold a class key equal to the compiled one but not the same object."""
    cls = ClassKey(*BOX) if equal_key else BOX
    assert (cls == BOX) and (cls is BOX) != equal_key
    host = "b" if kind == "other-host" else "a"
    engine = scen.hosts[host].engine
    if kind == "null":
        return None, None
    if kind == "missing":
        return ObjectRef("a", None, 10**9, cls), None
    ref = engine.alloc_object(cls, 0 if kind == "shared" else None,
                              [n, Char(0), False, None])
    record = engine.deref(ref)
    if kind.startswith("acl"):
        record.acl = CredentialSet(
            {ANONYMOUS_SID: ALL_PRIVS if kind == "acl-allows" else EXEC})
    if kind == "other-partition":
        ref = ref._replace(partition=0)
    return ref, record


def generic_get(engine, o, ctx):
    """A field read as bodies made it before the sites had caches."""
    if o is not None and o.host == engine.host_name:
        return machine._get_field(engine, o, "n", 0, ctx, [(None, None, 0)])
    return (yield from engine.remote_get_field(
        machine._field_of(o, "n"), "n", ctx))


def generic_set(engine, o, v, ctx):
    if o is not None and o.host == engine.host_name:
        return machine._set_field(engine, o, "n", 0, v, ctx,
                                  [(None, None, 0)])
    return (yield from engine.remote_set_field(
        machine._field_of(o, "n"), "n", v, ctx))


def run_outcome(scen, task):
    try:
        return "value", run_task(scen, "a", task)
    except EngineError as err:
        return "fault", err.remote_code or err.code


@given(st.sampled_from(KINDS), st.booleans(), st.integers(INT_MIN, INT_MAX))
@settings(max_examples=120, deadline=None)
def test_field_sites(scen, kind, equal_key, value):
    engine = scen.hosts["a"].engine
    get, put = body(engine, "getn"), body(engine, "setn")
    results = []
    for read, write in ((lambda e, o, ctx: get(e, None, ctx, o),
                         lambda e, o, ctx: put(e, None, ctx, o, value)),
                        (generic_get, lambda e, o, ctx: generic_set(
                            e, o, value, ctx))):
        ref, record = field_operand(scen, kind, equal_key, 5)
        audits = engine.audit_count
        got = (run_outcome(scen, lambda e, ctx: read(e, ref, ctx)),
               run_outcome(scen, lambda e, ctx: write(e, ref, ctx)),
               run_outcome(scen, lambda e, ctx: read(e, ref, ctx)),
               record and record.fields, engine.audit_count - audits)
        results.append(got)
    assert results[0] == results[1]
    want = {"heap": 5, "shared": 5, "acl-allows": 5, "other-host": 5,
            "acl-denies": E_ACCESS_DENIED, "other-partition": E_UNKNOWN_OBJECT,
            "missing": E_UNKNOWN_OBJECT, "null": E_NULL_REF}[kind]
    assert results[0][0][1] == want


def test_a_warm_site_reads_inline_through_an_equal_class_key():
    """Each IR node read from a `.rpk` has a class key of its own, so the
    site's cache holds a key equal to, not the same as, the records'."""
    scen = mesh_scenario(["a"], seed=2)
    engine = scen.hosts["a"].engine
    engine.install_image(IMAGE)
    get, put = body(engine, "getn"), body(engine, "setn")
    names = ("_get_field", "_set_field")
    calls = counting((get, put), names)
    try:
        for equal_key in (False, True, True, False):
            ref, record = field_operand(scen, "heap", equal_key, 3)
            assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, ref)) == 3
            run_task(scen, "a", lambda e, ctx: put(e, None, ctx, ref, 4))
            assert record.fields[0] == 4
    finally:
        restore((get, put), names)
    assert calls == {"_get_field": 1, "_set_field": 1}  # the first fills


def test_a_class_installed_again_with_a_new_layout_is_read_at_once():
    scen = mesh_scenario(["a"], seed=2)
    engine = scen.hosts["a"].engine
    engine.install_image(IMAGE)
    get = body(engine, "getn")
    old = engine.alloc_object(BOX, None, [7, Char(1), False, None])
    assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, old)) == 7
    layout = engine.layout
    engine.install_image(SWAPPED)
    assert engine.layout is not layout and body(engine, "getn") is get
    new = engine.alloc_object(BOX, None, [Char(1), 9, False, None])
    assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, new)) == 9
    engine.install_image(SWAPPED)  # the same image again: the same layout
    assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, new)) == 9


def test_two_engines_run_one_shared_body_over_two_layouts():
    scen = mesh_scenario(["a", "b"], seed=2)
    ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
    ea.install_image(IMAGE)
    eb.install_image(IMAGE)
    eb.install_image(SWAPPED)
    get = body(ea, "getn")
    assert body(eb, "getn") is get
    ra = ea.alloc_object(BOX, None, [1, Char(2), False, None])
    rb = eb.alloc_object(BOX, None, [Char(2), 3, False, None])
    for _ in range(3):
        assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, ra)) == 1
        assert run_task(scen, "b", lambda e, ctx: get(e, None, ctx, rb)) == 3


def test_threads_sharing_a_body_each_read_their_own_layout():
    """Engines on different threads refill one site's cache, each with its
    own layout; a reader must never combine one engine's class with
    another's slot."""
    scen = mesh_scenario(["a", "b", "c", "d"], seed=2)
    engines = [scen.hosts[name].engine for name in "abcd"]
    cases = []
    for k, engine in enumerate(engines):
        engine.install_image(IMAGE)
        fields = [100 + k, Char(k), False, None]
        if k % 2:  # the fields of Box the other way round
            engine.install_image(SWAPPED)
            fields[:2] = fields[1::-1]
        cases.append((engine, engine.alloc_object(BOX, None, fields), 100 + k))
    get = body(engines[0], "getn")
    assert all(body(engine, "getn") is get for engine in engines)
    wrong = []

    def reader(engine, ref, want):
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            try:
                get(engine, None, None, ref).send(None)
            except StopIteration as stop:
                if stop.value != want:
                    wrong.append(stop.value)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=case)
                   for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_sites_on_operands_the_type_pass_reaches_otherwise(scen):
    """An array typed by a ternary or by `create`, a value and an array
    read from fields, which the pass does not type, and `==` on an untyped
    bool: each site gives what its helper gives."""
    engine = scen.hosts["a"].engine
    for p in (True, False):
        for i in (0, 2, -1):
            a, b = CharArray(b"ab"), CharArray(b"xyz")
            assert outcome(body(engine, "pick"), None, None, None, p, a, b, i) \
                == outcome(machine._read_index, a if p else b, i)
    for n in (0, 3, -1):
        assert outcome(body(engine, "sizenew"), None, None, None, n) \
            == outcome(lambda n: intrinsic_sizear(None, None, [
                machine.new_array(machine.ir.TD_CHAR, [n]), 1]), n)
    for c in (Char(7), 7):  # an int where a char belongs takes the slow path
        for i in (0, 5):
            box = engine.alloc_object(BOX, None, [0, c, True, CharArray(b"ab")])
            record = engine.deref(box)
            results = []
            for run in (
                    lambda a: run_task(scen, "a", lambda e, ctx: body(
                        e, "copyc")(e, None, ctx, a, i, box)),
                    lambda a: machine._write_index(a, i, c),
                    lambda _a: run_task(scen, "a", lambda e, ctx: body(
                        e, "setat")(e, None, ctx, box, i, c)),
                    lambda _a: machine._write_index(record.fields[3], i, c)):
                record.fields[3] = CharArray(b"ab")
                a = CharArray(b"ab")
                results.append((outcome(run, a), bytes(a.data),
                                 bytes(record.fields[3].data)))
            assert results[0][:2] == results[1][:2], (c, i)
            assert results[2][::2] == results[3][::2], (c, i)
    for f, v in ((True, True), (True, False), (False, False)):
        box = engine.alloc_object(BOX, None, [0, Char(0), f, None])
        assert run_task(scen, "a", lambda e, ctx: body(e, "flagis")(
            e, None, ctx, box, v)) == machine._eq(f, v)


def test_a_record_of_a_class_not_loaded_here_is_read_at_the_lowered_slot():
    scen = mesh_scenario(["a"], seed=2)
    engine = scen.hosts["a"].engine
    engine.install_image(IMAGE)
    get = body(engine, "getn")
    stranger = engine.alloc_object(ClassKey("elsewhere", "Box"), None, [6])
    assert run_task(scen, "a", lambda e, ctx: get(e, None, ctx, stranger)) == 6


def test_a_builtin_unknown_here_faults_when_it_runs():
    """An image from another host may name a builtin this host lacks."""
    mc = machine.ir.MethodCode("f", 0, [], machine.ir.TD_INT, False, 0,
                               machine.ir.IrBlock([machine.ir.IrReturn(
                                   machine.ir.IrCallBuiltin("nope", []))]))
    fn, _ = machine.compile_method(mc, S, machine.Image(S.package, []))
    engine = mesh_scenario(["a"], seed=2).hosts["a"].engine
    with pytest.raises(EngineError) as exc:
        fn(engine, None, None)
    assert exc.value.code == "UnknownMethod"
