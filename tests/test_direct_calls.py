"""Direct static calls. A compiled body calls a static method of its own
image that has no copy parameter and no copy return as a Python function,
bound when the site first runs; every other static call goes through
`Engine.invoke_static`. The generic path is the reference: an engine whose
classes have no content hash compiles each body on its own, with no direct
site (`generic`), and Hypothesis checks that both give the same value or
the same fault, and leave the same state. Fixed cases cover mutual
recursion across two classes, a callee that waits on a remote field,
`copy` parameters and returns, another package's static, faults, the
order in which arguments are evaluated, two engines sharing one body, a
body parked while its package is installed again, and calls that nest
deeper than Python's recursion limit."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from minihello.engine import machine
from minihello.engine.engine import TaskCtx
from minihello.errors import E_ARITHMETIC, E_STACK_OVERFLOW, EngineError
from minihello.runpack.image import compute_hash
from minihello.values import ClassKey

from conftest import compile_text, mesh_scenario, run_task

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
A = ClassKey("direct", "A")
BOX = ClassKey("direct", "Box")

SOURCE = """
package direct;
external class Box {
    public int n;
    external public Box() {}
    public external int get() { return n; }
}
class A {
    static public int fib(int d) {
        if (d <= 1) return d;
        return fib(d - 1) + fib(d - 2);
    }
    static public int even(int d) { if (d <= 0) return 1; return B.odd(d - 1); }
    static public int div(int a, int b) { return a / b; }
    static public int nest(int a, int b, int d) {
        if (d <= 0) return div(a, b);
        return nest(a, b, d - 1) * 3 + d;
    }
    static public int add(Box x, int v) { x.n = x.n + v; return x.n; }
    static public int three(int p, int q, int r) {
        return p * 1000000 + q * 1000 + r;
    }
    static public int order(Box x, int a) {
        int i = a;
        return three(i++, add(x, i), i++) + i;
    }
    static public int boxed(int a, int b) {
        Box x = new Box();
        return add(x, a) * add(x, b);
    }
    static public void poke(copy Box x) { x.n = x.n + 1; }
    static public copy Box fresh(Box x) { return x; }
    static public int copies(Box x) {
        poke(x);
        Box y = fresh(x);
        y.n = y.n + 5;
        return x.n * 100 + y.n;
    }
    static public int read(Box x) { return x.n; }
    static public int readtwice(Box x) { return read(x) + read(x); }
    static public int readvia(Box x, int d) {
        if (d <= 0) return readtwice(x);
        return readvia(x, d - 1) + 1;
    }
}
class B {
    static public int odd(int d) { if (d <= 0) return 0; return A.even(d - 1); }
}
"""
IMAGE = compile_text(SOURCE)


def generic(engine) -> None:
    """Make `engine` compile every body of the package on its own, with no
    direct site: a body of an image without a content hash calls each
    static through `Engine.invoke_static`."""
    for key, rc in engine.classes.items():
        if key.package == "direct":
            rc.image = machine.Image(key.package, rc.image.consts)


@pytest.fixture(scope="module")
def scen():
    """Host d runs direct sites, host g the generic path."""
    scen = mesh_scenario(["d", "g"], seed=5)
    for name in ("d", "g"):
        scen.hosts[name].engine.install_image(IMAGE)
    generic(scen.hosts["g"].engine)
    return scen


def static(scen, host: str, method: str, args: list, cls=A):
    return run_task(scen, host,
                    lambda e, ctx: e.invoke_static(cls, method, args, ctx))


def outcome(scen, host: str, method: str, args: list):
    """("value", result) or ("fault", code, remote code)."""
    try:
        return "value", static(scen, host, method, args)
    except EngineError as err:
        return "fault", err.code, err.remote_code


def compiled(engine, cls: ClassKey, method: str):
    rc = engine.classes[cls]
    return rc.compiled(rc.method(method))


INTS = st.one_of(st.sampled_from([0, 1, -1, 2, INT_MIN, INT_MAX]),
                 st.integers(INT_MIN, INT_MAX))
CALLS = st.one_of(
    st.tuples(st.just("fib"), st.tuples(st.integers(-2, 14))),
    st.tuples(st.just("even"), st.tuples(st.integers(-2, 60))),
    st.tuples(st.just("nest"),
              st.tuples(INTS, st.sampled_from([0, -1, 3]) | INTS,
                        st.integers(-1, 8))),
    st.tuples(st.just("boxed"), st.tuples(INTS, INTS)),
    st.tuples(st.just("order"), st.tuples(st.none(), st.integers(-50, 50))),
    st.tuples(st.just("copies"), st.tuples(st.none())),
    st.tuples(st.just("readvia"), st.tuples(st.none(), st.integers(-1, 5))),
)


@settings(max_examples=150, deadline=None)
@given(call=CALLS, n=INTS)
def test_direct_sites_match_the_generic_path(scen, call, n):
    """A None argument is a new Box whose n is `n`, on each host."""
    method, args = call
    got, boxes = {}, {}
    for host in ("d", "g"):
        engine = scen.hosts[host].engine
        box = boxes[host] = engine.alloc_object(BOX, None, [n])
        got[host] = outcome(scen, host, method,
                            [box if a is None else a for a in args])
    assert got["d"] == got["g"]
    assert (scen.hosts["d"].engine.deref(boxes["d"]).fields
            == scen.hosts["g"].engine.deref(boxes["g"]).fields)


def test_only_the_direct_host_skips_invoke_static(scen, monkeypatch):
    counts = {"d": 0, "g": 0}
    for host in counts:
        engine = scen.hosts[host].engine
        real = engine.invoke_static

        def counted(*args, host=host, real=real):
            counts[host] += 1
            return real(*args)

        monkeypatch.setattr(engine, "invoke_static", counted)
    for host in counts:
        assert static(scen, host, "fib", [10]) == 55
    # the test's own call, then the 176 calls that fib(10) makes of fib
    assert counts == {"d": 1, "g": 177}


def test_recursion_needs_no_generator(scen):
    engine = scen.hosts["d"].engine
    for cls, method in [(A, "fib"), (A, "even"), (ClassKey("direct", "B"),
                                                   "odd"), (A, "nest")]:
        assert compiled(engine, cls, method)[1] is False, method
    for method in ("add", "order", "boxed", "copies", "readvia"):
        assert compiled(engine, A, method)[1] is True, method


def test_mutual_recursion_across_two_classes(scen):
    for d in range(12):
        assert static(scen, "d", "even", [d]) == (1 if d % 2 == 0 else 0)
    assert static(scen, "d", "odd", [7], ClassKey("direct", "B")) == 1


def test_a_direct_callee_waits_on_a_remote_field(scen):
    """readvia waits only through the calls it makes: it calls itself, then
    readtwice, which calls read, which reads a field of another host."""
    remote = scen.hosts["g"].engine.alloc_object(BOX, 0, [21])
    assert static(scen, "d", "readvia", [remote, 3]) == 45


def test_copy_parameters_and_returns_are_copied(scen):
    engine = scen.hosts["d"].engine
    box = engine.alloc_object(BOX, None, [3])
    # poke bumps a copy of x, and y is a copy of x: x.n stays 3
    assert static(scen, "d", "copies", [box]) == 3 * 100 + 8
    assert engine.deref(box).fields == [3]


def test_a_fault_in_a_direct_callee_keeps_its_code(scen):
    for host in ("d", "g"):
        with pytest.raises(EngineError) as exc:
            static(scen, host, "nest", [7, 0, 5])
        assert (exc.value.code, exc.value.remote_code) == (E_ARITHMETIC, None)


def test_arguments_are_evaluated_once_in_order(scen):
    engine = scen.hosts["d"].engine
    box = engine.alloc_object(BOX, None, [10])
    # i++ gives 4; add(x, 5) makes x.n 15; i++ gives 5; i ends at 6
    assert static(scen, "d", "order", [box, 4]) == 4015005 + 6
    assert engine.deref(box).fields == [15]


OTHER_SRC = """
package other;
class Q { static public int sq(int a) { return a * a + {plus}; } }
class P { static public int call(int a) { return Q.sq(a); } }
"""


def test_a_static_of_another_package_takes_the_generic_path():
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    engine.install_image(compile_text(OTHER_SRC.replace("{plus}", "1")))
    caller = compile_text(OTHER_SRC.replace("{plus}", "0")
                          .replace("package other", "package mine"))
    # P.call's site names other.Q, which is not in the caller's image
    call = next(m for c in caller.classes if c.name == "P" for m in c.methods)
    call.body.stmts[0].value.cls = ClassKey("other", "Q")
    engine.install_image(caller)
    assert static(scen, "solo", "call", [6], ClassKey("mine", "P")) == 37


def test_two_engines_share_one_body_and_its_bound_sites():
    scen = mesh_scenario(["a", "b"])
    engines = [scen.hosts[n].engine for n in ("a", "b")]
    for engine in engines:
        engine.install_image(IMAGE)
    fib = [compiled(engine, A, "fib")[0] for engine in engines]
    assert fib[0] is fib[1]
    assert static(scen, "a", "fib", [12]) == 144
    # the site in fib's globals is bound to fib itself, for both engines
    assert fib[0] in fib[0].__globals__.values()
    assert static(scen, "b", "fib", [13]) == 233


def test_a_body_compiled_without_its_class_table_is_not_shared():
    """A body compiled with its image's content hash but not its class
    table has no direct site, so it is not shared: a compile with the table
    still gets the body whose recursive site is direct."""
    fib = next(m for c in IMAGE.classes if c.name == "A" for m in c.methods
               if m.name == "fib")
    digest = compute_hash(IMAGE)
    alone = machine.compile_method(
        fib, A, machine.Image("direct", IMAGE.constants, digest))
    assert alone[1] is True  # its call of itself goes through invoke_static
    shared = machine.compile_method(fib, A, machine.Image(
        "direct", IMAGE.constants, digest, IMAGE.classes))
    assert shared[1] is False and shared[0] is not alone[0]


PARKED_SRC = """
package parked;
class M {
    static public int f() { return %d; }
    static public int main(char[][] argv) {
        queue q = create queue();
        int w = q <=> 0;
        return f() * 10 + w;
    }
}
"""


def test_a_parked_body_keeps_calling_its_own_image():
    """A body that waits while its package is installed again resumes in
    the image it started in: its direct sites are bound within that image,
    where `Engine.invoke_static` would reach the new one."""
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    engine.install_image(compile_text(PARKED_SRC % 1))
    main = ClassKey("parked", "M")
    task = engine.invoke_static(main, "main", [None],
                                TaskCtx(engine.new_queue()))
    waited = task.send(None)  # parked at `q <=> 0`
    engine.install_image(compile_text(PARKED_SRC % 2))
    scen.run()
    with pytest.raises(StopIteration) as stop:
        task.send(waited.result())
    assert stop.value.value == 10
    assert static(scen, "solo", "main", [None], main) == 20


DEEP_SRC = """
package deep;
external class Box {
    public int n;
    external public Box() {}
    public external int plain(int d) { return M.r(d); }
    public external int waiting(int d) { return M.g(this, d); }
}
class M {
    static public int r(int d) { if (d == 0) return 0; return r(d - 1) + 1; }
    static public int g(Box b, int d) {
        if (d == 0) return b.n;
        return g(b, d - 1) + 1;
    }
}
"""
DEEP = compile_text(DEEP_SRC)


@pytest.fixture()
def limit():
    """Python's default recursion limit, for the test's duration."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("method", ["plain", "waiting"])
def test_a_stack_overflow_fails_its_task_and_frees_the_queue(limit, method):
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    engine.install_image(DEEP)
    box = engine.alloc_object(ClassKey("deep", "Box"), 0, [4])
    queue = engine.new_queue()
    futs = [scen.submit_task("solo", lambda d=d: engine.invoke(
        box, method, [d], TaskCtx(queue)), queue) for d in (2 * limit, 10)]
    scen.run()
    with pytest.raises(EngineError) as exc:
        futs[0].result()
    assert exc.value.code == E_STACK_OVERFLOW
    assert futs[1].result() == 10 + (4 if method == "waiting" else 0)
    assert queue.idle()


@pytest.mark.parametrize("method", ["plain", "waiting"])
def test_a_remote_stack_overflow_is_answered_with_an_error(limit, method):
    scen = mesh_scenario(["a", "b"])
    for name in ("a", "b"):
        scen.hosts[name].engine.install_image(DEEP)
    box = scen.hosts["b"].engine.alloc_object(ClassKey("deep", "Box"), 0, [4])

    def go(d):
        return lambda e, ctx: e.invoke(box, method, [d], ctx)

    with pytest.raises(EngineError) as exc:
        run_task(scen, "a", go(2 * limit))
    assert exc.value.code == E_STACK_OVERFLOW
    assert run_task(scen, "a", go(10)) == 10 + (4 if method == "waiting" else 0)


@pytest.mark.parametrize("where", ["factory", "generator"])
def test_a_recursion_error_of_a_task_is_a_stack_overflow(where):
    """The task driver catches RecursionError where a task first runs, in
    its factory (a `<=>` thunk that is a plain function), and where it
    resumes, in its generator."""
    scen = mesh_scenario(["solo"])
    engine = scen.hosts["solo"].engine
    queue = engine.new_queue()

    def overflow():
        raise RecursionError

    def task():
        yield from ()
        overflow()

    futs = [scen.submit_task("solo", overflow if where == "factory" else task,
                             queue),
            scen.submit_task("solo", lambda: 7, queue)]
    scen.run()
    with pytest.raises(EngineError) as exc:
        futs[0].result()
    assert exc.value.code == E_STACK_OVERFLOW
    assert futs[1].result() == 7
    assert queue.idle()
