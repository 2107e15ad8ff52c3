"""Single-host engine semantics: main entry, faults, arrays, intrinsics."""

import gc
import sys
import tracemalloc

import pytest

from minihello.errors import EngineError
from minihello.engine.engine import TaskCtx
from minihello.values import Array, CharArray, Char

from conftest import compile_text, mesh_scenario, run_task


def single(seed=0):
    scen = mesh_scenario(["solo"], seed=seed)
    return scen


def run_main_text(text, argv=(), seed=0):
    image = compile_text(text)
    scen = single(seed)
    fut = scen.run_main("solo", image, list(argv))
    scen.run()
    engine = scen.hosts["solo"].engine
    return fut, engine


class TestRunMain:
    def test_void_main_exits_zero(self):
        fut, engine = run_main_text("""
package p;
class M { static public void main() { print("ok\\n"); } }
""")
        assert fut.result() == 0
        assert bytes(engine.stdout_bytes) == b"ok\n"

    def test_int_main_exit_code(self):
        fut, _ = run_main_text("""
package p;
class M { static public int main(char[][] argv) { return 7; } }
""")
        assert fut.result() == 7

    def test_argv_delivery_and_sizear(self):
        fut, engine = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        print(argv[0] + " " + argv[1] + "\\n");
        return sizear(argv, 1);
    }
}
""", argv=["alpha", "beta"])
        assert fut.result() == 2
        assert bytes(engine.stdout_bytes) == b"alpha beta\n"

    def test_shell_main_quits_with_too_few_args(self, shell_image):
        scen = single()
        fut = scen.run_main("solo", shell_image, ["onlyhost"])
        scen.run()
        assert fut.result() == 0

    def test_no_main_found(self):
        image = compile_text("package p; class M { public void f() { } }")
        scen = single()
        fut = scen.run_main("solo", image, [])
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "NoMainFound"

    def test_hello_unknown_host_is_null(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        host h = hello("no-such-host");
        if (h == null) return 41;
        return 0;
    }
}
""")
        assert fut.result() == 41

    def test_hello_own_name_equals_this_host(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        host h = hello("solo");
        if (h == this_host) return 1;
        return 0;
    }
}
""")
        assert fut.result() == 1


class TestFaults:
    def test_division_by_zero_is_arithmetic_fault(self):
        fut, _ = run_main_text("""
package p;
class M { static public int main(char[][] argv) { int z = 0; return 1 / z; } }
""")
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "ArithmeticFault"

    def test_null_method_call_wraps_null_reference(self):
        fut, _ = run_main_text("""
package p;
external class M {
    external public M() {}
    public external void f() { }
    static public void main() {
        M m = null;
        m.f();
    }
}
""")
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "RemoteException"
        assert exc.value.remote_code == "NullReference"

    def test_index_out_of_range(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public void main() {
        char[] s = create char[2];
        char c = s[5];
    }
}
""")
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "IndexFault"

    def test_int_arithmetic_wraps_two_complement(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        int big = 9223372036854775807;
        int wrapped = big + 1;
        if (wrapped < 0) return 1;
        return 0;
    }
}
""")
        assert fut.result() == 1


# main bodies and what main returns, or the fault code it raises
PINNED = {
    "div_truncates": ("int a = -7; return a / 2;", -3),
    "mod_takes_dividend_sign": ("int a = -7; return a % 2;", -1),
    "mod_by_negative": ("int a = 7; return a % -2;", 1),
    "mod_by_zero": ("int x = 5; int z = 0; return x % z;", "ArithmeticFault"),
    "and_or_short_circuit": ("""
        int i = 0;
        bool a = false && i++ > 0;
        bool b = true || i++ > 0;
        bool c = true && i++ >= 0;
        bool d = false || i++ >= 0;
        return i;""", 2),
    "return_from_for_in_while": ("""
        int n = 0;
        while (true) {
            for (int i = 0; i < 10; i++) {
                n++;
                if (i == 3) return n * 10 + i;
            }
        }
        return -1;""", 43),
    "incr_field_and_int_element": ("""
        Box b = new Box();
        b.v++;
        b.v++;
        int[] a = create int[3];
        a[1]++;
        return b.v * 10 + a[1] * 100 + a[0] + a[2];""", 120),
    "zero_filled_chars": ("""
        char[][] g = create char[2][3];
        g[0][1] = 'a';
        char[] s = create char[4];
        s += g[1];
        int zeros = 0;
        for (int i = 0; i < sizear(s, 1); i++)
            if (s[i] == g[1][0]) zeros++;
        return zeros * 100 + sizear(s, 1) * 10 + (g[0][1] == g[1][1] ? 1 : 0);""",
                          770),
    # compound assignment evaluates its target twice, once to read and once
    # to store: a[1] = a[0] + 5, i ends at 2, and pick runs twice
    "compound_target_evaluated_twice": ("""
        int[] a = create int[3];
        a[0] = 7;
        int i = 0;
        a[i++] += 5;
        Box b = new Box();
        int[] calls = create int[1];
        pick(b, calls).v += 1;
        return a[1] * 1000 + a[2] * 100 + i * 20 + calls[0] * 5 + b.v * 2;""",
                                        12052),
    "queued_eval_writes_caller_local": ("""
        queue q = create queue();
        int i = 5;
        int r = q <=> i++;
        return r * 10 + i;""", 56),
    "wrap_and_left_to_right_arguments": ("""
        int big = 9223372036854775807;
        int w = big + 1;
        int i = 1;
        return (w - 1 == big && w < 0 ? 1000 : 0) + two(i++, i++);""", 1012),
}

PINNED_HELPERS = """
    static public Box pick(Box b, int[] calls) { calls[0]++; return b; }
    static public int two(int x, int y) { return x * 10 + y; }
"""


class TestPinnedSemantics:
    @pytest.mark.parametrize("body, want", PINNED.values(), ids=PINNED.keys())
    def test_main_body(self, body, want):
        fut, _ = run_main_text(f"""
package p;
class Box {{ public int v; public Box() {{}} }}
class M {{ {PINNED_HELPERS}
    static public int main(char[][] argv) {{ {body} }} }}
""")
        if isinstance(want, str):
            with pytest.raises(EngineError) as exc:
                fut.result()
            assert exc.value.code == want
        else:
            assert fut.result() == want


# Bodies nested deeper than Python lets one function nest, and what main
# returns
DEEP = {
    "45_nested_ifs": ("int s = 0; int i = 0;" + "".join(
        f"if (s < {k + 1}) {{ s++; " for k in range(45))
        + "i = s * 7;" + "}" * 45 + " return s * 1000 + i;", 45315),
    "25_nested_loops_return": ("int s = 0;" + "".join(
        f"for (int i{k} = 0; i{k} < 2; i{k}++) " for k in range(25))
        + "{ s++; if (s == 77) return s * 3; } return s;", 231),
    "120_increments": ("int i = 0; int r = " + " + ".join(["i++"] * 120)
                       + "; return r * 1000 + i;", 7140120),
    "90_field_increments": ("Box b = new Box(); b.v = 3; int r = "
                            + " + ".join(["b.v++"] * 90)
                            + "; return r * 1000 + b.v;", 4275093),
    "40_queued_increments": ("queue q = create queue(); int i = 2; int r = "
                             + " * ".join(["(q <=> i++)"] * 40)
                             + "; return r + i;", -2894979756195839958),
}


class TestDeepBodies:
    @pytest.mark.parametrize("body, want", DEEP.values(), ids=DEEP.keys())
    def test_main_body(self, body, want):
        fut, _ = run_main_text(f"""
package p;
class Box {{ public int v; public Box() {{}} }}
class M {{ static public int main(char[][] argv) {{ {body} }} }}
""")
        assert fut.result() == want

    def test_2000_term_sum_under_the_cli_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20_000))  # as het and hee do
        try:
            fut, _ = run_main_text("""
package p;
class M { static public int main(char[][] argv) { int s = 3; return %s; } }
""" % " + ".join(["s"] * 2000))
        finally:
            sys.setrecursionlimit(limit)
        assert fut.result() == 6000


class TestBufferRelease:
    def test_method_buffers_are_freed_when_its_body_returns(self):
        # 4 MiB of buffers, and 4 MiB more of the snapshots that #> takes:
        # a snapshot shares its buffer's bytes until the write after the post
        # copies them; with the cyclic collector off, only reference counting
        # frees them
        image = compile_text("""
package p;
external class Sink {
    external public Sink() {}
    public message void take(char[] data) { }
    public external int fill() {
        queue q = create queue();
        char[][] bufs = create char[4][1048576];
        for (int i = 0; i < 4; i++) {
            q #> (this, take(bufs[i]));
            bufs[i][0] = 'x';
        }
        q <=> 1;
        return sizear(bufs, 1);
    }
    static public int main(char[][] argv) {
        Sink s = new Sink();
        return s.fill();
    }
}
""")
        scen = single()
        gc.disable()
        tracemalloc.start()
        try:
            fut = scen.run_main("solo", image, [])
            scen.run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert fut.result() == 4
        assert peak > 8 << 20
        assert current < 1 << 20


class TestLanguageCore:
    def test_string_concat_and_append(self):
        fut, engine = run_main_text("""
package p;
class M {
    static public void main() {
        char[] line = create char[0];
        for (int i = 0; i < 3; i++)
            line += "ab";
        print(line + "!\\n");
    }
}
""")
        fut.result()
        assert bytes(engine.stdout_bytes) == b"ababab!\n"

    def test_ternary_postincr_while(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        int n = 0;
        int i = 0;
        while (i < 5) {
            int j = i++;
            n = n + (j > 2 ? 10 : 1);
        }
        return n;
    }
}
""")
        assert fut.result() == 23

    def test_two_dimensional_array(self):
        fut, _ = run_main_text("""
package p;
class M {
    enum { W = 4 }
    static public int main(char[][] argv) {
        char[][] grid = create char[3][W];
        if (sizear(grid, 1) != 3) return 1;
        if (sizear(grid, 2) != 4) return 2;
        return 0;
    }
}
""")
        assert fut.result() == 0

    def test_object_fields_and_methods(self):
        fut, _ = run_main_text("""
package p;
class Box {
    public Box() { val = 5; }
    public int val;
    public int bump(int by) { val = val + by; return val; }
    static public int main(char[][] argv) {
        Box b = new Box();
        b = b;
        int r = 0;
        Box me = new Box();
        r = me.grow();
        return r;
    }
    public int grow() { return bump(3) + val; }
}
""")
        assert fut.result() == 16

    def test_heap_vs_partition_placement(self, counter_image):
        scen = single()
        scen.hosts["solo"].engine.install_image(counter_image)
        from minihello.values import ClassKey

        def task(engine, ctx):
            heap_ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("heap",), [], ctx)
            part_ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("partition", 0), [], ctx)
            return heap_ref, part_ref

        heap_ref, part_ref = run_task(scen, "solo", task)
        assert heap_ref.partition is None
        assert part_ref.partition == 0
        engine = scen.hosts["solo"].engine
        assert engine.deref(heap_ref) is engine.objects[heap_ref.oid]
        assert engine.deref(part_ref) is engine.objects[part_ref.oid]
        # one table holds both, but a ref must name the record's partition
        for ref, other in ((heap_ref, 0), (part_ref, None)):
            with pytest.raises(EngineError) as exc:
                engine.deref(ref._replace(partition=other))
            assert exc.value.code == "UnknownObject"


class TestIntrinsics:
    def test_parse_int_atoi_semantics(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        cases = {b"4": 4, b"  -12x": -12, b"+3": 3, b"": 0, b"abc": 0,
                 b"007": 7}
        for raw, want in cases.items():
            got = engine.call_intrinsic("parse_int", [CharArray(raw)], ctx)
            assert got == want, raw

    def test_sizear_dimensions_and_errors(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        empty = Array(4, [])
        assert engine.call_intrinsic("sizear", [empty, 1], ctx) == 0
        rect = Array(4, [CharArray(bytes(7)) for _ in range(3)])
        assert engine.call_intrinsic("sizear", [rect, 1], ctx) == 3
        assert engine.call_intrinsic("sizear", [rect, 2], ctx) == 7
        with pytest.raises(EngineError) as exc:
            engine.call_intrinsic("sizear", [rect, 3], ctx)
        assert exc.value.code == "BadDimension"
        with pytest.raises(EngineError):
            engine.call_intrinsic("sizear", [rect, 0], ctx)

    @staticmethod
    def exec_read(scen, args, ctx):
        """Run the exec_read builtin, which waits for the pipe, as a task."""
        engine = scen.hosts["solo"].engine
        fut = scen.submit_task("solo", lambda: engine.exec_read(args, ctx))
        scen.run()
        return fut.result()

    def test_exec_open_read_round_trip(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        handle = engine.call_intrinsic("exec_open", [CharArray(b"echo hi")], ctx)
        buf = CharArray(bytes(64))
        proc = ctx.queue.exec_handles[handle]
        st = self.exec_read(scen, [handle, buf, 64], ctx)
        n, eof, err = st.items
        assert bytes(buf.data[:n]) == b"hi\n"
        assert (eof, err) == (1, 0)
        assert proc.stdout.closed and proc.returncode == 0  # reaped at eof
        with pytest.raises(EngineError) as exc:  # the handle closed at eof
            self.exec_read(scen, [handle, buf, 64], ctx)
        assert exc.value.code == "HandleClosed"

    def test_exec_handle_confined_to_queue(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        handle = engine.call_intrinsic("exec_open", [CharArray(b"echo x")], ctx)
        other = TaskCtx(engine.new_queue(label="other"))
        with pytest.raises(EngineError) as exc:
            self.exec_read(scen, [handle, CharArray(bytes(4)), 4], other)
        assert exc.value.code == "HandleClosed"
        # the opening queue reads its command to EOF, which reaps it
        st = self.exec_read(scen, [handle, CharArray(bytes(4)), 4], ctx)
        assert st.items == [2, 1, 0]

    def test_exec_open_empty_command_fails(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        with pytest.raises(EngineError) as exc:
            engine.call_intrinsic("exec_open", [CharArray(b"  ")], ctx)
        assert exc.value.code == "ExecFailed"

    def test_write_stdout_returns_count(self):
        scen = single()
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        n = engine.call_intrinsic("write_stdout", [CharArray(b"abcdef"), 4], ctx)
        assert n == 4
        assert bytes(engine.stdout_bytes) == b"abcd"

    def test_stderr_merged_via_shell_redirection(self):
        # the command writes to its stderr; the appended 2>&1 folds that
        # into the captured pipe
        fut, engine = run_main_text(r"""
package p;
class M {
    static public void main() {
        char[] line = create char[0];
        line += "sh -c ";
        line += "\"echo oops 1>&2\" ";
        line += "2>&1";
        int pipe = exec_open(line);
        char[] buf = create char[64];
        int[] st = exec_read(pipe, buf, 64);
        write_stdout(buf, st[0]);
    }
}
""")
        fut.result()
        assert bytes(engine.stdout_bytes) == b"oops\n"


class TestRemoteChains:
    def test_three_host_nested_remote_calls(self, counter_image):
        # a -> b.relay() which itself calls c.read(): nested synchronous
        # invocations across three engines
        from conftest import compile_text, mesh_scenario, run_task
        from minihello.values import ClassKey
        image = compile_text("""
package chain;
external class Link {
    external public Link() {}
    public Link next;
    public int depth;
    public external int probe() {
        if (next == null)
            return depth;
        return next.probe() + depth;
    }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a", "b", "c"], seed=8)
        for h in ("a", "b", "c"):
            scen.hosts[h].engine.install_image(image)
        key = ClassKey("chain", "Link")

        def task(engine, ctx):
            on_c = yield from engine.create_object(key, ("remote", "c", None),
                                                   [], ctx)
            yield from engine.remote_set_field(on_c, "depth", 100, ctx)
            on_b = yield from engine.create_object(key, ("remote", "b", None),
                                                   [], ctx)
            yield from engine.remote_set_field(on_b, "depth", 10, ctx)
            yield from engine.remote_set_field(on_b, "next", on_c, ctx)
            value = yield from engine.invoke(on_b, "probe", [], ctx)
            return value

        assert run_task(scen, "a", task) == 110

    def test_sizearg_alias_of_sizear(self):
        fut, _ = run_main_text("""
package p;
class M {
    static public int main(char[][] argv) {
        return sizear(argv, 1) * 10 + sizearg(argv, 1);
    }
}
""", argv=["x", "y", "z"])
        assert fut.result() == 33
