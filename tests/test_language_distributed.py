"""Distributed behavior driven purely from .hlo programs."""

import subprocess
import sys

import pytest

from minihello.errors import EngineError
from minihello.simharness import Scenario

from conftest import compile_text, mesh_scenario


def run_program(text, host, argv, hosts=("a", "b"), seed=0, install_everywhere=False):
    image = compile_text(text)
    scen = mesh_scenario(list(hosts), seed=seed)
    if install_everywhere:
        for h in hosts:
            scen.hosts[h].engine.install_image(image)
    fut = scen.run_main(host, image, argv)
    scen.run()
    return fut, scen


class TestRemoteFields:
    def test_field_read_and_write_through_remote_ref(self):
        fut, _ = run_program("""
package rf;
external class Box {
    external public Box() {}
    public int v;
    static public int main(char[][] argv) {
        host h = hello(argv[0]);
        Box b = create (h) Box();
        b.v = 5;
        b.v = b.v + 2;
        return b.v;
    }
}
""", "a", ["b"])
        assert fut.result() == 7

    def test_remote_fields_in_loop_condition_step_and_compound_assign(self):
        # every r.x below is a $getf or $setf round trip to b: the loop
        # suspends in its condition, its step (a post-increment), its body
        # and a compound assignment
        fut, scen = run_program("""
package rl;
external class R {
    external public R() {}
    public int x;
    static public int main(char[][] argv) {
        R r = create (hello(argv[0])) R();
        int s = 0;
        for (r.x = 0; r.x < 5; r.x++) {
            s = s + r.x;
            r.x += 0;
        }
        return s * 100 + r.x;
    }
}
""", "a", ["b"])
        assert fut.result() == 1005
        on_b = [r for r in scen.hosts["b"].engine.objects.values()
                if r.cls.name == "R" and r.partition == 0]
        assert len(on_b) == 1 and on_b[0].fields[0] == 5

    def test_remote_object_state_lives_on_remote_host(self):
        image = compile_text("""
package rs;
external class Cell {
    external public Cell() {}
    public int v;
    public external void set(int x) { v = x; }
    static public int main(char[][] argv) {
        host h = hello(argv[0]);
        Cell c = create (h) Cell();
        c.set(31);
        return c.v;
    }
}
""")
        scen = mesh_scenario(["a", "b"], seed=1)
        fut = scen.run_main("a", image, ["b"])
        scen.run()
        assert fut.result() == 31
        eb = scen.hosts["b"].engine
        cells = [r for r in eb.objects.values()
                 if r.cls.name == "Cell" and r.partition == 0]
        assert len(cells) == 1 and cells[0].fields[0] == 31


class TestRemoteFaults:
    def test_remote_constructor_fault_surfaces_to_caller(self):
        fut, _ = run_program("""
package cf;
external class Bad {
    external public Bad() { int z = 0; int x = 1 / z; }
    static public void main() {
        host h = hello("b");
        Bad b = create (h) Bad();
    }
}
""", "a", [])
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "RemoteException"
        assert exc.value.remote_code == "ArithmeticFault"

    def test_create_on_null_host_is_null_reference(self):
        fut, _ = run_program("""
package nh;
external class X {
    external public X() {}
    static public void main() {
        host h = hello("no-such");
        X x = create (h) X();
    }
}
""", "a", [])
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "NullReference"

    def test_negative_array_size_faults(self):
        fut, _ = run_program("""
package na;
class M {
    static public void main() {
        int n = 0 - 3;
        char[] b = create char[n];
    }
}
""", "a", [])
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "IndexFault"


class TestBroadcastVariants:
    def test_broadcast_from_non_primary_host(self, hello_image):
        scen = mesh_scenario(["a", "b", "c"], seed=4)
        fut = scen.run_main("c", hello_image, [])
        scen.run()
        assert fut.result() == 0
        for h in ("a", "b", "c"):
            assert bytes(scen.hosts[h].engine.stdout_bytes) == \
                b"Hello, world!\nc:-)\n"

    def test_two_broadcasts_from_two_hosts(self, hello_image):
        scen = mesh_scenario(["a", "b"], seed=5)
        fa = scen.run_main("a", hello_image, [])
        fb = scen.run_main("b", hello_image, [])
        scen.run()
        assert fa.result() == 0 and fb.result() == 0
        for h in ("a", "b"):
            got = bytes(scen.hosts[h].engine.stdout_bytes)
            assert got.count(b"Hello, world!") == 2
            assert b"a:-)" in got and b"b:-)" in got


class TestCrossProcessDeterminism:
    def test_hee_sim_output_identical_across_processes(self, tmp_path):
        import os
        from conftest import SAMPLES
        from minihello.cli import het
        rpk = tmp_path / "hello.rpk"
        assert het.main([os.path.join(SAMPLES, "hello_world"),
                         "-o", str(rpk)]) == 0
        topo = tmp_path / "m.topo"
        topo.write_text(f"""
host a primary
host b
host c
link a b
link a c
link b c
run a {rpk}
""")

        def run_once():
            return subprocess.run(
                [sys.executable, "-m", "minihello.cli.hee", "sim", str(topo),
                 "--sim-seed", "21"], capture_output=True, timeout=60)

        r1, r2 = run_once(), run_once()
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.count(b"Hello, world!") == 3
