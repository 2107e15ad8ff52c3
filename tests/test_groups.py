"""Group traversal: exactly-once visits, argument integrity, completion
barrier, failure collection, and automatic hosts-group maintenance."""

import random

import pytest

from minihello.engine.engine import TaskCtx
from minihello.errors import EngineError
from minihello.stdlib import hosts_node_ref
from minihello.values import CharArray

from conftest import line_scenario, mesh_scenario, run_task
from minihello.simharness import Scenario


def iterate_hosts(scen, origin: str, text: bytes):
    def task(engine, ctx):
        yield from engine.iterate(engine.hosts_root_ref(), "print",
                                  [CharArray(text)], ctx)

    engine = scen.hosts[origin].engine
    fut = scen.submit_task(
        origin, lambda: task(engine, TaskCtx(engine.new_queue(label="it"))))
    scen.run()
    return fut


class TestIterate:
    def test_single_isolated_host_one_invocation(self):
        scen = mesh_scenario(["solo"])
        iterate_hosts(scen, "solo", b"only\n").result()
        assert bytes(scen.hosts["solo"].engine.stdout_bytes) == b"only\n"

    def test_mesh_visits_every_host_once(self):
        scen = mesh_scenario(["a", "b", "c"])
        iterate_hosts(scen, "a", b"ping\n").result()
        for name in ("a", "b", "c"):
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"ping\n"

    def test_line_traversal_reaches_both_ends(self):
        scen = line_scenario(["a", "b", "c"])
        iterate_hosts(scen, "a", b"x").result()
        for name in ("a", "b", "c"):
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"x"

    def test_argument_byte_identical_at_every_hop(self):
        payload = bytes(range(256)) * 3
        scen = line_scenario(["a", "b", "c", "d"])
        iterate_hosts(scen, "b", payload).result()
        for name in ("a", "b", "c", "d"):
            assert bytes(scen.hosts[name].engine.stdout_bytes) == payload

    def test_exactly_once_on_random_topologies(self):
        rng = random.Random(777)
        for trial in range(15):
            n = rng.randrange(2, 9)
            names = [f"h{i}" for i in range(n)]
            scen = Scenario(seed=trial)
            for name in names:
                scen.add_host(name)
            edges = set()
            for i in range(1, n):
                edges.add((names[rng.randrange(i)], names[i]))
            for _ in range(n):
                i, j = rng.sample(range(n), 2)
                edges.add((names[min(i, j)], names[max(i, j)]))
            for a, b in sorted(edges):
                scen.link(a, b)
            scen.start()
            origin = names[rng.randrange(n)]
            iterate_hosts(scen, origin, b"T\n").result()
            for name in names:
                got = bytes(scen.hosts[name].engine.stdout_bytes)
                assert got == b"T\n", (trial, name, got)

    def test_caller_blocked_until_all_complete(self):
        scen = mesh_scenario(["a", "b", "c"])
        fut = iterate_hosts(scen, "a", b"z")
        fut.result()
        # at barrier return every engine has already printed
        for name in ("a", "b", "c"):
            assert scen.hosts[name].engine.stdout_bytes

    def test_dead_neighbor_partial_failure_or_skip(self):
        scen = mesh_scenario(["a", "b"], seed=9, call_timeout_ms=5_000)
        scen.kill_host("b")
        fut = iterate_hosts(scen, "a", b"hi\n")
        try:
            fut.result()
            # removal processed before the traversal: b was skipped
            assert scen.hosts["a"].router.neighbor_names() == []
        except EngineError as err:
            assert err.code == "PartialFailure"
            assert err.failures and err.failures[0][0] == "b"
        assert bytes(scen.hosts["a"].engine.stdout_bytes) == b"hi\n"

    def test_concurrent_traversals_do_not_interfere(self):
        scen = mesh_scenario(["a", "b", "c"], seed=11)
        fa = iterate_hosts(scen, "a", b"A")
        fb = iterate_hosts(scen, "b", b"B")
        fa.result()
        fb.result()
        for name in ("a", "b", "c"):
            got = bytes(scen.hosts[name].engine.stdout_bytes)
            assert sorted(got) == sorted(b"AB"), (name, got)


class TestHostsGroupMaintenance:
    def test_engine_start_single_local_node(self):
        scen = mesh_scenario(["solo"])
        nodes, edges = scen.hosts["solo"].engine.hosts_group_view()
        assert nodes == {"solo"}
        assert edges == set()

    def test_connect_adds_node_and_edge_on_both_sides(self):
        scen = line_scenario(["a", "b"])
        nodes_a, edges_a = scen.hosts["a"].engine.hosts_group_view()
        nodes_b, edges_b = scen.hosts["b"].engine.hosts_group_view()
        assert nodes_a == {"a", "b"} and ("a", "b") in edges_a
        assert nodes_b == {"a", "b"} and ("b", "a") in edges_b

    def test_children_returns_current_neighbor_nodes(self):
        scen = mesh_scenario(["a", "b", "c"])
        children = scen.hosts["a"].engine.hosts_group_children()
        assert [c.host for c in children.items] == ["b", "c"]
        assert all(c == hosts_node_ref(c.host) for c in children.items)

    def test_disconnect_drops_edge(self):
        scen = line_scenario(["a", "b"], seed=5)
        scen.kill_host("b")
        scen.at(scen.core.now + 10_000, lambda: None)
        scen.core.run_until_quiet()
        nodes, edges = scen.hosts["a"].engine.hosts_group_view()
        assert nodes == {"a"} and edges == set()

    def test_group_node_has_current_host_field(self):
        scen = mesh_scenario(["a"])
        engine = scen.hosts["a"].engine
        record = engine.deref(engine.hosts_root_ref())
        assert record.fields[0] == engine.this_host_ref()


class TestUserDefinedGroups:
    def test_group_class_with_children_is_traversable(self):
        from conftest import compile_text
        image = compile_text("""
package ring;
external group class Cell {
    external public Cell() {}
    public Cell next;
    public int seen;
    public external copy Cell[] children() {
        Cell[] out = create Cell[1];
        out[0] = next;
        return out;
    }
    public external iterator void mark(copy char[] tag) {
        seen = seen + 1;
        print(tag);
    }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a"], seed=0)
        engine = scen.hosts["a"].engine
        engine.install_image(image)
        from minihello.values import ClassKey

        def setup(engine, ctx):
            cells = []
            for _ in range(3):
                ref = yield from engine.create_object(
                    ClassKey("ring", "Cell"), ("partition", 0), [], ctx)
                cells.append(ref)
            for i, ref in enumerate(cells):
                engine.deref(ref).fields[0] = cells[(i + 1) % 3]
            yield from engine.iterate(cells[0], "mark", [CharArray(b".")], ctx)
            return [engine.deref(c).fields[1] for c in cells]

        seen = run_task(scen, "a", setup)
        # one host: the visited-set is host-keyed, so the traversal runs the
        # iterator on the starting node and stops at the first same-host child
        assert seen[0] == 1
        assert bytes(engine.stdout_bytes) == b"."


class TestQueueRelease:
    def test_hundred_broadcasts_keep_queues_flat(self, hello_image):
        # a ring of four, so that one host is also sent a duplicate $traverse
        names = ["a", "b", "c", "d"]
        scen = Scenario(seed=3)
        for name in names:
            scen.add_host(name)
        for x, y in zip(names, names[1:] + names[:1]):
            scen.link(x, y)
        scen.start()

        def live_queues():
            return {n: len(scen.hosts[n].engine.queues) for n in names}

        before = live_queues()
        for _ in range(100):
            fut = scen.run_main("a", hello_image)
            scen.run()
            assert fut.result() == 0
        assert live_queues() == before
        for name in names:
            assert bytes(scen.hosts[name].engine.stdout_bytes) \
                == b"Hello, world!\na:-)\n" * 100
