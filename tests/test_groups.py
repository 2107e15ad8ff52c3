"""Group traversal: exactly-once visits, argument integrity, completion
barrier, failure collection, and automatic hosts-group maintenance."""

import random

import pytest

from minihello.engine.engine import TaskCtx
from minihello.errors import EngineError
from minihello.groups import decode_failures
from minihello.net.wirevalues import encode_value
from minihello.stdlib import hosts_node_ref
from minihello.values import Array, CharArray, TAG_ARRAY, TAG_INT

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


# A `$traverse` result whose failure pair holds ints, not char[]s.
MALFORMED = Array(TAG_ARRAY, [Array(TAG_INT, [1, 2])])


class TestMalformedTraverseReplies:
    """A traversal's result comes from another host, so one of the wrong
    shape is a BadFrame fault, which the traversal reports as the failure
    of the host that sent it."""

    def test_decoding_a_pair_of_ints_faults(self):
        with pytest.raises(EngineError) as exc:
            decode_failures(MALFORMED)
        assert exc.value.code == "BadFrame"
        assert decode_failures(Array(TAG_ARRAY, [Array(TAG_ARRAY, [
            CharArray(b"h"), CharArray(b"E")])])) == [("h", "E")]

    def test_a_reply_of_a_pair_of_ints_is_a_partial_failure(self):
        scen = mesh_scenario(["a", "b"], seed=4)

        def malformed(target, method, args, ctx):
            return encode_value(MALFORMED)
            yield  # a generator function, as the system methods are

        scen.hosts["b"].engine._run_sys_method = malformed
        with pytest.raises(EngineError) as exc:
            iterate_hosts(scen, "a", b"hi").result()
        assert exc.value.code == "PartialFailure"
        assert exc.value.failures == [("b", "BadFrame")]
        assert bytes(scen.hosts["a"].engine.stdout_bytes) == b"hi"


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

    def test_traversal_that_starts_on_another_host(self):
        # a starts `.+` at b's node, whose one child lives on c
        from conftest import compile_text
        from minihello.values import ClassKey
        image = compile_text(DIAMOND_SRC)
        scen = mesh_scenario(["a", "b", "c"], seed=4)
        cells = {}
        for name in "bc":
            scen.hosts[name].engine.install_image(image)
            cells[name] = run_task(scen, name, lambda engine, ctx: (
                yield from engine.create_object(ClassKey("diamond", "Cell"),
                                                ("partition", 0), [], ctx)))
        scen.hosts["b"].engine.deref(cells["b"]).fields[0] = cells["c"]
        frames_before = len(scen.network.frame_log)

        run_task(scen, "a", lambda engine, ctx: (
            yield from engine.iterate(cells["b"], "mark", [CharArray(b"+")], ctx)))
        outs = {name: bytes(scen.hosts[name].engine.stdout_bytes)
                for name in "abc"}
        assert outs == {"a": b"", "b": b"+", "c": b"+"}
        traverses = [(f[1], f[2]) for f in scen.network.frame_log[frames_before:]
                     if f[5] == "INVOKE:$traverse"]
        assert sorted(traverses) == [("a", "b"), ("b", "c")]


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


def _ring(n):
    names = [f"h{i}" for i in range(n)]
    return names, [(names[i], names[(i + 1) % n]) for i in range(n)]


def _ring_with_chords(n):
    names, links = _ring(n)
    return names, links + [(names[i], names[i + n // 2]) for i in range(n // 2)]


def _full_mesh(n):
    names = [f"h{i}" for i in range(n)]
    return names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


def _line(n):
    names = [f"h{i}" for i in range(n)]
    return names, list(zip(names, names[1:]))


def _star(n):
    names = [f"h{i}" for i in range(n)]
    return names, [(names[0], b) for b in names[1:]]


def count_calls(engine, name):
    """Replace `engine.<name>` by a wrapper that records each call's
    result; returns the list of results."""
    results = []
    inner = getattr(engine, name)

    def counted(*args, **kwargs):
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    setattr(engine, name, counted)
    return results


class TestHostsSpanningTree:
    """The builtin hosts group forwards along a spanning tree: on a settled
    topology each host is sent exactly one $traverse."""

    @pytest.mark.parametrize("shape", [_ring(6), _ring_with_chords(8),
                                       _full_mesh(5), _line(5), _star(6)],
                             ids=["ring", "ring-chords", "mesh", "line", "star"])
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_one_traverse_per_host(self, shape, seed):
        names, links = shape
        scen = Scenario(seed=seed)
        for name in names:
            scen.add_host(name)
        for a, b in links:
            scen.link(a, b)
        scen.start()
        sent = {n: count_calls(scen.hosts[n].engine, "start_traverse")
                for n in names}
        marked = {n: count_calls(scen.hosts[n].engine, "mark_traversal")
                  for n in names}
        origins = random.Random(seed).sample(names, 3)
        for k, origin in enumerate(origins):
            tag = f"[{k}]".encode()
            iterate_hosts(scen, origin, tag).result()
            for name in names:
                got = bytes(scen.hosts[name].engine.stdout_bytes)
                assert got.count(tag) == 1, (origin, name, got)
            assert sum(len(s) for s in sent.values()) == (k + 1) * (len(names) - 1)
        assert all(all(m) for m in marked.values())  # nothing turned away
        assert sum(len(m) for m in marked.values()) == 3 * len(names)

    def test_hosts_view_holds_the_path_table_links(self):
        names, links = _ring_with_chords(8)
        scen = Scenario(seed=2)
        for name in names:
            scen.add_host(name)
        for a, b in links:
            scen.link(a, b)
        scen.start()
        real = {frozenset(link) for link in links}
        for name in names:
            seen, view = scen.hosts[name].engine.hosts_group_view()
            assert seen == set(names)
            assert {frozenset(link) for link in view} <= real


def square_with_dropped_link(seed):
    """The square a-b-c-d-a, started; then b-c goes down without either
    end noticing yet."""
    scen = Scenario(seed=seed)
    for name in "abcd":
        scen.add_host(name)
    for a, b in (("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")):
        scen.link(a, b)
    scen.start()
    scen.drop_link("b", "c")
    return scen


class TestStaleHostsView:
    def test_host_the_plan_cannot_reach_is_sent_a_routed_traverse(self):
        # ring h0..h5 from h0: h1 is left h2 and h3. With h2-h3 missing from
        # h1's view (as while a path change is still being gossiped), h1's
        # tree cannot reach h3, so h1 sends h3 a $traverse routed through h2.
        names, links = _ring(6)
        scen = Scenario(seed=5)
        for name in names:
            scen.add_host(name)
        for a, b in links:
            scen.link(a, b)
        scen.start()
        h1 = scen.hosts["h1"].engine
        full_view = h1.hosts_group_view

        def view_without_h2_h3():
            seen, known = full_view()
            return seen, known - {("h2", "h3"), ("h3", "h2")}

        h1.hosts_group_view = view_without_h2_h3
        sent = {n: count_calls(scen.hosts[n].engine, "start_traverse")
                for n in names}
        frames_before = len(scen.network.frame_log)
        iterate_hosts(scen, "h0", b"R").result()
        for name in names:
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"R", name
        assert sum(len(s) for s in sent.values()) == len(names) - 1
        routed = [(f[1], f[2]) for f in scen.network.frame_log[frames_before:]
                  if f[5] == "ROUTE[h3]:INVOKE:$traverse"]
        assert routed == [("h1", "h2"), ("h2", "h3")]  # h2 forwarded it

    def test_silent_link_drop_fails_then_recovers(self):
        scen = square_with_dropped_link(6)
        engine = scen.hosts["a"].engine
        fut = scen.submit_task("a", lambda: engine.iterate(
            engine.hosts_root_ref(), "print", [CharArray(b"1")],
            TaskCtx(engine.new_queue(label="it"))))
        returned_at = []
        fut.add_callback(lambda _f: returned_at.append(scen.core.now))
        scen.run()
        with pytest.raises(EngineError) as info:
            fut.result()
        # b's $traverse to c fails when b evicts c (about tick 8,000), not
        # at its 30 s timeout; the hosts below a failed child may not have
        # run; no host ran twice
        assert info.value.code == "PartialFailure"
        assert info.value.failures == [("c", "HostUnreachable")]
        assert returned_at[0] < 10_000
        for name in "abd":
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"1"
        assert bytes(scen.hosts["c"].engine.stdout_bytes) in (b"", b"1")
        # liveness has evicted b-c by now: a broadcast that returns
        # normally ran exactly once on every host
        assert "c" not in scen.hosts["b"].router.neighbor_names()
        iterate_hosts(scen, "a", b"2").result()
        for name in "abcd":
            assert bytes(scen.hosts[name].engine.stdout_bytes).count(b"2") == 1

    def test_silent_link_drop_heals_once_liveness_evicts(self):
        scen = square_with_dropped_link(8)
        scen.settle_until(scen.core.now + 10_000)  # three missed pings
        scen.run()
        iterate_hosts(scen, "a", b"3").result()
        for name in "abcd":
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"3"

    def test_late_link_reaches_the_new_host_once(self):
        unknown_to_origin = 0
        for delay in range(8):
            scen = line_scenario(["a", "b", "c"], seed=delay)
            scen.add_host("e")
            scen.link("c", "e")
            scen.hosts["c"].router.connect("e")
            view = {}

            def broadcast(scen=scen, view=view):
                view["c"] = "e" in scen.hosts["c"].router.neighbor_names()
                view["a"] = scen.hosts["a"].router.knows("e")
                engine = scen.hosts["a"].engine

                def task():
                    yield from engine.iterate(engine.hosts_root_ref(), "print",
                                              [CharArray(b"L")],
                                              TaskCtx(engine.new_queue()))

                view["done"] = scen.submit_task("a", task)

            scen.at(scen.core.now + delay, broadcast)
            scen.run()
            view["done"].result()
            for name in "abc":
                assert bytes(scen.hosts[name].engine.stdout_bytes) == b"L"
            got = bytes(scen.hosts["e"].engine.stdout_bytes)
            assert got in (b"", b"L"), (delay, got)
            if view["c"]:  # c was linked to e before the broadcast began
                assert got == b"L", (delay, view)
            unknown_to_origin += view["c"] and not view["a"]
        # some broadcast started after c linked to e but before a learned of e
        assert unknown_to_origin


DIAMOND_SRC = """
package diamond;
external group class Cell {
    external public Cell() {}
    public Cell left;
    public Cell right;
    public external Cell[] children() {
        Cell[] out = create Cell[2];
        out[0] = left;
        out[1] = right;
        return out;
    }
    public external iterator void mark(copy char[] tag) {
        print(tag);
    }
    static public void main() { }
}
"""


class TestDuplicateTraversals:
    def test_user_diamond_runs_each_node_once(self):
        from conftest import compile_text
        from minihello.values import ClassKey
        image = compile_text(DIAMOND_SRC)
        scen = Scenario(seed=3)
        for name in "abcd":
            scen.add_host(name)
        scen.link("a", "b")
        scen.link("a", "c")
        scen.link("b", "d")
        scen.link("c", "d", latency=5)  # c's forward reaches d second
        scen.start()
        cells = {}
        for name in "abcd":
            scen.hosts[name].engine.install_image(image)
            cells[name] = run_task(scen, name, lambda engine, ctx: (
                yield from engine.create_object(ClassKey("diamond", "Cell"),
                                                ("partition", 0), [], ctx)))
        for top, left, right in (("a", "b", "c"), ("b", "d", None),
                                 ("c", "d", None)):
            fields = scen.hosts[top].engine.deref(cells[top]).fields
            fields[0] = cells[left]
            fields[1] = cells[right] if right else None
        marked = count_calls(scen.hosts["d"].engine, "mark_traversal")
        frames_before = len(scen.network.frame_log)

        run_task(scen, "a", lambda engine, ctx: (
            yield from engine.iterate(cells["a"], "mark", [CharArray(b"+")], ctx)))
        for name in "abcd":
            assert bytes(scen.hosts[name].engine.stdout_bytes) == b"+", name
        to_d = [f for f in scen.network.frame_log[frames_before:]
                if f[2] == "d" and f[5] == "INVOKE:$traverse"]
        assert len(to_d) == 2  # the echo sends on both edges into d
        assert marked == [True, False]  # the second is turned away
