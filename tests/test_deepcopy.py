"""Deep-copy semantics: aliasing, cycles, reference translation, and the
cross-host path checked against an independent graph-isomorphism oracle."""

import random

import pytest

from minihello.engine.engine import TaskCtx
from minihello.engine.machine import _write_index
from minihello.engine.marshal import local_copy, to_wire
from minihello.errors import EngineError
from minihello.values import (Array, Char, CharArray, ClassKey, ObjectRef,
                              TAG_ARRAY, TAG_OBJECT)

from conftest import (WireHeap, graphs_isomorphic, mesh_scenario,
                      reachable_nodes, run_task)

NODE = ClassKey("graphs", "Node")
HIDDEN = ClassKey("graphs", "Hidden")


def graph_scenario(graph_image, hosts=("a", "b"), seed=0):
    scen = mesh_scenario(list(hosts), seed=seed)
    for h in hosts:
        scen.hosts[h].engine.install_image(graph_image)
    return scen


def make_node(engine, tag=0, label=b""):
    return engine.alloc_object(NODE, None,
                               [None, None, tag, CharArray(label), None])


def build_random_graph(engine, rng: random.Random, n_nodes: int):
    """Random object graph with shared nodes and cycles; returns the root."""
    refs = [make_node(engine, tag=i, label=bytes([65 + i % 26]))
            for i in range(n_nodes)]
    for i, ref in enumerate(refs):
        record = engine.deref(ref)
        for field_idx in (0, 1):
            if rng.random() < 0.75:
                record.fields[field_idx] = refs[rng.randrange(n_nodes)]
    # make every node reachable from the root through an array field
    root = make_node(engine, tag=-1, label=b"root")
    engine.deref(root).fields[0] = refs[0] if refs else None
    engine.deref(root).fields[3] = CharArray(b"root")
    record = engine.deref(root)
    record.fields[1] = refs[rng.randrange(n_nodes)] if refs else None
    # hang the full node list off the root so reachability is total
    record.fields[4] = Array(TAG_OBJECT, list(refs))
    return root


class TestLocalCopy:
    def test_primitive_identity(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        assert local_copy(engine, 42) == 42
        assert local_copy(engine, None) is None
        assert local_copy(engine, True) is True

    def test_char_array_copied_not_aliased(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        src = CharArray(b"buffer")
        out = local_copy(engine, src)
        # the copy shares the bytes until a write, which copies them first
        _write_index(out, 0, Char(0))
        assert src.data == bytearray(b"buffer")
        assert out.data == bytearray(b"\x00uffer")

    def test_cycle_two_nodes(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        a = make_node(engine, 1)
        b = make_node(engine, 2)
        engine.deref(a).fields[0] = b
        engine.deref(b).fields[0] = a
        copy = local_copy(engine, a)
        assert copy.oid != a.oid
        ca = engine.deref(copy)
        cb = engine.deref(ca.fields[0])
        assert cb.fields[0] == copy  # cycle intact
        assert len(reachable_nodes(engine, copy)) == 2

    def test_aliasing_preserved_no_duplication(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        shared = make_node(engine, 9)
        root = make_node(engine, 1)
        engine.deref(root).fields[0] = shared
        engine.deref(root).fields[1] = shared
        copy = local_copy(engine, root)
        record = engine.deref(copy)
        assert record.fields[0] == record.fields[1]
        assert len(reachable_nodes(engine, copy)) == 2


class TestCrossingRules:
    def test_non_copy_external_object_becomes_remote_ref(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        ref = make_node(engine)
        out = WireHeap().decode(to_wire(engine, ref, copy=False))
        assert out == ref  # the reference itself, pointing back at the original

    def test_non_external_object_cannot_cross(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        hidden = engine.alloc_object(HIDDEN, None, [1])
        with pytest.raises(EngineError) as exc:
            to_wire(engine, hidden, copy=False)
        assert exc.value.code == "NonCopyableValue"
        with pytest.raises(EngineError) as exc:
            to_wire(engine, hidden, copy=True)
        assert exc.value.code == "NonCopyableValue"

    def test_non_external_inside_copied_graph_rejected(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        node = make_node(engine)
        hidden = engine.alloc_object(HIDDEN, None, [1])
        engine.deref(node).fields[0] = hidden
        # local copies of mixed graphs are fine
        local_copy(engine, node)
        with pytest.raises(EngineError) as exc:
            to_wire(engine, node, copy=True)
        assert exc.value.code == "NonCopyableValue"

    def test_remote_refs_pass_through_copy_graphs(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        elsewhere = ObjectRef("zz", 0, 5, NODE)
        node = make_node(engine)
        engine.deref(node).fields[0] = elsewhere
        heap = WireHeap()
        wire = heap.record(heap.decode(to_wire(engine, node, copy=True)))
        assert wire is not None
        assert wire.fields[0] == elsewhere

    def test_builtin_instances_stay_references(self, graph_image):
        scen = graph_scenario(graph_image, hosts=("a",))
        engine = scen.hosts["a"].engine
        node = make_node(engine)
        engine.deref(node).fields[0] = engine.this_host_ref()
        heap = WireHeap()
        wire = heap.record(heap.decode(to_wire(engine, node, copy=True)))
        assert wire is not None
        assert wire.fields[0] == engine.this_host_ref()


class TestCrossHostCopy:
    def test_int_identity(self, graph_image):
        scen = graph_scenario(graph_image)

        def task(engine, ctx):
            return (yield from engine.deep_copy(42, "b", ctx))

        assert run_task(scen, "a", task) == 42

    def test_cycle_copies_across_hosts(self, graph_image):
        scen = graph_scenario(graph_image)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        a = make_node(ea, 1, b"one")
        b = make_node(ea, 2, b"two")
        ea.deref(a).fields[0] = b
        ea.deref(b).fields[0] = a

        def task(engine, ctx):
            return (yield from engine.deep_copy(a, "b", ctx))

        copy_ref = run_task(scen, "a", task)
        assert copy_ref.host == "b"
        assert graphs_isomorphic(ea, a, eb, copy_ref)
        assert len(reachable_nodes(eb, copy_ref)) == 2

    def test_random_graphs_isomorphic_with_equal_node_count(self, graph_image):
        rng = random.Random(99)
        for trial in range(12):
            scen = graph_scenario(graph_image, seed=trial)
            ea = scen.hosts["a"].engine
            eb = scen.hosts["b"].engine
            root = build_random_graph(ea, rng, rng.randrange(1, 21))

            def task(engine, ctx):
                return (yield from engine.deep_copy(root, "b", ctx))

            copy_ref = run_task(scen, "a", task)
            assert copy_ref.host == "b"
            assert graphs_isomorphic(ea, root, eb, copy_ref)
            assert len(reachable_nodes(eb, copy_ref)) == \
                len(reachable_nodes(ea, root))

    def test_four_mib_buffer_byte_identical(self, graph_image):
        scen = graph_scenario(graph_image)
        payload = bytes(range(256)) * (4 * 1024 * 1024 // 256)
        buf = CharArray(payload)

        def task(engine, ctx):
            return (yield from engine.deep_copy(buf, "b", ctx))

        out = run_task(scen, "a", task)
        assert isinstance(out, CharArray)
        assert bytes(out.data) == payload
        assert out is not buf


def linked_list(engine, n: int):
    head = None
    for i in range(n):
        node = make_node(engine, i)
        engine.deref(node).fields[0] = head
        head = node
    return head


class TestTooDeepToCross:
    # the wire encoding nests values at most 200 levels deep

    def test_deep_copy_fails_the_task_and_the_scenario_runs_on(self, graph_image):
        scen = graph_scenario(graph_image)
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        deep, short = linked_list(ea, 250), linked_list(ea, 3)

        def copy(value):
            def task(engine, ctx):
                return (yield from engine.deep_copy(value, "b", ctx))
            return task

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", copy(deep))
        assert exc.value.code == "NonCopyableValue"
        copy_ref = run_task(scen, "a", copy(short))
        assert graphs_isomorphic(ea, short, eb, copy_ref)

    def test_too_deep_reply_fails_the_caller(self, graph_image):
        scen = graph_scenario(graph_image)
        eb = scen.hosts["b"].engine
        nested = Array(TAG_OBJECT, [])
        for _ in range(250):
            nested = Array(TAG_ARRAY, [nested])
        holder = make_node(eb, 7)
        eb.deref(holder).fields[3] = nested

        def read(field):
            def task(engine, ctx):
                return (yield from engine.remote_get_field(holder, field, ctx))
            return task

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", read("label"))
        assert "NonCopyableValue" in (exc.value.code, exc.value.remote_code)
        assert run_task(scen, "a", read("tag")) == 7
