"""Network behavior on the simulated transport: membership, gossip, routing,
fault handling, and on-demand pack transfer."""

import random

import pytest

from minihello.bio import STR, Writer
from minihello.engine.engine import TaskCtx
from minihello.errors import EngineError
from minihello.net import frames
from minihello.engine.marshal import to_wire
from minihello.net.wirevalues import encode_value
from minihello.security import ANONYMOUS_SID
from minihello.stdlib import host_ref, hosts_node_ref
from minihello.values import (Array, Char, CharArray, ClassKey, TAG_ARRAY,
                             TAG_INT, TAG_OBJECT)

from conftest import (compile_text, graphs_isomorphic, line_scenario,
                      mesh_scenario, run_task)
from minihello.simharness import Scenario


class TestHandshake:
    def test_two_hosts_become_neighbors(self):
        scen = line_scenario(["a", "b"])
        assert scen.hosts["a"].router.neighbor_names() == ["b"]
        assert scen.hosts["b"].router.neighbor_names() == ["a"]

    def test_name_collision_refused(self):
        scen = Scenario(seed=0)
        scen.add_host("a")
        scen.add_host("a2")
        # a2 lies about its name by renaming before the link comes up
        scen.hosts["a2"].router.host_name = "a"
        scen.network.add_link("a2", "a")
        fut = None

        def dial():
            nonlocal fut
            fut = scen.hosts["a2"].router.connect("a")

        scen.core.schedule(0, dial, "a2")
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "NameCollision"
        assert scen.hosts["a"].router.neighbor_names() == []

    def test_crossing_dials_keep_the_smaller_names_connection(self):
        scen = Scenario(seed=0)
        scen.add_host("a")
        scen.add_host("b")
        scen.network.add_link("a", "b")
        futs = {}

        def dial(src, dst):
            futs[src] = scen.hosts[src].router.connect(dst)

        # both HELLOs are on the wire before either host answers one
        scen.core.schedule(0, lambda: dial("a", "b"), "a")
        scen.core.schedule(0, lambda: dial("b", "a"), "b")
        scen.core.run_until_quiet()
        assert futs["a"].result() == "b"
        with pytest.raises(EngineError) as exc:
            futs["b"].result()
        assert exc.value.code == "ConnectRefused"
        a, b = scen.hosts["a"].router, scen.hosts["b"].router
        assert a.neighbor_names() == ["b"] and b.neighbor_names() == ["a"]
        # one connection remains, and it is the one a dialed
        assert a.neighbors["b"].peer is b.neighbors["a"]

    def test_a_hello_from_a_connected_neighbor_is_refused(self):
        scen = line_scenario(["a", "b"])
        a, b = scen.hosts["a"].router, scen.hosts["b"].router
        kept = a.neighbors["b"]
        fut = None

        def dial():
            nonlocal fut
            fut = b.connect("a")

        scen.core.schedule(0, dial, "b")
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "ConnectRefused"
        assert a.neighbors["b"] is kept
        assert b.neighbor_names() == ["a"]

    def test_dial_without_link_refused(self):
        scen = Scenario(seed=0)
        scen.add_host("a")
        scen.add_host("b")
        with pytest.raises(EngineError) as exc:
            scen.network.dial("a", "b")
        assert exc.value.code == "ConnectRefused"

    def test_handshake_events_recorded(self):
        scen = line_scenario(["a", "b"])
        kinds = [k for _, k, _ in scen.host_events["a"]]
        assert "neighbor-added" in kinds


class TestGossip:
    def test_line_learns_far_host_via_middle(self):
        scen = line_scenario(["a", "b", "c"])
        table = scen.hosts["a"].router.path_table
        assert "c" in table
        hops, learned_from = table["c"]
        assert list(hops) == ["b"]
        assert learned_from == "b"

    def test_convergence_on_random_connected_topologies(self):
        rng = random.Random(4242)
        for trial in range(10):
            n = rng.randrange(3, 9)
            names = [f"h{i}" for i in range(n)]
            scen = Scenario(seed=trial)
            for name in names:
                scen.add_host(name)
            # random spanning tree plus extra edges (cycles allowed)
            edges = set()
            for i in range(1, n):
                j = rng.randrange(i)
                edges.add((names[j], names[i]))
            for _ in range(n // 2):
                i, j = rng.sample(range(n), 2)
                edge = (names[min(i, j)], names[max(i, j)])
                edges.add(edge)
            for a, b in sorted(edges):
                scen.link(a, b)
            scen.start()
            for name in names:
                router = scen.hosts[name].router
                covered = set(router.neighbor_names()) | set(router.path_table)
                assert covered == set(names) - {name}, (trial, name)

    def test_paths_never_contain_endpoints(self):
        scen = line_scenario(["a", "b", "c", "d"])
        for name, host in scen.hosts.items():
            for dest, (hops, _) in host.router.path_table.items():
                assert name not in hops
                assert dest not in hops


class TestRouting:
    def test_neighbor_delivery_no_route_wrapper(self, counter_image):
        scen = mesh_scenario(["a", "b"], seed=0)
        scen.hosts["a"].engine.install_image(counter_image)
        scen.hosts["b"].engine.install_image(counter_image)

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("remote", "b", None), [], ctx)
            return ref

        run_task(scen, "a", task)
        t = scen.transcript()
        assert all(f[3] != "ROUTE" for f in t.frames)

    def test_line_exactly_one_intermediate_hop(self):
        scen = line_scenario(["a", "b", "c"])

        def task(engine, ctx):
            result = yield from engine.invoke(host_ref("c"), "name", [], ctx)
            return result.to_str()

        assert run_task(scen, "a", task) == "c"
        t = scen.transcript()
        request_routes = [f for f in t.frames
                          if f[3] == "ROUTE" and "INVOKE:name" in f[5]]
        # a->b and b->c: one intermediate hop, two link traversals
        assert [(f[1], f[2]) for f in request_routes] == [("a", "b"), ("b", "c")]

    def test_no_path_is_host_unreachable(self):
        scen = Scenario(seed=0)
        scen.add_host("a")
        scen.add_host("b")
        scen.start()

        def task(engine, ctx):
            yield from engine.invoke(host_ref("b"), "name", [], ctx)

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "HostUnreachable"

    def test_ttl_bounds_hop_count(self):
        scen = line_scenario([f"n{i}" for i in range(8)])

        def task(engine, ctx):
            result = yield from engine.invoke(host_ref("n7"), "name", [], ctx)
            return result.to_str()

        assert run_task(scen, "n0", task) == "n7"
        t = scen.transcript()
        hops = [f for f in t.frames if f[3] == "ROUTE" and "INVOKE:name" in f[5]]
        assert len(hops) <= 8

    def test_hello_lookup_covers_neighborhood_and_paths(self):
        scen = line_scenario(["a", "b", "c"])
        engine = scen.hosts["a"].engine
        assert engine.hello_lookup("b") is not None
        assert engine.hello_lookup("c") is not None  # via path table
        assert engine.hello_lookup("zz") is None
        assert engine.hello_lookup("a") == engine.this_host_ref()


class TestFaults:
    def test_drop_link_mid_call_times_out(self, counter_image):
        scen = mesh_scenario(["a", "b"], seed=1, call_timeout_ms=3_000)
        eb = scen.hosts["b"].engine
        slow = eb.new_queue(label="slow")
        qref = eb.alloc_object(ClassKey("standard", "queue"), 0, [slow.qid])

        def stall():
            from minihello.runtime import Future
            fut = Future()  # never resolves; the barrier waits behind it
            yield fut

        from minihello.runtime import Request
        eb.scheduler.submit(slow, Request(stall))

        def task(engine, ctx):
            yield from engine.queued_eval(qref, lambda: 1, ctx)

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.at(scen.core.now + 5, lambda: scen.drop_link("a", "b"))
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "Timeout"
        assert scen.core.now <= 3_000 + 100

    def test_kill_intermediate_fails_routed_call_fast(self):
        scen = line_scenario(["a", "b", "c"], seed=2, call_timeout_ms=60_000)
        ec = scen.hosts["c"].engine
        slow = ec.new_queue(label="slow")
        qref = ec.alloc_object(ClassKey("standard", "queue"), 0, [slow.qid])

        def stall():
            from minihello.runtime import Future
            yield Future()

        from minihello.runtime import Request
        ec.scheduler.submit(slow, Request(stall))

        def task(engine, ctx):
            yield from engine.queued_eval(qref, lambda: 1, ctx)

        fut = scen.submit_task(
            "a", lambda: task(scen.hosts["a"].engine,
                              TaskCtx(scen.hosts["a"].engine.service_queue)))
        scen.at(scen.core.now + 5, lambda: scen.kill_host("b"))
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "HostUnreachable"
        assert scen.core.now < 60_000  # well before the call timeout

    def test_new_call_after_eviction_unreachable(self):
        scen = line_scenario(["a", "b", "c"], seed=3)
        scen.kill_host("b")
        # let liveness detection evict b, then try a fresh call a->c
        holder = {}

        def later():
            def task(engine, ctx):
                yield from engine.invoke(host_ref("c"), "name", [], ctx)
            engine = scen.hosts["a"].engine
            holder["fut"] = scen.submit_task(
                "a", lambda: task(engine, TaskCtx(engine.service_queue)))

        scen.at(scen.core.now + 10_000, later)
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            holder["fut"].result()
        assert exc.value.code == "HostUnreachable"
        evictions = [k for _, k, _ in scen.host_events["a"]
                     if k == "neighbor-removed"]
        assert evictions

    def test_delayed_link_beyond_ping_tolerance_evicts(self):
        scen = line_scenario(["a", "b"], seed=4)
        scen.delay_link("a", "b", 30_000)
        marker = {}

        def probe():
            marker["neighbors"] = scen.hosts["a"].router.neighbor_names()

        scen.at(scen.core.now + 20_000, probe)
        scen.core.run_until_quiet()
        assert marker["neighbors"] == []
        kinds = [k for _, k, _ in scen.host_events["a"]]
        assert "neighbor-removed" in kinds


QUEUE = ClassKey("standard", "queue")
COUNTER = ClassKey("qtest", "Counter")
NODE = ClassKey("graphs", "Node")


def remote_queue(engine):
    """A reference to a new queue on `engine`."""
    queue = engine.new_queue(label="target")
    return engine.alloc_object(QUEUE, 0, [queue.qid])


def frames_from(scen, host, kind) -> int:
    return sum(1 for _t, src, _dst, k, _n, _i in scen.network.frame_log
               if src == host and k == kind)


class TestServedRequests:
    """How a host answers an INVOKE, CREATE, BARRIER or POST it cannot
    serve: a refused INVOKE, CREATE or BARRIER is answered with an ERROR,
    and a refused POST is logged."""

    def test_two_barriers_in_a_row_on_an_open_remote_queue(self):
        scen = mesh_scenario(["a", "b"], seed=7)
        qref = remote_queue(scen.hosts["b"].engine)

        def task(engine, ctx):
            first = yield from engine.queued_eval(qref, lambda: 5, ctx)
            second = yield from engine.queued_eval(qref, lambda: 7, ctx)
            return first + second

        assert run_task(scen, "a", task) == 12

    def test_an_unknown_invoke_op_is_logged_and_unanswered(self):
        scen = mesh_scenario(["a", "b"], seed=8)
        eb = scen.hosts["b"].engine
        w = Writer()
        w.u8(9)  # no sub-operation of INVOKE
        w.wstr("a")
        w.u16(0)  # no credentials
        start = len(scen.network.frame_log)

        def task(engine, ctx):
            engine.send_oneway("b", frames.INVOKE, w.buf)
            return 0

        assert run_task(scen, "a", task) == 0
        assert eb.error_log == [("BadFrame", "unknown INVOKE op 9")]
        assert [k for _t, src, _dst, k, _n, _i in scen.network.frame_log[start:]
                if src == "b" and k not in ("PING", "PONG", "GOSSIP")] == []

    def test_a_remote_fill_of_an_unknown_event_fails_unknown_event(self):
        scen = mesh_scenario(["a", "b"], seed=10)
        eb = scen.hosts["b"].engine

        def task(engine, ctx):
            yield from engine.fill_event(("b", 9999), 0, 1, ctx)

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", task)
        assert exc.value.code == "UnknownEvent"
        assert frames_from(scen, "b", "ERROR") == 1
        assert eb.events == {}

    @pytest.mark.parametrize("op", ["invoke", "create", "barrier", "post",
                                    "event"])
    def test_access_denied(self, counter_image, op):
        scen = Scenario(seed=9)
        scen.add_host("a")
        scen.add_host("b", lockdown=True)
        scen.link("a", "b")
        scen.start()
        scen.hosts["a"].engine.install_image(counter_image)
        eb = scen.hosts["b"].engine
        eb.install_image(counter_image)
        target = eb.alloc_object(COUNTER, 0, [0])
        qref = remote_queue(eb)

        def task(engine, ctx):
            if op == "invoke":
                yield from engine.invoke(target, "read", [], ctx)
            elif op == "create":
                yield from engine.create_object(COUNTER, ("remote", "b", None),
                                                [], ctx)
            elif op == "barrier":
                yield from engine.queued_eval(qref, lambda: 1, ctx)
            elif op == "event":
                yield from engine.create_event(qref, target, "poke", 1, ctx)
            else:
                engine.post_message(qref, target, "poke", [], ctx)
            return "sent"

        if op == "post":
            assert run_task(scen, "a", task) == "sent"
            assert eb.error_log == [("AccessDenied", "remote post poke dropped")]
            assert frames_from(scen, "b", "ERROR") == 0
        else:
            with pytest.raises(EngineError) as exc:
                run_task(scen, "a", task)
            assert exc.value.code == "AccessDenied"
            assert eb.error_log == []
            assert frames_from(scen, "b", "ERROR") == 1
        assert eb.deref(target).fields == [0]


class TestPackFetch:
    def test_remote_create_fetches_once_then_executes(self, counter_image):
        scen = mesh_scenario(["a", "b"], seed=0)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        assert eb.packstore.resolve("qtest") is None

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("remote", "b", None), [], ctx)
            value = yield from engine.invoke(ref, "read", [], ctx)
            return ref, value

        ref, value = run_task(scen, "a", task)
        assert value == 0
        fetched = eb.packstore.resolve("qtest")
        assert fetched is not None
        assert fetched.content_hash == counter_image.content_hash
        t = scen.transcript()
        assert len([f for f in t.frames if f[3] == "FETCH_PACK"]) == 1

    def test_concurrent_demands_single_transfer(self, counter_image):
        """Four remote creates sent at once make one FETCH_PACK. b runs them
        one after another on its service queue, so only the first fetches
        and the rest find the class installed;
        `test_two_tasks_on_one_host_share_one_fetch` covers a demand made
        while a fetch is in flight."""
        scen = mesh_scenario(["a", "b"], seed=0)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        futs = []
        for i in range(4):
            def task(i=i):
                def gen(engine, ctx):
                    ref = yield from engine.create_object(
                        ClassKey("qtest", "Counter"), ("remote", "b", None),
                        [], ctx)
                    return ref
                return gen(ea, TaskCtx(ea.new_queue(label=f"c{i}")))
            futs.append(scen.submit_task("a", task))
        scen.run()
        for fut in futs:
            fut.result()
        assert eb.fetch_frames_sent == 1
        t = scen.transcript()
        assert len([f for f in t.frames if f[3] == "FETCH_PACK"]) == 1

    def test_two_tasks_on_one_host_share_one_fetch(self, counter_image):
        # each task runs on a queue of its own, so the second demands the
        # package while the first one's fetch is still in flight
        scen = mesh_scenario(["a", "b"], seed=0)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        key = ClassKey("qtest", "Counter")

        def task():
            ctx = TaskCtx(eb.new_queue(), origin="a")
            return eb.create_object(key, ("heap",), [], ctx)

        futs = [scen.submit_task("b", task) for _ in range(2)]
        scen.run()
        refs = [fut.result() for fut in futs]
        assert [eb.deref(ref).cls for ref in refs] == [key, key]
        assert refs[0].oid != refs[1].oid
        assert eb.fetch_frames_sent == 1
        t = scen.transcript()
        assert len([f for f in t.frames if f[3] == "FETCH_PACK"]) == 1

    def test_fetch_unknown_package_not_found(self):
        scen = mesh_scenario(["a", "b"], seed=0)
        ea = scen.hosts["a"].engine

        def task():
            return ea.fetch_pack("b", "ghost")

        holder = {}

        def kick():
            holder["fut"] = task()

        scen.core.schedule(0, kick, "a")
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            holder["fut"].result()
        assert exc.value.code == "PackNotFoundAtOrigin"

    def test_large_image_streams_in_chunks(self):
        # pad a package over the 64 KiB chunk size with many string constants
        lines = [f'        s = "{"x" * 60}{i:06d}";' for i in range(1400)]
        src = ("package big;\nexternal class Big {\n"
               "    external public Big() {}\n"
               "    public external void f() {\n        char[] s;\n"
               + "\n".join(lines) + "\n    }\n"
               "    static public void main() { }\n}\n")
        image = compile_text(src)
        from minihello.runpack import serialize
        assert len(serialize(image)) > 64 * 1024
        scen = mesh_scenario(["a", "b"], seed=0)
        scen.hosts["a"].engine.install_image(image)

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("big", "Big"), ("remote", "b", None), [], ctx)
            return ref

        ref = run_task(scen, "a", task)
        assert ref.host == "b"
        eb = scen.hosts["b"].engine
        assert eb.packstore.resolve("big").content_hash == image.content_hash
        t = scen.transcript()
        pack_frames = [f for f in t.frames if f[3] == "PACK_DATA"]
        assert len(pack_frames) >= 2

    def test_a_copied_argument_of_a_class_the_callee_lacks(self, graph_image):
        # only a has the package: b loads it from a before `$echo` runs
        scen = mesh_scenario(["a", "b"], seed=0)
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        ea.install_image(graph_image)
        one = ea.alloc_object(NODE, None,
                              [None, None, 1, CharArray(b"one"), None])
        two = ea.alloc_object(NODE, None,
                              [one, one, 2, CharArray(b"two"), None])
        ea.deref(one).fields[0] = two
        copy_ref = run_task(scen, "a",
                            lambda e, ctx: e.deep_copy(one, "b", ctx))
        assert copy_ref.host == "b"
        assert eb.fetch_frames_sent == 1
        assert eb.packstore.resolve("graphs") is not None
        assert graphs_isomorphic(ea, one, eb, copy_ref)

    def test_a_copied_reply_of_a_class_the_caller_lacks(self):
        # only b has the package: a loads it from b before the call returns
        image = compile_text("""
package held;
external class Box {
    external public Box() {}
    public int n;
    public external copy Box fresh() { Box b = new Box(); b.n = n + 1; return b; }
}""")
        scen = mesh_scenario(["a", "b"], seed=0)
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        eb.install_image(image)
        box = ClassKey("held", "Box")
        target = eb.alloc_object(box, 0, [41])
        ref = run_task(scen, "a", lambda e, ctx: e.invoke(target, "fresh", [], ctx))
        assert ref.host == "a" and ref.cls == box
        assert ea.deref(ref).fields == [42]
        assert ea.fetch_frames_sent == 1
        assert box in ea.classes


class TestRoutingEdges:
    def test_ttl_exhaustion_reports_unreachable(self, monkeypatch):
        import minihello.net.router as router_mod
        monkeypatch.setattr(router_mod, "ROUTE_TTL", 1)
        scen = line_scenario(["a", "b", "c"])

        def task(engine, ctx):
            yield from engine.invoke(host_ref("c"), "name", [], ctx)

        engine = scen.hosts["a"].engine
        fut = scen.submit_task(
            "a", lambda: task(engine, TaskCtx(engine.service_queue)))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "HostUnreachable"

    def test_name_of_downed_host_unreachable(self):
        scen = line_scenario(["a", "b"], seed=6)
        scen.kill_host("b")
        holder = {}

        def later():
            def task(engine, ctx):
                yield from engine.invoke(host_ref("b"), "name", [], ctx)
            engine = scen.hosts["a"].engine
            holder["fut"] = scen.submit_task(
                "a", lambda: task(engine, TaskCtx(engine.service_queue)))

        scen.at(scen.core.now + 10_000, later)  # after liveness eviction
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            holder["fut"].result()
        assert exc.value.code == "HostUnreachable"

    def test_unknown_entities_rejected_by_fault_injection(self):
        scen = line_scenario(["a", "b"])
        with pytest.raises(EngineError) as exc:
            scen.drop_link("a", "zz")
        assert exc.value.code == "UnknownEntity"
        with pytest.raises(EngineError) as exc:
            scen.kill_host("zz")
        assert exc.value.code == "UnknownEntity"

    def test_name_resolved_through_lookup_round_trips(self):
        scen = line_scenario(["a", "b"])

        def task(engine, ctx):
            ref = engine.hello_lookup("b")
            out = yield from engine.invoke(ref, "name", [], ctx)
            return out.to_str()

        assert run_task(scen, "a", task) == "b"


class TestFetchIntegrity:
    def test_corrupted_transfer_rejected(self, counter_image):
        # flip a byte of the pack stream in flight: the receiver must
        # refuse the image rather than execute it
        scen = mesh_scenario(["a", "b"], seed=0)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)

        original_pump = scen.network._pump

        def corrupting_pump(conn, link):
            if conn.outbox:
                data = conn.outbox[0]
                from minihello.net.frames import decode_frame_bytes
                try:
                    frame = decode_frame_bytes(data)
                except Exception:
                    frame = None
                if frame is not None and frame.kind_name == "PACK_DATA" \
                        and len(frame.payload) > 40:
                    mutated = bytearray(data)
                    mutated[-10] ^= 0xFF
                    conn.outbox[0] = bytes(mutated)
            original_pump(conn, link)

        scen.network._pump = corrupting_pump

        def task(engine, ctx):
            from minihello.values import ClassKey
            ref = yield from engine.create_object(
                ClassKey("qtest", "Counter"), ("remote", "b", None), [], ctx)
            return ref

        fut = scen.submit_task(
            "a", lambda: task(ea, TaskCtx(ea.new_queue(label="x"))))
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.remote_code in ("HashMismatch", "UnknownClass") or \
            exc.value.code in ("HashMismatch", "UnknownClass", "RemoteException")
        assert eb.packstore.resolve("qtest") is None  # never installed


# A u16-prefixed string whose two bytes are not UTF-8.
BAD_STR = b"\x00\x02\xff\xfe"


class TestMalformedStrings:
    """A payload string that is not UTF-8 makes its frame a BadFrame, like
    any other malformed payload: one error record, and nothing queued or
    sent. Each frame arrives at b on its connection from a."""

    @pytest.mark.parametrize("kind, payload", [
        ("INVOKE", b"\x00" + BAD_STR + b"\x00\x00"),       # the sender
        ("EVENT_POST", b"\x01" + BAD_STR + b"\x00\x00"),   # the sender
        ("FETCH_PACK", BAD_STR),                           # the package
        ("HELLO", BAD_STR + bytes(8)),                     # the host name
        ("GOSSIP", b"\x00\x01" + BAD_STR + b"\x00"),       # a destination
        ("ROUTE", b"\x00\x10" + BAD_STR + b"\x00\x01a\x00\x00"
                  + bytes(4)),                             # the target
    ])
    def test_a_bad_string_is_one_bad_frame(self, kind, payload):
        scen = mesh_scenario(["a", "b"], seed=3)
        b = scen.hosts["b"]
        conn = b.router.neighbors["a"]
        start = len(scen.network.frame_log)
        b.router._on_frame(conn, frames.Frame(getattr(frames, kind), 5,
                                              payload))
        assert [code for code, _ in b.engine.error_log] == ["BadFrame"]
        assert "not UTF-8" in b.engine.error_log[0][1]
        scen.run()
        assert [k for _t, src, _dst, k, _n, _i in scen.network.frame_log[start:]
                if src == "b" and k not in ("PING", "PONG")] == []
        assert b.engine.pending == {}
        assert all(q.idle() for q in b.engine.queues.values())
        assert b.router.neighbor_names() == ["a"]
        assert b.router.path_table == {}


def invoke_payload(target, method: str, args: list) -> bytes:
    """The payload of an anonymous INVOKE from host a, well encoded whatever
    the shapes of its target and arguments."""
    w = Writer()
    frames.REQUEST_HEAD.write(w, frames.RequestHead(
        frames.OP_INVOKE, "a", [ANONYMOUS_SID]))
    w.raw(encode_value(target))
    STR.write(w, method)
    w.u16(len(args))
    for arg in args:
        w.raw(encode_value(arg))
    return w.getvalue()


class TestMalformedSysCalls:
    """A well-encoded INVOKE of a system method whose target or arguments
    have the wrong shape is answered with one ERROR: nothing escapes the
    simulator's run, and every queue of the callee goes idle."""

    @pytest.mark.parametrize("method, target, args, code", [
        ("$getf", None, [CharArray(b"n")], "NullReference"),
        ("$setf", 5, [CharArray(b"n"), 1], "NullReference"),
        ("$traverse", hosts_node_ref("b"),
         [5, Array(TAG_OBJECT, []), CharArray(b"t"), Array(TAG_ARRAY, [])],
         "UnknownMethod"),
        ("$traverse", hosts_node_ref("b"),
         [CharArray(b"m"), Array(TAG_OBJECT, []), CharArray(b"t"),
          Array(TAG_ARRAY, [7])], "UnknownMethod"),
        ("$echo", host_ref("b"), [], "UnknownMethod"),
    ], ids=["getf-null-target", "setf-int-target", "traverse-int-method",
            "traverse-int-visited", "echo-no-argument"])
    def test_answered_with_one_error(self, method, target, args, code):
        scen = mesh_scenario(["a", "b"], seed=3)
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        holder = {}

        def send():
            holder["fut"] = ea.send_request(
                "b", frames.INVOKE, invoke_payload(target, method, args))

        scen.core.schedule(0, send, "a")
        scen.run()
        with pytest.raises(EngineError) as exc:
            holder["fut"].result()
        assert (exc.value.code, exc.value.remote_code) == ("RemoteException", code)
        assert frames_from(scen, "b", "ERROR") == 1
        assert eb.error_log == []
        assert all(q.idle() for q in eb.queues.values())
        assert ea.pending == {}


PROBE = ClassKey("probe", "Box")
PROBE_SRC = """
package probe;
external class Box {
    public int n;
    public char c;
    external public Box(int start) { n = start; }
    public external int get(int x) { return x + n; }
    public external bool isx(char c) { return c == 'x'; }
    public external message void add(int x) { n = n + x; }
    public external int total(int[] xs) {
        if (xs == null)
            return -1;
        return sizear(xs, 1);
    }
}
"""


class TestMalformedUserCalls:
    """A well-encoded request whose arguments do not fit the parameters of
    the user method it calls, or a `$setf` of a value that does not fit the
    field, is refused before any compiled body sees it: an INVOKE, CREATE
    or `$setf` is answered with one ERROR, a POST or a fired event is
    logged, and the object is unchanged."""

    @pytest.fixture()
    def scen(self):
        scen = mesh_scenario(["a", "b"], seed=3)
        image = compile_text(PROBE_SRC)
        for name in ("a", "b"):
            scen.hosts[name].engine.install_image(image)
        return scen

    @pytest.mark.parametrize("method, args", [
        ("get", []),                     # no argument for `int x`
        ("get", [CharArray(b"7")]),      # a char[] for `int x`
        ("isx", [120]),                  # an int for `char c`
        ("total", [Array(TAG_INT, [CharArray(b"7")])]),  # a char[] in an int[]
        ("$setf", [CharArray(b"n"), CharArray(b"7")]),  # a char[] for `int n`
        ("$setf", [CharArray(b"c"), 120]),              # an int for `char c`
    ], ids=["no-argument", "chars-for-int", "int-for-char", "chars-in-ints",
            "setf-chars",
            "setf-int-for-char"])
    def test_an_invoke_is_answered_with_one_error(self, scen, method, args):
        eb = scen.hosts["b"].engine
        target = eb.alloc_object(PROBE, 0, [5, Char(0)])

        def task(engine, ctx):
            return (yield from engine.invoke(target, method, args, ctx))

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", task)
        assert (exc.value.code, exc.value.remote_code) == (
            "RemoteException", "UnknownMethod")
        assert frames_from(scen, "b", "ERROR") == 1
        assert eb.error_log == []
        assert eb.deref(target).fields == [5, Char(0)]
        assert all(q.idle() for q in eb.queues.values())

    def test_arguments_that_fit_are_served(self, scen):
        eb = scen.hosts["b"].engine
        target = eb.alloc_object(PROBE, 0, [5, Char(0)])

        def task(engine, ctx):
            got = yield from engine.invoke(target, "get", [2], ctx)
            hit = yield from engine.invoke(target, "isx", [Char(120)], ctx)
            yield from engine.invoke(target, "$setf",
                                     [CharArray(b"c"), Char(7)], ctx)
            sizes = []
            for xs in (None, Array(TAG_INT, [1, 2])):
                sizes.append((yield from engine.invoke(target, "total", [xs],
                                                       ctx)))
            return got, hit, sizes

        assert run_task(scen, "a", task) == (7, True, [-1, 2])
        assert eb.deref(target).fields == [5, Char(7)]

    def test_a_create_is_answered_with_one_error(self, scen):
        eb = scen.hosts["b"].engine
        before = len(eb.objects)

        def task(engine, ctx):
            return (yield from engine.create_object(
                PROBE, ("remote", "b", None), [CharArray(b"5")], ctx))

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", task)
        assert (exc.value.code, exc.value.remote_code) == (
            "RemoteException", "UnknownMethod")
        assert frames_from(scen, "b", "ERROR") == 1
        assert len(eb.objects) == before

    @pytest.mark.parametrize("via", ["post", "event"])
    def test_a_post_or_an_event_is_logged(self, scen, via):
        eb = scen.hosts["b"].engine
        target = eb.alloc_object(PROBE, 0, [5, Char(0)])
        qref = remote_queue(eb)

        def task(engine, ctx):
            if via == "post":
                engine.post_message(qref, target, "add", [CharArray(b"1")],
                                    ctx)
            else:
                eid = yield from engine.create_event(qref, target, "add", 1,
                                                     ctx)
                yield from engine.fill_event(eid, 0, CharArray(b"1"), ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            return "sent"

        assert run_task(scen, "a", task) == "sent"
        assert [code for code, _ in eb.error_log] == ["RemoteException"]
        assert "'add' takes no such arguments" in eb.error_log[0][1]
        assert eb.deref(target).fields == [5, Char(0)]


HELD = ClassKey("held", "Box")
HELD_SRC = """
package held;
external class Box {
    public int n;
    public int[] xs;
    public Box next;
    external public Box() {}
    public external int twice(copy Box x) { return x.n * 2; }
    public external copy Box itself() { return this; }
}
"""


class TestReceivedObjects:
    """An object received by value keeps the fields its sender wrote. One
    that has not the field count of its class, or a field that is not a
    value of the field's type, is refused once its class is loaded: an
    INVOKE that carries one is answered with one ERROR, and a reply that
    carries one fails the call. So does a reply that is not a value of the
    method's return type. No compiled body sees either."""

    @pytest.fixture()
    def scen(self):
        scen = mesh_scenario(["a", "b"], seed=3)
        image = compile_text(HELD_SRC)
        for name in ("a", "b"):
            scen.hosts[name].engine.install_image(image)
        return scen

    @pytest.mark.parametrize("fields", [
        [CharArray(b"7"), None, None],
        [1, None, None, 2],
        [],
        # an object that fits, whose next has a char[] in its int[]
        [1, Array(TAG_INT, [1]), [Array(TAG_INT, [CharArray(b"7")])]],
    ], ids=["chars-for-int", "extra-field", "no-field", "chars-in-ints-next"])
    def test_an_invoke_carrying_one_is_answered_with_one_error(self, scen,
                                                               fields):
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        target = eb.alloc_object(HELD, 0, [1, None, None])
        bad = ea.alloc_object(HELD, None, fields)
        if len(fields) == 3 and isinstance(fields[2], list):
            fields[2] = ea.alloc_object(HELD, None, [2, *fields[2], bad])
        good = ea.alloc_object(HELD, None, [7, Array(TAG_INT, [1]), None])

        def call(arg):
            return lambda engine, ctx: engine.invoke(target, "twice", [arg],
                                                     ctx)

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", call(bad))
        assert exc.value.code == "UnknownClass"
        assert frames_from(scen, "b", "ERROR") == 1
        assert eb.error_log == []
        assert all(q.idle() for q in eb.queues.values())
        assert run_task(scen, "a", call(good)) == 14

    def test_a_reply_carrying_one_fails_the_call(self, scen):
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        bad = eb.alloc_object(HELD, 0, [CharArray(b"7"), None, None])
        good = eb.alloc_object(HELD, 0, [7, None, None])

        def call(target):
            return lambda engine, ctx: engine.invoke(target, "itself", [], ctx)

        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", call(bad))
        assert exc.value.code == "UnknownClass"
        assert all(q.idle() for q in ea.queues.values())
        copy = run_task(scen, "a", call(good))
        assert copy.host == "a" and ea.deref(copy).fields == [7, None, None]

    def test_a_reply_of_another_type_fails_the_call(self):
        """Host b runs another version of the package, whose `get` returns
        a `char[]` where a's returns an `int`."""
        source = """
package ver;
external class Box {
    public int n;
    external public Box() {}
    public external %s
}
%s"""
        scen = mesh_scenario(["a", "b"], seed=3)
        scen.hosts["a"].engine.install_image(compile_text(source % (
            "int get() { return n; }",
            "class M { static public int use(Box b) { return b.get() + 1; } }")))
        scen.hosts["b"].engine.install_image(compile_text(source % (
            'char[] get() { return "x"; }', "")))
        box = scen.hosts["b"].engine.alloc_object(ClassKey("ver", "Box"), 0,
                                                  [1])
        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", lambda e, ctx: e.invoke_static(
                ClassKey("ver", "M"), "use", [box], ctx))
        assert exc.value.code == "UnknownMethod"
        assert all(q.idle() for q in scen.hosts["a"].engine.queues.values())

    @pytest.mark.parametrize("other", ["", """
external class Other {
    external public Other() {}
}"""], ids=["no-class", "no-method"])
    def test_a_reply_of_a_class_that_differs_here_fails_the_call(self, other):
        """Host b's `Box.other` returns an `Other`, whose `get` returns a
        `char[]`. Host a's version of the package has no `Other`, or one
        with no `get`, so it cannot check `get`'s reply: the call fails."""
        scen = mesh_scenario(["a", "b"], seed=3)
        scen.hosts["a"].engine.install_image(compile_text("""
package ver;
external class Box {
    external public Box() {}
    public external Box other() { return this; }
    public external int get() { return 1; }
}
class M {
    static public int use(Box b) { Box o = b.other(); return o.get() + 1; }
}""" + other))
        scen.hosts["b"].engine.install_image(compile_text("""
package ver;
external class Other {
    external public Other() {}
    public external char[] get() { return "x"; }
}
external class Box {
    external public Box() {}
    public external Other other() { return new Other(); }
}"""))
        box = scen.hosts["b"].engine.alloc_object(ClassKey("ver", "Box"), 0,
                                                  [])
        with pytest.raises(EngineError) as exc:
            run_task(scen, "a", lambda e, ctx: e.invoke_static(
                ClassKey("ver", "M"), "use", [box], ctx))
        assert exc.value.code == ("UnknownMethod" if other else "UnknownClass")
        assert all(q.idle() for q in scen.hosts["a"].engine.queues.values())

    def test_a_reply_of_a_package_not_loaded_here_is_checked(self, scen):
        """Host a has never loaded package `far`: it fetches it from the
        target's host once, to check the reply against `get`'s type."""
        scen.hosts["b"].engine.install_image(compile_text("""
package far;
external class Box {
    public int n;
    external public Box() {}
    public external int get() { return n; }
}"""))
        ea = scen.hosts["a"].engine
        box = scen.hosts["b"].engine.alloc_object(ClassKey("far", "Box"), 0,
                                                  [4])

        def task(engine, ctx):
            first = yield from engine.invoke(box, "get", [], ctx)
            return first + (yield from engine.invoke(box, "get", [], ctx))

        assert run_task(scen, "a", task) == 8
        assert ClassKey("far", "Box") in ea.classes
        assert frames_from(scen, "b", "PACK_DATA") == 1



EV_SRC = """
package slots;
external class Box {
    public int n;
    public Box next;
    external public Box() {}
    public message void take(copy Box b) { n = b.n + 1; }
}
"""
EV_BOX = ClassKey("slots", "Box")


def fill_by_value(engine, event_id, value, ctx):
    """Fill slot 0 of `event_id` as `Engine.fill_event` does, but with the
    object sent by value, as a host that does not keep the protocol may:
    a fill sends an object by reference. Generator."""
    host, eid = event_id
    w = engine._request_head(frames.EV_FILL, ctx)
    frames.EVENT_SLOT.write(w, (eid, 0))
    to_wire(engine, value, True, w.buf)
    return (yield engine.send_request(host, frames.EVENT_POST, w.buf))


class TestReceivedEventSlots:
    """What a fired event's method gets from another host is checked as
    an argument is. A value filled into a slot has the classes it names
    loaded from the host that filled it, and an object that has not the
    fields of its class here is refused, before the method runs; so is a
    field read from an object of the filler's whose value is not of the
    field's type here. A refusal is logged, as any fault of a fired event
    is."""

    def fire(self, value_of, fill):
        """Host a fills a one-slot event of `Box.take` on b with
        `value_of(a's engine)`, through `fill`; returns b's engine and the
        target's record, once the event has run."""
        scen = mesh_scenario(["a", "b"], seed=3)
        ea, eb = scen.hosts["a"].engine, scen.hosts["b"].engine
        for engine in (ea, eb):
            engine.install_image(compile_text(EV_SRC))
        target = eb.alloc_object(EV_BOX, 0, [1, None])
        qref = remote_queue(eb)

        def task(engine, ctx):
            eid = yield from engine.create_event(qref, target, "take", 1, ctx)
            return (yield from fill(engine, eid, value_of(ea), ctx))

        assert run_task(scen, "a", task) in ("fired", 1)
        scen.run()
        return eb, eb.deref(target)

    @pytest.mark.parametrize("fill, code", [
        (lambda e, eid, v, ctx: e.fill_event(eid, 0, v, ctx),
         "RemoteException"),  # the fault of take's read of b.n
        (fill_by_value, "UnknownClass")], ids=["by-reference", "by-value"])
    def test_a_box_whose_int_is_chars_is_refused(self, fill, code):
        eb, target = self.fire(lambda ea: ea.alloc_object(
            EV_BOX, 0, [CharArray(b"7"), None]), fill)
        assert target.fields[0] == 1  # take did not write n
        assert [c for c, _ in eb.error_log] == [code]

    def test_a_class_not_loaded_here_is_loaded_from_the_filler(self):
        far = compile_text("""
package far;
external class Thing { public int k; external public Thing() {} }
""")

        def value_of(ea):
            ea.install_image(far)
            thing = ea.alloc_object(ClassKey("far", "Thing"), None, [3])
            return ea.alloc_object(EV_BOX, None, [7, thing])

        eb, target = self.fire(value_of, fill_by_value)
        assert ClassKey("far", "Thing") in eb.classes
        assert eb.fetch_frames_sent == 1
        assert target.fields[0] == 8
        assert eb.error_log == []
