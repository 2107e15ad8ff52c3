"""Acceptance criteria, one test per criterion.

Each test enforces its criterion at the stated tolerance; a PASS/FAIL line
per criterion is printed by the report hook in conftest. Tolerances are
fixed here: wall-clock bounds where stated, exact byte comparison for data
transfer, exact counting for frames and invocations.
"""

import hashlib
import itertools
import os
import random
import subprocess
import time

import pytest

from minihello.cli import het
from minihello.engine.engine import TaskCtx
from minihello.engine.marshal import to_wire
from minihello.errors import EngineError
from minihello.runpack import load_file
from minihello.runtime import Future
from minihello.security import ALL_PRIVS, ADMIN, CREATE, CredentialSet, EXEC, READ, WRITE, check_access
from minihello.simharness import Scenario, parse_topology_text, run_scenario
from minihello.stdlib import host_ref
from minihello.values import Array, CharArray, ClassKey, ObjectRef

from conftest import (SAMPLES, WireHeap, graphs_isomorphic, line_scenario,
                      mesh_scenario, reachable_nodes, run_task)
from test_deepcopy import NODE, build_random_graph

TEN_MIB_CODE = "import sys; sys.stdout.buffer.write(bytes(range(256))*40960)"
TEN_MIB_ARGV = ["python3", "-c", f'"{TEN_MIB_CODE}"']


@pytest.fixture(scope="module")
def rpks(tmp_path_factory):
    """Criterion inputs are compiled through the het CLI, as shipped."""
    out = tmp_path_factory.mktemp("rpks")
    hello = out / "hello_world.rpk"
    shell = out / "shell_world.rpk"
    assert het.main([os.path.join(SAMPLES, "hello_world"), "-o", str(hello)]) == 0
    assert het.main([os.path.join(SAMPLES, "shell_world"), "-o", str(shell)]) == 0
    return {"hello": str(hello), "shell": str(shell)}


def broadcast_topology(rpk: str) -> str:
    return f"""
host a primary
host b
host c
link a b
link a c
link b c
run a {rpk}
"""


def run_shell_scenario(shell_rpk: str, bufcnt: str, seed: int = 7):
    topo = parse_topology_text(f"""
host a primary
host b
link a b
run a {shell_rpk} b {bufcnt} {' '.join(TEN_MIB_ARGV)}
""")
    return run_scenario(topo, seed=seed)


def expected_ten_mib() -> bytes:
    out = subprocess.run(f"python3 -c \"{TEN_MIB_CODE}\"", shell=True,
                         capture_output=True)
    return out.stdout


class TestCriterion01Broadcast:
    def test_three_host_mesh_broadcast(self, rpks, tmp_path, capsys):
        from minihello.cli import hee
        topo_path = tmp_path / "mesh.topo"
        topo_path.write_text(broadcast_topology(rpks["hello"]))
        started = time.monotonic()
        assert hee.main(["sim", str(topo_path), "--sim-seed", "1"]) == 0
        cli_out = capsys.readouterr().out
        elapsed = time.monotonic() - started
        assert cli_out.count("Hello, world!") == 3  # one greeting per engine
        assert "host a (exit 0)" in cli_out
        # per-host assertions on the same scenario's transcript
        transcript = run_scenario(parse_topology_text(
            broadcast_topology(rpks["hello"])), seed=1)
        assert transcript.exit_codes["a"] == 0
        for host in ("a", "b", "c"):
            stdout = transcript.stdout[host]
            assert stdout.count(b"Hello, world!") == 1  # exactly one greeting
            assert b"a" in stdout  # signed with the originator's name
            assert stdout == b"Hello, world!\na:-)\n"
        assert elapsed < 10.0


class TestCriterion02RemoteShell:
    def test_ten_mib_byte_identical_bufcnt_1_and_4(self, rpks):
        expected = expected_ten_mib()
        assert len(expected) == 10 * 1024 * 1024
        for bufcnt in ("1", "4"):
            started = time.monotonic()
            transcript = run_shell_scenario(rpks["shell"], bufcnt)
            assert transcript.exit_codes["a"] == 0
            assert transcript.stdout["a"] == expected, f"bufcnt={bufcnt}"
            assert transcript.stdout["b"] == b""
            assert time.monotonic() - started < 10.0

    def test_bufcnt_zero_transfers_no_data_back(self, rpks):
        transcript = run_shell_scenario(rpks["shell"], "0")
        assert transcript.exit_codes["a"] == 0
        assert transcript.stdout["a"] == b""
        back = transcript.frames_between("b", "a")
        assert [f for f in back if f[5] == "INVOKE:rcv"] == []
        data_bytes = sum(f[4] for f in back
                         if f[3] in ("INVOKE", "PACK_DATA") and
                         f[5] not in ("CREATE:shell_world.Shell",
                                      "CREATE:standard.queue"))
        assert data_bytes == 0


class TestCriterion03QueueBarrier:
    def test_barrier_sees_all_messages_over_200_schedules(self, counter_image):
        counter_key = ClassKey("qtest", "Counter")
        queue_key = ClassKey("standard", "queue")
        rng = random.Random(33)
        for schedule in range(200):
            seed = rng.getrandbits(32)
            n = rng.randint(1, 50)
            scen = mesh_scenario(["a"], seed=seed)
            scen.hosts["a"].engine.install_image(counter_image)

            def task(engine, ctx, n=n):
                target = yield from engine.create_object(
                    counter_key, ("partition", 0), [], ctx)
                qref = yield from engine.create_object(
                    queue_key, ("partition", 0), [], ctx)
                for _ in range(n):
                    engine.post_message(qref, target, "bump", [], ctx)
                yield from engine.queued_eval(qref, lambda: 1, ctx)
                return engine.deref(target).fields[0]

            got = run_task(scen, "a", task)
            assert got == n, f"schedule {schedule}: {got} != {n}"


def _wire_graph_matches(engine, src, heap, wire, mapping=None) -> bool:
    """Independent walk comparing a live object graph against a wire graph
    decoded into a test heap (the stated local encode/decode oracle)."""
    if mapping is None:
        mapping = {}
    if isinstance(src, ObjectRef):
        node = heap.record(wire)
        if node is None:
            return False
        key = (src.partition, src.oid)
        if key in mapping:
            return mapping[key] is node
        mapping[key] = node
        record = engine.deref(src)
        if record.cls != node.cls or len(record.fields) != len(node.fields):
            return False
        return all(_wire_graph_matches(engine, f, heap, w, mapping)
                   for f, w in zip(record.fields, node.fields))
    if isinstance(src, CharArray):
        return isinstance(wire, CharArray) and src.data == wire.data
    if isinstance(src, Array):
        return isinstance(wire, Array) and len(src.items) == len(wire.items) \
            and all(_wire_graph_matches(engine, f, heap, w, mapping)
                    for f, w in zip(src.items, wire.items))
    return src == wire


class TestCriterion04DeepCopy:
    def test_hundred_random_graphs_cross_host(self, graph_image):
        rng = random.Random(4)
        done = 0
        for batch in range(10):
            scen = mesh_scenario(["a", "b"], seed=batch)
            ea = scen.hosts["a"].engine
            eb = scen.hosts["b"].engine
            ea.install_image(graph_image)
            eb.install_image(graph_image)
            for _ in range(10):
                root = build_random_graph(ea, rng, rng.randint(1, 20))

                def task(engine, ctx, root=root):
                    return (yield from engine.deep_copy(root, "b", ctx))

                copy_ref = run_task(scen, "a", task)
                # cross-host copy is isomorphic with identical node count
                assert graphs_isomorphic(ea, root, eb, copy_ref)
                assert len(reachable_nodes(eb, copy_ref)) == \
                    len(reachable_nodes(ea, root))
                # stated oracle: local encode/decode with identity map
                heap = WireHeap()
                decoded = heap.decode(to_wire(ea, root, True))
                assert _wire_graph_matches(ea, root, heap, decoded)
                done += 1
        assert done == 100


class TestCriterion05OnDemandTransfer:
    def test_remote_create_fetches_exactly_once(self, rpks):
        shell_image = load_file(rpks["shell"])
        scen = mesh_scenario(["a", "b"], seed=2)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(shell_image)
        assert eb.packstore.resolve("shell_world") is None

        def task(engine, ctx):
            ref = yield from engine.create_object(
                ClassKey("shell_world", "Shell"), ("remote", "b", None), [], ctx)
            return ref

        ref = run_task(scen, "a", task)
        assert ref.host == "b" and ref.partition == 0  # execution succeeded
        fetched = eb.packstore.resolve("shell_world")
        assert fetched is not None
        assert fetched.content_hash == shell_image.content_hash
        t = scen.transcript()
        assert len([f for f in t.frames if f[3] == "FETCH_PACK"]) == 1
        assert len({f[1] for f in t.frames if f[3] == "PACK_DATA"}) == 1


class TestCriterion06MultiHopRouting:
    def test_call_through_middle_then_host_unreachable_after_kill(self):
        scen = line_scenario(["a", "b", "c"], seed=3, call_timeout_ms=30_000)

        def call(engine, ctx):
            out = yield from engine.invoke(host_ref("c"), "name", [], ctx)
            return out.to_str()

        assert run_task(scen, "a", call) == "c"
        t = scen.transcript()
        hops = [(f[1], f[2]) for f in t.frames
                if f[3] == "ROUTE" and "INVOKE:name" in f[5]]
        assert hops == [("a", "b"), ("b", "c")]  # exactly one intermediate hop

        scen.kill_host("b")
        engine = scen.hosts["a"].engine
        fut = scen.submit_task(
            "a", lambda: call(engine, TaskCtx(engine.new_queue(label="x"))))
        issued_at = scen.core.now
        scen.core.run_until_quiet()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "HostUnreachable"
        assert scen.core.now - issued_at <= 30_000


class TestCriterion07GroupTraversal:
    def test_fifty_random_topologies_exactly_once(self):
        rng = random.Random(55)
        for trial in range(50):
            n = rng.randint(1, 8)
            names = [f"h{i}" for i in range(n)]
            scen = Scenario(seed=trial)
            for name in names:
                scen.add_host(name)
            edges = set()
            for i in range(1, n):
                edges.add((names[rng.randrange(i)], names[i]))
            for _ in range(rng.randrange(0, n + 1)):  # extra edges: cycles
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    edges.add((names[min(i, j)], names[max(i, j)]))
            for a, b in sorted(edges):
                scen.link(a, b)
            scen.start()
            origin = names[rng.randrange(n)]
            engine = scen.hosts[origin].engine

            def task(engine=engine):
                ctx = TaskCtx(engine.new_queue(label="it"))
                yield from engine.iterate(engine.hosts_root_ref(), "print",
                                          [CharArray(b"V")], ctx)

            fut = scen.submit_task(origin, task)
            scen.run()
            fut.result()
            for name in names:
                got = bytes(scen.hosts[name].engine.stdout_bytes)
                assert got == b"V", (trial, name, got)  # no dupes, no misses


class TestCriterion08Events:
    def test_partial_fills_pending_then_single_fire(self, counter_image):
        from conftest import compile_text
        image = compile_text("""
package acc8;
external class E {
    external public E() {}
    public int fires;
    public message void go(int a, int b, int c) { fires = fires + 1; }
    static public void main() { }
}
""")
        scen = mesh_scenario(["a"], seed=0)
        engine = scen.hosts["a"].engine
        engine.install_image(image)

        def task(engine, ctx):
            target = yield from engine.create_object(
                ClassKey("acc8", "E"), ("partition", 0), [], ctx)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            eid = yield from engine.create_event(qref, target, "go", 3, ctx)
            s1 = yield from engine.fill_event(eid, 0, 1, ctx)
            s2 = yield from engine.fill_event(eid, 1, 2, ctx)
            s3 = yield from engine.fill_event(eid, 2, 3, ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            return s1, s2, s3, engine.deref(target).fields[0]

        s1, s2, s3, fires = run_task(scen, "a", task)
        assert (s1, s2, s3) == ("pending", "pending", "fired")
        assert fires == 1

    def test_exhaustive_interleavings_of_final_two_fills(self):
        from conftest import compile_text
        src = """
package acc8b;
external class E {
    external public E() {}
    public int fires;
    public message void go(int a, int b, int c) { fires = fires + 1; }
    static public void main() { }
}
"""
        for order, seed in itertools.product([(1, 2), (2, 1)], range(3)):
            image = compile_text(src)
            scen = mesh_scenario(["a"], seed=seed)
            engine = scen.hosts["a"].engine
            engine.install_image(image)

            def setup(engine, ctx):
                target = yield from engine.create_object(
                    ClassKey("acc8b", "E"), ("partition", 0), [], ctx)
                qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                           [engine.service_queue.qid])
                eid = yield from engine.create_event(qref, target, "go", 3, ctx)
                yield from engine.fill_event(eid, 0, 0, ctx)
                return target, eid

            target, eid = run_task(scen, "a", setup)
            outcomes = []

            def filler(slot):
                def task():
                    ctx = TaskCtx(engine.new_queue(label=f"q{slot}"))
                    status = yield from engine.fill_event(eid, slot, slot, ctx)
                    outcomes.append(status)
                return task

            for slot in order:
                scen.submit_task("a", filler(slot))
            scen.run()
            assert sorted(outcomes) == ["fired", "pending"], (order, seed)
            assert engine.deref(target).fields[0] == 1, (order, seed)


class TestCriterion09Security:
    def test_lockdown_then_grant(self, counter_image):
        caller_sid = bytes(range(16, 32))
        scen = Scenario(seed=0)
        scen.add_host("a")
        scen.add_host("b", lockdown=True)
        scen.link("a", "b")
        scen.start()
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        creds = CredentialSet({caller_sid: ALL_PRIVS})
        key = ClassKey("qtest", "Counter")

        def create_task():
            queue = ea.new_queue(creds=creds, label="caller")

            def gen(engine, ctx):
                ref = yield from engine.create_object(key, ("remote", "b", None),
                                                      [], ctx)
                value = yield from engine.invoke(ref, "read", [], ctx)
                return ref, value
            return gen(ea, TaskCtx(queue))

        fut = scen.submit_task("a", create_task)
        scen.run()
        with pytest.raises(EngineError) as exc:
            fut.result()
        assert exc.value.code == "AccessDenied"

        eb.host_map.grant(caller_sid, CREATE | EXEC)
        fut = scen.submit_task("a", create_task)
        scen.run()
        ref, value = fut.result()
        assert ref.host == "b" and value == 0

    def test_truth_table_matches_specification(self):
        sid = bytes(range(16))
        queue = CredentialSet({sid: 0})
        for host_mask, acl_mask, op in itertools.product(
                range(ALL_PRIVS + 1), list(range(ALL_PRIVS + 1)) + [None],
                (READ, WRITE, CREATE, EXEC)):
            host_map = CredentialSet({sid: host_mask})
            acl = None if acl_mask is None else CredentialSet({sid: acl_mask})
            host_ok = bool(host_mask & (op | ADMIN))
            acl_ok = acl_mask is None or bool(acl_mask & (op | ADMIN))
            decision = check_access(queue, acl, host_map, op)
            assert decision.allowed == (host_ok and acl_ok)
            if not decision.allowed:
                assert decision.denied_layer == ("host" if not host_ok else "object")

    def test_checks_audited_once_per_remote_request(self, counter_image):
        scen = mesh_scenario(["a", "b"], seed=1)
        ea = scen.hosts["a"].engine
        eb = scen.hosts["b"].engine
        ea.install_image(counter_image)
        key = ClassKey("qtest", "Counter")

        def task(engine, ctx):
            ref = yield from engine.create_object(key, ("remote", "b", None),
                                                  [], ctx)
            yield from engine.invoke(ref, "read", [], ctx)
            yield from engine.remote_get_field(ref, "n", ctx)
            yield from engine.remote_set_field(ref, "n", 5, ctx)
            return ref

        before = eb.audit_count
        run_task(scen, "a", task)
        assert eb.audit_count - before == 4  # create, invoke, read, write


# SHA-256 of the two transcripts below; a change to wire bytes, routing or
# scheduling order shows here
BROADCAST_77_SHA256 = "95929c41720363a490cff581581859c596fa9daeda5970b71af7b11d7f6c891f"
SHELL_11_SHA256 = "cfe4d3c09e786d62c9ef37c9584fafca937336d0e495d32e4c35c53b41bace77"


class TestCriterion10DeterminismAndTransport:
    def test_sim_transcripts_byte_identical(self, rpks):
        topo1 = parse_topology_text(broadcast_topology(rpks["hello"]))
        r1 = run_scenario(topo1, seed=77).to_bytes()
        r2 = run_scenario(topo1, seed=77).to_bytes()
        assert r1 == r2
        assert hashlib.sha256(r1).hexdigest() == BROADCAST_77_SHA256
        s1 = run_shell_scenario(rpks["shell"], "4", seed=11).to_bytes()
        s2 = run_shell_scenario(rpks["shell"], "4", seed=11).to_bytes()
        assert s1 == s2
        assert hashlib.sha256(s1).hexdigest() == SHELL_11_SHA256

    def test_same_assertions_on_tcp_loopback(self, rpks):
        from test_tcp import connect, make_node, stdout_of

        hello_image = load_file(rpks["hello"])
        nodes = [make_node(n) for n in ("a", "b", "c")]
        try:
            connect(nodes[1], nodes[0])
            connect(nodes[2], nodes[0])
            connect(nodes[2], nodes[1])
            assert nodes[0].run_main(hello_image, []) == 0
            for n in nodes:
                got = stdout_of(n)
                assert got.count(b"Hello, world!") == 1
                assert got == b"Hello, world!\na:-)\n"
        finally:
            for n in nodes:
                n.shutdown()

        shell_image = load_file(rpks["shell"])
        expected = expected_ten_mib()
        a = make_node("a")
        b = make_node("b")
        try:
            connect(a, b)
            a.call(lambda: a.engine.install_image(shell_image))
            started = time.monotonic()
            code = a.run_main(shell_image, ["b", "4"] + TEN_MIB_ARGV)
            assert code == 0
            assert stdout_of(a) == expected
            assert time.monotonic() - started < 10.0
        finally:
            a.shutdown()
            b.shutdown()
