"""Real-TCP transport tests over loopback: the same behavior the simulator
shows, with wall-clock timing."""

import socket
import subprocess
import threading
import time

import pytest

from minihello.engine.engine import EngineConfig, TaskCtx
from minihello.errors import EngineError
from minihello.net.frames import HELLO, HELLO_ACK, PREAMBLE, Frame
from minihello.net.router import Router, _hello_payload
from minihello.node import Node
from minihello.runtime import Future, Request
from minihello.stdlib import host_ref
from minihello.values import ClassKey

from test_pending_calls import make_engine, reply_42


def make_node(name, **cfg) -> Node:
    config = EngineConfig(name, listen="127.0.0.1:0", **cfg)
    node = Node(config)
    node.engine.capture_stdout = True
    node.engine.stdout_sink = None
    node.start()
    return node


@pytest.fixture
def pair():
    a = make_node("a")
    b = make_node("b")
    a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
    yield a, b
    a.shutdown()
    b.shutdown()


def run_on(node: Node, gen_fn):
    engine = node.engine
    fut = Future()
    queue = engine.new_queue(label="test")

    def factory():
        return gen_fn(engine, TaskCtx(queue))

    engine.submit(queue, Request(factory, fut))
    return fut.wait_blocking()


class TestTcpBasics:
    def test_handshake_populates_neighborhoods(self, pair):
        a, b = pair
        assert a.router.neighbor_names() == ["b"]
        assert b.router.neighbor_names() == ["a"]

    def test_remote_name_call(self, pair):
        a, b = pair

        def task(engine, ctx):
            out = yield from engine.invoke(host_ref("b"), "name", [], ctx)
            return out.to_str()

        assert run_on(a, task) == "b"

    def test_remote_print_lands_on_remote_stdout(self, pair):
        a, b = pair
        from minihello.values import CharArray

        def task(engine, ctx):
            yield from engine.invoke(host_ref("b"), "print",
                                     [CharArray(b"over there\n")], ctx)

        run_on(a, task)
        assert bytes(b.engine.stdout_bytes) == b"over there\n"

    def test_preamble_enforced(self, pair):
        a, b = pair
        sock = socket.create_connection(("127.0.0.1", b.bound_port), timeout=5)
        sock.sendall(b"JUNKJUNKJUNK")
        time.sleep(0.2)
        # the peer must have dropped us without crashing; b still serves a
        assert b.router.neighbor_names() == ["a"]
        sock.close()

    def test_connect_refused_endpoint(self):
        node = make_node("solo")
        try:
            with pytest.raises(EngineError) as exc:
                node.transport.dial("127.0.0.1:1")  # nothing listens there
            assert exc.value.code == "ConnectRefused"
        finally:
            node.shutdown()


class TestTcpBroadcast:
    def test_three_node_mesh_broadcast(self, hello_image):
        nodes = [make_node(n) for n in ("a", "b", "c")]
        try:
            ports = {n.config.host_name: n.bound_port for n in nodes}
            nodes[1].router.connect(f"127.0.0.1:{ports['a']}").wait_blocking()
            nodes[2].router.connect(f"127.0.0.1:{ports['a']}").wait_blocking()
            nodes[2].router.connect(f"127.0.0.1:{ports['b']}").wait_blocking()
            code = nodes[0].run_main(hello_image, [])
            assert code == 0
            deadline = time.monotonic() + 5
            want = b"Hello, world!\na:-)\n"
            while time.monotonic() < deadline:
                if all(bytes(n.engine.stdout_bytes) == want for n in nodes):
                    break
                time.sleep(0.02)
            for n in nodes:
                assert bytes(n.engine.stdout_bytes) == want
        finally:
            for n in nodes:
                n.shutdown()


class TestTcpShell:
    def test_remote_shell_small_command(self, shell_image):
        a = make_node("a")
        b = make_node("b")
        try:
            a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
            a.engine.install_image(shell_image)
            code = a.run_main(shell_image, ["b", "2", "echo", "tcp", "run"])
            assert code == 0
            assert bytes(a.engine.stdout_bytes) == b"tcp run\n"
            assert bytes(b.engine.stdout_bytes) == b""
        finally:
            a.shutdown()
            b.shutdown()

    def test_multi_hop_call_over_tcp(self):
        a = make_node("a")
        b = make_node("b")
        c = make_node("c")
        try:
            a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
            b.router.connect(f"127.0.0.1:{c.bound_port}").wait_blocking()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and "c" not in a.router.path_table:
                time.sleep(0.02)
            assert list(a.router.path_table["c"][0]) == ["b"]

            def task(engine, ctx):
                out = yield from engine.invoke(host_ref("c"), "name", [], ctx)
                return out.to_str()

            assert run_on(a, task) == "c"
        finally:
            for n in (a, b, c):
                n.shutdown()

    def test_timeout_on_dead_peer(self):
        a = make_node("a", call_timeout_ms=800, ping_interval_ms=10_000)
        b = make_node("b")
        try:
            a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
            # b stops responding without closing cleanly
            b.scheduler.shutdown()
            for q in b.engine.queues.values():
                q.state = "closed"

            def task(engine, ctx):
                slowq = yield Future()  # placeholder; not reached

            def call(engine, ctx):
                yield from engine.invoke(
                    host_ref("b"), "name", [], ctx)

            started = time.monotonic()
            with pytest.raises(EngineError) as exc:
                run_on(a, call)
            assert exc.value.code == "Timeout"
            assert time.monotonic() - started < 5
        finally:
            a.shutdown()
            b.shutdown()


class StubConn:
    """A connection whose `send_frame` first runs `on_send`, so a test can
    put a call exactly where a reader thread may lose the CPU."""

    def __init__(self, on_send):
        self.on_send = on_send
        self.sent = []
        self.closed = False

    def send_frame(self, frame):
        self.sent.append(frame.kind)
        self.on_send()

    def close(self):
        self.closed = True


class TestGracefulShutdown:
    def test_shutdown_during_handshake_closes_the_late_neighbor(self):
        engine, scheduler = make_engine(reply_42)
        router = Router("b", None, scheduler, engine.config, engine)
        # shutdown() runs after HELLO_ACK went out, before b registers a
        conn = StubConn(router.shutdown)
        router._on_frame(conn, Frame(HELLO, 0, _hello_payload("a", 1, b"")))
        assert conn.sent == [HELLO_ACK]
        assert conn.closed
        assert router.neighbor_names() == []

    def test_peer_removed_without_error_noise(self, hello_image):
        a = make_node("a")
        b = make_node("b")
        try:
            a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
            b.router.shutdown()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and a.router.neighbor_names():
                time.sleep(0.02)
            assert a.router.neighbor_names() == []
            assert a.engine.error_log == []
        finally:
            a.shutdown()
            b.shutdown()


class TestCrossDial:
    def test_simultaneous_dials_settle_consistently(self):
        a = make_node("a")
        b = make_node("b")
        try:
            fa = a.router.connect(f"127.0.0.1:{b.bound_port}")
            fb = b.router.connect(f"127.0.0.1:{a.bound_port}")
            results = []
            for fut in (fa, fb):
                try:
                    results.append(fut.wait_blocking())
                except EngineError as err:
                    results.append(err.code)
            # at least one side succeeded and both neighborhoods agree
            assert "b" in results or "a" in results
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if a.router.neighbor_names() == ["b"] and \
                        b.router.neighbor_names() == ["a"]:
                    break
                time.sleep(0.02)
            assert a.router.neighbor_names() == ["b"]
            assert b.router.neighbor_names() == ["a"]

            def task(engine, ctx):
                out = yield from engine.invoke(host_ref("b"), "name", [], ctx)
                return out.to_str()

            assert run_on(a, task) == "b"
        finally:
            a.shutdown()
            b.shutdown()
