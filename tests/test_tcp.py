"""Real-TCP transport tests over loopback: the same behavior the simulator
shows, with wall-clock timing.

A test reads and changes a node's state only through `Node.call`, which runs
on the node's loop thread, and `Node.wait`. It waits for an event it can
name, such as a call's Future, a round trip that flushes what a peer sent
before it, or a socket's EOF, and never sleeps."""

import os
import socket
import struct
import threading
import time

import pytest

from minihello.engine.engine import EngineConfig, TaskCtx
from minihello.engine.marshal import snapshot_arrays
from minihello.errors import EngineError
from minihello.net.frames import (HELLO, HELLO_ACK, HELLO_PAYLOAD, PREAMBLE,
                                   Frame, Hello)
from minihello.net.router import Router
from minihello.node import Node
from minihello.runtime import Future, Request
from minihello.stdlib import host_ref
from minihello.values import CharArray

from test_pending_calls import make_engine, reply_42


def make_node(name, **cfg) -> Node:
    node = Node(EngineConfig(name, listen="127.0.0.1:0", **cfg))

    def capture():
        node.engine.capture_stdout = True
        node.engine.stdout_sink = None

    node.call(capture)
    node.start()
    return node


def connect(a: Node, b: Node) -> str:
    """Dial b from a and wait for the handshake; returns b's name."""
    return a.wait(a.call(
        lambda: a.router.connect(f"127.0.0.1:{b.bound_port}")))


def run_on(node: Node, gen_fn):
    """Run gen_fn(engine, ctx) as a task on a fresh queue; returns its value."""
    engine = node.engine

    def submit():
        fut = Future()
        queue = engine.new_queue(label="test")
        engine.scheduler.submit(queue, Request(lambda: gen_fn(engine, TaskCtx(queue)), fut))
        return fut

    return node.wait(node.call(submit))


def name_of(host: str):
    """A task that calls `name()` on a host object."""
    def task(engine, ctx):
        out = yield from engine.invoke(host_ref(host), "name", [], ctx)
        return out.to_str()
    return task


def stdout_of(node: Node) -> bytes:
    return node.call(lambda: bytes(node.engine.stdout_bytes))


def errors_of(node: Node) -> list:
    return node.call(lambda: list(node.engine.error_log))


@pytest.fixture
def pair():
    a = make_node("a")
    b = make_node("b")
    connect(a, b)
    yield a, b
    a.shutdown()
    b.shutdown()


class TestTcpBasics:
    def test_handshake_populates_neighborhoods(self, pair):
        a, b = pair
        # b registers a in the callback that sends HELLO_ACK, so by the time
        # a's dial completes, b's loop has finished registering
        assert a.call(a.router.neighbor_names) == ["b"]
        assert b.call(b.router.neighbor_names) == ["a"]

    def test_remote_name_call(self, pair):
        a, b = pair
        assert run_on(a, name_of("b")) == "b"

    def test_remote_print_lands_on_remote_stdout(self, pair):
        a, b = pair

        def task(engine, ctx):
            yield from engine.invoke(host_ref("b"), "print",
                                     [CharArray(b"over there\n")], ctx)

        run_on(a, task)
        assert stdout_of(b) == b"over there\n"

    def test_preamble_enforced(self, pair):
        a, b = pair
        with socket.create_connection(("127.0.0.1", b.bound_port),
                                      timeout=10) as sock:
            sock.sendall(b"JUNKJUNKJUNK")
            received = b""
            while chunk := sock.recv(64):  # b's preamble, then EOF
                received += chunk
        assert received == PREAMBLE
        # b logged the bad preamble before it dropped us, and still serves a
        assert [code for code, _ in errors_of(b)] == ["BadFrame"]
        assert b.call(b.router.neighbor_names) == ["a"]
        assert run_on(a, name_of("b")) == "b"

    def test_malformed_frames_logged(self, pair):
        a, b = pair
        unknown_kind = PREAMBLE + struct.pack(">IBQ", 0, 0xFF, 1)
        cut_short = PREAMBLE + struct.pack(">IBQ", 10, HELLO, 1)  # no payload
        for data in (unknown_kind, cut_short):
            with socket.create_connection(("127.0.0.1", b.bound_port),
                                          timeout=10) as sock:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(64):  # until b has dropped us
                    pass
        assert [code for code, _ in errors_of(b)] == ["BadFrame", "BadFrame"]
        assert run_on(a, name_of("b")) == "b"

    def test_connect_refused_endpoint(self):
        node = make_node("solo")
        try:
            with pytest.raises(EngineError) as exc:
                # nothing listens there
                node.wait(node.call(
                    lambda: node.router.connect("127.0.0.1:1")))
            assert exc.value.code == "ConnectRefused"
            assert errors_of(node) == []
        finally:
            node.shutdown()


class TestTcpBroadcast:
    def test_three_node_mesh_broadcast(self, hello_image):
        nodes = [make_node(n) for n in ("a", "b", "c")]
        try:
            connect(nodes[1], nodes[0])
            connect(nodes[2], nodes[0])
            connect(nodes[2], nodes[1])
            assert nodes[0].run_main(hello_image, []) == 0
            # every host printed before it answered its traversal
            for n in nodes:
                assert stdout_of(n) == b"Hello, world!\na:-)\n"
        finally:
            for n in nodes:
                n.shutdown()


class TestTcpShell:
    def test_remote_shell_small_command(self, shell_image):
        a = make_node("a")
        b = make_node("b")
        try:
            connect(a, b)
            a.call(lambda: a.engine.install_image(shell_image))
            code = a.run_main(shell_image, ["b", "2", "echo", "tcp", "run"])
            assert code == 0
            assert stdout_of(a) == b"tcp run\n"
            assert stdout_of(b) == b""
        finally:
            a.shutdown()
            b.shutdown()

    def test_multi_hop_call_over_tcp(self):
        a = make_node("a")
        b = make_node("b")
        c = make_node("c")
        try:
            connect(a, b)
            connect(b, c)
            # b gossiped its new neighbor c to a before b's dial completed;
            # a round trip to b makes a read everything b sent before it
            assert run_on(a, name_of("b")) == "b"
            assert a.call(lambda: list(a.router.path_table["c"][0])) == ["b"]
            assert run_on(a, name_of("c")) == "c"
        finally:
            for n in (a, b, c):
                n.shutdown()

    def test_timeout_on_dead_peer(self):
        a = make_node("a", call_timeout_ms=800, ping_interval_ms=10_000)
        b = make_node("b")
        release = threading.Event()
        try:
            connect(a, b)
            # b stops responding without closing its connection
            b.loop.call_soon_threadsafe(release.wait, 30)
            started = time.monotonic()
            with pytest.raises(EngineError) as exc:
                run_on(a, name_of("b"))
            assert exc.value.code == "Timeout"
            assert time.monotonic() - started < 5
        finally:
            release.set()
            a.shutdown()
            b.shutdown()


class StubConn:
    """A connection that records the kinds of the frames sent on it and
    whether it was closed."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def send_frame(self, frame):
        self.sent.append(frame.kind)

    def close(self):
        self.closed = True


class TestGracefulShutdown:
    def test_shutdown_closes_neighbors_and_ignores_later_hellos(self):
        engine, scheduler = make_engine(reply_42)
        router = Router("b", None, scheduler, engine.config, engine)
        first = StubConn()
        router._on_frame(first, Frame(HELLO, 0,
                                      HELLO_PAYLOAD.pack(Hello("a", 1, b""))))
        assert first.sent[0] == HELLO_ACK  # then gossip to the new neighbor
        assert router.neighbor_names() == ["a"]
        router.shutdown()
        assert first.closed
        late = StubConn()
        router._on_frame(late, Frame(HELLO, 0,
                                     HELLO_PAYLOAD.pack(Hello("c", 1, b""))))
        assert late.sent == []
        assert router.neighbor_names() == []

    def test_peer_removed_without_error_noise(self):
        a = make_node("a")
        b = make_node("b")
        try:
            connect(a, b)
            removed = Future()

            def on_event(kind, detail):
                if kind == "neighbor-removed":
                    removed.resolve(detail)

            a.call(lambda: setattr(a.engine, "on_host_event", on_event))
            b.call(b.router.shutdown)
            assert a.wait(removed) == "b"
            assert a.call(a.router.neighbor_names) == []
            assert errors_of(a) == []
        finally:
            a.shutdown()
            b.shutdown()


    def test_shutdown_closes_the_exec_pipes_of_every_queue(self):
        node = make_node("a")
        engine = node.engine

        def open_commands():
            procs = []
            for queue in (engine.service_queue, engine.new_queue()):
                ctx = TaskCtx(queue)
                handle = engine.call_intrinsic(
                    "exec_open", [CharArray(b"echo x")], ctx)
                procs.append(queue.exec_handles[handle])
            return procs

        procs = node.call(open_commands)
        node.shutdown()
        assert all(proc.stdout.closed for proc in procs)
        assert all(not q.exec_handles for q in engine.queues.values())
        for proc in procs:
            proc.wait()


class TestCrossDial:
    def test_simultaneous_dials_settle_consistently(self):
        a = make_node("a")
        b = make_node("b")
        try:
            # both dials start before either is waited on, so they may cross
            fa = a.call(lambda: a.router.connect(f"127.0.0.1:{b.bound_port}"))
            fb = b.call(lambda: b.router.connect(f"127.0.0.1:{a.bound_port}"))
            results = []
            for node, fut in ((a, fa), (b, fb)):
                try:
                    results.append(node.wait(fut))
                except EngineError as err:
                    results.append(err.code)
            # one dial succeeded, the other was refused, and both
            # neighborhoods agree
            assert results in (["b", "ConnectRefused"],
                               ["ConnectRefused", "a"])
            assert a.call(a.router.neighbor_names) == ["b"]
            assert b.call(b.router.neighbor_names) == ["a"]
            assert run_on(a, name_of("b")) == "b"
        finally:
            a.shutdown()
            b.shutdown()


class TestBoundedHost:
    def test_threads_and_queues_flat_over_100_broadcasts(self, hello_image):
        nodes = [make_node(n) for n in ("a", "b", "c")]
        try:
            connect(nodes[1], nodes[0])
            connect(nodes[2], nodes[0])
            connect(nodes[2], nodes[1])

            def census():
                return (threading.active_count(),
                        [n.call(lambda n=n: len(n.engine.queues))
                         for n in nodes])

            assert nodes[0].run_main(hello_image, []) == 0
            first = census()
            for _ in range(99):
                assert nodes[0].run_main(hello_image, []) == 0
                assert census() == first
            assert stdout_of(nodes[2]).count(b"Hello, world!") == 100
        finally:
            for n in nodes:
                n.shutdown()

    @pytest.mark.parametrize("command, out", [
        ("cat {fifo}", b"through the fifo\n"),
        # closes its output at once, then runs until the fifo is written
        ("exec 1>&-; cat {fifo} >/dev/null", b""),
    ])
    def test_slow_command_leaves_other_queues_running(self, tmp_path,
                                                      command, out):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        a = make_node("a")
        b = make_node("b")
        try:
            connect(a, b)
            engine = b.engine
            buf = CharArray(bytes(64))

            def start_read():
                queue = engine.new_queue(label="reader")
                ctx = TaskCtx(queue)
                line = command.format(fifo=fifo).encode()
                handle = engine.call_intrinsic("exec_open", [CharArray(line)],
                                               ctx)
                fut = Future()
                engine.scheduler.submit(queue, Request(
                    lambda: engine.exec_read([handle, buf, 64], ctx), fut))
                return fut

            def feed():
                with open(fifo, "wb") as pipe:
                    pipe.write(b"through the fifo\n")

            read = b.call(start_read)
            # should b's loop wait on the command, this ends the wait, so
            # that the test fails instead of hanging
            rescue = threading.Timer(20, feed)
            rescue.start()
            try:
                # queue 2 on b calls a and gets its answer meanwhile
                assert run_on(b, name_of("a")) == "a"
                assert not b.call(read.done)
            finally:
                rescue.cancel()
            feed()
            status = b.wait(read)
            assert status.items == [len(out), 1, 0]
            assert bytes(buf.data[:len(out)]) == out
        finally:
            a.shutdown()
            b.shutdown()

    def test_a_copy_taken_while_a_read_fills_the_buffer_keeps_its_bytes(
            self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        node = make_node("b")
        try:
            engine = node.engine
            buf = CharArray(b"old bytes here!!")

            def start_read():
                ctx = TaskCtx(engine.new_queue())
                handle = engine.call_intrinsic(
                    "exec_open", [CharArray(f"cat {fifo}".encode())], ctx)
                fut = Future()
                engine.scheduler.submit(ctx.queue, Request(
                    lambda: engine.exec_read([handle, buf, 16], ctx), fut))
                return fut

            def snapshot():
                assert engine.filling == [buf]  # the read is in flight
                return snapshot_arrays(engine, buf)

            read = node.call(start_read)
            copy = node.call(snapshot)
            with open(fifo, "wb") as pipe:
                pipe.write(b"new")
            assert node.wait(read).items == [3, 1, 0]
            assert bytes(buf.data) == b"new bytes here!!"
            assert bytes(copy.data) == b"old bytes here!!"
            assert engine.filling == []
        finally:
            node.shutdown()
