"""The bulk char[] path: who owns a buffer after each step, how much memory
each step takes on top of what it must keep, and the exec pipes that feed
it."""

from __future__ import annotations

import gc
import os
import tracemalloc
import warnings

import pytest

from conftest import compile_text, mesh_scenario, run_task
from minihello.engine.engine import Engine, EngineConfig, TaskCtx
from minihello.engine.machine import _write_index
from minihello.engine.marshal import Intake, from_wire
from minihello.net import frames
from minihello.net.wirevalues import decode_value, encode_value
from minihello.values import Char, CharArray, ClassKey, ObjectRef
from test_wirevalues import CapturePort, ManualScheduler

SIZE = 4 << 20
MIB = 1 << 20


def bulk() -> bytes:
    return bytes(range(256)) * (SIZE // 256)


def peak_rise(fn):
    """fn()'s result and the rise of traced memory at its peak over what was
    traced when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def run_generator(gen):
    """The value of a generator that never waits."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the generator waited")


class TestZeroCopyPins:
    def test_decoding_a_frame_keeps_its_payload_in_place(self):
        data = frames.encode_frame(frames.Frame(frames.INVOKE, 3, bulk()))
        frame, rise = peak_rise(lambda: frames.decode_frame_bytes(data))
        assert frame.payload == data[frames.HEADER_LEN:]
        assert rise < MIB

    def test_from_wire_adopts_a_decoded_char_array(self):
        engine = Engine(EngineConfig("a"), ManualScheduler(), CapturePort())
        intake = Intake(engine)
        value = decode_value(encode_value(CharArray(bulk())), intake)
        _, rise = peak_rise(
            lambda: run_generator(from_wire(engine, intake.missing, None, None)))
        assert value.data == bulk()
        assert rise < MIB

    def test_an_invoke_payload_becomes_its_frame_without_a_copy(self):
        engine = Engine(EngineConfig("a"), ManualScheduler(), CapturePort())
        engine.install_image(compile_text(SINK_SRC, "Sink.hlo"))
        target = ObjectRef("b", 0, 10, ClassKey("own", "Box"))
        buf = CharArray(bulk())

        def send():
            call = engine.invoke(target, "put", [buf, 7], None)
            next(call)  # runs up to the wait for the reply, after the send
            return engine.port.frames[-1]

        frame, rise = peak_rise(send)
        assert len(frame.payload) > SIZE
        # the payload itself must stay; a second copy of it would not fit
        assert rise < SIZE + MIB

    def test_write_stdout_adds_only_the_written_bytes(self):
        scen = mesh_scenario(["solo"])
        engine = scen.hosts["solo"].engine
        ctx = TaskCtx(engine.service_queue)
        buf = CharArray(bulk())
        n = SIZE - 5
        _, rise = peak_rise(
            lambda: engine.call_intrinsic("write_stdout", [buf, n], ctx))
        assert engine.stdout_bytes == buf.data[:n]
        assert rise < n + MIB

    def test_a_post_shares_its_char_array_until_the_first_write(self):
        scen = mesh_scenario(["solo"])
        engine = scen.hosts["solo"].engine
        engine.install_image(compile_text(SINK_SRC, "Sink.hlo"))
        ctx = TaskCtx(engine.service_queue)
        box = engine.alloc_object(ClassKey("own", "Box"), None, [None])
        qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                   [engine.new_queue().qid])
        buf = CharArray(bulk())
        _, post_rise = peak_rise(
            lambda: engine.post_message(qref, box, "keep", [buf], ctx))
        _, write_rise = peak_rise(lambda: _write_index(buf, 0, Char(88)))
        scen.run()
        assert post_rise < MIB
        # the write gives the caller's array one copy of its own
        assert SIZE <= write_rise < SIZE + MIB
        assert engine.deref(box).fields[0].data == bulk()
        assert buf.data[:2] == b"X\x01"


SINK_SRC = """
package own;
external class Box {
    external public Box() {}
    public char[] seen;
    public message void keep(char[] d) { seen = d; }
    public external int put(char[] d, int n) { return n; }
    public external int take(char[] d) {
        queue q = create queue();
        q #> (this, keep(d));
        d[0] = 'X';
        q <=> 1;
        return 0;
    }
}
"""


COW_SRC = """
package cow;
external class Box {
    external public Box() {}
    public char[] seen;
    public char[][] rows;
    public external message void keep(char[] d) { seen = d; }
    public external message void scribble(char[] d) {
        d[0] = 'X';
        d += "!";
        seen = d;
    }
    public external message void keep_rows(char[][] d) {
        d[1][0] = 'Q';
        rows = d;
    }
    public external int mangle(copy char[] d) {
        d[0] = 'X';
        seen = d;
        return 0;
    }
    static public int main(char[][] argv) {
        Box box = new Box();
        queue q = create queue();
        char[] buf = create char[0];
        buf += "abc";
        %s
        q <=> 1;
        %s
        return 0;
    }
}
"""


def run_cow(body: str, after: str) -> bytes:
    """The stdout of COW_SRC's main with `body` run after its buffer `buf`
    is "abc" and `after` run once the posts to `q` are done."""
    scen = mesh_scenario(["solo"])
    fut = scen.run_main("solo", compile_text(COW_SRC % (body, after),
                                             "Box.hlo"), [])
    scen.run()
    engine = scen.hosts["solo"].engine
    assert fut.result() == 0
    assert engine.error_log == []
    return bytes(engine.stdout_bytes)


class TestOwnership:
    def test_a_callee_mutating_a_received_array_leaves_an_earlier_post(self):
        image = compile_text(SINK_SRC, "Sink.hlo")
        scen = mesh_scenario(["a", "b"], seed=3)
        for host in ("a", "b"):
            scen.hosts[host].engine.install_image(image)
        buf = CharArray(b"abc")

        def task(engine, ctx):
            box = yield from engine.create_object(
                ClassKey("own", "Box"), ("remote", "b", None), [], ctx)
            yield from engine.invoke(box, "take", [buf], ctx)
            return box

        box = run_task(scen, "a", task)
        seen = scen.hosts["b"].engine.deref(box).fields[0]
        assert bytes(seen.data) == b"abc"
        assert bytes(buf.data) == b"abc"

    def test_an_event_slot_filled_on_the_same_host_arrives_as_a_copy(self):
        image = compile_text("""
package evown;
external class E {
    external public E() {}
    public char[] got;
    public message void one(char[] d) { d[0] = 'X'; got = d; }
}
""", "E.hlo")
        scen = mesh_scenario(["a"])
        engine = scen.hosts["a"].engine
        engine.install_image(image)
        filled = CharArray(b"abc")

        def task(engine, ctx):
            target = yield from engine.create_object(
                ClassKey("evown", "E"), ("partition", 0), [], ctx)
            qref = engine.alloc_object(ClassKey("standard", "queue"), 0,
                                       [engine.service_queue.qid])
            eid = yield from engine.create_event(qref, target, "one", 1, ctx)
            status = yield from engine.fill_event(eid, 0, filled, ctx)
            yield from engine.queued_eval(qref, lambda: 1, ctx)
            return status, target

        status, target = run_task(scen, "a", task)
        assert status == "fired"
        assert bytes(engine.deref(target).fields[0].data) == b"Xbc"
        assert bytes(filled.data) == b"abc"

    def test_a_written_buffer_can_grow_and_change_afterwards(self):
        scen = mesh_scenario(["solo"])
        fut = scen.run_main("solo", compile_text("""
package p;
class M {
    static public void main() {
        char[] buf = create char[0];
        buf += "hello";
        write_stdout(buf, 5);
        buf += " world";
        buf[0] = 'J';
        write_stdout(buf, 3);
    }
}
"""), [])
        scen.run()
        engine = scen.hosts["solo"].engine
        assert fut.result() == 0
        assert engine.error_log == []
        assert bytes(engine.stdout_bytes) == b"helloJel"

    def test_overwriting_a_posted_buffer_by_index(self):
        out = run_cow("q #> (box, keep(buf)); buf[0] = 'X';",
                      'print(box.seen + " " + buf);')
        assert out == b"abc Xbc"

    def test_appending_to_a_posted_buffer(self):
        out = run_cow('q #> (box, keep(buf)); buf += "def";',
                      'print(box.seen + " " + buf);')
        assert out == b"abc abcdef"

    def test_reading_a_pipe_into_a_posted_buffer(self):
        out = run_cow(
            'q #> (box, keep(buf)); int p = exec_open("printf XY");'
            " int[] st = exec_read(p, buf, 3);",
            'print(box.seen + " " + buf);')
        assert out == b"abc XYc"

    def test_a_message_writing_its_array_leaves_the_callers(self):
        out = run_cow("q #> (box, scribble(buf));",
                      'print(box.seen + " " + buf);')
        assert out == b"Xbc! abc"

    def test_a_posted_array_of_char_arrays_is_isolated(self):
        out = run_cow(
            "char[][] rows = create char[2][0]; rows[0] += buf;"
            ' rows[1] += "def"; q #> (box, keep_rows(rows));'
            ' rows[0][0] = \'X\'; rows[1] += "g";',
            'print(box.rows[0] + box.rows[1] + " " + rows[0] + rows[1]);')
        assert out == b"abcQef Xbcdefg"

    def test_a_copy_parameter_is_isolated(self):
        out = run_cow("box.mangle(buf); buf[1] = 'Y';",
                      'print(box.seen + " " + buf);')
        assert out == b"Xbc aYc"


class TestExecPipes:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count open descriptors")
    def test_shell_runs_keep_open_descriptors_flat(self, shell_image, tmp_path):
        path = tmp_path / "data.bin"
        data = bytes(range(256)) * 256
        path.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            scen = mesh_scenario(["a", "b"], seed=5)
            a = scen.hosts["a"].engine
            b = scen.hosts["b"].engine

            def one_run() -> tuple[int, int]:
                fut = a.run_main(shell_image, ["b", "2", "cat", str(path)])
                scen.run()
                assert fut.result() == 0
                assert bytes(a.stdout_bytes) == data
                del a.stdout_bytes[:]
                # `run` executes on b's service queue, which lives as long
                # as b: the handle of the command it opened must be gone
                return (sum(len(q.exec_handles) for q in b.queues.values()),
                        len(b.queues))

            first = one_run()  # fetches the runpack to b
            before = len(os.listdir("/proc/self/fd"))
            counts = [one_run() for _ in range(20)]
            after = len(os.listdir("/proc/self/fd"))
            del scen, a, b
            gc.collect()
        assert after == before
        assert first[0] == 0
        assert [handles for handles, _ in counts] == [0] * 20
        # one more queue per run: the `rtq` that `run` makes with `create
        # queue()`, which lives as long as b; no other queue stays behind
        assert [queues for _, queues in counts] == \
            [first[1] + i for i in range(1, 21)]
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_releasing_a_queue_closes_the_pipes_it_owns(self):
        scen = mesh_scenario(["solo"])
        engine = scen.hosts["solo"].engine
        queue = engine.new_queue()
        ctx = TaskCtx(queue)
        handle = engine.call_intrinsic("exec_open", [CharArray(b"echo hi")], ctx)
        proc = queue.exec_handles[handle]
        engine._release_queue(queue)
        assert handle not in queue.exec_handles
        assert proc.stdout.closed
        proc.wait()
