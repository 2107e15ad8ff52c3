"""Pending calls are registered before their frame is sent.

A port may deliver a reply before `port.send` returns. The stub ports here
deliver the reply inside `send` itself, so these tests reproduce that order
every time, without threads or sleeps."""

import pytest

from minihello.bio import Writer
from minihello.engine.engine import Engine, EngineConfig, FrameMeta
from minihello.errors import (E_HASH_MISMATCH, E_HOST_UNREACHABLE, E_TIMEOUT,
                              E_UNKNOWN_CLASS, EngineError)
from minihello.net import frames
from minihello.net.wirevalues import encode_value
from minihello.runpack import serialize
from minihello.values import ClassKey

from conftest import WireHeap, compile_text, image_with_body


class ManualScheduler:
    """Records timers and never fires them."""

    def __init__(self):
        self.timers = []

    def now_ms(self) -> int:
        return 0

    def call_later(self, delay_ms, fn, *, maintenance=False):
        entry = [delay_ms, fn, False]
        self.timers.append(entry)
        return entry

    def cancel(self, handle) -> None:
        handle[2] = True

    def live_timers(self) -> list:
        return [t for t in self.timers if not t[2]]


class StubPort:
    """A port whose `send` hands the answering frames to the engine before
    it returns, or raises HostUnreachable when `reachable` is false."""

    def __init__(self, answer, reachable=True):
        self.answer = answer
        self.reachable = reachable
        self.engine = None

    def send(self, dst, frame):
        if not self.reachable:
            raise EngineError(E_HOST_UNREACHABLE, f"no path known to {dst}")
        for reply in self.answer(frame):
            self.engine.handle_wire_frame(reply, FrameMeta(dst))
        return dst

    def knows(self, name):
        return False

    def neighbor_names(self):
        return []


def make_engine(answer, reachable=True):
    scheduler = ManualScheduler()
    port = StubPort(answer, reachable)
    engine = Engine(EngineConfig("a"), scheduler, port)
    port.engine = engine
    return engine, scheduler


def reply_42(frame):
    return [frames.Frame(frames.REPLY, frame.corr, encode_value(42))]


IMAGE = compile_text("package fetched; class C { public int x; }")


def pack_data(frame, data=None):
    """The whole runpack as two PACK_DATA chunks, the last one flagged."""
    data = data or serialize(IMAGE)
    out = []
    for last, chunk in ((0, data[:10]), (1, data[10:])):
        w = Writer()
        w.u8(last)
        w.raw(chunk)
        out.append(frames.Frame(frames.PACK_DATA, frame.corr, w.getvalue()))
    return out


def test_reply_delivered_during_send_resolves_the_call():
    engine, scheduler = make_engine(reply_42)
    fut = engine.send_request("b", frames.INVOKE, b"")
    assert fut.done()
    assert fut.result() == 42
    assert engine.pending == {}
    assert engine.orphaned_replies == 0
    assert scheduler.live_timers() == []  # no timeout armed for a closed call


def cut_graph() -> bytes:
    """A two-node object graph, cut short in its last field: the decoder
    has met both nodes when it finds the end."""
    heap = WireHeap()
    leaf = heap(ClassKey("fetched", "C"), [7])
    return heap.encode(heap(ClassKey("fetched", "C"), [leaf, 1]))[:-5]


@pytest.mark.parametrize("payload", [b"", b"\xee", cut_graph()],
                         ids=["cut-short", "unknown-tag", "cut-graph"])
def test_malformed_reply_fails_its_call_and_leaves_nothing_pending(payload):
    engine, scheduler = make_engine(
        lambda frame: [frames.Frame(frames.REPLY, frame.corr, payload)])
    records = len(engine.objects)
    fut = engine.send_request("b", frames.INVOKE, b"")
    assert fut.done()
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == "BadFrame"
    assert engine.pending == {}
    assert engine.orphaned_replies == 0
    assert scheduler.live_timers() == []
    assert len(engine.objects) == records


def test_pack_delivered_during_send_installs_it():
    engine, scheduler = make_engine(pack_data)
    fut = engine.fetch_pack("b", "fetched")
    assert fut.done()
    assert fut.result() is True
    assert ClassKey("fetched", "C") in engine.classes
    assert engine.pending == {}
    assert engine.orphaned_replies == 0
    assert scheduler.live_timers() == []


def test_pack_of_another_package_fails_the_fetch_and_installs_nothing():
    other = compile_text("package other; class C { public int x; }")
    engine, scheduler = make_engine(
        lambda frame: pack_data(frame, serialize(other)))
    fut = engine.fetch_pack("b", "fetched")
    assert fut.done()
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_HASH_MISMATCH
    assert "fetched other, wanted fetched" in str(exc.value)
    for package in ("other", "fetched"):
        assert engine.packstore.resolve(package) is None
        assert ClassKey(package, "C") not in engine.classes
    assert engine.pending == {}
    assert engine._fetch_inflight == {}
    assert scheduler.live_timers() == []


def test_malformed_pack_fails_the_fetch_and_leaves_nothing_behind():
    # a correctly hashed image whose one body nests 50,000 unary nodes
    nested = image_with_body(b"\x18\x00\x01\x1b" + b"\x0d\x00" * 50_000
                             + b"\x00" + bytes(8), package="fetched")
    engine, scheduler = make_engine(lambda frame: pack_data(frame, nested))
    fut = engine.fetch_pack("b", "fetched")
    assert fut.done()
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_UNKNOWN_CLASS
    assert "MalformedImage" in str(exc.value)
    assert engine.pending == {}
    assert engine._fetch_inflight == {}
    assert scheduler.live_timers() == []


def test_call_still_open_after_send_gets_a_timeout():
    engine, scheduler = make_engine(lambda frame: [])
    fut = engine.send_request("b", frames.INVOKE, b"", timeout_ms=250)
    assert not fut.done()
    (corr,) = engine.pending
    assert engine.pending[corr].next_hop == "b"
    assert [t[0] for t in scheduler.live_timers()] == [250]


def test_timed_out_fetch_drops_its_pack_buffer():
    engine, scheduler = make_engine(lambda frame: pack_data(frame)[:1])
    fut = engine.fetch_pack("b", "fetched")
    assert not fut.done()
    (entry,) = engine.pending.values()
    assert entry.package == "fetched"
    assert entry.chunks == [serialize(IMAGE)[:10]]  # the first chunk only
    (timer,) = scheduler.live_timers()
    timer[1]()  # the fetch times out before its last chunk arrives
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_TIMEOUT
    assert engine.pending == {}


def test_unreachable_send_leaves_nothing_pending():
    engine, scheduler = make_engine(reply_42, reachable=False)
    with pytest.raises(EngineError) as exc:
        engine.send_request("b", frames.INVOKE, b"")
    assert exc.value.code == E_HOST_UNREACHABLE
    assert engine.pending == {}
    assert scheduler.timers == []


def test_unreachable_fetch_fails_and_leaves_nothing_pending():
    engine, scheduler = make_engine(pack_data, reachable=False)
    fut = engine.fetch_pack("b", "fetched")
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_HOST_UNREACHABLE
    assert engine.pending == {}
    assert scheduler.timers == []


@pytest.mark.parametrize("kind", ["REPLY", "ERROR", "PACK_DATA"])
def test_reply_with_unknown_corr_is_orphaned(kind):
    engine, _ = make_engine(reply_42)
    payload = {"REPLY": encode_value(1),
               "ERROR": frames.ERROR_PAYLOAD.pack(
                   frames.ErrorInfo("Timeout", "", "late")),
               "PACK_DATA": b"\x01"}[kind]
    engine.handle_wire_frame(frames.Frame(getattr(frames, kind), 99, payload),
                             FrameMeta("b"))
    assert engine.orphaned_replies == 1
    assert engine.error_log == []


def test_pack_data_for_a_call_that_is_no_fetch_is_orphaned():
    engine, _ = make_engine(lambda frame: [])
    fut = engine.send_request("b", frames.INVOKE, b"")
    (corr,) = engine.pending
    engine.handle_wire_frame(frames.Frame(frames.PACK_DATA, corr, b"\x01"),
                             FrameMeta("b"))
    assert engine.orphaned_replies == 1
    assert list(engine.pending) == [corr]  # the call stays open
    assert not fut.done()


def test_reply_after_timeout_is_orphaned():
    engine, scheduler = make_engine(lambda frame: [])
    fut = engine.send_request("b", frames.INVOKE, b"")
    (corr,) = engine.pending
    (timer,) = scheduler.live_timers()
    timer[1]()  # the call times out
    engine.handle_wire_frame(frames.Frame(frames.REPLY, corr, encode_value(42)),
                             FrameMeta("b"))
    assert engine.orphaned_replies == 1
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_TIMEOUT


def test_refused_fetch_drops_its_pack_buffer():
    def not_found(frame):
        return [frames.Frame(frames.ERROR, frame.corr, frames.ERROR_PAYLOAD.pack(
            frames.ErrorInfo("PackNotFoundAtOrigin", "", "fetched")))]

    engine, scheduler = make_engine(not_found)
    fut = engine.fetch_pack("b", "fetched")
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == "PackNotFoundAtOrigin"
    assert engine.pending == {}
    assert scheduler.live_timers() == []


def test_truncated_error_leaves_the_call_to_its_timeout():
    engine, scheduler = make_engine(lambda frame: [])
    fut = engine.send_request("b", frames.INVOKE, b"", timeout_ms=250)
    (corr,) = engine.pending
    cut = frames.ERROR_PAYLOAD.pack(
        frames.ErrorInfo("AccessDenied", "", "denied at host layer"))[:-3]
    engine.handle_wire_frame(frames.Frame(frames.ERROR, corr, cut),
                             FrameMeta("b"))
    assert [code for code, _ in engine.error_log] == ["BadFrame"]
    assert list(engine.pending) == [corr]
    (timer,) = scheduler.live_timers()
    timer[1]()
    with pytest.raises(EngineError) as exc:
        fut.result()
    assert exc.value.code == E_TIMEOUT
