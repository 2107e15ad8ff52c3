"""Golden payload bytes: one fixed example of every frame payload layout.

The examples are the frames a four-host line a-b-c-d sends while it starts
and while host a runs one fixed script against b and d. Each example's
SHA-256 and its frame-log label are pinned, so a change to how any payload
is written, or to how the simulator labels it, shows here."""

import hashlib

import pytest

from minihello.bio import EMPTY, Reader
from minihello.engine.engine import TaskCtx
from minihello.errors import EngineError
from minihello.frontend.types import QUEUE_KEY
from minihello.net import frames
from minihello.simharness import Scenario
from minihello.simharness.scenario import describe_frame
from minihello.values import ClassKey

from conftest import compile_text

# The constant makes the image longer than one PACK_DATA chunk (64 KiB).
PINS_SRC = """
package pins;
external class Box {
    external public Box() {}
    public int hits;
    external public int twice(int x) { return x + x; }
    external public int ratio(int d) { return 100 / d; }
    public message void bump(int by) { hits = hits + by; }
    public message void go(int a, int b) { hits = hits + a + b; }
    static public char[] padding() { return "%s"; }
    static public void main() { }
}
""" % ("x" * 70_000)

BOX = ClassKey("pins", "Box")


def script(engine, ctx):
    """Every request kind that a task can send, to b and, routed, to d."""
    box = yield from engine.create_object(BOX, ("remote", "b", None), [], ctx)
    with pytest.raises(EngineError) as no_partition:
        # b has no partition 3: an ERROR without a remote code
        yield from engine.create_object(BOX, ("remote", "b", 3), [], ctx)
    assert no_partition.value.remote_code is None
    assert (yield from engine.invoke(box, "twice", [21], ctx)) == 42
    with pytest.raises(EngineError) as fault:
        # a fault in the callee: an ERROR with a remote code
        yield from engine.invoke(box, "ratio", [0], ctx)
    assert fault.value.remote_code == "ArithmeticFault"
    qref = yield from engine.create_object(QUEUE_KEY, ("remote", "b", None),
                                           [], ctx)
    engine.post_message(qref, box, "bump", [5], ctx)
    yield from engine.queued_eval(qref, lambda: 1, ctx)
    eid = yield from engine.create_event(qref, box, "go", 2, ctx)
    yield from engine.fill_event(eid, 0, 7, ctx)
    far = yield from engine.create_object(QUEUE_KEY, ("remote", "d", None),
                                          [], ctx)
    return far


def run_pins_scenario():
    """The delivered frames of the script, as (src, dst, kind, payload)."""
    scen = Scenario(seed=0)
    for name in "abcd":
        scen.add_host(name)
    for a, b in ("ab", "bc", "cd"):
        scen.link(a, b)
    delivered = []

    def capture(frame):
        delivered.append((frame.kind, bytes(frame.payload)))
        return describe_frame(frame)

    scen.network.frame_info = capture
    scen.start()
    engine = scen.hosts["a"].engine
    engine.install_image(compile_text(PINS_SRC, "Pins.hlo"))
    fut = scen.submit_task("a", lambda: script(
        engine, TaskCtx(engine.new_queue(label="pins"))))
    scen.run()
    assert fut.result().host == "d"
    return [(entry[1], entry[2], kind, payload) for entry, (kind, payload)
            in zip(scen.network.frame_log, delivered)]


def pick(log, src, dst, kind, index=0):
    """The payload of the `index`-th frame of `kind` from src to dst."""
    matches = [p for s, d, k, p in log if (s, d, k) == (src, dst, kind)]
    return matches[index]


def invoke_with_op(log, op):
    """The first INVOKE from a to b whose sub-operation byte is `op`."""
    return next(p for s, d, k, p in log
                if (s, d, k) == ("a", "b", frames.INVOKE) and p[0] == op)


def examples() -> dict:
    log = run_pins_scenario()
    creates = [p for s, d, k, p in log
               if (s, d, k) == ("a", "b", frames.INVOKE) and p[0] == 2]
    pack_data = [p for s, d, k, p in log
                 if (s, d, k) == ("a", "b", frames.PACK_DATA)]
    errors = [p for s, d, k, p in log if (s, d, k) == ("b", "a", frames.ERROR)]
    return {
        "hello": pick(log, "a", "b", frames.HELLO),
        "hello_ack": pick(log, "b", "a", frames.HELLO_ACK),
        # b's last advertisement to a: c directly, d through c
        "gossip_hops": pick(log, "b", "a", frames.GOSSIP, -1),
        # c's last advertisement to b: d directly (a is split-horizoned)
        "gossip_no_hops": pick(log, "c", "b", frames.GOSSIP, -1),
        # a's request to d, forwarded by b by table, and d's reply to a,
        # sent back along the request's path
        "route_table": pick(log, "b", "c", frames.ROUTE),
        "route_explicit": pick(log, "d", "c", frames.ROUTE),
        "error_no_remote_code": errors[0],
        "error_remote_code": errors[1],
        "fetch_pack": pick(log, "b", "a", frames.FETCH_PACK),
        "pack_data_not_last": pack_data[0],
        "pack_data_last": pack_data[-1],
        "invoke": invoke_with_op(log, 0),
        "post": invoke_with_op(log, 1),
        "create": creates[0],
        "create_partition": creates[1],
        "barrier": invoke_with_op(log, 3),
        "ev_create": pick(log, "a", "b", frames.EVENT_POST, 0),
        "ev_fill": pick(log, "a", "b", frames.EVENT_POST, 1),
    }


EXAMPLE_KINDS = {
    "hello": frames.HELLO, "hello_ack": frames.HELLO_ACK,
    "gossip_hops": frames.GOSSIP, "gossip_no_hops": frames.GOSSIP,
    "route_table": frames.ROUTE, "route_explicit": frames.ROUTE,
    "error_no_remote_code": frames.ERROR, "error_remote_code": frames.ERROR,
    "fetch_pack": frames.FETCH_PACK, "pack_data_not_last": frames.PACK_DATA,
    "pack_data_last": frames.PACK_DATA, "invoke": frames.INVOKE,
    "post": frames.INVOKE, "create": frames.INVOKE,
    "create_partition": frames.INVOKE, "barrier": frames.INVOKE,
    "ev_create": frames.EVENT_POST, "ev_fill": frames.EVENT_POST,
}

PAYLOAD_SHA256 = {
    "hello":
        "fa5ed5f8ec7ae0a06609be3ad53f1b186285adf6e4be6b0577b436617e4c92be",
    "hello_ack":
        "75cf769c071c6eb5840f99a675ac20c4818bd7053793b253604f1ebeec521c7d",
    "gossip_hops":
        "4841666e022c25f1ee8e602a71bb6250df4b0ff3cf1b04023c94923e619b1b8c",
    "gossip_no_hops":
        "dd881f97b0e5c788e90b0b6d2b605b010e3aecc6eb16b2cdf6c7b93134d68dc8",
    "route_table":
        "42aeb80adb596afff0d2627e229e0393f91b2c3be7f810b000ca92fbcf2fff04",
    "route_explicit":
        "19f27b1e0a95994bca2957acb988aaa11b746b7de15357491f693eefa2f090ce",
    "error_no_remote_code":
        "7351710177d49e3ad8f71761aac5f0caf176ff84597d31c83fd8ca5eaaf93325",
    "error_remote_code":
        "40c79c413dc78af4f743b715f34aaec8b36aec5603e477772a1c4e6c573bb4e8",
    "fetch_pack":
        "b1f9100ad6fe3d40ed76dec39afdc11db9bd9fb3e2ea0b636d92a148fe43b2e7",
    "pack_data_not_last":
        "cc4ccbe507ebfab4cbea313e6c0ee9f977b42f32087ac98522ee1a2759ccda35",
    "pack_data_last":
        "647ffbf1cc2d641a8cb794fd0636b75ad4712c49c4ab05bedcedab3e42df6b41",
    "invoke":
        "a59ea3806eddaa61a8f02bb5cb7bada60a739099f05b42a040aae1ce72130d53",
    "post":
        "0029c04001aae8526476feee32d64ac69512ebccb263a83bd615918cc189db30",
    "create":
        "be9c7eeed285f6c19bfe27d1c5f2d8f5390af680c30c551cf1556f4b95108b58",
    "create_partition":
        "04320f88b42274b1a8921f454b451e76683a6deaa9689102634dfe29ec5c53f8",
    "barrier":
        "fe6540e15df6775853e8a0ae23ede7e9a67ae7755b771ba155acb30ba1060c46",
    "ev_create":
        "946a0a72dfe783aa6e5b409584f7308f9e83bacf08210f0fe626fab48e3c9dfb",
    "ev_fill":
        "9bc208cf3db4cfe77ab202a01bc57135593750f082cd5aa9a164f40de69ea16f",
}

LABELS = {
    "hello": "HELLO",
    "hello_ack": "HELLO_ACK",
    "gossip_hops": "GOSSIP",
    "gossip_no_hops": "GOSSIP",
    "route_table": "ROUTE[d]:CREATE:standard.queue",
    "route_explicit": "ROUTE[a]:REPLY",
    "error_no_remote_code": "ERROR",
    "error_remote_code": "ERROR",
    "fetch_pack": "FETCH_PACK",
    "pack_data_not_last": "PACK_DATA",
    "pack_data_last": "PACK_DATA",
    "invoke": "INVOKE:twice",
    "post": "POST:bump",
    "create": "CREATE:pins.Box",
    "create_partition": "CREATE:pins.Box",
    "barrier": "BARRIER",
    "ev_create": "EVENT:create",
    "ev_fill": "EVENT:fill",
}


@pytest.fixture(scope="module")
def pinned_examples():
    return examples()


class TestPayloadPins:
    def test_every_example_is_pinned(self, pinned_examples):
        got = {name: hashlib.sha256(p).hexdigest()
               for name, p in pinned_examples.items()}
        assert got == PAYLOAD_SHA256

    def test_every_example_keeps_its_label(self, pinned_examples):
        got = {name: describe_frame(frames.Frame(EXAMPLE_KINDS[name], 0, p))
               for name, p in pinned_examples.items()}
        assert got == LABELS

    def test_every_kind_has_a_layout(self):
        assert set(frames.LAYOUTS) == set(frames.KIND_NAMES)
        assert frames.LAYOUTS[frames.PING] is EMPTY
        assert frames.LAYOUTS[frames.PONG] is EMPTY

    def test_each_example_reads_and_writes_back_through_its_layout(
            self, pinned_examples):
        for name, payload in pinned_examples.items():
            layout = frames.LAYOUTS[EXAMPLE_KINDS[name]]
            r = Reader(payload)
            value = layout.read(r)
            assert layout.pack(value) == payload[:r.pos], name
