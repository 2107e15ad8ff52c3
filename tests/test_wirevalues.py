"""Wire value codec: the tag table, graph back-references, and total decoding."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from minihello.bio import STR, Reader, Writer
from minihello.engine.engine import Engine, EngineConfig, FrameMeta
from minihello.engine.marshal import to_wire
from minihello.net import frames
from minihello.net.wirevalues import (MalformedEncoding, decode_value_prefix,
                                      encode_value)
from minihello.security import SID_LEN
from minihello.simharness.scenario import describe_frame
from minihello.stdlib import host_ref, hosts_node_ref
from minihello.values import (Array, Char, CharArray, ClassKey, INT_MAX,
                              INT_MIN, ObjectRef, TAG_ARRAY, TAG_BACK_REF,
                              TAG_BOOL, TAG_CHAR, TAG_INT, TAG_NULL, TAG_OBJECT,
                              TAG_REMOTE_REF)

from conftest import WireHeap, compile_text
from test_pending_calls import ManualScheduler

KEY = ClassKey("pkg", "Node")


def wire_equal(ha, a, hb, b, seen=None):
    """Whether value `a`, whose objects are in heap `ha`, and value `b`,
    whose objects are in heap `hb`, are the same graph."""
    if seen is None:
        seen = {}
    ra, rb = ha.record(a), hb.record(b)
    if ra is not None or rb is not None:
        if ra is None or rb is None:
            return False
        if a.oid in seen:
            return seen[a.oid] == b.oid
        seen[a.oid] = b.oid
        return ra.cls == rb.cls and len(ra.fields) == len(rb.fields) and all(
            wire_equal(ha, x, hb, y, seen) for x, y in zip(ra.fields, rb.fields))
    if isinstance(a, CharArray) and isinstance(b, CharArray):
        return a.data == b.data
    if isinstance(a, Array) and isinstance(b, Array):
        return a.elem_tag == b.elem_tag and len(a.items) == len(b.items) and all(
            wire_equal(ha, x, hb, y, seen) for x, y in zip(a.items, b.items))
    if isinstance(a, Char) and isinstance(b, Char):
        return a.code == b.code
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, ObjectRef) and isinstance(b, ObjectRef):
        return a == b
    return type(a) is type(b) and a == b


class TestTagTable:
    def test_null_is_single_zero_byte(self):
        assert encode_value(None) == b"\x00"

    def test_primitive_encodings(self):
        assert encode_value(True) == b"\x01\x01"
        assert encode_value(5) == b"\x02" + (5).to_bytes(8, "big")
        assert encode_value(-1) == b"\x02" + (2**64 - 1).to_bytes(8, "big")
        assert encode_value(Char(65)) == b"\x03A"

    def test_char_array_is_raw_bytes(self):
        data = encode_value(CharArray(b"hello"))
        assert data == bytes([TAG_ARRAY, TAG_CHAR]) + (5).to_bytes(4, "big") + b"hello"

    def test_cyclic_two_node_graph_has_one_back_ref(self):
        heap = WireHeap()
        a = heap(KEY, [])
        b = heap(KEY, [a])
        heap.record(a).fields = [b]
        data = heap.encode(a)
        assert data.count(bytes([TAG_BACK_REF])) >= 1
        # structurally: exactly one back-ref tag appears (count via decode walk)
        out = WireHeap()
        decoded = out.decode(data)
        assert out.record(out.record(decoded).fields[0]).fields[0] == decoded
        # the encoding contains exactly one TAG_BACK_REF marker byte at a tag
        # position: two object nodes, one revisit
        tags = [data[0]]
        assert data[0] == TAG_OBJECT
        assert sum(1 for i in range(len(data)) if data[i] == TAG_BACK_REF) == 1

    def test_shared_node_aliases_preserved(self):
        heap = WireHeap()
        shared = heap(KEY, [7])
        root = heap(KEY, [shared, shared])
        out = WireHeap()
        fields = out.record(out.decode(heap.encode(root))).fields
        assert out.record(fields[0]) is out.record(fields[1])

    def test_remote_ref_round_trip(self):
        ref = ObjectRef("alpha", 3, 99, KEY)
        assert WireHeap().decode(encode_value(ref)) == ref
        heap_ref = ObjectRef("alpha", None, 5, KEY)
        assert WireHeap().decode(encode_value(heap_ref)) == heap_ref


def random_value(rng: random.Random, heap: WireHeap, depth: int = 0,
                 nodes=None):
    if nodes is None:
        nodes = []
    choices = ["null", "bool", "int", "char", "chars", "ref"]
    if depth < 4:
        choices += ["array", "object"]
    if nodes:
        choices.append("back")
    kind = rng.choice(choices)
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-(2**63), 2**63 - 1)
    if kind == "char":
        return Char(rng.randrange(256))
    if kind == "chars":
        return CharArray(bytes(rng.randrange(256) for _ in range(rng.randrange(12))))
    if kind == "ref":
        return ObjectRef(f"h{rng.randrange(3)}", rng.choice([None, 0, 2]),
                         rng.randrange(1000), KEY)
    if kind == "array":
        return Array(TAG_OBJECT, [random_value(rng, heap, depth + 1, nodes)
                                  for _ in range(rng.randrange(4))])
    if kind == "back":
        return rng.choice(nodes)
    node = heap(KEY, [])
    nodes.append(node)
    heap.record(node).fields = [random_value(rng, heap, depth + 1, nodes)
                                for _ in range(rng.randrange(3))]
    return node


class TestRoundTrip:
    def test_thousand_random_values(self):
        rng = random.Random(20_240_817)
        for _ in range(1000):
            heap, out = WireHeap(), WireHeap()
            v = random_value(rng, heap)
            assert wire_equal(out, out.decode(heap.encode(v)), heap, v)

    def test_int_extremes(self):
        for v in (0, 1, -1, 2**63 - 1, -(2**63)):
            assert WireHeap().decode(encode_value(v)) == v


class TestTotality:
    @given(st.binary(max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_never_crashes(self, data):
        try:
            WireHeap().decode(data)
        except MalformedEncoding:
            pass

    def test_unknown_tag(self):
        with pytest.raises(MalformedEncoding):
            WireHeap().decode(b"\x63")

    def test_truncated(self):
        with pytest.raises(MalformedEncoding):
            WireHeap().decode(b"\x02\x00")

    def test_trailing_garbage(self):
        with pytest.raises(MalformedEncoding):
            WireHeap().decode(b"\x00\x00")

    def test_bad_array_element_tag(self):
        with pytest.raises(MalformedEncoding):
            WireHeap().decode(bytes([TAG_ARRAY, TAG_NULL, 0, 0, 0, 0]))

    def test_back_ref_out_of_range(self):
        with pytest.raises(MalformedEncoding):
            WireHeap().decode(bytes([TAG_BACK_REF]) + (0).to_bytes(4, "big"))

    def test_mutation_fuzz_on_valid_encodings(self):
        rng = random.Random(7)
        heap = WireHeap()
        base = heap.encode(random_value(random.Random(3), heap))
        for _ in range(300):
            data = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                WireHeap().decode(bytes(data))
            except MalformedEncoding:
                pass


# --- pinned bytes -------------------------------------------------------------

GOLDEN_SRC = """
package golden;
external class Node {
    external public Node() {}
    public Node a;
    public Node b;
    public int tag;
    public char[] label;
}
external class Echo {
    external public Echo() {}
    public external copy Node bounce(copy Node n) { return n; }
}
"""
GOLDEN_NODE = ClassKey("golden", "Node")
GOLDEN_ECHO = ClassKey("golden", "Echo")


class CapturePort:
    """Keeps every frame the engine sends and answers none."""

    def __init__(self):
        self.frames = []

    def send(self, dst, frame):
        self.frames.append(frame)
        return dst

    def send_via(self, path, dst, frame):
        self.frames.append(frame)

    def knows(self, name):
        return False

    def neighbor_names(self):
        return []


def golden_engine() -> Engine:
    engine = Engine(EngineConfig("a"), ManualScheduler(), CapturePort())
    engine.install_image(compile_text(GOLDEN_SRC, "Golden.hlo"))
    return engine


def sent_payload(engine: Engine, ref: ObjectRef, method: str, args: list) -> bytes:
    """The payload of the INVOKE frame that `Engine.invoke` sends."""
    call = engine.invoke(ref, method, args, None)
    next(call)  # runs up to the wait for the reply, after the send
    return engine.port.frames[-1].payload


def invoke_args(payload: bytes) -> list[bytes]:
    """The encodings of the argument values of an INVOKE payload."""
    r = Reader(payload)
    assert r.u8() == 0  # OP_INVOKE
    r.wstr()
    for _ in range(r.u16()):
        r.raw(SID_LEN)
    heap = WireHeap()
    decode_value_prefix(r, heap)
    r.wstr()
    out = []
    for _ in range(r.u16()):
        start = r.pos
        decode_value_prefix(r, heap)
        out.append(bytes(payload[start:r.pos]))
    assert r.at_end()
    return out


def golden_corpus(engine: Engine) -> dict[str, bytes]:
    """Values as the engine sends them to host b: `$echo` copies its one
    argument, `$setf` sends both of its arguments by reference."""

    def node(tag, label=b"", partition=None):
        return engine.alloc_object(GOLDEN_NODE, partition,
                                   [None, None, tag, CharArray(label)])

    def fields(ref):
        return engine.deref(ref).fields

    lone = node(7, "nœud".encode())
    shared, root = node(1), node(2)
    fields(root)[0] = fields(root)[1] = shared
    a, b = node(3, b"a"), node(4, b"b")
    fields(a)[0] = b
    fields(b)[0] = a
    fields(b)[1] = b
    rng = random.Random(5)
    spine = [node(10 + i, bytes([65 + i])) for i in range(12)]
    for ref in spine:
        fields(ref)[0] = spine[rng.randrange(12)]
        fields(ref)[1] = rng.choice([None, spine[rng.randrange(12)]])
    pinned = node(8, b"p", partition=0)
    copied = {
        "null": None,
        "bool": True,
        "int_min": INT_MIN,
        "char": Char(0xE9),
        "bools": Array(TAG_BOOL, [True, False]),
        "ints": Array(TAG_INT, [0, 1, -1, 255, 256, INT_MAX, INT_MIN]),
        "chars_empty": CharArray(b""),
        "chars_utf8": CharArray("héllo, wörld → ☃".encode()),
        "nested": Array(TAG_ARRAY, [
            Array(TAG_INT, [1, 2]),
            Array(TAG_ARRAY, [Array(TAG_BOOL, []), CharArray(b"deep")]),
            CharArray(b"")]),
        "node": lone,
        "shared": root,
        "cycle": a,
        "refs": Array(TAG_OBJECT, [
            host_ref("a"), hosts_node_ref("a"), host_ref("b"),
            ObjectRef("zz", 3, 5, GOLDEN_NODE), ObjectRef("zz", None, 9, GOLDEN_NODE),
            a, b, None, pinned]),
        "graph": Array(TAG_OBJECT, spine),
        "builtin_ref": host_ref("a"),
    }
    out = {}
    for name, value in copied.items():
        [out[name]] = invoke_args(sent_payload(engine, host_ref("b"), "$echo",
                                               [value]))
    far = ObjectRef("b", 0, 40, GOLDEN_NODE)
    for name, value in (("heap_ref", lone), ("partition_ref", pinned),
                        ("remote_ref", ObjectRef("zz", 2, 77, GOLDEN_NODE))):
        _, out[name] = invoke_args(sent_payload(engine, far, "$setf",
                                                [CharArray(b"a"), value]))
    return out


def cyclic_invoke_payload(engine: Engine) -> bytes:
    """The payload of Echo.bounce(copy Node n) for a three-node cycle with a
    shared node and a self-loop."""
    nodes = [engine.alloc_object(GOLDEN_NODE, None,
                                 [None, None, i, CharArray(b"n%d" % i)])
             for i in range(3)]
    for i, ref in enumerate(nodes):
        engine.deref(ref).fields[0] = nodes[(i + 1) % 3]
    engine.deref(nodes[0]).fields[1] = nodes[2]
    engine.deref(nodes[2]).fields[1] = nodes[2]
    return sent_payload(engine, ObjectRef("b", 0, 12, GOLDEN_ECHO), "bounce",
                        [nodes[0]])


def used_tags(heap: WireHeap, v, seen=None) -> set[int]:
    """The wire tags the encoding of a value decoded into `heap` uses."""
    if seen is None:
        seen = set()
    record = heap.record(v)
    if v is None:
        return {TAG_NULL}
    if isinstance(v, bool):
        return {TAG_BOOL}
    if isinstance(v, int):
        return {TAG_INT}
    if isinstance(v, Char):
        return {TAG_CHAR}
    if isinstance(v, ObjectRef) and record is None:
        return {TAG_REMOTE_REF}
    if isinstance(v, CharArray):
        return {TAG_ARRAY}
    if isinstance(v, Array):
        return {TAG_ARRAY}.union(*(used_tags(heap, x, seen) for x in v.items))
    if v.oid in seen:
        return {TAG_BACK_REF}
    seen.add(v.oid)
    return {TAG_OBJECT}.union(*(used_tags(heap, f, seen) for f in record.fields))


GOLDEN_SHA256 = {
    "null":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "bool":
        "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    "int_min":
        "b439cc8336520f9e35b6194683a147c6732982dd571760005a90df9ea36bdce2",
    "char":
        "1ce0736c78fb44ae96562a609300ec636c06cc4dfc63ba91d978488cff3d2f62",
    "bools":
        "429c74a3dc049a5ea472b82553e85c88cb11a0fd93d92339e155f816238d515e",
    "ints":
        "d6cc90d4fbc3d8b37e548811e19b427b7fb6e7efb54e1b01c693ddb293b73b6c",
    "chars_empty":
        "7aee2bee234587b771ec56a91eab66a7f7ad2911c74eadb2c20f54800dcadb35",
    "chars_utf8":
        "36ee1e21dea9b995ec1b73cfd42a3e142bed056b10e616899e39bccd8c2bfc9b",
    "nested":
        "d38de2dcdfef37a788f0cfa1aac11552d61265b6e2b05af6d4757e9cef9df050",
    "node":
        "c9ce8e298fefdd7f1fc1af5ba06a912979fecff3328219a39618b32407b89f5c",
    "shared":
        "c55ad0bc80f6858791becdd2603d1134f3fb343f61d2da65531d7bfd1de682b1",
    "cycle":
        "e705795788a7fa02e64a597458c371aaf144ba00bdf46017ff5d2e1066120fa2",
    "refs":
        "6cad6672eb165915543d7616c06c017c96f9ea94ec413fd8bb67f1e643a50c1b",
    "graph":
        "ef8f3cc920aed3294b22999e2131894d9e00e03e2082a11ac3522bb2ed85aa4e",
    "builtin_ref":
        "7e4a961c98eedb4ba845bdc57cb9abefa040a0f9dd4ab8db26ea9b48f66c126e",
    "heap_ref":
        "e025ace8820365d28ace65e768b50c2f61bdb92c322aa4af565c9c2e7c3ac6a5",
    "partition_ref":
        "e63b968b8737728d370e24ffc4d3091cd45ba3862c158a1b474262f8e44b53bd",
    "remote_ref":
        "41c55f1571e9c17fdd74df6450759264bb81fe8470c60c3a7bad63ed5a4f0bc5",
}
CYCLIC_INVOKE_SHA256 = (
    "78dd5c802fc07ec89146f0b19d2e62b2d9bbf61808cfaab7188dca1cf6141f18")


class TestGoldenBytes:
    def test_corpus_encodings_pinned(self):
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in golden_corpus(golden_engine()).items()}
        assert got == GOLDEN_SHA256

    def test_cyclic_invoke_payload_pinned(self):
        payload = cyclic_invoke_payload(golden_engine())
        assert hashlib.sha256(payload).hexdigest() == CYCLIC_INVOKE_SHA256

    def test_corpus_uses_every_tag(self):
        corpus = golden_corpus(golden_engine())
        heap = WireHeap()
        tags = set().union(*(used_tags(heap, heap.decode(d))
                             for d in corpus.values()))
        assert tags == set(range(8))
        refs = heap.decode(corpus["refs"]).items
        assert [r.partition for r in refs[:5]] == [0, 0, 0, 3, None]
        assert heap.decode(corpus["heap_ref"]) == ObjectRef(
            "a", None, 10, GOLDEN_NODE)
        assert heap.decode(corpus["partition_ref"]).partition == 0

    def test_decoded_corpus_encodes_to_the_same_bytes(self):
        for name, data in golden_corpus(golden_engine()).items():
            heap = WireHeap()
            assert heap.encode(heap.decode(data)) == data, name


class TestTruncation:
    def test_every_strict_prefix_of_the_golden_encodings_is_malformed(self):
        for name, data in golden_corpus(golden_engine()).items():
            for end in range(len(data)):
                with pytest.raises(MalformedEncoding):
                    WireHeap().decode(data[:end])

    def test_truncated_invoke_frame_logs_one_bad_frame(self):
        payload = cyclic_invoke_payload(golden_engine())
        receiver = Engine(EngineConfig("b"), ManualScheduler(), CapturePort())
        receiver.install_image(compile_text(GOLDEN_SRC, "Golden.hlo"))
        records = len(receiver.objects)
        for end in range(len(payload)):
            before = len(receiver.error_log)
            receiver.handle_wire_frame(
                frames.Frame(frames.INVOKE, 9, payload[:end]), FrameMeta("a"))
            assert [code for code, _ in receiver.error_log[before:]] == ["BadFrame"]
            assert receiver.pending == {}
            assert len(receiver.objects) == records
        assert receiver.port.frames == []
        assert all(q.idle() for q in receiver.queues.values())

    def test_frame_label_skips_a_target_sent_by_value(self):
        heap = WireHeap()
        w = Writer()
        frames.REQUEST_HEAD.write(w, frames.RequestHead(
            frames.OP_INVOKE, "a", [bytes(SID_LEN)]))
        w.raw(heap.encode(heap(GOLDEN_NODE, [None, None, 1, CharArray(b"")])))
        STR.write(w, "poke")
        w.u16(0)
        frame = frames.Frame(frames.INVOKE, 9, w.getvalue())
        assert describe_frame(frame) == "INVOKE:poke"

    def test_refused_cyclic_invoke_adds_no_record(self):
        payload = cyclic_invoke_payload(golden_engine())
        receiver = Engine(EngineConfig("b", lockdown=True), ManualScheduler(),
                          CapturePort())
        receiver.install_image(compile_text(GOLDEN_SRC, "Golden.hlo"))
        records = len(receiver.objects)
        receiver.handle_wire_frame(frames.Frame(frames.INVOKE, 9, payload),
                                   FrameMeta("a"))
        [answer] = receiver.port.frames
        assert answer.kind == frames.ERROR and answer.corr == 9
        assert frames.ERROR_PAYLOAD.unpack(answer.payload).code == "AccessDenied"
        assert len(receiver.objects) == records
        assert receiver.error_log == []


class TestCharArrayCopies:
    SIZE = 4 << 20

    def peak_bytes(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_decoding_copies_the_bytes_once(self):
        data = encode_value(CharArray(bytes(range(256)) * (self.SIZE // 256)))
        value, peak = self.peak_bytes(lambda: WireHeap().decode(data))
        assert bytes(value.data) == data[6:]
        assert peak < 1.25 * self.SIZE

    def test_sending_copies_the_bytes_once(self):
        engine = golden_engine()
        buf = CharArray(bytes(range(256)) * (self.SIZE // 256))
        out, peak = self.peak_bytes(lambda: to_wire(engine, buf, False))
        assert out[6:] == buf.data
        assert peak < 1.25 * self.SIZE
