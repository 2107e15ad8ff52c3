"""Runpack image tests: determinism, round-trip, integrity, and the store."""

import dataclasses
import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from minihello.cli import het
from minihello.errors import EngineError
from minihello.frontend import SourceUnit, check, load_units, parse_package
from minihello.frontend import ast_nodes as A
from minihello.runpack import (ImageFormatError, PackStore, RunpackImage,
                               compile_package, compute_hash, deserialize,
                               serialize, ORIGIN_NETWORK)
from minihello.runpack import image as image_module, ir
from minihello.runpack.image import MAGIC
from minihello.values import ClassKey

from conftest import SAMPLES, compile_text, image_with_body


def _image(sample):
    return compile_package(check(parse_package(load_units(
        os.path.join(SAMPLES, sample)))))


BOX = ClassKey("corpus", "Bäx")


def corpus_image():
    """A hand-built package whose bodies use every IR node kind, every
    operator, every type base, i64 extremes, a negative `++` delta, `create`
    with and without a host, and `if`/`for`/`return`/variable declarations
    with their optional parts both present and left out."""
    box = ir.TypeDesc("class", 0, BOX)
    one = ir.IrInt(1)
    local0, local1, local2 = ir.IrLocal(0), ir.IrLocal(1), ir.IrLocal(2)
    main = ir.IrBlock([
        ir.IrVarDecl(0, ir.TD_INT, ir.IrInt(-2 ** 63)),
        ir.IrVarDecl(1, box, None),
        ir.IrVarDecl(2, ir.TypeDesc("char", 2),
                     ir.IrNewArray(ir.TD_CHAR, [ir.IrInt(2), ir.IrInt(3)])),
        ir.IrAssign(local1, "set", ir.IrNew(BOX, [ir.IrInt(2 ** 63 - 1)])),
        ir.IrAssign(local1, "set", ir.IrCreate(None, BOX, [])),
        ir.IrAssign(local1, "set", ir.IrCreate(
            ir.IrThisHost(), BOX, [ir.IrBool(True), ir.IrNull()])),
        ir.IrAssign(ir.IrIndex(local2, ir.IrInt(0)), "concat", ir.IrStr(0)),
        ir.IrAssign(ir.IrFieldGet(local1, 1, "größe"), "addi", ir.IrChar(255)),
        ir.IrAssign(local0, "subi", ir.IrChar(0)),
        ir.IrExprStmt(ir.IrPostIncr(local0, -1)),
        ir.IrExprStmt(ir.IrPostIncr(ir.IrFieldGet(ir.IrThis(), 0, "n"), -128)),
        ir.IrExprStmt(ir.IrPostIncr(ir.IrIndex(local2, one), 127)),
        ir.IrIf(ir.IrLogic("and", ir.IrBool(False),
                           ir.IrUn("not", ir.IrBool(True))),
                ir.IrNop(), None),
        ir.IrIf(ir.IrLogic("or", ir.IrBool(True), ir.IrBool(False)),
                ir.IrBlock([]), ir.IrReturn(None)),
        ir.IrWhile(ir.IrBin("lt", local0, ir.IrInt(10)),
                   ir.IrExprStmt(ir.IrPostIncr(local0, 1))),
        ir.IrFor(None, None, None, ir.IrBlock([])),
        ir.IrFor(ir.IrVarDecl(3, ir.TD_INT, ir.IrInt(0)),
                 ir.IrBin("le", ir.IrLocal(3), ir.IrInt(3)),
                 ir.IrExprStmt(ir.IrPostIncr(ir.IrLocal(3), 1)),
                 ir.IrBlock([ir.IrNop()])),
        ir.IrExprStmt(ir.IrCallMethod(local1, "name", [])),
        ir.IrExprStmt(ir.IrCallStatic(BOX, "helper", [
            ir.IrTernary(ir.IrBool(True), one, ir.IrUn("neg", one))])),
        ir.IrExprStmt(ir.IrCallBuiltin("print", [ir.IrStr(1)])),
        ir.IrExprStmt(ir.IrIterate(ir.IrHostsRoot(), "print", [ir.IrStr(2)])),
        ir.IrExprStmt(ir.IrQueuedEval(
            ir.IrCreate(None, ClassKey("", "queue"), []), one)),
        ir.IrPost(local1, ir.IrThis(), "bump", [ir.IrInt(5), local0]),
        ir.IrReturn(ir.IrBin("sub", ir.IrInt(0), ir.IrInt(0))),
    ])
    ops = [ir.IrExprStmt(ir.IrBin(op, ir.IrInt(i), ir.IrInt(-i)))
           for i, op in enumerate(("add", "sub", "mul", "div", "mod", "lt",
                                   "le", "gt", "ge", "eq", "ne", "concat"))]
    ops.append(ir.IrReturn(local0))
    helper = ir.MethodCode("helper", ir.MQ_STATIC, [
        ir.IrParam("x", ir.TD_INT, False),
        ir.IrParam("s", ir.TypeDesc("char", 1), True),
        ir.IrParam("b", ir.TypeDesc("class", 1, BOX), False)],
        ir.TD_BOOL, True, 3, ir.IrBlock(ops))
    ctor = ir.MethodCode("Bäx", ir.MQ_PUBLIC | ir.MQ_CTOR, [], ir.TD_VOID,
                         False, 0, ir.IrBlock([]))
    entry = ir.MethodCode("main", ir.MQ_STATIC | ir.MQ_PUBLIC, [], ir.TD_INT,
                          False, 4, main)
    cls = ir.ClassCode("Bäx", ir.CQ_EXTERNAL | ir.CQ_PUBLIC,
                       [("n", ir.TD_INT), ("größe", ir.TD_CHAR),
                        ("flag", ir.TD_BOOL), ("next", box)],
                       [ctor, entry, helper])
    empty = ir.ClassCode("Empty", 0, [], [])
    return RunpackImage("corpus", [cls, empty], [b"hello", b"\x00\xff", b""])


def _node_types(node, out):
    out.add(type(node))
    for attr in node.__slots__:
        value = getattr(node, attr)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ir.IrNode):
                _node_types(child, out)
    return out


# A package that uses every statement and expression form the checker
# accepts, so the frontend's output is pinned as well as the image format.
# The constant pool numbers a method call's arguments before its receiver
# (`hello("b").print("x")`) and an `if`'s else branch before its condition
# and then branch.
FRONTEND_PACKAGE = """\
package golden;

external class Node
{
    enum { K = 3, NEG = -2 * K + 1, M = 17 % 5 - 9 / 2 }

    int n;
    char[] s;
    Node next;
    int[] xs;
    bool on;

    external public Node(int start) { n = start; s = "node"; }

    public external message void bump(int by, copy char[] note)
    {
        n += by;
        s += note;
    }

    static public int helper(int x) { return x * K + NEG; }

    public external int twice(int x) { return x + x - M; }

    public external copy char[] label(char c)
    {
        char[] out = create char[2];
        out[0] = c;
        out[1] = c < 'm' ? 'a' : 'z';
        return out;
    }

    public external void walk()
    {
        int i;
        i = twice(this.n);
        n++;
        this.n++;
        xs = create int[4];
        xs[1]++;
        xs[i % 4] -= helper(i);
        on = !on && (n > 2 || n <= -K);
        if (next == null)
            next = this;
        else {
            next.n += 1;
        }
        for (;;) { break_out(); return; }
    }

    public void break_out() { ; }

    static public void main()
    {
        int a = 7;
        int b;
        a += 2;
        a -= -1;
        b = a / 2 * 3 % 5;
        a++;
        char[] t = "ab";
        t += "cd" + "e";
        bool same = t[0] == 'a' && t[1] != 'c' || t[0] >= 'b';
        char[][] grid = create char[2][3];
        Node[] nodes = create Node[2];
        Node[][] mesh = create Node[1][2];
        mesh[0] = nodes;
        Node x = new Node(1);
        Node y = create Node(2);
        Node z = create (this_host) Node(K);
        nodes[0] = x;
        queue q = create queue();
        queue rq = create (this_host) queue();
        int got = q <=> Node.helper(a);
        rq #> (y, bump(got, "hi"));
        hosts.+print("all");
        hello("b").print("x");
        print(this_host.name());
        int size = sizear(grid, 2) + parse_int("12");
        bool stop = false;
        while (a >= 0 && !stop) {
            a = a - 3;
            stop = true;
        }
        for (int j = 0; j < size; j++)
            z.walk();
        if (same)
            x.n = x.twice(NEG) > 0 ? 1 : -1;
        if (z != null && x.next == null) print(y.label('q'));
        if (parse_int("7") > a) print("then"); else print("else");
        char c = x.s[0];
        Node maybe = same ? null : x;
        maybe = same ? x : null;
        host_group everyone = hosts;
        bool nothing = null == null;
        return;
    }
}

class Plain
{
    Plain self;

    static public int count(int[] xs) { return sizear(xs, 1); }
}
"""


def frontend_image():
    return compile_text(FRONTEND_PACKAGE, "golden.hlo")


def _ast_forms(node, out):
    """Node classes, and the operator of each operator node, under `node`."""
    out.add(type(node))
    if isinstance(node, (A.Binary, A.Unary, A.Assign)):
        out.add((type(node), node.op))
    for value in vars(node).values():
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, A.Node):
                _ast_forms(child, out)
    return out


# (SHA-256 of the serialized image, content hash) per package. These pin
# the .rpk format: a change to either number changes what every host reads.
GOLDEN = {
    "hello_world": (
        "6e1745b18a9bedd92a933b5138ae5d52311e7aac0a3203bd35677b4e992adab0",
        "12294adf972f889672ed064bba76bac76f94f2ed029dc11b7ba41020793d5286"),
    "shell_world": (
        "3aff40424f037ea68de11049849e3ea6fb09d8862b31eb49d79c8aa804fbc653",
        "455d426199a835c44efe312f16309ab2879dc5cf67da92c5d4b58a7f6e55e458"),
    "corpus": (
        "4de819d1c3fcead7ac3721ad4b23f36daac8cd0edb75b28da5011fbdb92ca901",
        "68d2bf1d1f0267b2a5b8cd33c0d9c6080c7d7036e4a6f8fc11bf49fcc13f5920"),
    "frontend": (
        "fb42707ff632a65477f51f5250fb65c794a1fdf411b3570d4adf67c84a93e655",
        "154aa5128ab4e25b76a16b5169c8bc88ccbc7c80ab9634a51e6576c2f83a6836"),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_image_bytes_and_content_hash(self, name):
        images = {"corpus": corpus_image, "frontend": frontend_image}
        image = images[name]() if name in images else _image(name)
        data = serialize(image)
        assert (hashlib.sha256(data).hexdigest(),
                compute_hash(image).hex()) == GOLDEN[name]
        again = deserialize(data)
        assert again.content_hash.hex() == GOLDEN[name][1]
        assert serialize(again) == data

    def test_corpus_round_trips_to_equal_trees(self):
        image = corpus_image()
        again = deserialize(serialize(image))
        assert again.classes == image.classes
        assert again.constants == image.constants

    def test_corpus_uses_every_node_kind(self):
        used = set()
        for cls in corpus_image().classes:
            for m in cls.methods:
                _node_types(m.body, used)
        assert used == set(ir.IrNode.__subclasses__())
        assert len(used) == 34

    def test_frontend_package_uses_every_form(self):
        used = _ast_forms(parse_package([SourceUnit("golden.hlo", FRONTEND_PACKAGE)]),
                          set())
        forms = set(A.Expr.__subclasses__()) | set(A.Stmt.__subclasses__())
        forms |= {(A.Binary, op) for op in ("+", "-", "*", "/", "%", "<", "<=", ">",
                                            ">=", "==", "!=", "&&", "||")}
        forms |= {(A.Unary, "-"), (A.Unary, "!")}
        forms |= {(A.Assign, op) for op in ("=", "+=", "-=")}
        assert forms <= used
        image = frontend_image()
        nodes = set()
        for cls in image.classes:
            for m in cls.methods:
                _node_types(m.body, nodes)
        assert nodes == set(ir.IrNode.__subclasses__())
        assert image.constants == [b"node", b"ab", b"cd", b"e", b"hi", b"all",
                                   b"x", b"b", b"12", b"else", b"7", b"then"]


def _stmt(expr: bytes) -> bytes:
    """Body bytes of a block holding one expression statement (tags 24, 27)."""
    return b"\x18\x00\x01\x1b" + expr


INT_1 = b"\x00" + (1).to_bytes(8, "big")  # IrInt(1), tag 0

# Bodies of an image with one constant and a method of one slot. Each image
# carries a correct content hash, so only the decoder stands between these
# bytes and the engine.
MALFORMED_BODIES = {
    "bad_tag": _stmt(b"\x22"),                          # one past IrNop
    "bad_op": _stmt(b"\x0b\x0c" + INT_1 + INT_1),        # IrBin, op 12 of 0-11
    "pool_out_of_range": _stmt(b"\x03\x00\x00\x00\x01"),  # IrStr(1)
    "slot_out_of_range": _stmt(b"\x05\x00\x01"),         # IrLocal(1)
    "trailing_bytes": _stmt(INT_1) + b"\x21",
    "not_a_block": b"\x21",                             # IrNop
    # 50,000 nested IrUn nodes: deeper than any recursion limit the CLIs set
    "deep_nesting": _stmt(b"\x0d\x00" * 50_000 + INT_1),
    "bad_utf8": _stmt(b"\x12\x00\x02\xff\xfe\x00\x00"),  # IrCallBuiltin
}


class TestMalformedBodies:
    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(),
                             ids=MALFORMED_BODIES.keys())
    def test_rejected_as_malformed(self, body):
        with pytest.raises(ImageFormatError) as exc:
            deserialize(image_with_body(body))
        assert exc.value.code == "MalformedImage"

    def test_in_range_references_accepted(self):
        body = b"\x18\x00\x02\x1b\x05\x00\x00\x1b\x03\x00\x00\x00\x00"
        image = deserialize(image_with_body(body))
        assert image.classes[0].methods[0].body == ir.IrBlock(
            [ir.IrExprStmt(ir.IrLocal(0)), ir.IrExprStmt(ir.IrStr(0))])


class TestCompile:
    def test_hello_world_shape(self):
        image = _image("hello_world")
        assert image.package == "Hello_world"
        assert len(image.classes) == 1
        assert image.find_main() is not None

    def test_zero_class_package_valid(self):
        image = compile_text("package empty;")
        assert image.classes == []
        data = serialize(image)
        assert deserialize(data).package == "empty"

    def test_deterministic_hash(self):
        # two fully independent compile runs must agree byte for byte
        for sample in ("hello_world", "shell_world"):
            a = serialize(_image(sample))
            b = serialize(_image(sample))
            assert a == b

    def test_hash_excludes_hash_field(self):
        image = _image("hello_world")
        data = serialize(image)
        reread = deserialize(data)
        assert reread.content_hash == image.content_hash

    def test_het_encodes_the_image_once(self, tmp_path, monkeypatch):
        encodes = []
        sections = image_module._sections
        monkeypatch.setattr(image_module, "_sections",
                            lambda image: encodes.append(image) or sections(image))
        out = tmp_path / "shell.rpk"
        assert het.main([os.path.join(SAMPLES, "shell_world"), "-o", str(out)]) == 0
        assert len(encodes) == 1
        assert deserialize(out.read_bytes()).content_hash == \
            encodes[0].content_hash == compute_hash(encodes[0])


class TestSerialization:
    def test_round_trip_structural_identity(self):
        for sample in ("hello_world", "shell_world"):
            image = _image(sample)
            again = deserialize(serialize(image))
            assert again.package == image.package
            assert serialize(again) == serialize(image)

    def test_payload_mutation_detected(self):
        data = bytearray(serialize(_image("hello_world")))
        data[-1] ^= 0x5A  # flip a bit inside the bodies section
        with pytest.raises(ImageFormatError) as exc:
            deserialize(bytes(data))
        assert exc.value.code == "HashMismatch"

    def test_every_single_byte_flip_rejected(self):
        data = serialize(compile_text("package tiny;"))
        codes = {}
        for pos in range(len(data)):
            mutated = bytearray(data)
            mutated[pos] ^= 0xFF
            with pytest.raises(ImageFormatError) as exc:
                deserialize(bytes(mutated))
            codes[exc.value.code] = codes.get(exc.value.code, 0) + 1
        assert codes == {"BadMagic": 4, "VersionUnsupported": 2,
                         "TruncatedImage": 20, "HashMismatch": 44}

    def test_empty_bytes_truncated(self):
        with pytest.raises(ImageFormatError) as exc:
            deserialize(b"")
        assert exc.value.code == "TruncatedImage"

    def test_bad_magic(self):
        data = bytearray(serialize(compile_text("package tiny;")))
        data[0:4] = b"NOPE"
        with pytest.raises(ImageFormatError) as exc:
            deserialize(bytes(data))
        assert exc.value.code == "BadMagic"

    def test_version_unsupported(self):
        data = bytearray(serialize(compile_text("package tiny;")))
        data[4:6] = (99).to_bytes(2, "big")
        with pytest.raises(ImageFormatError) as exc:
            deserialize(bytes(data))
        assert exc.value.code == "VersionUnsupported"

    def test_truncated_tail(self):
        data = serialize(_image("hello_world"))
        with pytest.raises(ImageFormatError) as exc:
            deserialize(data[:len(data) // 2])
        assert exc.value.code == "TruncatedImage"

    def test_magic_constant(self):
        assert serialize(compile_text("package tiny;"))[:4] == MAGIC


class TestPackStore:
    def test_resolve_after_install(self):
        store = PackStore()
        image = compile_text("package p1;")
        store.install(image)
        assert store.resolve("p1") is image

    def test_resolve_unknown_absent(self):
        assert PackStore().resolve("nope") is None

    def test_reinstall_identical_is_noop(self):
        store = PackStore()
        image = compile_text("package p1;")
        store.install(image)
        store.install(compile_text("package p1;"))
        assert store.resolve("p1") is image

    def test_network_entry_not_silently_replaced(self):
        store = PackStore()
        fetched = compile_text("package p1; class A { }")
        store.install(fetched, ORIGIN_NETWORK)
        different = compile_text("package p1; class B { }")
        with pytest.raises(EngineError) as exc:
            store.install(different)
        assert exc.value.code == "HashMismatch"

    def test_local_entry_replaceable(self):
        store = PackStore()
        store.install(compile_text("package p1; class A { }"))
        newer = compile_text("package p1; class B { }")
        store.install(newer)
        assert store.resolve("p1") is newer


# --- codec round trip on random trees ----------------------------------------------

SLOTS = 40
POOL = 6
names = st.text(max_size=6)  # any non-surrogate code point, so non-ASCII too
keys = st.builds(ClassKey, names, names)
types = st.one_of(
    st.builds(ir.TypeDesc, st.sampled_from(("void", "int", "bool", "char")),
              st.integers(0, 255)),
    st.builds(ir.TypeDesc, st.just("class"), st.integers(0, 255), keys))
i64 = st.one_of(st.sampled_from((-2 ** 63, -1, 0, 1, 2 ** 63 - 1)),
                st.integers(-2 ** 63, 2 ** 63 - 1))

# One strategy per node class, given the strategy for child nodes.
NODE_STRATEGIES = {
    ir.IrInt: lambda n: st.builds(ir.IrInt, i64),
    ir.IrBool: lambda n: st.builds(ir.IrBool, st.booleans()),
    ir.IrChar: lambda n: st.builds(ir.IrChar, st.integers(0, 255)),
    ir.IrStr: lambda n: st.builds(ir.IrStr, st.integers(0, POOL - 1)),
    ir.IrNull: lambda n: st.builds(ir.IrNull),
    ir.IrLocal: lambda n: st.builds(ir.IrLocal, st.integers(0, SLOTS - 1)),
    ir.IrThis: lambda n: st.builds(ir.IrThis),
    ir.IrThisHost: lambda n: st.builds(ir.IrThisHost),
    ir.IrHostsRoot: lambda n: st.builds(ir.IrHostsRoot),
    ir.IrNop: lambda n: st.builds(ir.IrNop),
    ir.IrFieldGet: lambda n: st.builds(ir.IrFieldGet, n, st.integers(0, 0xFFFF),
                                       names),
    ir.IrIndex: lambda n: st.builds(ir.IrIndex, n, n),
    ir.IrBin: lambda n: st.builds(ir.IrBin, st.sampled_from((
        "add", "sub", "mul", "div", "mod", "lt", "le", "gt", "ge", "eq", "ne",
        "concat")), n, n),
    ir.IrLogic: lambda n: st.builds(ir.IrLogic, st.sampled_from(("and", "or")),
                                    n, n),
    ir.IrUn: lambda n: st.builds(ir.IrUn, st.sampled_from(("neg", "not")), n),
    ir.IrTernary: lambda n: st.builds(ir.IrTernary, n, n, n),
    ir.IrPostIncr: lambda n: st.builds(ir.IrPostIncr, n, st.integers(-128, 127)),
    ir.IrCallMethod: lambda n: st.builds(ir.IrCallMethod, n, names,
                                         st.lists(n, max_size=3)),
    ir.IrCallStatic: lambda n: st.builds(ir.IrCallStatic, keys, names,
                                         st.lists(n, max_size=3)),
    ir.IrCallBuiltin: lambda n: st.builds(ir.IrCallBuiltin, names,
                                          st.lists(n, max_size=3)),
    ir.IrNew: lambda n: st.builds(ir.IrNew, keys, st.lists(n, max_size=3)),
    ir.IrCreate: lambda n: st.builds(ir.IrCreate, st.none() | n, keys,
                                     st.lists(n, max_size=3)),
    ir.IrNewArray: lambda n: st.builds(ir.IrNewArray, types,
                                       st.lists(n, min_size=1, max_size=2)),
    ir.IrQueuedEval: lambda n: st.builds(ir.IrQueuedEval, n, n),
    ir.IrIterate: lambda n: st.builds(ir.IrIterate, n, names,
                                      st.lists(n, max_size=3)),
    ir.IrBlock: lambda n: st.builds(ir.IrBlock, st.lists(n, max_size=4)),
    ir.IrVarDecl: lambda n: st.builds(ir.IrVarDecl, st.integers(0, SLOTS - 1),
                                      types, st.none() | n),
    ir.IrAssign: lambda n: st.builds(ir.IrAssign, n, st.sampled_from(
        ("set", "addi", "subi", "concat")), n),
    ir.IrExprStmt: lambda n: st.builds(ir.IrExprStmt, n),
    ir.IrIf: lambda n: st.builds(ir.IrIf, n, n, st.none() | n),
    ir.IrWhile: lambda n: st.builds(ir.IrWhile, n, n),
    ir.IrFor: lambda n: st.builds(ir.IrFor, st.none() | n, st.none() | n,
                                  st.none() | n, n),
    ir.IrReturn: lambda n: st.builds(ir.IrReturn, st.none() | n),
    ir.IrPost: lambda n: st.builds(ir.IrPost, n, n, names,
                                   st.lists(n, max_size=3)),
}

LEAVES = (ir.IrInt, ir.IrBool, ir.IrChar, ir.IrStr, ir.IrNull, ir.IrLocal,
          ir.IrThis, ir.IrThisHost, ir.IrHostsRoot, ir.IrNop)
nodes = st.recursive(
    st.one_of([NODE_STRATEGIES[cls](None) for cls in LEAVES]),
    lambda n: st.one_of([make(n) for cls, make in NODE_STRATEGIES.items()
                         if cls not in LEAVES]),
    max_leaves=12)
bodies = st.builds(ir.IrBlock, st.lists(nodes, max_size=4))


@st.composite
def images(draw):
    params = draw(st.lists(st.builds(ir.IrParam, names, types, st.booleans()),
                           max_size=3))
    methods = [ir.MethodCode(draw(names), draw(st.integers(0, 255)), params,
                             draw(types), draw(st.booleans()), SLOTS, body)
               for body in draw(st.lists(bodies, min_size=1, max_size=2))]
    fields = draw(st.lists(st.tuples(names, types), max_size=3))
    cls = ir.ClassCode(draw(names), draw(st.integers(0, 255)), fields, methods)
    constants = draw(st.lists(st.binary(max_size=8), min_size=POOL,
                              max_size=POOL))
    return RunpackImage(draw(names), [cls], constants)


class TestCodecRoundTrip:
    def test_strategies_and_table_cover_every_node_class(self):
        every = set(ir.IrNode.__subclasses__())
        assert set(NODE_STRATEGIES) == every
        assert {entry[0] for entry in ir.NODE_TABLE} == every
        for cls, *codecs in ir.NODE_TABLE:
            assert len(codecs) == len(dataclasses.fields(cls)), cls

    @settings(max_examples=100, deadline=None)
    @given(images())
    def test_decode_of_encode_is_equal_and_reencodes_identically(self, image):
        data = serialize(image)
        again = deserialize(data)
        assert again.package == image.package
        assert again.classes == image.classes
        assert again.constants == image.constants
        assert serialize(again) == data
