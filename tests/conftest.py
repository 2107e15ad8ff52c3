"""Shared fixtures: compiled sample images, scenario builders, graph oracles."""

from __future__ import annotations

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from minihello.engine.engine import TaskCtx  # noqa: E402
from minihello.engine.objects import ObjectRecord  # noqa: E402
from minihello.frontend import SourceUnit, check, load_units, parse_package  # noqa: E402
from minihello.bio import Reader, Writer  # noqa: E402
from minihello.runpack import RunpackImage, compile_package, ir, serialize  # noqa: E402
from minihello.simharness import Scenario  # noqa: E402
from minihello.net.wirevalues import decode_value, write_value  # noqa: E402
from minihello.values import Array, CharArray, ObjectRef  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SAMPLES = os.path.join(REPO_ROOT, "samples")

_CRITERION_TITLES = {
    "01": "broadcast on a 3-host mesh",
    "02": "remote shell: 10 MiB byte-identical, none when unbuffered",
    "03": "queue barrier counts every message (200 schedules)",
    "04": "deep copy isomorphic across hosts (100 graphs)",
    "05": "on-demand runpack transfer, single fetch",
    "06": "multi-hop routing and fail-fast on dead hop",
    "07": "group traversal exactly once (50 topologies)",
    "08": "event fires exactly once on completion",
    "09": "SID gating: lockdown, grants, truth table",
    "10": "determinism and transport equivalence",
}


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    marker = None
    for tag in _CRITERION_TITLES:
        if f"Criterion{tag}" in report.nodeid:
            marker = tag
            break
    if marker is None:
        return
    verdict = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\nACCEPTANCE {marker} [{verdict}] {_CRITERION_TITLES[marker]} :: {name}")


def image_with_body(body: bytes, package: str = "bad") -> bytes:
    """A serialized image with a correct content hash whose one method, with
    one slot and one constant in the pool, has the raw body bytes `body`."""
    method = ir.MethodCode("m", ir.MQ_STATIC, [], ir.TD_VOID, False, 1,
                           ir.IrBlock([]))
    data = serialize(RunpackImage(package, [ir.ClassCode("C", 0, [], [method])],
                                  [b"k"]))
    r = Reader(data[6:])
    name, _, classes, constants, _ = [r.lp_bytes() for _ in range(5)]
    sections = [name, classes, constants, Writer().lp_bytes(body).getvalue()]
    hashed = Writer()
    for section in sections:
        hashed.lp_bytes(section)
    out = Writer().raw(data[:6]).lp_bytes(name)
    out.lp_bytes(hashlib.sha256(hashed.getvalue()).digest())
    for section in sections[1:]:
        out.lp_bytes(section)
    return out.getvalue()


def compile_dir(path: str):
    return compile_package(check(parse_package(load_units(path))))


def compile_text(text: str, path: str = "test.hlo"):
    return compile_package(check(parse_package([SourceUnit(path, text)])))


@pytest.fixture(scope="session")
def hello_image():
    return compile_dir(os.path.join(SAMPLES, "hello_world"))


@pytest.fixture(scope="session")
def shell_image():
    return compile_dir(os.path.join(SAMPLES, "shell_world"))


COUNTER_SRC = """
package qtest;
external class Counter {
    external public Counter() {}
    public int n;
    public message void bump() { n = n + 1; }
    public external message void poke() { n = n + 10; }
    public external int read() { return n; }
}
"""

GRAPH_SRC = """
package graphs;
external class Node {
    external public Node() {}
    public Node a;
    public Node b;
    public int tag;
    public char[] label;
    public Node[] all;
}
class Hidden {
    public int x;
}
"""


@pytest.fixture(scope="session")
def counter_image():
    return compile_text(COUNTER_SRC, "Counter.hlo")


@pytest.fixture(scope="session")
def graph_image():
    return compile_text(GRAPH_SRC, "Graph.hlo")


def mesh_scenario(names, seed=0, **cfg) -> Scenario:
    """Fully-connected scenario over the given host names, already started."""
    scen = Scenario(seed=seed, **cfg)
    for n in names:
        scen.add_host(n)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            scen.link(a, b)
    scen.start()
    return scen


def line_scenario(names, seed=0, **cfg) -> Scenario:
    scen = Scenario(seed=seed, **cfg)
    for n in names:
        scen.add_host(n)
    for a, b in zip(names, names[1:]):
        scen.link(a, b)
    scen.start()
    return scen


def run_task(scen: Scenario, host: str, gen_fn):
    """Run one engine-level task to completion; returns its value."""
    engine = scen.hosts[host].engine

    def factory():
        ctx = TaskCtx(engine.new_queue(label="drv"))
        return gen_fn(engine, ctx)

    fut = scen.submit_task(host, factory)
    scen.run()
    return fut.result()


# --- a heap for the wire codec's tests ----------------------------------------

class WireHeap:
    """A heap outside any engine, for tests of the wire codec. It is an
    object constructor of the decoder, as the engine's `Intake` is: each
    decoded object becomes a record here, named by a ref to host `HOST`.
    `record` is also the rule by which `write_value` writes those refs as
    object nodes, so objects built here travel by value."""

    HOST = "wire-heap"

    def __init__(self):
        self.records: dict[int, ObjectRecord] = {}

    def __call__(self, cls, fields: list) -> ObjectRef:
        oid = len(self.records)
        self.records[oid] = ObjectRecord(cls, fields, None)
        return ObjectRef(self.HOST, None, oid, cls)

    def record(self, v) -> ObjectRecord | None:
        """The record of one of this heap's objects; None for any other
        value."""
        if isinstance(v, ObjectRef) and v.host == self.HOST:
            return self.records[v.oid]
        return None

    def encode(self, v) -> bytes:
        out = bytearray()
        write_value(out, v, self.record)
        return bytes(out)

    def decode(self, data: bytes):
        return decode_value(data, self)


# --- independent graph-isomorphism oracle -----------------------------------

def reachable_nodes(engine, value, acc=None) -> set:
    """Distinct object identities reachable from a value at one engine."""
    if acc is None:
        acc = set()
    if isinstance(value, ObjectRef):
        key = (value.host, value.partition, value.oid)
        if key in acc:
            return acc
        acc.add(key)
        for f in engine.deref(value).fields:
            reachable_nodes(engine, f, acc)
    elif isinstance(value, Array):
        for item in value.items:
            reachable_nodes(engine, item, acc)
    return acc


def graphs_isomorphic(ea, va, eb, vb, mapping=None) -> bool:
    """Structural bijection check between two object graphs living on
    (possibly different) engines. Written as an independent oracle: it walks
    records directly and never touches the marshaling code."""
    if mapping is None:
        mapping = {}
    if isinstance(va, ObjectRef) or isinstance(vb, ObjectRef):
        if not (isinstance(va, ObjectRef) and isinstance(vb, ObjectRef)):
            return False
        ka = (va.host, va.partition, va.oid)
        kb = (vb.host, vb.partition, vb.oid)
        if ka in mapping:
            return mapping[ka] == kb
        if kb in mapping.values():
            return False
        if va.cls != vb.cls:
            return False
        mapping[ka] = kb
        ra, rb = ea.deref(va), eb.deref(vb)
        if len(ra.fields) != len(rb.fields):
            return False
        return all(graphs_isomorphic(ea, fa, eb, fb, mapping)
                   for fa, fb in zip(ra.fields, rb.fields))
    if isinstance(va, CharArray) or isinstance(vb, CharArray):
        return isinstance(va, CharArray) and isinstance(vb, CharArray) \
            and va.data == vb.data
    if isinstance(va, Array) or isinstance(vb, Array):
        if not (isinstance(va, Array) and isinstance(vb, Array)):
            return False
        if len(va.items) != len(vb.items):
            return False
        return all(graphs_isomorphic(ea, xa, eb, xb, mapping)
                   for xa, xb in zip(va.items, vb.items))
    if isinstance(va, bool) or isinstance(vb, bool):
        return va is vb
    return va == vb
