"""The three workloads: inputs, set-up, one op, and the check of its outputs.

Each workload runs on the deterministic simulator in this one process. An op
is closed-loop: it starts after the previous op and the simulation it caused
have come to rest. `before` prepares an op's inputs and `check` verifies its
outputs; neither is timed.
"""

from __future__ import annotations

import gc
import os
import random

from minihello.cli import het
from minihello.engine.engine import TaskCtx
from minihello.net.frames import HEADER_LEN
from minihello.runpack import load_file
from minihello.simharness import Scenario
from minihello.values import Array, CharArray, ClassKey, ObjectRef, TAG_OBJECT

import interp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

# Liveness pings and path gossip run on the simulated clock, not per op;
# the frames they send are left out of wire_kib_per_op.
MAINTENANCE_FRAMES = ("PING", "PONG", "GOSSIP")


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def compile_package(src_dir: str, rpk_path: str):
    """Translate a package as the het CLI does, then load the image."""
    if het.main([src_dir, "-o", rpk_path]) != 0:
        raise RuntimeError(f"het failed on {src_dir}")
    return load_file(rpk_path)


class Workload:
    name = ""
    round_ops = 1      # a run does whole rounds of these ops
    warmup_ops = 0     # untimed ops after set-up
    setups = 1         # set-up repetitions; setup_s is their median
    tail_pct = 90      # the percentile reported as op_tail_ms
    rss_ops = 1        # peak RSS is read after this many timed ops
    timing = "python"  # the reference op times are scaled by (run.py)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scen: Scenario | None = None
        self._frames_seen = 0

    def prepare(self) -> None:
        """Make the seeded inputs (not timed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def before(self, i: int):
        return None

    def op(self, i: int, arg):
        raise NotImplementedError

    def check(self, i: int, arg, out) -> None:
        raise NotImplementedError

    def check_run(self) -> None:
        """Checks on the whole run, after the last op."""

    def cleanup(self) -> None:
        """Remove large generated inputs."""

    def start_round(self) -> None:
        """Called before each timed round."""

    # counters read between ops ---------------------------------------------

    def counters(self) -> tuple[int, int, int, int]:
        """Simulated clock, simulator events, live queues and runpack
        fetches; run.py sums their change over each op."""
        engines = [h.engine for h in self.scen.hosts.values()]
        return (self.scen.core.now, self.scen.core.events_run,
                sum(len(e.queues) for e in engines),
                sum(e.fetch_frames_sent for e in engines))

    def wire_bytes(self) -> int:
        """Bytes of the frames delivered since the last call, header plus
        payload, leaving out the maintenance frames."""
        log = self.scen.network.frame_log
        total = sum(HEADER_LEN + size
                    for _t, _s, _d, kind, size, _i in log[self._frames_seen:]
                    if kind not in MAINTENANCE_FRAMES)
        self._frames_seen = len(log)
        return total

    def _check_quiet_errors(self) -> None:
        for name, host in self.scen.hosts.items():
            if host.engine.error_log:
                raise CheckFailed(f"{name} logged errors: {host.engine.error_log}")

    def _new_scenario(self) -> Scenario:
        self.scen = Scenario(seed=self.seed)
        self._frames_seen = 0
        return self.scen


class Interp(Workload):
    """One host, no links: `main` of a large generated package."""

    name = "interp"
    round_ops = interp.ROUND
    warmup_ops = interp.ROUND
    setups = 7
    tail_pct = 95  # 300 to 400 ops a run
    rss_ops = 64

    def prepare(self) -> None:
        self.recipe = interp.Recipe(self.seed)
        self.src_dir = os.path.join(self.workdir, f"interp-{self.seed}")
        os.makedirs(self.src_dir, exist_ok=True)
        with open(os.path.join(self.src_dir, "Interp.hlo"), "w",
                  encoding="utf-8") as f:
            f.write(self.recipe.source())
        self.expected = [self.recipe.expected(k) for k in range(interp.ROUND)]

    def setup(self) -> None:
        self.image = compile_package(
            self.src_dir, os.path.join(self.workdir, f"interp-{self.seed}.rpk"))
        scen = self._new_scenario()
        scen.add_host("solo", primary=True)
        scen.start()
        self.engine = scen.hosts["solo"].engine

    def op(self, i: int, arg):
        fut = self.engine.run_main(self.image, [str(i % interp.ROUND)])
        self.scen.run()
        return fut.result()

    def check(self, i: int, arg, out) -> None:
        want = self.expected[i % interp.ROUND]
        if out != want:
            raise CheckFailed(f"main({i % interp.ROUND}) returned {out}, model says {want}")
        self._check_quiet_errors()


# --------------------------------------------------------------------------

MESH_HOSTS = [f"h{i}" for i in range(8)]
GRAPH_NODES = 24
NODE = ClassKey("meshbench", "Node")
ECHO = ClassKey("meshbench", "Echo")


def mesh_links(names: list[str]) -> list[tuple[str, str]]:
    """A ring with a chord from every host to the opposite one: each host
    has three neighbors, and the host two steps along the ring is two hops
    away."""
    n = len(names)
    ring = [(names[i], names[(i + 1) % n]) for i in range(n)]
    chords = [(names[i], names[i + n // 2]) for i in range(n // 2)]
    return ring + chords


def greeting(origin: str) -> bytes:
    return f"Hello, world!\n{origin}:-)\n".encode()


class SimMesh(Workload):
    """Eight hosts: a `hosts` broadcast and a deep-copy round trip per op.

    Engines never release queues, and every op leaves objects and frame-log
    entries behind, so per-op cost and memory grow with the ops a scenario
    has served. Each timed round therefore starts on freshly started hosts,
    after a full collection, and does the same 48 ops. That is short enough
    that no full collection of Python's cyclic collector, whose cost grows
    with everything the run keeps alive, falls inside an op; in 256-op
    rounds three did, and p99 ranged over a fifth of its median between
    runs."""

    name = "sim-mesh"
    round_ops = 6 * len(MESH_HOSTS)
    warmup_ops = len(MESH_HOSTS)
    setups = 15
    tail_pct = 99  # 3,000 to 4,500 ops a run
    rss_ops = round_ops

    def prepare(self) -> None:
        self.rng = random.Random(f"mesh|{self.seed}")

    def setup(self) -> None:
        self.image = compile_package(
            os.path.join(BENCH_DIR, "packages", "meshbench"),
            os.path.join(self.workdir, "meshbench.rpk"))
        self._hosts_up()

    def start_round(self) -> None:
        self.scen = None
        gc.collect()
        self._hosts_up()

    def _hosts_up(self) -> None:
        scen = self._new_scenario()
        for name in MESH_HOSTS:
            scen.add_host(name, primary=name == MESH_HOSTS[0])
        for a, b in mesh_links(MESH_HOSTS):
            scen.link(a, b)
        scen.start()
        scen.hosts[MESH_HOSTS[0]].engine.install_image(self.image)
        self.bench_queues = {name: scen.hosts[name].engine.new_queue(label="bench")
                        for name in MESH_HOSTS}

        def place_echoes(engine, ctx):
            refs = {}
            for name in MESH_HOSTS:
                where = ("partition", 0) if name == engine.host_name \
                    else ("remote", name, None)
                refs[name] = yield from engine.create_object(ECHO, where, [], ctx)
            return refs

        self.echo = self._task(MESH_HOSTS[0], place_echoes)

    def _task(self, host: str, gen_fn):
        """Run an engine-level task on the host's benchmark queue."""
        engine, queue = self.scen.hosts[host].engine, self.bench_queues[host]
        fut = self.scen.submit_task(
            host, lambda: gen_fn(engine, TaskCtx(queue)), queue=queue)
        self.scen.run()
        return fut.result()

    def before(self, i: int):
        origin = MESH_HOSTS[i % len(MESH_HOSTS)]
        return origin, build_graph(self.scen.hosts[origin].engine, self.rng,
                                   GRAPH_NODES)

    def op(self, i: int, arg):
        origin, root = arg
        target = MESH_HOSTS[(i + 2) % len(MESH_HOSTS)]
        fut = self.scen.hosts[origin].engine.run_main(self.image, [])
        self.scen.run()
        fut.result()
        echo = self.echo[target]

        def bounce(engine, ctx):
            return (yield from engine.invoke(echo, "bounce", [root], ctx))

        return self._task(origin, bounce)

    def check(self, i: int, arg, out) -> None:
        origin, root = arg
        want = greeting(origin)
        for name, host in self.scen.hosts.items():
            got = bytes(host.engine.stdout_bytes)
            del host.engine.stdout_bytes[:]
            if got != want:
                raise CheckFailed(f"{name} printed {got!r} for a broadcast from {origin}")
        engine = self.scen.hosts[origin].engine
        if not isinstance(out, ObjectRef) or out.host != origin:
            raise CheckFailed(f"bounce returned {out!r}, not a graph at {origin}")
        if not graphs_isomorphic(engine, root, out):
            raise CheckFailed("the returned graph is not isomorphic to the original")
        if reachable(engine, root) & reachable(engine, out):
            raise CheckFailed("the returned graph shares objects with the original")
        self._check_quiet_errors()


def build_graph(engine, rng: random.Random, n: int) -> ObjectRef:
    """A seeded cyclic graph of n Nodes. Every a/b field points at a node
    and every label is one byte, so its wire size does not depend on the
    seed; the root's spine lists all nodes, so all are reachable."""
    refs = [engine.alloc_object(
                NODE, None, [None, None, i, CharArray(bytes([65 + i % 26])), None])
            for i in range(n)]
    for ref in refs:
        fields = engine.deref(ref).fields
        fields[0] = refs[rng.randrange(n)]
        fields[1] = refs[rng.randrange(n)]
    engine.deref(refs[0]).fields[4] = Array(TAG_OBJECT, list(refs))
    return refs[0]


def _key(ref: ObjectRef) -> tuple:
    return ref.host, ref.partition, ref.oid


def reachable(engine, value) -> set:
    """Identities of the objects reachable from a value, by walking records."""
    seen = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, ObjectRef):
            if _key(v) not in seen:
                seen.add(_key(v))
                stack.extend(engine.deref(v).fields)
        elif isinstance(v, Array):
            stack.extend(v.items)
    return seen


def graphs_isomorphic(engine, a, b) -> bool:
    """A bijection between the objects of two graphs that preserves class,
    every field, arrays and char data; walks records, never marshal code."""
    mapping: dict[tuple, tuple] = {}
    used: set[tuple] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, ObjectRef) or isinstance(y, ObjectRef):
            if not (isinstance(x, ObjectRef) and isinstance(y, ObjectRef)):
                return False
            kx, ky = _key(x), _key(y)
            if kx in mapping:
                if mapping[kx] != ky:
                    return False
                continue
            if ky in used or x.cls != y.cls:
                return False
            mapping[kx] = ky
            used.add(ky)
            fx, fy = engine.deref(x).fields, engine.deref(y).fields
            if len(fx) != len(fy):
                return False
            stack.extend(zip(fx, fy))
        elif isinstance(x, CharArray) or isinstance(y, CharArray):
            if not (isinstance(x, CharArray) and isinstance(y, CharArray)
                    and x.data == y.data):
                return False
        elif isinstance(x, Array) or isinstance(y, Array):
            if not (isinstance(x, Array) and isinstance(y, Array)
                    and x.elem_tag == y.elem_tag and len(x.items) == len(y.items)):
                return False
            stack.extend(zip(x.items, y.items))
        elif type(x) is not type(y) or x != y:
            return False
    return True


# --------------------------------------------------------------------------

BULK_BYTES = 10 * 1024 * 1024


class SimBulk(Workload):
    """Two hosts: the shell_world sample runs `cat` on b and streams a
    10 MiB file back to a."""

    name = "sim-bulk"
    # An op mostly copies 4 MiB buffers and waits on the pipe that cat fills
    # on the other CPU: thread CPU time would leave the waiting out, and the
    # pure-Python reference loop does not follow copying speed.
    timing = "memory"
    round_ops = 1
    warmup_ops = 1  # fetches the runpack to b
    setups = 15
    tail_pct = 95  # 450 to 550 ops a run
    rss_ops = 64

    def prepare(self) -> None:
        self.data = random.Random(f"bulk|{self.seed}").randbytes(BULK_BYTES)
        self.path = os.path.join(self.workdir, f"bulk-{self.seed}.bin")
        if any(ch.isspace() for ch in self.path):
            raise RuntimeError(f"the shell command cannot name {self.path!r}")
        with open(self.path, "wb") as f:
            f.write(self.data)

    def setup(self) -> None:
        self.image = compile_package(
            os.path.join(REPO_ROOT, "samples", "shell_world"),
            os.path.join(self.workdir, "shell_world.rpk"))
        scen = self._new_scenario()
        scen.add_host("a", primary=True)
        scen.add_host("b")
        scen.link("a", "b")
        scen.start()

    def op(self, i: int, arg):
        fut = self.scen.hosts["a"].engine.run_main(
            self.image, ["b", "4", "cat", self.path])
        self.scen.run()
        return fut.result()

    def check(self, i: int, arg, out) -> None:
        a, b = self.scen.hosts["a"].engine, self.scen.hosts["b"].engine
        got_a, got_b = bytes(a.stdout_bytes), bytes(b.stdout_bytes)
        del a.stdout_bytes[:]
        del b.stdout_bytes[:]
        if out != 0:
            raise CheckFailed(f"main returned {out}")
        if got_a != self.data:
            raise CheckFailed(f"a's stdout differs from the file ({len(got_a)} bytes)")
        if got_b:
            raise CheckFailed(f"b printed {len(got_b)} bytes")
        self._check_quiet_errors()

    def check_run(self) -> None:
        fetches = [f for f in self.scen.network.frame_log if f[3] == "FETCH_PACK"]
        if len(fetches) != 1:
            raise CheckFailed(f"{len(fetches)} runpack fetches in one run, want 1")

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)


WORKLOADS = {w.name: w for w in (Interp, SimMesh, SimBulk)}
