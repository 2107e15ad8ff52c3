"""Scenario orchestration: build hosts over the simulated network, bring the
topology up, run programs and scripted faults, and capture a transcript.

A transcript is a pure function of (topology, script, seed): per-host stdout,
every delivered frame, errors, host events, exit codes, and the final
neighborhoods and path tables, with a canonical byte serialization for
whole-run comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..bio import BYTES, STR, U8, U32, U64, Reader, list_of, tuple_of
from ..engine.engine import Engine, EngineConfig
from ..errors import EngineError
from ..net import frames
from ..net.router import Router
from ..net.wirevalues import decode_value_prefix
from ..runpack.image import RunpackImage, load_file
from ..runtime import Future, Request
from .network import SimNetwork
from .scheduler import SimScheduler
from .topology import Topology


class ScenarioDeadlock(Exception):
    pass


def _no_object(_cls, _fields) -> None:  # the constructor of skipped values
    return None


def describe_frame(frame: frames.Frame) -> str:
    """Best-effort label for the frame log (op and method names)."""
    try:
        if frame.kind == frames.INVOKE:
            r = Reader(frame.payload)
            op = frames.REQUEST_HEAD.read(r).op
            if op == frames.OP_INVOKE:
                decode_value_prefix(r, _no_object)
                return f"INVOKE:{STR.read(r)}"
            if op == frames.OP_POST:
                decode_value_prefix(r, _no_object)
                decode_value_prefix(r, _no_object)
                return f"POST:{STR.read(r)}"
            if op == frames.OP_CREATE:
                return f"CREATE:{frames.CREATE_HEAD.read(r).cls}"
            if op == frames.OP_BARRIER:
                return "BARRIER"
        if frame.kind == frames.ROUTE:
            route = frames.ROUTE_PAYLOAD.unpack(frame.payload)
            inner = frames.decode_frame_bytes(route.inner)
            return f"ROUTE[{route.target}]:{describe_frame(inner)}"
        if frame.kind == frames.EVENT_POST:
            op = frames.REQUEST_HEAD.unpack(frame.payload).op
            return "EVENT:create" if op == frames.EV_CREATE else "EVENT:fill"
    except Exception:
        pass
    return frames.KIND_NAMES.get(frame.kind, "?")


# A transcript's bytes: the seed and end tick; per host, in name order, its
# name, exit code, stdout, errors, host events, neighbors and path table;
# then every delivered frame.
_TRANSCRIPT = tuple_of(U64, U64, list_of(tuple_of(
    STR, STR, BYTES, list_of(tuple_of(STR, STR), U32),
    list_of(tuple_of(U64, STR, STR), U32), list_of(STR),
    list_of(tuple_of(STR, list_of(STR, U8))))),
    list_of(tuple_of(U64, STR, STR, STR, U32, STR), U32))


@dataclass
class Transcript:
    seed: int
    end_tick: int
    stdout: dict[str, bytes]
    frames: list[tuple]
    errors: dict[str, list[tuple[str, str]]]
    events: dict[str, list[tuple[int, str, str]]]
    exit_codes: dict[str, object]
    neighborhoods: dict[str, list[str]]
    path_tables: dict[str, dict[str, list[str]]]

    def to_bytes(self) -> bytes:
        hosts = [(host, repr(self.exit_codes.get(host)), self.stdout[host],
                  [(code, ctx[:200]) for code, ctx in self.errors.get(host, [])],
                  self.events.get(host, []), self.neighborhoods.get(host, []),
                  sorted(self.path_tables.get(host, {}).items()))
                 for host in sorted(self.stdout)]
        return bytes(_TRANSCRIPT.pack(
            (self.seed, self.end_tick, hosts, self.frames)))

    def frames_between(self, src: str, dst: str) -> list[tuple]:
        return [f for f in self.frames if f[1] == src and f[2] == dst]

    def greeting_lines(self, host: str) -> list[bytes]:
        return [ln for ln in self.stdout.get(host, b"").split(b"\n") if ln]


@dataclass
class SimHost:
    name: str
    engine: Engine
    router: Router


class Scenario:
    def __init__(self, seed: int = 0, **config_defaults):
        self.seed = seed
        self.core = SimScheduler(seed)
        self.network = SimNetwork(self.core)
        self.network.frame_info = describe_frame
        self.hosts: dict[str, SimHost] = {}
        self.links: list[tuple[str, str, int]] = []
        self.mains: list[tuple[str, Future]] = []
        self.host_events: dict[str, list[tuple[int, str, str]]] = {}
        self.config_defaults = config_defaults

    # ----------------------------------------------------------------- building

    def add_host(self, name: str, primary: bool = False, **cfg) -> SimHost:
        settings = dict(self.config_defaults)
        settings.update(cfg)
        config = EngineConfig(host_name=name, listen=name, primary=primary,
                              **settings)
        view = self.core.view(name)
        rng = random.Random(f"{self.seed}|{name}")
        engine = Engine(config, view, incarnation=rng.getrandbits(32))
        self.network.add_host(name)
        transport = self.network.transport_for(name)
        router = Router(name, transport, view, config, engine)
        router.listen()
        self.host_events[name] = []

        def hook(kind: str, detail: str, _name=name):
            self.host_events[_name].append((self.core.now, kind, detail))

        engine.on_host_event = hook
        host = SimHost(name, engine, router)
        self.hosts[name] = host
        return host

    def link(self, a: str, b: str, latency: int = 1) -> None:
        self.network.add_link(a, b, latency)
        self.links.append((a, b, latency))

    def start(self) -> None:
        """Bring the topology up: dial every link, settle handshakes and
        path gossip."""
        for a, b, _latency in self.links:
            router = self.hosts[a].router

            def dial(router=router, peer=b):
                router.connect(peer)

            self.core.schedule(0, dial, a)
        self.core.run_until_quiet()

    # ------------------------------------------------------------------ running

    def run_main(self, host: str, image: RunpackImage, argv: list[str] | None = None):
        fut = self.hosts[host].engine.run_main(image, argv or [])
        self.mains.append((host, fut))
        return fut

    def submit_task(self, host: str, factory, queue=None) -> Future:
        """Engine-level helper for tests: run a task generator on a fresh
        queue of the given host."""
        engine = self.hosts[host].engine
        q = queue if queue is not None else engine.new_queue()
        fut = Future()
        engine.scheduler.submit(q, Request(factory, fut))
        return fut

    def at(self, tick: int, fn) -> None:
        delay = max(tick - self.core.now, 0)
        self.core.schedule(delay, fn, "$script")

    def drop_link(self, a: str, b: str) -> None:
        self.network.drop_link(a, b)

    def kill_host(self, name: str) -> None:
        if name not in self.hosts:
            raise EngineError("UnknownEntity", f"no host {name}")
        self.network.kill_host(name)

    def delay_link(self, a: str, b: str, extra: int) -> None:
        self.network.set_extra_delay(a, b, extra)

    def settle_until(self, tick: int) -> None:
        """Keep the simulation alive (processing maintenance such as pings)
        at least until the given tick."""
        self.at(tick, lambda: None)

    def run(self) -> None:
        """Run to quiescence; raise ScenarioDeadlock if live tasks are parked
        with nothing left to wake them. With no work event left, a queue is
        busy exactly when its task is parked."""
        self.core.run_until_quiet()
        waiting = {}
        for name, host in self.hosts.items():
            busy = sum(q.busy for q in host.engine.queues.values())
            if busy and name not in self.core.dead:
                waiting[name] = busy
        if waiting:
            raise ScenarioDeadlock(f"parked tasks with no runnable events: {waiting}")

    # --------------------------------------------------------------- transcript

    def transcript(self) -> Transcript:
        stdout = {}
        errors = {}
        exit_codes = {}
        neighborhoods = {}
        path_tables = {}
        for name, host in sorted(self.hosts.items()):
            stdout[name] = bytes(host.engine.stdout_bytes)
            errors[name] = list(host.engine.error_log)
            neighborhoods[name] = host.router.neighbor_names()
            path_tables[name] = {dest: list(hops) for dest, (hops, _src)
                                 in sorted(host.router.path_table.items())}
        for name, fut in self.mains:
            if not fut.done():
                exit_codes[name] = None
                continue
            try:
                exit_codes[name] = fut.result()
            except EngineError as err:
                exit_codes[name] = f"error:{err.code}"
        return Transcript(self.seed, self.core.now, stdout,
                          list(self.network.frame_log), errors,
                          dict(self.host_events), exit_codes, neighborhoods,
                          path_tables)


def run_scenario(topology: Topology, seed: int = 0,
                 image_loader=None, **config_defaults) -> Transcript:
    """Execute a topology file end to end and return its transcript."""
    topology.validate()
    loader = image_loader or load_file
    scen = Scenario(seed, **config_defaults)
    for name, primary in topology.hosts:
        scen.add_host(name, primary)
    for a, b, latency in topology.links:
        scen.link(a, b, latency)
    scen.start()
    images: dict[str, RunpackImage] = {}
    for host, rpk, argv in topology.runs:
        if rpk not in images:
            images[rpk] = loader(rpk)
        scen.run_main(host, images[rpk], list(argv))
    settle = 0
    for tick, kind, args in topology.actions:
        if kind == "drop":
            scen.at(tick, lambda a=args[0], b=args[1]: scen.drop_link(a, b))
        elif kind == "kill":
            scen.at(tick, lambda n=args[0]: scen.kill_host(n))
        settle = max(settle, tick)
    if topology.actions:
        # leave room for liveness detection to notice scripted faults
        window = (scen.hosts[topology.hosts[0][0]].engine.config.ping_interval_ms
                  * (scen.hosts[topology.hosts[0][0]].engine.config.ping_miss_limit + 2))
        scen.settle_until(settle + window)
    scen.run()
    return scen.transcript()
