"""Per-layer tracing for the traced run (`--trace 1`).

The tracer wraps each layer's public functions from outside the program, at
the names their callers look up: `engine/engine.py`, `cli/het.py` and the
router import functions by name, so the wrapper replaces the name in the
caller's module as well as in the defining one. A plain function is timed
per call and a generator per resumed step. Busy time is self time: a span's
duration minus that of the traced spans it contains, so every layer is
charged only for its own code. Counters are kept at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from minihello.cli import het  # first: importing stdlib first is circular
from minihello import groups, stdlib
from minihello.bio import Reader
from minihello.engine import engine as eng
from minihello.engine import marshal
from minihello.frontend import parser
from minihello.net import router, transport
from minihello.net import frames as frames_mod
from minihello.runpack import image
from minihello.simharness import network, scenario, scheduler


class Tracer:
    def __init__(self):
        self.busy: defaultdict[str, float] = defaultdict(float)  # seconds
        self.count: Counter = Counter()
        self._stack: list[list] = []  # [metric, start, time in child spans]
        self._undo: list = []  # callables that put the originals back
        self.reset_ops()

    # ----------------------------------------------------------------- spans

    def _enter(self, metric: str) -> None:
        self._stack.append([metric, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        metric, start, inner = self._stack.pop()
        spent = time.perf_counter() - start
        self.busy[metric] += spent - inner
        if self._stack:
            self._stack[-1][2] += spent

    def _outermost(self, metric: str) -> bool:
        return not self._stack or self._stack[-1][0] != metric

    def snapshot(self) -> tuple[dict, Counter]:
        if self._stack:
            raise RuntimeError(f"snapshot inside open spans: {self._stack}")
        return dict(self.busy), Counter(self.count)

    def begin_op(self) -> None:
        self._op_start = self.snapshot()

    def end_op(self) -> None:
        """Add what the op since `begin_op` did to the op totals."""
        busy, count = self.snapshot()
        for k, v in busy.items():
            self.op_busy[k] += v - self._op_start[0].get(k, 0.0)
        self.op_count += count - self._op_start[1]

    def reset_ops(self) -> None:
        self.op_busy: defaultdict[str, float] = defaultdict(float)
        self.op_count = Counter()

    # -------------------------------------------------------------- wrappers

    def timed(self, fn, metric: str, before=None, after=None):
        """Wrap a plain function. `before(args)` may return a token that
        `after(args, result, token)` receives."""
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            self._enter(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after:
                after(args, result, token)
            return result
        return wrapper

    def stepped(self, fn, metric: str, before=None):
        """Wrap a generator function; each resumed step is one span."""
        def steps(gen):
            value, error = None, None
            while True:
                self._enter(metric)
                try:
                    out = gen.throw(error) if error is not None else gen.send(value)
                except StopIteration as stop:
                    self._exit()
                    return stop.value
                except BaseException:
                    self._exit()
                    raise
                self._exit()
                try:
                    value, error = (yield out), None
                except BaseException as exc:  # delivered into the task
                    value, error = None, exc

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            return steps(fn(*args, **kwargs))
        return wrapper

    def counted(self, fn, key: str):
        def wrapper(*args, **kwargs):
            self.count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owners, name: str, wrapper) -> None:
        for owner in owners:
            original = owner.__dict__[name]
            self._undo.append(lambda o=owner, v=original: setattr(o, name, v))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ the layers

    def install(self) -> None:
        c = self.count

        def calls(metric: str, key: str, nodes: str | None = None):
            def before(_args):
                if self._outermost(metric):
                    c[key] += 1
                if nodes:
                    c[nodes] += 1
            return before

        def add_len(key: str):
            def after(_args, result, _token):
                c[key] += len(result)
            return after

        # frontend and runpack, where cli/het.py looks them up
        self._set([het], "parse_package",
                  self.timed(het.parse_package, "frontend.parse_ms"))
        self._set([parser], "tokenize",
                  self.timed(parser.tokenize, "frontend.parse_ms",
                             after=add_len("frontend.tokens")))
        self._set([het], "check", self.timed(het.check, "frontend.check_ms"))
        self._set([het], "compile_package",
                  self.timed(het.compile_package, "runpack.lower_ms"))
        self._set([het], "serialize",
                  self.timed(het.serialize, "runpack.serialize_ms",
                             after=add_len("runpack.image_bytes")))
        self._set([image, eng], "deserialize",
                  self.timed(image.deserialize, "runpack.deserialize_ms"))

        # the interpreter: every method body, timed per resumed step
        self._set([eng.Engine], "_run_body",
                  self.stepped(eng.Engine._run_body, "machine.step_ms",
                               before=lambda _a: c.update(("machine.bodies",))))

        # marshaling: calls are outermost calls, nodes every value visited
        for name in ("local_copy", "to_wire"):
            metric = f"marshal.{name}_ms"
            self._set([marshal, eng], name, self.timed(
                getattr(marshal, name), metric,
                before=calls(metric, f"marshal.{name}_calls", "marshal.nodes")))
        self._set([marshal, eng], "from_wire", self.stepped(
            marshal.from_wire, "marshal.from_wire_ms",
            before=calls("marshal.from_wire_ms", "marshal.from_wire_calls",
                         "marshal.nodes")))

        # wire values, as the engine calls them
        self._set([eng], "encode_value",
                  self.timed(eng.encode_value, "wirevalues.encode_ms",
                             after=add_len("wirevalues.encoded_bytes")))

        def decoded(args, _result, start):
            c["wirevalues.decoded_bytes"] += args[0].pos - start

        self._set([eng], "decode_value_prefix",
                  self.timed(eng.decode_value_prefix, "wirevalues.decode_ms",
                             before=lambda args: args[0].pos, after=decoded))

        # frames, as the router and the transports call them
        def encoded(_args, result, _token):
            c["frames.count"] += 1
            c["frames.bytes"] += len(result)

        self._set([router, network, transport], "encode_frame",
                  self.timed(frames_mod.encode_frame, "frames.encode_ms",
                             after=encoded))
        self._set([router, network], "decode_frame_bytes",
                  self.timed(frames_mod.decode_frame_bytes, "frames.decode_ms"))

        # routing
        R = router.Router
        for name in ("send", "send_via"):
            self._set([R], name, self.timed(
                R.__dict__[name], "router.route_ms",
                before=lambda _a: c.update(("router.sent",))))

        def route_in(args):
            this, _conn, frame = args
            r = Reader(frame.payload)
            r.u8()
            r.u8()
            if r.wstr() != this.host_name:
                c["router.forwarded"] += 1

        self._set([R], "_on_route",
                  self.timed(R._on_route, "router.route_ms", before=route_in))
        self._set([R], "_on_gossip", self.timed(
            R._on_gossip, "router.route_ms",
            before=lambda _a: c.update(("router.gossip",))))
        # inbound dispatch in the engine, so that routing is not charged for it
        self._set([eng.Engine], "handle_wire_frame",
                  self.timed(eng.Engine.handle_wire_frame, "runtime.dispatch_ms"))

        # the simulator's frame log labels (read at Scenario construction)
        self._set([scenario], "describe_frame",
                  self.timed(scenario.describe_frame, "sim.describe_ms"))

        # group traversal
        self._set([groups], "iterate", self.stepped(
            groups.iterate, "groups.ms",
            before=lambda _a: c.update(("groups.traversals",))))
        self._set([groups], "run_node", self.stepped(
            groups.run_node, "groups.ms",
            before=lambda _a: c.update(("groups.node_visits",))))

        # the access check, where the engine looks it up
        self._set([eng], "check_access", self.timed(
            eng.check_access, "security.ms",
            before=lambda _a: c.update(("security.checks",))))

        # the blocking pipe read of the exec intrinsics
        def read_back(_args, result, _token):
            c["stdlib.exec_read_calls"] += 1
            c["stdlib.bytes_read"] += result.items[0]

        table = stdlib.INTRINSICS
        read = table["exec_read"]
        self._undo.append(lambda: table.__setitem__("exec_read", read))
        table["exec_read"] = self.timed(read, "stdlib.exec_read_ms",
                                        after=read_back)

        # every request handed to a queue
        self._set([scheduler.HostView], "submit", self.counted(
            scheduler.HostView.submit, "runtime.requests"))


# Per-layer metrics: (name, unit, phase). A "setup" metric is averaged over
# the set-ups of a run, an "op" metric over its timed ops, and a "run"
# metric is counted over the warm-up and timed ops of one run. Names ending
# in "ms" are busy time; sim_ms_per_op is simulated time, from op start to
# quiescence, and wire_kib_per_op the frames delivered (header and payload,
# without pings and gossip). Both are exact: every round does the same ops.
PER_LAYER = [
    ("frontend.parse_ms", "ms/setup", "setup"),
    ("frontend.check_ms", "ms/setup", "setup"),
    ("frontend.tokens", "count/setup", "setup"),
    ("runpack.lower_ms", "ms/setup", "setup"),
    ("runpack.serialize_ms", "ms/setup", "setup"),
    ("runpack.deserialize_ms", "ms/setup", "setup"),
    ("runpack.image_bytes", "B/setup", "setup"),
    ("runpack.fetches", "count/run", "run"),
    ("machine.bodies", "count/op", "op"),
    ("machine.step_ms", "ms/op", "op"),
    ("marshal.local_copy_ms", "ms/op", "op"),
    ("marshal.local_copy_calls", "count/op", "op"),
    ("marshal.to_wire_ms", "ms/op", "op"),
    ("marshal.to_wire_calls", "count/op", "op"),
    ("marshal.from_wire_ms", "ms/op", "op"),
    ("marshal.from_wire_calls", "count/op", "op"),
    ("marshal.nodes", "count/op", "op"),
    ("wirevalues.encode_ms", "ms/op", "op"),
    ("wirevalues.encoded_bytes", "B/op", "op"),
    ("wirevalues.decode_ms", "ms/op", "op"),
    ("wirevalues.decoded_bytes", "B/op", "op"),
    ("frames.encode_ms", "ms/op", "op"),
    ("frames.decode_ms", "ms/op", "op"),
    ("frames.count", "count/op", "op"),
    ("frames.bytes", "B/op", "op"),
    ("router.sent", "count/op", "op"),
    ("router.forwarded", "count/op", "op"),
    ("router.route_ms", "ms/op", "op"),
    ("router.gossip", "count/op", "op"),
    ("sim_ms_per_op", "sim-ms/op", "op"),
    ("wire_kib_per_op", "KiB/op", "op"),
    ("sim.events", "count/op", "op"),
    ("sim.describe_ms", "ms/op", "op"),
    ("groups.traversals", "count/op", "op"),
    ("groups.node_visits", "count/op", "op"),
    ("groups.ms", "ms/op", "op"),
    ("security.checks", "count/op", "op"),
    ("security.ms", "ms/op", "op"),
    ("stdlib.exec_read_calls", "count/op", "op"),
    ("stdlib.exec_read_ms", "ms/op", "op"),
    ("stdlib.bytes_read", "B/op", "op"),
    ("runtime.requests", "count/op", "op"),
    ("runtime.dispatch_ms", "ms/op", "op"),
    ("runtime.queues_live", "queues/op", "op"),
]


def per_layer(setup: tuple[dict, Counter], ops: tuple[dict, Counter],
              run: dict, n_setups: int, n_ops: int) -> dict[str, dict]:
    """The reported per-layer metrics from the busy seconds and counts of
    the set-ups and of the timed ops, and the counts of the whole run."""
    out = {}
    for name, unit, phase in PER_LAYER:
        if phase == "run":
            value = run[name]
        else:
            busy, count = setup if phase == "setup" else ops
            per = n_setups if phase == "setup" else n_ops
            value = (busy.get(name, 0.0) * 1000 if name.endswith("ms")
                     else count[name]) / per
        out[name] = {"value": value, "unit": unit}
    return out
