"""Back-to-back remote calls over TCP loopback, between two processes.

    python3 tools/tcp_calls.py SECONDS [CHECKOUT]

Starts a `Node` b in a child process and a `Node` a in this one, both on
127.0.0.1 with ephemeral ports, connects a to b, and runs one task on a that
calls `name()` on b's host object, one call after another: 200 warm-up
calls, then calls for SECONDS of wall-clock time. Every result is checked.
It prints the calls per second and the median and 99th-percentile call time
in microseconds, then the same as one JSON object.

Both nodes import `minihello` from CHECKOUT/src, by default the checkout
this tool is in, so one copy of the tool measures any commit: run it on a
change and on its parent, alternating, more than once. b runs in a process
of its own so that the two nodes do not take turns on one interpreter lock.

The benchmark (`bench/run.py`) has no TCP workload. This is the check for a
change on the TCP request path: the frame codec and `FrameDecoder`, the
transport, the router, the engine's request, serve and reply sites, and
each node's event loop.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_CALLS = 200


class Blocking:
    """`call(fn)` and `wait(fut)` on a node from this thread. A checkout
    from before `Node.wait` ran each node on threads of its own, so there
    fn runs here and a Future is waited for with `wait_blocking`."""

    def __init__(self, node):
        self.node = node
        self.loop = hasattr(node, "wait")

    def call(self, fn):
        return self.node.call(fn) if self.loop else fn()

    def wait(self, fut):
        return self.node.wait(fut) if self.loop else fut.wait_blocking()


def make_node(name: str):
    from minihello.engine.engine import EngineConfig
    from minihello.node import Node
    node = Node(EngineConfig(name, listen="127.0.0.1:0", call_timeout_ms=5_000))
    Blocking(node).call(lambda: setattr(node.engine, "stdout_sink", None))
    node.start()
    return node


def serve_b() -> None:
    """The child: run b until this process's stdin closes."""
    b = make_node("b")
    print(b.bound_port, flush=True)
    sys.stdin.read()
    b.shutdown()


def calls(engine, ctx, seconds: float, times: list[float]):
    """Call b's `name()` back to back; append each timed call's seconds."""
    from minihello.stdlib import host_ref
    b = host_ref("b")
    for _ in range(WARMUP_CALLS):
        out = yield from engine.invoke(b, "name", [], ctx)
        assert out.to_str() == "b", out
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if start >= end:
            return
        out = yield from engine.invoke(b, "name", [], ctx)
        times.append(time.perf_counter() - start)
        if out.to_str() != "b":
            raise AssertionError(f"name() returned {out.to_str()!r}")


def measure(port: int, seconds: float) -> list[float]:
    from minihello.engine.engine import TaskCtx
    from minihello.runtime import Future, Request
    a = make_node("a")
    node = Blocking(a)
    try:
        node.wait(node.call(lambda: a.router.connect(f"127.0.0.1:{port}")))
        engine = a.engine
        times: list[float] = []

        def start():
            queue = engine.new_queue(label="calls")
            done = Future()
            engine.scheduler.submit(queue, Request(
                lambda: calls(engine, TaskCtx(queue), seconds, times), done))
            return done

        node.wait(node.call(start))
    finally:
        a.shutdown()
    return times


def main(argv: list[str]) -> int:
    if argv[:1] == ["--serve-b"]:
        sys.path.insert(0, os.path.join(argv[1], "src"))
        serve_b()
        return 0
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seconds = float(argv[0])
    checkout = os.path.abspath(argv[1] if len(argv) == 2 else ROOT)
    sys.path.insert(0, os.path.join(checkout, "src"))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve-b", checkout],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = int(child.stdout.readline())
        times = measure(port, seconds)
    finally:
        child.stdin.close()
        child.wait()

    ordered = sorted(times)
    result = {"calls": len(times),
              "calls_per_s": len(times) / sum(times),
              "p50_us": statistics.median(ordered) * 1e6,
              "p99_us": ordered[int(0.99 * (len(ordered) - 1))] * 1e6}
    print(f"# {len(times)} name() calls a -> b (a child process) over TCP "
          f"loopback from {checkout}")
    for name, value in list(result.items())[1:]:
        print(f"{name:12s} {value:10.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
