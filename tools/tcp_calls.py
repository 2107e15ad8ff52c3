"""Back-to-back remote calls over TCP loopback, from this checkout.

    python3 tools/tcp_calls.py SECONDS

Starts two in-process `Node`s, a and b, on 127.0.0.1 with ephemeral ports,
connects a to b, and runs one task on a that calls `name()` on b's host
object, one call after another: 200 warm-up calls, then calls for SECONDS
of wall-clock time. Every result is checked. It prints the calls per second
and the median and 99th-percentile call time in microseconds, then the same
as one JSON object.

The benchmark (`bench/run.py`) has no TCP workload. This is the check for a
change on the TCP request path: the frame codec and `FrameDecoder`, the
router, the engine's request, serve and reply sites, and the threaded
scheduler. Run it at a change and at its parent, alternating, more than once.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from minihello.engine.engine import EngineConfig, TaskCtx  # noqa: E402
from minihello.node import Node  # noqa: E402
from minihello.runtime import Future, Request  # noqa: E402
from minihello.stdlib import host_ref  # noqa: E402

WARMUP_CALLS = 200


def make_node(name: str) -> Node:
    node = Node(EngineConfig(name, listen="127.0.0.1:0", call_timeout_ms=5_000))
    node.engine.stdout_sink = None
    node.start()
    return node


def calls(engine, ctx, seconds: float, times: list[float]):
    """Call b's `name()` back to back; append each timed call's seconds."""
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seconds = float(argv[0])
    a, b = make_node("a"), make_node("b")
    try:
        a.router.connect(f"127.0.0.1:{b.bound_port}").wait_blocking()
        # b registers a only after it sent HELLO_ACK; wait for that side too
        deadline = time.monotonic() + 5
        while b.router.neighbor_names() != ["a"]:
            if time.monotonic() > deadline:
                raise RuntimeError("b never registered a")
            time.sleep(0.001)
        engine = a.engine
        queue = engine.new_queue(label="calls")
        times: list[float] = []
        done = Future()
        engine.submit(queue, Request(
            lambda: calls(engine, TaskCtx(queue), seconds, times), done))
        done.wait_blocking()
    finally:
        a.shutdown()
        b.shutdown()

    ordered = sorted(times)
    result = {"calls": len(times),
              "calls_per_s": len(times) / sum(times),
              "p50_us": statistics.median(ordered) * 1e6,
              "p99_us": ordered[int(0.99 * (len(ordered) - 1))] * 1e6}
    print(f"# {len(times)} name() calls a -> b over TCP loopback from {ROOT}")
    for name, value in list(result.items())[1:]:
        print(f"{name:12s} {value:10.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
