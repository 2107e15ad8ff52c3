"""Benchmark for mini-hello: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload interp|sim-mesh|sim-bulk --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. It sets the program up several
times (setup_s is the median), runs untimed warm-up ops, then whole rounds
of ops for at least S seconds, checking every op's output. The last line of
stdout is one JSON object: correct, attempted, failed and metrics; the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Generated inputs go to bench/_work/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")


def import_program() -> None:
    """Put the checkout's sources on the path; fail without them."""
    if not os.path.isfile(os.path.join(SRC_DIR, "minihello", "__init__.py")):
        raise SystemExit(f"bench: no minihello sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    # het raises the limit the same way; deep recursion in generated code
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# This machine's speed drifts by up to a quarter within seconds, and now and
# then the process loses the CPU for milliseconds, though nothing else runs
# in it: the hardware is shared. So each timing is divided by the mean time
# of a fixed reference loop run just before and just after it, and reported
# in reference milliseconds: milliseconds on a machine where that loop takes
# its nominal time, about what it takes here. Each workload names the
# reference that does its kind of work (`Workload.timing`):
#   "python": a loop of calls, generator steps and dict and list stores,
#     timed with the op in thread CPU time, which leaves out lost CPU; for
#     ops that are pure Python in this thread, with no waiting.
#   "memory": two copies of an 8 MiB buffer, timed with the op in wall-clock
#     time; for ops that mostly copy large buffers and wait on a pipe.
COPY_BYTES = 8 << 20


def python_loop() -> None:
    def count(n):
        for k in range(n):
            yield k

    table = {}
    total = 0
    for k in count(1600):
        table[k & 31] = [k, str(k)]
        total += len(table[k & 31][1])


def reference(timing: str):
    """The (clock, reference loop, its nominal seconds) of a timing name."""
    if timing == "python":
        return time.thread_time, python_loop, 0.7e-3
    source = bytearray(COPY_BYTES)

    def copy_loop() -> None:
        bytearray(bytes(source))

    return time.perf_counter, copy_loop, 2.5e-3


def measure(fn, ref):
    """Run fn(); returns its result, its wall-clock seconds, and its time on
    the clock of `ref` (from reference()) scaled by the reference loop."""
    clock, loop, nominal = ref

    def loop_time() -> float:
        start = clock()
        loop()
        return clock() - start

    before = loop_time()
    wall, start = time.perf_counter(), clock()
    out = fn()
    spent, wall = clock() - start, time.perf_counter() - wall
    return out, wall, spent * nominal / ((before + loop_time()) / 2)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from minihello.errors import EngineError
    from minihello.simharness import ScenarioDeadlock
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    w = workloads.WORKLOADS[workload_name](seed, WORK_DIR)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_ref, op_ref = reference("python"), reference(w.timing)
    problems: list[str] = []
    latencies: list[float] = []  # the seconds measure() reports
    wall_latencies: list[float] = []
    # simulated ms, simulator events, queues added, fetches, wire bytes
    totals = [0] * 5
    attempted = failed = 0

    def one_op(i: int) -> tuple[float, float] | None:
        """Run op i and check it; returns its wall-clock and reported
        seconds, or None if it failed."""
        arg = w.before(i)
        c0 = w.counters()
        if tracer:
            tracer.begin_op()
        try:
            out, wall, reported = measure(lambda: w.op(i, arg), op_ref)
        except (EngineError, ScenarioDeadlock) as err:
            print(f"bench: op {i} failed: {err}", file=sys.stderr)
            return None
        finally:
            if tracer:
                tracer.end_op()
        for k, (a, b) in enumerate(zip(c0, w.counters())):
            totals[k] += b - a
        totals[4] += w.wire_bytes()
        try:
            w.check(i, arg, out)
        except workloads.CheckFailed as err:
            problems.append(f"op {i}: {err}")
        return wall, reported

    try:
        w.prepare()
        setup_times = []
        for _ in range(w.setups):
            gc.collect()
            # set-up is pure Python in this thread in every workload
            setup_times.append(measure(w.setup, setup_ref)[2])
        if tracer:
            after_setup = tracer.snapshot()

        for i in range(w.warmup_ops):
            if one_op(i) is None:
                problems.append(f"warm-up op {i} failed")
        fetches_warmup = totals[3]
        totals = [0] * 5
        if tracer:
            tracer.reset_ops()

        rss = None
        window_start = time.perf_counter()
        i = w.warmup_ops
        while time.perf_counter() - window_start < seconds or rss is None:
            w.start_round()
            w.wire_bytes()  # not the frames that brought the hosts up
            for _ in range(w.round_ops):
                spent = one_op(i)
                i += 1
                attempted += 1
                if spent is None:
                    failed += 1
                else:
                    wall_latencies.append(spent[0])
                    latencies.append(spent[1])
                if attempted == w.rss_ops:
                    rss = peak_rss_mib()
        w.check_run()
    except workloads.CheckFailed as err:
        problems.append(str(err))
    finally:
        w.cleanup()
        if tracer:
            tracer.uninstall()
    if problems:
        print("bench: wrong output:\n  " + "\n  ".join(problems[:10]), file=sys.stderr)
    done = len(latencies)

    if tracer:
        tracer.op_count.update({
            "sim_ms_per_op": totals[0], "sim.events": totals[1],
            "runtime.queues_live": totals[2], "wire_kib_per_op": totals[4] / 1024})
        metrics = tracing.per_layer(
            after_setup, (tracer.op_busy, tracer.op_count),
            {"runpack.fetches": fetches_warmup + totals[3]}, w.setups, done)
    else:
        tail = w.tail_pct
        if done - done * tail / 100 < 10:
            print(f"bench: only {done} ops; p{tail} has fewer than 10 beyond it",
                  file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": done / sum(latencies), "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": percentile(latencies, tail) * 1000, "unit": "ms"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        }
        print(f"# {workload_name} seed {seed}: {done} ops, tail is p{tail}, "
              f"{w.setups} set-ups, peak RSS read after {w.rss_ops} ops, "
              f"op timings against the {w.timing} reference")
    if done:
        print(f"# op p50 {statistics.median(latencies) * 1000:.4f} reference ms, "
              f"{statistics.median(wall_latencies) * 1000:.4f} wall-clock ms")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.4f} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["interp", "sim-mesh", "sim-bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_path = os.path.join(
        WORK_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
