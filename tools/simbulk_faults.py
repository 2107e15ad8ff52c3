"""Minor page faults and times of sim-bulk ops, from this checkout.

    python3 tools/simbulk_faults.py SEED SECONDS

Runs the benchmark's sim-bulk workload (`bench/workloads.py`, `SimBulk`) the
way `bench/run.py` does: the same set-ups, the warm-up op, then checked ops
for at least SECONDS, each timed by `bench/run.py`'s `measure` against its
`reference("memory")` loop. It prints, over the timed ops, the median minor
page faults of an op (`ru_minflt` read just before and after the op, so the
reference loop is left out), the median wall-clock time, the median time of
the reference loop, and the median reported (reference-scaled) time, then the
same as one JSON object.

glibc serves and returns the 4 MiB transfer buffers of sim-bulk from the heap
or from fresh mappings depending on the order in which buffers were
allocated and freed before; the two modes differ by thousands of faults per
op and by as much as the benchmark's bound on `op_p50_ms`. Run this at a
change and at its parent before touching anything on the sim-bulk path: the
fault counts should match.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402  (bench/run.py)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed, seconds = int(argv[0]), float(argv[1])
    run.import_program()
    import workloads

    os.makedirs(run.WORK_DIR, exist_ok=True)
    w = workloads.SimBulk(seed, run.WORK_DIR)
    clock_ref, op_ref = run.reference("python"), run.reference(w.timing)
    nominal = op_ref[2]
    faults, wall, loop, reported = [], [], [], []

    def one_op(i: int, record: bool) -> None:
        arg = w.before(i)
        counted = []

        def op():
            start = minor_faults()
            out = w.op(i, arg)
            counted.append(minor_faults() - start)
            return out

        out, op_wall, op_reported = run.measure(op, op_ref)
        w.check(i, arg, out)
        if record:
            faults.append(counted[0])
            wall.append(op_wall * 1000)
            # measure() scales by nominal / (mean reference-loop time)
            loop.append(op_wall * nominal / op_reported * 1000)
            reported.append(op_reported * 1000)

    try:
        w.prepare()
        for _ in range(w.setups):
            gc.collect()
            run.measure(w.setup, clock_ref)
        for i in range(w.warmup_ops):
            one_op(i, False)
        i = w.warmup_ops
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            w.start_round()
            w.wire_bytes()
            for _ in range(w.round_ops):
                one_op(i, True)
                i += 1
        w.check_run()
    finally:
        w.cleanup()

    result = {"seed": seed, "ops": len(faults),
              "minor_faults_per_op": statistics.median(faults),
              "wall_p50_ms": statistics.median(wall),
              "reference_loop_p50_ms": statistics.median(loop),
              "reported_p50_ms": statistics.median(reported)}
    print(f"# sim-bulk seed {seed}: {len(faults)} ops from {ROOT}")
    for name, value in list(result.items())[2:]:
        print(f"{name:24s} {value:10.2f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
