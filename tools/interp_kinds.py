"""Time of one call of each interp kernel kind on the package of one seed.

    python3 tools/interp_kinds.py SEED [REPEATS]

Generates the package that the benchmark's interp workload runs
(`bench/interp.py`, `Recipe(SEED).source()`), translates it as `het` does,
writes the image to its `.rpk` bytes and reads them back, as `hee` and the
benchmark load an image, installs it on the engine of one simulated host,
and calls one
kernel of each kind (arith, recur, index, field, chars) REPEATS times
(default 20): the first kernel of that kind that `main` calls, with the
size `main` passes and k = 0, 1, ... in turn. Each call runs
`Engine.invoke_static` to completion in this process, with no scheduler
between calls, and its result is checked against the recipe's Python
model. It prints the median and the minimum microseconds per call of each
kind. One more call of each kernel, outside the timing, runs under
`sys.setprofile` and counts the Python functions it enters by code name
(a compiled body is named `package.Class.method`); it prints those counts
per kind, then all of it as one JSON object.

It also prints, per kind, the compiled bodies that call entered (the calls
of a function compiled from a Hello method, `<hello package.Class.method>`)
next to its calls of `Engine._run_body`. That is the body count now: a
compiled body calls the static methods of its own image directly, so the
traced `machine.bodies`, which `bench/tracing.py` counts at `_run_body`,
counts only the bodies entered through the engine.

The image goes through its bytes because a decoded image is what hosts
run: each IR node read from a `.rpk` has a `ClassKey` object of its own,
where an image compiled in memory shares one per class. A field access
site's cache guards its class by `==`, which holds for both; a guard by
`is` would miss on every access of a decoded image and hit on every access
of an image compiled in memory, so only the decoded one shows the counts
the benchmark sees.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import interp  # noqa: E402  (bench/interp.py)
from minihello.engine.engine import TaskCtx  # noqa: E402
from minihello.frontend import SourceUnit, check, parse_package  # noqa: E402
from minihello.runpack import (compile_package, deserialize,  # noqa: E402
                               serialize)
from minihello.simharness import Scenario  # noqa: E402
from minihello.values import ClassKey  # noqa: E402

# The recipe's model of each kind: (constants, size, k) -> result.
MODELS = {"arith": interp._arith, "recur": interp._recur_top,
          "index": interp._index, "field": interp._field,
          "chars": interp._chars}


def call(engine, cls: ClassKey, method: str, args: list, ctx):
    """Run a static call that waits on nothing to its result."""
    gen = engine.invoke_static(cls, method, args, ctx)
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(f"{cls}.{method} waited on a future")


def profiled_call(engine, cls: ClassKey, method: str, args: list, ctx):
    """`call` under a profile function: the result, how many times the call
    entered each Python function, by code name, and how many times it
    entered a compiled body."""
    counts: dict[str, int] = {}
    bodies = 0

    def profile(frame, event, arg):
        nonlocal bodies
        if event == "call" and frame.f_code is not call.__code__:
            code = frame.f_code
            counts[code.co_name] = counts.get(code.co_name, 0) + 1
            if code.co_filename == f"<hello {code.co_name}>":
                bodies += 1

    sys.setprofile(profile)
    try:
        got = call(engine, cls, method, args, ctx)
    finally:
        sys.setprofile(None)
    return got, counts, bodies


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed = int(argv[0])
    repeats = int(argv[1]) if len(argv) == 2 else 20
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))  # as het does
    recipe = interp.Recipe(seed)
    unit = SourceUnit(f"interp-{seed}.hlo", recipe.source())
    image = deserialize(serialize(compile_package(check(parse_package([unit])))))
    scen = Scenario(seed=seed)
    scen.add_host("solo", primary=True)
    scen.start()
    engine = scen.hosts["solo"].engine
    engine.install_image(image)
    ctx = TaskCtx(engine.new_queue(label="kinds"))

    first = {}
    for kind, idx in recipe.calls:
        first.setdefault(kind, idx)
    times: dict[str, list[float]] = {kind: [] for kind in interp.KINDS}
    for rep in range(repeats + 1):  # the first round compiles; not timed
        k = rep % interp.ROUND
        for kind in interp.KINDS:
            idx, size = first[kind], interp.SIZES[kind]
            cls = ClassKey(interp.PACKAGE, f"K{kind}")
            start = time.perf_counter()
            got = call(engine, cls, f"{kind}{idx}", [size, k], ctx)
            elapsed = (time.perf_counter() - start) * 1e6
            want = MODELS[kind](recipe.kernels[kind][idx], size, k)
            if got != want:
                print(f"{kind}{idx}({size}, {k}) returned {got}, model says {want}",
                      file=sys.stderr)
                return 1
            if rep:
                times[kind].append(elapsed)

    calls, bodies = {}, {}
    for kind in interp.KINDS:
        idx, size = first[kind], interp.SIZES[kind]
        got, calls[kind], bodies[kind] = profiled_call(
            engine, ClassKey(interp.PACKAGE, f"K{kind}"), f"{kind}{idx}",
            [size, 0], ctx)
        if got != MODELS[kind](recipe.kernels[kind][idx], size, 0):
            print(f"{kind}{idx}({size}, 0) returned {got} under the profiler",
                  file=sys.stderr)
            return 1

    summary = {"seed": seed, "repeats": repeats}
    print(f"interp seed {seed}: one kernel per kind, {repeats} repeats")
    print(f"{'kind':<8} {'kernel':<10} {'median us':>10} {'min us':>9}")
    for kind in interp.KINDS:
        med, low = statistics.median(times[kind]), min(times[kind])
        counts = dict(sorted(calls[kind].items(), key=lambda kv: (-kv[1], kv[0])))
        summary[kind] = {"kernel": f"{kind}{first[kind]}",
                         "median_us": round(med, 1), "min_us": round(low, 1),
                         "bodies": bodies[kind], "calls": counts}
        print(f"{kind:<8} {kind + str(first[kind]):<10} {med:>10.1f} {low:>9.1f}")
    print("Compiled bodies entered by one kernel call, and its calls of"
          " Engine._run_body:")
    for kind in interp.KINDS:
        print(f"{kind:<8} bodies {bodies[kind]}, _run_body "
              f"{calls[kind].get('_run_body', 0)}")
    print("Python function calls of one kernel call, by code name:")
    for kind in interp.KINDS:
        print(f"{kind:<8} " + ", ".join(
            f"{name} {n}" for name, n in summary[kind]["calls"].items()))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
