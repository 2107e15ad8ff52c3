"""Time of each translation phase on the interp package of one seed.

    python3 tools/frontend_phases.py SEED [REPEATS]

Generates the package that the benchmark's interp workload compiles in its
set-up (`bench/interp.py`, `Recipe(SEED).source()`) and translates it
REPEATS times (default 20) in this process, as `het` and the workload's
loader do: tokenize, parse, check, serialize, deserialize. Each repeat
starts from the source text, so check sees a fresh tree. `parse` is
`parse_package`, which tokenizes again, as the benchmark's
`frontend.parse_ms` counts it. `check` is the one walk that types the tree
and emits its IR, with the wrapping of the result in an image
(`compile_package`). It prints the median and the minimum
milliseconds of each phase, the token count and the image size, then the
same as one JSON object.
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
from minihello.frontend import SourceUnit, check, parse_package, tokenize  # noqa: E402
from minihello.runpack import compile_package, deserialize, serialize  # noqa: E402

PHASES = ("tokenize", "parse", "check", "serialize", "deserialize")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed = int(argv[0])
    repeats = int(argv[1]) if len(argv) == 2 else 20
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))  # as het does
    unit = SourceUnit(f"interp-{seed}.hlo", interp.Recipe(seed).source())
    times: dict[str, list[float]] = {p: [] for p in PHASES}

    def timed(phase: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[phase].append((time.perf_counter() - start) * 1000)
        return result

    for _ in range(repeats):
        tokens = timed("tokenize", tokenize, unit)
        ast = timed("parse", parse_package, [unit])
        image = timed("check", lambda: compile_package(check(ast)))
        data = timed("serialize", serialize, image)
        timed("deserialize", deserialize, data)

    summary = {"seed": seed, "repeats": repeats, "tokens": len(tokens),
               "image_bytes": len(data)}
    print(f"interp seed {seed}: {len(tokens)} tokens, {len(data)} image bytes, "
          f"{repeats} repeats")
    print(f"{'phase':<12} {'median ms':>10} {'min ms':>8}")
    for phase in PHASES:
        med, low = statistics.median(times[phase]), min(times[phase])
        summary[phase] = {"median_ms": round(med, 2), "min_ms": round(low, 2)}
        print(f"{phase:<12} {med:>10.2f} {low:>8.2f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
