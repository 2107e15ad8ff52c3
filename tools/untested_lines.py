"""Lines of `src/minihello` that the tier-1 tests never run.

    python3 tools/untested_lines.py [--baseline FILE] [PYTEST_ARGS...]

Runs pytest in this process, from the repository root, with `src` on the
path (by default the tier-1 command's arguments, `-q
--continue-on-collection-errors`), under a line tracer set with
`sys.settrace` and `threading.settrace`. Then, for each file of
`src/minihello`, it prints the executable lines that never ran: the line
numbers of the code objects that compiling the file gives (`co_lines`),
minus the lines the tracer saw. It uses only the standard library.

The tracer is set again before each test's setup, call and teardown:
something in the suite switches it off (Hypothesis runs its own tracer),
and without that every later test would count as running nothing.

With `--baseline FILE` it also fails, with exit status 1, if any file has
more unrun lines than FILE allows. FILE holds lines as this tool prints
them, `<file>: <count> lines never ran: <lines>`, and `#` comments; a file
it does not name is allowed none. `tools/untested_baseline.txt` is the
committed baseline; to renew it, keep the per-file lines of a run:

    python3 tools/untested_lines.py | grep '^src/' > tools/untested_baseline.txt
"""

from __future__ import annotations

import os
import re
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "minihello") + os.sep
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


class LineTracer:
    """Records the lines run in each file under PACKAGE, by normalised path
    (the tests put `tests/../src` on the path)."""

    def __init__(self):
        self.ran: dict[str, set[int]] = {}
        self._files: dict[str, tuple | None] = {}  # co_filename -> (tracer, add)

    def arm(self) -> None:
        sys.settrace(self.on_call)
        threading.settrace(self.on_call)

    def on_call(self, frame, _event, _arg):
        filename = frame.f_code.co_filename
        try:
            traced = self._files[filename]
        except KeyError:
            traced = self._files[filename] = self._local_tracer(filename)
        if traced is None:
            return None
        local, add = traced
        add(frame.f_lineno)
        return local

    def _local_tracer(self, filename: str) -> tuple | None:
        path = os.path.normpath(os.path.abspath(filename))
        if not path.startswith(PACKAGE):
            return None
        add = self.ran.setdefault(path, set()).add

        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local, add


def executable_lines(path: str) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _s, _e, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ranges: [3, 4, 5, 9] gives "3-5, 9"."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def read_baseline(path: str) -> dict[str, int]:
    """The unrun-line count that a baseline file allows each file."""
    allowed = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            match = re.match(r"(\S+\.py): (\d+) lines never ran", line)
            if match:
                allowed[match[1]] = int(match[2])
    return allowed


def main(argv: list[str]) -> int:
    import pytest

    allowed = None
    if argv[:1] == ["--baseline"]:
        allowed = read_baseline(argv[1])
        argv = argv[2:]
    tracer = LineTracer()

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            tracer.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            tracer.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            tracer.arm()

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # as the tier-1 command sets it, for the tests that start `het` or `hee`
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    tracer.arm()
    try:
        status = pytest.main(argv or DEFAULT_ARGS, plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    over = []
    for dirpath, _dirs, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, ROOT)
            unrun = sorted(executable_lines(path) - tracer.ran.get(path, set()))
            total += len(unrun)
            if unrun:
                print(f"{rel}: {len(unrun)} lines never ran: {ranges(unrun)}")
            if allowed is not None and len(unrun) > allowed.get(rel, 0):
                over.append(f"{rel}: {len(unrun)} unrun lines, "
                            f"baseline {allowed.get(rel, 0)}")
    print(f"{total} executable lines of src/minihello never ran "
          f"(pytest exit status {int(status)})")
    for line in over:
        print(f"over the baseline: {line}")
    return int(status) or (1 if over else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
