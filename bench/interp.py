"""The `interp` workload's inputs: a seeded .hlo package and a Python model
of the same recipe.

The package holds many generated kernels, so that compiling it dominates
set-up; `main` calls a seeded choice of them. The model computes each
kernel's result with plain Python integers, 64-bit wrapping and truncating
division, without running any program code, so it checks the interpreter
from outside.
"""

from __future__ import annotations

import random

PACKAGE = "interpbench"
KINDS = ("arith", "recur", "index", "field", "chars")
KERNELS_PER_KIND = 32
CALLS_PER_KIND = 2
ROUND = 8  # distinct `main` arguments, one op each

# Loop sizes (and recursion depth) of the kernels main calls; they set the
# op time, about 0.1 s here.
SIZES = {"arith": 480, "recur": 12, "index": 320, "field": 320, "chars": 260}

_LITERALS = ("ab", "xyz", "q", "hello", "mn", "k7", "zz", "ratio")


def wrap(x: int) -> int:
    x &= (1 << 64) - 1
    return x - (1 << 64) if x >= 1 << 63 else x


def tdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def tmod(a: int, b: int) -> int:
    return a - tdiv(a, b) * b


class Recipe:
    """The seeded kernels, which of them `main` calls, and the model."""

    def __init__(self, seed: int):
        rng = random.Random(f"interp|{seed}")
        self.kernels: dict[str, list[dict]] = {}
        for kind in KINDS:
            self.kernels[kind] = [self._consts(kind, rng)
                                  for _ in range(KERNELS_PER_KIND)]
        self.calls = [(kind, idx) for kind in KINDS
                      for idx in rng.sample(range(KERNELS_PER_KIND), CALLS_PER_KIND)]
        rng.shuffle(self.calls)
        self.h0 = rng.randrange(1, 1 << 20)

    @staticmethod
    def _consts(kind: str, rng: random.Random) -> dict:
        c = {"c0": rng.randrange(-999, 1000), "c1": rng.randrange(2, 1 << 20),
             "c2": rng.choice((3, 5, 7, 11, 13, -3, -7)),
             "c3": rng.randrange(-999, 1000), "m": rng.randrange(2, 9)}
        c["r"] = rng.randrange(c["m"])
        if kind == "chars":
            c["lit1"], c["lit2"] = rng.sample(_LITERALS, 2)
            c["ch"] = rng.choice("abxyzq7")
        return c

    # ------------------------------------------------------------- source

    def source(self) -> str:
        out = [f"package {PACKAGE};", "",
               "class Cell {", "    public int x;", "    public int y;",
               "    public Cell next;", "    public Cell() {}", "};", ""]
        emit = {"arith": _arith_src, "recur": _recur_src, "index": _index_src,
                "field": _field_src, "chars": _chars_src}
        for kind in KINDS:
            out.append(f"class K{kind} {{")
            for idx, c in enumerate(self.kernels[kind]):
                out.extend(emit[kind](idx, c))
            out.extend(["};", ""])
        out.append("class Main {")
        out.append("    static public int main(char[][] argv) {")
        out.append("        int k = parse_int(argv[0]);")
        out.append(f"        int h = {self.h0};")
        for kind, idx in self.calls:
            out.append(f"        h = h * 31 + K{kind}.{kind}{idx}({SIZES[kind]}, k);")
        out.append("        return h;")
        out.append("    }")
        out.append("};")
        return "\n".join(out) + "\n"

    # -------------------------------------------------------------- model

    def expected(self, k: int) -> int:
        model = {"arith": _arith, "recur": _recur_top, "index": _index,
                 "field": _field, "chars": _chars}
        h = self.h0
        for kind, idx in self.calls:
            h = wrap(h * 31 + model[kind](self.kernels[kind][idx], SIZES[kind], k))
        return h


# Each kernel kind: the .hlo text, then the model of the same computation.

def _arith_src(i: int, c: dict) -> list[str]:
    return [
        f"    static public int arith{i}(int n, int k) {{",
        f"        int s = k + {c['c0']};",
        "        int i = 0;",
        "        while (i < n) {",
        f"            if (i % {c['m']} == {c['r']}) {{",
        f"                s = s * {c['c1']} + i;",
        "            } else {",
        f"                s = s - s / {c['c2']} + {c['c3']};",
        "            }",
        "            i++;",
        "        }",
        "        return s;",
        "    }",
    ]


def _arith(c: dict, n: int, k: int) -> int:
    s = wrap(k + c["c0"])
    for i in range(n):
        if tmod(i, c["m"]) == c["r"]:
            s = wrap(wrap(s * c["c1"]) + i)
        else:
            s = wrap(wrap(s - tdiv(s, c["c2"])) + c["c3"])
    return s


def _recur_src(i: int, c: dict) -> list[str]:
    return [
        f"    static public int recur{i}(int d, int k) {{",
        "        if (d <= 1)",
        f"            return d + k + {c['c0']};",
        f"        return recur{i}(d - 1, k) * {c['c1']}"
        f" - recur{i}(d - 2, k) / {c['c2']} + {c['c3']};",
        "    }",
    ]


def _recur_top(c: dict, d: int, k: int) -> int:
    memo: dict[int, int] = {}

    def rec(d: int) -> int:
        if d <= 1:
            return wrap(d + k + c["c0"])
        if d not in memo:
            memo[d] = wrap(wrap(rec(d - 1) * c["c1"]) - tdiv(rec(d - 2), c["c2"])
                           + c["c3"])
        return memo[d]

    return rec(d)


def _index_src(i: int, c: dict) -> list[str]:
    return [
        f"    static public int index{i}(int n, int k) {{",
        "        int[] a = create int[n];",
        "        for (int i = 0; i < n; i++)",
        f"            a[i] = i * {c['c1']} + k;",
        "        int s = 0;",
        "        for (int j = 0; j < n; j++)",
        f"            s = s + a[(j * {c['m']} + {c['r']}) % n] - a[j] / {c['c2']};",
        "        return s;",
        "    }",
    ]


def _index(c: dict, n: int, k: int) -> int:
    a = [wrap(i * c["c1"] + k) for i in range(n)]
    s = 0
    for j in range(n):
        s = wrap(wrap(s + a[tmod(j * c["m"] + c["r"], n)]) - tdiv(a[j], c["c2"]))
    return s


def _field_src(i: int, c: dict) -> list[str]:
    return [
        f"    static public int field{i}(int n, int k) {{",
        "        Cell c = new Cell();",
        "        Cell e = new Cell();",
        "        c.next = e;",
        "        e.next = c;",
        "        c.x = k;",
        "        for (int i = 0; i < n; i++) {",
        "            Cell t = c.next;",
        f"            t.x = c.x * {c['c1']} + i;",
        f"            t.y = t.y + c.x % {c['m']};",
        "            c = t;",
        "        }",
        "        return c.x + c.y;",
        "    }",
    ]


def _field(c: dict, n: int, k: int) -> int:
    cells = [[k, 0], [0, 0]]  # [x, y] of c and e; c.next is e and back
    cur = 0
    for i in range(n):
        nxt = 1 - cur
        cells[nxt][0] = wrap(wrap(cells[cur][0] * c["c1"]) + i)
        cells[nxt][1] = wrap(cells[nxt][1] + tmod(cells[cur][0], c["m"]))
        cur = nxt
    return wrap(cells[cur][0] + cells[cur][1])


def _chars_src(i: int, c: dict) -> list[str]:
    return [
        f"    static public int chars{i}(int n, int k) {{",
        "        char[] s = create char[0];",
        "        int hits = 0;",
        "        for (int i = 0; i < n; i++) {",
        f"            if (i % {c['m']} == {c['r']})",
        f"                s += \"{c['lit1']}\";",
        "            else",
        f"                s += \"{c['lit2']}\";",
        f"            if (s[sizear(s, 1) - 1] == '{c['ch']}')",
        "                hits++;",
        "        }",
        f"        return sizear(s, 1) * {c['c1']} + hits + k;",
        "    }",
    ]


def _chars(c: dict, n: int, k: int) -> int:
    s = ""
    hits = 0
    for i in range(n):
        s += c["lit1"] if tmod(i, c["m"]) == c["r"] else c["lit2"]
        if s[-1] == c["ch"]:
            hits += 1
    return wrap(wrap(len(s) * c["c1"]) + hits + k)
