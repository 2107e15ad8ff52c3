"""Pinned frontend output: the parsed AST of both samples and of generated
interp packages, every `Loc` included, and the message and `Loc` of each
error the lexer raises."""

import dataclasses
import hashlib
import os
import sys

import pytest

from minihello.frontend import LexError, SourceUnit, parse_package, tokenize

from conftest import SAMPLES

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import interp  # noqa: E402


def canon(value) -> str:
    """`repr`, except that the members of a frozenset are sorted: set order
    follows the string hash, which differs from process to process. A named
    tuple (`ClassKey`) renders as the dataclass it once was. Fields that the
    parser does not set (`init=False`, such as the checker's `Expr.ty`) are
    left out: they are not parser output."""
    if dataclasses.is_dataclass(value):
        inner = ", ".join(f"{f.name}={canon(getattr(value, f.name))}"
                          for f in dataclasses.fields(value) if f.init)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        inner = ", ".join(f"{name}={canon(getattr(value, name))}"
                          for name in value._fields)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, list):
        return "[" + ", ".join(canon(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(canon(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "frozenset(" + repr(sorted(value)) + ")"
    return repr(value)


def sample_units(name: str) -> list[SourceUnit]:
    directory = os.path.join(SAMPLES, name)
    units = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".hlo"):
            with open(os.path.join(directory, entry), encoding="utf-8") as f:
                units.append(SourceUnit(f"{name}/{entry}", f.read()))
    return units


def ast_hash(units: list[SourceUnit]) -> str:
    return hashlib.sha256(canon(parse_package(units)).encode()).hexdigest()


# Every construct of the grammar once or more, parsed but never checked.
TOUR = """package tour;   // a comment
public external class Tour {
    enum { A = 1, B = -2 * (3 + 4) % 5 };
    public static int n;
    char[][] grid;
    public Tour(int a, copy Tour[] b) { n = a; }
    public copy Tour[] get(host h, queue q) { return null; }
    message void post(char[] s) {}
    iterator int walk() { return 0; }
    static public int main(char[][] argv) {
        int i = 0; bool ok = !(i >= 1) && i != 2 || !!true; ;
        char c = 'x'; char d = '\\n'; char[] s = "a\\tb\\"\\0" + "ü";
        for (i = 0; i < 10; i++) { if (i <= 3) continue_(); else { i += 2; } }
        for (;;) return;
        while (ok) ok = false;
        int t = i > 2 ? i - - - 1 : i * 3 / 2 + this_host.x;
        Tour r = create (this_host) Tour(1, create Tour[2]);
        char[][] g = create char[3][4]; int[] a = create int[n];
        queue q = create queue(); host h = new host();
        q #> (r, post(s)); q <=> r.get(h, q)[0].walk();
        hosts.+walk(); r.grid[1][2] = c; a[i++] -= 1;
        return (i == 0) ? 1 : (2 < 3 <=> 4);
    }
};
"""


AST_HASHES = {
    "tour": "cf8624dbecf9e46f71debcb519a5283841e4ebbd144a49411f1cd01609944ec3",
    "hello_world": "946a1e238f40d585a74d4560072370d302a765c23429df945f2e3214fe30720d",
    "shell_world": "bfb4ae6d9459bc8b47b9fadc3759e612bc04ef4c928f3c412775556a5476aac0",
    "interp-1": "454a3a9b300dddcbf388dc2c57acb1d933efcf2ee7e7c803e103cd83728ab1ae",
    "interp-5": "69afc220b2e07399a6227ff3e61709fee9bb85e8f6b8b120be0981de3ac91216",
    "interp-77": "b332ba075d80b40330afaefbcf4f3a7046df6114919744d52772667a99e404dc",
}


def units_for(name: str) -> list[SourceUnit]:
    if name == "tour":
        return [SourceUnit("tour.hlo", TOUR)]
    if name.startswith("interp-"):
        seed = int(name.split("-")[1])
        return [SourceUnit("interp.hlo", interp.Recipe(seed).source())]
    return sample_units(name)


@pytest.mark.parametrize("name", AST_HASHES)
def test_ast_hash(name):
    assert ast_hash(units_for(name)) == AST_HASHES[name]


# text -> (message, line, col) of the LexError it raises
LEX_ERRORS = {
    'a = "abc': ("unterminated string literal", 1, 5),
    'a = "ab\nc";': ("unterminated string literal", 1, 5),
    'x "ab\\': ("unterminated string literal", 1, 3),
    'x =\n  "ab\\q";': ("unknown escape: \\q", 2, 7),
    'x = "ab\\q': ("unknown escape: \\q", 1, 9),
    'x = "a\\\nb";': ("unknown escape: \\\n", 1, 8),
    "x = '": ("unterminated char literal", 1, 5),
    "x = '\\q';": ("unknown escape in char literal", 1, 5),
    "x = '\\": ("unknown escape in char literal", 1, 5),
    "x = 'é';": ("char literal must be a single byte", 1, 5),
    "x = 'ab';": ("unterminated char literal", 1, 5),
    "x = '';": ("unterminated char literal", 1, 5),
    "x = 9223372036854775808;":
        ("integer literal out of 64-bit range: 9223372036854775808", 1, 5),
    "a\n  @ b": ("illegal character '@'", 2, 3),
    "a ½": ("illegal character '½'", 1, 3),
}


@pytest.mark.parametrize("text", LEX_ERRORS)
def test_lex_error_message_and_loc(text):
    with pytest.raises(LexError) as exc:
        tokenize(SourceUnit("t.hlo", text))
    err = exc.value
    assert (err.message, err.loc.path, err.loc.line, err.loc.col) == \
        (LEX_ERRORS[text][0], "t.hlo") + LEX_ERRORS[text][1:]


def test_char_literal_edges():
    got = [(t.kind, t.value) for t in tokenize(SourceUnit(
        "t.hlo", "''' '\\'' '\\\\' '\n' 9223372036854775807"))]
    assert got == [("charlit", 39), ("charlit", 39), ("charlit", 92),
                   ("charlit", 10), ("int", (1 << 63) - 1), ("eof", None)]
