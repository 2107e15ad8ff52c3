"""Tokenizer for .hlo source units.

`tokenize` runs one compiled alternation over the text with `finditer`, as
in the "Writing a Tokenizer" recipe of the `re` documentation. The
alternatives are tried in order, and the operators longest first, so
<=> #> .+ += -= ++ == != <= >= && || are single tokens (maximal munch).
Line comments start with //.

A token keeps its offset in the text, not a `Loc`: `Token.loc` is computed
when it is read, by bisecting the unit's line offsets, which are computed
once per unit.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

from .diagnostics import LexError, Loc

KEYWORDS = frozenset({
    "package", "class", "enum", "external", "public", "static", "message",
    "iterator", "group", "copy", "if", "else", "while", "for", "return",
    "new", "create", "null", "true", "false", "this", "this_host", "hosts",
    "void", "int", "bool", "char", "host", "queue",
})

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34, "'": 39}

# One match is one token and the whitespace and comments after it, so the
# group that matched holds the token's text; `skip` matches only where the
# text starts with whitespace. `word` is `\w` (isalnum or '_') after a first
# character that is not a decimal digit; tokenize narrows that first
# character to isalpha or '_'. A string or char literal matches as far as it
# is well formed, with its closing quote optional, so that tokenize can say
# what is wrong with it.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*)"
_TOKEN = re.compile("(?:" + "|".join([
    rf"(?P<skip>{_SKIP}+)",
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<int>\d+)",
    r"(?P<op><=>|#>|\.\+|\+=|-=|\+\+|==|!=|<=|>=|&&|\|\||[-+*/%<>!=?:;,.()\[\]{}])",
    r'(?P<string>"(?P<body>(?:[^"\\\n]|\\[\s\S])*)(?P<close>"?))',
    r"(?P<char>'(?P<esc>\\?)(?P<ch>[\s\S]?)(?P<cclose>'?))",
    r"(?P<bad>[\s\S])",
]) + f"){_SKIP}*")
_ESCAPE = re.compile(r"\\([\s\S])")
_NEWLINE = re.compile(r"\n")


@dataclass(frozen=True, slots=True)
class SourceUnit:
    """One .hlo file: path, text, and a per-line offset index for locations."""
    path: str
    text: str
    _lines: list[int] | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def line_offsets(self) -> list[int]:
        """The offset of each line's first character, computed on first use."""
        if self._lines is None:
            object.__setattr__(self, "_lines", [0] + [
                m.end() for m in _NEWLINE.finditer(self.text)])
        return self._lines

    def loc(self, pos: int) -> Loc:
        offsets = self.line_offsets
        line = bisect_right(offsets, pos)
        return Loc(self.path, line, pos - offsets[line - 1] + 1)


@dataclass(slots=True)
class Token:
    kind: str   # 'ident' | 'int' | 'string' | 'charlit' | 'eof' | the operator/keyword lexeme
    text: str
    value: object
    pos: int    # offset in unit.text
    unit: SourceUnit = field(repr=False, compare=False)

    @property
    def loc(self) -> Loc:
        return self.unit.loc(self.pos)


def _unescape(body: str, offset: int, unit: SourceUnit) -> bytes:
    """The bytes of a string literal's body, which starts at `offset`."""
    out = bytearray()
    done = 0
    for m in _ESCAPE.finditer(body):
        code = _ESCAPES.get(m.group(1))
        if code is None:
            raise LexError(unit.loc(offset + m.start(1)),
                           f"unknown escape: \\{m.group(1)}")
        out += body[done:m.start()].encode("utf-8")
        out.append(code)
        done = m.end()
    out += body[done:].encode("utf-8")
    return bytes(out)


def tokenize(unit: SourceUnit) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(unit.text):
        group = m.lastgroup
        if group == "skip":
            continue
        start = m.start()
        if group == "word":
            word = m.group(group)
            if word in KEYWORDS:
                append(Token(word, word, word, start, unit))
                continue
            if not (word[0].isalpha() or word[0] == "_"):
                raise LexError(unit.loc(start), f"illegal character {word[0]!r}")
            append(Token("ident", word, word, start, unit))
        elif group == "op":
            op = m.group(group)
            append(Token(op, op, op, start, unit))
        elif group == "int":
            digits = m.group(group)
            value = int(digits)
            if value >= 1 << 63:
                raise LexError(unit.loc(start),
                               f"integer literal out of 64-bit range: {digits}")
            append(Token("int", digits, value, start, unit))
        elif group == "string":
            body = m.group("body")
            data = _unescape(body, start + 1, unit) if "\\" in body \
                else body.encode("utf-8")
            if not m.group("close"):
                raise LexError(unit.loc(start), "unterminated string literal")
            append(Token("string", "", data, start, unit))
        elif group == "char":
            esc, ch, close = m.group("esc", "ch", "cclose")
            if esc:
                code = _ESCAPES.get(ch)
                if code is None:
                    raise LexError(unit.loc(start), "unknown escape in char literal")
            elif not ch:
                raise LexError(unit.loc(start), "unterminated char literal")
            else:
                raw = ch.encode("utf-8")
                if len(raw) != 1:
                    raise LexError(unit.loc(start), "char literal must be a single byte")
                code = raw[0]
            if not close:
                raise LexError(unit.loc(start), "unterminated char literal")
            append(Token("charlit", "", code, start, unit))
        else:
            raise LexError(unit.loc(start), f"illegal character {m.group(group)!r}")
    append(Token("eof", "", None, len(unit.text), unit))
    return tokens
