"""The regex-and-stack parser against the recursive-descent parser it replaced.

The oracle below is the parser as it was before lexing became one regex pass
and parsing one explicit stack: a per-character lexer that builds a token
record with its line and column, and a recursive-descent parser.  It shares
no code with ``cbpv.parser`` beyond ``ParseError``, so equal trees and equal
errors (message, line and column) mean the two readings of the grammar agree.

The oracle crashes with ``AttributeError`` on a non-ASCII letter or digit,
which ``str.isalpha``/``str.isdigit`` accept but its ASCII regexes do not
match; there the new parser must report the character as unexpected.
"""

import inspect
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given

import cbpv.fixtures as fx
from cbpv import harness
from cbpv.parser import ParseError, parse_term
from cbpv.printer import print_term
from cbpv.syntax import App, ArithOp, Force, If0, Lam, LetRec, NumV, Op, Prd, Seq, ThunkV, VarV

from conftest import terms

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

# ---------------------------------------------------------------------------
# the oracle

_KEYWORDS = frozenset({"force", "prd", "thunk", "to", "in", "letrec", "and", "if0"})
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT = re.compile(r"[0-9]+")
_ARITH = {"+": ArithOp.ADD, "-": ArithOp.SUB, "*": ArithOp.MUL}
_SIMPLE = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ".": "DOT",
    "\\": "LAMBDA",
    "=": "EQ",
}
# a "-" right before a digit is a negative numeral unless a value just ended
_VALUE_END = frozenset({"INT", "IDENT", "RBRACE", "RPAREN"})


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokens(src: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if (
            c == "-"
            and i + 1 < n
            and src[i + 1].isdigit()
            and (not toks or toks[-1].kind not in _VALUE_END)
        ):
            m = _INT.match(src, i + 1)
            toks.append(_Tok("INT", "-" + m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if c.isdigit():
            m = _INT.match(src, i)
            toks.append(_Tok("INT", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _IDENT.match(src, i)
            text = m.group()
            toks.append(_Tok("KW" if text in _KEYWORDS else "IDENT", text, line, col))
            col += len(text)
            i = m.end()
            continue
        if c in _ARITH:
            toks.append(_Tok("ARITH", c, line, col))
            i += 1
            col += 1
            continue
        kind = _SIMPLE.get(c)
        if kind is None:
            raise ParseError(f"unexpected character {c!r}", line, col)
        toks.append(_Tok(kind, c, line, col))
        i += 1
        col += 1
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: str = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            found = t.text if t.text else "end of input"
            self.fail(f"expected {text or kind.lower()!r}, found {found!r}")
        return self.advance()

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "KW" and t.text == word

    def term(self):
        head = self.head()
        if self.at_kw("to"):
            self.advance()
            binder = self.expect("IDENT").text
            self.expect("KW", "in")
            return Seq(head, binder, self.term())
        return head

    def head(self):
        t = self.peek()
        if t.kind == "KW":
            if t.text == "force":
                self.advance()
                return Force(self.value())
            if t.text == "prd":
                self.advance()
                return Prd(self.value())
            if t.text == "if0":
                self.advance()
                guard = self.value()
                self.expect("LBRACE")
                then = self.term()
                self.expect("RBRACE")
                self.expect("LBRACE")
                orelse = self.term()
                self.expect("RBRACE")
                return If0(guard, then, orelse)
            if t.text == "letrec":
                self.advance()
                defs = [self.bind()]
                while self.at_kw("and"):
                    self.advance()
                    defs.append(self.bind())
                self.expect("KW", "in")
                return LetRec(tuple(defs), self.term())
        if t.kind == "LAMBDA":
            self.advance()
            binder = self.expect("IDENT").text
            self.expect("DOT")
            return Lam(binder, self.term())
        if t.kind == "LPAREN":
            self.advance()
            inner = self.term()
            self.expect("RPAREN")
            return inner
        v = self.value()
        nxt = self.peek()
        if nxt.kind == "DOT":
            self.advance()
            return App(v, self.term())
        if nxt.kind == "ARITH":
            self.advance()
            return Op(v, _ARITH[nxt.text], self.value())
        self.fail("expected '.' or an arithmetic operator after a value")

    def bind(self):
        name = self.expect("IDENT").text
        self.expect("EQ")
        return (name, self.term())

    def value(self):
        t = self.peek()
        if t.kind == "IDENT":
            self.advance()
            return VarV(t.text)
        if t.kind == "INT":
            self.advance()
            return NumV(int(t.text))
        if t.kind == "KW" and t.text == "thunk":
            self.advance()
            self.expect("LBRACE")
            body = self.term()
            self.expect("RBRACE")
            return ThunkV(body)
        found = t.text if t.text else "end of input"
        self.fail(f"expected a value, found {found!r}")


def oracle_parse(src: str):
    p = _Parser(_tokens(src))
    m = p.term()
    if p.peek().kind != "EOF":
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return m


# ---------------------------------------------------------------------------
# comparison


def _outcome(parse, src):
    try:
        return "tree", print_term(parse(src))
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.col)


def assert_agrees(src):
    """parse_term reads ``src`` as the oracle does, or, where the oracle
    crashes, reports an unexpected non-ASCII character."""
    try:
        want = _outcome(oracle_parse, src)
    except AttributeError:
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        msg = str(exc.value)
        assert "unexpected character" in msg, (src, msg)
        line = src.split("\n")[exc.value.line - 1]
        assert not line[exc.value.col - 1].isascii(), (src, msg)
        return "crash"
    got = _outcome(parse_term, src)
    assert got == want, src
    if want[0] == "tree":  # print_term is injective, but compare the trees too
        assert parse_term(src) == oracle_parse(src), src
    return want[0]


def _texts():
    """Fixtures, 1,200 generated programs, and the benchmark's deep shapes."""
    out = [p.read_text(encoding="utf-8") for p in sorted(FIXDIR.glob("*.cbpv"))]
    out += list(fx.SOURCES.values())
    for seed in range(600):
        for closed in (True, False):
            out.append(print_term(harness.gen_term(seed, seed % 26, closed)))
    for n in (1, 2, 7, 40):
        links = "".join(f"x{i - 1} + 1 to x{i} in " for i in range(1, n))
        out.append("-3 + 0 to x0 in " + links + f"prd x{n - 1}")
        out.append("force thunk { " * n + "prd -2" + " }" * n)
        out.append(
            f"letrec sum = \\n. if0 n {{ prd 0 }} "
            f"{{ n - 1 to k in (k . force sum) to r in n + r }} in {n} . force sum"
        )
    return out


TEXTS = _texts()

# hand-picked edges: '-' before digits after a value and after a keyword,
# primes in and out of names, tabs, CRs and newlines, non-ASCII input
EDGES = [
    "x -5", "x-5", "1-2", "1 - -2", "1--2", "1-2-3", "prd -5 -3", "prd x -5",
    "(prd 1) -5", "thunk { prd 0 } -5", "thunk { prd 0 }-5 to y in prd y",
    "prd 1 to x -5", "\\x -1", "letrec -5", "letrec f -1 = prd 0 in prd 1",
    "force -7", "if0 -1 { prd -1 } { prd 1 }-2", "-3 . force f", "- 3 . force f",
    "x - 3", "5-", "-", "--1", "prd -", "prd --1",
    "x' + y''", "x 'y", "5'", "'", "prd x'y'", "prd a'b . f",
    "prd\t1\tto\tx\tin\t?", "prd 1\r\nto x\r\nin ?", "\n\n\tprd 1 ?", "prd 1 to x\nin prd ?",
    "prd \x0c", "prd \x0b 1",
    "prd é", "prd ٣", "prd ²", "prd -٣", "x -٣", "aé + 1", "prd x\n  é", "prd 1 ? é",
    "prd é ?", "½", "prd ａ", "force thunk { prd 0 } to x in prd ١٢",
    "", " ", "\n", "prd", "x", "force thunk { prd 0", "prd 1 to in prd 2", "letrec in prd 1",
    "letrec to = prd 1 in force to", "prd 1 prd 2", "if0 0 { prd 1 }", "if0 0 { prd 1 } prd 2",
    "letrec f = prd 1 and in prd 2", "letrec f = prd 1 and g prd 2 in f", "(prd 1", "()",
    "\\x prd x", "\\. prd 1", "\\to. prd 1", "thunk prd 1", "force thunk prd 1", "to", "in",
    "prd 1 to x in", "prd 1 to x", "prd 1 to 5 in prd 1", "x . ", "x +", "x + thunk { prd 0 }",
    "x + thunk { prd 0", "x = 1", "x } 1", "{ prd 1 }", "prd 1 }", "prd 1 )", "a * b * c",
    "letrec f = prd 1 and g = prd 2 in force f to x in prd x",
]


@pytest.mark.parametrize("src", EDGES)
def test_edges_agree(src):
    assert_agrees(src)


def test_texts_agree():
    for src in TEXTS:
        assert assert_agrees(src) == "tree"


@given(terms)
def test_printed_terms_agree(t):
    assert assert_agrees(print_term(t)) == "tree"


# inserted snippets, weighted toward the lexer's corners
_SNIPPETS = (
    "-", "-1", "-07", "1", "42", "'", "x'", "a", "_b", "\t", "\r", "\n", "\r\n", " ",
    "é", "٣", "²", "-٣", "?", "{", "}", "(", ")", ".", "\\", "=", "+", "*",
    "to", "in", "and", "thunk", "force", "prd", "if0", "letrec",
)


def _mutants(rng, src, count):
    for _ in range(count):
        n = len(src)
        kind = rng.randrange(4)
        if kind == 0:  # truncate
            yield src[: rng.randint(0, n)]
        elif kind == 1:  # delete a short run
            at = rng.randint(0, n)
            yield src[:at] + src[at + rng.randint(1, 4):]
        else:  # insert one or two snippets
            out = src
            for _ in range(kind - 1):
                at = rng.randint(0, len(out))
                out = out[:at] + rng.choice(_SNIPPETS) + out[at:]
            yield out


# the lexer's corners, each of which the mutants must reach
_CORNERS = {
    "'-' before digits after a value": re.compile(r"[\w')}] *-[0-9]"),
    "'-' before digits after a keyword": re.compile(r"\b(prd|force|if0|in) *-[0-9]"),
    "prime in a name": re.compile(r"[A-Za-z_]\w*'"),
    "prime outside a name": re.compile(r"(^|[^\w'])'"),
    "tab": re.compile("\t"),
    "carriage return": re.compile("\r"),
    "newline": re.compile("\n"),
    "non-ASCII": re.compile("[^\x00-\x7f]"),
}


def test_mutants_agree():
    rng = random.Random(20181018)
    seen = {"tree": 0, "error": 0, "crash": 0}
    reached = dict.fromkeys(_CORNERS, 0)
    for src in TEXTS[::2]:
        for mutant in _mutants(rng, src, 6):
            seen[assert_agrees(mutant)] += 1
            for corner, pattern in _CORNERS.items():
                reached[corner] += bool(pattern.search(mutant))
    assert all(seen.values()), seen
    assert all(reached.values()), reached


@given(terms)
def test_mutants_of_printed_terms_agree(t):
    src = print_term(t)
    rng = random.Random(src)
    for mutant in _mutants(rng, src, 4):
        assert_agrees(mutant)


# ---------------------------------------------------------------------------
# depth


def test_parses_100k_deep_without_recursion():
    n = 100_000
    texts = [
        "force thunk { " * n + "prd 0" + " }" * n,
        "1 + 0 to x0 in " + "".join(f"x{i} + 1 to x{i + 1} in " for i in range(n)) + f"prd x{n}",
        "\\x. " * n + "prd x",
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        for text in texts:
            assert print_term(parse_term(text)) == text
    finally:
        sys.setrecursionlimit(limit)
