"""Parser for the concrete term syntax: one regex pass and one explicit stack.

Grammar (``to`` binds the nearest preceding term; ``.`` is right-associative
and its body extends maximally, as do lambda and letrec bodies):

    term  := head ("to" IDENT "in" term)?
    head  := "force" value | "prd" value
           | "if0" value "{" term "}" "{" term "}"
           | "\\" IDENT "." term
           | "letrec" binds "in" term
           | "(" term ")"
           | value "." term
           | value ARITH value
    binds := IDENT "=" term ("and" IDENT "=" term)*
    value := IDENT | INT | "thunk" "{" term "}"

The lexer is one ``findall`` of ``_TOKEN`` over the source: a flat list of
token strings, classified by lookups in ``_KEYWORDS``, ``_SYMBOLS`` and their
first character.  A ``-`` directly before digits always lexes as part of a
numeral; where a value has just ended, the grammar reads it as a subtraction
instead.  Characters no token admits become one-character tokens that the
grammar never accepts.

The parser is a predictive parser over an explicit stack of pending
continuations, so nesting depth is bounded by memory, not by Python's
recursion limit.  It descends through the tokens of a head, pushing a frame
for every nested term or value it waits on, and ascends by popping frames
as terms and values finish.

Token positions are not tracked.  When parsing fails, ``_fail`` rescans the
source: the first character no token admits wins, as if lexing had failed
first; otherwise the failing token's offset gives its line and column.
"""

import re

from .syntax import (
    App, ArithOp, Force, If0, Lam, LetRec, NumV, Op, Prd, Seq, ThunkV, VarV, numeral_value,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"-?[0-9]+|[A-Za-z_][A-Za-z0-9_']*|[^ \t\r\n]")
_KEYWORDS = frozenset({"force", "prd", "thunk", "to", "in", "letrec", "and", "if0"})
_ARITH = {"+": ArithOp.ADD, "-": ArithOp.SUB, "*": ArithOp.MUL}
_SYMBOLS = _KEYWORDS | frozenset("{}().\\=+-*")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUM_START = frozenset("-0123456789")
# how error messages name the tokens ``_expect`` wants
_EXPECTED = {"{": "lbrace", "}": "rbrace", ")": "rparen", ".": "dot", "=": "eq", "in": "in"}

# continuation frames, (tag, *parts so far): what to build when the awaited
# value or term finishes; frames with no parts are shared
_FORCE, _PRD, _GUARD, _HEAD, _OP = range(5)  # awaiting a value
_SEQ, _LAM, _APP, _LETREC, _BIND, _PAREN, _THEN, _ELSE, _THUNK = range(5, 14)  # a term
_OPENERS = {"force": (_FORCE,), "prd": (_PRD,), "if0": (_GUARD,)}
_HEAD_FRAME, _PAREN_FRAME, _THUNK_FRAME = (_HEAD,), (_PAREN,), (_THUNK,)


def _fail(src: str, toks, i: int, msg: str):
    """Raise ``msg`` (``{}`` stands for the text found) at token ``i``."""
    starts = []
    for m in _TOKEN.finditer(src):
        t = m.group()
        if t not in _SYMBOLS and t[0] not in _NAME_START and t[0] not in _NUM_START:
            raise _at(src, m.start(), f"unexpected character {t!r}")
        starts.append(m.start())
    text = toks[i]
    after_value = i and (toks[i - 1] in ("}", ")") or toks[i - 1] not in _SYMBOLS)
    if text[:1] == "-" and len(text) > 1 and after_value:
        text = "-"  # "-1" after a value is a minus sign, then a numeral
    raise _at(src, starts[i] if i < len(starts) else len(src),
              msg.format(repr(text or "end of input")))


def _at(src: str, offset: int, msg: str) -> ParseError:
    return ParseError(msg, src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset))


def _expect(src: str, toks, i: int, want: str) -> int:
    if toks[i] != want:
        _fail(src, toks, i, f"expected {_EXPECTED[want]!r}, found {{}}")
    return i + 1


def _name(src: str, toks, i: int) -> str:
    t = toks[i]
    if t[:1] not in _NAME_START or t in _KEYWORDS:
        _fail(src, toks, i, "expected 'ident', found {}")
    return t


def parse_term(src: str):
    toks = _TOKEN.findall(src)
    toks.append("")  # end of input
    stack = []
    i = 0
    want_value = False
    while True:
        # Descend: open heads until a value finishes without a nested term.
        t = toks[i]
        i += 1
        if not want_value:
            frame = _OPENERS.get(t)
            if frame is not None:
                stack.append(frame)
                t = toks[i]
                i += 1
            elif t == "\\":
                stack.append((_LAM, _name(src, toks, i)))
                i = _expect(src, toks, i + 1, ".")
                continue
            elif t == "letrec":
                stack.append((_BIND, [], _name(src, toks, i)))
                i = _expect(src, toks, i + 1, "=")
                continue
            elif t == "(":
                stack.append(_PAREN_FRAME)
                continue
            else:
                stack.append(_HEAD_FRAME)
        want_value = False
        if t == "thunk":
            i = _expect(src, toks, i, "{")
            stack.append(_THUNK_FRAME)
            continue
        if t in _SYMBOLS or t[:1] not in _NAME_START and t[:1] not in _NUM_START:
            _fail(src, toks, i - 1, "expected a value, found {}")
        if t[0] in _NAME_START:
            v = VarV(t)
        else:
            try:
                v = NumV(int(t))
            except ValueError:  # past Python's limit on decimal conversions
                v = NumV(numeral_value(t))

        # Ascend: hand the finished value ``v``, and then each finished term
        # ``m``, to the frame waiting for it, until a frame needs more input.
        while True:
            if v is None and not stack:
                if toks[i]:
                    _fail(src, toks, i, "unexpected trailing input {}")
                return m
            frame = stack.pop()
            tag = frame[0]
            if v is not None:
                if tag == _FORCE:
                    m = Force(v)
                elif tag == _PRD:
                    m = Prd(v)
                elif tag == _OP:
                    m = Op(frame[1], frame[2], v)
                elif tag == _GUARD:
                    i = _expect(src, toks, i, "{")
                    stack.append((_THEN, v))
                    break
                else:  # _HEAD: a value followed by '.' or an operator
                    t = toks[i]
                    if t == ".":
                        stack.append((_APP, v))
                        i += 1
                        break
                    if t in _ARITH:
                        stack.append((_OP, v, _ARITH[t]))
                        i += 1
                        want_value = True
                        break
                    if t[:1] != "-":
                        _fail(src, toks, i, "expected '.' or an arithmetic operator after a value")
                    m = Op(v, ArithOp.SUB, NumV(numeral_value(t[1:])))  # "x -1" lexed as x, -1
                    i += 1
                v = None
            elif tag == _SEQ:
                m = Seq(frame[1], frame[2], m)
                continue
            elif tag == _APP:
                m = App(frame[1], m)
            elif tag == _LAM:
                m = Lam(frame[1], m)
            elif tag == _THUNK:
                i = _expect(src, toks, i, "}")
                v = ThunkV(m)
                continue
            elif tag == _PAREN:
                i = _expect(src, toks, i, ")")
            elif tag == _THEN:
                i = _expect(src, toks, i, "}")
                i = _expect(src, toks, i, "{")
                stack.append((_ELSE, frame[1], m))
                break
            elif tag == _ELSE:
                i = _expect(src, toks, i, "}")
                m = If0(frame[1], frame[2], m)
            elif tag == _LETREC:
                m = LetRec(frame[1], m)
            else:  # _BIND: a letrec definition
                defs = frame[1]
                defs.append((frame[2], m))
                if toks[i] == "and":
                    stack.append((_BIND, defs, _name(src, toks, i + 1)))
                    i = _expect(src, toks, i + 2, "=")
                else:
                    i = _expect(src, toks, i, "in")
                    stack.append((_LETREC, tuple(defs)))
                break
            # ``m`` is a head: it may be the left side of a ``to``
            if toks[i] == "to":
                stack.append((_SEQ, m, _name(src, toks, i + 1)))
                i = _expect(src, toks, i + 2, "in")
                break
