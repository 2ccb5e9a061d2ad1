"""Canonical single-line concrete syntax for terms and values.

The output is what the parser accepts, and parsing it yields the original
tree.  Parentheses are emitted only where the grammar needs them: the left
side of ``to`` whenever that side could otherwise swallow the ``to`` itself
(applications, lambdas, letrec, and nested sequencing).

Printing is one walk over an explicit stack of nodes and pending text, and
one ``join`` of the parts, so its cost is linear in the output and its depth
is not bounded by Python's recursion limit.
"""

from .syntax import (
    App, Force, If0, Lam, LetRec, NumV, Op, Prd, Seq, ThunkV, VarV, numeral_text,
)

# heads that cannot extend past a following "to"
_CLOSED = (Force, Prd, If0, Op)


def print_value(v) -> str:
    if type(v) not in (VarV, NumV, ThunkV):
        raise TypeError(f"not a value: {v!r}")
    return print_term(v)


def print_term(m) -> str:
    if type(m) is str:  # text is what the walk emits, not a term
        raise TypeError(f"not a value: {m!r}")
    out = []
    todo = [m]  # text to emit and nodes to print, the next one last
    while todo:
        m = todo.pop()
        while True:  # print m, going straight on into its first part
            t = type(m)
            if t is str:
                out.append(m)
            elif t is NumV:
                try:
                    out.append(str(m.n))
                except ValueError:  # past Python's limit on decimal conversions
                    out.append(numeral_text(m.n))
            elif t is Prd:
                out.append("prd ")
                m = m.value
                continue
            elif t is Seq:
                todo += (m.right, " to " + m.binder + " in ")
                if not isinstance(m.left, _CLOSED):
                    out.append("(")
                    todo.append(")")
                m = m.left
                continue
            elif t is ThunkV:
                out.append("thunk { ")
                todo.append(" }")
                m = m.body
                continue
            elif t is Lam:
                out += ("\\", m.binder, ". ")
                m = m.body
                continue
            elif t is VarV:
                out.append(m.name)
            elif t is If0:
                out.append("if0 ")
                todo += (" }", m.orelse, " } { ", m.then, " { ")
                m = m.guard
                continue
            elif t is Force:
                out.append("force ")
                m = m.value
                continue
            elif t is App:
                todo += (m.body, " . ")
                m = m.arg
                continue
            elif t is Op:
                todo += (m.rhs, " " + m.op.value + " ")
                m = m.lhs
                continue
            elif t is LetRec:
                out.append("letrec ")
                todo += (m.body, " in ")
                for k in range(len(m.defs) - 1, -1, -1):
                    name, d = m.defs[k]
                    todo += (d, name + " = ")
                    if k:
                        todo.append(" and ")
            else:  # named by its type: the repr of a deep state recurses
                raise TypeError(f"not a term: {type(m).__name__}")
            break
    return "".join(out)
