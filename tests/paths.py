"""Positions named by path, for the tests.

Inside the package a position is named by its id in a ``syntax.Prog``;
a path (a tuple of child indices, innermost first) is only how output
shows it.  The tests write positions as paths, so this module turns paths
into ids and back, and gives the path-keyed forms of the id routes they
check: binder resolution (``binder_of``), value lookup (each machine's
``_gamma``), static argument frames (``pek._aframes``) and operands
(``cfg._Index(prog).ops``).  Each converts its path and calls the id route;
none works anything out on its own.
"""

from dataclasses import dataclass
from typing import Union

from cbpv import cfg, pek
from cbpv.syntax import Lam, Path, as_prog, binder_of, is_value

# ---------------------------------------------------------------------------
# paths and ids


def pos(prog, p: Path) -> int:
    """The id of the position at ``p``, walking ``prog.kid`` down from the
    root and visiting the positions on the way.  Raises ``InvalidPath``
    where a component addresses no child."""
    i, kid = 0, prog.kid
    for j in reversed(p):
        i = kid(i, j)
    return i


def at(prog, p: Path):
    return prog.nodes[pos(prog, p)]


def path(prog, i: int) -> Path:
    """The path of position ``i``, climbing ``parents`` to the root."""
    heads, parents = prog.heads, prog.parents
    p = []
    while i > 0:
        p.append(heads[i])
        i = parents[i]
    return tuple(p)


def path_from_text(text: str) -> Path:
    """The inverse of ``syntax.path_text``: "1.0.0" is ``(0, 0, 1)``."""
    text = text.strip()
    if text in ("", "ε"):
        return ()
    return tuple(int(part) for part in reversed(text.split(".")))


# ---------------------------------------------------------------------------
# binder resolution


@dataclass(frozen=True)
class LamBind:
    path: Path


@dataclass(frozen=True)
class SeqBind:
    path: Path


@dataclass(frozen=True)
class RecBind:
    path: Path
    index: int  # 1-based definition slot


@dataclass(frozen=True)
class FreeVar:
    name: str


BinderRef = Union[LamBind, SeqBind, RecBind, FreeVar]


def resolve_binder(P, occ: Path) -> BinderRef:
    """The binder that captures the variable at ``occ`` (``binder_of``),
    named by its path.  Raises ``NotAVariable`` off a variable."""
    prog = as_prog(P)
    i = pos(prog, occ)
    q, j = binder_of(prog, i)
    if q is None:
        return FreeVar(prog.nodes[i].name)
    if j:
        return RecBind(path(prog, q), j)
    return (LamBind if type(prog.nodes[q]) is Lam else SeqBind)(path(prog, q))


# ---------------------------------------------------------------------------
# the machines' static routes, by path


def gamma(machine, P, p: Path, e):
    """The value at ``p`` under chain ``e``, read by ``machine`` (the
    ``peak`` or the ``pek`` module)."""
    prog = as_prog(P)
    return machine._gamma(prog, pos(prog, p), e)


def lookup_var(machine, P, p: Path, e):
    """``gamma`` of the variable at ``p``; raises ``NotAVariable`` off a
    variable."""
    prog = as_prog(P)
    i = pos(prog, p)
    binder_of(prog, i)
    return machine._gamma(prog, i, e)


def aframes(P, p: Path):
    """pek's static argument stack at ``p``, innermost frame on top."""
    prog = as_prog(P)
    return pek._aframes(prog, pos(prog, p))


def operand_of(P, p: Path):
    """The operand the value at ``p`` compiles to, read from compile's pass."""
    prog = as_prog(P)
    i = pos(prog, p)
    if not is_value(prog.nodes[i]):
        raise TypeError(f"no operand for computation at {prog.path_text(i)}")
    return cfg._Index(prog).ops[i]
