"""Abstract syntax for the call-by-push-value core language.

Terms are split into values (variables, numerals, thunks) and computations
(force, produce, application, abstraction, sequencing, letrec, zero-test,
arithmetic).  Everything downstream — the machines, the compiler, the
rewriter — addresses subterms of a fixed program by *path*, so the path
helpers and the binder-resolution logic live here as well.

A node's shape is defined in one place, the child table ``_CHILDREN``, which
``child``, ``arity`` and ``with_child`` read.

Paths are tuples of child indices with the innermost component first, so
``(0, 2, 1)`` names "child 1 of the root, then child 2 of that, then child
0".  The human-readable rendering is root-first and dot-separated
("1.2.0"), with the empty path shown as "ε".
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Union

# ---------------------------------------------------------------------------
# errors


class InvalidPath(Exception):
    """A path component does not address a child of its node."""


class NotAVariable(Exception):
    """resolve_binder was pointed at something that is not a variable."""


# ---------------------------------------------------------------------------
# operators


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"

    def apply(self, a: int, b: int) -> int:
        if self is ArithOp.ADD:
            return a + b
        if self is ArithOp.SUB:
            return a - b
        return a * b


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class VarV:
    name: str


@dataclass(frozen=True)
class NumV:
    n: int


@dataclass(frozen=True)
class ThunkV:
    body: "Term"


Value = Union[VarV, NumV, ThunkV]


@dataclass(frozen=True)
class Force:
    value: Value


@dataclass(frozen=True)
class Prd:
    """Produce a value (the terminal move of a producer computation)."""

    value: Value


@dataclass(frozen=True)
class App:
    """Push ``arg`` onto the argument stack and continue with ``body``."""

    arg: Value
    body: "Term"


@dataclass(frozen=True)
class Lam:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class Seq:
    """``left to binder in right`` — run left, bind what it produces."""

    left: "Term"
    binder: str
    right: "Term"


@dataclass(frozen=True)
class LetRec:
    defs: tuple  # ((name, Term), ...), at least one entry
    body: "Term"

    def __post_init__(self):
        defs = tuple((n, d) for n, d in self.defs)
        if not defs:
            raise ValueError("letrec needs at least one definition")
        object.__setattr__(self, "defs", defs)


@dataclass(frozen=True)
class If0:
    guard: Value
    then: "Term"
    orelse: "Term"


@dataclass(frozen=True)
class Op:
    lhs: Value
    op: ArithOp
    rhs: Value


Term = Union[Force, Prd, App, Lam, Seq, LetRec, If0, Op]
Node = Union[Term, Value]

_TERM_TYPES = (Force, Prd, App, Lam, Seq, LetRec, If0, Op)
_VALUE_TYPES = (VarV, NumV, ThunkV)


def is_term(node) -> bool:
    return isinstance(node, _TERM_TYPES)


def is_value(node) -> bool:
    return isinstance(node, _VALUE_TYPES)


# ---------------------------------------------------------------------------
# paths

Path = tuple  # of ints, innermost component first


def path_text(p: Path) -> str:
    """Root-first dotted rendering; the empty path prints as "ε"."""
    if not p:
        return "ε"
    return ".".join(str(i) for i in reversed(p))


def path_from_text(text: str) -> Path:
    text = text.strip()
    if text in ("", "ε"):
        return ()
    return tuple(int(part) for part in reversed(text.split(".")))


def is_suffix(q: Path, p: Path) -> bool:
    """True when q is the outer part of p (q addresses an ancestor-or-self)."""
    n = len(q)
    return n <= len(p) and (n == 0 or p[-n:] == q)


# The shape of every node: its child fields, in child-index order.  Leaves
# have no entry.  A LetRec is kept apart because its children are its body
# and then each definition.
_CHILDREN = {
    Force: ("value",),
    Prd: ("value",),
    App: ("arg", "body"),
    Lam: ("body",),
    Seq: ("left", "right"),
    If0: ("guard", "then", "orelse"),
    Op: ("lhs", "rhs"),
    ThunkV: ("body",),
}


def child(node: Node, i: int) -> Node:
    if type(node) is LetRec:
        if i == 0:
            return node.body
        if 1 <= i <= len(node.defs):
            return node.defs[i - 1][1]
    else:
        names = _CHILDREN.get(type(node), ())
        if 0 <= i < len(names):
            return getattr(node, names[i])
    raise InvalidPath(f"{type(node).__name__} has no child {i}")


def arity(node: Node) -> int:
    if type(node) is LetRec:
        return 1 + len(node.defs)
    return len(_CHILDREN.get(type(node), ()))  # 0 on VarV, NumV


def with_child(node: Node, i: int, new: Node) -> Node:
    """Rebuild ``node`` with child ``i`` replaced."""
    if type(node) is LetRec:
        if i == 0:
            return LetRec(node.defs, new)
        if 1 <= i <= len(node.defs):
            defs = list(node.defs)
            defs[i - 1] = (defs[i - 1][0], new)
            return LetRec(tuple(defs), node.body)
    else:
        names = _CHILDREN.get(type(node), ())
        if 0 <= i < len(names):
            return replace(node, **{names[i]: new})
    raise InvalidPath(f"{type(node).__name__} has no child {i}")


def iter_subterms(root: Node) -> Iterator[tuple]:
    """Preorder walk over (path, node) pairs, children in index order."""
    stack = [((), root)]
    while stack:
        p, node = stack.pop()
        yield p, node
        for i in range(arity(node) - 1, -1, -1):
            stack.append(((i,) + p, child(node, i)))


# ---------------------------------------------------------------------------
# programs with a lazily filled position index


# the empty tuple is one object that lives as long as the process
_ROOT_ID = id(())


class Prog:
    """A fixed program plus an index of the positions visited so far.

    Every visited position gets one integer id, handed out in visiting
    order, with the root as 0.  By id the index keeps the position's node
    (``nodes``), its parent's id (``parents``, -1 at the root) and the child
    index it hangs from (``heads``).  ``kid`` visits a child; nothing is
    visited when a Prog is built.

    Path tuples stay the external names of positions.  ``path(i)`` gives a
    position one shared tuple, built the first time it is asked for (most
    value positions never are).  ``pos`` finds a path by the object's
    identity first, so a path the index handed out costs one dictionary
    lookup whatever its length.  Any other path is found by equality; one
    not seen before is filled in by walking down from the root through the
    known ids, with one ``child`` call per newly visited position, and
    becomes the position's shared tuple if it has none yet.

    ``tables[name]`` is a per-position table of the machines, keyed by id
    and made on first use.

    Every public function that takes a program accepts either a plain Term
    or a Prog.
    """

    __slots__ = ("term", "nodes", "parents", "heads", "tables", "_paths", "_kids",
                 "_ids", "_by_path")

    def __init__(self, term: Term):
        self.term = term
        self.nodes = [term]
        self.parents = [-1]
        self.heads = [-1]
        self.tables = defaultdict(dict)  # name -> {position id: entry}
        self._kids = {}  # id -> {child index: child id}, once one is visited
        self._paths = [()]  # id -> shared path, or None until asked for
        self._ids = {_ROOT_ID: 0}  # id() of a shared path -> position id
        self._by_path = None  # any other path looked up -> position id

    def pos(self, p: Path) -> int:
        """The id of the position at ``p``, visiting it if need be."""
        i = self._ids.get(id(p))
        if i is None:
            by_path = self._by_path
            if by_path is None:
                by_path = self._by_path = {}
            i = by_path.get(p)
            if i is None:
                i, kids = 0, self._kids
                for j in reversed(p):
                    known = kids.get(i)
                    c = None if known is None else known.get(j)
                    i = self.kid(i, j) if c is None else c
                by_path[p] = i
                if self._paths[i] is None and type(p) is tuple:
                    self._paths[i] = p  # kept alive here, so its id stays unique
                    self._ids[id(p)] = i
        return i

    def kid(self, i: int, j: int) -> int:
        """The id of child ``j`` of position ``i``, visiting it if need be."""
        kids = self._kids.get(i)
        if kids is None:
            kids = self._kids[i] = {}
        else:
            c = kids.get(j)
            if c is not None:
                return c
        nodes = self.nodes
        node = child(nodes[i], j)
        c = kids[j] = len(nodes)
        nodes.append(node)
        self.parents.append(i)
        self.heads.append(j)
        self._paths.append(None)
        return c

    def path(self, i: int) -> Path:
        """The shared path of position ``i``."""
        paths = self._paths
        p = paths[i]
        if p is None:
            heads, parents = self.heads, self.parents
            k = parents[i]
            p = paths[k]
            if p is None:  # climb to the nearest ancestor with a path
                below = [heads[i]]
                while p is None:
                    below.append(heads[k])
                    k = parents[k]
                    p = paths[k]
                p = tuple(below) + p
            else:
                p = (heads[i],) + p
            paths[i] = p
            self._ids[id(p)] = i
        return p

    def at(self, p: Path) -> Node:
        return self.nodes[self.pos(p)]

    def __repr__(self):
        return f"Prog({self.term!r})"


def as_prog(P) -> Prog:
    return P if isinstance(P, Prog) else Prog(P)


# ---------------------------------------------------------------------------
# free variables (cached on the node; terms are immutable)

_EMPTY: frozenset = frozenset()


def free_vars(node: Node) -> frozenset:
    fv = getattr(node, "_fv", None)
    if fv is not None:
        return fv
    t = type(node)
    if t is VarV:
        fv = frozenset((node.name,))
    elif t is NumV:
        fv = _EMPTY
    elif t is ThunkV:
        fv = free_vars(node.body)
    elif t is Force or t is Prd:
        fv = free_vars(node.value)
    elif t is App:
        fv = free_vars(node.arg) | free_vars(node.body)
    elif t is Lam:
        fv = free_vars(node.body) - {node.binder}
    elif t is Seq:
        fv = free_vars(node.left) | (free_vars(node.right) - {node.binder})
    elif t is LetRec:
        acc = set(free_vars(node.body))
        for _, d in node.defs:
            acc |= free_vars(d)
        fv = frozenset(acc - {n for n, _ in node.defs})
    elif t is If0:
        fv = free_vars(node.guard) | free_vars(node.then) | free_vars(node.orelse)
    elif t is Op:
        fv = free_vars(node.lhs) | free_vars(node.rhs)
    else:
        raise TypeError(f"not a term: {node!r}")
    object.__setattr__(node, "_fv", fv)
    return fv


# ---------------------------------------------------------------------------
# substitution


def freshen(base: str, avoid) -> str:
    """Smallest number of primes appended to ``base`` that avoids clashes."""
    cand = base + "'"
    while cand in avoid:
        cand += "'"
    return cand


def substitute(node: Node, sub: Mapping[str, Value]) -> Node:
    """Simultaneous capture-avoiding substitution of values for free variables.

    Untouched subtrees are returned as-is (object identity), which keeps
    repeated machine unloads from blowing up allocation.
    """
    if not sub:
        return node
    return _subst(node, sub)


def _subst(node: Node, sub) -> Node:
    t = type(node)
    if t is VarV:
        return sub.get(node.name, node)
    if t is NumV:
        return node
    fv = free_vars(node)
    live = {k: v for k, v in sub.items() if k in fv}
    if not live:
        return node
    if t is ThunkV:
        return ThunkV(_subst(node.body, live))
    if t is Force:
        return Force(_subst(node.value, live))
    if t is Prd:
        return Prd(_subst(node.value, live))
    if t is App:
        return App(_subst(node.arg, live), _subst(node.body, live))
    if t is Op:
        return Op(_subst(node.lhs, live), node.op, _subst(node.rhs, live))
    if t is If0:
        return If0(_subst(node.guard, live), _subst(node.then, live), _subst(node.orelse, live))
    if t is Lam:
        # live cannot mention the binder itself: it was filtered by free_vars.
        if any(node.binder in free_vars(v) for v in live.values()):
            avoid = set(live)
            avoid |= free_vars(node.body)
            for v in live.values():
                avoid |= free_vars(v)
            fresh = freshen(node.binder, avoid)
            return Lam(fresh, _subst(node.body, {**live, node.binder: VarV(fresh)}))
        nb = _subst(node.body, live)
        return node if nb is node.body else Lam(node.binder, nb)
    if t is Seq:
        nl = _subst(node.left, live)
        rlive = {k: v for k, v in live.items() if k != node.binder and k in free_vars(node.right)}
        if not rlive:
            nr = node.right
        elif any(node.binder in free_vars(v) for v in rlive.values()):
            avoid = set(rlive)
            avoid |= free_vars(node.right)
            for v in rlive.values():
                avoid |= free_vars(v)
            fresh = freshen(node.binder, avoid)
            return Seq(nl, fresh, _subst(node.right, {**rlive, node.binder: VarV(fresh)}))
        else:
            nr = _subst(node.right, rlive)
        if nl is node.left and nr is node.right:
            return node
        return Seq(nl, node.binder, nr)
    if t is LetRec:
        # live cannot mention the bundle names (filtered by free_vars), but a
        # substituted value may — then the clashing definitions get renamed.
        names = [n for n, _ in node.defs]
        clash = [n for n in names if any(n in free_vars(v) for v in live.values())]
        if clash:
            avoid = set(names) | set(live)
            avoid |= free_vars(node.body)
            for v in live.values():
                avoid |= free_vars(v)
            for _, d in node.defs:
                avoid |= free_vars(d)
            ren = {}
            for n in clash:
                f = freshen(n, avoid)
                avoid.add(f)
                ren[n] = VarV(f)
            full = {**live, **ren}
            defs = tuple(
                (ren[n].name if n in ren else n, _subst(d, full)) for n, d in node.defs
            )
            return LetRec(defs, _subst(node.body, full))
        defs = tuple((n, _subst(d, live)) for n, d in node.defs)
        nb = _subst(node.body, live)
        if nb is node.body and all(d2 is d1[1] for d1, (_, d2) in zip(node.defs, defs)):
            return node
        return LetRec(defs, nb)
    raise TypeError(f"not a term: {node!r}")


# ---------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(a: Node, b: Node) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    One subterm object met on both sides is equal to itself once each of
    its free names refers to the same binder (or to none) in both scopes,
    so it is not walked.  Unloads hand out shared subterms, which makes
    comparing two neighbouring states cost what changed between them.
    """
    return _aeq(a, b, (), ())


def _rank(name: str, scope) -> Optional[tuple]:
    for i, frame in enumerate(scope):
        if name in frame:
            return (i, frame.index(name))
    return None


def _aeq(a, b, sa, sb) -> bool:
    if a is b and (sa is sb or all(_rank(x, sa) == _rank(x, sb) for x in free_vars(a))):
        return True
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is VarV:
        ra, rb = _rank(a.name, sa), _rank(b.name, sb)
        if ra is None and rb is None:
            return a.name == b.name
        return ra == rb
    if ta is NumV:
        return a.n == b.n
    if ta is ThunkV:
        return _aeq(a.body, b.body, sa, sb)
    if ta is Force or ta is Prd:
        return _aeq(a.value, b.value, sa, sb)
    if ta is App:
        return _aeq(a.arg, b.arg, sa, sb) and _aeq(a.body, b.body, sa, sb)
    if ta is Lam:
        return _aeq(a.body, b.body, ((a.binder,),) + sa, ((b.binder,),) + sb)
    if ta is Seq:
        return _aeq(a.left, b.left, sa, sb) and _aeq(
            a.right, b.right, ((a.binder,),) + sa, ((b.binder,),) + sb
        )
    if ta is LetRec:
        if len(a.defs) != len(b.defs):
            return False
        sa2 = (tuple(n for n, _ in a.defs),) + sa
        sb2 = (tuple(n for n, _ in b.defs),) + sb
        for (_, da), (_, db) in zip(a.defs, b.defs):
            if not _aeq(da, db, sa2, sb2):
                return False
        return _aeq(a.body, b.body, sa2, sb2)
    if ta is If0:
        return (
            _aeq(a.guard, b.guard, sa, sb)
            and _aeq(a.then, b.then, sa, sb)
            and _aeq(a.orelse, b.orelse, sa, sb)
        )
    if ta is Op:
        return a.op is b.op and _aeq(a.lhs, b.lhs, sa, sb) and _aeq(a.rhs, b.rhs, sa, sb)
    raise TypeError(f"not a term: {a!r}")


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
    """Walk outward from a variable occurrence to the binder that captures it.

    A Lam binds inside its body (child 0), a Seq binds inside its right
    component (child 1), and a LetRec binds its bundle names inside every
    child.  The innermost matching binder wins; within one bundle the
    leftmost definition of a duplicated name wins.
    """
    prog = as_prog(P)
    return binder_of(prog, prog.pos(occ))[0]


def binder_of(prog: Prog, i: int) -> tuple:
    """``resolve_binder`` by position id: the BinderRef of variable ``i``
    and the binder's id (None for a free name), worked out once per id."""
    tbl = prog.tables["binder"]
    hit = tbl.get(i)
    if hit is not None:
        return hit
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    node = nodes[i]
    if type(node) is not VarV:
        raise NotAVariable(f"no variable at {path_text(prog.path(i))}: {node!r}")
    name = node.name
    hit = (FreeVar(name), None)
    k = i
    while k:
        head, q = heads[k], parents[k]
        parent = nodes[q]
        t = type(parent)
        if t is Lam and head == 0 and parent.binder == name:
            hit = (LamBind(prog.path(q)), q)
            break
        if t is Seq and head == 1 and parent.binder == name:
            hit = (SeqBind(prog.path(q)), q)
            break
        if t is LetRec:
            j = next((j for j, (n, _) in enumerate(parent.defs, 1) if n == name), None)
            if j is not None:
                hit = (RecBind(prog.path(q), j), q)
                break
        k = q
    tbl[i] = hit
    return hit
