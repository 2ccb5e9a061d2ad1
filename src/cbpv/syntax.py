"""Abstract syntax for the call-by-push-value core language.

Terms are split into values (variables, numerals, thunks) and computations
(force, produce, application, abstraction, sequencing, letrec, zero-test,
arithmetic).  Everything downstream — the machines, the compiler, the
rewriter — addresses subterms of a fixed program by position: by *path* at
the edge, and inside the machines and the compiler by the integer ids of a
position index (``Prog``).  So the path helpers, the index and the
binder-resolution logic live here as well.

A node's shape is defined in one place, the child table ``_CHILDREN``, which
``child``, ``children``, ``arity`` and ``with_child`` read.

Paths are tuples of child indices with the innermost component first, so
``(0, 2, 1)`` names "child 1 of the root, then child 2 of that, then child
0".  The human-readable rendering is root-first and dot-separated
("1.2.0"), with the empty path shown as "ε".
"""

from __future__ import annotations

import enum
import sys
from collections import defaultdict
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import Iterator, Mapping, Optional, Union

# ---------------------------------------------------------------------------
# errors


class InvalidPath(Exception):
    """A path component does not address a child of its node."""


class NotAVariable(Exception):
    """binder_of was pointed at something that is not a variable."""


# ---------------------------------------------------------------------------
# records


def frozen(*memos: str):
    """Declare an immutable record: ``dataclass(frozen=True)``, kept in slots.

    The class keeps what the dataclass gives it (``==``, ``hash``, ``repr``,
    ``fields`` with their metadata, ``replace``, defaults, ``__post_init__``
    and ``FrozenInstanceError`` on assignment), but its instances hold their
    fields in ``__slots__``, with no ``__dict__``, and can be weakly
    referenced.  Its ``__init__`` sets each slot through the slot's own
    descriptor, at about half the cost of the ``object.__setattr__`` call
    a frozen dataclass makes per field, and every machine step builds
    records.  ``memos`` name further slots, each set to None by ``__init__``:
    answers kept on the record by the code that works them out (with
    ``object.__setattr__``), such as a term's free variables.  They take no
    part in equality, and a copy or ``replace`` starts them over.
    """

    def make(cls):
        cls = dataclass(frozen=True)(cls)
        fs = fields(cls)
        names = tuple(f.name for f in fs)
        ns = {k: v for k, v in vars(cls).items() if k not in names + ("__dict__", "__weakref__")}
        ns["__slots__"] = names + memos + ("__weakref__",)
        ns["__setattr__"], ns["__delattr__"] = _frozen_setattr, _frozen_delattr
        ns["__reduce__"] = lambda self: (type(self), tuple(getattr(self, n) for n in names))
        new = type(cls.__name__, cls.__bases__, ns)
        new.__qualname__ = cls.__qualname__
        env, params = {}, []
        for f in fs:
            if f.default_factory is not MISSING or not f.init:
                raise TypeError(f"{cls.__name__}.{f.name}: only fields with plain defaults")
            env[f"_set_{f.name}"] = getattr(new, f.name).__set__
            if f.default is MISSING:
                params.append(f.name)
            else:
                env[f"_default_{f.name}"] = f.default
                params.append(f"{f.name}=_default_{f.name}")
        for m in memos:
            env[f"_set_{m}"] = getattr(new, m).__set__
        body = [f"    _set_{n}(self, {n})" for n in names]
        body += [f"    _set_{m}(self, None)" for m in memos]
        if hasattr(new, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body or ["    pass"]), env)
        new.__init__ = env["__init__"]
        new.__init__.__qualname__ = f"{new.__qualname__}.__init__"
        return new

    return make


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


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
# numerals in decimal, at any size
#
# Python refuses decimal conversions of integers past a set number of digits
# (``sys.get_int_max_str_digits``, 4,300 by default).  A numeral of the
# language has no such bound, so a conversion the interpreter refuses is
# redone in halves, each under the limit, and the limit is left as it is.


def numeral_value(text: str) -> int:
    """The integer a decimal numeral, optionally signed, denotes."""
    try:
        return int(text)
    except ValueError:
        if not text.lstrip("+-").isdigit():
            raise
    sign = -1 if text[0] == "-" else 1
    return sign * _digits_value(text.lstrip("+-"))


def _digits_value(digits: str) -> int:
    limit = sys.get_int_max_str_digits()
    if len(digits) <= limit:
        return int(digits)
    k = len(digits) // 2
    return _digits_value(digits[:-k]) * 10**k + _digits_value(digits[-k:])


def numeral_text(n: int) -> str:
    """``str(n)``, whatever the number of digits."""
    try:
        return str(n)
    except ValueError:
        return "-" + _digits_text(-n, 0) if n < 0 else _digits_text(n, 0)


def _digits_text(n: int, width: int) -> str:
    """The digits of ``n`` >= 0, zero-padded on the left to ``width``."""
    size = n.bit_length() * 30103 // 100000 + 1  # at least its digit count
    if size < sys.get_int_max_str_digits():
        return str(n).zfill(width)
    k = size // 2
    hi, lo = divmod(n, 10**k)
    return (_digits_text(hi, 0) + _digits_text(lo, k)).zfill(width)


# ---------------------------------------------------------------------------
# terms


@frozen("_fv")
class VarV:
    name: str


@frozen("_fv")
class NumV:
    n: int


@frozen("_fv")
class ThunkV:
    body: "Term"


Value = Union[VarV, NumV, ThunkV]


@frozen("_fv")
class Force:
    value: Value


@frozen("_fv")
class Prd:
    """Produce a value (the terminal move of a producer computation)."""

    value: Value


@frozen("_fv")
class App:
    """Push ``arg`` onto the argument stack and continue with ``body``."""

    arg: Value
    body: "Term"


@frozen("_fv")
class Lam:
    binder: str
    body: "Term"


@frozen("_fv")
class Seq:
    """``left to binder in right`` — run left, bind what it produces."""

    left: "Term"
    binder: str
    right: "Term"


@frozen("_fv")
class LetRec:
    defs: tuple  # ((name, Term), ...), at least one entry
    body: "Term"

    def __post_init__(self):
        defs = tuple((n, d) for n, d in self.defs)
        if not defs:
            raise ValueError("letrec needs at least one definition")
        object.__setattr__(self, "defs", defs)


@frozen("_fv")
class If0:
    guard: Value
    then: "Term"
    orelse: "Term"


@frozen("_fv")
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
        fill = _FILL.get(type(node), ())
        if 0 <= i < len(fill):
            return fill[i](node, new)
    raise InvalidPath(f"{type(node).__name__} has no child {i}")


def _filler(t, name: str):
    """``(node, new) -> t(...)``: the constructor called on ``node``'s fields
    with field ``name`` set to ``new``.  That is what ``dataclasses.replace``
    gives, at half its cost or less."""
    args = ", ".join("new" if f.name == name else f"node.{f.name}" for f in fields(t))
    return eval(f"lambda node, new: t({args})", {"t": t})


# each node type but LetRec -> a filler per child index, in child order
_FILL = {t: tuple(_filler(t, n) for n in names) for t, names in _CHILDREN.items()}


def _getter(names):
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


# each node type -> the function that reads its children off a node
_KIDS = {t: _getter(names) for t, names in _CHILDREN.items()}
_KIDS[LetRec] = lambda node: (node.body, *(d for _, d in node.defs))
_KIDS[VarV] = _KIDS[NumV] = lambda node: ()


def children(node: Node) -> tuple:
    """The children of ``node`` in child-index order, none on a leaf."""
    get = _KIDS.get(type(node))
    if get is None:
        raise TypeError(f"not a term: {node!r}")
    return get(node)


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


_HEADS = ((), (0,), (0, 1), (0, 1, 2))  # the child indices of k < 4 children


class Prog:
    """A fixed program plus an index of the positions visited so far.

    Every visited position gets one integer id, handed out in visiting
    order, with the root as 0; a child's id is always above its parent's.
    By id the index keeps the position's node (``nodes``), its parent's id
    (``parents``, -1 at the root), the child index it hangs from
    (``heads``) and the id of its first child (``first``, -1 until its
    children are visited).  ``kid`` visits a position's children, all of
    them at once, so they get consecutive ids and child ``j`` of ``i`` is
    ``first_child(i) + j``; nothing is visited when a Prog is built, and
    ``fill`` visits every position not visited yet.

    Ids are the names of positions inside the machines: program counters,
    frames, environment cells, closure entries and compiled blocks all hold
    them, so a step or a compile builds no path.  An id means something only
    under the Prog that handed it out.  Paths are the external names, and
    only text is made of them: ``path_text(i)`` climbs from a position to
    the root for traces, listings and messages, and keeps nothing.

    ``tables[name]`` is a per-position table of the machines, keyed by id
    and made on first use.  ``token`` stands for the Prog in what is kept
    outside it, such as the memos on machine cells (``cek.Cell.memo_of``):
    it refers to nothing, so such a memo never keeps the Prog alive, and
    one that the Prog's tables reach makes no cycle through it.

    peak, pek and cfg take a Prog as their program, never a term.  A term
    becomes a Prog at the edge, in the functions that take source terms
    (``harness.machine``, the checks, ``rewrite`` and the CLI), through
    ``as_prog``, which keeps the last one it built, so every check of one
    term shares one index.
    """

    __slots__ = ("term", "nodes", "parents", "heads", "first", "tables", "token")

    def __init__(self, term: Term):
        self.term = term
        self.nodes = [term]
        self.parents = [-1]
        self.heads = [-1]
        self.first = [-1]  # id -> id of its first child, -1 until they are visited
        self.tables = defaultdict(dict)  # name -> {position id: entry}
        self.token = object()

    def kid(self, i: int, j: int) -> int:
        """The id of child ``j`` of position ``i``, visiting the children of
        ``i`` if need be."""
        c = self.first[i]
        if c < 0:
            c = self.first_child(i)
        c += j
        try:
            if j >= 0 and self.parents[c] == i:
                return c
        except IndexError:
            pass
        raise InvalidPath(f"{type(self.nodes[i]).__name__} has no child {j}")

    def first_child(self, i: int) -> int:
        """The id of the first child of position ``i``, the others following
        it in order, visiting them if need be (one ``children`` call)."""
        c = self.first[i]
        if c < 0:
            kids = children(self.nodes[i])
            k = len(kids)
            c = self.first[i] = len(self.nodes)
            self.nodes += kids
            self.parents += (i,) * k
            self.heads += _HEADS[k] if k < 4 else range(k)
            self.first += (-1,) * k
        return c

    def fill(self) -> None:
        """Visit every position not visited yet, in one loop over the ids.

        The ids handed out so far are kept, and each new position's
        children are read off its node in one ``children`` call, as
        ``first_child`` reads them.  A child's id is above its parent's, so
        the loop reaches the positions it hands out ids to.  Leaves keep
        ``first`` at -1.  The loop does ``first_child``'s work itself: a
        call per position made filling about a fifth slower."""
        nodes, parents, heads, first = self.nodes, self.parents, self.heads, self.first
        i = 0
        while i < len(nodes):
            if first[i] < 0:
                node = nodes[i]
                t = type(node)
                if t is not VarV and t is not NumV:
                    kids = children(node)
                    k = len(kids)
                    first[i] = len(nodes)
                    nodes += kids
                    parents += (i,) * k
                    heads += _HEADS[k] if k < 4 else range(k)
                    first += (-1,) * k
            i += 1

    def path_text(self, i: int) -> str:
        """Position ``i`` as traces, listings and messages show it, root
        first and dotted (``syntax.path_text``), read off by climbing
        ``parents``; or ``no position i`` when ``i`` names none, as a broken
        machine's state may hold."""
        if type(i) is not int or not 0 <= i < len(self.nodes):
            return f"no position {i!r}"
        heads, parents = self.heads, self.parents
        up = []
        while i > 0:
            up.append(heads[i])
            i = parents[i]
        up.reverse()
        # one format of all the components: about half the time of a str each
        return ("%d." * len(up) % tuple(up))[:-1] if up else "ε"

    def __repr__(self):
        return f"Prog({self.term!r})"


# The Prog ``as_prog`` built last, and ``(make, make(_last))`` for the one
# thing ``derived`` made from it: cfg.load's compiled graph.  They are
# dropped together, and neither refers back here, so an evicted Prog is
# freed by reference counting.
_last: Optional[Prog] = None
_made: Optional[tuple] = None


def as_prog(P) -> Prog:
    """``P`` when it is a Prog, else a Prog of the term ``P``.

    The Prog built last is kept.  Given the same term object again (by
    identity, never ``==``), as_prog returns it, so the checks of one term
    share its index, its tables and, through ``derived``, its compiled
    graph.  Another term evicts it.  ``Prog(term)`` always builds afresh.
    """
    global _last, _made
    if isinstance(P, Prog):
        return P
    prog = _last
    if prog is None or prog.term is not P:
        _last = _made = None  # the old Prog goes before the new one is built
        prog = _last = Prog(P)
    return prog


def derived(prog: Prog, make):
    """``make(prog)``, made once while ``as_prog`` keeps ``prog`` and
    ``make`` is the function last asked for, and afresh otherwise.  So a
    patched ``make`` is never served what the real one made."""
    global _made
    if prog is not _last:
        return make(prog)
    if _made is None or _made[0] is not make:
        _made = (make, make(prog))
    return _made[1]


# ---------------------------------------------------------------------------
# free variables (kept on the node; terms are immutable)

_EMPTY: frozenset = frozenset()


def free_vars(node: Node) -> frozenset:
    """The names free in ``node``.

    The answer is kept on the node, and ``substitute`` stores it on every
    node it builds, so a term built by substitution is never walked again
    here.  That is sound because nodes are frozen: a node's free names
    cannot change after it is built.  A term of any depth is answered: the
    first ``_FV_CALLS`` levels below a node are walked by recursion, which
    costs about half as much a node, and anything deeper with an explicit
    stack.
    """
    fv = getattr(node, "_fv", None)
    if fv is None:
        fv = _free_vars_rec(node, _FV_CALLS)
    return fv


_FV_CALLS = 100  # levels walked by recursion, well inside any recursion limit


def _free_vars_rec(node: Node, budget: int) -> frozenset:
    fv = getattr(node, "_fv", None)
    if fv is not None:
        return fv
    if not budget:
        return _free_vars_walk(node)
    b = budget - 1
    t = type(node)
    if t is VarV:
        fv = frozenset((node.name,))
    elif t is NumV:
        fv = _EMPTY
    elif t is ThunkV:
        fv = _free_vars_rec(node.body, b)
    elif t is Force or t is Prd:
        fv = _free_vars_rec(node.value, b)
    elif t is App:
        fv = _free_vars_rec(node.arg, b) | _free_vars_rec(node.body, b)
    elif t is Lam:
        fv = _free_vars_rec(node.body, b) - {node.binder}
    elif t is Seq:
        fv = _free_vars_rec(node.left, b) | (_free_vars_rec(node.right, b) - {node.binder})
    elif t is LetRec:
        acc = set(_free_vars_rec(node.body, b))
        for _, d in node.defs:
            acc |= _free_vars_rec(d, b)
        fv = frozenset(acc - {n for n, _ in node.defs})
    elif t is If0:
        fv = (_free_vars_rec(node.guard, b) | _free_vars_rec(node.then, b)
              | _free_vars_rec(node.orelse, b))
    elif t is Op:
        fv = _free_vars_rec(node.lhs, b) | _free_vars_rec(node.rhs, b)
    else:
        raise TypeError(f"not a term: {node!r}")
    object.__setattr__(node, "_fv", fv)
    return fv


def _free_vars_walk(node: Node) -> frozenset:
    # free_vars with an explicit stack.  Postorder: a node goes back on the stack, with its children, under
    # those of them not answered yet, and is answered once they are.  The
    # node asked about is at the bottom, so it is answered last.  Leaves
    # are answered on the spot.
    stack = [(node, None)]
    push, pop = stack.append, stack.pop
    while stack:
        n, kids = pop()
        t = type(n)
        if kids is None:
            if t is VarV:
                fv = frozenset((n.name,))
                object.__setattr__(n, "_fv", fv)
                continue
            get = _KIDS.get(t)
            if get is None:
                raise TypeError(f"not a term: {n!r}")
            kids = get(n)
            waiting = False
            for k in kids:
                if getattr(k, "_fv", None) is None:
                    tk = type(k)
                    if tk is VarV:
                        object.__setattr__(k, "_fv", frozenset((k.name,)))
                    elif tk is NumV:
                        object.__setattr__(k, "_fv", _EMPTY)
                    else:
                        if not waiting:
                            push((n, kids))
                            waiting = True
                        push((k, None))
            if waiting:
                continue
        if t is Seq:
            fv = kids[0]._fv | (kids[1]._fv - {n.binder})
        elif t is Lam:
            fv = kids[0]._fv - {n.binder}
        elif t is LetRec:
            acc = set()
            for k in kids:
                acc |= k._fv
            fv = frozenset(acc - {name for name, _ in n.defs})
        elif kids:  # ThunkV, Force, Prd, App, If0, Op
            fv = kids[0]._fv
            for k in kids[1:]:
                fv = fv | k._fv
        else:  # NumV
            fv = _EMPTY
        object.__setattr__(n, "_fv", fv)
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

    A call costs about the nodes it rebuilds: a subtree in which no
    substituted name is free is returned as-is (object identity), which
    keeps repeated machine unloads from blowing up allocation.  Each node
    built carries its free variables, ``(fv(node) - dom sub)`` plus the
    free names of the values substituted into it, so ``free_vars`` never
    walks it; that is sound because nodes are frozen.

    There are two walks.  When no substituted value has a free name, the
    common case on closed programs, nothing can be captured, and
    ``_subst_closed`` recurses without any capture check, the cheapest way
    a node.  Otherwise ``_subst_walk`` keeps its own stack and checks a
    binder for capture only when its name is free in a substituted value.
    A term too deep for ``_subst_closed``'s recursion is done again by
    ``_subst_walk``, so a term of any depth is substituted into.  A depth
    budget counted down through the recursion, as ``free_vars`` keeps one,
    would tax every call on the machines' hottest path.
    """
    if not sub or free_vars(node).isdisjoint(sub):
        return node
    vfv = _EMPTY
    for v in sub.values():
        if type(v) is not NumV:  # numerals, the most common values, are closed
            f = free_vars(v)
            if f:
                vfv = vfv | f
    if vfv:
        return _subst_walk(node, sub, vfv)
    try:
        return _subst_closed(node, sub)
    except RecursionError:  # deeper than the interpreter's stack goes
        return _subst_walk(node, sub, vfv)


def _without(sub, names):
    """``sub`` with ``names`` dropped: what the scope of their binder sees."""
    return {k: v for k, v in sub.items() if k not in names}


def _subst_closed(node: Node, sub) -> Node:
    # _subst_walk when no value of sub has a free name: nothing can be
    # captured, and a built node's free names are its own less dom sub.
    # ``sub`` may hold names that are not free in ``node``: it is passed down
    # unchanged and loses a name only under a binder of that name.  The
    # cases come in the order the machines' terms use them most.
    t = type(node)
    if t is VarV:
        return sub.get(node.name, node)
    if t is NumV:
        return node
    fv = node._fv  # a node: free_vars answered for the term substituted into
    if fv is None:
        fv = free_vars(node)
    if fv.isdisjoint(sub):
        return node
    if t is Seq:
        b, left, right = node.binder, node.left, node.right
        nl = _subst_closed(left, sub)
        nr = _subst_closed(right, _without(sub, (b,)) if b in sub else sub)
        if nl is left and nr is right:
            return node
        new = Seq(nl, b, nr)
    elif t is App:
        new = App(_subst_closed(node.arg, sub), _subst_closed(node.body, sub))
    elif t is Lam:
        b, body = node.binder, node.body
        nb = _subst_closed(body, _without(sub, (b,)) if b in sub else sub)
        if nb is body:
            return node
        new = Lam(b, nb)
    elif t is If0:
        new = If0(
            _subst_closed(node.guard, sub),
            _subst_closed(node.then, sub),
            _subst_closed(node.orelse, sub),
        )
    elif t is Op:
        new = Op(_subst_closed(node.lhs, sub), node.op, _subst_closed(node.rhs, sub))
    elif t is Force:
        new = Force(_subst_closed(node.value, sub))
    elif t is Prd:
        new = Prd(_subst_closed(node.value, sub))
    elif t is ThunkV:
        new = ThunkV(_subst_closed(node.body, sub))
    elif t is LetRec:
        names = [n for n, _ in node.defs]
        inner = _without(sub, names) if not sub.keys().isdisjoint(names) else sub
        defs = tuple((n, _subst_closed(d, inner)) for n, d in node.defs)
        nb = _subst_closed(node.body, inner)
        if nb is node.body and all(d2 is d1 for (_, d1), (_, d2) in zip(node.defs, defs)):
            return node
        new = LetRec(defs, nb)
    else:
        raise TypeError(f"not a term: {node!r}")
    object.__setattr__(new, "_fv", fv.difference(sub))  # kept as free_vars keeps it
    return new


def _avoid_capture(b, sub, scope):
    """How ``sub`` enters ``scope``, the scope of binder ``b``, when a value
    it substitutes there has ``b`` free: ``(fresh name for b, substitution
    that also renames b)``.  None when no such value is substituted."""
    sfv = free_vars(scope)
    live = {k: v for k, v in sub.items() if k != b and k in sfv}
    if not any(b in free_vars(v) for v in live.values()):
        return None
    avoid = set(live)
    avoid |= sfv
    for v in live.values():
        avoid |= free_vars(v)
    fresh = freshen(b, avoid)
    live[b] = VarV(fresh)
    return fresh, live


def _enter_binder(b, sub, vfv, scope) -> tuple:
    """How ``sub`` enters ``scope``, the scope of a Lam or Seq binder ``b``:
    ``(b or its fresh name, the substitution there, vfv there)``."""
    ren = _avoid_capture(b, sub, scope) if b in vfv else None
    if ren is not None:
        fresh, inner = ren
        return fresh, inner, vfv | {fresh}
    return b, (_without(sub, (b,)) if b in sub else sub), vfv


def _enter_letrec(node: LetRec, sub, vfv, fv) -> tuple:
    """How ``sub`` enters a letrec of free names ``fv``: ``(its names, some
    renamed apart from the free names of a value substituted there, the
    substitution inside, vfv inside)``."""
    names = [n for n, _ in node.defs]
    clash = None
    if not vfv.isdisjoint(names):
        # the names are not free here, so not substituted, but a value
        # substituted here may mention one: those definitions get renamed
        live = {k: v for k, v in sub.items() if k in fv}
        clash = [n for n in names if any(n in free_vars(v) for v in live.values())]
    if not clash:
        inner = _without(sub, names) if not sub.keys().isdisjoint(names) else sub
        return names, inner, vfv
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
    names = [ren[n].name if n in ren else n for n in names]
    return names, {**live, **ren}, vfv.union(f.name for f in ren.values())


def _fv_after(fv, sub) -> frozenset:
    """The free names of a node of free names ``fv`` after ``sub``:
    ``fv - dom sub``, plus those of the values substituted into it."""
    out = fv.difference(sub)
    for k, v in sub.items():
        if k in fv:
            out |= free_vars(v)
    return out


def _subst_walk(node: Node, sub, vfv) -> Node:
    # Substitution with an explicit stack, so a term of any depth is
    # substituted into (with ``vfv`` empty it is _subst_closed).  ``vfv``
    # holds at least every name free in a value of ``sub``; a binder whose
    # name is not in it cannot capture, so it is not checked.  An entry
    # (node, sub, vfv) is a node to substitute into; a node whose children
    # are under way goes back on the stack under them as (node, plan), and
    # is rebuilt from their results, which gather on ``done`` in order.
    todo, done = [(node, sub, vfv)], []
    push, pop = todo.append, todo.pop
    while todo:
        entry = pop()
        if len(entry) == 2:
            done.append(_rebuilt(*entry, done))
            continue
        n, s, v = entry
        t = type(n)
        if t is VarV:
            done.append(s.get(n.name, n))
            continue
        fv = _EMPTY if t is NumV else free_vars(n)
        if fv.isdisjoint(s):
            done.append(n)
            continue
        if t is Lam:
            b, inner, iv = _enter_binder(n.binder, s, v, n.body)
            kids, names = [(n.body, inner, iv)], b
        elif t is Seq:
            b, inner, iv = _enter_binder(n.binder, s, v, n.right)
            kids, names = [(n.left, s, v), (n.right, inner, iv)], b
        elif t is LetRec:
            names, inner, iv = _enter_letrec(n, s, v, fv)
            kids = [(d, inner, iv) for _, d in n.defs] + [(n.body, inner, iv)]
        else:
            kids, names = [(c, s, v) for c in children(n)], None
        push((n, (fv, s, names, len(kids))))
        for kid in reversed(kids):
            push(kid)
    return done[0]


def _rebuilt(node: Node, plan, done: list) -> Node:
    """``node`` rebuilt from the results of its children, the last entries
    of ``done`` (which it takes off), and the binder name or names of its
    ``plan``."""
    fv, sub, names, k = plan
    kids = done[-k:]
    del done[-k:]
    t = type(node)
    if t is Lam:
        if names is node.binder and kids[0] is node.body:
            return node
        new = Lam(names, kids[0])
    elif t is Seq:
        if names is node.binder and kids[0] is node.left and kids[1] is node.right:
            return node
        new = Seq(kids[0], names, kids[1])
    elif t is LetRec:
        defs = tuple(zip(names, kids))
        if kids[-1] is node.body and all(
            d2 is d1 and n2 is n1 for (n1, d1), (n2, d2) in zip(node.defs, defs)
        ):
            return node
        new = LetRec(defs, kids[-1])
    elif t is Op:
        new = Op(kids[0], node.op, kids[1])
    else:  # ThunkV, Force, Prd, App, If0: their fields are their children
        new = t(*kids)
    object.__setattr__(new, "_fv", _fv_after(fv, sub))
    return new


# ---------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(a: Node, b: Node) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    One subterm object met on both sides is equal to itself once each of
    its free names refers to the same binder (or to none) in both scopes,
    so it is not walked.  Unloads hand out shared subterms, which makes
    comparing two neighbouring states cost what changed between them.

    Substitution shares a value between the places it goes to, so a term
    may reuse one thunk many times.  A pair of thunk objects found equal is
    remembered with the ranks of their free names, and not walked again
    under the same ranks, so comparing such terms costs their distinct
    subterms, not their size as trees.  The first ``_AEQ_CALLS`` levels
    below a pair are compared by recursion; a pair deeper than that is set
    aside on a stack and compared from there, so a term of any depth is
    compared.
    """
    todo = [(a, b, None, None)]
    seen = set()
    while todo:
        a, b, sa, sb = todo.pop()
        if not _aeq(a, b, sa, sb, seen, todo, _AEQ_CALLS):
            return False
    return True


_AEQ_CALLS = 100  # levels compared by recursion, well inside any recursion limit

# A scope is None or ``(names, outer scope)``: the names of the innermost
# binding construct (one for a Lam or Seq, a letrec's in definition order)
# and the scope outside it.


def _rank(name: str, scope) -> Optional[tuple]:
    i = 0
    while scope is not None:
        names, scope = scope
        if name in names:
            return (i, names.index(name))
        i += 1
    return None


def _ranks(names, scope) -> tuple:
    return tuple([_rank(x, scope) for x in names])


def _inner_scopes(na, nb, sa, sb) -> tuple:
    """The scopes inside binders ``na`` and ``nb``: one object for both when
    the two sides bind the same names under one scope, so that a subterm
    object both sides share is found equal without ranking its names."""
    if sa is sb and na == nb:
        s = (na, sa)
        return s, s
    return (na, sa), (nb, sb)


def _aeq(a, b, sa, sb, seen, todo, budget) -> bool:
    # a under scope sa against b under sb.  Every pair compared must be
    # equal, so a pair found again in ``seen`` holds, and one past the
    # recursion budget goes on ``todo`` to be compared later.
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
    if not budget:
        todo.append((a, b, sa, sb))
        return True
    k = budget - 1
    if ta is ThunkV:
        fa, fb = free_vars(a), free_vars(b)
        key = (id(a), id(b), _ranks(fa, sa), _ranks(fb, sb))  # both live while compared
        if key in seen:
            return True
        seen.add(key)
        return _aeq(a.body, b.body, sa, sb, seen, todo, k)
    if ta is Force or ta is Prd:
        return _aeq(a.value, b.value, sa, sb, seen, todo, k)
    if ta is App:
        return _aeq(a.arg, b.arg, sa, sb, seen, todo, k) and _aeq(
            a.body, b.body, sa, sb, seen, todo, k
        )
    if ta is Lam:
        sa2, sb2 = _inner_scopes((a.binder,), (b.binder,), sa, sb)
        return _aeq(a.body, b.body, sa2, sb2, seen, todo, k)
    if ta is Seq:
        sa2, sb2 = _inner_scopes((a.binder,), (b.binder,), sa, sb)
        return _aeq(a.left, b.left, sa, sb, seen, todo, k) and _aeq(
            a.right, b.right, sa2, sb2, seen, todo, k
        )
    if ta is LetRec:
        if len(a.defs) != len(b.defs):
            return False
        sa2, sb2 = _inner_scopes(
            tuple(n for n, _ in a.defs), tuple(n for n, _ in b.defs), sa, sb
        )
        for (_, da), (_, db) in zip(a.defs, b.defs):
            if not _aeq(da, db, sa2, sb2, seen, todo, k):
                return False
        return _aeq(a.body, b.body, sa2, sb2, seen, todo, k)
    if ta is If0:
        return (
            _aeq(a.guard, b.guard, sa, sb, seen, todo, k)
            and _aeq(a.then, b.then, sa, sb, seen, todo, k)
            and _aeq(a.orelse, b.orelse, sa, sb, seen, todo, k)
        )
    if ta is Op:
        return (
            a.op is b.op
            and _aeq(a.lhs, b.lhs, sa, sb, seen, todo, k)
            and _aeq(a.rhs, b.rhs, sa, sb, seen, todo, k)
        )
    raise TypeError(f"not a term: {a!r}")


# ---------------------------------------------------------------------------
# binder resolution


def binder_of(prog: Prog, i: int) -> tuple:
    """The binder that captures variable ``i``, walking outward: ``(q,
    j)`` with ``q`` the binder's id (None for a free name) and ``j`` the
    1-based definition slot when it is a letrec (else 0), worked out once
    per id.

    A Lam binds inside its body (child 0), a Seq binds inside its right
    component (child 1), and a LetRec binds its bundle names inside every
    child.  The innermost matching binder wins; within one bundle the
    leftmost definition of a duplicated name wins.
    """
    tbl = prog.tables["binder"]
    hit = tbl.get(i)
    if hit is not None:
        return hit
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    node = nodes[i]
    if type(node) is not VarV:
        raise NotAVariable(f"no variable at {prog.path_text(i)}: {node!r}")
    name = node.name
    hit = (None, 0)
    k = i
    while k:
        head, q = heads[k], parents[k]
        parent = nodes[q]
        t = type(parent)
        if (t is Lam and head == 0) or (t is Seq and head == 1):
            if parent.binder == name:
                hit = (q, 0)
                break
        elif t is LetRec:
            j = next((j for j, (n, _) in enumerate(parent.defs, 1) if n == name), None)
            if j is not None:
                hit = (q, j)
                break
        k = q
    tbl[i] = hit
    return hit
