"""The PEAK machine: program counter, scope-chain environment, argument stack.

States address subterms of a fixed program by position instead of
carrying code: the program counter, every frame, every environment cell's
binder and every closure's entry is a position id of the program's index
(``syntax.Prog``), and an id means something only under that Prog.
The environment is a chain of immutable ``Env`` cells, one per Lam or Seq
binder in scope at the program counter, innermost first: exactly those
binders and no others, so ``len(env)`` is the number of Lam/Seq binders in
scope.  A bind makes one cell on top of the chain; a variable is found by
its binder's level, the number of cells up to and including the binder's,
so a lookup walks only the static distance.  letrec needs no cells at all:
looking up a recursive name fabricates a closure whose entry is the
definition's position, over the chain cut back to the letrec's scope.  The
argument stack delays closure creation for application arguments until a
force converts the pending frames into continuation frames (the δ function).

Unloading rebuilds the CEK view of a state.  Machine transitions only ever
leave the program counter at non-descent positions, so the ascent pass at
the top of ``unload`` is a no-op for states this machine produces; it exists
for the instruction-pointer machines layered on top, whose resting positions
sit at the bottom of a descent chain.

Advancement, binder resolution and the binders in scope at a position are
worked out once per id, and every next program counter is a child's id
taken from the index, so neither a step nor an unload builds, slices or
hashes a path.  Paths are made only at the edge: ``describe``, the public
functions that take a path (``gamma``, ``lookup_var``), and the messages
of ``wf_check`` and of an unload that fails.

Unloads are memoized by cell.  A cell cannot be written to, so what it
unloads to under a program is fixed: its CEK binding, its environment at
each anchor position, the closures over it and the sequence frames on it
are kept on the cell (``Env.memo_of``) and die with it, and an unload pays
only for the cells that are new since the last one.  Every CEK value,
environment cell and sequence frame an unload builds also comes from one
weak table in the program's ``tables``, keyed by the position it stands for
and the ids of its parts; each entry holds those parts, so an id in a live
key never names a dead object.  Equal unloads are therefore the same
objects, which lets cek keep a closure's or a frame's flattening on the
object and lets ``alpha_eq`` stop at a shared subterm.
"""

from dataclasses import dataclass, field
from typing import Union
from weakref import WeakValueDictionary

from . import cek
from .cek import CekState, Closure, NumC, SymVar
from .sos import (
    AwaitingArgument,
    BareArith,
    ProducedValue,
    Stuck,
    StuckReason,
    Terminal,
)
from .syntax import (
    App,
    Force,
    If0,
    Lam,
    LetRec,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    as_prog,
    binder_of,
)

# ---------------------------------------------------------------------------
# environments


class MissingBinding(Exception):
    """A binder had no entry in the environment (ill-formed state); the
    argument is the binder's position id."""


class Env:
    """One immutable environment cell: a Lam or Seq binder's position id, the value
    bound to it, and the chain of the binders outside it.  ``size`` caches
    the chain's length, this cell included, and ``EMPTY`` ends every chain.

    Equality is structural.  It walks the chain and the closures on it with
    an explicit stack, so neither a long chain nor deeply nested closures
    can overflow Python's stack, and it stops at a pair of cells that are
    one object or were found equal before: ``twin`` is the last cell this
    one was found equal to.  Checks compare two machines' chains at every
    step, and each step adds a cell on top of chains already compared, so
    that is all a comparison walks.  ``memo`` is what a program's checks
    have worked out about the cell (see ``memo_of``).  Neither takes part
    in equality.
    """

    __slots__ = ("binder", "value", "parent", "size", "memo", "twin", "__weakref__")

    def __init__(self, binder, value, parent):
        self.binder = binder
        self.value = value
        self.parent = parent
        self.size = parent.size + 1
        self.memo = self.twin = None

    def __len__(self):
        return self.size

    def cut(self, k: int):
        """The chain's outermost ``k`` cells."""
        e = self
        while e.size > k:
            e = e.parent
        return e

    def find(self, binder: int, level: int):
        """The value of ``binder``, whose cell is the ``level``-th from the
        end of the chain: a walk of the static distance, then one check."""
        e = self
        while e.size > level:
            e = e.parent
        if e.size == level and e.binder == binder:
            return e.value
        raise MissingBinding(binder)

    def items(self):
        """The (binder, value) pairs of the chain, innermost first."""
        e = self
        while e.size:
            yield e.binder, e.value
            e = e.parent

    def memo_of(self, prog) -> dict:
        """The cell's memo table under ``prog``.  A cell cannot be written
        to, so what a program's checks derive from it stays true while it
        lives, and dies with it.  The end of the chain is shared by every
        program, so its entries, one per position at most, live in the
        program's tables instead."""
        if not self.size:
            return prog.tables["empty"]
        m = self.memo
        if m is None or m[0] is not prog:
            m = self.memo = (prog, {})
        return m[1]

    def __eq__(self, other):
        if type(other) is not Env:
            return NotImplemented
        return _chains_equal(self, other)

    __hash__ = None  # compared structurally, so never a key

    def __repr__(self):
        inner = ", ".join(f"{b}: {v!r}" for b, v in self.items())
        return f"Env({{{inner}}})"


EMPTY = object.__new__(Env)
EMPTY.binder = EMPTY.value = EMPTY.parent = EMPTY.memo = EMPTY.twin = None
EMPTY.size = 0


def chain(*pairs) -> Env:
    """The chain binding each (binder id, value) pair, outermost first."""
    e = EMPTY
    for binder, value in pairs:
        e = Env(binder, value, e)
    return e


def _chains_equal(a: Env, b: Env) -> bool:
    todo, walked, seen = [(a, b)], [], set()
    while todo:
        a, b = todo.pop()
        while a is not b and a.twin is not b:
            if a.size != b.size:
                return False
            if not a.size:
                break
            pair = (id(a), id(b))  # both stay alive in the chains compared
            if pair in seen:
                break
            seen.add(pair)
            walked.append((a, b))
            if a.binder != b.binder:
                return False
            va, vb = a.value, b.value
            if va is not vb:
                if type(va) is PClosure and type(vb) is PClosure:
                    if va.entry != vb.entry:
                        return False
                    todo.append((va.env, vb.env))
                elif va != vb:
                    return False
            a, b = a.parent, b.parent
    for a, b in walked:
        a.twin = b
    return True


# ---------------------------------------------------------------------------
# machine values, frames, states

# The metadata of a field that holds a position id: failure lines show such
# a field as the position's dotted path, as traces show a pc.
POSITION = {"position": True}


@dataclass(frozen=True)
class NumP:
    n: int


@dataclass(frozen=True)
class PClosure:
    entry: int = field(metadata=POSITION)  # position id of a computation subterm
    env: Env  # exactly the Lam/Seq binders in scope at the entry


PVal = Union[SymVar, NumP, PClosure]


@dataclass(frozen=True)
class ARG:
    pos: int = field(metadata=POSITION)  # an App node


@dataclass(frozen=True)
class SEQ:
    pos: int = field(metadata=POSITION)  # a Seq node


@dataclass(frozen=True)
class KArg:
    value: PVal


@dataclass(frozen=True)
class KSeq:
    pos: int = field(metadata=POSITION)  # a Seq node
    env: Env  # the chain in scope at the Seq node
    rest_args: tuple


@dataclass(frozen=True)
class PeakState:
    pc: int = field(metadata=POSITION)  # position id
    env: Env  # the Lam/Seq binders in scope at pc, innermost first
    args: tuple  # of ARG/SEQ, innermost frame first
    kont: tuple  # of KArg/KSeq, top first


# ---------------------------------------------------------------------------
# static scope, by position id


def _scope(prog, i: int):
    """The binders a position sits under, innermost first, as a cons list
    of ``(binder id, rest, n)`` cells ending in None: every Lam entered
    through its body, every Seq entered through its right component and
    every LetRec entered through any child; ``n`` counts the Lam and Seq
    binders in the list.  Each cell is made once, and a position's list
    shares its parent's."""
    tab = prog.tables["scope"]
    if i in tab:
        return tab[i]
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    pending = []  # climb to the nearest position with a list (or the root)
    while i not in tab:
        pending.append(i)
        if not i:
            r = None
            break
        i = parents[i]
    else:
        r = tab[i]
    for q in reversed(pending):
        if q:
            par, head = parents[q], heads[q]
            t = type(nodes[par])
            if (t is Lam and head == 0) or (t is Seq and head == 1) or t is LetRec:
                r = (par, r, (r[2] if r else 0) + (t is not LetRec))
        tab[q] = r
    return r


def _depth(prog, i: int) -> int:
    """The number of Lam/Seq binders in scope at position ``i``: the length
    of the chain there."""
    cell = _scope(prog, i)
    return cell[2] if cell else 0


def _frame(prog, i: int):
    """What the chain at position ``i`` must be: ``(letrecs, b, n)`` with the
    letrecs between ``i`` and its innermost Lam/Seq binder (innermost
    first), that binder's id (-1 without one) and the chain's length."""
    tab = prog.tables["frame"]
    hit = tab.get(i)
    if hit is None:
        recs, cell, nodes = [], _scope(prog, i), prog.nodes
        while cell and type(nodes[cell[0]]) is LetRec:
            recs.append(cell[0])
            cell = cell[1]
        hit = tab[i] = (tuple(recs), cell[0], cell[2]) if cell else (tuple(recs), -1, 0)
    return hit


# ---------------------------------------------------------------------------
# value resolution

_LOC, _CLO, _SYM = range(3)


def _resolve(prog, i: int, entry):
    """How the value at position ``i`` is read off a chain: ``(_LOC, binder
    id, level)``, ``(_CLO, entry id, cells kept)`` or ``(_SYM, SymVar, 0)``.
    ``entry(prog, i, j)`` names the code of child ``j`` of ``i``.  A thunk
    keeps the chain in scope at itself, a recursive name the chain in
    scope at its letrec."""
    if type(prog.nodes[i]) is ThunkV:
        return _CLO, entry(prog, i, 0), _depth(prog, i)
    q, j = binder_of(prog, i)
    if q is None:
        return _SYM, SymVar(prog.nodes[i].name), 0
    if j:
        return _CLO, entry(prog, q, j), _depth(prog, q)
    return _LOC, q, _depth(prog, q) + 1


def _child(prog, i: int, j: int) -> int:
    return prog.kid(i, j)


def lookup_var(P, p: tuple, e: Env) -> PVal:
    prog = as_prog(P)
    i = prog.pos(p)
    binder_of(prog, i)  # raises off a variable
    return _gamma(prog, i, e)


def gamma(P, p: tuple, e: Env) -> PVal:
    prog = as_prog(P)
    return _gamma(prog, prog.pos(p), e)


def _gamma(prog, i: int, e: Env) -> PVal:
    v = prog.nodes[i]
    if type(v) is NumV:
        return NumP(v.n)
    tab = prog.tables["peak.value"]
    hit = tab.get(i)
    if hit is None:
        hit = tab[i] = _resolve(prog, i, _child)
    kind, x, k = hit
    if kind is _LOC:
        if e.size == k and e.binder == x:  # the innermost binding, the commonest
            return e.value
        return e.find(x, k)
    if kind is _CLO:
        return PClosure(x, e if e.size == k else e.cut(k))
    return x


def _operand(prog, i: int, j: int, v, e: Env):
    """``_gamma`` of ``v``, child ``j`` of position ``i``: a numeral is read
    off the node, without visiting its position."""
    if type(v) is NumV:
        return NumP(v.n)
    return _gamma(prog, prog.kid(i, j), e)


def _seq_exit(prog, i: int):
    """Where a value bound by Seq ``i`` resumes, its right component, and
    how many cells of the chain the binding goes on: those in scope at the
    Seq."""
    tab = prog.tables["peak.seq"]
    hit = tab.get(i)
    if hit is None:
        hit = tab[i] = (_child(prog, i, 1), _depth(prog, i))
    return hit


def delta(P, e: Env, args: tuple) -> tuple:
    """Convert pending argument frames up to and including the first SEQ."""
    prog = as_prog(P)
    out = []
    for k, f in enumerate(args):
        i = f.pos
        if type(f) is ARG:
            out.append(KArg(_operand(prog, i, 0, prog.nodes[i].arg, e)))
        else:
            out.append(KSeq(i, e.cut(_seq_exit(prog, i)[1]), tuple(args[k + 1 :])))
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# stepping


def load(m) -> PeakState:
    return PeakState(0, EMPTY, (), ())


def advance(P, rho: PeakState) -> PeakState:
    """Descend search edges: Seq left, App body, letrec body."""
    prog = as_prog(P)
    return _advance(prog, rho.pc, rho)[1]


def _advance(prog, i: int, rho: PeakState):
    """``advance`` from position ``i``, ``rho.pc``; also returns the id
    the program counter lands on."""
    t = type(prog.nodes[i])
    if t is not Seq and t is not App and t is not LetRec:
        return i, rho
    tab = prog.tables["advance"]
    hit = tab.get(i)
    if hit is None:
        nodes, kid = prog.nodes, prog.kid
        j, pushed = i, []  # the frames pushed, outermost first
        while True:
            if t is Seq:
                pushed.append(SEQ(j))
                j = kid(j, 0)
            elif t is App:
                pushed.append(ARG(j))
                j = kid(j, 1)
            elif t is LetRec:
                j = kid(j, 0)
            else:
                break
            t = type(nodes[j])
        hit = tab[i] = (j, tuple(reversed(pushed)))
    j, pushed = hit
    return j, PeakState(j, rho.env, pushed + rho.args, rho.kont)


def step(P, rho: PeakState):
    prog = as_prog(P)
    i, st = _advance(prog, rho.pc, rho)
    try:
        return _fire(prog, i, st)
    except MissingBinding:
        return Stuck(StuckReason.UnboundPath)


def _fire(prog, i: int, st: PeakState):
    node = prog.nodes[i]
    t = type(node)
    e, args, kont = st.env, st.args, st.kont

    if t is Force:
        v = _operand(prog, i, 0, node.value, e)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        return PeakState(v.entry, v.env, (), delta(prog, e, args) + kont)

    if t is If0:
        g = _operand(prog, i, 0, node.guard, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PeakState(prog.kid(i, 1 if g.n == 0 else 2), e, args, kont)

    if t is Prd:
        if args:
            f = args[0]
            if type(f) is ARG:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            right, keep = _seq_exit(prog, f.pos)
            rest = e if e.size == keep else e.cut(keep)
            return PeakState(right, Env(f.pos, v, rest), args[1:], kont)
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            right = _seq_exit(prog, f.pos)[0]
            return PeakState(right, Env(f.pos, v, f.env), f.rest_args, kont[1:])
        return Terminal(ProducedValue(_operand(prog, i, 0, node.value, e)))

    if t is Lam:
        if args:
            f = args[0]
            if type(f) is SEQ:
                return Stuck(StuckReason.SequencedNonProducer)
            q = f.pos
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PeakState(prog.kid(i, 0), Env(i, v, e), args[1:], kont)
        if kont:
            f = kont[0]
            if type(f) is KSeq:
                return Stuck(StuckReason.SequencedNonProducer)
            return PeakState(prog.kid(i, 0), Env(i, f.value, e), (), kont[1:])
        return Terminal(AwaitingArgument())

    if t is Op:
        if args and type(args[0]) is ARG:
            return Stuck(StuckReason.ApplyNonFunction)
        if not args and kont and type(kont[0]) is KArg:
            return Stuck(StuckReason.ApplyNonFunction)
        l = _operand(prog, i, 0, node.lhs, e)
        r = _operand(prog, i, 1, node.rhs, e)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(node.op.apply(l.n, r.n))
        if args:
            f = args[0]
            right, keep = _seq_exit(prog, f.pos)
            rest = e if e.size == keep else e.cut(keep)
            return PeakState(right, Env(f.pos, n, rest), args[1:], kont)
        if kont:
            f = kont[0]
            right = _seq_exit(prog, f.pos)[0]
            return PeakState(right, Env(f.pos, n, f.env), f.rest_args, kont[1:])
        return Terminal(BareArith(n.n))

    raise TypeError(f"pc does not address a computation: {node!r}")


# ---------------------------------------------------------------------------
# unloading to CEK


def _ascend(prog, i: int, args):
    """Undo advancement from position ``i``: climb search edges, consuming
    matching frames; returns the id reached and the frames left.

    With ``args=None`` (closure entries, which carry no argument stack) the
    climb crosses Seq/App edges unconditionally.
    """
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    while i:
        head, par = heads[i], parents[i]
        t = type(nodes[par])
        if (t is Seq and head == 0) or (t is App and head == 1):
            if args is not None:
                f = args[0] if args else None
                if type(f) is not (SEQ if t is Seq else ARG) or f.pos != par:
                    break
                args = args[1:]
            i = par
            continue
        if t is LetRec and head == 0:
            i = par
            continue
        break
    return i, args


def _entry_code(prog, i: int):
    """The term a position stands for, plus the anchor for its environment.

    A position at a letrec definition child denotes the definition wrapped
    in its own bundle (what forcing the recursive name means); the wrapper's
    environment is anchored outside the letrec node.
    """
    if i:
        par = prog.parents[i]
        parent_node = prog.nodes[par]
        if type(parent_node) is LetRec and prog.heads[i] >= 1:
            return LetRec(parent_node.defs, prog.nodes[i]), par
    return prog.nodes[i], i


def _cons(prog) -> WeakValueDictionary:
    """The program's hash-consing table of unloaded objects.  It holds them
    weakly: an entry lasts while something, such as a cell's memo, holds
    its object, so a long check's table does not grow with its length."""
    tab = prog.tables.get("cons")
    if tab is None:
        tab = prog.tables["cons"] = WeakValueDictionary()
    return tab


_MISS = object()
_BIND = -1  # memo key of a cell's own CEK binding; anchors are ids >= 0


def _unload_e(prog, i: int, e: Env):
    """The CEK environment at position ``i`` under chain ``e``, innermost
    first, or IllFormedState when ``e`` is not the chain of binders in
    scope there.  Memoized on the cells, so only the cells an earlier
    unload did not reach are walked, outermost first."""
    env = e.memo_of(prog).get(i, _MISS)
    if env is not _MISS:
        return env
    # Climb to what an earlier unload reached: (anchor, cell, letrecs above
    # the anchor, its innermost Lam/Seq binder or -1, make the cell's binding?)
    todo = []
    while True:
        recs, b, n = _frame(prog, i)
        if not n or not e.size:
            todo.append((i, e, recs, b, False))
            env = None
            break
        env = e.memo_of(prog).get(_BIND)
        todo.append((i, e, recs, b, env is None))
        if env is not None:
            break
        i, e = b, e.parent
        env = e.memo_of(prog).get(i, _MISS)
        if env is not _MISS:
            break
    # Check every level and report the innermost one that is wrong.
    for i, e, _, b, _ in todo:
        if b < 0:
            if e.size:
                raise cek.IllFormedState(
                    f"binder at {prog.path_text(e.binder)} bound outside the scope of"
                    f" {prog.path_text(i)}"
                )
        elif not e.size or e.binder != b:
            raise cek.IllFormedState(
                f"no value for binder at {prog.path_text(b)} at {prog.path_text(i)}"
            )
    cons = _cons(prog)
    for i, e, recs, b, make in reversed(todo):
        memo = e.memo_of(prog)
        if make:
            v = unload_v(prog, e.value)
            key = (cek.Bind, b, id(v), id(env))
            hit = cons.get(key)
            if hit is None:
                hit = cons[key] = cek.Bind(prog.nodes[b].binder, v, env)
            env = memo[_BIND] = hit
        for r in reversed(recs):
            key = (cek.RecFrame, r, id(env))
            hit = cons.get(key)
            if hit is None:
                hit = cons[key] = cek.RecFrame(prog.nodes[r].defs, env)
            env = hit
        memo[i] = env
    return env


def unload_v(prog, v):
    """The CEK value of ``v``, one object per distinct value.  Symbolic
    and numeric values go through the table too, so that an environment
    cell's key can name its value by id."""
    t = type(v)
    if t is PClosure:
        i = v.entry
        memo = v.env.memo_of(prog)
        hit = memo.get((Closure, i))
        if hit is None:
            entry, _ = _ascend(prog, i, None)
            code, anchor = _entry_code(prog, entry)
            env = _unload_e(prog, anchor, v.env)
            key = (Closure, entry, id(env))
            cons = _cons(prog)
            hit = cons.get(key)
            if hit is None:
                hit = cons[key] = Closure(code, env)
            memo[Closure, i] = hit
        return hit
    key = (SymVar, v.name) if t is SymVar else (NumC, v.n)
    cons = _cons(prog)
    hit = cons.get(key)
    if hit is None:
        hit = cons[key] = v if t is SymVar else NumC(v.n)
    return hit


def _unload_k(prog, e: Env, args, kont) -> tuple:
    out = []

    def seq_frame(i, env):
        env = env.cut(_depth(prog, i))  # a pending frame's Seq may sit outside binders
        memo = env.memo_of(prog)
        hit = memo.get((cek.SeqF, i))
        if hit is None:
            cenv = _unload_e(prog, i, env)
            key = (cek.SeqF, i, id(cenv))
            cons = _cons(prog)
            hit = cons.get(key)
            if hit is None:
                node = prog.nodes[i]
                hit = cons[key] = cek.SeqF(node.binder, node.right, cenv)
            memo[cek.SeqF, i] = hit
        return hit

    def emit_args(env, frames):
        for f in frames:
            q = f.pos
            if type(f) is ARG:
                v = _operand(prog, q, 0, prog.nodes[q].arg, env)
                out.append(cek.ArgF(unload_v(prog, v)))
            else:
                out.append(seq_frame(q, env))

    emit_args(e, args)
    for f in kont:
        if type(f) is KArg:
            out.append(cek.ArgF(unload_v(prog, f.value)))
        else:
            out.append(seq_frame(f.pos, f.env))
            emit_args(f.env, f.rest_args)
    return tuple(out)


def unload(P, rho: PeakState) -> CekState:
    prog = as_prog(P)
    pc, args = _ascend(prog, rho.pc, rho.args)
    code, anchor = _entry_code(prog, pc)
    return CekState(
        code,
        _unload_e(prog, anchor, rho.env),
        _unload_k(prog, rho.env, args, rho.kont),
    )


# ---------------------------------------------------------------------------
# well-formedness


@dataclass(frozen=True)
class WfReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _chain_faults(prog, i: int, e: Env, what: str, out: list, seen: set, entry_fault=None):
    """Append to ``out`` how chain ``e`` fails to be exactly the binders in
    scope at position ``i``, with every closure on it well-formed too.

    ``entry_fault(prog, entry)`` adds a machine's own demand on closure
    entries.  The walk climbs from ``i`` to each cell's binder in turn,
    and stops at a cell an earlier check under the same demand found
    sound, or one this check has been through already; a cell is marked
    sound when nothing was found at or above it, so a check pays once per
    cell and not once per binder in scope."""
    key = ("wf", entry_fault)
    mark, before = [], len(out)
    while True:
        _, b, n = _frame(prog, i)
        if not n:
            if e.size:
                out.append(
                    f"{what}: binder at {prog.path_text(e.binder)} bound outside the scope"
                    f" of position {prog.path_text(i)}"
                )
            break
        if not e.size or e.binder != b:
            out.append(
                f"{what}: binder at {prog.path_text(b)} unbound for position {prog.path_text(i)}"
            )
            break
        memo = e.memo_of(prog)
        if key in memo or id(e) in seen:
            break
        seen.add(id(e))
        mark.append(memo)
        if type(e.value) is PClosure:
            _closure_faults(prog, e.value, "closure entry", out, seen, entry_fault)
        i, e = b, e.parent
    if len(out) == before:
        for memo in mark:
            memo[key] = True


def _closure_faults(prog, v: PClosure, what: str, out: list, seen: set, entry_fault=None):
    if entry_fault is not None:
        fault = entry_fault(prog, v.entry)
        if fault:
            out.append(f"{what}: {fault}")
    _chain_faults(prog, v.entry, v.env, what, out, seen, entry_fault)


def wf_check(P, rho: PeakState) -> WfReport:
    prog = as_prog(P)
    violations = []
    seen = set()

    # WF1
    _chain_faults(prog, rho.pc, rho.env, "pc", violations, seen)
    for f in rho.kont:
        if type(f) is KArg:
            if type(f.value) is PClosure:
                _closure_faults(prog, f.value, "argument closure", violations, seen)
        else:
            _chain_faults(prog, f.pos, f.env, "continuation frame", violations, seen)

    # WF2
    prev = rho.pc
    for f in rho.args:
        if not _encloses(prog, f.pos, prev):
            violations.append(
                f"argument frame {prog.path_text(f.pos)} is not a suffix of {prog.path_text(prev)}"
            )
        prev = f.pos

    return WfReport(tuple(violations))


# ---------------------------------------------------------------------------
# trace support


def _encloses(prog, a: int, i: int) -> bool:
    """Whether position ``a`` is ``i`` or one of its ancestors: the path of
    ``a`` is a suffix of the path of ``i``.  A child's id is above its
    parent's, so the climb stops at the first id not above ``a``."""
    parents = prog.parents
    while i > a:
        i = parents[i]
    return i == a


def describe(P, rho: PeakState, i: int) -> str:
    return (
        f"peak {i}: pc={as_prog(P).path_text(rho.pc)} env={len(rho.env)}"
        f" args={len(rho.args)} kont={len(rho.kont)}"
    )
