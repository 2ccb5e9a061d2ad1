"""The PEAK machine: program counter, scope-chain environment, argument stack.

States address subterms of a fixed program by position instead of
carrying code: the program counter, every frame, every environment cell's
binder and every closure's entry is a position id of the program's index
(``syntax.Prog``), and an id means something only under that Prog: the
program every function here takes.
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
Both stacks are chains of ``cek.Frames`` cells: a push makes one cell, a
pop takes the tail, and a KSeq keeps the argument frames under its Seq as
the tail they already are.

A Lam, a Prd and an Op meet one frame: the top of the argument stack,
else the top of the continuation.  A Lam binds the argument of an ARG or
a KArg there.  A Prd or an Op computes its value, the operand or the
arithmetic, and binds it into a pending SEQ or KSeq, or halts when both
stacks are empty.  An argument frame is rejected before any operand is read.

Unloading rebuilds the CEK view of a state.  Machine transitions only ever
leave the program counter at non-descent positions, so the ascent pass at
the top of ``unload`` is a no-op for states this machine produces; it exists
for the instruction-pointer machines layered on top, whose resting positions
sit at the bottom of a descent chain.

Advancement, binder resolution and the binders in scope at a position are
worked out once per id, and every next program counter is a child's id
taken from the index, so neither a step nor an unload builds, slices or
hashes a path.  Path text is made only at the edge: by ``describe`` and
by the messages of ``wf_check`` and of an unload that fails.

pek runs the same code for value lookup (γ), frame conversion (δ) and
advancement (η): ``_lookups`` builds its γ and δ as it builds this
machine's, and its η is where ``_descent`` lands.  So the peak/pek check
cannot see a fault in them.  The cek/peak check can, against cek's own
descent and frames, and so can the pek/cfg check, against compile's own
η and argument frames.

Unloads are memoized by cell.  A cell cannot be written to, so what it
unloads to under a program is fixed: its CEK binding, its environment at
each anchor position, the closures over it and the sequence frames on it
are kept on the cell (``Cell.memo_of``) and die with it, and an unload pays
only for the cells that are new since the last one.  Continuation cells
keep their CEK chain (``Cell.derive``) and their well-formedness verdict
the same way, so the unload of a continuation's tail is the tail of its
unload.  The CEK chain of an argument stack is kept on the environment
cell cut to the scope of its top frame, which is all of the environment
its frames read, so a stack that lost a frame since the last unload
unloads to the tail of the last one.  So an unload is one object per
cell and per anchor: a cell unloads to the same objects every time it is
asked, and the frame of a letrec over a cell is kept on the cell too, so
the anchors inside one letrec share it.  Equal cells built apart unload to
equal objects, not to one.  While a state keeps its cells, its unloads are
the same objects from step to step, which lets cek keep a closure's or a
frame's flattening on the object and lets ``alpha_eq`` stop at a shared
subterm.
"""

from dataclasses import field
from typing import Union

from . import cek
from .cek import NIL, CekState, Cell, Closure, Frames, NumC, SymVar
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
    binder_of,
    frozen,
)

# ---------------------------------------------------------------------------
# environments


class MissingBinding(Exception):
    """A binder had no entry in the environment (ill-formed state); the
    argument is the binder's position id."""


class Env(Cell):
    """One immutable environment cell: a Lam or Seq binder's position id
    and the value bound to it, over the cell of the binders outside it.
    ``EMPTY`` ends every chain.

    Equality is structural.  It walks the chain and the closures on it with
    an explicit stack, so neither a long chain nor deeply nested closures
    can overflow Python's stack, and it stops at a pair of cells that are
    one object or were found equal before (``twin``).  Checks compare two
    machines' chains at every step, and each step adds a cell on top of
    chains already compared, so that is all a comparison walks.
    """

    __slots__ = ("binder", "value", "__weakref__")

    def __init__(self, binder, value, rest):
        self.binder = binder
        self.value = value
        self.rest = rest
        self.size = rest.size + 1
        self.memo = self.twin = None

    def cut(self, k: int):
        """The chain's outermost ``k`` cells."""
        e = self
        while e.size > k:
            e = e.rest
        return e

    def find(self, binder: int, level: int):
        """The value of ``binder``, whose cell is the ``level``-th from the
        end of the chain: a walk of the static distance, then one check."""
        e = self
        while e.size > level:
            e = e.rest
        if e.size == level and e.binder == binder:
            return e.value
        raise MissingBinding(binder)

    def items(self):
        """The (binder, value) pairs of the chain, innermost first."""
        e = self
        while e.size:
            yield e.binder, e.value
            e = e.rest

    def __eq__(self, other):
        if type(other) is not Env:
            return NotImplemented
        return _chains_equal(self, other)

    def __repr__(self):
        inner = ", ".join(f"{b}: {v!r}" for b, v in self.items())
        return f"Env({{{inner}}})"


EMPTY = object.__new__(Env)
EMPTY.binder = EMPTY.value = EMPTY.rest = EMPTY.memo = EMPTY.twin = None
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
            a, b = a.rest, b.rest
    for a, b in walked:
        a.twin = b
    return True


# ---------------------------------------------------------------------------
# machine values, frames, states

# The metadata of a field that holds a position id: failure lines show such
# a field as the position's dotted path, as traces show a pc.
POSITION = {"position": True}


@frozen()
class NumP:
    n: int


@frozen()
class PClosure:
    entry: int = field(metadata=POSITION)  # position id of a computation subterm
    env: Env  # exactly the Lam/Seq binders in scope at the entry


PVal = Union[SymVar, NumP, PClosure]


@frozen()
class ARG:
    pos: int = field(metadata=POSITION)  # an App node


@frozen()
class SEQ:
    pos: int = field(metadata=POSITION)  # a Seq node


@frozen()
class KArg:
    value: PVal


@frozen()
class KSeq:
    pos: int = field(metadata=POSITION)  # a Seq node
    env: Env  # the chain in scope at the Seq node
    rest_args: Frames  # the pending argument frames under the Seq's, a tail of ``args``


@frozen()
class PeakState:
    pc: int = field(metadata=POSITION)  # position id
    env: Env  # the Lam/Seq binders in scope at pc, innermost first
    args: Frames  # of ARG/SEQ, innermost frame on top
    kont: Frames  # of KArg/KSeq


# ---------------------------------------------------------------------------
# static scope, by position id


def _frame(prog, i: int):
    """What the chain at position ``i`` must be: ``(rec, b, n)`` with the
    nearest letrec between ``i`` and its innermost Lam/Seq binder (-1
    without one), that binder's id (-1 without one) and the chain's length.
    The letrecs further out are the ones of ``rec``'s own entry, so the
    entries link them as a chain and each entry is three ints, however deep
    the letrecs nest.  A position's entry is its parent's, changed by the
    edge between them: a Lam entered through its body or a Seq through its
    right component is the new innermost binder, and a LetRec entered
    through any child is the new nearest letrec.  Each entry is made once."""
    tab = prog.tables["frame"]
    r = tab.get(i)
    if r is not None:
        return r
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    pending = []  # climb to the nearest position with an entry (or the root)
    while r is None:
        pending.append(i)
        i = parents[i]
        r = (-1, -1, 0) if i < 0 else tab.get(i)
    for q in reversed(pending):  # then fill each one from its parent's
        par = parents[q]
        if par >= 0:
            t = type(nodes[par])
            if t is LetRec:
                r = (par, r[1], r[2])
            elif (t is Lam and heads[q] == 0) or (t is Seq and heads[q] == 1):
                r = (-1, par, r[2] + 1)
        tab[q] = r
    return r


def _depth(prog, i: int) -> int:
    """The number of Lam/Seq binders in scope at position ``i``: the length
    of the chain there."""
    return _frame(prog, i)[2]


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


def _lookups(machine: str, entry, seq_frame):
    """Value resolution and δ for a machine whose code of child ``j`` of
    ``i`` is ``entry(prog, i, j)`` and whose continuation frame for a Seq
    ``i`` pending under chain ``env`` is ``seq_frame(i, resume, env,
    rest)``, ``resume`` being the code of its right component and ``rest``
    the argument frames under it: ``(_gamma, _operand, _seq_exit, delta)``,
    keeping what each position resolves to in the program's
    ``<machine>.value`` and ``<machine>.seq`` tables.  peak and
    pek differ only in ``entry`` and ``seq_frame``, so both read values and
    convert frames through these functions.  They call ``_resolve`` through
    this module, so a replaced ``_resolve`` reaches both machines."""
    value_key, seq_key = machine + ".value", machine + ".seq"

    def _gamma(prog, i: int, e: Env) -> PVal:
        v = prog.nodes[i]
        if type(v) is NumV:
            return NumP(v.n)
        tab = prog.tables[value_key]
        hit = tab.get(i)
        if hit is None:
            hit = tab[i] = _resolve(prog, i, entry)
        kind, x, k = hit
        if kind is _LOC:
            if e.size == k and e.binder == x:  # the innermost binding, the commonest
                return e.value
            return e.find(x, k)
        if kind is _CLO:
            return PClosure(x, e if e.size == k else e.cut(k))
        return x

    def _operand(prog, i: int, j: int, v, e: Env):
        """``_gamma`` of ``v``, child ``j`` of position ``i``: a numeral is
        read off the node, without visiting its position."""
        if type(v) is NumV:
            return NumP(v.n)
        return _gamma(prog, prog.kid(i, j), e)

    def _seq_exit(prog, i: int):
        """Where a value bound by Seq ``i`` resumes, the code of its right
        component, and how many cells of the chain the binding goes on:
        those in scope at the Seq."""
        tab = prog.tables[seq_key]
        hit = tab.get(i)
        if hit is None:
            hit = tab[i] = (entry(prog, i, 1), _depth(prog, i))
        return hit

    def delta(prog, e: Env, args: Frames, kont: Frames = NIL) -> Frames:
        """Convert pending argument frames up to and including the first
        SEQ, and push them onto ``kont`` in the same order."""
        if not args.size:  # a force with no pending arguments converts nothing
            return kont
        out = []
        while args.size:
            f, args = args.frame, args.rest
            i = f.pos
            if type(f) is ARG:
                out.append(KArg(_operand(prog, i, 0, prog.nodes[i].arg, e)))
            else:
                resume, keep = _seq_exit(prog, i)
                out.append(seq_frame(i, resume, e.cut(keep), args))
                break
        for f in reversed(out):
            kont = Frames(f, kont)
        return kont

    return _gamma, _operand, _seq_exit, delta


def _child(prog, i: int, j: int) -> int:
    return prog.kid(i, j)


# A KSeq keeps the frames under its SEQ as they are: the tail of ``args``.
_gamma, _operand, _seq_exit, delta = _lookups(
    "peak", _child, lambda i, resume, env, rest: KSeq(i, env, rest)
)


# ---------------------------------------------------------------------------
# stepping


def load(m) -> PeakState:
    return PeakState(0, EMPTY, NIL, NIL)


def advance(prog, rho: PeakState) -> PeakState:
    """Descend search edges: Seq left, App body, letrec body."""
    return _advance(prog, rho.pc, rho)[1]


def _descent(prog, i: int) -> int:
    """The instruction position that advancement from position ``i``
    lands on through search nodes: pek's η.  It is kept per search
    position, as an int.  An instruction position is its own landing, so
    it is not kept: the table holds no entry for each of them."""
    nodes = prog.nodes
    t = type(nodes[i])
    if t is not Seq and t is not App and t is not LetRec:
        return i
    tab = prog.tables["descent"]
    j = tab.get(i)
    if j is None:
        kid, j = prog.kid, i
        while True:
            t = type(nodes[j])
            if t is App:
                j = kid(j, 1)
            elif t is Seq or t is LetRec:
                j = kid(j, 0)
            else:
                break
        tab[i] = j
    return j


def _advance(prog, i: int, rho: PeakState):
    """``advance`` from position ``i``, ``rho.pc``; also returns the id
    the program counter lands on.

    Where ``_descent`` lands, the frames of the Seq and App nodes passed on
    the way, outermost first, and those frames as a chain on an empty
    argument stack are kept per position, the first time peak advances
    from it; pek, which asks only where descent lands, never builds them.
    An empty argument stack takes the chain as it is."""
    nodes = prog.nodes
    t = type(nodes[i])
    if t is not Seq and t is not App and t is not LetRec:
        return i, rho
    tab = prog.tables["advance"]
    hit = tab.get(i)
    if hit is None:
        j = _descent(prog, i)
        parents, pushed, k = prog.parents, [], j
        while k > i:  # climb back from the landing: the frames, innermost first
            k = parents[k]
            t = type(nodes[k])
            if t is Seq:
                pushed.append(SEQ(k))
            elif t is App:
                pushed.append(ARG(k))
        pushed.reverse()
        alone = NIL
        for f in pushed:
            alone = Frames(f, alone)
        hit = tab[i] = (j, tuple(pushed), alone)
    j, pushed, args = hit
    if rho.args.size:
        args = rho.args
        for f in pushed:  # outermost first, so the innermost lands on top
            args = Frames(f, args)
    return j, PeakState(j, rho.env, args, rho.kont)


def step(prog, rho: PeakState):
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
        return PeakState(v.entry, v.env, NIL, delta(prog, e, args, kont))

    if t is If0:
        g = _operand(prog, i, 0, node.guard, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PeakState(prog.kid(i, 1 if g.n == 0 else 2), e, args, kont)

    # Lam, Prd and Op meet one frame: the top of the argument stack, else
    # the top of the continuation (None when both are empty)
    f = args.frame if args.size else kont.frame
    tf = type(f)
    if t is Lam:
        if tf is ARG:
            q = f.pos
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PeakState(prog.kid(i, 0), Env(i, v, e), args.rest, kont)
        if tf is KArg:
            return PeakState(prog.kid(i, 0), Env(i, f.value, e), NIL, kont.rest)
        if f is None:
            return Terminal(AwaitingArgument())
        return Stuck(StuckReason.SequencedNonProducer)

    if t is not Prd and t is not Op:
        raise TypeError(f"pc does not address a computation: {node!r}")
    if tf is ARG or tf is KArg:
        return Stuck(StuckReason.ApplyNonFunction)
    if t is Prd:
        v = _operand(prog, i, 0, node.value, e)
    else:
        l = _operand(prog, i, 0, node.lhs, e)
        r = _operand(prog, i, 1, node.rhs, e)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        v = NumP(node.op.apply(l.n, r.n))
    if tf is SEQ:
        right, keep = _seq_exit(prog, f.pos)
        rest = e if e.size == keep else e.cut(keep)
        return PeakState(right, Env(f.pos, v, rest), args.rest, kont)
    if tf is KSeq:
        right = _seq_exit(prog, f.pos)[0]
        return PeakState(right, Env(f.pos, v, f.env), f.rest_args, kont.rest)
    return Terminal(ProducedValue(v) if t is Prd else BareArith(v.n))


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
                f = args.frame  # None on NIL
                if type(f) is not (SEQ if t is Seq else ARG) or f.pos != par:
                    break
                args = args.rest
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


_MISS = object()
_BIND = -1  # memo key of a cell's own CEK binding; anchors are ids >= 0


def _unload_e(prog, i: int, e: Env):
    """The CEK environment at position ``i`` under chain ``e``, innermost
    first, or IllFormedState when ``e`` is not the chain of binders in
    scope there.  Memoized on the cells, so only the cells an earlier
    unload did not reach are walked, outermost first.  A closure on a cell
    to be made has the environment it needs unloaded first, on an explicit
    stack: a closure can sit on a cell of another closure's chain, and
    that one on a cell of a third's, to any depth."""
    env = e.memo_of(prog).get(i, _MISS)
    if env is not _MISS:
        return env
    asked = [_climb(prog, i, e)]  # environments to build, each under those it needs
    while asked:
        todo, env = asked.pop()
        while todo:
            level = todo.pop()
            i, e, r, b, make = level
            memo = e.memo_of(prog)
            if make:
                v = e.value
                if type(v) is PClosure:
                    need = _closure_env(prog, v)
                    if need is not None:  # that first, then the rest of these
                        todo.append(level)
                        asked += ((todo, env), _climb(prog, *need))
                        break
                env = memo[_BIND] = cek.Bind(prog.nodes[b].binder, unload_v(prog, v), env)
            # one frame per letrec over the cell, whatever the anchor: the
            # letrecs not framed yet, nearest first, go on the first one framed
            recs = []
            while r >= 0 and (cek.RecFrame, r) not in memo:
                recs.append(r)
                r = _frame(prog, r)[0]
            if r >= 0:
                env = memo[cek.RecFrame, r]
            for r in reversed(recs):
                env = memo[cek.RecFrame, r] = cek.RecFrame(prog.nodes[r].defs, env)
            memo[i] = env
    return env


def _climb(prog, i: int, e: Env):
    """``(levels, env)`` for ``_unload_e``: the levels from ``i`` under ``e``
    up to what an earlier unload reached, innermost first, each
    ``(anchor, cell, the nearest letrec above the anchor or -1, its
    innermost Lam/Seq binder or -1, make the cell's binding?)``, and the
    environment reached, which the outermost level is built on.  Checks
    every level and reports the innermost one that is wrong."""
    todo = []
    while True:
        r, b, n = _frame(prog, i)
        if not n or not e.size:
            todo.append((i, e, r, b, False))
            env = None
            break
        env = e.memo_of(prog).get(_BIND)
        todo.append((i, e, r, b, env is None))
        if env is not None:
            break
        i, e = b, e.rest
        env = e.memo_of(prog).get(i, _MISS)
        if env is not _MISS:
            break
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
    return todo, env


def _closure_anchor(prog, i: int):
    """``(code, anchor)`` of a closure at ``i``: the term of the position it
    stands for once advancement is undone, and the anchor of its
    environment (see ``_entry_code``), kept per position."""
    tab = prog.tables["anchor"]
    hit = tab.get(i)
    if hit is None:
        hit = tab[i] = _entry_code(prog, _ascend(prog, i, None)[0])
    return hit


def _closure_env(prog, v: PClosure):
    """``(anchor, chain)`` of the environment ``unload_v(prog, v)`` has
    still to unload, or None when it has none to."""
    memo = v.env.memo_of(prog)
    if (Closure, v.entry) in memo:
        return None
    anchor = _closure_anchor(prog, v.entry)[1]
    return None if anchor in memo else (anchor, v.env)


def unload_v(prog, v):
    """The CEK value of ``v``.  A closure's is kept on the cell of its
    chain, so it is one object per cell and entry."""
    t = type(v)
    if t is PClosure:
        i = v.entry
        memo = v.env.memo_of(prog)
        hit = memo.get((Closure, i))
        if hit is None:
            code, anchor = _closure_anchor(prog, i)
            hit = memo[Closure, i] = Closure(code, _unload_e(prog, anchor, v.env))
        return hit
    return v if t is SymVar else NumC(v.n)


def _seq_frame(prog, i: int, env: Env):
    """The CEK frame of Seq ``i`` pending under chain ``env``, kept on the
    chain's cell at the Seq."""
    env = env.cut(_depth(prog, i))  # a pending frame's Seq may sit outside binders
    memo = env.memo_of(prog)
    hit = memo.get((cek.SeqF, i))
    if hit is None:
        node = prog.nodes[i]
        hit = memo[cek.SeqF, i] = cek.SeqF(node.binder, node.right, _unload_e(prog, i, env))
    return hit


def _unload_args(prog, e: Env, args: Frames, out: Frames) -> Frames:
    """``out`` with the CEK frames of argument stack ``args`` under chain
    ``e`` pushed on it, innermost on top.

    The frames under a cell of ``args`` sit at ancestors of its top
    frame's position, so their unload depends only on the cells and on
    ``e`` cut to the scope of that position.  Each cell's CEK chain is kept
    on that cut cell, with the argument cell and the ``out`` it was pushed
    on, and reused while both are the same objects: an argument stack that
    lost or gained frames on top since the last unload costs only those,
    and its unload shares the cells of the last one."""
    base, todo = out, []
    while args.size:
        q = args.frame.pos
        cut = e.cut(_depth(prog, q))
        memo = cut.memo_of(prog)
        hit = memo.get((Frames, q))
        if hit is not None and hit[0] is args and hit[1] is base:
            out = hit[2]
            break
        todo.append((args, cut, memo))
        args = args.rest
    for args, cut, memo in reversed(todo):
        f = args.frame
        q = f.pos
        if type(f) is ARG:
            v = _operand(prog, q, 0, prog.nodes[q].arg, cut)
            out = Frames(cek.ArgF(unload_v(prog, v)), out)
        else:
            out = Frames(_seq_frame(prog, q, cut), out)
        memo[Frames, q] = (args, base, out)
    return out


def _unload_k(prog, e: Env, args: Frames, kont: Frames) -> Frames:
    """The CEK continuation of argument stack ``args`` under chain ``e``
    over continuation ``kont``.  Each cell of ``kont`` keeps the CEK chain
    of itself and its tail (``Cell.derive``), so only the cells that are
    new since the last unload are converted, each once, and the unloads of
    one suffix are one object: an equality test against them stops at the
    tail it has compared before."""
    return _unload_args(prog, e, args, kont.derive(prog, "cek", _cek_frames))


def _cek_frames(prog, c: Frames, out: Frames) -> Frames:
    """``out`` with the CEK frames of the top frame of cell ``c`` pushed on
    it: an argument, or a Seq's frame over the argument frames pending
    under the Seq."""
    f = c.frame
    if type(f) is KArg:
        return Frames(cek.ArgF(unload_v(prog, f.value)), out)
    out = _unload_args(prog, f.env, f.rest_args, out)
    return Frames(_seq_frame(prog, f.pos, f.env), out)


def unload(prog, rho: PeakState) -> CekState:
    pc, args = _ascend(prog, rho.pc, rho.args)
    code, anchor = _entry_code(prog, pc)
    return CekState(
        code,
        _unload_e(prog, anchor, rho.env),
        _unload_k(prog, rho.env, args, rho.kont),
    )


# ---------------------------------------------------------------------------
# well-formedness


@frozen()
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
        i, e = b, e.rest
    if len(out) == before:
        for memo in mark:
            memo[key] = True


def _closure_faults(prog, v: PClosure, what: str, out: list, seen: set, entry_fault=None):
    if entry_fault is not None:
        fault = entry_fault(prog, v.entry)
        if fault:
            out.append(f"{what}: {fault}")
    _chain_faults(prog, v.entry, v.env, what, out, seen, entry_fault)


def _kont_faults(prog, kont: Frames, out: list, seen: set, frame_faults):
    """Append to ``out`` what ``frame_faults(prog, f, out, seen)`` finds
    wrong with each frame of ``kont``, top first.  The walk stops at a cell
    an earlier check with the same ``frame_faults`` found sound, and when
    ``out`` is still empty at the end it marks every cell it walked sound:
    each frame is checked once however long it stays on the continuation."""
    key = ("wf", frame_faults)
    mark = []
    while kont.size:
        memo = kont.memo_of(prog)
        if key in memo:
            break
        mark.append(memo)
        frame_faults(prog, kont.frame, out, seen)
        kont = kont.rest
    if not out:
        for memo in mark:
            memo[key] = True


def _frame_faults(prog, f, out: list, seen: set):
    if type(f) is KArg:
        if type(f.value) is PClosure:
            _closure_faults(prog, f.value, "argument closure", out, seen)
    else:
        _chain_faults(prog, f.pos, f.env, "continuation frame", out, seen)


def wf_check(prog, rho: PeakState) -> WfReport:
    violations = []
    seen = set()

    # WF1
    _chain_faults(prog, rho.pc, rho.env, "pc", violations, seen)
    _kont_faults(prog, rho.kont, violations, seen, _frame_faults)

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


def describe(prog, rho: PeakState, i: int) -> str:
    return (
        f"peak {i}: pc={prog.path_text(rho.pc)} env={len(rho.env)}"
        f" args={len(rho.args)} kont={len(rho.kont)}"
    )
