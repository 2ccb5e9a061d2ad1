"""The PEAK machine: program counter, path-keyed environment, argument stack.

States address subterms of a fixed program by path instead of carrying code.
The environment maps binder paths (Lam and Seq nodes) to machine values;
letrec needs no environment entries at all, because looking up a recursive
name just fabricates a closure whose entry is the definition's path.  The
argument stack delays closure creation for application arguments until a
force converts the pending frames into continuation frames (the δ function).

Unloading rebuilds the CEK view of a state.  Machine transitions only ever
leave the program counter at non-descent positions, so the ascent pass at
the top of ``unload`` is a no-op for states this machine produces; it exists
for the instruction-pointer machines layered on top, whose resting positions
sit at the bottom of a descent chain.

Positions are handled by their ids in the program's position index
(``syntax.Prog``): advancement, binder resolution and the binders in scope
at a position are worked out once per id, and every next program counter
is a child's shared path taken from the index, so neither a step nor one
level of an unload slices or hashes a path.  States keep path tuples.

Unloads are hash-consed.  Every CEK value, environment cell and sequence
frame an unload builds comes from one table in the program's ``tables``,
keyed by the position it stands for and the ids of its parts, which came
from the same table; the table keeps every entry alive as long as the
Prog, so an id in a key never names a dead object.  Equal unloads are
therefore the same objects, which lets cek keep a closure's or a frame's
flattening on the object and lets ``alpha_eq`` stop at a shared subterm.
Nothing is keyed by the identity of an environment dict, or of a closure
or frame that carries one: machines treat those dicts as immutable only by
convention, so every unload reads the bindings afresh and builds its keys
from what it read, and a machine that writes into an old dict is caught at
the step where the write first shows.
"""

from dataclasses import dataclass
from typing import Union

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
    FreeVar,
    RecBind,
    as_prog,
    binder_of,
    is_suffix,
    path_text,
)

# ---------------------------------------------------------------------------
# machine values, frames, states


@dataclass(frozen=True)
class NumP:
    n: int


@dataclass(frozen=True)
class PClosure:
    entry: tuple  # Path of a computation subterm
    env: dict


PVal = Union[SymVar, NumP, PClosure]


@dataclass(frozen=True)
class ARG:
    path: tuple  # an App node


@dataclass(frozen=True)
class SEQ:
    path: tuple  # a Seq node


@dataclass(frozen=True)
class KArg:
    value: PVal


@dataclass(frozen=True)
class KSeq:
    path: tuple
    env: dict
    rest_args: tuple


@dataclass(frozen=True)
class PeakState:
    pc: tuple
    env: dict  # Path -> PVal; treated as immutable, updates copy
    args: tuple  # of ARG/SEQ, innermost frame first
    kont: tuple  # of KArg/KSeq, top first


class MissingBinding(Exception):
    """A binder path had no entry in the environment (ill-formed state)."""


# ---------------------------------------------------------------------------
# value resolution


def lookup_var(P, p: tuple, e: dict) -> PVal:
    prog = as_prog(P)
    return _lookup_var(prog, prog.pos(p), e)


def _lookup_var(prog, i: int, e: dict) -> PVal:
    ref, q = binder_of(prog, i)
    t = type(ref)
    if t is FreeVar:
        return SymVar(ref.name)
    if t is RecBind:
        return PClosure(prog.path(prog.kid(q, ref.index)), e)
    v = e.get(ref.path)
    if v is None:
        raise MissingBinding(f"no value for binder at {path_text(ref.path)}")
    return v


def gamma(P, p: tuple, e: dict) -> PVal:
    prog = as_prog(P)
    return _gamma(prog, prog.pos(p), e)


def _gamma(prog, i: int, e: dict) -> PVal:
    v = prog.nodes[i]
    t = type(v)
    if t is NumV:
        return NumP(v.n)
    if t is ThunkV:
        return PClosure(prog.path(prog.kid(i, 0)), e)
    return _lookup_var(prog, i, e)


def _operand(prog, i: int, j: int, v, e: dict):
    """``_gamma`` of ``v``, child ``j`` of position ``i``: a numeral is read
    off the node, without visiting its position."""
    if type(v) is NumV:
        return NumP(v.n)
    return _gamma(prog, prog.kid(i, j), e)


def delta(P, e: dict, args: tuple) -> tuple:
    """Convert pending argument frames up to and including the first SEQ."""
    prog = as_prog(P)
    out = []
    for k, f in enumerate(args):
        if type(f) is ARG:
            i = prog.pos(f.path)
            out.append(KArg(_operand(prog, i, 0, prog.nodes[i].arg, e)))
        else:
            out.append(KSeq(f.path, e, tuple(args[k + 1 :])))
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# stepping


def load(m) -> PeakState:
    return PeakState((), {}, (), ())


def advance(P, rho: PeakState) -> PeakState:
    """Descend search edges: Seq left, App body, letrec body."""
    prog = as_prog(P)
    return _advance(prog, prog.pos(rho.pc), rho)[1]


def _advance(prog, i: int, rho: PeakState):
    """``advance`` from position ``i``, the id of ``rho.pc``; also returns
    the id the program counter lands on."""
    t = type(prog.nodes[i])
    if t is not Seq and t is not App and t is not LetRec:
        return i, rho
    tab = prog.tables["advance"]
    hit = tab.get(i)
    if hit is None:
        nodes, path, kid = prog.nodes, prog.path, prog.kid
        j, pushed = i, []  # the frames pushed, outermost first
        while True:
            if t is Seq:
                pushed.append(SEQ(path(j)))
                j = kid(j, 0)
            elif t is App:
                pushed.append(ARG(path(j)))
                j = kid(j, 1)
            elif t is LetRec:
                j = kid(j, 0)
            else:
                break
            t = type(nodes[j])
        hit = tab[i] = (j, tuple(reversed(pushed)))
    j, pushed = hit
    return j, PeakState(prog.path(j), rho.env, pushed + rho.args, rho.kont)


def step(P, rho: PeakState):
    prog = as_prog(P)
    i, st = _advance(prog, prog.pos(rho.pc), rho)
    try:
        return _fire(prog, i, st)
    except MissingBinding:
        return Stuck(StuckReason.UnboundPath)


def _fire(prog, i: int, st: PeakState):
    node = prog.nodes[i]
    t = type(node)
    pc, e, args, kont = st.pc, st.env, st.args, st.kont

    if t is Force:
        v = _operand(prog, i, 0, node.value, e)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        return PeakState(v.entry, v.env, (), delta(prog, e, args) + kont)

    if t is If0:
        g = _operand(prog, i, 0, node.guard, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PeakState(prog.path(prog.kid(i, 1 if g.n == 0 else 2)), e, args, kont)

    if t is Prd:
        if args:
            f = args[0]
            if type(f) is ARG:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            return PeakState(_right(prog, f.path), {**e, f.path: v}, args[1:], kont)
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            return PeakState(_right(prog, f.path), {**f.env, f.path: v}, f.rest_args, kont[1:])
        return Terminal(ProducedValue(_operand(prog, i, 0, node.value, e)))

    if t is Lam:
        if args:
            f = args[0]
            if type(f) is SEQ:
                return Stuck(StuckReason.SequencedNonProducer)
            q = prog.pos(f.path)
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PeakState(prog.path(prog.kid(i, 0)), {**e, pc: v}, args[1:], kont)
        if kont:
            f = kont[0]
            if type(f) is KSeq:
                return Stuck(StuckReason.SequencedNonProducer)
            return PeakState(prog.path(prog.kid(i, 0)), {**e, pc: f.value}, (), kont[1:])
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
            return PeakState(_right(prog, f.path), {**e, f.path: n}, args[1:], kont)
        if kont:
            f = kont[0]
            return PeakState(_right(prog, f.path), {**f.env, f.path: n}, f.rest_args, kont[1:])
        return Terminal(BareArith(n.n))

    raise TypeError(f"pc does not address a computation: {node!r}")


def _right(prog, p: tuple) -> tuple:
    """The path of a Seq's right component: where a bound value resumes."""
    return prog.path(prog.kid(prog.pos(p), 1))


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
                if type(f) is not (SEQ if t is Seq else ARG):
                    break
                p = prog.path(par)
                if f.path is not p and f.path != p:
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


def _scope(prog, i: int):
    """The binders a position sits under, innermost first, as a cons list
    of ``(binder id, rest)`` cells ending in None: every Lam entered through
    its body, every Seq entered through its right component and every
    LetRec entered through any child.  Each cell is made once, and a
    position's list shares its parent's."""
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
                r = (par, r)
        tab[q] = r
    return r


def _unload_e(prog, i: int, e: dict):
    """CEK environment frames for the binders above position ``i``,
    innermost first, each cell taken from the hash-consing table.  The
    walk over the scope, reading each binding from ``e``, is what an
    unload still costs per binder in scope."""
    binders = []
    cell = _scope(prog, i)
    while cell is not None:
        binders.append(cell[0])
        cell = cell[1]
    env = None
    nodes, path = prog.nodes, prog.path
    cons = prog.tables["cons"]
    for b in reversed(binders):
        node = nodes[b]
        if type(node) is LetRec:
            key = (cek.RecFrame, b, id(env))
            hit = cons.get(key)
            if hit is None:
                hit = cons[key] = cek.RecFrame(node.defs, env)
            env = hit
            continue
        v = e.get(path(b))
        if v is None:
            raise cek.IllFormedState(f"no value for binder at {path_text(path(b))}")
        v = unload_v(prog, v)
        key = (cek.Bind, b, id(v), id(env))
        hit = cons.get(key)
        if hit is None:
            hit = cons[key] = cek.Bind(node.binder, v, env)
        env = hit
    return env


def unload_v(prog, v):
    """The CEK value of ``v``, one object per distinct value.  Symbolic
    and numeric values go through the table too, so that an environment
    cell's key can name its value by id."""
    t = type(v)
    if t is SymVar:
        key = (SymVar, v.name)
    elif t is NumP:
        key = (NumC, v.n)
    else:
        entry, _ = _ascend(prog, prog.pos(v.entry), None)
        code, anchor = _entry_code(prog, entry)
        env = _unload_e(prog, anchor, v.env)
        key = (Closure, entry, id(env))
    cons = prog.tables["cons"]
    hit = cons.get(key)
    if hit is None:
        if t is SymVar:
            hit = v
        elif t is NumP:
            hit = NumC(v.n)
        else:
            hit = Closure(code, env)
        cons[key] = hit
    return hit


def _unload_k(prog, e: dict, args, kont) -> tuple:
    out = []
    cons = prog.tables["cons"]

    def seq_frame(p, env):
        i = prog.pos(p)
        env = _unload_e(prog, i, env)
        key = (cek.SeqF, i, id(env))
        hit = cons.get(key)
        if hit is None:
            node = prog.nodes[i]
            hit = cons[key] = cek.SeqF(node.binder, node.right, env)
        return hit

    def emit_args(env, frames):
        for f in frames:
            if type(f) is ARG:
                q = prog.pos(f.path)
                v = _operand(prog, q, 0, prog.nodes[q].arg, env)
                out.append(cek.ArgF(unload_v(prog, v)))
            else:
                out.append(seq_frame(f.path, env))

    emit_args(e, args)
    for f in kont:
        if type(f) is KArg:
            out.append(cek.ArgF(unload_v(prog, f.value)))
        else:
            out.append(seq_frame(f.path, f.env))
            emit_args(f.env, f.rest_args)
    return tuple(out)


def unload(P, rho: PeakState) -> CekState:
    prog = as_prog(P)
    pc, args = _ascend(prog, prog.pos(rho.pc), rho.args)
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


def _scope_entries(prog, p: tuple):
    """Binder paths a position's environment must cover: every Lam entered
    through its body and every Seq entered through its right component."""
    need = []
    cell = _scope(prog, prog.pos(p))
    while cell is not None:
        b = cell[0]
        if type(prog.nodes[b]) is not LetRec:
            need.append(prog.path(b))
        cell = cell[1]
    return need


def wf_check(P, rho: PeakState) -> WfReport:
    prog = as_prog(P)
    violations = []
    seen = set()

    def check_scoped(p, e, what):
        for q in _scope_entries(prog, p):
            if q not in e:
                violations.append(
                    f"{what}: binder at {path_text(q)} unbound for position {path_text(p)}"
                )
        check_env(e)

    def check_env(e):
        if id(e) in seen:
            return
        seen.add(id(e))
        for v in e.values():
            if type(v) is PClosure:
                check_scoped(v.entry, v.env, "closure entry")

    # WF1
    check_scoped(rho.pc, rho.env, "pc")
    for f in rho.kont:
        if type(f) is KArg:
            if type(f.value) is PClosure:
                check_scoped(f.value.entry, f.value.env, "argument closure")
        else:
            check_scoped(f.path, f.env, "continuation frame")

    # WF2
    prev = rho.pc
    for f in rho.args:
        if not is_suffix(f.path, prev):
            violations.append(
                f"argument frame {path_text(f.path)} is not a suffix of {path_text(prev)}"
            )
        prev = f.path

    return WfReport(tuple(violations))


# ---------------------------------------------------------------------------
# trace support


def describe(rho: PeakState, i: int) -> str:
    return (
        f"peak {i}: pc={path_text(rho.pc)} env={len(rho.env)}"
        f" args={len(rho.args)} kont={len(rho.kont)}"
    )
