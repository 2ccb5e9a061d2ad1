"""The PEK machine: instruction-pointer states with static argument stacks.

The argument stack a PEAK state would carry is a function of the program
counter alone, so this machine drops it from the state and recomputes it
with ``aframes`` on demand.  ``eta`` plays the role of PEAK's advancement,
projected onto the path: every transition lands the program counter on an
instruction position (Force, Prd, Lam, If0, Op), never on a search node.

Return frames replace PEAK's sequence frames: because the frames remaining
under a sequence are statically recoverable, a return frame only records
where to bind and where to resume.

The static tables (``aframes``, ``eta``, binder resolution) are keyed by the
integer ids of the program's position index (``syntax.Prog``) and filled
once per position.  A step finds its pc by identity, reads the next one off
the index instead of building it, and so does the same static work however
deep the program is; only hashing the environment's path keys still grows
with depth.  States, frames and the public functions keep path tuples.
"""

from dataclasses import dataclass

from .peak import (
    ARG,
    SEQ,
    KArg,
    KSeq,
    MissingBinding,
    NumP,
    PClosure,
    PeakState,
    WfReport,
    _scope_entries,
)
from .cek import SymVar
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
    path_text,
)

_INSTRUCTIONS = (Force, Prd, Lam, If0, Op)


@dataclass(frozen=True)
class KRet:
    bind_path: tuple  # the Seq node whose binder receives the value
    resume_path: tuple  # instruction position of the Seq's right component
    env: dict


@dataclass(frozen=True)
class PekState:
    pc: tuple  # always an instruction position
    env: dict
    kont: tuple  # of KArg/KRet, top first


# ---------------------------------------------------------------------------
# static structure, by position id


def aframes(P, p: tuple) -> tuple:
    """The argument stack in force at a position, innermost frame first."""
    prog = as_prog(P)
    return _aframes(prog, prog.pos(p))


def _aframes(prog, i: int) -> tuple:
    tab = prog.tables["aframes"]
    r = tab.get(i)
    if r is not None:
        return r
    nodes, parents, heads, path = prog.nodes, prog.parents, prog.heads, prog.path
    pending = []  # climb to the nearest position with an entry (or the root)
    while r is None:
        pending.append(i)
        i = parents[i]
        r = () if i < 0 else tab.get(i)
    for q in reversed(pending):  # then fill each one from its parent's
        par = parents[q]
        if par >= 0:
            head, t = heads[q], type(nodes[par])
            if t is App and head == 1:
                r = (ARG(path(par)),) + r
            elif t is Lam and head == 0:
                if r and type(r[0]) is ARG:
                    r = r[1:]
            elif t is Seq and head == 0:
                r = (SEQ(path(par)),) + r
            elif not (
                (t is LetRec and head == 0)
                or (t is Seq and head == 1)
                or (t is If0 and head in (1, 2))
            ):
                r = ()
        tab[q] = r
    return r


def eta(P, p: tuple) -> tuple:
    """Advance a path through search nodes to the next instruction position."""
    prog = as_prog(P)
    i = prog.pos(p)
    tab = prog.tables["eta"]
    r = tab.get(i)
    if r is None:
        passed = []  # every search node passed advances to the same place
        while True:
            t = type(prog.nodes[i])
            if t is Seq or t is LetRec:
                j = 0
            elif t is App:
                j = 1
            else:
                break
            passed.append(i)
            i = prog.kid(i, j)
        r = tab[i] = prog.path(i)
        for q in passed:
            tab[q] = r
    return r


def _next(prog, i: int, j: int) -> tuple:
    """Where the program counter goes on entering child ``j`` of ``i``."""
    return eta(prog, prog.path(prog.kid(i, j)))


# ---------------------------------------------------------------------------
# value resolution


def lookup_var(P, p: tuple, e: dict):
    prog = as_prog(P)
    return _lookup_var(prog, prog.pos(p), e)


def _lookup_var(prog, i: int, e: dict):
    ref, q = binder_of(prog, i)
    t = type(ref)
    if t is FreeVar:
        return SymVar(ref.name)
    if t is RecBind:
        return PClosure(_next(prog, q, ref.index), e)
    v = e.get(ref.path)
    if v is None:
        raise MissingBinding(f"no value for binder at {path_text(ref.path)}")
    return v


def gamma(P, p: tuple, e: dict):
    prog = as_prog(P)
    return _gamma(prog, prog.pos(p), e)


def _gamma(prog, i: int, e: dict):
    v = prog.nodes[i]
    t = type(v)
    if t is NumV:
        return NumP(v.n)
    if t is ThunkV:
        return PClosure(_next(prog, i, 0), e)
    return _lookup_var(prog, i, e)


def _operand(prog, i: int, j: int, v, e: dict):
    """``_gamma`` of ``v``, child ``j`` of position ``i``: a numeral is read
    off the node, without visiting its position."""
    if type(v) is NumV:
        return NumP(v.n)
    return _gamma(prog, prog.kid(i, j), e)


def delta(P, e: dict, args: tuple) -> tuple:
    """Convert pending frames; a return frame replaces everything from the
    first SEQ on, since the remainder is recomputable from its path."""
    prog = as_prog(P)
    out = []
    for f in args:
        i = prog.pos(f.path)
        if type(f) is ARG:
            out.append(KArg(_operand(prog, i, 0, prog.nodes[i].arg, e)))
        else:
            out.append(KRet(f.path, _next(prog, i, 1), e))
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# stepping


def load(P) -> PekState:
    prog = as_prog(P)
    return PekState(eta(prog, ()), {}, ())


def step(P, s: PekState):
    prog = as_prog(P)
    try:
        return _fire(prog, s)
    except MissingBinding:
        return Stuck(StuckReason.UnboundPath)


def _fire(prog, s: PekState):
    pc, e, kont = s.pc, s.env, s.kont
    i = prog.pos(pc)
    node = prog.nodes[i]
    t = type(node)
    a = _aframes(prog, i)

    if t is Force:
        v = _operand(prog, i, 0, node.value, e)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        return PekState(v.entry, v.env, delta(prog, e, a) + kont)

    if t is If0:
        g = _operand(prog, i, 0, node.guard, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PekState(_next(prog, i, 1 if g.n == 0 else 2), e, kont)

    if t is Prd:
        if a:
            f = a[0]
            if type(f) is ARG:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            return PekState(_next(prog, prog.pos(f.path), 1), {**e, f.path: v}, kont)
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            return PekState(f.resume_path, {**f.env, f.bind_path: v}, kont[1:])
        return Terminal(ProducedValue(_operand(prog, i, 0, node.value, e)))

    if t is Lam:
        if a:
            f = a[0]
            if type(f) is SEQ:
                return Stuck(StuckReason.SequencedNonProducer)
            q = prog.pos(f.path)
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PekState(_next(prog, i, 0), {**e, pc: v}, kont)
        if kont:
            f = kont[0]
            if type(f) is KRet:
                return Stuck(StuckReason.SequencedNonProducer)
            return PekState(_next(prog, i, 0), {**e, pc: f.value}, kont[1:])
        return Terminal(AwaitingArgument())

    if t is Op:
        if a and type(a[0]) is ARG:
            return Stuck(StuckReason.ApplyNonFunction)
        if not a and kont and type(kont[0]) is KArg:
            return Stuck(StuckReason.ApplyNonFunction)
        l = _operand(prog, i, 0, node.lhs, e)
        r = _operand(prog, i, 1, node.rhs, e)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(node.op.apply(l.n, r.n))
        if a:
            f = a[0]
            return PekState(_next(prog, prog.pos(f.path), 1), {**e, f.path: n}, kont)
        if kont:
            f = kont[0]
            return PekState(f.resume_path, {**f.env, f.bind_path: n}, kont[1:])
        return Terminal(BareArith(n.n))

    raise TypeError(f"pc does not address an instruction: {node!r}")


# ---------------------------------------------------------------------------
# unloading to PEAK


def unload(P, s: PekState) -> PeakState:
    prog = as_prog(P)
    kont = tuple(
        f if type(f) is KArg else KSeq(f.bind_path, f.env, aframes(prog, f.bind_path))
        for f in s.kont
    )
    return PeakState(s.pc, s.env, aframes(prog, s.pc), kont)


# ---------------------------------------------------------------------------
# well-formedness


def wf_check(P, s: PekState) -> WfReport:
    prog = as_prog(P)
    violations = []
    seen = set()

    def check_position(p, what):
        if not isinstance(prog.at(p), _INSTRUCTIONS):
            violations.append(f"{what}: {path_text(p)} is not an instruction position")

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
                check_position(v.entry, "closure entry")
                check_scoped(v.entry, v.env, "closure entry")

    check_position(s.pc, "pc")
    check_scoped(s.pc, s.env, "pc")
    for f in s.kont:
        if type(f) is KArg:
            if type(f.value) is PClosure:
                check_position(f.value.entry, "argument closure")
                check_scoped(f.value.entry, f.value.env, "argument closure")
        else:
            check_position(f.resume_path, "return frame")
            check_scoped(f.bind_path, f.env, "return frame")

    return WfReport(tuple(violations))


# ---------------------------------------------------------------------------
# trace support


def describe(s: PekState, i: int) -> str:
    return f"pek {i}: pc={path_text(s.pc)} env={len(s.env)} kont={len(s.kont)}"
