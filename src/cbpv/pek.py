"""The PEK machine: instruction-pointer states with static argument stacks.

The argument stack a PEAK state would carry is a function of the program
counter alone, so this machine drops it from the state and recomputes it
with ``aframes`` on demand.  ``eta`` plays the role of PEAK's advancement,
projected onto the path: every transition lands the program counter on an
instruction position (Force, Prd, Lam, If0, Op), never on a search node.

Return frames replace PEAK's sequence frames: because the frames remaining
under a sequence are statically recoverable, a return frame only records
where to bind and where to resume.
"""

from dataclasses import dataclass

from . import peak
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
    path_text,
    resolve_binder,
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
# static structure


def aframes(P, p: tuple) -> tuple:
    """The argument stack in force at a position, innermost frame first."""
    prog = as_prog(P)
    tab = prog.table("aframes")
    if p in tab:
        return tab[p]
    pending = []
    while p not in tab:
        if not p:
            tab[p] = ()
            break
        pending.append(p)
        p = p[1:]
    parent = p  # each pending path's parent is the one handled before it
    for q in reversed(pending):
        head = q[0]
        node = prog.at(parent)
        t = type(node)
        if t is App and head == 1:
            r = (ARG(parent),) + tab[parent]
        elif t is Lam and head == 0:
            r = tab[parent]
            if r and type(r[0]) is ARG:
                r = r[1:]
        elif t is Seq and head == 0:
            r = (SEQ(parent),) + tab[parent]
        elif (
            (t is LetRec and head == 0)
            or (t is Seq and head == 1)
            or (t is If0 and head in (1, 2))
        ):
            r = tab[parent]
        else:
            r = ()
        tab[q] = r
        parent = q
    return tab[pending[0]] if pending else tab[p]


def eta(P, p: tuple) -> tuple:
    """Advance a path through search nodes to the next instruction position."""
    prog = as_prog(P)
    tab = prog.table("eta")
    got = tab.get(p)
    if got is not None:
        return got
    start = p
    while True:
        t = type(prog.at(p))
        if t is Seq or t is LetRec:
            p = (0,) + p
        elif t is App:
            p = (1,) + p
        else:
            break
    tab[start] = p
    return p


# ---------------------------------------------------------------------------
# value resolution


def lookup_var(P, p: tuple, e: dict):
    prog = as_prog(P)
    ref = resolve_binder(prog, p)
    t = type(ref)
    if t is FreeVar:
        return SymVar(ref.name)
    if t is RecBind:
        return PClosure(eta(prog, (ref.index,) + ref.path), e)
    v = e.get(ref.path)
    if v is None:
        raise MissingBinding(f"no value for binder at {path_text(ref.path)}")
    return v


def gamma(P, p: tuple, e: dict):
    prog = as_prog(P)
    v = prog.at(p)
    t = type(v)
    if t is NumV:
        return NumP(v.n)
    if t is ThunkV:
        return PClosure(eta(prog, (0,) + p), e)
    return lookup_var(prog, p, e)


def delta(P, e: dict, args: tuple) -> tuple:
    """Convert pending frames; a return frame replaces everything from the
    first SEQ on, since the remainder is recomputable from its path."""
    prog = as_prog(P)
    out = []
    for f in args:
        if type(f) is ARG:
            out.append(KArg(gamma(prog, (0,) + f.path, e)))
        else:
            out.append(KRet(f.path, eta(prog, (1,) + f.path), e))
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
    node = prog.at(s.pc)
    t = type(node)
    pc, e, kont = s.pc, s.env, s.kont
    a = aframes(prog, pc)

    if t is Force:
        v = gamma(prog, (0,) + pc, e)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        return PekState(v.entry, v.env, delta(prog, e, a) + kont)

    if t is If0:
        g = gamma(prog, (0,) + pc, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        branch = (1,) if g.n == 0 else (2,)
        return PekState(eta(prog, branch + pc), e, kont)

    if t is Prd:
        if a:
            f = a[0]
            if type(f) is ARG:
                return Stuck(StuckReason.ApplyNonFunction)
            v = gamma(prog, (0,) + pc, e)
            return PekState(eta(prog, (1,) + f.path), {**e, f.path: v}, kont)
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = gamma(prog, (0,) + pc, e)
            return PekState(f.resume_path, {**f.env, f.bind_path: v}, kont[1:])
        return Terminal(ProducedValue(gamma(prog, (0,) + pc, e)))

    if t is Lam:
        if a:
            f = a[0]
            if type(f) is SEQ:
                return Stuck(StuckReason.SequencedNonProducer)
            v = gamma(prog, (0,) + f.path, e)
            return PekState(eta(prog, (0,) + pc), {**e, pc: v}, kont)
        if kont:
            f = kont[0]
            if type(f) is KRet:
                return Stuck(StuckReason.SequencedNonProducer)
            return PekState(eta(prog, (0,) + pc), {**e, pc: f.value}, kont[1:])
        return Terminal(AwaitingArgument())

    if t is Op:
        if a and type(a[0]) is ARG:
            return Stuck(StuckReason.ApplyNonFunction)
        if not a and kont and type(kont[0]) is KArg:
            return Stuck(StuckReason.ApplyNonFunction)
        l = gamma(prog, (0,) + pc, e)
        r = gamma(prog, (1,) + pc, e)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(node.op.apply(l.n, r.n))
        if a:
            f = a[0]
            return PekState(eta(prog, (1,) + f.path), {**e, f.path: n}, kont)
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
