"""The PEK machine: instruction-pointer states with static argument stacks.

The argument stack a PEAK state would carry is a function of the program
counter alone, so this machine drops it from the state and recomputes it
with ``aframes`` on demand.  ``eta`` plays the role of PEAK's advancement,
projected onto the program counter: every transition lands the program
counter on an instruction position (Force, Prd, Lam, If0, Op), never on a
search node.

Return frames replace PEAK's sequence frames: because the frames remaining
under a sequence are statically recoverable, a return frame only records
where to bind and where to resume.

Positions are named by the integer ids of the program's position index
(``syntax.Prog``): the program counter, return frames, environment cells
and closure entries hold ids, and the static tables (``aframes``, ``eta``,
binder resolution) are keyed by them and filled once per position.  A step
reads the next program counter off the index instead of building it, and
so does the same static work however deep the program is.  Paths are made
only at the edge: ``describe``, the functions that take a path
(``aframes``, ``gamma``, ``lookup_var``) and ``wf_check``'s messages.

Environments are peak's immutable ``Env`` chains: exactly the Lam/Seq
binders in scope at the position they belong to.  A bind makes one cell,
a lookup walks the static distance to its binder's level, and a closure
or a return frame keeps the chain cut back to the scope of its entry or
its Seq.  ``wf_check`` marks each cell it finds sound, so a check pays
once per cell rather than once per binder in scope.
"""

from dataclasses import dataclass, field

from . import cek
from .peak import (
    ARG,
    EMPTY,
    POSITION,
    SEQ,
    Env,
    KArg,
    KSeq,
    MissingBinding,
    NumP,
    PClosure,
    PeakState,
    WfReport,
    _CLO,
    _LOC,
    _chain_faults,
    _closure_faults,
    _depth,
    _resolve,
)
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
    as_prog,
    binder_of,
)

_INSTRUCTIONS = (Force, Prd, Lam, If0, Op)


@dataclass(frozen=True)
class KRet:
    bind: int = field(metadata=POSITION)  # the Seq node whose binder receives the value
    resume: int = field(metadata=POSITION)  # instruction position of the Seq's right component
    env: Env  # the chain in scope at the Seq node


@dataclass(frozen=True)
class PekState:
    pc: int = field(metadata=POSITION)  # the id of an instruction position
    env: Env  # the Lam/Seq binders in scope at pc, innermost first
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
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
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
                r = (ARG(par),) + r
            elif t is Lam and head == 0:
                if r and type(r[0]) is ARG:
                    r = r[1:]
            elif t is Seq and head == 0:
                r = (SEQ(par),) + r
            elif not (
                (t is LetRec and head == 0)
                or (t is Seq and head == 1)
                or (t is If0 and head in (1, 2))
            ):
                r = ()
        tab[q] = r
    return r


def eta(P, i: int) -> int:
    """Advance position ``i`` through search nodes to the next instruction
    position."""
    prog = as_prog(P)
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
        r = tab[i] = i
        for q in passed:
            tab[q] = r
    return r


def _next(prog, i: int, j: int) -> int:
    """Where the program counter goes on entering child ``j`` of ``i``."""
    return eta(prog, prog.kid(i, j))


def _seq_exit(prog, i: int):
    """Where a value bound by Seq ``i`` resumes, and how many cells of the
    chain the binding goes on: those in scope at the Seq."""
    tab = prog.tables["pek.seq"]
    hit = tab.get(i)
    if hit is None:
        hit = tab[i] = (_next(prog, i, 1), _depth(prog, i))
    return hit


# ---------------------------------------------------------------------------
# value resolution


def lookup_var(P, p: tuple, e: Env):
    prog = as_prog(P)
    i = prog.pos(p)
    binder_of(prog, i)  # raises off a variable
    return _gamma(prog, i, e)


def gamma(P, p: tuple, e: Env):
    prog = as_prog(P)
    return _gamma(prog, prog.pos(p), e)


def _gamma(prog, i: int, e: Env):
    v = prog.nodes[i]
    if type(v) is NumV:
        return NumP(v.n)
    tab = prog.tables["pek.value"]
    hit = tab.get(i)
    if hit is None:
        hit = tab[i] = _resolve(prog, i, _next)
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


def delta(P, e: Env, args: tuple) -> tuple:
    """Convert pending frames; a return frame replaces everything from the
    first SEQ on, since the remainder is recomputable from its position."""
    prog = as_prog(P)
    out = []
    for f in args:
        i = f.pos
        if type(f) is ARG:
            out.append(KArg(_operand(prog, i, 0, prog.nodes[i].arg, e)))
        else:
            resume, keep = _seq_exit(prog, i)
            out.append(KRet(i, resume, e if e.size == keep else e.cut(keep)))
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# stepping


def load(P) -> PekState:
    prog = as_prog(P)
    return PekState(eta(prog, 0), EMPTY, ())


def step(P, s: PekState):
    prog = as_prog(P)
    try:
        return _fire(prog, s)
    except MissingBinding:
        return Stuck(StuckReason.UnboundPath)


def _fire(prog, s: PekState):
    i, e, kont = s.pc, s.env, s.kont
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
            resume, keep = _seq_exit(prog, f.pos)
            rest = e if e.size == keep else e.cut(keep)
            return PekState(resume, Env(f.pos, v, rest), kont)
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = _operand(prog, i, 0, node.value, e)
            return PekState(f.resume, Env(f.bind, v, f.env), kont[1:])
        return Terminal(ProducedValue(_operand(prog, i, 0, node.value, e)))

    if t is Lam:
        if a:
            f = a[0]
            if type(f) is SEQ:
                return Stuck(StuckReason.SequencedNonProducer)
            q = f.pos
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PekState(_next(prog, i, 0), Env(i, v, e), kont)
        if kont:
            f = kont[0]
            if type(f) is KRet:
                return Stuck(StuckReason.SequencedNonProducer)
            return PekState(_next(prog, i, 0), Env(i, f.value, e), kont[1:])
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
            resume, keep = _seq_exit(prog, f.pos)
            rest = e if e.size == keep else e.cut(keep)
            return PekState(resume, Env(f.pos, n, rest), kont)
        if kont:
            f = kont[0]
            return PekState(f.resume, Env(f.bind, n, f.env), kont[1:])
        return Terminal(BareArith(n.n))

    raise TypeError(f"pc does not address an instruction: {node!r}")


# ---------------------------------------------------------------------------
# unloading to PEAK


def unload(P, s: PekState) -> PeakState:
    """The PEAK state of ``s``; IllFormedState when its pc or a return
    frame's Seq is an id that names no position."""
    prog = as_prog(P)
    n = len(prog.nodes)
    kont = []
    for f in s.kont:
        if type(f) is not KArg:
            if not 0 <= f.bind < n:
                raise cek.IllFormedState(f"return frame at no position {f.bind!r}")
            f = KSeq(f.bind, f.env, _aframes(prog, f.bind))
        kont.append(f)
    if not 0 <= s.pc < n:
        raise cek.IllFormedState(f"pc at no position {s.pc!r}")
    return PeakState(s.pc, s.env, _aframes(prog, s.pc), tuple(kont))


# ---------------------------------------------------------------------------
# well-formedness


def _entry_fault(prog, entry: int):
    if not isinstance(prog.nodes[entry], _INSTRUCTIONS):
        return f"{prog.path_text(entry)} is not an instruction position"
    return None


def wf_check(P, s: PekState) -> WfReport:
    prog = as_prog(P)
    violations = []
    seen = set()

    def check_position(i, what):
        fault = _entry_fault(prog, i)
        if fault:
            violations.append(f"{what}: {fault}")

    check_position(s.pc, "pc")
    _chain_faults(prog, s.pc, s.env, "pc", violations, seen, _entry_fault)
    for f in s.kont:
        if type(f) is KArg:
            if type(f.value) is PClosure:
                _closure_faults(prog, f.value, "argument closure", violations, seen, _entry_fault)
        else:
            check_position(f.resume, "return frame")
            _chain_faults(prog, f.bind, f.env, "return frame", violations, seen, _entry_fault)

    return WfReport(tuple(violations))


# ---------------------------------------------------------------------------
# trace support


def describe(P, s: PekState, i: int) -> str:
    return f"pek {i}: pc={as_prog(P).path_text(s.pc)} env={len(s.env)} kont={len(s.kont)}"
