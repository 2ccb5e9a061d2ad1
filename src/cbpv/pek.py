"""The PEK machine: instruction-pointer states with static argument stacks.

The argument stack a PEAK state would carry is a function of the program
counter alone, so this machine drops it from the state and recomputes it
with ``_aframes`` on demand.  ``eta`` is PEAK's advancement projected onto
the program counter, the position ``peak._descent`` lands on: every
transition lands the program counter on an instruction position (Force,
Prd, Lam, If0, Op), never on a search node.

Where PEK is PEAK with a static argument stack, it runs PEAK's code.
Values are read (γ) and pending frames converted (δ) by the functions
``peak._lookups`` builds for both machines; pek's differ only in that the
code of a child is where η lands and that a pending Seq becomes a return
frame.  η reaches ``peak._descent`` through peak's module, so a replaced
descent reaches both machines, as a replaced ``peak._resolve`` does.  So
the peak/pek check cannot see a fault in γ, δ or η.  Two other checks
can: cek/peak compares against cek's own descent and frames, and pek/cfg
against compile's own η and argument frames (``cfg._push_args``).

Return frames replace PEAK's sequence frames: because the frames remaining
under a sequence are statically recoverable, a return frame only records
where to bind and where to resume.

As in PEAK, a Lam, a Prd and an Op meet one frame: the top of the static
argument stack, else the top of the continuation.  A Lam binds the
argument of an ARG or a KArg there.  A Prd or an Op computes its value and
binds it into a pending SEQ or a KRet, or halts when both stacks are
empty.  An argument frame is rejected before any operand is read.

Positions are named by the integer ids of the program's position index
(``syntax.Prog``): the program counter, return frames, environment cells
and closure entries hold ids, and the static tables (``_aframes``,
``eta``, binder resolution) are keyed by them and filled once per
position.  A step reads the next program counter off the index instead of
building it, and so does the same static work however deep the program
is.  Path text is made only at the edge: by ``describe`` and by
``wf_check``'s messages.  Every function here takes that Prog as the
program.

Environments are peak's immutable ``Env`` chains: exactly the Lam/Seq
binders in scope at the position they belong to.  A bind makes one cell,
a lookup walks the static distance to its binder's level (peak's
lookup, built with ``_next`` for code entries), and a closure
or a return frame keeps the chain cut back to the scope of its entry or
its Seq.  ``wf_check`` marks each cell it finds sound, so a check pays
once per cell rather than once per binder in scope.

The continuation and the static argument stacks are chains of
``cek.Frames`` cells.  A position's static stack is its parent's with at
most one frame pushed or popped, so ``_aframes`` makes at most one cell per
position.  Each continuation cell keeps its PEAK chain (``Cell.derive``)
and its well-formedness verdict (``Cell.memo_of``), so ``unload`` and
``wf_check`` pay once per frame, not once per frame per step.
"""

from dataclasses import field

from . import cek, peak
from .cek import NIL, Frames
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
    _chain_faults,
    _closure_faults,
    _kont_faults,
    _lookups,
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
    Op,
    Prd,
    Seq,
    frozen,
)

_INSTRUCTIONS = (Force, Prd, Lam, If0, Op)


@frozen()
class KRet:
    bind: int = field(metadata=POSITION)  # the Seq node whose binder receives the value
    resume: int = field(metadata=POSITION)  # instruction position of the Seq's right component
    env: Env  # the chain in scope at the Seq node


@frozen()
class PekState:
    pc: int = field(metadata=POSITION)  # the id of an instruction position
    env: Env  # the Lam/Seq binders in scope at pc, innermost first
    kont: Frames  # of KArg/KRet


# ---------------------------------------------------------------------------
# static structure, by position id


def _aframes(prog, i: int) -> Frames:
    """The argument stack in force at position ``i``, innermost frame on
    top.  A position's stack is its parent's with at most one frame pushed
    or popped, so each is one cell at most over its parent's, made once."""
    tab = prog.tables["args"]
    r = tab.get(i)
    if r is not None:
        return r
    nodes, parents, heads = prog.nodes, prog.parents, prog.heads
    pending = []  # climb to the nearest position with an entry (or the root)
    while r is None:
        pending.append(i)
        i = parents[i]
        r = NIL if i < 0 else tab.get(i)
    for q in reversed(pending):  # then fill each one from its parent's
        par = parents[q]
        if par >= 0:
            head, t = heads[q], type(nodes[par])
            if t is App and head == 1:
                r = Frames(ARG(par), r)
            elif t is Lam and head == 0:
                if type(r.frame) is ARG:
                    r = r.rest
            elif t is Seq and head == 0:
                r = Frames(SEQ(par), r)
            elif not (
                (t is LetRec and head == 0)
                or (t is Seq and head == 1)
                or (t is If0 and head in (1, 2))
            ):
                r = NIL
        tab[q] = r
    return r


def eta(prog, i: int) -> int:
    """Advance position ``i`` through search nodes to the next instruction
    position: where PEAK's advancement lands (``peak._descent``)."""
    return peak._descent(prog, i)


def _next(prog, i: int, j: int) -> int:
    """Where the program counter goes on entering child ``j`` of ``i``."""
    return eta(prog, prog.kid(i, j))


# A return frame replaces everything from the first SEQ on, since the
# remainder is recomputable from its position.
_gamma, _operand, _seq_exit, delta = _lookups(
    "pek", _next, lambda i, resume, env, rest: KRet(i, resume, env)
)


# ---------------------------------------------------------------------------
# stepping


def load(prog) -> PekState:
    return PekState(eta(prog, 0), EMPTY, NIL)


def step(prog, s: PekState):
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
        return PekState(v.entry, v.env, delta(prog, e, a, kont))

    if t is If0:
        g = _operand(prog, i, 0, node.guard, e)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PekState(_next(prog, i, 1 if g.n == 0 else 2), e, kont)

    # Lam, Prd and Op meet one frame: the top of the static argument stack,
    # else the top of the continuation (None when both are empty)
    f = a.frame if a.size else kont.frame
    tf = type(f)
    if t is Lam:
        if tf is ARG:
            q = f.pos
            v = _operand(prog, q, 0, prog.nodes[q].arg, e)
            return PekState(_next(prog, i, 0), Env(i, v, e), kont)
        if tf is KArg:
            return PekState(_next(prog, i, 0), Env(i, f.value, e), kont.rest)
        if f is None:
            return Terminal(AwaitingArgument())
        return Stuck(StuckReason.SequencedNonProducer)

    if t is not Prd and t is not Op:
        raise TypeError(f"pc does not address an instruction: {node!r}")
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
        resume, keep = _seq_exit(prog, f.pos)
        rest = e if e.size == keep else e.cut(keep)
        return PekState(resume, Env(f.pos, v, rest), kont)
    if tf is KRet:
        return PekState(f.resume, Env(f.bind, v, f.env), kont.rest)
    return Terminal(ProducedValue(v) if t is Prd else BareArith(v.n))


# ---------------------------------------------------------------------------
# unloading to PEAK


def unload(prog, s: PekState) -> PeakState:
    """The PEAK state of ``s``; IllFormedState when its pc or a return
    frame's Seq is an id that names no position."""
    kont = _unload_k(prog, s.kont)
    if not 0 <= s.pc < len(prog.nodes):
        raise cek.IllFormedState(f"pc at no position {s.pc!r}")
    return PeakState(s.pc, s.env, _aframes(prog, s.pc), kont)


def _unload_k(prog, kont: Frames) -> Frames:
    """The PEAK continuation of ``kont``: each return frame becomes a KSeq
    over its Seq's static argument stack.  Each cell keeps the PEAK chain
    of itself and its tail (``Cell.derive``), so only cells new since the
    last unload are converted, and the unloads of one suffix are one
    object."""
    return kont.derive(prog, "peak", _peak_frame)


def _peak_frame(prog, c: Frames, out: Frames) -> Frames:
    """``out`` with the PEAK frame of the top frame of cell ``c`` pushed on
    it; IllFormedState when a return frame's Seq is an id that names no
    position."""
    f = c.frame
    if type(f) is KArg:
        return Frames(f, out)
    if not 0 <= f.bind < len(prog.nodes):
        raise cek.IllFormedState(f"return frame at no position {f.bind!r}")
    return Frames(KSeq(f.bind, f.env, _aframes(prog, f.bind)), out)


# ---------------------------------------------------------------------------
# well-formedness


def _entry_fault(prog, entry: int):
    if not isinstance(prog.nodes[entry], _INSTRUCTIONS):
        return f"{prog.path_text(entry)} is not an instruction position"
    return None


def wf_check(prog, s: PekState) -> WfReport:
    violations = []
    seen = set()
    fault = _entry_fault(prog, s.pc)
    if fault:
        violations.append(f"pc: {fault}")
    _chain_faults(prog, s.pc, s.env, "pc", violations, seen, _entry_fault)
    _kont_faults(prog, s.kont, violations, seen, _frame_faults)
    return WfReport(tuple(violations))


def _frame_faults(prog, f, out: list, seen: set):
    if type(f) is KArg:
        if type(f.value) is PClosure:
            _closure_faults(prog, f.value, "argument closure", out, seen, _entry_fault)
    else:
        fault = _entry_fault(prog, f.resume)
        if fault:
            out.append(f"return frame: {fault}")
        _chain_faults(prog, f.bind, f.env, "return frame", out, seen, _entry_fault)


# ---------------------------------------------------------------------------
# trace support


def describe(prog, s: PekState, i: int) -> str:
    return f"pek {i}: pc={prog.path_text(s.pc)} env={len(s.env)} kont={len(s.kont)}"
