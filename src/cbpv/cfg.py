"""Compilation to a control-flow graph and the machine that executes it.

Each instruction position of a program (Force, Prd, Lam, If0, Op node)
becomes one block: an instruction plus its successor program points.  The
operand shapes are decided entirely at compile time from the static frames,
so the machine dispatches on instructions alone and never inspects the term.
States are shared with the instruction-pointer machine — only the transition
function changes — which keeps the two machines comparable step by step.

Positions whose static frames cannot match their node form compile to STUCK
instructions instead of failing: compilation is total over computation
terms, open ones included, and halting is reported when the block runs.
"""

from dataclasses import dataclass, field
from typing import Union

from . import cek, peak, pek
from .peak import KArg, MissingBinding, NumP, PClosure
from .pek import ARG, SEQ, KRet, PekState
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
    ArithOp,
    Force,
    If0,
    Lam,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    FreeVar,
    RecBind,
    as_prog,
    is_value,
    iter_subterms,
    path_text,
    resolve_binder,
)


class NotAComputation(TypeError):
    pass


class NotAValue(TypeError):
    pass


class UnknownPc(Exception):
    """The program counter addresses no block — a compiler bug, not a
    property of the program being run."""


# ---------------------------------------------------------------------------
# operands and instructions


@dataclass(frozen=True)
class VAR:
    name: str


@dataclass(frozen=True)
class NAT:
    n: int


@dataclass(frozen=True)
class LOC:
    binder: tuple  # a Lam or Seq node


@dataclass(frozen=True)
class LBL:
    target: tuple  # an instruction position


Operand = Union[VAR, NAT, LOC, LBL]


@dataclass(frozen=True)
class CALL:
    fn: Operand
    args: tuple  # innermost application first: popped first by the callee
    bind: tuple


@dataclass(frozen=True)
class TAIL:
    fn: Operand
    args: tuple


@dataclass(frozen=True)
class MOV:
    src: Operand
    dst: tuple


@dataclass(frozen=True)
class RET:
    src: Operand


@dataclass(frozen=True)
class POP:
    dst: tuple


@dataclass(frozen=True)
class IF0:
    guard: Operand
    zero: tuple
    nonzero: tuple


@dataclass(frozen=True)
class OP:
    lhs: Operand
    op: ArithOp
    rhs: Operand
    dst: tuple


@dataclass(frozen=True)
class OPRET:
    lhs: Operand
    op: ArithOp
    rhs: Operand


@dataclass(frozen=True)
class STUCK:
    reason: StuckReason


@dataclass(frozen=True)
class Cfg:
    entry: tuple
    blocks: dict  # Path -> (Instruction, successor paths); preorder
    prog: object = field(compare=False, repr=False)


CfgState = PekState


# ---------------------------------------------------------------------------
# operand computation and evaluation


def operand_of(P, p: tuple) -> Operand:
    prog = as_prog(P)
    v = prog.at(p)
    t = type(v)
    if t is NumV:
        return NAT(v.n)
    if t is ThunkV:
        return LBL(pek.eta(prog, (0,) + p))
    if not is_value(v):
        raise NotAValue(f"no operand for computation at {path_text(p)}")
    ref = resolve_binder(prog, p)
    rt = type(ref)
    if rt is FreeVar:
        return VAR(ref.name)
    if rt is RecBind:
        return LBL(pek.eta(prog, (ref.index,) + ref.path))
    return LOC(ref.path)


def eval_operand(e: dict, o: Operand):
    t = type(o)
    if t is VAR:
        return SymVar(o.name)
    if t is NAT:
        return NumP(o.n)
    if t is LBL:
        return PClosure(o.target, e)
    v = e.get(o.binder)
    if v is None:
        raise MissingBinding(f"no value for binder at {path_text(o.binder)}")
    return v


def _eval_args(e: dict, operands: tuple) -> tuple:
    return tuple(eval_operand(e, o) for o in operands)


# ---------------------------------------------------------------------------
# compilation


def compile(P) -> Cfg:
    prog = as_prog(P)
    if is_value(prog.term):
        raise NotAComputation("values have no control flow")
    blocks = {}
    for p, node in iter_subterms(prog.term):
        if isinstance(node, (Force, Prd, Lam, If0, Op)):
            blocks[p] = _compile_at(prog, p, node)
    return Cfg(pek.eta(prog, ()), blocks, prog)


def _compile_at(prog, p, node):
    t = type(node)
    a = pek.aframes(prog, p)

    if t is Force:
        prefix = []
        seq = None
        for f in a:
            if type(f) is SEQ:
                seq = f
                break
            prefix.append(f)
        operands = tuple(operand_of(prog, (0,) + f.path) for f in prefix)
        fn = operand_of(prog, (0,) + p)
        if seq is None:
            return TAIL(fn, operands), ()
        resume = pek.eta(prog, (1,) + seq.path)
        return CALL(fn, operands, seq.path), (resume,)

    if t is If0:
        zero = pek.eta(prog, (1,) + p)
        nonzero = pek.eta(prog, (2,) + p)
        return IF0(operand_of(prog, (0,) + p), zero, nonzero), (zero, nonzero)

    if t is Prd:
        if a:
            f = a[0]
            if type(f) is ARG:
                return STUCK(StuckReason.ApplyNonFunction), ()
            return MOV(operand_of(prog, (0,) + p), f.path), (pek.eta(prog, (1,) + f.path),)
        return RET(operand_of(prog, (0,) + p)), ()

    if t is Lam:
        if a:
            f = a[0]
            if type(f) is SEQ:
                return STUCK(StuckReason.SequencedNonProducer), ()
            return MOV(operand_of(prog, (0,) + f.path), p), (pek.eta(prog, (0,) + p),)
        return POP(p), (pek.eta(prog, (0,) + p),)

    # Op
    lhs = operand_of(prog, (0,) + p)
    rhs = operand_of(prog, (1,) + p)
    if a:
        f = a[0]
        if type(f) is ARG:
            return STUCK(StuckReason.ApplyNonFunction), ()
        return OP(lhs, node.op, rhs, f.path), (pek.eta(prog, (1,) + f.path),)
    return OPRET(lhs, node.op, rhs), ()


# ---------------------------------------------------------------------------
# execution


def load(M):
    prog = as_prog(M)
    return compile(prog), pek.load(prog)


def step(G: Cfg, s: PekState):
    block = G.blocks.get(s.pc)
    if block is None:
        raise UnknownPc(path_text(s.pc))
    instr, succs = block
    try:
        return _execute(instr, succs, s)
    except MissingBinding:
        return Stuck(StuckReason.UnboundPath)


def _execute(instr, succs, s: PekState):
    t = type(instr)
    e, kont = s.env, s.kont

    if t is TAIL:
        v = eval_operand(e, instr.fn)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        frames = tuple(KArg(x) for x in _eval_args(e, instr.args))
        return PekState(v.entry, v.env, frames + kont)

    if t is CALL:
        v = eval_operand(e, instr.fn)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        frames = tuple(KArg(x) for x in _eval_args(e, instr.args))
        ret = KRet(instr.bind, succs[0], e)  # the caller's environment
        return PekState(v.entry, v.env, frames + (ret,) + kont)

    if t is MOV:
        return PekState(succs[0], {**e, instr.dst: eval_operand(e, instr.src)}, kont)

    if t is RET:
        if kont:
            f = kont[0]
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = eval_operand(e, instr.src)
            return PekState(f.resume_path, {**f.env, f.bind_path: v}, kont[1:])
        return Terminal(ProducedValue(eval_operand(e, instr.src)))

    if t is POP:
        if kont:
            f = kont[0]
            if type(f) is KRet:
                return Stuck(StuckReason.SequencedNonProducer)
            return PekState(succs[0], {**e, instr.dst: f.value}, kont[1:])
        return Terminal(AwaitingArgument())

    if t is IF0:
        g = eval_operand(e, instr.guard)
        if type(g) is not NumP:
            return Stuck(StuckReason.GuardNotNumeral)
        return PekState(instr.zero if g.n == 0 else instr.nonzero, e, kont)

    if t is OP:
        l = eval_operand(e, instr.lhs)
        r = eval_operand(e, instr.rhs)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(instr.op.apply(l.n, r.n))
        return PekState(succs[0], {**e, instr.dst: n}, kont)

    if t is OPRET:
        if kont and type(kont[0]) is KArg:
            return Stuck(StuckReason.ApplyNonFunction)
        l = eval_operand(e, instr.lhs)
        r = eval_operand(e, instr.rhs)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(instr.op.apply(l.n, r.n))
        if kont:
            f = kont[0]
            return PekState(f.resume_path, {**f.env, f.bind_path: n}, kont[1:])
        return Terminal(BareArith(n.n))

    # STUCK
    return Stuck(instr.reason)


def unload(P, s: PekState):
    prog = P.prog if isinstance(P, Cfg) else as_prog(P)
    return cek.unload(peak.unload(prog, pek.unload(prog, s)))


# ---------------------------------------------------------------------------
# textual emission


def _loc_names(prog):
    counts = {}
    binders = {}
    for p, node in iter_subterms(prog.term):
        if isinstance(node, (Lam, Seq)):
            binders[p] = node.binder
            counts[node.binder] = counts.get(node.binder, 0) + 1
    return {
        p: name if counts[name] == 1 else f"{name}#{path_text(p)}"
        for p, name in binders.items()
    }


def _render_operand(o, labels, locs):
    t = type(o)
    if t is NAT:
        return str(o.n)
    if t is VAR:
        return o.name
    if t is LOC:
        return locs[o.binder]
    return f"@{labels[o.target]}"


def _render(instr, labels, locs):
    t = type(instr)
    op = lambda o: _render_operand(o, labels, locs)
    if t is CALL:
        return " ".join(["CALL", op(instr.fn), *map(op, instr.args), locs[instr.bind]])
    if t is TAIL:
        return " ".join(["TAIL", op(instr.fn), *map(op, instr.args)])
    if t is MOV:
        return f"MOV {op(instr.src)} {locs[instr.dst]}"
    if t is RET:
        return f"RET {op(instr.src)}"
    if t is POP:
        return f"POP {locs[instr.dst]}"
    if t is IF0:
        return f"IF0 {op(instr.guard)}"
    if t is OP:
        return f"OP {instr.op.name} {op(instr.lhs)} {op(instr.rhs)} {locs[instr.dst]}"
    if t is OPRET:
        return f"OPRET {instr.op.name} {op(instr.lhs)} {op(instr.rhs)}"
    return f"STUCK {instr.reason.name}"


def print_cfg(G: Cfg) -> str:
    labels = {p: i for i, p in enumerate(G.blocks)}
    locs = _loc_names(G.prog)
    lines = []
    for p, (instr, succs) in G.blocks.items():
        succ_text = " ".join(str(labels[q]) for q in succs)
        lines.append(f"{labels[p]}: {_render(instr, labels, locs)} [{succ_text}]")
    return "\n".join(lines)


def _record_operands(instr, labels):
    def ser(o):
        t = type(o)
        if t is NAT:
            return f"NAT:{o.n}"
        if t is VAR:
            return f"VAR:{o.name}"
        if t is LOC:
            return f"LOC:{path_text(o.binder)}"
        return f"LBL:{path_text(o.target)}"

    t = type(instr)
    if t is CALL:
        return [ser(instr.fn), *map(ser, instr.args), f"DST:{path_text(instr.bind)}"]
    if t is TAIL:
        return [ser(instr.fn), *map(ser, instr.args)]
    if t is MOV:
        return [ser(instr.src), f"DST:{path_text(instr.dst)}"]
    if t is RET:
        return [ser(instr.src)]
    if t is POP:
        return [f"DST:{path_text(instr.dst)}"]
    if t is IF0:
        return [ser(instr.guard)]
    if t is OP:
        return [instr.op.name, ser(instr.lhs), ser(instr.rhs), f"DST:{path_text(instr.dst)}"]
    if t is OPRET:
        return [instr.op.name, ser(instr.lhs), ser(instr.rhs)]
    return [instr.reason.name]


def records(G: Cfg) -> str:
    labels = {p: i for i, p in enumerate(G.blocks)}
    rows = []
    for p, (instr, succs) in G.blocks.items():
        rows.append(
            "\t".join(
                [
                    str(labels[p]),
                    path_text(p),
                    type(instr).__name__,
                    ",".join(_record_operands(instr, labels)),
                    ",".join(str(labels[q]) for q in succs),
                ]
            )
        )
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# trace support


def describe(G: Cfg, s: PekState, i: int) -> str:
    instr, _ = G.blocks[s.pc]
    return (
        f"cfg {i}: pc={path_text(s.pc)} instr={type(instr).__name__}"
        f" env={len(s.env)} kont={len(s.kont)}"
    )
