"""Compilation to a control-flow graph and the machine that executes it.

Each instruction position of a program (Force, Prd, Lam, If0, Op node)
becomes one block: an instruction plus its successor program points.
Blocks are labelled by their position's id in the program's index
(``syntax.Prog``), and so is every successor, code label, binder and
destination: neither compile nor a step builds a path, and only
``print_cfg``, ``records``, ``describe`` and ``UnknownPc`` show them.  The
operand shapes are decided entirely at compile time from the static frames,
so the machine dispatches on instructions alone and never inspects the term.
States are shared with the instruction-pointer machine — only the transition
function changes — which keeps the two machines comparable step by step.

compile is one iterative preorder walk, linear in the number of nodes: it
carries the static argument frames and the lexical scope down the tree and
computes advancement (eta) bottom-up over the same walk.  It calls none of
pek's per-position routes (``pek.aframes``, ``pek.eta``) nor peak's
descent, value resolution or δ, nor ``binder_of``.  Those stay the pek
machine's own, so the pek/cfg lockstep check compares two independent
derivations of the static structure; only the naming of positions is
shared.

Environments are peak's immutable ``Env`` chains of the Lam/Seq binders in
scope.  The same walk counts those binders, so every operand and
destination carries its own arithmetic on the chain: a LOC its binder's
level (the cell to read is that many from the end), an LBL how many cells
its closure keeps, and a MOV, OP or CALL how many the new binding or the
return frame goes on.  A step then walks only the static distance and
makes at most one cell.

Positions whose static frames cannot match their node form compile to STUCK
instructions instead of failing: compilation is total over computation
terms, open ones included, and halting is reported when the block runs.
"""

from collections import Counter
from dataclasses import field
from typing import Union

from . import cek, peak, pek
from .peak import Env, KArg, MissingBinding, NumP, PClosure
from .pek import KRet, PekState
from .cek import Frames, SymVar
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
    ArithOp,
    Force,
    If0,
    Lam,
    LetRec,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    arity,
    as_prog,
    derived,
    frozen,
    is_value,
    numeral_text,
    path_text,
)


class NotAComputation(TypeError):
    pass


class NotAValue(TypeError):
    pass


class UnknownPc(Exception):
    """The program counter addresses no block — a compiler bug, not a
    property of the program being run.  The message is the pc's path."""


# ---------------------------------------------------------------------------
# operands and instructions


@frozen()
class VAR:
    name: str


@frozen()
class NAT:
    n: int


@frozen()
class LOC:
    binder: int  # a Lam or Seq node
    level: int  # Lam/Seq binders in scope inside it: the chain's length at its cell


@frozen()
class LBL:
    target: int  # an instruction position
    keep: int  # Lam/Seq binders in scope at the target: the cells its closure keeps


Operand = Union[VAR, NAT, LOC, LBL]


@frozen()
class CALL:
    fn: Operand
    args: tuple  # innermost application first: popped first by the callee
    bind: int  # a Seq node
    keep: int  # Lam/Seq binders in scope at the Seq ``bind``: the return frame's cells


@frozen()
class TAIL:
    fn: Operand
    args: tuple


@frozen()
class MOV:
    src: Operand
    dst: int  # a Lam or Seq node
    keep: int  # Lam/Seq binders in scope at ``dst``: the cells the binding goes on


@frozen()
class RET:
    src: Operand


@frozen()
class POP:
    dst: int


@frozen()
class IF0:
    guard: Operand
    zero: int
    nonzero: int


@frozen()
class OP:
    lhs: Operand
    op: ArithOp
    rhs: Operand
    dst: int
    keep: int  # as MOV's


@frozen()
class OPRET:
    lhs: Operand
    op: ArithOp
    rhs: Operand


@frozen()
class STUCK:
    reason: StuckReason


@frozen()
class Cfg:
    entry: int
    blocks: dict  # position id -> (Instruction, successor ids); preorder
    prog: object = field(compare=False, repr=False)  # the Prog the ids name positions of
    # (binder id, name) of every Lam and Seq from compile's pass; None on a
    # graph built by hand, whose binders print_cfg then derives from the program
    binders: list = field(default=None, compare=False, repr=False)


CfgState = PekState


# ---------------------------------------------------------------------------
# operand computation and evaluation


def operand_of(P, p: tuple) -> Operand:
    """The operand a value position compiles to, read from compile's pass."""
    prog = as_prog(P)
    if not is_value(prog.at(p)):
        raise NotAValue(f"no operand for computation at {path_text(p)}")
    ix = _Index(prog)
    i = 0
    for j in reversed(p):
        i = ix.first[i] + j
    return ix.operand(i)


def eval_operand(e: Env, o: Operand):
    t = type(o)
    if t is LOC:  # e.find(o.binder, o.level), inlined: the commonest operand
        k = o.level
        while e.size > k:
            e = e.rest
        if e.size == k and e.binder == o.binder:
            return e.value
        raise MissingBinding(o.binder)
    if t is NAT:
        return NumP(o.n)
    if t is LBL:
        return PClosure(o.target, e.cut(o.keep))
    return SymVar(o.name)


def _push_args(e: Env, operands: tuple, kont: Frames) -> Frames:
    """``kont`` with an argument frame for each operand pushed on it, the
    first operand on top, as the callee pops them."""
    for o in reversed(operands):
        kont = Frames(KArg(eval_operand(e, o)), kont)
    return kont


# ---------------------------------------------------------------------------
# compilation


def compile(P) -> Cfg:
    prog = as_prog(P)
    if is_value(prog.term):
        raise NotAComputation("values have no control flow")
    ix = _Index(prog)
    pid = ix.pid
    blocks = {pid[i]: _block(ix, i, node, a) for i, node, a in ix.plans}
    return Cfg(ix.target(0), blocks, prog, ix.binders)


# The static argument frames of ``pek.aframes`` as cons cells, innermost
# first: (_ARG, id of the App's argument, rest) or (_SEQ, id of the Seq,
# rest); the empty stack is ().
_ARG, _SEQ = "arg", "seq"


class _Index:
    """One iterative preorder walk over a program: what compile needs of
    every node, by the walk's own integer id.

    A node's children get consecutive ids when it is visited, so every id
    is above its parent's.  Down the tree the walk carries the static
    argument frames, the lexical scope (a name -> binder map undone on
    leaving the binder's subtree) and the number of Lam/Seq binders in
    scope, which is the environment chain's length.  It records each
    value's operand, each instruction position, and the child ``pek.eta``
    descends into; one sweep from the top id down then turns those links
    into the instruction position eta reaches.

    Blocks, operands, destinations and successors name a position by its
    id in the program's index, which the walk takes with
    ``prog.first_child`` as it visits each node's children (``pid``): no
    path is built.
    """

    __slots__ = ("pid", "first", "eta", "ops", "plans", "binders", "bound")

    def __init__(self, prog):
        first_child = prog.first_child
        pid = [0]  # id -> the position's id in prog
        first = [0]  # id -> id of its first child
        eta = [0]  # id -> descent child (or itself); after the sweep, eta's result
        ops = [None]  # id -> Operand, or (id whose eta an LBL targets, cells kept)
        plans = []  # (id, node, frames) of instruction positions, in preorder
        binders = []  # (position id, name) of Lam and Seq nodes
        bound = {}  # id -> Lam/Seq binders in scope, for instruction positions and Seqs
        scope = {}  # name -> LOC of a Lam/Seq binder, or (id, cells kept) of a letrec definition
        undo = []  # (depth of the binder, name, shadowed ref or None)
        # Entries are (id, node, frames, binds, depth, d).  binds take effect
        # at the node and last until its parent's subtree is left.  depth is
        # the node's depth in the tree, d counts the Lam/Seq binders in scope
        # at the node.
        stack = [(0, prog.term, (), (), 0, 0)]
        while stack:
            i, node, a, binds, depth, d = stack.pop()
            while undo and undo[-1][0] >= depth:
                _, name, old = undo.pop()
                if old is None:
                    del scope[name]
                else:
                    scope[name] = old
            for name, ref in binds:
                undo.append((depth - 1, name, scope.get(name)))
                scope[name] = ref
            k = arity(node)
            t = type(node)
            if not k:
                if t is NumV:
                    ops[i] = NAT(node.n)
                else:
                    ref = scope.get(node.name)
                    ops[i] = VAR(node.name) if ref is None else ref
                continue
            c = first[i] = len(eta)
            p = pid[i]
            q = first_child(p)
            pid += range(q, q + k)
            first.extend([0] * k)
            eta.extend(range(c, c + k))
            ops.extend([None] * k)
            push = stack.append
            depth += 1  # the children's
            if t is ThunkV:
                ops[i] = (c, d)
                push((c, node.body, (), (), depth, d))
                continue
            if t is App:
                eta[i] = c + 1
                push((c + 1, node.body, (_ARG, c, a), (), depth, d))
                push((c, node.arg, (), (), depth, d))
                continue
            if t is LetRec:
                eta[i] = c
                for j in range(k - 1, 0, -1):
                    push((c + j, node.defs[j - 1][1], (), (), depth, d))
                names = {}
                for j, (name, _) in enumerate(node.defs, 1):
                    names.setdefault(name, (c + j, d))  # the leftmost duplicate wins
                push((c, node.body, a, tuple(names.items()), depth, d))
                continue
            bound[i] = d
            if t is Seq:
                eta[i] = c
                binders.append((p, node.binder))
                push((c + 1, node.right, a, ((node.binder, LOC(p, d + 1)),), depth, d + 1))
                push((c, node.left, (_SEQ, i, a), (), depth, d))
                continue
            plans.append((i, node, a))
            if t is Lam:
                binders.append((p, node.binder))
                rest = a[2] if a and a[0] is _ARG else a
                push((c, node.body, rest, ((node.binder, LOC(p, d + 1)),), depth, d + 1))
            elif t is If0:
                push((c + 2, node.orelse, a, (), depth, d))
                push((c + 1, node.then, a, (), depth, d))
                push((c, node.guard, (), (), depth, d))
            elif t is Op:
                push((c + 1, node.rhs, (), (), depth, d))
                push((c, node.lhs, (), (), depth, d))
            else:  # Force, Prd
                push((c, node.value, (), (), depth, d))
        for i in range(len(eta) - 1, -1, -1):
            d = eta[i]
            if d != i:
                eta[i] = eta[d]
        self.pid, self.first, self.eta, self.ops = pid, first, eta, ops
        self.plans, self.binders, self.bound = plans, binders, bound

    def target(self, i: int) -> int:
        """The position id of the instruction eta reaches from node ``i``."""
        return self.pid[self.eta[i]]

    def seq_exit(self, s: int):
        """Where a value produced for Seq ``s`` is bound, the successors
        that resume at its right component, and the cells in scope at it."""
        return self.pid[s], (self.target(self.first[s] + 1),), self.bound[s]

    def operand(self, i: int) -> Operand:
        o = self.ops[i]
        return LBL(self.target(o[0]), o[1]) if type(o) is tuple else o


def _block(ix: _Index, i: int, node, a):
    """The block of instruction position ``i`` under static frames ``a``."""
    t = type(node)
    c = ix.first[i]

    if t is Force:
        args = []
        while a and a[0] is _ARG:
            args.append(ix.operand(a[1]))
            a = a[2]
        fn = ix.operand(c)
        if not a:
            return TAIL(fn, tuple(args)), ()
        bind, succs, keep = ix.seq_exit(a[1])
        return CALL(fn, tuple(args), bind, keep), succs

    if t is If0:
        zero, nonzero = ix.target(c + 1), ix.target(c + 2)
        return IF0(ix.operand(c), zero, nonzero), (zero, nonzero)

    if t is Prd:
        if a:
            if a[0] is _ARG:
                return STUCK(StuckReason.ApplyNonFunction), ()
            dst, succs, keep = ix.seq_exit(a[1])
            return MOV(ix.operand(c), dst, keep), succs
        return RET(ix.operand(c)), ()

    if t is Lam:
        p = ix.pid[i]
        if a:
            if a[0] is _SEQ:
                return STUCK(StuckReason.SequencedNonProducer), ()
            return MOV(ix.operand(a[1]), p, ix.bound[i]), (ix.target(c),)
        return POP(p), (ix.target(c),)

    # Op
    lhs, rhs = ix.operand(c), ix.operand(c + 1)
    if a:
        if a[0] is _ARG:
            return STUCK(StuckReason.ApplyNonFunction), ()
        dst, succs, keep = ix.seq_exit(a[1])
        return OP(lhs, node.op, rhs, dst, keep), succs
    return OPRET(lhs, node.op, rhs), ()


# ---------------------------------------------------------------------------
# execution


def load(M):
    """The program's graph and pek's load state.  The graph of the Prog
    ``as_prog`` keeps is compiled once, so the checks of one term share it."""
    prog = as_prog(M)
    return derived(prog, compile), pek.load(prog)


def block_at(G: Cfg, pc: int):
    """The (instruction, successors) block at position id ``pc``."""
    block = G.blocks.get(pc)
    if block is None:
        raise UnknownPc(as_prog(G.prog).path_text(pc))
    return block


def step(G: Cfg, s: PekState):
    block = G.blocks.get(s.pc)
    if block is None:
        block = block_at(G, s.pc)
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
        return PekState(v.entry, v.env, _push_args(e, instr.args, kont))

    if t is CALL:
        v = eval_operand(e, instr.fn)
        if type(v) is not PClosure:
            return Stuck(StuckReason.ForceNonThunk)
        ret = KRet(instr.bind, succs[0], e.cut(instr.keep))  # the caller's chain
        return PekState(v.entry, v.env, _push_args(e, instr.args, Frames(ret, kont)))

    if t is MOV:
        v = eval_operand(e, instr.src)
        k = instr.keep  # the cut is nearly always nothing: test before calling it
        return PekState(succs[0], Env(instr.dst, v, e if e.size == k else e.cut(k)), kont)

    if t is RET:
        if kont.size:
            f = kont.frame
            if type(f) is KArg:
                return Stuck(StuckReason.ApplyNonFunction)
            v = eval_operand(e, instr.src)
            return PekState(f.resume, Env(f.bind, v, f.env), kont.rest)
        return Terminal(ProducedValue(eval_operand(e, instr.src)))

    if t is POP:
        if kont.size:
            f = kont.frame
            if type(f) is KRet:
                return Stuck(StuckReason.SequencedNonProducer)
            return PekState(succs[0], Env(instr.dst, f.value, e), kont.rest)
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
        k = instr.keep
        return PekState(succs[0], Env(instr.dst, n, e if e.size == k else e.cut(k)), kont)

    if t is OPRET:
        if kont.size and type(kont.frame) is KArg:
            return Stuck(StuckReason.ApplyNonFunction)
        l = eval_operand(e, instr.lhs)
        r = eval_operand(e, instr.rhs)
        if type(l) is not NumP or type(r) is not NumP:
            return Stuck(StuckReason.ArithNonNumeral)
        n = NumP(instr.op.apply(l.n, r.n))
        if kont.size:
            f = kont.frame
            return PekState(f.resume, Env(f.bind, n, f.env), kont.rest)
        return Terminal(BareArith(n.n))

    # STUCK
    return Stuck(instr.reason)


def unload(P, s: PekState):
    prog = P.prog if isinstance(P, Cfg) else as_prog(P)
    return cek.unload(peak.unload(prog, pek.unload(prog, s)))


# ---------------------------------------------------------------------------
# textual emission


def _parts(instr) -> list:
    """An instruction's parts in printed order: each an operand, a
    destination id or a word such as ``ADD``."""
    t = type(instr)
    if t is CALL:
        return [instr.fn, *instr.args, instr.bind]
    if t is TAIL:
        return [instr.fn, *instr.args]
    if t is MOV:
        return [instr.src, instr.dst]
    if t is RET:
        return [instr.src]
    if t is POP:
        return [instr.dst]
    if t is IF0:
        return [instr.guard]
    if t is OP:
        return [instr.op.name, instr.lhs, instr.rhs, instr.dst]
    if t is OPRET:
        return [instr.op.name, instr.lhs, instr.rhs]
    return [instr.reason.name]  # STUCK


def _listed(part, label, loc) -> str:
    """A part as ``print_cfg`` shows it: binders by name, code by label."""
    t = type(part)
    if t is str:
        return part
    if t is int:
        return loc(part)
    if t is NAT:
        return numeral_text(part.n)
    if t is VAR:
        return part.name
    if t is LOC:
        return loc(part.binder)
    return f"@{label(part.target)}"


def _recorded(part, text) -> str:
    """A part as ``records`` shows it: tagged, with root-first paths."""
    t = type(part)
    if t is str:
        return part
    if t is int:
        return f"DST:{text(part)}"
    if t is NAT:
        return f"NAT:{numeral_text(part.n)}"
    if t is VAR:
        return f"VAR:{part.name}"
    if t is LOC:
        return f"LOC:{text(part.binder)}"
    return f"LBL:{text(part.target)}"


def loc_names(G: Cfg) -> list:
    """``(binder id, listing name)`` of every Lam and Seq binder: its name,
    or ``name#path`` when the name is bound more than once."""
    prog = as_prog(G.prog)
    binders = G.binders if G.binders is not None else _Index(prog).binders
    counts = Counter(name for _, name in binders)
    return [
        (b, name if counts[name] == 1 else f"{name}#{prog.path_text(b)}")
        for b, name in binders
    ]


def print_cfg(G: Cfg) -> str:
    label = {p: i for i, p in enumerate(G.blocks)}.__getitem__
    loc = dict(loc_names(G)).__getitem__
    lines = []
    for i, (instr, succs) in enumerate(G.blocks.values()):
        words = [type(instr).__name__] + [_listed(x, label, loc) for x in _parts(instr)]
        succ_text = " ".join(str(label(q)) for q in succs)
        lines.append(f"{i}: {' '.join(words)} [{succ_text}]")
    return "\n".join(lines)


def records(G: Cfg) -> str:
    prog = as_prog(G.prog)
    text = prog.path_text
    label = {p: i for i, p in enumerate(G.blocks)}
    rows = []
    for i, (p, (instr, succs)) in enumerate(G.blocks.items()):
        rows.append(
            "\t".join(
                [
                    str(i),
                    text(p),
                    type(instr).__name__,
                    ",".join(_recorded(x, text) for x in _parts(instr)),
                    ",".join(str(label[q]) for q in succs),
                ]
            )
        )
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# trace support


def describe(G: Cfg, s: PekState, i: int) -> str:
    instr, _ = block_at(G, s.pc)
    return (
        f"cfg {i}: pc={as_prog(G.prog).path_text(s.pc)} instr={type(instr).__name__}"
        f" env={len(s.env)} kont={len(s.kont)}"
    )
