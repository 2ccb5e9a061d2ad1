"""Shared test helpers: random term generators, alpha-variant relabeling,
and machine objects renamed between position ids and paths."""

import itertools
from dataclasses import fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import settings

import paths
from cbpv import cek, cfg, peak, pek, sos, syntax
from cbpv.rewrite import RuleId
from cbpv.syntax import (
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
    VarV,
    free_vars,
    substitute,
)

# ---------------------------------------------------------------------------
# every test starts with empty as_prog and sos.unroll caches


@pytest.fixture(autouse=True)
def _no_kept_prog():
    """Each test starts with no Prog kept by ``as_prog`` and no letrec
    bundle kept by ``sos.unroll``.  A fixture term that several tests share
    is then indexed and unrolled afresh in each, and no test sees
    positions, tables or unrollings that another one filled."""
    syntax._last = syntax._made = None
    sos._kept = ({}, {})


# ---------------------------------------------------------------------------
# hypothesis strategies

# Every run draws the same examples, so a given bug fails the same tests each
# time.  The price: no run explores examples the previous one did not.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

NAMES = ("a", "b", "f", "g", "x", "y", "z")

names = st.sampled_from(NAMES)
ariths = st.sampled_from(list(ArithOp))

_leaf_vals = st.one_of(st.builds(VarV, names), st.builds(NumV, st.integers(-9, 99)))


def _compound(terms):
    vals = st.one_of(_leaf_vals, st.builds(ThunkV, terms))
    defs = st.lists(st.tuples(names, terms), min_size=1, max_size=2).map(tuple)
    return st.one_of(
        st.builds(Force, vals),
        st.builds(Prd, vals),
        st.builds(App, vals, terms),
        st.builds(Lam, names, terms),
        st.builds(Seq, terms, names, terms),
        st.builds(LetRec, defs, terms),
        st.builds(If0, vals, terms, terms),
        st.builds(Op, vals, ariths, vals),
    )


_base = st.one_of(
    st.builds(Prd, _leaf_vals),
    st.builds(Force, _leaf_vals),
    st.builds(Op, _leaf_vals, ariths, _leaf_vals),
)

terms = st.recursive(_base, _compound, max_leaves=20)
values = st.one_of(_leaf_vals, st.builds(ThunkV, terms))

_defs = st.lists(st.tuples(names, terms), min_size=1, max_size=2).map(tuple)


def _producer_wrap(inner):
    return st.one_of(
        st.builds(Seq, terms, names, inner),
        st.builds(If0, _leaf_vals, inner, inner),
        st.builds(lambda m: Force(ThunkV(m)), inner),
        st.builds(lambda v, x, m: App(v, Lam(x, m)), values, names, inner),
        st.builds(LetRec, _defs, inner),
    )


# computations whose every exit is a producer — safe targets for unbinding
producer_terms = st.recursive(
    st.one_of(st.builds(Prd, values), st.builds(Op, _leaf_vals, ariths, _leaf_vals)),
    _producer_wrap,
    max_leaves=8,
)


def rule_instances(rule):
    """Terms matching ``rule`` at the root."""
    nonzero = st.integers(-9, 99).filter(lambda n: n != 0)
    lams = st.builds(Lam, names, terms)
    if rule is RuleId.ForceThunk:
        return st.builds(lambda m: Force(ThunkV(m)), terms)
    if rule is RuleId.Beta:
        return st.builds(lambda v, x, m: App(v, Lam(x, m)), values, names, terms)
    if rule is RuleId.MoveElim:
        return st.one_of(
            st.builds(lambda v, x, m: Seq(Prd(v), x, m), values, names, terms),
            st.builds(lambda n, x: Seq(n, x, Prd(VarV(x))), producer_terms, names),
        )
    if rule is RuleId.ConstFold:
        nums = st.builds(NumV, st.integers(-9, 99))
        return st.builds(
            lambda a, o, b, x, m: Seq(Op(a, o, b), x, m), nums, ariths, nums, names, terms
        )
    if rule is RuleId.Inline:
        return st.builds(lambda f, x, m: App(ThunkV(f), Lam(x, m)), lams, names, terms)
    if rule is RuleId.DeadTrue:
        return st.builds(lambda a, b: If0(NumV(0), a, b), terms, terms)
    if rule is RuleId.DeadFalse:
        return st.builds(lambda n, a, b: If0(NumV(n), a, b), nonzero, terms, terms)
    if rule is RuleId.BranchElim:
        guards = st.one_of(st.builds(NumV, st.integers(-9, 99)), st.builds(VarV, names))
        return st.builds(lambda g, m: If0(g, m, relabel(m)), guards, terms)
    raise ValueError(rule)


# ---------------------------------------------------------------------------
# helpers


def close_term(t):
    """Substitute a numeral for every free variable."""
    return substitute(t, {n: NumV(3 + i) for i, n in enumerate(sorted(free_vars(t)))})


def relabel(node, _ctr=None):
    """An alpha-variant of ``node`` with every binder renamed to r0, r1, ..."""
    ctr = _ctr if _ctr is not None else itertools.count()
    t = type(node)
    if t in (VarV, NumV):
        return node
    if t is ThunkV:
        return ThunkV(relabel(node.body, ctr))
    if t is Force:
        return Force(relabel(node.value, ctr))
    if t is Prd:
        return Prd(relabel(node.value, ctr))
    if t is App:
        return App(relabel(node.arg, ctr), relabel(node.body, ctr))
    if t is Lam:
        fresh = f"r{next(ctr)}"
        return Lam(fresh, relabel(substitute(node.body, {node.binder: VarV(fresh)}), ctr))
    if t is Seq:
        fresh = f"r{next(ctr)}"
        return Seq(
            relabel(node.left, ctr),
            fresh,
            relabel(substitute(node.right, {node.binder: VarV(fresh)}), ctr),
        )
    if t is LetRec:
        ren = {}
        for n, _ in node.defs:
            if n not in ren:  # duplicates keep sharing one name
                ren[n] = VarV(f"r{next(ctr)}")
        defs = tuple((ren[n].name, relabel(substitute(d, ren), ctr)) for n, d in node.defs)
        return LetRec(defs, relabel(substitute(node.body, ren), ctr))
    if t is If0:
        return If0(relabel(node.guard, ctr), relabel(node.then, ctr), relabel(node.orelse, ctr))
    if t is Op:
        return Op(relabel(node.lhs, ctr), node.op, relabel(node.rhs, ctr))
    raise TypeError(f"not a term: {node!r}")


# ---------------------------------------------------------------------------
# positions named by id or by path

# The machine objects that name positions, and the fields that hold them.
_MACHINE = {
    peak.PeakState, pek.PekState, peak.ARG, peak.SEQ, peak.KSeq, pek.KRet, peak.KArg,
    peak.PClosure, cfg.LOC, cfg.LBL, cfg.CALL, cfg.TAIL, cfg.MOV, cfg.RET, cfg.POP,
    cfg.IF0, cfg.OP, cfg.OPRET, sos.Terminal, sos.ProducedValue,
}
_POSITIONS = {"pc", "pos", "bind", "resume", "entry", "binder", "target", "dst", "zero", "nonzero"}


def renamed(x, name, memo=None):
    """``x`` with every position it names renamed by ``name``.  ``x`` is a
    peak, pek or cfg state, frame, value, chain, operand, instruction or
    halt, a tuple or a chain of frames of them, or a block map ``{pc:
    (instruction, successors)}``."""
    memo = {} if memo is None else memo
    t = type(x)
    if t is tuple:
        return tuple(renamed(y, name, memo) for y in x)
    if t is cek.Frames:
        return cek.frames(*(renamed(y, name, memo) for y in x))
    if t is dict:
        return {
            name(p): (renamed(instr, name, memo), tuple(map(name, succs)))
            for p, (instr, succs) in x.items()
        }
    if t is peak.Env:
        cells, e = [], x
        while e.size and id(e) not in memo:
            cells.append(e)
            e = e.rest
        out = memo[id(e)] if e.size else peak.EMPTY
        for e in reversed(cells):
            out = memo[id(e)] = peak.Env(name(e.binder), renamed(e.value, name, memo), out)
        return out
    if t in _MACHINE:
        parts = {}
        for f in fields(x):
            v = getattr(x, f.name)
            parts[f.name] = name(v) if f.name in _POSITIONS else renamed(v, name, memo)
        return replace(x, **parts)
    return x


def at_paths(prog, x):
    """``x`` with its position ids as the paths of ``prog``: the objects the
    path-keyed oracles build and the tests write out."""
    return renamed(x, lambda i: paths.path(prog, i))


def at_ids(prog, x):
    """``x``, written with paths, with each one as its id in ``prog``."""
    return renamed(x, lambda p: paths.pos(prog, p))
