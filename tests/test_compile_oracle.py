"""compile against a per-position oracle, and compile's and ``paths.at``'s op counts.

The oracle compiles each instruction position on its own from pek's static
routes (``paths.aframes``, ``pek.eta``) and ``paths.resolve_binder``, walking paths
up from each position.  That is how compile worked before its single
preorder pass, and it shares no code with the pass, so equal graphs mean
the two derivations of the static structure agree.  The oracle names
positions by path; compile's graphs, named by position id, are compared
through their paths.
"""

import pytest
from hypothesis import given, settings

import cbpv.fixtures as fx
from cbpv import harness, pek, syntax
from cbpv.cfg import (
    CALL,
    IF0,
    LBL,
    LOC,
    MOV,
    NAT,
    OP,
    OPRET,
    POP,
    RET,
    STUCK,
    TAIL,
    VAR,
    Cfg,
    compile,
    print_cfg,
    records,
)
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.peak import ARG, SEQ
from cbpv.sos import StuckReason
from cbpv.syntax import (
    Force,
    If0,
    Lam,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    as_prog,
    is_value,
    iter_subterms,
)

import paths
from conftest import at_ids, at_paths, terms
from paths import FreeVar, RecBind, resolve_binder

# ---------------------------------------------------------------------------
# the oracle


def _eta(prog, p):
    """``pek.eta`` from path ``p``, as a path."""
    return paths.path(prog, pek.eta(prog, paths.pos(prog, p)))


def _oracle_depth(prog, p):
    """The Lam/Seq binders in scope at ``p``, counted up its path: every Lam
    entered through its body and every Seq through its right component."""
    n = 0
    for k in range(len(p)):
        t = type(paths.at(prog, p[k + 1 :]))
        if (t is Lam and p[k] == 0) or (t is Seq and p[k] == 1):
            n += 1
    return n


def _oracle_operand(prog, p):
    v = paths.at(prog, p)
    t = type(v)
    if t is NumV:
        return NAT(v.n)
    if t is ThunkV:
        return LBL(_eta(prog, (0,) + p), _oracle_depth(prog, p))
    ref = resolve_binder(prog, p)
    rt = type(ref)
    if rt is FreeVar:
        return VAR(ref.name)
    if rt is RecBind:
        return LBL(_eta(prog, (ref.index,) + ref.path), _oracle_depth(prog, ref.path))
    return LOC(ref.path, _oracle_depth(prog, ref.path) + 1)


def _oracle_block(prog, p, node):
    t = type(node)
    a = tuple(at_paths(prog, paths.aframes(prog, p)))
    op = lambda q: _oracle_operand(prog, q)

    if t is Force:
        prefix = []
        seq = None
        for f in a:
            if type(f) is SEQ:
                seq = f
                break
            prefix.append(f)
        operands = tuple(op((0,) + f.pos) for f in prefix)
        fn = op((0,) + p)
        if seq is None:
            return TAIL(fn, operands), ()
        resume = _eta(prog, (1,) + seq.pos)
        return CALL(fn, operands, seq.pos, _oracle_depth(prog, seq.pos)), (resume,)

    if t is If0:
        zero = _eta(prog, (1,) + p)
        nonzero = _eta(prog, (2,) + p)
        return IF0(op((0,) + p), zero, nonzero), (zero, nonzero)

    if t is Prd:
        if a:
            f = a[0]
            if type(f) is ARG:
                return STUCK(StuckReason.ApplyNonFunction), ()
            keep = _oracle_depth(prog, f.pos)
            return MOV(op((0,) + p), f.pos, keep), (_eta(prog, (1,) + f.pos),)
        return RET(op((0,) + p)), ()

    if t is Lam:
        if a:
            f = a[0]
            if type(f) is SEQ:
                return STUCK(StuckReason.SequencedNonProducer), ()
            keep = _oracle_depth(prog, p)
            return MOV(op((0,) + f.pos), p, keep), (_eta(prog, (0,) + p),)
        return POP(p), (_eta(prog, (0,) + p),)

    lhs = op((0,) + p)
    rhs = op((1,) + p)
    if a:
        f = a[0]
        if type(f) is ARG:
            return STUCK(StuckReason.ApplyNonFunction), ()
        keep = _oracle_depth(prog, f.pos)
        return OP(lhs, node.op, rhs, f.pos, keep), (_eta(prog, (1,) + f.pos),)
    return OPRET(lhs, node.op, rhs), ()


def oracle_compile(m):
    prog = as_prog(m)
    blocks = {
        p: _oracle_block(prog, p, node)
        for p, node in iter_subterms(prog.term)
        if isinstance(node, (Force, Prd, Lam, If0, Op))
    }
    return _eta(prog, ()), blocks


def _agrees(m):
    g = compile(as_prog(m))
    entry, blocks = oracle_compile(m)
    assert paths.path(g.prog, g.entry) == entry
    got = at_paths(g.prog, g.blocks)
    assert got == blocks
    assert list(got) == list(blocks)  # the same preorder, so the same labels


# ---------------------------------------------------------------------------
# program families with deep nesting


def chain_text(n):
    links = ["1 + 0 to x0 in "] + [f"x{i - 1} + 1 to x{i} in " for i in range(1, n)]
    return "".join(links) + f"prd x{n - 1}"


def thunks_text(n):
    return "force thunk { " * n + "prd 0" + " }" * n


def sum_text(n):
    return (
        r"letrec sum = \n. if0 n { prd 0 } "
        f"{{ n - 1 to k in (k . force sum) to r in n + r }} in {n} . force sum"
    )


DEPTHS = (1, 2, 7, 60)


# ---------------------------------------------------------------------------
# differential tests


def test_compile_agrees_with_the_oracle_on_fixtures():
    for m in fx.PROGRAMS.values():
        _agrees(m)


def test_compile_agrees_with_the_oracle_on_the_acceptance_corpus():
    for seed in range(1000):
        _agrees(gen_term(seed, seed % 26))


def test_compile_agrees_with_the_oracle_on_open_terms():
    for seed in range(500):
        _agrees(gen_term(seed, seed % 26, closed=False))


@pytest.mark.parametrize("family", [chain_text, thunks_text, sum_text])
def test_compile_agrees_with_the_oracle_on_deep_families(family):
    for n in DEPTHS:
        _agrees(parse_term(family(n)))


@settings(deadline=None)
@given(terms)
def test_compile_agrees_with_the_oracle_on_generated_terms(t):
    # hypothesis terms are often ill-formed: thunks as arithmetic operands,
    # duplicate letrec names, shadowing across every binder form
    if not is_value(t):
        _agrees(t)


def test_shadowing_and_duplicate_letrec_names():
    for text in (
        r"letrec f = prd 1 and f = prd 2 in force f",
        r"\x. 1 + 1 to x in letrec x = prd x in force x to y in \x. prd x",
        r"1 + 1 to x in (\x. prd x) to x in prd x",
        r"letrec g = 0 . \g. force g in 3 . force g",
    ):
        _agrees(parse_term(text))


# ---------------------------------------------------------------------------
# operation counts, not time


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_built(monkeypatch):
    """The positions ``Prog`` builds, each read off its parent's node once."""
    built = []
    real = syntax.children

    def counted(node):
        kids = real(node)
        built.extend(kids)
        return kids

    monkeypatch.setattr(syntax, "children", counted)
    return built


@pytest.mark.parametrize("family", [chain_text, thunks_text, sum_text])
def test_compile_visits_each_node_once(monkeypatch, family):
    for n in (1, 10, 100):
        term = parse_term(family(n))
        nodes = sum(1 for _ in iter_subterms(term))
        inner = sum(1 for _, m in iter_subterms(term) if syntax.arity(m))
        prog = as_prog(term)
        with monkeypatch.context() as mp:
            walks = count_built(mp)
            reads = _count_calls(mp, syntax, "children")
            texts = _count_calls(mp, syntax.Prog, "path_text")
            compile(prog)
            # compile names blocks by the ids of the program's index: it
            # reads each node's children once, and builds no path
            assert len(walks) == len(prog.nodes) - 1 == nodes - 1
            assert len(reads) == inner
            compile(prog)  # the positions are known now
        assert len(walks) == nodes - 1 and len(reads) == inner
        assert not texts


@pytest.mark.parametrize("text", [chain_text(6), thunks_text(4), sum_text(3), fx.SOURCES["mult_call"]])
def test_compile_keeps_the_ids_a_partly_visited_prog_handed_out(text):
    term = parse_term(text)
    part = syntax.Prog(term)
    harness.run(harness.machine("pek", part), 4)  # visits the positions 4 steps reach
    known = list(part.nodes)
    assert 1 < len(known) < sum(1 for _ in iter_subterms(term))  # partly visited
    g = compile(part)
    assert part.nodes[: len(known)] == known  # the ids handed out are kept
    entry, blocks = oracle_compile(part)
    assert g == Cfg(paths.pos(part, entry), at_ids(part, blocks), part)
    fresh = syntax.Prog(term)
    assert records(g) == records(compile(fresh))
    assert print_cfg(g) == print_cfg(compile(fresh))
    # a partly visited Prog's ids need not be those a fresh one hands out,
    # but the blocks name the same positions in the same order
    assert [paths.path(part, i) for i in g.blocks] == [
        paths.path(fresh, i) for i in compile(fresh).blocks
    ]


def test_prog_at_calls_child_once_per_newly_cached_path(monkeypatch):
    # a position's children are read off its node in one ``children`` call
    # and built together, the first time one of them is asked for
    prog = as_prog(parse_term(chain_text(50)))
    built = count_built(monkeypatch)
    reads = _count_calls(monkeypatch, syntax, "children")
    deep = (0,) + (1,) * 49  # the last link's Op
    paths.at(prog, deep)
    assert len(reads) == 50  # every level from the root down
    assert len(built) == 100  # both children of each of the 50 Seqs on the way
    paths.at(prog, deep)
    paths.at(prog, deep[1:])
    assert len(reads) == 50 and len(built) == 100  # cached
    paths.at(prog, (0,) + deep)  # one level below a cached path: both operands
    assert len(reads) == 51 and len(built) == 102
    paths.at(prog, (1,) * 50)  # the last link's prd x49, built with the Op
    assert len(reads) == 51
    paths.at(prog, (0, 1) + (1,) * 49)  # then its value
    assert len(reads) == 52 and len(built) == 103
    assert paths.at(prog, (0,) + deep) == syntax.VarV("x48")
    assert paths.at(prog, (0, 1) + (1,) * 49) == syntax.VarV("x49")


# ---------------------------------------------------------------------------
# graphs built by hand


def test_print_cfg_of_a_hand_built_graph_matches_the_compiled_one():
    for m in list(fx.PROGRAMS.values()) + [
        parse_term("1 + 1 to x in 2 + 2 to x in prd x"),
        parse_term(chain_text(7)),
    ]:
        g = compile(as_prog(m))
        entry, blocks = oracle_compile(m)
        prog = as_prog(m)
        by_hand = Cfg(paths.pos(prog, entry), at_ids(prog, blocks), prog)
        assert print_cfg(by_hand) == print_cfg(g)
        assert records(by_hand) == records(g)
