"""Paths, substitution, alpha-equivalence, and binder resolution."""

from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import paths
from conftest import close_term, names, relabel, terms, values
from paths import FreeVar, LamBind, RecBind, SeqBind, path_from_text, resolve_binder
from test_substitute_oracle import oracle_free_vars
from cbpv import fixtures as fx
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    If0,
    InvalidPath,
    Lam,
    LetRec,
    NotAVariable,
    NumV,
    Op,
    Prd,
    Prog,
    Seq,
    ThunkV,
    VarV,
    alpha_eq,
    arity,
    as_prog,
    child,
    free_vars,
    iter_subterms,
    path_text,
    substitute,
    with_child,
)

# ---------------------------------------------------------------------------
# a naive recursive-descent oracle, kept deliberately separate from child()


def _kids(node):
    t = type(node)
    if t in (Force, Prd):
        return [node.value]
    if t is App:
        return [node.arg, node.body]
    if t in (Lam, ThunkV):
        return [node.body]
    if t is Seq:
        return [node.left, node.right]
    if t is LetRec:
        return [node.body, *(d for _, d in node.defs)]
    if t is If0:
        return [node.guard, node.then, node.orelse]
    if t is Op:
        return [node.lhs, node.rhs]
    return []


def _walk(node, p=()):
    yield p, node
    for i, c in enumerate(_kids(node)):
        yield from _walk(c, (i,) + p)


# ---------------------------------------------------------------------------
# paths


def test_path_text_is_root_first():
    assert path_text((0, 0, 1)) == "1.0.0"
    assert path_text(()) == "ε"
    assert path_from_text("1.0.0") == (0, 0, 1)
    assert path_from_text("ε") == ()
    assert path_from_text("") == ()


@given(terms)
def test_path_text_round_trip(t):
    for p, _ in iter_subterms(t):
        assert path_from_text(path_text(p)) == p


def test_prog_at_examples():
    m1, m2 = Prd(NumV(1)), Prd(NumV(2))
    p = If0(VarV("v"), m1, m2)
    assert paths.at(as_prog(p), path_from_text("2")) is m2
    assert paths.at(as_prog(p), ()) is p
    assert paths.at(as_prog(fx.ARITH_SEQ), path_from_text("0.1")) == NumV(2)


def test_prog_at_invalid_path():
    with pytest.raises(InvalidPath):
        paths.at(as_prog(Prd(NumV(0))), (1,))
    with pytest.raises(InvalidPath):
        paths.at(as_prog(fx.MULT), path_from_text("5"))


def test_child_index_convention():
    v, m, n = VarV("v"), Prd(NumV(1)), Prd(NumV(2))
    assert child(Force(v), 0) is v
    assert child(Prd(v), 0) is v
    assert child(App(v, m), 0) is v and child(App(v, m), 1) is m
    assert child(Lam("x", m), 0) is m
    assert child(Seq(m, "x", n), 0) is m and child(Seq(m, "x", n), 1) is n
    lr = LetRec((("f", m), ("g", n)), Force(v))
    assert child(lr, 0) == Force(v)
    assert child(lr, 1) is m and child(lr, 2) is n
    assert child(If0(v, m, n), 2) is n
    op = Op(NumV(1), ArithOp.ADD, NumV(2))
    assert child(op, 0) == NumV(1) and child(op, 1) == NumV(2)
    assert child(ThunkV(m), 0) is m


@given(terms)
def test_subterm_matches_naive_descent(t):
    pairs = list(_walk(t))
    assert list(iter_subterms(t)) == pairs
    prog = as_prog(t)
    for p, node in pairs:
        assert paths.at(Prog(t), p) is node  # a cold climb from the root
        assert paths.at(prog, p) is node


@given(terms)
def test_with_child_rebuild(t):
    for p, node in iter_subterms(t):
        for i in range(arity(node)):
            assert with_child(node, i, child(node, i)) == node


_MARK = Prd(NumV(-12345))


@given(st.one_of(terms, values))
def test_child_table_agrees_with_the_fields(t):
    for _, node in iter_subterms(t):
        kids = _kids(node)
        assert arity(node) == len(kids)
        for i, kid in enumerate(kids):
            assert child(node, i) is kid
            assert with_child(node, i, kid) == node
            new = with_child(node, i, _MARK)
            assert type(new) is type(node)
            assert _kids(new) == kids[:i] + [_MARK] + kids[i + 1 :]
            assert with_child(new, i, kid) == node  # nothing else changed
        for i in (-1, len(kids)):
            message = f"^{type(node).__name__} has no child {i}$"
            with pytest.raises(InvalidPath, match=message):
                child(node, i)
            with pytest.raises(InvalidPath, match=message):
                with_child(node, i, _MARK)


# the field of each node type that holds child i, as the records declare them
_CHILD_FIELDS = {
    Force: ("value",),
    Prd: ("value",),
    App: ("arg", "body"),
    Lam: ("body",),
    Seq: ("left", "right"),
    If0: ("guard", "then", "orelse"),
    Op: ("lhs", "rhs"),
    ThunkV: ("body",),
}


@given(st.one_of(terms, values))
def test_with_child_builds_what_replace_builds(t):
    # with_child calls each record's constructor: what it builds is what
    # dataclasses.replace builds, and it keeps no memo of the node it rebuilds
    for _, node in iter_subterms(t):
        free_vars(node)  # a memo on the old node
        for i, kid in enumerate(_kids(node)):
            new = NumV(-54321) if isinstance(kid, (VarV, NumV, ThunkV)) else _MARK
            if type(node) is LetRec:
                defs = list(node.defs)
                if i:
                    defs[i - 1] = (defs[i - 1][0], new)
                want = replace(node, defs=tuple(defs), body=node.body if i else new)
            else:
                want = replace(node, **{_CHILD_FIELDS[type(node)][i]: new})
            got = with_child(node, i, new)
            assert type(got) is type(node) and got == want
            assert got._fv is None


# ---------------------------------------------------------------------------
# substitution


def test_substitute_direct():
    assert substitute(Prd(VarV("x")), {"x": NumV(5)}) == Prd(NumV(5))


def test_substitute_shadowing():
    t = Lam("x", Prd(VarV("x")))
    assert substitute(t, {"x": NumV(5)}) is t


_X, _Y = VarV("x"), VarV("y")


@pytest.mark.parametrize(
    "t, want",
    [
        (
            Lam("x", Op(_X, ArithOp.ADD, _Y)),
            Lam("x", Op(_X, ArithOp.ADD, NumV(2))),
        ),
        (
            Seq(Prd(_X), "x", Op(_X, ArithOp.ADD, _Y)),
            Seq(Prd(NumV(1)), "x", Op(_X, ArithOp.ADD, NumV(2))),
        ),
        (
            LetRec((("x", Op(_X, ArithOp.ADD, _Y)),), Op(_X, ArithOp.SUB, _Y)),
            LetRec((("x", Op(_X, ArithOp.ADD, NumV(2))),), Op(_X, ArithOp.SUB, NumV(2))),
        ),
    ],
    ids=["Lam", "Seq", "LetRec"],
)
def test_substitute_binder_shadows_only_its_own_name(t, want):
    # y is substituted under the binder; the bound x is not
    assert substitute(t, {"x": NumV(1), "y": NumV(2)}) == want


def test_substitute_capture_renames():
    t = Lam("y", Prd(VarV("x")))
    got = substitute(t, {"x": ThunkV(Prd(VarV("y")))})
    assert got == Lam("y'", Prd(ThunkV(Prd(VarV("y")))))
    assert free_vars(got) == {"y"}


def test_substitute_letrec_capture():
    t = LetRec((("f", Prd(VarV("x"))),), Force(VarV("f")))
    got = substitute(t, {"x": ThunkV(Force(VarV("f")))})
    # the substituted value's free f must keep pointing outside the bundle
    assert type(got) is LetRec
    (name, d), = got.defs
    assert name != "f"
    assert d == Prd(ThunkV(Force(VarV("f"))))
    assert got.body == Force(VarV(name))


@given(terms)
def test_substitute_empty_is_identity(t):
    assert substitute(t, {}) is t


@given(terms, names, values)
def test_substitute_free_vars_bound(t, x, w):
    # measured cache-free: the answer free_vars gives on a built node is the
    # one substitute stored there, so a wrong one must not pass as a subset
    got = substitute(t, {x: w})
    expect = oracle_free_vars(t) - {x}
    if x in oracle_free_vars(t):
        expect = expect | oracle_free_vars(w)
    assert free_vars(got) == expect
    assert oracle_free_vars(got) == expect


@given(terms, names, names, values, values)
def test_substitute_composes(t, x, y, v, w):
    assume(x != y and y not in free_vars(v))
    left = substitute(substitute(t, {x: v}), {y: w})
    right = substitute(t, {x: v, y: w})
    assert alpha_eq(left, right)


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", Prd(VarV("x"))), Lam("y", Prd(VarV("y"))))
    assert alpha_eq(Lam("x", Prd(VarV("z"))), Lam("y", Prd(VarV("z"))))
    assert not alpha_eq(Prd(VarV("x")), Prd(VarV("y")))


def test_alpha_eq_mixed_binders():
    a = Seq(Prd(NumV(1)), "x", Prd(VarV("x")))
    b = Seq(Prd(NumV(1)), "y", Prd(VarV("y")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Seq(Prd(NumV(1)), "y", Prd(VarV("x"))))
    assert alpha_eq(
        LetRec((("f", Force(VarV("f"))),), Force(VarV("f"))),
        LetRec((("g", Force(VarV("g"))),), Force(VarV("g"))),
    )


@given(terms)
def test_alpha_eq_equivalence_relation(t):
    assert alpha_eq(t, t)
    b = relabel(t)
    assert alpha_eq(t, b) and alpha_eq(b, t)
    c = relabel(b)
    assert alpha_eq(b, c) and alpha_eq(t, c)


# ---------------------------------------------------------------------------
# free variables


def test_free_vars_examples():
    assert free_vars(Prd(VarV("x"))) == {"x"}
    assert free_vars(Lam("x", Prd(VarV("x")))) == frozenset()
    assert free_vars(LetRec((("f", Force(VarV("f"))),), Force(VarV("f")))) == frozenset()
    assert free_vars(fx.MULT) == frozenset()
    assert free_vars(fx.NESTED_SEQ) == {"a", "b"}


@given(terms)
def test_close_term_closes(t):
    assert free_vars(close_term(t)) == frozenset()


@given(terms)
def test_free_vars_agrees_with_the_oracle(t):
    assert free_vars(t) == oracle_free_vars(t)
    assert free_vars(t) is free_vars(t)  # kept on the node


def test_free_vars_of_a_100k_deep_nested_thunk_returns():
    # the walk keeps its own stack: no recursion limit to run into
    t = Prd(VarV("z"))
    for _ in range(100_000):
        t = Force(ThunkV(t))
    assert free_vars(t) == {"z"}
    assert free_vars(Lam("z", t)) == frozenset()
    assert free_vars(Seq(t, "z", t)) == {"z"}  # one subterm on both sides


def test_free_vars_rejects_what_is_not_a_term():
    with pytest.raises(TypeError, match="not a term"):
        free_vars(Prd(("x",)))


# ---------------------------------------------------------------------------
# binder resolution


def test_resolve_binder_in_mult():
    occ = path_from_text("1.0.0.0.0")
    assert paths.at(as_prog(fx.MULT), occ) == VarV("x")
    assert resolve_binder(fx.MULT, occ) == LamBind(path_from_text("1.0"))

    force_site = path_from_text("1.0.0.0.2.1.2.1.1.1.1.0")
    assert paths.at(as_prog(fx.MULT), force_site) == VarV("mult")
    assert resolve_binder(fx.MULT, force_site) == RecBind((), 1)
    assert resolve_binder(fx.MULT, path_from_text("0.0")) == RecBind((), 1)


def test_resolve_binder_seq_and_free():
    prog = as_prog(fx.ARITH_SEQ)
    occ = path_from_text("1.0")
    assert resolve_binder(prog, occ) == SeqBind(())
    assert resolve_binder(Prd(VarV("a")), (0,)) == FreeVar("a")


def test_resolve_binder_innermost_wins():
    t = Lam("x", Seq(Prd(VarV("x")), "x", Prd(VarV("x"))))
    outer_occ = path_from_text("0.0.0")
    inner_occ = path_from_text("0.1.0")
    assert resolve_binder(t, outer_occ) == LamBind(())
    assert resolve_binder(t, inner_occ) == SeqBind(path_from_text("0"))


def test_resolve_binder_duplicate_bundle_names():
    t = LetRec((("f", Prd(NumV(0))), ("f", Prd(NumV(1)))), Force(VarV("f")))
    assert resolve_binder(t, (0, 0)) == RecBind((), 1)


def test_resolve_binder_rejects_non_variable():
    with pytest.raises(NotAVariable):
        resolve_binder(fx.MULT, ())


@given(terms)
def test_resolve_binder_total_on_closed(t):
    c = close_term(t)
    prog = as_prog(c)
    for p, node in iter_subterms(c):
        if type(node) is VarV:
            assert not isinstance(resolve_binder(prog, p), FreeVar)


# ---------------------------------------------------------------------------
# misc structure


def test_letrec_requires_a_definition():
    with pytest.raises(ValueError):
        LetRec((), Prd(NumV(0)))
