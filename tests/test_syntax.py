"""Paths, substitution, alpha-equivalence, and binder resolution."""

import pytest
from hypothesis import assume, given

from conftest import close_term, names, relabel, terms, values
from cbpv import fixtures as fx
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    FreeVar,
    If0,
    InvalidPath,
    Lam,
    LamBind,
    LetRec,
    NotAVariable,
    NumV,
    Op,
    Prd,
    RecBind,
    Seq,
    SeqBind,
    ThunkV,
    VarV,
    alpha_eq,
    arity,
    as_prog,
    child,
    free_vars,
    is_suffix,
    iter_subterms,
    path_from_text,
    path_text,
    resolve_binder,
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


def test_is_suffix():
    assert is_suffix((), (0, 1))
    assert is_suffix((1,), (0, 1))
    assert is_suffix((0, 1), (0, 1))
    assert not is_suffix((0,), (0, 1))
    assert not is_suffix((0, 1, 2), (0, 1))


def test_prog_at_examples():
    m1, m2 = Prd(NumV(1)), Prd(NumV(2))
    p = If0(VarV("v"), m1, m2)
    assert as_prog(p).at(path_from_text("2")) is m2
    assert as_prog(p).at(()) is p
    assert as_prog(fx.ARITH_SEQ).at(path_from_text("0.1")) == NumV(2)


def test_prog_at_invalid_path():
    with pytest.raises(InvalidPath):
        as_prog(Prd(NumV(0))).at((1,))
    with pytest.raises(InvalidPath):
        as_prog(fx.MULT).at(path_from_text("5"))


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
        assert as_prog(t).at(p) is node
        assert prog.at(p) is node


@given(terms)
def test_with_child_rebuild(t):
    for p, node in iter_subterms(t):
        for i in range(arity(node)):
            assert with_child(node, i, child(node, i)) == node


# ---------------------------------------------------------------------------
# substitution


def test_substitute_direct():
    assert substitute(Prd(VarV("x")), {"x": NumV(5)}) == Prd(NumV(5))


def test_substitute_shadowing():
    t = Lam("x", Prd(VarV("x")))
    assert substitute(t, {"x": NumV(5)}) is t


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
    got = substitute(t, {x: w})
    expect = free_vars(t) - {x}
    if x in free_vars(t):
        expect = expect | free_vars(w)
    assert free_vars(got) <= expect


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


# ---------------------------------------------------------------------------
# binder resolution


def test_resolve_binder_in_mult():
    occ = path_from_text("1.0.0.0.0")
    assert as_prog(fx.MULT).at(occ) == VarV("x")
    assert resolve_binder(fx.MULT, occ) == LamBind(path_from_text("1.0"))

    force_site = path_from_text("1.0.0.0.2.1.2.1.1.1.1.0")
    assert as_prog(fx.MULT).at(force_site) == VarV("mult")
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
