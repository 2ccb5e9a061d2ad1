"""substitute against the filtering substitution it replaced.

The oracle is an earlier version of ``substitute``: at every node it
filters the substitution down to the names free there, and it checks every
binder for capture, whether or not a substituted value has a free name.  It
reads free variables from a cache-free walk, so it shares nothing with what
``substitute`` stores on the nodes it builds.  ``substitute`` must give the
same terms, the same fresh names, and the same objects wherever the oracle
hands back an untouched subtree.
"""

import random

import hypothesis.strategies as st
from hypothesis import given

from cbpv import syntax
from cbpv.harness import gen_term
from cbpv.printer import print_term, print_value
from cbpv.syntax import (
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
    VarV,
    arity,
    child,
    freshen,
    is_value,
    iter_subterms,
    substitute,
)

from conftest import NAMES, names, terms, values

# ---------------------------------------------------------------------------
# the oracle


def oracle_free_vars(node) -> frozenset:
    """Free variables by a full walk, never reading or writing a cache."""
    t = type(node)
    if t is VarV:
        return frozenset((node.name,))
    if t is NumV:
        return frozenset()
    if t is ThunkV:
        return oracle_free_vars(node.body)
    if t is Lam:
        return oracle_free_vars(node.body) - {node.binder}
    if t is Force or t is Prd:
        return oracle_free_vars(node.value)
    if t is App:
        return oracle_free_vars(node.arg) | oracle_free_vars(node.body)
    if t is Seq:
        return oracle_free_vars(node.left) | (oracle_free_vars(node.right) - {node.binder})
    if t is LetRec:
        acc = set(oracle_free_vars(node.body))
        for _, d in node.defs:
            acc |= oracle_free_vars(d)
        return frozenset(acc - {n for n, _ in node.defs})
    if t is If0:
        return (
            oracle_free_vars(node.guard)
            | oracle_free_vars(node.then)
            | oracle_free_vars(node.orelse)
        )
    if t is Op:
        return oracle_free_vars(node.lhs) | oracle_free_vars(node.rhs)
    raise TypeError(f"not a term: {node!r}")


def oracle_subst(node, sub, renamed):
    """The earlier substitution; adds to ``renamed`` each binder kind it renames."""
    free_vars = oracle_free_vars
    t = type(node)
    if t is VarV:
        return sub.get(node.name, node)
    if t is NumV:
        return node
    fv = free_vars(node)
    live = {k: v for k, v in sub.items() if k in fv}
    if not live:
        return node
    rec = lambda n, s: oracle_subst(n, s, renamed)
    if t is ThunkV:
        return ThunkV(rec(node.body, live))
    if t is Force:
        return Force(rec(node.value, live))
    if t is Prd:
        return Prd(rec(node.value, live))
    if t is App:
        return App(rec(node.arg, live), rec(node.body, live))
    if t is Op:
        return Op(rec(node.lhs, live), node.op, rec(node.rhs, live))
    if t is If0:
        return If0(rec(node.guard, live), rec(node.then, live), rec(node.orelse, live))
    if t is Lam:
        if any(node.binder in free_vars(v) for v in live.values()):
            renamed.add(Lam)
            avoid = set(live)
            avoid |= free_vars(node.body)
            for v in live.values():
                avoid |= free_vars(v)
            fresh = freshen(node.binder, avoid)
            return Lam(fresh, rec(node.body, {**live, node.binder: VarV(fresh)}))
        nb = rec(node.body, live)
        return node if nb is node.body else Lam(node.binder, nb)
    if t is Seq:
        nl = rec(node.left, live)
        rlive = {k: v for k, v in live.items() if k != node.binder and k in free_vars(node.right)}
        if not rlive:
            nr = node.right
        elif any(node.binder in free_vars(v) for v in rlive.values()):
            renamed.add(Seq)
            avoid = set(rlive)
            avoid |= free_vars(node.right)
            for v in rlive.values():
                avoid |= free_vars(v)
            fresh = freshen(node.binder, avoid)
            return Seq(nl, fresh, rec(node.right, {**rlive, node.binder: VarV(fresh)}))
        else:
            nr = rec(node.right, rlive)
        if nl is node.left and nr is node.right:
            return node
        return Seq(nl, node.binder, nr)
    if t is LetRec:
        names = [n for n, _ in node.defs]
        clash = [n for n in names if any(n in free_vars(v) for v in live.values())]
        if clash:
            renamed.add(LetRec)
            avoid = set(names) | set(live)
            avoid |= free_vars(node.body)
            for v in live.values():
                avoid |= free_vars(v)
            for _, d in node.defs:
                avoid |= free_vars(d)
            ren = {}
            for n in clash:
                f = freshen(n, avoid)
                avoid.add(f)
                ren[n] = VarV(f)
            full = {**live, **ren}
            defs = tuple((ren[n].name if n in ren else n, rec(d, full)) for n, d in node.defs)
            return LetRec(defs, rec(node.body, full))
        defs = tuple((n, rec(d, live)) for n, d in node.defs)
        nb = rec(node.body, live)
        if nb is node.body and all(d2 is d1[1] for d1, (_, d2) in zip(node.defs, defs)):
            return node
        return LetRec(defs, nb)
    raise TypeError(f"not a term: {node!r}")


# ---------------------------------------------------------------------------
# the comparison


def _show(node):
    return print_value(node) if is_value(node) else print_term(node)


def _same_sharing(want, got, inputs):
    """Where the oracle hands back an input object, so does substitute."""
    stack = [(want, got)]
    while stack:
        w, g = stack.pop()
        if id(w) in inputs:
            assert g is w, f"rebuilt an untouched subtree: {_show(w)}"
            continue
        assert type(g) is type(w)
        for i in range(arity(w)):
            stack.append((child(w, i), child(g, i)))


def _stored_free_vars_hold(got, inputs):
    for _, node in iter_subterms(got):
        stored = node._fv
        if stored is not None:
            assert stored == oracle_free_vars(node), _show(node)
        elif id(node) not in inputs:
            # every node substitute builds carries its free variables
            assert type(node) in (VarV, NumV), f"built without free variables: {_show(node)}"


def agrees(t, sub) -> set:
    """Compare substitute with the oracle on one case; the binder kinds
    the oracle renamed."""
    inputs = {id(n) for _, n in iter_subterms(t)}
    for v in sub.values():
        inputs.update(id(n) for _, n in iter_subterms(v))
    renamed = set()
    want = oracle_subst(t, sub, renamed)
    got = substitute(t, sub)
    assert got == want
    assert _show(got) == _show(want)
    _same_sharing(want, got, inputs)
    _stored_free_vars_hold(got, inputs)
    return renamed


@given(terms, names, values)
def test_single_name_agrees(t, x, w):
    agrees(t, {x: w})


@given(terms, st.dictionaries(names, values, max_size=4))
def test_many_names_agree(t, sub):
    agrees(t, sub)


@given(values, st.dictionaries(names, values, min_size=1, max_size=3))
def test_values_agree(v, sub):
    agrees(v, sub)


def _value(rng, seed):
    kind = rng.randrange(5)
    if kind == 0:
        return NumV(rng.randint(-9, 99))
    if kind == 1:
        return VarV(rng.choice(NAMES))
    closed = kind == 2
    return ThunkV(gen_term(seed, rng.randint(0, 6), closed))


def _open_corpus_agrees(seeds) -> set:
    # open terms whose binders reuse the free names; each substitution maps
    # up to three names to closed or open values, so binders get renamed
    renamed = set()
    for seed in seeds:
        t = gen_term(seed, seed % 26, closed=False)
        rng = random.Random(seed)
        for _ in range(3):
            keys = rng.sample(NAMES, rng.randint(1, 3))
            sub = {k: _value(rng, seed * 7 + i) for i, k in enumerate(keys)}
            renamed |= agrees(t, sub)
    return renamed


def test_open_generated_corpus_agrees():
    assert _open_corpus_agrees(range(1500)) == {Lam, Seq, LetRec}


def _too_deep(*args):
    raise RecursionError("maximum recursion depth exceeded")


def test_the_stack_walk_agrees(monkeypatch):
    # substitute falls back on its explicit-stack walk when the closed walk's
    # recursion runs out of stack; here it runs out at once, so the walk does
    # it all (an open substitution goes to the walk anyway)
    monkeypatch.setattr(syntax, "_subst_closed", _too_deep)
    assert _open_corpus_agrees(range(0, 1500, 3)) == {Lam, Seq, LetRec}
    closed = ThunkV(Prd(NumV(1)))
    assert agrees(gen_term(7, 25, closed=False), {n: closed for n in NAMES}) == set()


def test_substitution_under_30000_binders():
    t = Prd(VarV("x"))
    for i in range(30000):
        t = Lam("y", t) if i % 2 else Seq(Prd(NumV(i)), "z", t)
    got = substitute(t, {"x": NumV(0)})
    for _ in range(30000):
        got = got.body if type(got) is Lam else got.right
    assert got == Prd(NumV(0))
    assert substitute(t, {"x": VarV("y")}).body.right.binder == "y'"


def test_closed_values_never_rename():
    t = Lam("y", Seq(Prd(VarV("x")), "z", LetRec((("f", Prd(VarV("x"))),), Force(VarV("f")))))
    assert agrees(t, {"x": ThunkV(Prd(NumV(1)))}) == set()


def test_each_renaming_kind_by_hand():
    w = ThunkV(Force(VarV("y")))
    assert agrees(Lam("y", Prd(VarV("x"))), {"x": w}) == {Lam}
    assert agrees(Seq(Prd(NumV(1)), "y", Prd(VarV("x"))), {"x": w}) == {Seq}
    bundle = LetRec((("y", Prd(VarV("x"))), ("y", Force(VarV("y")))), Force(VarV("y")))
    assert agrees(bundle, {"x": w}) == {LetRec}
