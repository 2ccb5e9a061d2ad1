"""sos's letrec unrolling: a bundle's work done once per run, not per call.

``oracle_unroll`` is the unrolling that substitutes a fresh bundle of
recursive thunks into the body on every unroll.  sos with it patched in
must step, and report redex depths, exactly as sos with its own unroll,
which keeps the last bundle's thunks and unrollings.
"""

import gc
import sys
import weakref

import pytest
from hypothesis import given, settings

from conftest import close_term, terms
from test_acceptance import CORPUS
from test_compile_oracle import sum_text
from test_sos import _decompositions
from cbpv import fixtures as fx
from cbpv import sos
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.sos import Next, redex_depth, step, step_in
from cbpv.syntax import (
    App,
    Force,
    If0,
    Lam,
    LetRec,
    NumV,
    Prd,
    Seq,
    ThunkV,
    VarV,
    iter_subterms,
    substitute,
)


def oracle_unroll(m):
    """Expose a non-letrec head by substituting recursive thunks."""
    while type(m) is LetRec:
        m = _oracle_once(m)
    return m


def _oracle_once(m):
    sub = {}
    for name, d in m.defs:
        if name not in sub:  # leftmost definition of a duplicated name wins
            sub[name] = ThunkV(LetRec(m.defs, d))
    return substitute(m.body, sub)


def even_odd(n):
    return parse_term(
        r"letrec ev = \n. if0 n { prd 0 } { n - 1 to m in m . force od } "
        r"and od = \n. if0 n { prd 1 } { n - 1 to m in m . force ev } "
        f"in {n} . force ev"
    )


def three_way(n):
    return parse_term(
        r"letrec a = \n. if0 n { prd 0 } { n - 1 to m in m . force b } "
        r"and b = \n. if0 n { prd 1 } { n - 1 to m in m . force c } "
        r"and c = \n. if0 n { prd 2 } { n - 1 to m in m . force a } "
        f"in {n} . force a"
    )


# a definition object that is also the letrec's body, as built by hand
_LOOP = Force(VarV("f"))
_CALL = App(NumV(3), Force(VarV("g")))
_TWICE = Lam(
    "n", If0(VarV("n"), Prd(NumV(7)), Seq(Prd(NumV(0)), "m", App(VarV("m"), Force(VarV("g")))))
)

SHAPES = {
    "self": fx.mult_call(3, 6, 0),
    "sum": parse_term(sum_text(6)),
    "mutual 2": even_odd(9),
    "mutual 3": three_way(10),
    "duplicates": parse_term(
        r"letrec f = \n. if0 n { prd 7 } { n - 1 to m in m . force f } "
        r"and g = \n. 5 . force f and f = \n. prd 99 in 3 . force g"
    ),
    "letrec body": parse_term(
        r"letrec f = \n. if0 n { prd 0 } { n - 1 to m in m . force f } "
        r"in letrec g = \n. (n . force f) to r in r + 1 in 4 . force g"
    ),
    "in a thunk": parse_term(
        r"prd thunk { letrec f = \n. if0 n { prd 5 } { n - 1 to m in m . force f } "
        r"in 3 . force f } to t in force t"
    ),
    "nested": parse_term(
        r"letrec f = \n. if0 n { prd 0 } { n - 1 to m in "
        r"letrec g = \k. if0 k { prd 1 } { k . force f } in m . force g } in 6 . force f"
    ),
    "shadowed": parse_term(
        r"letrec f = \n. if0 n { prd 0 } { n - 1 to m in "
        r"letrec f = \k. k + 100 in m . force f } in 3 . force f"
    ),
    "body is a definition": LetRec((("f", _LOOP), ("g", _LOOP)), _LOOP),
    "body is a later duplicate": LetRec((("g", _TWICE), ("g", _CALL)), _CALL),
}


def _trajectory(m, fuel):
    """Each state's step, its redex depth, and the step of each of its
    decompositions (and whether it left the whole context under it), up to
    ``fuel`` steps."""
    out = []
    for _ in range(fuel):
        r = step(m)
        decomposed = [
            (r2, rest is c) for f, c in _decompositions(m) for r2, rest in [step_in(f, c)]
        ]
        out.append((r, redex_depth(m), decomposed))
        if type(r) is not Next:
            break
        m = r.term
    return out


def _agrees_with_the_oracle(m, fuel=200):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sos, "unroll", oracle_unroll)
        want = _trajectory(m, fuel)
    got = _trajectory(m, fuel)
    assert len(got) == len(want)
    for i, ((r, d, dec), (r0, d0, dec0)) in enumerate(zip(got, want)):
        assert r == r0, i
        assert d == d0, i
        assert dec == dec0, i
    return got


@pytest.mark.parametrize("name", SHAPES)
def test_sos_steps_as_with_the_oracle_unroll(name):
    got = _agrees_with_the_oracle(SHAPES[name])
    assert len(got) > 3


def test_sos_steps_as_with_the_oracle_unroll_on_the_fixtures_and_corpus():
    for m in CORPUS:
        _agrees_with_the_oracle(m)


def test_sos_steps_as_with_the_oracle_unroll_on_open_generated_terms():
    for seed in range(300):
        _agrees_with_the_oracle(gen_term(seed, seed % 26, closed=False))


@settings(max_examples=200)
@given(terms)
def test_sos_steps_as_with_the_oracle_unroll_on_terms(t):
    _agrees_with_the_oracle(close_term(t), fuel=60)
    _agrees_with_the_oracle(t, fuel=60)


def test_unroll_gives_what_the_oracle_gives_on_every_subterm():
    for m in list(SHAPES.values()) + CORPUS[:200]:
        for _, n in iter_subterms(m):
            if type(n) is LetRec:
                assert sos.unroll(n) == oracle_unroll(n)


# ---------------------------------------------------------------------------
# what unroll does per run


def _unroll_substitutions(monkeypatch, m, fuel=10**6):
    """The ``substitute`` calls unroll makes while sos runs ``m``."""
    calls = []
    real, code = sos.substitute, sos.unroll.__code__

    def counted(node, sub):
        if sys._getframe(1).f_code is code:
            calls.append(node)
        return real(node, sub)

    monkeypatch.setattr(sos, "substitute", counted)
    outcome = sos.run(m, fuel)
    monkeypatch.undo()
    return len(calls), outcome


def test_unroll_substitutes_a_self_recursive_bundle_once_per_run(monkeypatch):
    small, out = _unroll_substitutions(monkeypatch, fx.mult_call(3, 10, 0))
    assert out.result.kind.value == NumV(27)
    large, out = _unroll_substitutions(monkeypatch, fx.mult_call(3, 1000, 0))
    assert out.result.kind.value == NumV(2997)
    assert small == large <= 1 + 1


def test_unroll_substitutes_a_mutual_bundle_once_per_run(monkeypatch):
    small, out = _unroll_substitutions(monkeypatch, even_odd(11))
    assert out.result.kind.value == NumV(1)
    large, out = _unroll_substitutions(monkeypatch, even_odd(1001))
    assert out.result.kind.value == NumV(1)
    assert small == large <= 2 + 1
    count, out = _unroll_substitutions(monkeypatch, three_way(301))
    assert out.result.kind.value == NumV(1)
    assert count <= 3 + 1


def test_the_kept_bundle_is_bounded_and_freed_by_the_next():
    gc.collect()
    gc.disable()  # so that only reference counting can free it
    try:
        m = even_odd(101)
        source = weakref.ref(m)
        assert sos.run(m, 10**4).result.kind.value == NumV(1)
        kept = [e[0] for e in sos._kept[0].values()]
        assert len(kept) == 2 and all(type(k) is LetRec and k is not m for k in kept)
        gone = [weakref.ref(k) for k in kept]
        del m, kept
        assert source() is None  # the letrec of the source is not kept
        assert all(r() is not None for r in gone)  # the slot holds the bundle's
        assert sos.run(fx.mult_call(3, 10, 0), 1000).result.kind.value == NumV(27)
        assert all(r() is None for r in gone)  # no cycle runs through them
        assert len(sos._kept[0]) == 1
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_a_run_that_makes_no_recursive_call_keeps_nothing():
    m = parse_term(r"letrec f = \n. n . force f and g = \n. prd n in 4 . force g")
    kept = sos._kept
    assert sos.run(m, 100).result.kind.value == NumV(4)
    assert len(sos._kept[0]) == 2  # the call of g builds the bundle
    sos._kept = kept
    assert sos.run(parse_term(r"letrec f = \n. n . force f in prd 5"), 100).steps_taken == 0
    assert sos._kept is kept  # no call, no bundle


def test_the_kept_unrollings_are_the_oracles():
    sos.run(three_way(7), 100)
    assert len(sos._kept[0]) == 3
    for key, (member, unrolled) in sos._kept[0].items():
        assert key == id(member) and type(member) is LetRec
        assert unrolled == _oracle_once(member)  # each member was forced
