"""The small-step semantics: unrolling, stepping, fuel, and observation."""

import pytest
from hypothesis import given

from conftest import close_term, terms
from cbpv import fixtures as fx
from cbpv import cek, harness
from cbpv.parser import parse_term
from cbpv.sos import (
    HOLE,
    AwaitingArgument,
    BareArith,
    FuelExhausted,
    Next,
    ProducedValue,
    RunOutcome,
    Stuck,
    StuckReason,
    Terminal,
    Verdict,
    describe,
    observe_equiv,
    plug,
    redex_depth,
    run,
    step,
    step_in,
    unroll,
)
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
)

# ---------------------------------------------------------------------------
# unroll


def test_unroll_leaves_plain_heads():
    assert unroll(Prd(NumV(0))) == Prd(NumV(0))


def test_unroll_substitutes_recursive_thunks():
    loop = LetRec((("f", Force(VarV("f"))),), Prd(VarV("f")))
    got = unroll(loop)
    assert got == Prd(ThunkV(LetRec((("f", Force(VarV("f"))),), Force(VarV("f")))))


def test_unroll_iterates_until_plain_head():
    t = LetRec(
        (("f", Prd(NumV(1))),),
        LetRec((("g", Prd(NumV(2))),), Force(VarV("g"))),
    )
    got = unroll(t)
    assert got == Force(ThunkV(LetRec((("g", Prd(NumV(2))),), Prd(NumV(2)))))


@given(terms)
def test_unroll_idempotent(t):
    once = unroll(t)
    assert unroll(once) == once


# ---------------------------------------------------------------------------
# step


def test_step_base_rules():
    assert step(fx.FORCE_THUNK) == Next(Prd(NumV(0)))
    assert step(fx.ARITH_SEQ) == Next(Prd(NumV(3)))
    assert step(fx.APPLY_ID) == Next(Prd(NumV(5)))
    assert step(Prd(NumV(7))) == Terminal(ProducedValue(NumV(7)))


def test_step_terminals():
    assert step(Lam("x", Prd(VarV("x")))) == Terminal(AwaitingArgument())
    assert step(Op(NumV(2), ArithOp.MUL, NumV(3))) == Terminal(BareArith(6))


def test_step_if0():
    assert step(fx.BRANCH_ZERO) == Next(Prd(NumV(1)))
    assert step(If0(NumV(7), Prd(NumV(1)), Prd(NumV(2)))) == Next(Prd(NumV(2)))
    assert step(If0(NumV(-1), Prd(NumV(1)), Prd(NumV(2)))) == Next(Prd(NumV(2)))


def test_step_congruence_descends():
    inner = Force(ThunkV(Lam("x", Prd(VarV("x")))))
    got = step(App(NumV(5), inner))
    assert got == Next(App(NumV(5), Lam("x", Prd(VarV("x")))))
    got = step(Seq(fx.FORCE_THUNK, "x", Prd(VarV("x"))))
    assert got == Next(Seq(Prd(NumV(0)), "x", Prd(VarV("x"))))


def test_step_unrolls_letrec_in_context():
    t = App(NumV(5), LetRec((("f", Prd(NumV(0))),), Lam("x", Prd(VarV("x")))))
    assert step(t) == Next(Prd(NumV(5)))


def test_step_stuck_reasons():
    assert step(Force(NumV(1))) == Stuck(StuckReason.ForceNonThunk)
    assert step(Force(VarV("a"))) == Stuck(StuckReason.ForceNonThunk)
    assert step(If0(VarV("a"), Prd(NumV(1)), Prd(NumV(2)))) == Stuck(
        StuckReason.GuardNotNumeral
    )
    assert step(If0(ThunkV(Prd(NumV(0))), Prd(NumV(1)), Prd(NumV(2)))) == Stuck(
        StuckReason.GuardNotNumeral
    )
    assert step(App(NumV(5), Prd(NumV(1)))) == Stuck(StuckReason.ApplyNonFunction)
    assert step(App(NumV(5), Op(NumV(1), ArithOp.ADD, NumV(2)))) == Stuck(
        StuckReason.ApplyNonFunction
    )
    assert step(Seq(Lam("x", Prd(VarV("x"))), "y", Prd(NumV(0)))) == Stuck(
        StuckReason.SequencedNonProducer
    )
    assert step(Seq(Op(VarV("a"), ArithOp.ADD, NumV(2)), "y", Prd(NumV(0)))) == Stuck(
        StuckReason.ArithNonNumeral
    )
    assert step(Op(VarV("a"), ArithOp.ADD, NumV(2))) == Stuck(StuckReason.ArithNonNumeral)


def test_step_propagates_inner_stuck_reasons():
    assert step(App(NumV(5), Force(NumV(1)))) == Stuck(StuckReason.ForceNonThunk)
    assert step(Seq(Force(NumV(1)), "x", Prd(NumV(0)))) == Stuck(
        StuckReason.ForceNonThunk
    )


@given(terms)
def test_step_deterministic_partition(t):
    r1, r2 = step(t), step(t)
    assert r1 == r2
    assert type(r1) in (Next, Terminal, Stuck)


# ---------------------------------------------------------------------------
# redex depth


def test_redex_depth_examples():
    assert redex_depth(fx.FORCE_THUNK) == 0
    assert redex_depth(App(NumV(5), Force(ThunkV(Lam("x", Prd(VarV("x"))))))) == 1
    assert redex_depth(Seq(fx.ARITH_SEQ, "y", Prd(VarV("y")))) == 1


def test_redex_depth_none_on_halt():
    assert redex_depth(Prd(NumV(0))) is None
    assert redex_depth(Lam("x", Prd(VarV("x")))) is None
    assert redex_depth(Op(NumV(1), ArithOp.ADD, NumV(2))) is None
    assert redex_depth(Force(NumV(1))) is None  # stuck before any descent


def test_redex_depth_zero_base_rules():
    assert redex_depth(fx.ARITH_SEQ) == 0
    assert redex_depth(fx.APPLY_ID) == 0
    assert redex_depth(fx.BRANCH_ZERO) == 0
    assert redex_depth(Seq(Prd(NumV(1)), "x", Prd(VarV("x")))) == 0


@given(terms)
def test_redex_depth_defined_exactly_on_next(t):
    c = close_term(t)
    r = step(c)
    d = redex_depth(c)
    if type(r) is Terminal:
        assert d is None
    if type(r) is Next:
        assert isinstance(d, int) and d >= 0


# ---------------------------------------------------------------------------
# runner


def test_run_to_produced_value():
    out = run(fx.ARITH_SEQ, 10)
    assert out.result == Terminal(ProducedValue(NumV(3)))
    assert out.steps_taken == 1


def test_run_terminal_immediately():
    out = run(Prd(NumV(0)), 10)
    assert out.result == Terminal(ProducedValue(NumV(0)))
    assert out.steps_taken == 0


def test_run_out_of_fuel():
    loop = LetRec((("f", Force(VarV("f"))),), Force(VarV("f")))
    out = run(loop, 50)
    assert out.result == FuelExhausted()
    assert out.steps_taken == 50


def test_run_negative_fuel_takes_no_step():
    loop = parse_term("letrec f = force f in force f")
    out = run(loop, -1)
    assert out.result == FuelExhausted()
    assert out.steps_taken == 0


def test_run_mult_call():
    out = run(fx.MULT_CALL, 300)
    assert out.result == Terminal(ProducedValue(NumV(4)))


def test_run_trace():
    out = run(fx.ARITH_SEQ, 10)
    trace = []
    emit = lambda t, i: trace.append(t)
    halt, steps, _ = harness.run(harness.machine("sos", fx.ARITH_SEQ), 10, emit)
    assert (halt, steps) == (out.result, out.steps_taken)
    assert trace[0] == fx.ARITH_SEQ
    assert trace[-1] == Prd(NumV(3))
    assert len(trace) == out.steps_taken + 1
    assert [describe(t, i) for i, t in enumerate(trace)] == [
        "sos 0: 1 + 2 to x in prd x",
        "sos 1: prd 3",
    ]


@given(terms)
def test_run_fuel_bound(t):
    out = run(close_term(t), 40)
    assert out.steps_taken <= 40
    assert isinstance(out, RunOutcome)


# ---------------------------------------------------------------------------
# observational comparison


def test_observe_equiv_examples():
    assert observe_equiv(fx.FORCE_THUNK, Prd(NumV(0)), 10) == Verdict.Equivalent
    assert observe_equiv(Prd(NumV(0)), Prd(NumV(1)), 10) == Verdict.Inequivalent
    loop = LetRec((("f", Force(VarV("f"))),), Force(VarV("f")))
    assert observe_equiv(loop, Prd(NumV(0)), 100) == Verdict.Unknown


def test_observe_equiv_bare_arith_matches_produced_numeral():
    assert (
        observe_equiv(
            Op(NumV(2), ArithOp.ADD, NumV(3)), Seq(Op(NumV(2), ArithOp.ADD, NumV(3)), "x", Prd(VarV("x"))), 10
        )
        == Verdict.Equivalent
    )
    assert (
        observe_equiv(Op(NumV(2), ArithOp.ADD, NumV(3)), Prd(NumV(6)), 10)
        == Verdict.Inequivalent
    )


def test_observe_equiv_stuck_matches_stuck():
    assert observe_equiv(Force(NumV(1)), App(NumV(5), Prd(NumV(1))), 10) == Verdict.Equivalent


def test_observe_equiv_compares_thunks_up_to_alpha():
    a = Prd(ThunkV(Lam("x", Prd(VarV("x")))))
    b = Prd(ThunkV(Lam("y", Prd(VarV("y")))))
    assert observe_equiv(a, b, 10) == Verdict.Equivalent
    c = Prd(ThunkV(Lam("y", Prd(NumV(0)))))
    assert observe_equiv(a, c, 10) == Verdict.Inequivalent


# ---------------------------------------------------------------------------
# stepping a decomposition


def _decompositions(m):
    """``(focus, context)`` for each split of ``m`` along its evaluation
    context: the focus after k descents through App bodies and Seq left
    sides, and the context of those k frames, innermost on top."""
    context = cek.NIL
    while True:
        yield m, context
        if type(m) is App:
            context, m = cek.Frames(App(m.arg, HOLE), context), m.body
        elif type(m) is Seq:
            context, m = cek.Frames(Seq(HOLE, m.binder, m.right), context), m.left
        else:
            return


def _plugged(r, rest):
    return Next(plug(r.term, rest)) if type(r) is Next else r


@given(terms)
def test_a_decomposition_steps_as_its_plugged_term(t):
    m = close_term(t)
    want = step(m)
    for focus, context in _decompositions(m):
        assert plug(focus, context) == m
        r, rest = step_in(focus, context)
        assert _plugged(r, rest) == want
        assert len(rest) >= len(context) - 1  # at most the top frame is consumed


def test_a_decomposition_fires_its_top_frame_on_a_value():
    frame = cek.frames(Seq(HOLE, "x", Prd(VarV("x"))), App(NumV(1), HOLE))
    r, rest = step_in(Prd(NumV(7)), frame)
    assert r == Next(Prd(NumV(7))) and rest is frame.rest
    r, rest = step_in(Prd(NumV(7)), rest)
    assert r == Stuck(StuckReason.ApplyNonFunction) and rest is cek.NIL


@pytest.mark.parametrize(
    "frame",
    [Lam("x", HOLE), App(NumV(1), Prd(NumV(2))), Seq(Prd(NumV(2)), "x", Prd(VarV("x")))],
    ids=["lam", "filled app", "filled seq"],
)
def test_a_frame_that_is_not_an_evaluation_frame_is_refused(frame):
    with pytest.raises(TypeError, match="not an evaluation frame"):
        step_in(Prd(NumV(7)), cek.frames(frame))
