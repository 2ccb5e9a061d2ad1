"""Position/environment/argument-stack machine: frozen steps and CEK agreement.

States name positions by id; the tests write them with paths and convert
with ``at_ids``/``at_paths`` under the one Prog a state belongs to."""

from hypothesis import given, settings

from cbpv import cek, harness, sos
from cbpv.cek import NIL, frames
from cbpv import fixtures as fx
from cbpv.parser import parse_term
from cbpv.peak import (
    ARG,
    EMPTY,
    SEQ,
    Env,
    KArg,
    KSeq,
    NumP,
    PClosure,
    PeakState,
    advance,
    chain,
    delta,
    describe,
    gamma,
    load,
    lookup_var,
    step,
    unload,
    unload_v,
    wf_check,
    _encloses,
)
from cbpv.sos import (
    AwaitingArgument,
    BareArith,
    ProducedValue,
    Stuck,
    StuckReason,
    Terminal,
)
from cbpv.syntax import LetRec, NumV, Prd, VarV, as_prog, iter_subterms, path_from_text

from conftest import at_ids, at_paths, close_term, terms

MULT = as_prog(fx.MULT)

# environment for the multiplier's body with n=2, x=3, a=0 already bound
E_MULT = at_ids(MULT, chain(((1,), NumP(2)), ((0, 1), NumP(3)), ((0, 0, 1), NumP(0))))


# ---------------------------------------------------------------------------
# value resolution


def test_lookup_bound_variable():
    occ = path_from_text("1.0.0.0.0")  # the guard x in the multiplier
    assert lookup_var(MULT, occ, E_MULT) == NumP(3)


def test_lookup_recursive_name_builds_closure():
    occ = path_from_text("1.0.0.0.2.1.2.1.1.1.1.0")  # force site
    v = lookup_var(MULT, occ, E_MULT)
    assert at_paths(MULT, v) == PClosure((1,), EMPTY)
    assert v.env is EMPTY  # cut back to the letrec's scope, not copied
    inner = Env(MULT.pos((2, 0, 0, 0, 1)), NumP(7), E_MULT)  # y, a binder of the body, on top
    assert lookup_var(MULT, occ, inner).env is EMPTY


def test_lookup_free_variable_is_symbolic():
    prog = as_prog(fx.OPEN_ADD)
    assert lookup_var(prog, (0,), EMPTY) == cek.SymVar("a")


def test_gamma_on_literals_and_thunks():
    assert gamma(fx.ARITH_SEQ, (0, 0), EMPTY) == NumP(1)
    e = EMPTY
    prog = as_prog(fx.FORCE_THUNK)
    v = gamma(prog, (0,), e)
    assert at_paths(prog, v) == PClosure((0, 0), EMPTY)
    assert v.env is e


def test_delta_converts_up_to_first_seq():
    prog = as_prog(parse_term("1 . (2 . force f) to x in prd x"))
    st = advance(prog, load(prog.term))
    assert at_paths(prog, st.args) == frames(ARG((0, 1)), SEQ((1,)), ARG(()))
    assert at_paths(prog, delta(prog, EMPTY, st.args)) == frames(
        KArg(NumP(2)),
        KSeq((1,), EMPTY, frames(ARG(()))),
    )


# ---------------------------------------------------------------------------
# advancement


def test_advance_descends_application_chain():
    prog = as_prog(fx.MULT_CALL)
    st = advance(prog, load(prog))
    assert prog.path(st.pc) == (1, 1, 1, 0)
    assert at_paths(prog, st.args) == frames(ARG((1, 1, 0)), ARG((1, 0)), ARG((0,)))
    assert st.env is EMPTY and st.kont is NIL


def test_advance_is_idempotent():
    for prog in fx.PROGRAMS.values():
        p = as_prog(prog)
        once = advance(p, load(prog))
        assert advance(p, once) == once


# ---------------------------------------------------------------------------
# frozen steps


def test_arith_seq_runs_to_produced_numeral():
    prog = as_prog(fx.ARITH_SEQ)
    s1 = step(prog, load(prog.term))
    assert at_paths(prog, s1) == PeakState((1,), chain(((), NumP(3))), NIL, NIL)
    assert step(prog, s1) == Terminal(ProducedValue(NumP(3)))


def test_force_enters_thunk_entry():
    prog = as_prog(fx.FORCE_THUNK)
    s1 = step(prog, load(prog.term))
    assert at_paths(prog, s1) == PeakState((0, 0), EMPTY, NIL, NIL)
    assert step(prog, s1) == Terminal(ProducedValue(NumP(0)))


def test_force_converts_pending_arguments():
    prog = as_prog(fx.MULT_CALL)
    s1 = step(prog, load(prog.term))
    assert at_paths(prog, s1) == PeakState(
        (1,), EMPTY, NIL, frames(KArg(NumP(2)), KArg(NumP(3)), KArg(NumP(0)))
    )


def test_lambda_binds_from_argument_stack():
    prog = as_prog(fx.APPLY_ID)
    s1 = step(prog, load(prog.term))
    assert at_paths(prog, s1) == PeakState((0, 1), chain(((1,), NumP(5))), NIL, NIL)
    assert step(prog, s1) == Terminal(ProducedValue(NumP(5)))


def test_lambda_binds_from_continuation():
    prog = as_prog(fx.APPLY_ID)
    st = at_ids(prog, PeakState((1,), EMPTY, NIL, frames(KArg(NumP(5)))))
    assert at_paths(prog, step(prog, st)) == PeakState((0, 1), chain(((1,), NumP(5))), NIL, NIL)


def test_branch_selects_child():
    prog = as_prog(fx.BRANCH_ZERO)
    assert at_paths(prog, step(prog, load(prog.term))) == PeakState((1,), EMPTY, NIL, NIL)


def test_bare_arith_terminal():
    prog = as_prog(parse_term("1 + 2"))
    assert step(prog, load(prog.term)) == Terminal(BareArith(3))


def test_awaiting_argument_terminal():
    prog = as_prog(parse_term("\\x. prd x"))
    assert step(prog, load(prog.term)) == Terminal(AwaitingArgument())


# ---------------------------------------------------------------------------
# stuck states


def test_force_of_non_thunk():
    prog = as_prog(parse_term("force 3"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.ForceNonThunk)


def test_force_of_free_variable():
    prog = as_prog(parse_term("force f"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.ForceNonThunk)


def test_guard_not_numeral():
    prog = as_prog(parse_term("if0 f { prd 1 } { prd 2 }"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.GuardNotNumeral)


def test_apply_producer():
    prog = as_prog(parse_term("1 . prd 2"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.ApplyNonFunction)


def test_apply_arith_checks_context_before_operands():
    # the operands are unevaluated symbols, but the application wins
    prog = as_prog(parse_term("1 . a + b"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.ApplyNonFunction)
    st = at_ids(prog, PeakState((1,), EMPTY, NIL, frames(KArg(NumP(9)))))
    assert step(prog, st) == Stuck(StuckReason.ApplyNonFunction)


def test_sequence_non_producer():
    prog = as_prog(parse_term("(\\x. prd x) to w in prd w"))
    assert step(prog, load(prog.term)) == Stuck(StuckReason.SequencedNonProducer)
    st = at_ids(prog, PeakState((0,), EMPTY, NIL, frames(KSeq((), EMPTY, NIL))))
    assert step(prog, st) == Stuck(StuckReason.SequencedNonProducer)


def test_arith_non_numeral():
    prog = as_prog(fx.NESTED_SEQ)
    assert step(prog, load(prog.term)) == Stuck(StuckReason.ArithNonNumeral)


def test_missing_binding_reported_as_unbound_path():
    prog = as_prog(fx.APPLY_ID)
    st = at_ids(prog, PeakState((0, 1), EMPTY, NIL, NIL))  # inside the lambda, x never bound
    assert step(prog, st) == Stuck(StuckReason.UnboundPath)


# ---------------------------------------------------------------------------
# unloading


def test_unload_of_load_is_initial_cek_state():
    for prog in fx.PROGRAMS.values():
        p = as_prog(prog)
        assert unload(p, load(prog)) == cek.load(prog)


def test_unload_mid_run_state():
    prog = as_prog(fx.ARITH_SEQ)
    st = at_ids(prog, PeakState((1,), chain(((), NumP(3))), NIL, NIL))
    assert unload(prog, st) == cek.CekState(
        Prd(VarV("x")), cek.Bind("x", cek.NumC(3), None), NIL
    )


def test_unload_recursive_closure_matches_cek_lookup():
    got = unload_v(MULT, PClosure(MULT.pos((1,)), EMPTY))
    want = cek.lookup_value(VarV("mult"), cek.RecFrame(MULT.term.defs, None))
    assert got == want
    assert got.code == LetRec(MULT.term.defs, MULT.term.defs[0][1])


# ---------------------------------------------------------------------------
# lockstep with the CEK machine


def _same_halt(prog, c_res, p_res):
    if type(p_res) is Stuck:
        return c_res == p_res
    if type(c_res) is not Terminal or type(p_res) is not Terminal:
        return False
    ck, pk = c_res.kind, p_res.kind
    if type(ck) is not type(pk):
        return False
    if type(ck) is ProducedValue:
        return ck.value == unload_v(prog, pk.value)
    return ck == pk


def _drive_pair(m, fuel=300):
    prog = as_prog(m)
    sigma = cek.load(m)
    rho = load(m)
    for _ in range(fuel):
        assert unload(prog, rho) == sigma
        r_c = cek.step(sigma)
        r_p = step(prog, rho)
        if type(r_p) is PeakState:
            assert type(r_c) is cek.CekState
            rho, sigma = r_p, r_c
        else:
            assert type(r_c) is not cek.CekState
            assert _same_halt(prog, r_c, r_p), (r_c, r_p)
            return


def test_lockstep_on_fixtures():
    for prog in fx.PROGRAMS.values():
        _drive_pair(prog)


@settings(deadline=None)
@given(terms)
def test_lockstep_on_generated_terms(t):
    _drive_pair(close_term(t), fuel=80)
    _drive_pair(t, fuel=40)


# ---------------------------------------------------------------------------
# invariants


def test_wf_holds_along_runs():
    for m in (fx.MULT_CALL, fx.DOUBLER_LETREC, fx.DOUBLER_LAMBDA):
        prog = as_prog(m)

        def wf(rho, i):
            assert wf_check(prog, rho), wf_check(prog, rho).violations

        harness.run(harness.machine("peak", prog), 300, wf)


def test_wf_reports_unbound_scope():
    prog = as_prog(fx.APPLY_ID)
    report = wf_check(prog, at_ids(prog, PeakState((0, 1), EMPTY, NIL, NIL)))
    assert not report.ok
    assert "binder at 1" in report.violations[0]


def test_encloses_is_the_suffix_relation_on_paths():
    # an argument frame must sit on the pc's path: its path a suffix of the pc's
    prog = as_prog(fx.MULT_CALL)
    paths = [p for p, _ in iter_subterms(prog.term)]
    for q in paths[::3]:  # a third of the positions, with their paths
        for p in paths:
            suffix = len(q) <= len(p) and p[len(p) - len(q):] == q
            assert _encloses(prog, prog.pos(q), prog.pos(p)) == suffix, (q, p)


def test_wf_reports_argument_frame_out_of_scope():
    prog = as_prog(fx.APPLY_ID)
    report = wf_check(prog, at_ids(prog, PeakState((), EMPTY, frames(ARG((0,))), NIL)))
    assert not report.ok
    assert report.violations == ("argument frame 0 is not a suffix of ε",)


def test_states_are_not_mutated_by_later_steps():
    prog = as_prog(fx.MULT_CALL)
    trail = []
    keep = lambda rho, i: trail.append((rho, unload(prog, rho)))
    harness.run(harness.machine("peak", prog), 10**6, keep)
    for st, snapshot in trail:
        assert unload(prog, st) == snapshot
        again = step(prog, st)
        assert again == step(prog, st)


def test_describe_format():
    assert describe(MULT, load(MULT), 0) == "peak 0: pc=ε env=0 args=0 kont=0"
    prog = as_prog(fx.ARITH_SEQ)
    st = at_ids(prog, PeakState((1,), chain(((), NumP(3))), NIL, NIL))
    assert describe(prog, st, 3) == "peak 3: pc=1 env=1 args=0 kont=0"
