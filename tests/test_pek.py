"""Instruction-pointer machine: static frames, eta advancement, PEAK agreement.

States name positions by id; the tests write them with paths and convert
with ``at_ids``/``at_paths`` under the one Prog a state belongs to."""

import tracemalloc

import pytest
from hypothesis import given, settings

from cbpv import cek, harness, peak, pek
from cbpv import fixtures as fx
from cbpv.cek import NIL, frames
from cbpv.parser import parse_term
from cbpv.harness import gen_term
from cbpv.peak import ARG, EMPTY, SEQ, Env, KArg, KSeq, NumP, PClosure, PeakState, chain
from cbpv.pek import (
    KRet,
    PekState,
    aframes,
    delta,
    describe,
    eta,
    gamma,
    load,
    step,
    unload,
    wf_check,
)
from cbpv.sos import (
    AwaitingArgument,
    BareArith,
    ProducedValue,
    Stuck,
    StuckReason,
    Terminal,
)
from cbpv.syntax import Lam, NumV, Prd, Seq, VarV, alpha_eq, as_prog, path_from_text

from conftest import at_ids, at_paths, close_term, terms

MULT = as_prog(fx.MULT)
FORCE_SITE = path_from_text("1.0.0.0.2.1.2.1.1.1.1")  # the recursive call


def _aframes(m, p):
    prog = as_prog(m)
    return at_paths(prog, aframes(prog, p))


def _eta(m, p):
    prog = as_prog(m)
    return prog.path(eta(prog, prog.pos(p)))


# ---------------------------------------------------------------------------
# static structure


def test_aframes_at_root_is_empty():
    assert _aframes(fx.ARITH_SEQ, ()) == NIL


def test_aframes_at_sequenced_op():
    assert _aframes(fx.ARITH_SEQ, (0,)) == frames(SEQ(()))


def test_aframes_at_recursive_call_site():
    inner = FORCE_SITE[1:]
    mid = inner[1:]
    outer = mid[1:]
    assert _aframes(MULT, FORCE_SITE) == frames(ARG(inner), ARG(mid), ARG(outer))


def test_aframes_lambda_consumes_one_argument():
    assert _aframes(fx.APPLY_ID, (1,)) == frames(ARG(()))
    assert _aframes(fx.APPLY_ID, (0, 1)) == NIL


def test_aframes_of_a_deep_spine_share_their_cells():
    # each position's stack is its parent's with one SEQ pushed, so filling
    # the 8,000 positions down a spine of Seq left sides makes 8,000 cells,
    # not a copy of the stack per position
    n, m = 8000, Prd(NumV(0))
    for _ in range(n):
        m = Seq(m, "x", Prd(VarV("x")))
    prog = as_prog(m)
    bottom = 0
    for _ in range(n):
        bottom = prog.kid(bottom, 0)
    tracemalloc.start()
    try:
        a = pek._aframes(prog, bottom)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == n and a.rest is pek._aframes(prog, prog.parents[bottom])
    assert peak_bytes < 2 * 2**20, peak_bytes


def test_aframes_lambda_under_sequence_drops_nothing():
    prog = as_prog(parse_term("(\\x. prd x) to w in prd w"))
    assert _aframes(prog, (0,)) == frames(SEQ(()))
    assert _aframes(prog, (0, 0)) == frames(SEQ(()))


def test_eta_is_identity_at_instructions():
    assert _eta(fx.ARITH_SEQ, (1,)) == (1,)


def test_eta_descends_search_nodes():
    assert _eta(MULT, ()) == (0,)
    else_seq = path_from_text("1.0.0.0.2")
    assert _eta(MULT, else_seq) == (0,) + else_seq


# ---------------------------------------------------------------------------
# value resolution


def test_gamma_thunk_entry_is_advanced():
    prog = as_prog(parse_term("force thunk { 1 + 2 to x in prd x }"))
    assert at_paths(prog, gamma(prog, (0,), EMPTY)) == PClosure((0, 0, 0), EMPTY)


def test_recursive_closure_entry_is_advanced():
    prog = as_prog(parse_term("letrec f = prd 0 to r in prd r in force f"))
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState((0, 1), EMPTY, NIL)


def test_delta_replaces_tail_with_return_frame():
    prog = as_prog(parse_term("1 . (2 . force f) to x in prd x"))
    a = aframes(prog, (1, 0, 1))
    assert at_paths(prog, a) == frames(ARG((0, 1)), SEQ((1,)), ARG(()))
    assert at_paths(prog, delta(prog, EMPTY, a)) == frames(
        KArg(NumP(2)), KRet((1,), (1, 1), EMPTY)
    )


# ---------------------------------------------------------------------------
# loading and frozen steps


def test_load_positions():
    for m, pc in ((fx.ARITH_SEQ, (0,)), (fx.FORCE_THUNK, ()), (MULT, (0,))):
        prog = as_prog(m)
        assert at_paths(prog, load(prog)) == PekState(pc, EMPTY, NIL)


def test_arith_seq_runs_to_produced_numeral():
    prog = as_prog(fx.ARITH_SEQ)
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState((1,), chain(((), NumP(3))), NIL)
    assert step(prog, s1) == Terminal(ProducedValue(NumP(3)))


def test_force_enters_thunk():
    prog = as_prog(fx.FORCE_THUNK)
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState((0, 0), EMPTY, NIL)
    assert step(prog, s1) == Terminal(ProducedValue(NumP(0)))


def test_force_converts_static_frames():
    prog = as_prog(fx.MULT_CALL)
    assert at_paths(prog, load(prog)) == PekState((1, 1, 1, 0), EMPTY, NIL)
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState(
        (1,), EMPTY, frames(KArg(NumP(2)), KArg(NumP(3)), KArg(NumP(0)))
    )


def test_lambda_binds_from_static_frame():
    prog = as_prog(fx.APPLY_ID)
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState((0, 1), chain(((1,), NumP(5))), NIL)


def test_lambda_binds_from_continuation():
    # the lambda sits inside a thunk, where its static frames are empty,
    # so the argument arrives through the continuation
    prog = as_prog(parse_term("5 . force thunk { \\x. prd x }"))
    s1 = step(prog, load(prog))
    assert at_paths(prog, s1) == PekState((0, 0, 1), EMPTY, frames(KArg(NumP(5))))
    s2 = step(prog, s1)
    assert at_paths(prog, s2) == PekState((0, 0, 0, 1), chain(((0, 0, 1), NumP(5))), NIL)
    assert step(prog, s2) == Terminal(ProducedValue(NumP(5)))


def test_curried_arguments_bind_innermost_first():
    prog = as_prog(parse_term("5 . 7 . \\x. \\y. prd y"))
    s = load(prog)
    s = step(prog, s)
    assert at_paths(prog, s) == PekState((0, 1, 1), chain(((1, 1), NumP(7))), NIL)
    s = step(prog, s)
    assert at_paths(prog, s) == PekState(
        (0, 0, 1, 1), chain(((1, 1), NumP(7)), ((0, 1, 1), NumP(5))), NIL
    )
    assert step(prog, s) == Terminal(ProducedValue(NumP(5)))


def test_terminal_kinds():
    assert step(*_loaded("\\x. prd x")) == Terminal(AwaitingArgument())
    assert step(*_loaded("1 + 2")) == Terminal(BareArith(3))


def _loaded(src):
    prog = as_prog(parse_term(src))
    return prog, load(prog)


# ---------------------------------------------------------------------------
# stuck states


def test_stuck_reasons_mirror_structural_semantics():
    cases = {
        "force 3": StuckReason.ForceNonThunk,
        "if0 f { prd 1 } { prd 2 }": StuckReason.GuardNotNumeral,
        "1 . prd 2": StuckReason.ApplyNonFunction,
        "1 . a + b": StuckReason.ApplyNonFunction,
        "(\\x. prd x) to w in prd w": StuckReason.SequencedNonProducer,
        "a + b": StuckReason.ArithNonNumeral,
    }
    for src, reason in cases.items():
        assert step(*_loaded(src)) == Stuck(reason), src


def test_missing_binding_reported_as_unbound_path():
    prog = as_prog(fx.APPLY_ID)
    st = at_ids(prog, PekState((0, 1), EMPTY, NIL))
    assert step(prog, st) == Stuck(StuckReason.UnboundPath)


# ---------------------------------------------------------------------------
# unloading


def test_unload_recomputes_static_frames():
    prog = as_prog(fx.ARITH_SEQ)
    assert at_paths(prog, unload(prog, load(prog))) == PeakState((0,), EMPTY, frames(SEQ(())), NIL)


def test_unload_expands_return_frame():
    prog = as_prog(parse_term("1 . (2 . force f) to x in prd x"))
    st = at_ids(prog, PekState((1, 1), EMPTY, frames(KRet((1,), (1, 1), EMPTY))))
    got = unload(prog, st)
    assert at_paths(prog, got.kont) == frames(KSeq((1,), EMPTY, frames(ARG(()))))


def test_unload_of_trivial_state_is_trivial():
    prog = as_prog(fx.FORCE_THUNK)
    assert unload(prog, PekState(0, EMPTY, NIL)) == PeakState(0, EMPTY, NIL, NIL)


def test_source_recovered_through_both_unloads():
    for m in fx.PROGRAMS.values():
        prog = as_prog(m)
        back = cek.unload(peak.unload(prog, unload(prog, load(prog))))
        assert alpha_eq(back, m)


# ---------------------------------------------------------------------------
# lockstep with the PEAK machine, modulo advancement


def _canon_val(prog, v):
    if type(v) is PClosure:
        return PClosure(eta(prog, v.entry), _canon_env(prog, v.env))
    return v


def _canon_env(prog, e):
    return chain(*[(q, _canon_val(prog, v)) for q, v in reversed(list(e.items()))])


def _canon_kont(prog, kont):
    out = []
    for f in kont:
        if type(f) is KArg:
            out.append(KArg(_canon_val(prog, f.value)))
        else:
            out.append(KSeq(f.pos, _canon_env(prog, f.env), f.rest_args))
    return tuple(out)


def _canon_state(prog, rho):
    rho = peak.advance(prog, rho)
    return PeakState(
        rho.pc, _canon_env(prog, rho.env), rho.args, _canon_kont(prog, rho.kont)
    )


def _same_halt(prog, r_peak, r_pek):
    if type(r_pek) is Stuck:
        return r_peak == r_pek
    if type(r_peak) is not Terminal or type(r_pek) is not Terminal:
        return False
    a, b = r_peak.kind, r_pek.kind
    if type(a) is not type(b):
        return False
    if type(a) is ProducedValue:
        return _canon_val(prog, a.value) == _canon_val(prog, b.value)
    return a == b


def _drive_pair(m, fuel=300):
    prog = as_prog(m)
    rho = peak.load(m)
    s = load(prog)
    for _ in range(fuel):
        assert _canon_state(prog, rho) == _canon_state(prog, unload(prog, s))
        r_peak = peak.step(prog, rho)
        r_pek = step(prog, s)
        if type(r_pek) is PekState:
            assert type(r_peak) is PeakState
            rho, s = r_peak, r_pek
        else:
            assert type(r_peak) is not PeakState
            assert _same_halt(prog, r_peak, r_pek), (r_peak, r_pek)
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


def test_pc_stays_on_instructions_and_wf_holds():
    for m in (fx.MULT_CALL, fx.DOUBLER_LETREC, fx.DOUBLER_LAMBDA):
        prog = as_prog(m)

        def wf(s, i):
            assert wf_check(prog, s), wf_check(prog, s).violations

        harness.run(harness.machine("pek", prog), 300, wf)


def test_wf_rejects_search_position():
    prog = as_prog(fx.ARITH_SEQ)
    report = wf_check(prog, PekState(0, EMPTY, NIL))
    assert not report.ok
    assert "instruction position" in report.violations[0]


def test_wf_rejects_unbound_scope():
    prog = as_prog(fx.APPLY_ID)
    assert not wf_check(prog, at_ids(prog, PekState((0, 1), EMPTY, NIL))).ok


def test_wf_rejects_a_chain_that_is_not_the_scope():
    prog = as_prog(fx.APPLY_ID)  # 5 . \x. prd x
    wf = lambda s: wf_check(prog, at_ids(prog, s))
    assert wf(PekState((0, 1), chain(((1,), NumP(5))), NIL))
    extra = chain(((0,), NumP(4)), ((1,), NumP(5)))  # a binder outside the lambda
    [v] = wf(PekState((0, 1), extra, NIL)).violations
    assert v == "pc: binder at 0 bound outside the scope of position 1"
    other = chain(((0,), NumP(5)))
    [v] = wf(PekState((0, 1), other, NIL)).violations
    assert v == "pc: binder at 1 unbound for position 1.0"
    closure = PClosure((0, 1), extra)  # checked wherever it sits
    [v] = wf(PekState((), EMPTY, frames(KArg(closure)))).violations[1:]
    assert v == "argument closure: binder at 0 bound outside the scope of position 1"


def test_describe_format():
    prog = as_prog(fx.ARITH_SEQ)
    assert describe(prog, load(prog), 0) == "pek 0: pc=0 env=0 kont=0"
    assert describe(prog, PekState(0, EMPTY, NIL), 2) == "pek 2: pc=ε env=0 kont=0"


# ---------------------------------------------------------------------------
# environments as scope chains


def _in_scope(prog, p):
    """The Lam/Seq binders in scope at ``p``, counted up its path: every
    Lam entered through its body and every Seq through its right component."""
    n = 0
    for k in range(len(p)):
        t = type(prog.at(p[k + 1 :]))
        if (t is Lam and p[k] == 0) or (t is Seq and p[k] == 1):
            n += 1
    return n


def _long_chain(n, closures):
    e = EMPTY
    for k in range(n):
        e = Env(k, PClosure(k, e) if closures else NumP(k), e)
    return e


def test_equality_of_100k_cell_chains_walks_no_stack():
    for closures in (False, True):  # each closure over the chain below it
        a, b = _long_chain(100_000, closures), _long_chain(100_000, closures)
        assert len(a) == 100_000 and a is not b
        assert a == b
        assert a == b  # the second time from the twins the first one left
        c = Env(1, NumP(-1), _long_chain(99_999, closures))  # differs at the top
        assert a != c and c != b


def test_a_chain_differing_deep_down_is_unequal():
    a = _long_chain(5_000, False)
    b = EMPTY
    for k in range(5_000):
        b = Env(k, NumP(-1 if k == 7 else k), b)
    assert a != b and b != a
    assert chain((1, NumP(1))) != chain((2, NumP(1)))
    assert chain((1, NumP(1))) != EMPTY and EMPTY == EMPTY


def _runs(prog):
    """The states pek's and cfg's runs of ``prog`` visit, 300 at most each."""
    states = []
    for name in ("pek", "cfg"):
        harness.run(harness.machine(name, prog), 299, lambda s, i: states.append(s))
    return states


@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_env_holds_exactly_the_binders_in_scope(seed):
    for m in (gen_term(seed, seed % 26), gen_term(seed, seed % 26, closed=False)):
        prog = as_prog(m)
        for s in _runs(prog):
            assert len(s.env) == _in_scope(prog, prog.path(s.pc))
            for f in s.kont:
                if type(f) is KRet:
                    assert len(f.env) == _in_scope(prog, prog.path(f.bind))

        def in_scope(rho, i):
            assert len(rho.env) == _in_scope(prog, prog.path(rho.pc))

        harness.run(harness.machine("peak", prog), 10**6, in_scope)


def test_fixture_envs_hold_exactly_the_binders_in_scope():
    for m in fx.PROGRAMS.values():
        prog = as_prog(m)
        for s in _runs(prog):
            assert len(s.env) == _in_scope(prog, prog.path(s.pc))


def test_a_recursive_call_keeps_only_the_letrecs_scope():
    prog = as_prog(fx.mult_call(3, 4, 0))
    entry = eta(prog, prog.pos((1,)))  # mult's definition, \n
    inner = []
    for s in _runs(prog):
        if s.pc == prog.pos(FORCE_SITE):
            assert len(s.env) == 5  # n, x, a, y and b
            mult = gamma(prog, (0,) + FORCE_SITE, s.env)
            assert mult.entry == entry and mult.env is EMPTY
        if s.pc == entry:
            inner.append(s)
    assert len(inner) == 2 * 4  # one call for each x from 4 down to 1, on pek and on cfg
    assert all(s.env is EMPTY for s in inner)
    report = harness.lockstep_check(prog, harness.LevelPair.PEK_CFG)
    assert report.ok and report.steps_checked > 30
