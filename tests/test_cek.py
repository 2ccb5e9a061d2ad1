"""The CEK machine against the small-step semantics."""

from hypothesis import given, settings

from conftest import close_term, terms
from cbpv import fixtures as fx
from cbpv import harness, sos
from cbpv.cek import (
    ArgF,
    Bind,
    NIL,
    CekState,
    Closure,
    NumC,
    RecFrame,
    SeqF,
    SymVar,
    describe,
    frames,
    load,
    lookup_value,
    step,
    unload,
    unload_val,
    wf_check,
)
from cbpv.parser import parse_term
from cbpv.sos import (
    AwaitingArgument,
    BareArith,
    ProducedValue,
    Stuck,
    StuckReason,
    Terminal,
)
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    If0,
    LetRec,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    VarV,
    alpha_eq,
)

# ---------------------------------------------------------------------------
# gamma


def test_gamma_thunk_and_numeral():
    assert lookup_value(ThunkV(Prd(NumV(0))), None) == Closure(Prd(NumV(0)), None)
    assert lookup_value(NumV(3), None) == NumC(3)


def test_gamma_bind_hit():
    env = Bind("x", NumC(5), None)
    assert lookup_value(VarV("x"), env) == NumC(5)


def test_gamma_miss_is_symbolic():
    assert lookup_value(VarV("a"), None) == SymVar("a")
    assert lookup_value(VarV("a"), Bind("x", NumC(1), None)) == SymVar("a")


def test_gamma_recursive_name_unloads_like_unrolling():
    defs = (("f", Prd(NumV(1))),)
    env = RecFrame(defs, None)
    clo = lookup_value(VarV("f"), env)
    assert type(clo) is Closure
    assert clo.code == LetRec(defs, Prd(NumV(1)))
    # the closure must carry the delayed substitution the semantics performs
    expected = sos.unroll(LetRec(defs, Prd(VarV("f"))))
    assert expected == Prd(unload_val(clo))


def test_gamma_recursive_name_shares_environment():
    outer = Bind("z", NumC(9), None)
    env = RecFrame((("f", Force(VarV("f"))),), outer)
    clo = lookup_value(VarV("f"), env)
    assert clo.env is outer  # no copying, no extra frames


def test_gamma_recursive_leftmost_duplicate_wins():
    defs = (("f", Prd(NumV(1))), ("f", Prd(NumV(2))))
    clo = lookup_value(VarV("f"), RecFrame(defs, None))
    assert clo.code == LetRec(defs, Prd(NumV(1)))


# ---------------------------------------------------------------------------
# stepping


def test_step_force_enters_closure():
    assert step(load(fx.FORCE_THUNK)) == CekState(Prd(NumV(0)), None, NIL)


def test_step_beta_binds_in_one_step():
    got = step(load(fx.APPLY_ID))
    assert got == CekState(Prd(VarV("x")), Bind("x", NumC(5), None), NIL)


def test_step_produce_terminal():
    assert step(load(Prd(NumV(7)))) == Terminal(ProducedValue(NumC(7)))


def test_step_terminal_kinds():
    assert step(load(Op(NumV(2), ArithOp.ADD, NumV(3)))) == Terminal(BareArith(5))
    # letrec descends and prd fires within the same step; the produced
    # closure unloads to the same thunk the semantics substitutes
    r = step(load(fx.MULT))
    assert type(r) is Terminal and type(r.kind) is ProducedValue
    s = sos.step(fx.MULT)
    assert alpha_eq(Prd(unload_val(r.kind.value)), Prd(s.kind.value))


def test_step_stuck_mirrors_semantics():
    assert step(load(Force(NumV(1)))) == Stuck(StuckReason.ForceNonThunk)
    assert step(load(fx.NESTED_SEQ)) == Stuck(StuckReason.ArithNonNumeral)


# ---------------------------------------------------------------------------
# unloading


def test_unload_substitutes_bindings():
    sigma = CekState(Prd(VarV("x")), Bind("x", NumC(5), None), NIL)
    assert unload(sigma) == Prd(NumV(5))


def test_unload_plugs_kont():
    sigma = CekState(Prd(NumV(0)), None, frames(SeqF("y", Prd(VarV("y")), None)))
    t = unload(sigma)
    assert t == Seq(Prd(NumV(0)), "y", Prd(VarV("y")))
    assert sos.step(t) == sos.Next(Prd(NumV(0)))


def test_unload_arg_frames():
    sigma = CekState(
        Prd(VarV("x")),
        Bind("x", NumC(1), None),
        frames(ArgF(NumC(5)), SeqF("y", Prd(VarV("y")), None)),
    )
    got = unload(sigma)
    assert got == Seq(App(NumV(5), Prd(NumV(1))), "y", Prd(VarV("y")))


def test_unload_load_is_the_term():
    for prog in fx.PROGRAMS.values():
        assert unload(load(prog)) is prog


# ---------------------------------------------------------------------------
# lock-step correspondence with the semantics


def _same_halt(s_res, c_res):
    if type(s_res) is Stuck:
        return c_res == s_res
    if type(c_res) is not Terminal or type(s_res) is not Terminal:
        return False
    sk, ck = s_res.kind, c_res.kind
    if type(sk) is not type(ck):
        return False
    if type(sk) is ProducedValue:
        return alpha_eq(sk.value, unload_val(ck.value))
    return sk == ck


def _drive_lockstep(m, fuel=300):
    t = m
    sigma = load(m)
    for _ in range(fuel):
        assert alpha_eq(unload(sigma), t)
        r_s = sos.step(t)
        r_c = step(sigma)
        if type(r_c) is CekState:
            assert type(r_s) is sos.Next
            sigma, t = r_c, r_s.term
        else:
            assert type(r_s) is not sos.Next
            assert _same_halt(r_s, r_c), (r_s, r_c)
            return


def test_lockstep_on_fixtures():
    for prog in fx.PROGRAMS.values():
        _drive_lockstep(prog)


@settings(deadline=None)
@given(terms)
def test_lockstep_on_generated_terms(t):
    _drive_lockstep(close_term(t), fuel=80)
    _drive_lockstep(t, fuel=40)  # open terms align too


def test_unload_masks_a_rebound_frame_binder():
    # The pending frame rebinds z, so the environment's z must not leak
    # into occurrences the frame's own binder owns.
    env = Bind("z", NumC(9), None)
    sigma = CekState(
        Prd(VarV("z")),
        env,
        frames(SeqF("z", Op(VarV("z"), ArithOp.ADD, VarV("z")), env)),
    )
    assert unload(sigma) == Seq(
        Prd(NumV(9)), "z", Op(VarV("z"), ArithOp.ADD, VarV("z"))
    )


def test_unload_freshens_rather_than_capturing_a_free_name():
    # w's stored thunk mentions a source-free z while the frame rebinds z;
    # the binder steps aside instead of capturing the free occurrence.
    env = Bind("w", lookup_value(ThunkV(Force(VarV("z"))), None), None)
    sigma = CekState(Prd(NumV(0)), None, frames(SeqF("z", Force(VarV("w")), env)))
    assert unload(sigma) == Seq(
        Prd(NumV(0)), "z'", Force(ThunkV(Force(VarV("z"))))
    )


def test_lockstep_survives_rebound_and_source_free_binders():
    shadow = Seq(
        Prd(NumV(9)),
        "z",
        Seq(
            If0(VarV("z"), Prd(NumV(0)), Prd(NumV(1))),
            "z",
            Op(VarV("z"), ArithOp.ADD, VarV("z")),
        ),
    )
    poison = Seq(
        Prd(ThunkV(Force(VarV("z")))),
        "w",
        Seq(Prd(NumV(0)), "z", Seq(Force(VarV("w")), "y", Prd(VarV("y")))),
    )
    _drive_lockstep(shadow)
    _drive_lockstep(poison)


# ---------------------------------------------------------------------------
# invariants


def test_wf_preserved_along_mult_run():
    def wf(sigma, i):
        assert wf_check(sigma)

    harness.run(harness.machine("cek", fx.MULT_CALL), 300, wf)


def test_wf_check_of_closures_nested_to_any_depth():
    # each closure holds the one before it in its environment, 2,000 deep
    k = 2000
    calls = "".join(f"(y{i} . force wrap) to y{i + 1} in " for i in range(k))
    m = parse_term(
        f"letrec wrap = \\t. prd thunk {{ force t }} in prd thunk {{ prd 0 }} to y0 in"
        f" {calls}prd y{k}"
    )
    r, _, sigma = harness.run(harness.machine("cek", m), 10**6)
    assert type(r.kind.value) is Closure
    assert wf_check(sigma)


@settings(deadline=None)
@given(terms)
def test_redex_depth_is_post_step_kont_length(t):
    sigma = load(close_term(t))
    for _ in range(60):
        r = step(sigma)
        if type(r) is not CekState:
            break
        d = sos.redex_depth(unload(sigma))
        assert d == len(r.kont)
        sigma = r


# ---------------------------------------------------------------------------
# trace format


def test_describe_line():
    assert describe(load(fx.ARITH_SEQ), 0) == "cek 0: code=seq env=0 kont=0"
    sigma = step(load(fx.ARITH_SEQ))
    assert describe(sigma, 1) == "cek 1: code=prd env=1 kont=0"


# ---------------------------------------------------------------------------
# structural equality without recursion


def _frames(n, closures):
    """A chain of ``n`` frames, every seventh a letrec frame, each Bind's
    value a closure over the frames below it when ``closures``."""
    defs = (("f", Force(VarV("f"))),)
    e = None
    for k in range(n):
        if k % 7 == 3:
            e = RecFrame(defs, e)
        else:
            e = Bind("x", Closure(Prd(VarV("x")), e) if closures else NumC(k), e)
    return e


def test_equality_of_30000_frame_chains_walks_no_stack():
    for closures in (False, True):
        a, b = _frames(30_000, closures), _frames(30_000, closures)
        assert a is not b
        assert a == b and b == a
        assert a._twin is b and a.rest._twin is b.rest  # kept: they cannot change
        assert CekState(Prd(VarV("x")), a, frames(ArgF(NumC(1)))) == CekState(
            Prd(VarV("x")), b, frames(ArgF(NumC(1)))
        )
        assert Bind("y", NumC(0), a) != Bind("y", NumC(0), _frames(29_999, closures))


def test_a_chain_differing_deep_down_is_unequal():
    a, b = _frames(5_000, False), None
    for k in range(5_000):
        if k % 7 == 3:
            b = RecFrame((("f", Force(VarV("f"))),), b)
        else:
            b = Bind("x", NumC(-1 if k == 8 else k), b)
    assert a != b and b != a
    assert Bind("x", NumC(1), None) != Bind("y", NumC(1), None)
    assert Closure(Prd(NumV(1)), None) != Closure(Prd(NumV(2)), None)
    assert Bind("x", NumC(1), None) != RecFrame((("x", Prd(NumV(1))),), None)
    assert hash(Bind("x", NumC(1), None)) == hash(Bind("x", NumC(1), None))
