"""Rewrite rules: matching, application, the driver, and validation."""

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import close_term, rule_instances, terms
from cbpv import fixtures as fx
from cbpv import rewrite, sos
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.rewrite import (
    ALL_RULES,
    NoMatch,
    RuleId,
    apply_rule,
    find_redexes,
    log_lines,
    optimize,
    validate,
)
from cbpv.sos import Verdict
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    If0,
    Lam,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    Prog,
    VarV,
    alpha_eq,
    iter_subterms,
)


# ---------------------------------------------------------------------------
# finding redexes


def test_force_of_thunk_is_a_redex():
    assert find_redexes(fx.FORCE_THUNK) == [(RuleId.ForceThunk, ())]


def test_equal_branches_under_variable_guard():
    t = parse_term("if0 x { prd 1 } { prd 1 }")
    assert find_redexes(t) == [(RuleId.BranchElim, ())]


def test_plain_producer_has_no_redexes():
    assert find_redexes(parse_term("prd 0")) == []


def test_redexes_found_inside_thunk_values():
    t = App(ThunkV(Force(ThunkV(Prd(NumV(1))))), Lam("f", Prd(NumV(0))))
    assert find_redexes(t) == [(RuleId.Beta, ()), (RuleId.ForceThunk, (0, 0))]


def test_rules_listed_in_priority_order_at_one_node():
    t = If0(NumV(0), Prd(NumV(1)), Prd(NumV(1)))
    assert find_redexes(t) == [(RuleId.DeadTrue, ()), (RuleId.BranchElim, ())]


def test_rule_filter_restricts_matches():
    t = If0(NumV(0), Prd(NumV(1)), Prd(NumV(1)))
    assert find_redexes(t, {RuleId.BranchElim}) == [(RuleId.BranchElim, ())]


# ---------------------------------------------------------------------------
# individual rules


def test_force_thunk_unwraps():
    assert apply_rule(fx.FORCE_THUNK, RuleId.ForceThunk, ()) == Prd(NumV(0))


def test_beta_substitutes_argument():
    assert apply_rule(fx.APPLY_ID, RuleId.Beta, ()) == Prd(NumV(5))


def test_beta_avoids_capture():
    body = Lam("x", Seq(Prd(VarV("x")), "y", Op(VarV("y"), ArithOp.ADD, VarV("x"))))
    t = App(VarV("y"), body)
    want = Seq(Prd(VarV("y")), "z", Op(VarV("z"), ArithOp.ADD, VarV("y")))
    assert alpha_eq(apply_rule(t, RuleId.Beta, ()), want)


def test_binding_a_produced_value_inlines_it():
    t = parse_term("prd 7 to x in x + x")
    assert apply_rule(t, RuleId.MoveElim, ()) == Op(NumV(7), ArithOp.ADD, NumV(7))


def test_rebinding_a_result_to_itself_drops_the_wrapper():
    got = apply_rule(fx.NESTED_SEQ, RuleId.MoveElim, ())
    assert got == Seq(fx.OPEN_ADD, "y", Prd(VarV("y")))


def test_constant_arithmetic_folds():
    t = parse_term("1 + 2 to x in prd x")
    assert apply_rule(t, RuleId.ConstFold, ()) == Prd(NumV(3))


def test_folding_respects_subtraction_and_sign():
    t = parse_term("1 - 4 to x in prd x")
    assert apply_rule(t, RuleId.ConstFold, ()) == Prd(NumV(-3))


def test_inline_requires_a_code_argument():
    got = apply_rule(fx.DOUBLER_LAMBDA, RuleId.Inline, ())
    assert got == App(NumV(5), Force(ThunkV(fx._DOUBLER)))
    # a plain numeral argument is Beta's business, not Inline's
    with pytest.raises(NoMatch):
        apply_rule(fx.APPLY_ID, RuleId.Inline, ())


def test_zero_guard_takes_the_first_branch():
    assert apply_rule(fx.BRANCH_ZERO, RuleId.DeadTrue, ()) == Prd(NumV(1))


@pytest.mark.parametrize("src", ["if0 3 { prd 1 } { prd 2 }", "if0 -1 { prd 1 } { prd 2 }"])
def test_nonzero_guard_takes_the_second_branch(src):
    assert apply_rule(parse_term(src), RuleId.DeadFalse, ()) == Prd(NumV(2))


def test_branch_elim_compares_up_to_renaming():
    t = If0(VarV("x"), Lam("a", Prd(VarV("a"))), Lam("b", Prd(VarV("b"))))
    assert apply_rule(t, RuleId.BranchElim, ()) == Lam("a", Prd(VarV("a")))


def test_mismatched_rule_raises():
    with pytest.raises(NoMatch):
        apply_rule(parse_term("prd 0"), RuleId.Beta, ())
    with pytest.raises(NoMatch):
        apply_rule(fx.BRANCH_ZERO, RuleId.DeadFalse, ())


# ---------------------------------------------------------------------------
# guards on the unbinding and branch rules


@pytest.mark.parametrize(
    "src",
    [
        "(\\z. prd z) to x in prd x",  # a lambda is not a producer
        "force f to x in prd x",  # opaque forced value
        "(f . \\z. force z) to x in prd x",  # application body ends in a force
    ],
)
def test_unbinding_refused_for_non_producers(src):
    assert find_redexes(parse_term(src), {RuleId.MoveElim}) == []


@pytest.mark.parametrize(
    "src",
    [
        "(if0 x { prd 1 } { 2 + 3 }) to w in prd w",
        "(letrec f = prd 0 in prd 5) to w in prd w",
        "(7 . \\z. prd z) to w in prd w",
        "force thunk { prd 1 } to w in prd w",
    ],
)
def test_unbinding_allowed_when_every_exit_produces(src):
    t = parse_term(src)
    assert (RuleId.MoveElim, ()) in find_redexes(t, {RuleId.MoveElim})
    assert apply_rule(t, RuleId.MoveElim, ()) == t.left


def test_unbinding_requires_the_bound_variable_itself():
    t = parse_term("1 + 2 to x in prd y")
    assert find_redexes(t, {RuleId.MoveElim}) == []


def test_branch_elim_refuses_thunk_guards():
    t = If0(ThunkV(Prd(NumV(0))), Prd(NumV(1)), Prd(NumV(1)))
    assert find_redexes(t) == []


# ---------------------------------------------------------------------------
# the driver


def test_unwrapping_layered_thunks():
    got, steps = optimize(fx.LAYERED_THUNKS, {RuleId.ForceThunk})
    assert got == fx.NESTED_SEQ
    assert log_lines(steps) == ["ForceThunk @ ε", "ForceThunk @ 0"]


def test_collapsing_nested_rebindings():
    got, steps = optimize(fx.NESTED_SEQ, {RuleId.MoveElim})
    assert got == fx.OPEN_ADD
    assert log_lines(steps) == ["MoveElim @ ε", "MoveElim @ ε"]


def test_pass_budget_stops_the_driver():
    got, steps = optimize(fx.LAYERED_THUNKS, {RuleId.ForceThunk}, max_passes=1)
    assert len(steps) == 1
    assert got == steps[0].after != fx.NESTED_SEQ


def test_fixpoint_returns_the_term_unchanged():
    t = parse_term("prd 0")
    assert optimize(t) == (t, ())


def test_log_uses_root_first_paths():
    t = App(ThunkV(Force(ThunkV(Prd(NumV(1))))), Lam("f", Prd(NumV(0))))
    _, steps = optimize(t, {RuleId.ForceThunk})
    assert log_lines(steps) == ["ForceThunk @ 0.0"]


@given(terms)
@settings(max_examples=60, deadline=None)
def test_step_log_replays_exactly(t):
    got, steps = optimize(t, max_passes=12)
    cur = t
    for s in steps:
        assert s.before == cur
        assert find_redexes(cur)[0] == (s.rule, s.at)
        cur = apply_rule(cur, s.rule, s.at)
        assert cur == s.after
    assert cur == got


def test_rewriting_builds_no_position_index(monkeypatch):
    def refuse(self, term):
        raise AssertionError("a Prog was built")

    monkeypatch.setattr(Prog, "__init__", refuse)
    for t in fx.PROGRAMS.values():
        _, steps = optimize(t)
        for s in steps:
            assert apply_rule(s.before, s.rule, s.at) == s.after


@given(terms)
@settings(max_examples=60, deadline=None)
def test_driver_halts_at_fixpoint_or_budget(t):
    rules = {RuleId.ForceThunk, RuleId.MoveElim, RuleId.ConstFold,
             RuleId.DeadTrue, RuleId.DeadFalse, RuleId.BranchElim}
    got, steps = optimize(t, rules, max_passes=50)
    if len(steps) < 50:
        assert find_redexes(got, rules) == []


@pytest.mark.parametrize("rule", list(RuleId), ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_rules_preserve_observations(rule, data):
    t = close_term(data.draw(rule_instances(rule)))
    rewritten = apply_rule(t, rule, ())
    assert sos.observe_equiv(t, rewritten, 200) is not Verdict.Inequivalent


# ---------------------------------------------------------------------------
# the rule table


@pytest.mark.parametrize(
    "t, first, second",
    [
        (App(ThunkV(Lam("y", Prd(VarV("y")))), Lam("x", Prd(NumV(0)))),
         RuleId.Beta, RuleId.Inline),
        (If0(NumV(0), Prd(NumV(1)), Prd(NumV(1))), RuleId.DeadTrue, RuleId.BranchElim),
    ],
    ids=["Beta_Inline", "DeadTrue_BranchElim"],
)
def test_one_node_two_matching_rules(t, first, second):
    assert find_redexes(t) == [(first, ()), (second, ())]
    for rules, rule in ((None, first), (ALL_RULES - {first}, second)):
        got, steps = optimize(t, rules, max_passes=1)
        assert log_lines(steps) == [f"{rule.name} @ ε"]
        assert got == apply_rule(t, rule, ())


def test_each_rule_matches_only_the_node_type_the_table_lists_it_under():
    listed = {rule: t for t, entries in rewrite._RULES.items() for rule, _ in entries}
    assert sorted(listed, key=list(RuleId).index) == list(RuleId)
    seen = set()
    for seed in range(300):
        for _, node in iter_subterms(gen_term(seed, seed % 26, closed=seed % 5 != 4)):
            seen.add(type(node))
            for rule in RuleId:
                if type(node) is not listed[rule]:
                    assert rewrite._rewrite(rule, node) is None, (rule, node)
    assert len(seen) == 11  # every node type


def _wide(n, w):
    """n if0s, each in the else-block of the last: each then-block is a
    chain of w redex-free links, and each else-block opens with two
    redexes, a ForceThunk and then a MoveElim."""
    b = "x + 1 to y in " * w + "prd 0"
    heads = "".join(f"if0 x {{ {b} }} {{ force thunk {{ prd {i} }} to z{i} in " for i in range(n))
    return heads + "prd 0" + " }" * n


def test_rule_tests_grow_with_the_term_not_with_the_rewrites(monkeypatch):
    tried = 0

    def counted(match):
        def count(node):
            nonlocal tried
            tried += 1
            return match(node)
        return count

    table = {t: tuple((r, counted(f)) for r, f in es) for t, es in rewrite._RULES.items()}
    monkeypatch.setattr(rewrite, "_RULES", table)
    made = {}
    for w in (50, 100):
        tried = 0
        _, steps = optimize(parse_term(_wide(50, w)), max_passes=1000)
        assert len(steps) == 100
        made[w] = tried
    # 50 × 50 more Seq links, each tried once by each of the two Seq rules;
    # restarting from the root after each rewrite tried them 4.16 M more times
    assert made[100] - made[50] <= 2 * 2500


# ---------------------------------------------------------------------------
# validation


def test_equivalent_terms_validate_cleanly():
    report = validate(fx.FORCE_THUNK, parse_term("prd 0"), fuel=100)
    assert report.verdict is Verdict.Equivalent
    assert report.failures == ()
    assert bool(report)


def test_distinct_results_fail_both_routes():
    report = validate(parse_term("prd 0"), parse_term("prd 1"), fuel=10)
    assert report.verdict is Verdict.Inequivalent
    assert len(report.failures) == 2
    assert not report


def test_whole_pipeline_validates_under_a_valuation():
    report = validate(fx.LAYERED_THUNKS, fx.OPEN_ADD, fuel=200,
                      valuations=({"a": 2, "b": 3},))
    assert report.verdict is Verdict.Equivalent


def test_multiple_valuations_all_checked():
    report = validate(fx.OPEN_ADD, parse_term("b + a"), fuel=50,
                      valuations=({"a": 1, "b": 2}, {"a": 5, "b": 0}))
    assert report.verdict is Verdict.Equivalent
    bad = validate(fx.OPEN_ADD, parse_term("a - b"), fuel=50,
                   valuations=({"a": 1, "b": 0}, {"a": 1, "b": 2}))
    assert bad.verdict is Verdict.Inequivalent
    # a - b and a + b agree at b = 0, so only the second valuation fails
    assert all("'b': 2" in f for f in bad.failures)


def test_matching_stuck_states_validate():
    report = validate(parse_term("1 . prd 2"), parse_term("3 . prd 4"), fuel=50)
    assert report.verdict is Verdict.Equivalent


def test_nontermination_is_reported_unknown():
    omega = parse_term("letrec f = force f in force f")
    report = validate(omega, omega, fuel=20)
    assert report.verdict is Verdict.Unknown
    assert report.failures == ()


def test_negative_fuel_is_reported_unknown():
    omega = parse_term("letrec f = force f in force f")
    report = validate(omega, omega, fuel=-1)
    assert report.verdict is Verdict.Unknown
    assert report.failures == ()
