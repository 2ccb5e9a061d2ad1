"""optimize against the search it replaced.

The oracle is the earlier optimize, kept as it was: it searches the whole
term from the root after every rewrite, and at each node tries every
enabled rule in ``RuleId`` order through one matcher that tests the node's
type rule by rule.  ``optimize`` resumes one typed walk where the last
rewrite landed instead, and must give the same result and the same log on
every term, rule set and budget.
"""

import pytest

from cbpv import fixtures as fx
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.printer import print_term
from cbpv.rewrite import (
    ALL_RULES,
    RewriteStep,
    RuleId,
    _producer_shaped,
    _rewrite,
    log_lines,
    optimize,
)
from cbpv.syntax import (
    App,
    Force,
    If0,
    Lam,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    VarV,
    alpha_eq,
    child,
    iter_subterms,
    substitute,
    with_child,
)

from test_acceptance import CORPUS

# ---------------------------------------------------------------------------
# the oracle


def restart_rewrite(rule: RuleId, node):
    """The rewritten subterm when the rule matches here, else None."""
    t = type(node)

    if rule is RuleId.ForceThunk:
        if t is Force and type(node.value) is ThunkV:
            return node.value.body

    elif rule is RuleId.Beta:
        if t is App and type(node.body) is Lam:
            return substitute(node.body.body, {node.body.binder: node.arg})

    elif rule is RuleId.MoveElim:
        if t is Seq:
            if type(node.left) is Prd:
                return substitute(node.right, {node.binder: node.left.value})
            r = node.right
            if (
                type(r) is Prd
                and type(r.value) is VarV
                and r.value.name == node.binder
                and _producer_shaped(node.left)
            ):
                return node.left

    elif rule is RuleId.ConstFold:
        if (
            t is Seq
            and type(node.left) is Op
            and type(node.left.lhs) is NumV
            and type(node.left.rhs) is NumV
        ):
            n = node.left.op.apply(node.left.lhs.n, node.left.rhs.n)
            return substitute(node.right, {node.binder: NumV(n)})

    elif rule is RuleId.Inline:
        if (
            t is App
            and type(node.body) is Lam
            and type(node.arg) is ThunkV
            and type(node.arg.body) is Lam
        ):
            return substitute(node.body.body, {node.body.binder: node.arg})

    elif rule is RuleId.DeadTrue:
        if t is If0 and type(node.guard) is NumV and node.guard.n == 0:
            return node.then

    elif rule is RuleId.DeadFalse:
        if t is If0 and type(node.guard) is NumV and node.guard.n != 0:
            return node.orelse

    elif rule is RuleId.BranchElim:
        if (
            t is If0
            and type(node.guard) in (NumV, VarV)
            and alpha_eq(node.then, node.orelse)
        ):
            return node.then

    return None


def _redexes(m, rules):
    """Every matching (rule, position, rewrite), positions in preorder."""
    enabled = [r for r in RuleId if rules is None or r in rules]
    for p, node in iter_subterms(m):
        for rule in enabled:
            new = restart_rewrite(rule, node)
            if new is not None:
                yield rule, p, new


def _replace(term, p, new):
    spine = []
    for i in reversed(p):
        spine.append((term, i))
        term = child(term, i)
    for parent, i in reversed(spine):
        new = with_child(parent, i, new)
    return new


def restart_optimize(m, rules=None, max_passes=100):
    """Apply the first matching rule repeatedly, up to the pass budget."""
    steps = []
    cur = m
    for _ in range(max_passes):
        hit = next(_redexes(cur, rules), None)
        if hit is None:
            break
        rule, p, new = hit
        nxt = _replace(cur, p, new)
        steps.append(RewriteStep(rule, p, cur, nxt))
        cur = nxt
    return cur, tuple(steps)


# ---------------------------------------------------------------------------
# the comparison

RULE_SETS = {
    **{r.name: frozenset({r}) for r in RuleId},
    "no_BranchElim": ALL_RULES - {RuleId.BranchElim},  # perfbench's _explain
    "all": None,
}
BUDGETS = (1, 2, 3, 100)


def _disagreements(terms, rules):
    """Each (term index, budget) where optimize and the oracle differ."""
    bad = []
    for i, t in enumerate(terms):
        for budget in BUDGETS:
            want, want_steps = restart_optimize(t, rules, budget)
            got, steps = optimize(t, rules, budget)
            if (got, log_lines(steps)) != (want, log_lines(want_steps)):
                bad.append((i, budget))
    return bad


_SETS = {
    "programs": lambda: list(fx.PROGRAMS.values()),
    "acceptance": lambda: CORPUS,
    "verify_style": lambda: [gen_term(s, s % 26, closed=s % 5 != 4) for s in range(3000, 4000)],
    "size60": lambda: [gen_term(s, 60, closed=s % 2 == 0) for s in range(200)],
}


@pytest.fixture(scope="module", params=list(_SETS))
def corpus(request):
    return _SETS[request.param]()


@pytest.mark.parametrize("rules", list(RULE_SETS.values()), ids=list(RULE_SETS))
def test_optimize_matches_the_restarting_search(corpus, rules):
    assert _disagreements(corpus, rules) == []


def test_each_rule_matches_as_before(corpus):
    """The table's matcher for each rule gives what the oracle's does on
    every node, whatever its type."""
    bad = [
        (i, rule)
        for i, t in enumerate(corpus)
        for _, node in iter_subterms(t)
        for rule in RuleId
        if _rewrite(rule, node) != restart_rewrite(rule, node)
    ]
    assert bad == []


def test_deep_term_at_the_default_recursion_limit():
    """The walk and the oracle on a redex chain under 2,000 lambdas.  Terms
    this deep are compared printed: ``==`` on them recurses."""
    text = "\\y. " * 2000 + "force thunk { " * 10 + "prd 0" + " }" * 10
    want, want_steps = restart_optimize(parse_term(text), None, 10)
    got, steps = optimize(parse_term(text), None, 10)
    assert log_lines(steps) == log_lines(want_steps)
    assert len(steps) == 10
    assert [print_term(s.after) for s in steps] == [print_term(s.after) for s in want_steps]
    assert print_term(got) == print_term(want)
