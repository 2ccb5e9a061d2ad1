"""Equational rewrites over terms, with differential validation.

Each rule is a local equation applied at an arbitrary subterm position.
``optimize`` drives them to a fixpoint under an application budget, and
``validate`` replays original and rewritten terms through two independent
routes — structural reduction, and compiled graphs on the block machine —
so a soundness bug in a rule and a bug in one of the layers both surface
as a disagreement.

The sequence-elimination rule has two directions.  The binding direction
``prd V to x in M`` inlines V.  The unbinding direction rewrites
``N to x in prd x`` to ``N`` and is only sound when N ends in a producer;
``_producer_shaped`` approximates that conservatively (a lambda or an
opaque forced value would change the halting classification).
"""

from enum import Enum, auto
from functools import reduce

from . import harness, sos
from .sos import ProducedValue, Terminal, Verdict
from .syntax import (
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
    alpha_eq,
    child,
    frozen,
    iter_subterms,
    path_text,
    substitute,
    with_child,
)


class RuleId(Enum):
    ForceThunk = auto()
    Beta = auto()
    MoveElim = auto()
    ConstFold = auto()
    Inline = auto()
    DeadTrue = auto()
    DeadFalse = auto()
    BranchElim = auto()


ALL_RULES = frozenset(RuleId)


class NoMatch(Exception):
    pass


@frozen()
class RewriteStep:
    rule: RuleId
    at: tuple
    before: object
    after: object


# ---------------------------------------------------------------------------
# rule matching


def _producer_shaped(n) -> bool:
    """Whether a computation's result position is a producer, conservatively."""
    todo = [n]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is Prd or t is Op:
            continue
        if t is Seq:
            todo.append(n.right)
        elif t is If0:
            todo += (n.then, n.orelse)
        elif t is Force and type(n.value) is ThunkV:
            todo.append(n.value.body)
        elif t is App and type(n.body) is Lam:
            todo.append(n.body.body)
        elif t is LetRec:
            todo.append(n.body)
        else:
            return False  # Lam, or anything opaque
    return True


def _rewrite(rule: RuleId, node):
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
            new = _rewrite(rule, node)
            if new is not None:
                yield rule, p, new


def find_redexes(m, rules=None):
    return [(rule, p) for rule, p, _ in _redexes(m, rules)]


def _replace(term, p, new):
    spine = []
    for i in reversed(p):
        spine.append((term, i))
        term = child(term, i)
    for parent, i in reversed(spine):
        new = with_child(parent, i, new)
    return new


def apply_rule(m, rule: RuleId, at: tuple):
    new = _rewrite(rule, reduce(child, reversed(at), m))
    if new is None:
        raise NoMatch(f"{rule.name} does not match at {path_text(at)}")
    return _replace(m, at, new)


# ---------------------------------------------------------------------------
# the driver


def optimize(m, rules=None, max_passes=100):
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


def log_lines(steps):
    return [f"{s.rule.name} @ {path_text(s.at)}" for s in steps]


# ---------------------------------------------------------------------------
# differential validation


@frozen()
class ValidationReport:
    verdict: Verdict
    failures: tuple

    def __bool__(self):
        return self.verdict is Verdict.Equivalent


def _close(m, valuation):
    if not valuation:
        return m
    return substitute(m, {x: NumV(n) for x, n in valuation.items()})


def _graph_observation(m, fuel):
    """Run the compiled graph to a halt; None when fuel runs out."""
    mach = harness.machine("cfg", m)
    halt, _, _ = harness.run(mach, fuel)
    if type(halt) is Terminal and type(halt.kind) is ProducedValue:
        return Terminal(ProducedValue(mach.value(halt.kind.value)))
    return halt


def validate(m1, m2, fuel=1000, valuations=({},)):
    """Compare two terms under each valuation through both routes."""
    failures = []
    unknown = False
    for valuation in valuations:
        a, b = _close(m1, valuation), _close(m2, valuation)
        tag = f"valuation {valuation!r}" if valuation else "no valuation"

        verdict = sos.observe_equiv(a, b, fuel)
        if verdict is Verdict.Inequivalent:
            failures.append(f"{tag}: structural observations differ")
        elif verdict is Verdict.Unknown:
            unknown = True

        ga, gb = _graph_observation(a, fuel), _graph_observation(b, fuel)
        if ga is None or gb is None:
            unknown = True
        elif not sos.observations_match(ga, gb):
            failures.append(f"{tag}: graph observations differ ({ga} vs {gb})")

    if failures:
        return ValidationReport(Verdict.Inequivalent, tuple(failures))
    if unknown:
        return ValidationReport(Verdict.Unknown, ())
    return ValidationReport(Verdict.Equivalent, ())
