"""Small-step structural operational semantics.

This is the root of the tower: one deterministic step function over source
terms, with letrec heads virtually unrolled before dispatch.  Every machine
below is checked against it by unloading states back to terms.

Stuck terms carry a reason.  The reasons are chosen so that the machines
agree with the SOS not just on *where* evaluation gets stuck but on *why*:
an application over a producer is rejected before the producer's operands
are even looked at, while a sequenced arithmetic node fails on its operands.
"""

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .printer import print_term
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
    Value,
    alpha_eq,
    substitute,
)

# ---------------------------------------------------------------------------
# results


class StuckReason(enum.Enum):
    ForceNonThunk = "ForceNonThunk"
    GuardNotNumeral = "GuardNotNumeral"
    ApplyNonFunction = "ApplyNonFunction"
    SequencedNonProducer = "SequencedNonProducer"
    ArithNonNumeral = "ArithNonNumeral"
    UnboundPath = "UnboundPath"


@dataclass(frozen=True)
class ProducedValue:
    value: Value


@dataclass(frozen=True)
class AwaitingArgument:
    pass


@dataclass(frozen=True)
class BareArith:
    """A bare arithmetic node in the empty context; carries its result."""

    n: int


TerminalKind = Union[ProducedValue, AwaitingArgument, BareArith]


@dataclass(frozen=True)
class Next:
    term: object


@dataclass(frozen=True)
class Terminal:
    kind: TerminalKind


@dataclass(frozen=True)
class Stuck:
    reason: StuckReason


StepResult = Union[Next, Terminal, Stuck]


@dataclass(frozen=True)
class FuelExhausted:
    pass


@dataclass(frozen=True)
class RunOutcome:
    steps_taken: int
    result: object  # StepResult or FuelExhausted
    trace: Optional[tuple] = None


class Verdict(enum.Enum):
    Equivalent = "Equivalent"
    Inequivalent = "Inequivalent"
    Unknown = "Unknown"


# ---------------------------------------------------------------------------
# letrec unrolling


def unroll(m):
    """Expose a non-letrec head by substituting recursive thunks."""
    while type(m) is LetRec:
        sub = {}
        for name, d in m.defs:
            if name not in sub:  # leftmost definition of a duplicated name wins
                sub[name] = ThunkV(LetRec(m.defs, d))
        m = substitute(m.body, sub)
    return m


# ---------------------------------------------------------------------------
# one step


def step(m) -> StepResult:
    return _step(unroll(m))


def _step(m) -> StepResult:
    # m is letrec-unrolled at the head
    t = type(m)
    if t is Force:
        v = m.value
        if type(v) is ThunkV:
            return Next(v.body)
        return Stuck(StuckReason.ForceNonThunk)
    if t is If0:
        g = m.guard
        if type(g) is NumV:
            return Next(m.then if g.n == 0 else m.orelse)
        return Stuck(StuckReason.GuardNotNumeral)
    if t is App:
        n = unroll(m.body)
        tn = type(n)
        if tn is Lam:
            return Next(substitute(n.body, {n.binder: m.arg}))
        if tn is Prd or tn is Op:
            # context mismatch is detected before operands are evaluated
            return Stuck(StuckReason.ApplyNonFunction)
        r = _step(n)
        return Next(App(m.arg, r.term)) if type(r) is Next else r
    if t is Seq:
        n = unroll(m.left)
        tn = type(n)
        if tn is Prd:
            return Next(substitute(m.right, {m.binder: n.value}))
        if tn is Op:
            if type(n.lhs) is NumV and type(n.rhs) is NumV:
                folded = NumV(n.op.apply(n.lhs.n, n.rhs.n))
                return Next(substitute(m.right, {m.binder: folded}))
            return Stuck(StuckReason.ArithNonNumeral)
        if tn is Lam:
            return Stuck(StuckReason.SequencedNonProducer)
        r = _step(n)
        return Next(Seq(r.term, m.binder, m.right)) if type(r) is Next else r
    if t is Prd:
        return Terminal(ProducedValue(m.value))
    if t is Lam:
        return Terminal(AwaitingArgument())
    if t is Op:
        if type(m.lhs) is NumV and type(m.rhs) is NumV:
            return Terminal(BareArith(m.op.apply(m.lhs.n, m.rhs.n)))
        return Stuck(StuckReason.ArithNonNumeral)
    raise TypeError(f"not a computation: {m!r}")


# ---------------------------------------------------------------------------
# redex depth


def redex_depth(m) -> Optional[int]:
    """How much deeper the evaluation context grows when ``m`` steps.

    Counts the congruence descents through App bodies and Seq left sides
    whose context frame survives the firing of the base rule.  None when the
    term is terminal at the root or stuck before any descent.
    """
    d = 0
    m = unroll(m)
    while True:
        t = type(m)
        if t is App:
            n = unroll(m.body)
            tn = type(n)
            if tn is Lam:
                return d  # the pushed argument is consumed immediately
            if tn is Prd or tn is Op:
                return d + 1  # stuck, but only after descending
            d += 1
            m = n
        elif t is Seq:
            n = unroll(m.left)
            tn = type(n)
            if tn is Prd:
                return d
            if tn is Op:
                if type(n.lhs) is NumV and type(n.rhs) is NumV:
                    return d
                return d + 1
            if tn is Lam:
                return d + 1
            d += 1
            m = n
        elif t is Force:
            if type(m.value) is ThunkV:
                return d
            return d if d else None
        elif t is If0:
            if type(m.guard) is NumV:
                return d
            return d if d else None
        else:  # Prd, Lam, Op: terminal or stuck without any descent
            return None


# ---------------------------------------------------------------------------
# runner


def run(m, fuel: int, collect_trace: bool = False) -> RunOutcome:
    """Iterate step, spending one unit of fuel per transition taken."""
    trace = [m] if collect_trace else None
    steps = 0
    cur = m
    while True:
        r = step(cur)
        if type(r) is not Next:
            return RunOutcome(steps, r, tuple(trace) if trace is not None else None)
        if steps == fuel:
            return RunOutcome(steps, FuelExhausted(), tuple(trace) if trace is not None else None)
        steps += 1
        cur = r.term
        if trace is not None:
            trace.append(cur)


def describe(t, i: int) -> str:
    return f"sos {i}: {print_term(t)}"


# ---------------------------------------------------------------------------
# observational comparison


def _numeric_observable(kind) -> Optional[int]:
    if type(kind) is BareArith:
        return kind.n
    if type(kind) is ProducedValue and type(kind.value) is NumV:
        return kind.value.n
    return None


def observations_match(a: StepResult, b: StepResult) -> bool:
    """Coarse halt comparison: a produced numeral and a bare arithmetic
    result with the same value count as the same observation; stuck states
    match regardless of reason; other payloads compare up to alpha."""
    ta, tb = type(a), type(b)
    if ta is Stuck and tb is Stuck:
        return True
    if ta is not Terminal or tb is not Terminal:
        return False
    ka, kb = a.kind, b.kind
    na, nb = _numeric_observable(ka), _numeric_observable(kb)
    if na is not None or nb is not None:
        return na == nb
    if type(ka) is ProducedValue and type(kb) is ProducedValue:
        return alpha_eq(ka.value, kb.value)
    return type(ka) is type(kb)


def observe_equiv(m1, m2, fuel: int) -> Verdict:
    r1 = run(m1, fuel)
    r2 = run(m2, fuel)
    if type(r1.result) is FuelExhausted or type(r2.result) is FuelExhausted:
        return Verdict.Unknown
    return (
        Verdict.Equivalent
        if observations_match(r1.result, r2.result)
        else Verdict.Inequivalent
    )
