"""Small-step structural operational semantics.

This is the root of the tower: one deterministic step function over source
terms, with letrec heads virtually unrolled before dispatch.  Every machine
below is checked against it by unloading states back to terms.

A term can also be stepped as a decomposition: a focus in the hole of an
evaluation context (``step_in``).  The context is a chain of cells, top
(innermost) frame first, whose frames are an ``App`` with the hole in its
body or a ``Seq`` with the hole in its left side, the hole being ``HOLE``.
Such a step descends only inside the focus, or fires the top frame on the
focus, after checking that it is one of those two shapes: the same step,
with the same rules, as ``step`` takes on the context plugged with the
focus (``plug``), and the frames below stay as they are.  So stepping a
decomposition costs what the step changes, however deep the context is;
this is refocusing (Danvy & Nielsen, BRICS RS-04-26, 2004).  The tower
check hands sos the decomposition a CEK state unloads to.

Unrolling a letrec substitutes its bundle of recursive thunks into its
body, and a recursive call forces one of those thunks, whose letrec then
unrolls in turn.  ``unroll`` shares that work (``unroll`` says how): at
the first call the thunks of a bundle are built once and the unrolling of
each of its letrecs is kept, so a run unrolls a bundle of k definitions at
most k + 1 times, not once per call.  Only the last bundle called is kept,
keyed by the identity of its letrecs, in this module and not on the nodes,
so a kept unrolling makes no reference cycle.  Every term sos returns is
``==`` to the one unsharing unrolling gives.

Stuck terms carry a reason.  The reasons are chosen so that the machines
agree with the SOS not just on *where* evaluation gets stuck but on *why*:
an application over a producer is rejected before the producer's operands
are even looked at, while a sequenced arithmetic node fails on its operands.
"""

import enum
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
    frozen,
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


@frozen()
class ProducedValue:
    value: Value


@frozen()
class AwaitingArgument:
    pass


@frozen()
class BareArith:
    """A bare arithmetic node in the empty context; carries its result."""

    n: int


TerminalKind = Union[ProducedValue, AwaitingArgument, BareArith]


@frozen()
class Next:
    term: object


@frozen()
class Terminal:
    kind: TerminalKind


@frozen()
class Stuck:
    reason: StuckReason


StepResult = Union[Next, Terminal, Stuck]


@frozen()
class FuelExhausted:
    pass


@frozen()
class RunOutcome:
    steps_taken: int
    result: object  # StepResult or FuelExhausted


class Verdict(enum.Enum):
    Equivalent = "Equivalent"
    Inequivalent = "Inequivalent"
    Unknown = "Unknown"


# ---------------------------------------------------------------------------
# letrec unrolling


# The letrec bundle called last: ``({id(L): [L, L's unrolling or None]},
# the substitution of its recursive thunks)`` for each member letrec ``L``
# of the bundle.  Each key's letrec is held here, so its id is not reused
# while the entry lasts, and a hit is that very object.
_kept: tuple = ({}, {})


def unroll(m):
    """Expose a non-letrec head by substituting recursive thunks.

    A letrec ``L = letrec f1 = d1 and ... in body`` unrolls to ``body``
    with each ``fi`` replaced by ``thunk { letrec f1 = d1 and ... in di }``
    (the leftmost definition of a duplicated name wins).  Forcing such a
    thunk steps to that letrec, which unrolls in turn.  So the bundle's
    work is done once per run, not once per call.  The letrec a call steps
    to has one of its own definitions as its body; the first one unrolled
    builds the bundle's thunks, one per definition, around member letrecs
    built once (itself among them), and the unrolling of each member is
    kept.  Any other letrec, such as one met in the source, is unrolled as
    before and keeps nothing, so a run that makes no recursive call holds
    nothing afterwards.  A bundle of k definitions is unrolled at most
    k + 1 times, however often its functions are called.

    What is kept is the last bundle called, in ``_kept``, keyed by the
    identity of each member letrec, which it holds, never by ``==``.
    Another bundle replaces it, as another term replaces the Prog
    ``syntax.as_prog`` keeps.  It is not a memo on the LetRec node: an
    unrolling holds the thunks, which hold the member letrecs, so ``L ->
    unrolling -> thunk { L } -> L`` would be a cycle that only the
    collector frees.  Kept here, nothing a term reaches refers back to the
    table.
    """
    global _kept
    while type(m) is LetRec:
        members, thunks = _kept
        entry = members.get(id(m))
        if entry is None:
            members, thunks = _bundle(m)
            entry = members.get(id(m))
            if entry is None:  # not a call: unrolled once, and nothing kept
                m = substitute(m.body, thunks)
                continue
            _kept = members, thunks
        u = entry[1]
        if u is None:
            u = entry[1] = substitute(m.body, thunks)
        m = u
    return m


def _bundle(m) -> tuple:
    """The members and recursive thunks of the bundle of letrec ``m``."""
    members, thunks = {}, {}
    for name, d in m.defs:
        if name not in thunks:  # leftmost definition of a duplicated name wins
            member = m if d is m.body else LetRec(m.defs, d)
            members[id(member)] = [member, None]
            thunks[name] = ThunkV(member)
    return members, thunks


# ---------------------------------------------------------------------------
# one step


def step(m) -> StepResult:
    """One step.  The descent through the evaluation context (App bodies
    and Seq left sides) keeps its frames on a list rather than on the
    interpreter's stack, so a context of any depth steps."""
    m = unroll(m)
    frames = []
    while True:
        t = type(m)
        if t is Force:
            v = m.value
            if type(v) is ThunkV:
                term = v.body
                break
            return Stuck(StuckReason.ForceNonThunk)
        if t is If0:
            g = m.guard
            if type(g) is NumV:
                term = m.then if g.n == 0 else m.orelse
                break
            return Stuck(StuckReason.GuardNotNumeral)
        if t is App:
            n = unroll(m.body)
            tn = type(n)
            if tn is Lam:
                term = substitute(n.body, {n.binder: m.arg})
                break
            if tn is Prd or tn is Op:
                # context mismatch is detected before operands are evaluated
                return Stuck(StuckReason.ApplyNonFunction)
        elif t is Seq:
            n = unroll(m.left)
            tn = type(n)
            if tn is Prd:
                term = substitute(m.right, {m.binder: n.value})
                break
            if tn is Op:
                if type(n.lhs) is NumV and type(n.rhs) is NumV:
                    folded = NumV(n.op.apply(n.lhs.n, n.rhs.n))
                    term = substitute(m.right, {m.binder: folded})
                    break
                return Stuck(StuckReason.ArithNonNumeral)
            if tn is Lam:
                return Stuck(StuckReason.SequencedNonProducer)
        # a frame fires on a Prd, Lam or Op below it, so these are the root
        elif t is Prd:
            return Terminal(ProducedValue(m.value))
        elif t is Lam:
            return Terminal(AwaitingArgument())
        elif t is Op:
            if type(m.lhs) is NumV and type(m.rhs) is NumV:
                return Terminal(BareArith(m.op.apply(m.lhs.n, m.rhs.n)))
            return Stuck(StuckReason.ArithNonNumeral)
        else:
            raise TypeError(f"not a computation: {m!r}")
        frames.append(m)  # an App or Seq whose body or left side steps
        m = n
    for f in reversed(frames):
        term = App(f.arg, term) if type(f) is App else Seq(term, f.binder, f.right)
    return Next(term)


# ---------------------------------------------------------------------------
# one step of a decomposition

HOLE = None  # the hole of a context frame


def plug(term, frames):
    """``term`` in the hole of the evaluation context ``frames``, given
    innermost first: each an ``App`` whose body or a ``Seq`` whose left side
    is the hole, or is the term that steps."""
    for f in frames:
        term = App(f.arg, term) if type(f) is App else Seq(term, f.binder, f.right)
    return term


def step_in(focus, context):
    """One step of ``focus`` in the hole of ``context``, a chain of cells
    (``size``, ``frame``, ``rest``) whose top frame is the innermost.

    Returns ``(r, rest)``.  ``r`` is what ``step`` gives on the focus with
    at most the top frame plugged: that frame when the focus is a Prd, Lam
    or Op, which only it can consume, and none otherwise.  ``rest`` is the
    context under what ``r`` covers.  So the step of ``plug(focus,
    context)`` is ``r``, with a Next's term plugged into ``rest``: ``step``
    descends the context frames without firing them, since each holds an
    App or a Seq."""
    if context.size:
        focus = unroll(focus)
        t = type(focus)
        if t is Prd or t is Lam or t is Op:
            f = context.frame
            tf = type(f)
            if tf is App and f.body is HOLE:
                return step(App(f.arg, focus)), context.rest
            if tf is Seq and f.left is HOLE:
                return step(Seq(focus, f.binder, f.right)), context.rest
            raise TypeError(f"not an evaluation frame: {f!r}")
    return step(focus), context


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


def _halted(r) -> bool:
    return type(r) is Terminal or type(r) is Stuck


def drive(s, step, fuel: int, emit=None):
    """Step from state ``s`` to a halt, taking at most ``fuel`` steps; a
    negative fuel, like zero, takes none.  ``step`` maps a state to the
    next state or to a Terminal/Stuck halt.  This is the one run loop of
    every machine: ``run`` and ``harness.run`` both go through it.

    Returns ``(halt, steps, state)``: the Terminal/Stuck halt, or None when
    the step after the last fueled one still runs; the steps taken; and
    the last running state.  ``emit(state, i)`` sees every visited state,
    the load state as 0.
    """
    i = 0
    while True:
        if emit is not None:
            emit(s, i)
        r = step(s)
        if _halted(r):
            return r, i, s
        if i >= fuel:
            return None, i, s
        s, i = r, i + 1


def _sos_step(t):
    """``step`` as a machine step: the next term itself, or the halt."""
    r = step(t)
    return r.term if type(r) is Next else r


def run(m, fuel: int) -> RunOutcome:
    """Iterate step, spending one unit of fuel per transition taken."""
    halt, steps, _ = drive(m, _sos_step, fuel)
    return RunOutcome(steps, FuelExhausted() if halt is None else halt)


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
