"""Differential drivers pairing adjacent machines, plus a term generator.

Each adjacent pair of levels is checked in lockstep from its load states:
at every step the lower machine's state is unloaded and compared against
the upper one, then both take a step and their halts must classify alike.
``tower_check`` closes the loop across the whole tower, comparing the
block machine's trajectory against structural reduction one step at a
time while also re-checking well-formedness at each visited state.

Divergent programs are never run to completion — every driver checks
commutation up to its fuel and reports success if no square broke.

Every visited state is unloaded and compared in full, yet a checked step
costs about what the step changed.  Environments are immutable chains of
cells (``peak.Env``), so what a check derives from a cell holds as long as
the cell lives, and is kept on it: peak's unload of the chain, the
well-formedness verdict and ``canon_state``'s canonical chain.  A step
makes at most one new cell, so that is all a check of it walks.  peak's
unload also hash-conses what it builds in a weak table in the Prog's
``tables``, cek flattens an environment in one substitution and keeps the
flattening of each frame, closure and sequence frame on those frozen
objects, and ``alpha_eq`` does not walk a subterm object both sides share.
Passing one Prog to several checks shares the position index and the
unload table.
"""

import random
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import partial
from operator import eq
from typing import Callable

from . import cek, cfg, peak, pek, sos
from .peak import Env, KArg, KSeq, PClosure, PeakState
from .printer import print_term
from .sos import Next, ProducedValue, Stuck, Terminal
from .syntax import (
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
    alpha_eq,
    as_prog,
)

MODES = ("strict", "modulo_advance")


class LevelPair(Enum):
    SOS_CEK = "sos/cek"
    CEK_PEAK = "cek/peak"
    PEAK_PEK = "peak/pek"
    PEK_CFG = "pek/cfg"


def _path(prog, i) -> str:
    """Position id ``i`` as its dotted path, as traces show a pc, or ``no
    position i`` when it names none, as a broken machine's state may hold."""
    if type(i) is int and 0 <= i < len(prog.nodes):
        return prog.path_text(i)
    return f"no position {i!r}"


def _render(x, prog) -> str:
    """``repr(x)``, but with each position id, in a field marked
    ``peak.POSITION`` or an environment binder, shown by ``_path``."""
    t = type(x)
    if t is Env:
        inner = ", ".join(f"{_path(prog, b)}: {_render(v, prog)}" for b, v in x.items())
        return f"Env({{{inner}}})"
    if t is tuple:
        parts = [_render(v, prog) for v in x]
        return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
    if is_dataclass(x):
        parts = []
        for f in fields(x):
            if f.repr:
                v = getattr(x, f.name)
                shown = _path(prog, v) if f.metadata.get("position") else _render(v, prog)
                parts.append(f"{f.name}={shown}")
        return f"{t.__name__}({', '.join(parts)})"
    return repr(x)


def _show(x, prog):
    try:
        return print_term(x)
    except TypeError:
        return _render(x, prog)


@dataclass(frozen=True)
class Failure:
    step: int
    level: str
    expected: object
    actual: object
    prog: object = field(compare=False, repr=False)  # names the position ids

    def line(self) -> str:
        return (
            f"{self.level} step {self.step}: "
            f"expected {_show(self.expected, self.prog)}, got {_show(self.actual, self.prog)}"
        )


@dataclass(frozen=True)
class Report:
    program: object
    steps_checked: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def lines(self):
        return [f.line() for f in self.failures]


# ---------------------------------------------------------------------------
# canonicalization for comparisons modulo advancing


def _canon_val(prog, v):
    if type(v) is PClosure:
        entry, env = pek.eta(prog, v.entry), _canon_env(prog, v.env)
        if entry is not v.entry or env is not v.env:
            return PClosure(entry, env)
    return v


def _canon_env(prog, e: Env) -> Env:
    """``e`` with every closure on it named by its entry point: the same
    cell where nothing changes, and memoized on each cell, so only cells
    new since the last call are walked."""
    todo = []
    while True:
        memo = e.memo_of(prog)
        hit = memo.get("canon")
        if hit is not None or not e.size:
            break
        todo.append((e, memo))
        e = e.parent
    out = e if hit is None else hit
    for e, memo in reversed(todo):
        v = _canon_val(prog, e.value)
        if v is not e.value or out is not e.parent:
            out = Env(e.binder, v, out)
        else:
            out = e
        memo["canon"] = out
    return out


def _canon_kont(prog, kont):
    out = []
    for f in kont:
        if type(f) is KArg:
            out.append(KArg(_canon_val(prog, f.value)))
        else:
            out.append(KSeq(f.pos, _canon_env(prog, f.env), f.rest_args))
    return tuple(out)


def canon_state(prog, rho: PeakState) -> PeakState:
    """Advance to the next instruction and name code by its entry point."""
    rho = peak.advance(prog, rho)
    return PeakState(
        rho.pc, _canon_env(prog, rho.env), rho.args, _canon_kont(prog, rho.kont)
    )


# ---------------------------------------------------------------------------
# one record per machine, the loop that runs it, and halt comparison


@dataclass(frozen=True)
class Machine:
    """One machine of the tower, loaded with a program.

    ``step`` maps a state to the next state or to a Terminal/Stuck halt.
    ``describe(state, i)`` is the trace line for the ``i``-th state,
    ``unload`` reads a state back as a source term and ``value`` a
    produced value as a source value.
    """

    state: object
    step: Callable
    describe: Callable
    unload: Callable
    value: Callable


def _sos_step(t):
    r = sos.step(t)
    return r.term if type(r) is Next else r


def _ident(x):
    return x


def machine(name: str, m) -> Machine:
    """Load ``m`` on the named machine: sos, cek, peak, pek or cfg."""
    prog = as_prog(m)
    if name == "sos":
        return Machine(prog.term, _sos_step, sos.describe, _ident, _ident)
    if name == "cek":
        return Machine(cek.load(prog.term), cek.step, cek.describe, cek.unload, cek.unload_val)
    value = lambda v: cek.unload_val(peak.unload_v(prog, v))
    if name == "peak":
        unload = lambda s: cek.unload(peak.unload(prog, s))
        return Machine(
            peak.load(prog), partial(peak.step, prog), partial(peak.describe, prog), unload, value
        )
    unload = partial(cfg.unload, prog)  # cfg runs on pek's states
    if name == "pek":
        return Machine(
            pek.load(prog), partial(pek.step, prog), partial(pek.describe, prog), unload, value
        )
    if name != "cfg":
        raise ValueError(f"unknown machine: {name!r}")
    g, s = cfg.load(prog)
    return Machine(s, partial(cfg.step, g), partial(cfg.describe, g), unload, value)


def _halted(r) -> bool:
    return type(r) is Terminal or type(r) is Stuck


def run(mach: Machine, fuel: int, emit=None):
    """Step from the load state to a halt, taking at most ``fuel`` steps.

    Returns ``(halt, steps, state)``: the Terminal/Stuck halt, or None when
    the step after the last fueled one still runs; the steps taken; and
    the last running state.  ``emit(state, i)`` sees every visited state,
    the load state as 0.
    """
    s, i, step = mach.state, 0, mach.step
    while True:
        if emit is not None:
            emit(s, i)
        r = step(s)
        if _halted(r):
            return r, i, s
        if i >= fuel:
            return None, i, s
        s, i = r, i + 1


def _halts_align(upper, lower, convert, value_eq) -> bool:
    """Same classification; produced values compared after converting the
    lower payload into the upper level's representation."""
    if type(upper) is Stuck and type(lower) is Stuck:
        return upper == lower
    if type(upper) is not Terminal or type(lower) is not Terminal:
        return False
    ka, kb = upper.kind, lower.kind
    if type(ka) is not type(kb):
        return False
    if type(ka) is ProducedValue:
        try:
            return value_eq(ka.value, convert(kb.value))
        except cek.IllFormedState:
            return False
    return ka == kb


def _unloads(fn, s):
    """Unload a state, or surface the scoping violation it trips over.

    A state the unload function rejects cannot take part in a commutation
    square, so callers turn the message into an ordinary Failure instead
    of letting a broken machine crash the whole run.
    """
    try:
        return fn(s), None
    except cek.IllFormedState as exc:
        return None, f"state does not unload: {exc}"


# ---------------------------------------------------------------------------
# the lockstep driver for adjacent pairs


def lockstep_check(m, pair: LevelPair, fuel: int = 1000, mode=None) -> Report:
    """Compare unloaded lower states against the upper ones, from the load
    states through the one reached by the last fueled step, then the halts.
    Only the peak/pek row reads ``mode``.  It defaults to the pair's own:
    modulo advancing for peak/pek, as pek loads past peak's binding spine,
    and strict for the rest."""
    if mode is None:
        mode = "modulo_advance" if pair is LevelPair.PEAK_PEK else "strict"
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    prog = as_prog(m)
    if mode == "strict":
        peak_eq = peak_value_eq = eq
    else:
        peak_eq = lambda a, b: canon_state(prog, a) == canon_state(prog, b)
        peak_value_eq = lambda a, b: _canon_val(prog, a) == _canon_val(prog, b)
    # unload one level down, state equality, produced-value conversion and
    # equality, each at the upper level's representation
    table = {
        LevelPair.SOS_CEK: (cek.unload, alpha_eq, cek.unload_val, alpha_eq),
        LevelPair.CEK_PEAK: (partial(peak.unload, prog), eq, partial(peak.unload_v, prog), eq),
        LevelPair.PEAK_PEK: (partial(pek.unload, prog), peak_eq, _ident, peak_value_eq),
        LevelPair.PEK_CFG: (_ident, eq, _ident, eq),
    }
    unload, state_eq, convert, value_eq = table[pair]
    level = pair.value
    up, lo = (machine(name, prog) for name in level.split("/"))
    a, b = up.state, lo.state
    steps = 0
    while True:
        u, err = _unloads(unload, b)
        if err is not None:
            return Report(prog.term, steps, (Failure(steps, level, a, err, prog),))
        if not state_eq(a, u):
            return Report(prog.term, steps, (Failure(steps, level, a, u, prog),))
        if steps > fuel:
            return Report(prog.term, max(fuel, 0))
        ra, rb = up.step(a), lo.step(b)
        if _halted(ra) or _halted(rb):
            if not _halts_align(ra, rb, convert, value_eq):
                return Report(prog.term, steps, (Failure(steps + 1, level, ra, rb, prog),))
            return Report(prog.term, steps + 1)
        steps += 1
        a, b = ra, rb


# ---------------------------------------------------------------------------
# the full-tower square


class _Broken(Exception):
    """Carries a failing Report out of the run loop."""


def tower_check(m, fuel: int = 1000) -> Report:
    """Run the block machine, checking each visited state for well-formedness
    and each step against the structural step of the state unloaded."""
    level = "sos/cfg"
    prog = as_prog(m)
    low = machine("cfg", prog)
    ahead = None  # the structural step from the last visited state

    def fail(checked, step, expected, actual):
        raise _Broken(Report(prog.term, checked, (Failure(step, level, expected, actual, prog),)))

    def arrive(s, i):
        """The step into state ``i`` commutes; returns the state unloaded."""
        if type(ahead) is not Next:
            fail(i - 1, i, ahead, s)
        u, err = _unloads(low.unload, s)
        if err is not None or not alpha_eq(u, ahead.term):
            fail(i - 1, i, ahead.term, u if err is None else err)
        return u

    def visit(s, i):
        nonlocal ahead
        t = arrive(s, i) if i else None
        wf = pek.wf_check(prog, s)
        if not wf.ok:
            fail(i, i, "well-formed state", "; ".join(wf.violations))
        if t is None:
            t, err = _unloads(low.unload, s)
            if err is not None:
                fail(i, i, "a state that unloads", err)
        ahead = sos.step(t)

    try:
        halt, steps, last = run(low, fuel, visit)
        if halt is None:
            arrive(low.step(last), steps + 1)
            return Report(prog.term, steps)
    except _Broken as exc:
        return exc.args[0]
    if type(ahead) is Next or not _halts_align(ahead, halt, low.value, alpha_eq):
        return Report(prog.term, steps, (Failure(steps + 1, level, ahead, halt, prog),))
    return Report(prog.term, steps + 1)


# ---------------------------------------------------------------------------
# random well-scoped programs

_NAMES = ("a", "b", "f", "g", "x", "y", "z")


def gen_term(seed, size: int, closed: bool = True):
    """A deterministic pseudo-random term; closed=True forbids free variables."""
    rng = random.Random(f"{seed}/{size}/{closed}")
    return _gen_comp(rng, size, (), closed)


def _gen_value(rng, budget, scope, closed):
    kinds = ["num"]
    if scope:
        kinds.append("bound")
    if not closed:
        kinds.append("free")
    if budget > 0:
        kinds += ["thunk", "thunk"]
    kind = rng.choice(kinds)
    if kind == "num":
        return NumV(rng.randint(-9, 99))
    if kind == "bound":
        return VarV(rng.choice(scope))
    if kind == "free":
        return VarV(rng.choice(_NAMES))
    return ThunkV(_gen_comp(rng, budget - 1, scope, closed))


# weighted toward shapes that keep the machines stepping
_COMP_KINDS = (
    "seq", "seq", "seq", "app", "app", "if0", "if0",
    "force", "force", "letrec", "lam", "op", "prd",
)


def _gen_comp(rng, budget, scope, closed):
    if budget <= 0:
        return Prd(NumV(rng.randint(0, 9)))
    b = budget - 1
    split = rng.randint(0, b)
    kind = rng.choice(_COMP_KINDS)
    if kind == "force":
        if rng.random() < 0.8:
            return Force(ThunkV(_gen_comp(rng, b, scope, closed)))
        return Force(_gen_value(rng, b, scope, closed))
    if kind == "prd":
        return Prd(_gen_value(rng, b, scope, closed))
    if kind == "app":
        arg = _gen_value(rng, split, scope, closed)
        if rng.random() < 0.7:
            x = rng.choice(_NAMES)
            return App(arg, Lam(x, _gen_comp(rng, b - split, scope + (x,), closed)))
        return App(arg, _gen_comp(rng, b - split, scope, closed))
    if kind == "lam":
        x = rng.choice(_NAMES)
        return Lam(x, _gen_comp(rng, b, scope + (x,), closed))
    if kind == "seq":
        x = rng.choice(_NAMES)
        return Seq(
            _gen_comp(rng, split, scope, closed),
            x,
            _gen_comp(rng, b - split, scope + (x,), closed),
        )
    if kind == "letrec":
        names = [rng.choice(_NAMES) for _ in range(rng.randint(1, 2))]
        inner = scope + tuple(names)
        shares = [rng.randint(0, b // (len(names) + 1)) for _ in names]
        defs = tuple(
            (n, _gen_comp(rng, share, inner, closed)) for n, share in zip(names, shares)
        )
        return LetRec(defs, _gen_comp(rng, b - sum(shares), inner, closed))
    if kind == "if0":
        return If0(
            _gen_value(rng, 0, scope, closed),
            _gen_comp(rng, split, scope, closed),
            _gen_comp(rng, b - split, scope, closed),
        )
    lhs = _gen_value(rng, 0, scope, closed)
    rhs = _gen_value(rng, 0, scope, closed)
    return Op(lhs, rng.choice(list(ArithOp)), rhs)
