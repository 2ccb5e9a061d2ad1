"""Differential drivers pairing adjacent machines, plus a term generator.

Each adjacent pair of levels is checked in lockstep from its load states:
at every step the lower machine's state is unloaded and compared against
the upper one, then both take a step and their halts must classify alike.
Each pair compares by one rule: peak/pek modulo advancing
(``canon_state``), since pek loads past the search nodes peak starts on,
and every other pair strictly.  peak and pek share their value lookup
(γ), frame conversion (δ) and advancement (η), so a fault in those is
invisible to the peak/pek pair; the cek/peak and pek/cfg pairs see it,
as cek and compile each derive them on their own.
``tower_check`` closes the loop across the whole tower, comparing the
block machine's trajectory against structural reduction one step at a
time while also re-checking well-formedness at each visited state.

Divergent programs are never run to completion — every driver checks
commutation up to its fuel and reports success if no square broke.

Every visited state is unloaded in full, yet a checked step costs about
what the step changed.  Environments (``peak.Env``) and continuations
(``cek.Frames``) are immutable chains of ``cek.Cell``s, so what a check
derives from a cell holds as long as the cell lives, and is kept on it
(``Cell.memo_of``): the well-formedness verdict, and, made by
``Cell.derive``, the unload one level up of the chain from that cell down,
``canon_state``'s canonical chain and the evaluation context the tower
check hands sos (``cek.context``).  peak keeps the unload of the argument
stack at the program counter on cells too.  A step makes at most one
environment cell and pushes a few continuation cells, so that is all a
check of it derives, and the unloads of an unchanged tail are the same
objects, at which equality stops.

``tower_check`` does not plug a state into a whole term.  It reads each
CEK state as a focus, the environment flattened into the code, in an
evaluation context, and sos steps that decomposition (``sos.step_in``):
it descends only inside the focus, or fires the context's top frame.  The
step is compared with the next state only above the context tail the two
share, so a checked step plugs, steps and compares a few frames however
deep its continuation is; only a failure is plugged in full, to print it.
The sos/cek lockstep check still plugs every state into a whole term
(``cek.unload``) and pays once per frame of the continuation for that,
for sos's descent and for ``alpha_eq``, on purpose: sos runs whole terms
there, and that is what the pair checks.  peak's unload keeps what it
builds on the cell it reads, one object per cell and per anchor, cek
flattens an environment in one substitution and keeps the flattening of
each frame, closure and sequence frame on those frozen objects, and
``alpha_eq`` does not walk a subterm object both sides share.
The checks of one term object share one Prog, as ``as_prog`` keeps the
last one it built: the position index, the machines' static tables and
the compiled graph (``cfg.load``) are made once for all of them.
"""

import random
from dataclasses import field, fields, is_dataclass
from enum import Enum
from functools import partial
from operator import eq
from typing import Callable

from . import cek, cfg, peak, pek, sos
from .cek import Frames
from .peak import Env, KArg, KSeq, PClosure, PeakState
from .printer import print_term
from .sos import Next, ProducedValue, Stuck, Terminal, _halted
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
    frozen,
)

class LevelPair(Enum):
    SOS_CEK = "sos/cek"
    CEK_PEAK = "cek/peak"
    PEAK_PEK = "peak/pek"
    PEK_CFG = "pek/cfg"


class _Text(str):
    """Text that ``_render`` emits as it is, not a value that it shows."""


def _render(x, prog) -> str:
    """``repr(x)``, but with each position id, in a field marked
    ``peak.POSITION`` or an environment binder, shown by ``Prog.path_text``.
    What is still to show waits on a stack, so environments, frames and
    closures show however deep they nest."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        t = type(x)
        if t is _Text:
            out.append(x)
            continue
        if t is Env:
            head, tail = "Env({", "})"
            items = [(f"{prog.path_text(b)}: ", v) for b, v in x.items()]
        elif t is tuple or t is Frames:  # a chain of cells shows as a tuple
            head, tail = "(", ",)" if len(x) == 1 else ")"
            items = [("", v) for v in x]
        elif is_dataclass(x):
            head, tail, items = f"{t.__name__}(", ")", []
            for f in fields(x):
                if f.repr:
                    v = getattr(x, f.name)
                    if f.metadata.get("position"):
                        v = _Text(prog.path_text(v))
                    items.append((f"{f.name}=", v))
        else:
            out.append(repr(x))
            continue
        parts = [_Text(head)]
        for k, (label, v) in enumerate(items):
            parts += (_Text(", " + label if k else label), v)
        parts.append(_Text(tail))
        todo += reversed(parts)
    return "".join(out)


def _show(x, prog):
    try:
        return print_term(x)
    except TypeError:
        return _render(x, prog)


@frozen()
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


@frozen()
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
    cell where nothing changes, and derived once per cell
    (``Cell.derive``), so only cells new since the last call are walked."""
    return e.derive(prog, "canon", _canon_cell)


def _canon_cell(prog, e: Env, out: Env) -> Env:
    """Cell ``e`` with its closure named by its entry point, over ``out``,
    the canonical chain of its tail: ``e`` itself when nothing changes."""
    v = _canon_val(prog, e.value)
    return e if v is e.value and out is e.rest else Env(e.binder, v, out)


def _canon_kont(prog, kont: Frames) -> Frames:
    """``kont`` with every frame's closures named by their entry points,
    derived once per cell as ``_canon_env`` is."""
    return kont.derive(prog, "canon", _canon_frame)


def _canon_frame(prog, c: Frames, out: Frames) -> Frames:
    """Cell ``c`` with its frame's closures named by their entry points,
    over ``out``, the canonical chain of its tail: ``c`` itself when
    nothing changes."""
    f = c.frame
    if type(f) is KArg:
        v = _canon_val(prog, f.value)
        g = f if v is f.value else KArg(v)
    else:
        env = _canon_env(prog, f.env)
        g = f if env is f.env else KSeq(f.pos, env, f.rest_args)
    return c if g is f and out is c.rest else Frames(g, out)


def canon_state(prog, rho: PeakState) -> PeakState:
    """Advance to the next instruction and name code by its entry point."""
    rho = peak.advance(prog, rho)
    return PeakState(
        rho.pc, _canon_env(prog, rho.env), rho.args, _canon_kont(prog, rho.kont)
    )


# ---------------------------------------------------------------------------
# one record per machine, the loop that runs it, and halt comparison


@frozen()
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


def _ident(x):
    return x


def machine(name: str, m) -> Machine:
    """Load ``m`` on the named machine: sos, cek, peak, pek or cfg."""
    prog = as_prog(m)
    if name == "sos":
        return Machine(prog.term, sos._sos_step, sos.describe, _ident, _ident)
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


def run(mach: Machine, fuel: int, emit=None):
    """Step from the load state to a halt, taking at most ``fuel`` steps:
    ``sos.drive`` from ``mach.state`` by ``mach.step``, whose ``(halt,
    steps, state)`` it returns."""
    return sos.drive(mach.state, mach.step, fuel, emit)


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
    Each pair compares by its own rule: peak/pek modulo advancing, as pek
    loads past peak's binding spine, and every other pair strictly.
    ``mode`` is accepted and ignored, like the CLI's ``--modulo-advance``."""
    prog = as_prog(m)
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


def _decompose(prog, s):
    """Block machine state ``s`` unloaded to the CEK state and read as sos
    steps it: ``(focus, context)``, the environment flattened into the code
    and the continuation's evaluation context (``cek.context``)."""
    sigma = peak.unload(prog, pek.unload(prog, s))
    kont = sigma.kont
    context = cek.context(prog, kont) if kont.size else kont  # NIL is its own
    return cek.unload_env(sigma.env, sigma.code), context


def _above(ta, a: Frames, tb, b: Frames):
    """``ta`` and ``tb`` plugged into the frames of context chains ``a``
    and ``b`` above the tail the two chains share."""
    if a is b:
        return ta, tb
    fa, fb = [], []
    while a.size > b.size:
        fa.append(a.frame)
        a = a.rest
    while b.size > a.size:
        fb.append(b.frame)
        b = b.rest
    while a is not b:
        fa.append(a.frame)
        fb.append(b.frame)
        a, b = a.rest, b.rest
    return sos.plug(ta, fa), sos.plug(tb, fb)


def _arrives(decompose, ahead, s):
    """Whether sos's step ``ahead``, ``(r, rest)`` from ``sos.step_in``,
    arrives at block machine state ``s``, read by ``decompose``.  Returns
    ``(here, None)`` with the decomposition of ``s`` when it does, and
    otherwise ``(None, (expected, got))`` as a failure line shows them:
    whole terms.

    Only the frames above the context tail both sides share are plugged and
    compared.  A frame never puts its hole under a binder, so the terms
    plugged into one context are alpha-equivalent exactly when they are."""
    r, rest = ahead
    if type(r) is not Next:
        return None, (r, s)
    here, err = _unloads(decompose, s)
    if err is not None:
        return None, (sos.plug(r.term, rest), err)
    focus, context = here
    ta, tb = _above(r.term, rest, focus, context)
    if not alpha_eq(ta, tb):
        return None, (sos.plug(r.term, rest), sos.plug(focus, context))
    return here, None


def tower_check(m, fuel: int = 1000) -> Report:
    """Run the block machine, checking each visited state for well-formedness
    and each step against the structural step of the state unloaded.

    sos steps each state as the decomposition it unloads to (``_decompose``,
    ``sos.step_in``), and the step is compared with the next state only
    above the context tail the two share, so a checked step pays for what
    it changed and not for the depth of its continuation.  A failure shows
    both sides plugged into whole terms."""
    level = "sos/cfg"
    prog = as_prog(m)
    low = machine("cfg", prog)

    def broken(checked, step, expected, actual):
        return Report(prog.term, checked, (Failure(step, level, expected, actual, prog),))

    decompose = partial(_decompose, prog)
    s, i = low.state, 0
    while True:
        if i:
            here, bad = _arrives(decompose, ahead, s)
            if bad is not None:
                return broken(i - 1, i, *bad)
        wf = pek.wf_check(prog, s)
        if not wf.ok:
            return broken(i, i, "well-formed state", "; ".join(wf.violations))
        if not i:
            here, err = _unloads(decompose, s)
            if err is not None:
                return broken(0, 0, "a state that unloads", err)
        ahead = sos.step_in(*here)
        r = low.step(s)
        if _halted(r):
            a, rest = ahead
            if type(a) is Next:
                return broken(i, i + 1, Next(sos.plug(a.term, rest)), r)
            if not _halts_align(a, r, low.value, alpha_eq):
                return broken(i, i + 1, a, r)
            return Report(prog.term, i + 1)
        if i >= fuel:
            _, bad = _arrives(decompose, ahead, r)
            return Report(prog.term, i) if bad is None else broken(i, i + 1, *bad)
        s, i = r, i + 1


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
