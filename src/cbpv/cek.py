"""The CEK environment machine: code, structured environment, continuation.

Environments are cons lists of frames.  A ``Bind`` frame is an ordinary
delayed substitution; a ``RecFrame`` holds a letrec bundle whose names are
in scope for the bundle's own definitions, so forcing a recursive name
creates the closure on demand instead of eagerly allocating one per
definition.

Looking up a recursive name yields ``Closure(LetRec(bundle, def_j), rest)``
over the environment *outside* the frame; re-entering that closure pushes a
fresh RecFrame, which keeps the machine in strict correspondence with the
pointer machines below (their program-counter environments record exactly
one frame per letrec node crossed).

Free variables are not errors: looking one up yields a symbolic value, so
open programs run until they genuinely get stuck, mirroring the semantics.

Equality of environments and closures is structural, walked with an
explicit stack, so a chain of any length compares without overflowing
Python's stack.  It stops at a pair that is one object or was found equal
before (kept on the left one as ``_twin``): the checks compare this
machine's state with one unloaded from below at every step, and each step
adds one frame on top of environments compared already.

Unloading flattens an environment into a term in one simultaneous
substitution: each name free in the term takes the value of the innermost
frame that binds it, flattened under the frames outside that frame.  That
flattened value is kept on the frame (one per definition name on a letrec
frame), and the flattening of a closure and of a sequence frame on that
object, as ``free_vars`` keeps its answer on a term.  That is sound because
every part of those objects is frozen too, and it pays off across steps
because both this machine and peak's unload (which hash-conses its output)
keep handing out the same objects while they stay in the state.  So an
unload substitutes once into the code, plus once for each frame, closure
and sequence frame it meets for the first time, however many bindings are
in scope.
"""

from dataclasses import dataclass
from typing import Optional, Union

from .sos import (
    AwaitingArgument,
    BareArith,
    ProducedValue,
    Stuck,
    StuckReason,
    Terminal,
)
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
    free_vars,
    freshen,
    iter_subterms,
    substitute,
)

# ---------------------------------------------------------------------------
# machine values


def _equal(a, b) -> bool:
    """Structural equality of two environments or values, with an explicit
    stack; a pair met twice, or found equal by an earlier call, is not
    walked again.  Every pair walked is equal when this returns True, so
    each left one keeps the right one as its twin."""
    todo, walked, seen = [(a, b)], [], set()
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b):
            return False
        if t is Bind or t is RecFrame or t is Closure:
            if a.__dict__.get("_twin") is b:
                continue
            pair = (id(a), id(b))  # both stay alive in what is compared
            if pair in seen:
                continue
            seen.add(pair)
            walked.append((a, b))
            if t is Bind:
                if a.name != b.name:
                    return False
                todo.append((a.rest, b.rest))
                todo.append((a.value, b.value))
            elif t is RecFrame:
                if a.defs is not b.defs and a.defs != b.defs:
                    return False
                todo.append((a.rest, b.rest))
            else:
                if a.code is not b.code and a.code != b.code:
                    return False
                todo.append((a.env, b.env))
        elif a != b:  # SymVar, NumC
            return False
    for a, b in walked:
        object.__setattr__(a, "_twin", b)  # frozen, so equal for good
    return True


def _eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _equal(self, other)


@dataclass(frozen=True)
class SymVar:
    """A free variable treated as an opaque value."""

    name: str


@dataclass(frozen=True)
class NumC:
    n: int


@dataclass(frozen=True)
class Closure:
    code: object  # Term
    env: Optional["CekEnv"]

    __eq__ = _eq


CekVal = Union[SymVar, NumC, Closure]


# ---------------------------------------------------------------------------
# environments and continuations


@dataclass(frozen=True)
class Bind:
    name: str
    value: CekVal
    rest: Optional["CekEnv"]

    __eq__ = _eq


@dataclass(frozen=True)
class RecFrame:
    defs: tuple  # ((name, Term), ...)
    rest: Optional["CekEnv"]

    __eq__ = _eq


CekEnv = Union[Bind, RecFrame]


@dataclass(frozen=True)
class ArgF:
    value: CekVal


@dataclass(frozen=True)
class SeqF:
    binder: str
    rest: object  # Term
    env: Optional[CekEnv]


@dataclass(frozen=True)
class CekState:
    code: object  # Term
    env: Optional[CekEnv]
    kont: tuple  # of ArgF/SeqF, top first


class IllFormedState(Exception):
    pass


# ---------------------------------------------------------------------------
# the gamma function


def lookup_value(v, env) -> CekVal:
    t = type(v)
    if t is ThunkV:
        return Closure(v.body, env)
    if t is NumV:
        return NumC(v.n)
    name = v.name
    e = env
    while e is not None:
        if type(e) is Bind:
            if e.name == name:
                return e.value
        else:
            for n, d in e.defs:  # leftmost definition wins
                if n == name:
                    return Closure(LetRec(e.defs, d), e.rest)
        e = e.rest
    return SymVar(name)


# ---------------------------------------------------------------------------
# stepping


def load(m) -> CekState:
    return CekState(m, None, ())


def step(sigma: CekState):
    """One machine step: descend to the innermost fireable node, then fire."""
    code, env, kont = sigma.code, sigma.env, sigma.kont

    while True:
        t = type(code)
        if t is LetRec:
            env = RecFrame(code.defs, env)
            code = code.body
        elif t is App:
            kont = (ArgF(lookup_value(code.arg, env)),) + kont
            code = code.body
        elif t is Seq:
            kont = (SeqF(code.binder, code.right, env),) + kont
            code = code.left
        else:
            break

    if t is Force:
        v = lookup_value(code.value, env)
        if type(v) is Closure:
            return CekState(v.code, v.env, kont)
        return Stuck(StuckReason.ForceNonThunk)

    if t is If0:
        g = lookup_value(code.guard, env)
        if type(g) is NumC:
            return CekState(code.then if g.n == 0 else code.orelse, env, kont)
        return Stuck(StuckReason.GuardNotNumeral)

    if t is Prd:
        if kont:
            f = kont[0]
            if type(f) is not SeqF:
                return Stuck(StuckReason.ApplyNonFunction)
            v = lookup_value(code.value, env)
            return CekState(f.rest, Bind(f.binder, v, f.env), kont[1:])
        return Terminal(ProducedValue(lookup_value(code.value, env)))

    if t is Lam:
        if kont:
            f = kont[0]
            if type(f) is not ArgF:
                return Stuck(StuckReason.SequencedNonProducer)
            return CekState(code.body, Bind(code.binder, f.value, env), kont[1:])
        return Terminal(AwaitingArgument())

    if t is Op:
        if kont and type(kont[0]) is ArgF:
            return Stuck(StuckReason.ApplyNonFunction)
        l = lookup_value(code.lhs, env)
        r = lookup_value(code.rhs, env)
        if type(l) is NumC and type(r) is NumC:
            n = code.op.apply(l.n, r.n)
            if kont:
                f = kont[0]
                return CekState(f.rest, Bind(f.binder, NumC(n), f.env), kont[1:])
            return Terminal(BareArith(n))
        return Stuck(StuckReason.ArithNonNumeral)

    raise TypeError(f"not a computation: {code!r}")


# ---------------------------------------------------------------------------
# unloading


def _flat(f, name):
    """The value of ``name`` bound by frame ``f``, flattened under the frames
    outside ``f``, if it is known; None if not yet.  A numeral is flattened
    on the spot and never kept."""
    if type(f) is Bind:
        v = f.value
        if type(v) is NumC:
            return NumV(v.n)
        return getattr(f, "_flat", None)
    memo = getattr(f, "_flat", None)
    return memo.get(name) if memo is not None else None


def _binders(env, names) -> list:
    """``(name, frame)`` for each of ``names`` bound in ``env``, by the
    innermost frame that binds it."""
    out = []
    need = set(names)
    e = env
    while e is not None and need:
        if type(e) is Bind:
            if e.name in need:
                need.discard(e.name)
                out.append((e.name, e))
        else:
            for n, _ in e.defs:  # leftmost definition wins
                if n in need:
                    need.discard(n)
                    out.append((n, e))
        e = e.rest
    return out


def _flatten(f, name):
    """``_flat(f, name)``, computing and keeping it, and every flattening it
    needs from the frames outside ``f``, with an explicit stack: a chain of
    letrec frames, each naming the one outside it, can be any length."""
    v = _flat(f, name)
    if v is not None:
        return v
    todo = [(f, name)]
    while todo:
        g, n = todo[-1]
        if _flat(g, n) is not None:
            todo.pop()
            continue
        if type(g) is Bind:
            # A value is closed by its own environment already, so the
            # frames outside the Bind should not reach it: one whose names
            # are source-free gets them captured there (the unload_capture
            # defect, counted by perfbench).  Leaving a Bind's value
            # unflattened here is the fix.
            raw = unload_val(g.value)
        else:
            raw = ThunkV(LetRec(g.defs, next(d for m, d in g.defs if m == n)))
        outer = _binders(g.rest, free_vars(raw))
        missing = [(h, m) for m, h in outer if _flat(h, m) is None]
        if missing:
            todo += missing
            continue
        todo.pop()
        _keep(g, n, substitute(raw, {m: _flat(h, m) for m, h in outer}) if outer else raw)
    return _flat(f, name)


def _keep(f, name, v):
    """Keep ``v`` on frame ``f`` as the flattened value of ``name``."""
    if type(f) is Bind:
        object.__setattr__(f, "_flat", v)
        return
    memo = getattr(f, "_flat", None)
    if memo is None:
        memo = {}
        object.__setattr__(f, "_flat", memo)
    memo[name] = v


def _bindings(env, names) -> dict:
    """The flattened value of each of ``names`` bound in ``env``."""
    return {n: _flatten(f, n) for n, f in _binders(env, names)}


def unload_env(env, term):
    """Flatten an environment into a term, in one simultaneous substitution.

    Each name free in the term takes the value of the innermost frame that
    binds it, flattened under the frames outside that frame, and kept on
    the frame.  Since ``t[x:=v][y:=w] = t[x:=v[y:=w], y:=w]``, the term is
    the one a walk substituting frame by frame, innermost first, builds, up
    to the names of renamed binders: that walk also renames a binder that
    would capture a name of a value, even when an outer frame substitutes
    the name away afterwards.  One substitution never sees such a name, so
    it keeps the binder's own name, as sos does.
    """
    return substitute(term, _bindings(env, free_vars(term)))


def unload_val(v):
    """A machine value as a source value.

    A closure's unloading is kept on the closure object, as ``free_vars``
    keeps its answer on a term: closures, their environments and the
    terms in them are frozen, so the answer cannot go stale.  Unloads from
    the levels below hand out one object per distinct closure (see
    ``peak.unload_v``), so a closure that stays in the state across steps
    is flattened once.
    """
    t = type(v)
    if t is SymVar:
        return VarV(v.name)
    if t is NumC:
        return NumV(v.n)
    u = getattr(v, "_unloaded", None)
    if u is None:
        u = ThunkV(unload_env(v.env, v.code))
        object.__setattr__(v, "_unloaded", u)
    return u


def _every_name(t) -> set:
    names = set()
    for _, node in iter_subterms(t):
        ty = type(node)
        if ty is VarV:
            names.add(node.name)
        elif ty is Lam or ty is Seq:
            names.add(node.binder)
        elif ty is LetRec:
            names.update(n for n, _ in node.defs)
    return names


def _unload_seq_frame(f):
    """Flatten a frame's environment into its pending body.

    The frame's binder owns its occurrences in the body, so it is left out
    of the substitution.  If a value substituted brings that name in free
    (possible only through a source-free variable inside a stored value),
    the binder is freshened, against every name of the flattened body,
    instead of capturing it.
    """
    binder, rest = f.binder, f.rest
    sub = _bindings(f.env, free_vars(rest) - {binder})
    if any(binder in free_vars(v) for v in sub.values()):
        fresh = freshen(binder, _every_name(substitute(rest, sub)))
        sub[binder] = VarV(fresh)
        binder = fresh
    return binder, substitute(rest, sub)


def unload(sigma: CekState):
    t = unload_env(sigma.env, sigma.code)
    for f in sigma.kont:
        if type(f) is ArgF:
            t = App(unload_val(f.value), t)
        else:
            u = getattr(f, "_unloaded", None)  # kept like unload_val's
            if u is None:
                u = _unload_seq_frame(f)
                object.__setattr__(f, "_unloaded", u)
            binder, rest = u
            t = Seq(t, binder, rest)
    return t


# ---------------------------------------------------------------------------
# scoping check and trace support


def _bound_names(env) -> set:
    names = set()
    e = env
    while e is not None:
        if type(e) is Bind:
            names.add(e.name)
        else:
            names.update(n for n, _ in e.defs)
        e = e.rest
    return names


def _val_closed(v) -> bool:
    if type(v) is Closure:
        return free_vars(v.code) <= _bound_names(v.env) and _env_closed(v.env)
    return True


def _env_closed(env) -> bool:
    e = env
    while e is not None:
        if type(e) is Bind:
            if not _val_closed(e.value):
                return False
            if type(e.value) is Closure and not _env_closed(e.value.env):
                return False
        e = e.rest
    return True


def wf_check(sigma: CekState) -> bool:
    """Scoping check for states of closed programs: the code's free variables
    are bound by the environment, and every suspended Seq body is closed
    under its saved environment plus its own binder."""
    if not free_vars(sigma.code) <= _bound_names(sigma.env):
        return False
    if not _env_closed(sigma.env):
        return False
    for f in sigma.kont:
        if type(f) is ArgF:
            if not _val_closed(f.value):
                return False
        else:
            if not free_vars(f.rest) <= _bound_names(f.env) | {f.binder}:
                return False
            if not _env_closed(f.env):
                return False
    return True


_HEAD = {
    Force: "force",
    Prd: "prd",
    App: "app",
    Lam: "lam",
    Seq: "seq",
    LetRec: "letrec",
    If0: "if0",
    Op: "op",
}


def _env_len(env) -> int:
    n = 0
    e = env
    while e is not None:
        n += 1
        e = e.rest
    return n


def describe(sigma: CekState, i: int) -> str:
    return (
        f"cek {i}: code={_HEAD[type(sigma.code)]}"
        f" env={_env_len(sigma.env)} kont={len(sigma.kont)}"
    )
