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

The continuation is a chain of ``Frames`` cells, top first, ended by the
shared ``NIL``: a push makes one cell over the old chain and a pop takes
its tail, so neither copies the frames below.  peak, pek and cfg keep
their continuations, and peak its argument stack, in the same cells.
They and peak's environment cells are ``Cell``s: the checks keep what
they derive from a cell on it (``Cell.memo_of``), and ``Cell.derive``
maps a chain cell by cell and keeps each cell's image, so a check walks
only the cells that are new since the last one.

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
because both this machine and peak's unload (which keeps what it builds
on the cell it reads, one object per cell and per anchor) keep handing out
the same objects while they stay in the state.  So an unload substitutes
once into the code, plus once for each frame, closure and sequence frame
it meets for the first time, however many bindings are in scope.

The tower check does not plug the continuation's frames into the term.
It reads a state as a decomposition (``sos.step_in``): the environment
flattened into the code is the focus, and ``context`` unloads the
continuation to an evaluation context, kept per cell as the levels below
keep their unloads, so a checked step unloads only the frames it pushed.
"""

from typing import Optional, Union

from .sos import (
    HOLE,
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
    frozen,
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
            if a._twin is b:
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


@frozen()
class SymVar:
    """A free variable treated as an opaque value."""

    name: str


@frozen()
class NumC:
    n: int


@frozen("_unloaded", "_twin")
class Closure:
    code: object  # Term
    env: Optional["CekEnv"]

    __eq__ = _eq


CekVal = Union[SymVar, NumC, Closure]


# ---------------------------------------------------------------------------
# environments and continuations


@frozen("_flat", "_twin")
class Bind:
    name: str
    value: CekVal
    rest: Optional["CekEnv"]

    __eq__ = _eq


@frozen("_flat", "_twin")
class RecFrame:
    defs: tuple  # ((name, Term), ...)
    rest: Optional["CekEnv"]

    __eq__ = _eq


CekEnv = Union[Bind, RecFrame]


class Cell:
    """One immutable cell of a chain: the cell under it (``rest``) and the
    number of cells, this one included (``size``, which ``len`` reads); a
    cell of size 0 ends the chain.  ``memo`` holds what a program's checks
    derive from the cell and its tail, and ``twin`` the last cell this one
    was found equal to.  Neither takes part in equality, which is
    structural, so a cell is never a key."""

    __slots__ = ("rest", "size", "memo", "twin")

    def __len__(self):
        return self.size

    __hash__ = None

    def memo_of(self, prog) -> dict:
        """The cell's memo table under ``prog``.  A cell cannot be written
        to, so what is derived from it stays true while it lives, and dies
        with it.  An empty cell is shared by every program, so its table is
        one of the program's tables.  The memo names its program by
        ``prog.token``, not by the Prog: a cell that the program's tables
        hold, as they hold what is kept on an empty cell, would otherwise
        make a cycle that only the collector frees."""
        if not self.size:
            return prog.tables["empty"]
        m = getattr(self, "memo", None)  # unset on a Frames cell no check has seen
        if m is None or m[0] is not prog.token:
            m = self.memo = (prog.token, {})
        return m[1]

    def derive(self, prog, key, make):
        """The image of this chain under ``key``: ``make(prog, cell, out)``
        builds a cell's image over ``out``, the image of its tail, and an
        empty cell is its own image.  Each cell keeps its image in its memo
        under ``key``, so only the cells new since the last call are walked,
        each once, and the images of one suffix are one object.  A cell that
        is its own image keeps ``_SAME``: a memo holding its own cell would
        be a cycle through the Prog, which only the collector could free."""
        todo, c, out = [], self, None
        while c.size:
            memo = c.memo_of(prog)
            out = memo.get(key)
            if out is not None:
                break
            todo.append((c, memo))
            c = c.rest
        if out is None or out is _SAME:
            out = c
        for c, memo in reversed(todo):
            out = make(prog, c, out)
            memo[key] = _SAME if out is c else out
        return out


_SAME = object()  # the memo of a cell that is its own image


class Frames(Cell):
    """One immutable continuation cell: the top frame over the cell under
    it.  ``NIL`` ends every chain, and iterating yields the frames top
    first.  A push makes one cell and a pop reads ``rest``, so both are
    O(1), and a chain pushed on shares its tail.  cek's, peak's, pek's and
    cfg's continuations and peak's argument stacks are such chains.

    Equality is structural and walks the chain in a loop, so a chain of any
    depth compares at Python's default recursion limit.  It stops at a pair
    of cells that are one object or were found equal before (``twin``, as
    on ``peak.Env``).  The checks compare a machine's chain with one
    unloaded from below at every step, and a step pushes at most a few
    cells on top of chains compared already.
    """

    __slots__ = ("frame",)

    def __init__(self, frame, rest):  # memo and twin stay unset until a check sets them
        self.frame = frame
        self.rest = rest
        self.size = rest.size + 1

    def __iter__(self):
        c = self
        while c.size:
            yield c.frame
            c = c.rest

    def __eq__(self, other):
        if type(other) is not Frames:
            return NotImplemented
        return _frames_equal(self, other)

    def __repr__(self):
        return f"frames({', '.join(map(repr, self))})"


NIL = object.__new__(Frames)
NIL.frame = NIL.rest = NIL.memo = NIL.twin = None
NIL.size = 0


def frames(*fs) -> Frames:
    """The chain of frames ``fs``, top first."""
    c = NIL
    for f in reversed(fs):
        c = Frames(f, c)
    return c


def _frames_equal(a: Frames, b: Frames) -> bool:
    walked = []
    while a is not b and getattr(a, "twin", None) is not b:
        if a.size != b.size:
            return False
        if not a.size:
            break
        fa, fb = a.frame, b.frame
        if fa is not fb and fa != fb:
            return False
        walked.append((a, b))
        a, b = a.rest, b.rest
    for a, b in walked:
        a.twin = b
    return True


@frozen()
class ArgF:
    value: CekVal


@frozen("_unloaded")
class SeqF:
    binder: str
    rest: object  # Term
    env: Optional[CekEnv]


@frozen()
class CekState:
    code: object  # Term
    env: Optional[CekEnv]
    kont: Frames  # of ArgF/SeqF


class IllFormedState(Exception):
    pass


# ---------------------------------------------------------------------------
# value lookup (γ)


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
    return CekState(m, None, NIL)


def step(sigma: CekState):
    """One machine step: descend to the innermost fireable node, then fire."""
    code, env, kont = sigma.code, sigma.env, sigma.kont

    while True:
        t = type(code)
        if t is LetRec:
            env = RecFrame(code.defs, env)
            code = code.body
        elif t is App:
            kont = Frames(ArgF(lookup_value(code.arg, env)), kont)
            code = code.body
        elif t is Seq:
            kont = Frames(SeqF(code.binder, code.right, env), kont)
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

    # Lam, Prd and Op meet the frame on top of the continuation (None on NIL)
    f = kont.frame
    if t is Lam:
        if f is None:
            return Terminal(AwaitingArgument())
        if type(f) is not ArgF:
            return Stuck(StuckReason.SequencedNonProducer)
        return CekState(code.body, Bind(code.binder, f.value, env), kont.rest)

    if t is not Prd and t is not Op:
        raise TypeError(f"not a computation: {code!r}")
    if type(f) is ArgF:
        return Stuck(StuckReason.ApplyNonFunction)
    if t is Prd:
        v = lookup_value(code.value, env)
    else:
        l = lookup_value(code.lhs, env)
        r = lookup_value(code.rhs, env)
        if type(l) is not NumC or type(r) is not NumC:
            return Stuck(StuckReason.ArithNonNumeral)
        v = NumC(code.op.apply(l.n, r.n))
    if f is None:
        return Terminal(ProducedValue(v) if t is Prd else BareArith(v.n))
    return CekState(f.rest, Bind(f.binder, v, f.env), kont.rest)


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
        return f._flat
    memo = f._flat
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
    letrec frames, each naming the one outside it, can be any length, and
    so can a chain of closures, each bound in the environment of the next."""
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
            v = g.value
            # A value is closed by its own environment already, so the
            # frames outside the Bind should not reach it: one whose names
            # are source-free gets them captured there (the unload_capture
            # defect, counted by perfbench).  Leaving a Bind's value
            # unflattened here is the fix.
            if type(v) is Closure and v._unloaded is None:
                # flatten from v's own environment first, on this stack
                inner = _binders(v.env, free_vars(v.code))
                missing = [(h, m) for m, h in inner if _flat(h, m) is None]
                if missing:
                    todo += missing
                    continue
                raw = _unload_closure(v, inner)
            else:
                raw = unload_val(v)
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
    memo = f._flat
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
    the levels below hand out one object per closure a cell holds (see
    ``peak.unload_v``), so a closure that stays in the state across steps
    is flattened once.
    """
    t = type(v)
    if t is SymVar:
        return VarV(v.name)
    if t is NumC:
        return NumV(v.n)
    u = v._unloaded
    if u is None:
        u = _unload_closure(v, _binders(v.env, free_vars(v.code)))
    return u


def _unload_closure(v, binders):
    """Unload closure ``v`` and keep the answer on it, given ``binders``,
    the frames of its environment that bind its code's free names."""
    u = ThunkV(substitute(v.code, {n: _flatten(f, n) for n, f in binders}))
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


def unload_seq(f: SeqF):
    """``(binder, body)`` of sequence frame ``f`` unloaded, kept on the
    frame as ``unload_val`` keeps a closure's."""
    u = f._unloaded
    if u is None:
        u = _unload_seq_frame(f)
        object.__setattr__(f, "_unloaded", u)
    return u


def unload(sigma: CekState):
    t = unload_env(sigma.env, sigma.code)
    k = sigma.kont
    while k.size:
        f, k = k.frame, k.rest
        if type(f) is ArgF:
            t = App(unload_val(f.value), t)
        else:
            binder, rest = unload_seq(f)
            t = Seq(t, binder, rest)
    return t


def context(prog, kont: Frames) -> Frames:
    """The evaluation context ``kont`` unloads to, as sos steps in it
    (``sos.step_in``): a chain of frames, each an ``App`` with the hole in
    its body or a ``Seq`` with the hole in its left side, so that
    ``sos.plug(unload_env(env, code), context(prog, kont))`` is ``unload``
    of the state.  Each cell keeps the context of itself and its tail
    (``Cell.derive``), so only the cells new since the last call are
    unloaded, and the contexts of one suffix are one object."""
    return kont.derive(prog, "sos", _context_frame)


def _context_frame(prog, c: Frames, out: Frames) -> Frames:
    """``out`` with the unloaded frame of cell ``c`` pushed on it."""
    f = c.frame
    if type(f) is ArgF:
        return Frames(App(unload_val(f.value), HOLE), out)
    binder, rest = unload_seq(f)
    return Frames(Seq(HOLE, binder, rest), out)


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
    """Whether every closure bound in ``env``, and in those closures'
    environments to any depth, is closed by its own environment.  Each
    frame is walked once, on an explicit stack."""
    seen = set()
    todo = [env]
    while todo:
        e = todo.pop()
        while e is not None and id(e) not in seen:
            seen.add(id(e))
            if type(e) is Bind and type(e.value) is Closure:
                v = e.value
                if not free_vars(v.code) <= _bound_names(v.env):
                    return False
                todo.append(v.env)
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
