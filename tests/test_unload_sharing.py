"""Shared unloads against the whole-state unloaders they replace.

A checked step unloads its state through peak and cek and compares the
result with ``alpha_eq``.  Four things make that cost what the step
changed: cek flattens an environment in one simultaneous substitution and
keeps each frame's flattened value on the frame, peak hands out one object
per cell and per anchor (kept on the cell it reads), cek keeps the
flattening of a closure and of a sequence frame on the frozen object, and
``alpha_eq`` stops at a subterm object met on both sides.  The oracles
below are those unloaders and that comparison as they were before: every
unload substitutes every frame, one after another, innermost first, and
every comparison walks both terms to the leaves.  Equal answers along
every run, with identical printed terms, mean the sharing changed nothing
but the cost.  The exceptions are the states listed in RENAMED_APART, four
states of three nested-letrec programs, where the frame-by-frame walk
renames a binder to avoid capturing a name that an outer frame then
substitutes away: one substitution never sees that name, so it keeps the
binder's own name.  There the two terms
must be alpha-equivalent and differ in print, and on a program whose
result shows such a binder sos prints cek's name.
"""

import dataclasses
import gc
import random
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import cbpv.fixtures as fx
from cbpv import cek, cfg, harness, peak, pek, syntax
from cbpv.cek import ArgF, Bind, CekState, Closure, NumC, RecFrame, SeqF, SymVar
from cbpv.cfg import MOV, OP
from cbpv.harness import LevelPair, gen_term
from cbpv.parser import parse_term
from cbpv.peak import ARG, Env, KArg, KSeq, NumP, PClosure, PeakState, chain
from cbpv.pek import KRet, PekState
from cbpv.printer import print_term
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    If0,
    Lam,
    LetRec,
    NumV,
    Op,
    Prd,
    Prog,
    Seq,
    ThunkV,
    VarV,
    alpha_eq,
    as_prog,
    free_vars,
    freshen,
    iter_subterms,
    path_text,
    substitute,
)

from conftest import names, relabel, terms
from test_compile_oracle import DEPTHS, _count_calls, chain_text, sum_text, thunks_text
from test_position_oracle import SHADOWING

# ---------------------------------------------------------------------------
# the oracle: cek's unloaders, flattening every frame of every state


def oracle_unload_env(env, term):
    t = term
    e = env
    while e is not None:
        if type(e) is Bind:
            t = substitute(t, {e.name: oracle_unload_val(e.value)})
        else:
            sub = {}
            for name, d in e.defs:
                if name not in sub:
                    sub[name] = ThunkV(LetRec(e.defs, d))
            t = substitute(t, sub)
        e = e.rest
    return t


def oracle_unload_val(v):
    t = type(v)
    if t is SymVar:
        return VarV(v.name)
    if t is NumC:
        return NumV(v.n)
    return ThunkV(oracle_unload_env(v.env, v.code))


# Marks the occurrences a pending frame's binder owns; no lexable
# identifier can collide with it.
_REBOUND = "\x00rebound"


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


def oracle_unload_seq_frame(f):
    pending = substitute(f.rest, {f.binder: VarV(_REBOUND)})
    body = oracle_unload_env(f.env, pending)
    binder = f.binder
    if binder in free_vars(body):
        binder = freshen(binder, _every_name(body))
    return binder, substitute(body, {_REBOUND: VarV(binder)})


def oracle_cek_unload(sigma):
    t = oracle_unload_env(sigma.env, sigma.code)
    for f in sigma.kont:
        if type(f) is ArgF:
            t = App(oracle_unload_val(f.value), t)
        else:
            binder, rest = oracle_unload_seq_frame(f)
            t = Seq(t, binder, rest)
    return t


# ---------------------------------------------------------------------------
# the oracle: peak's unloaders, a fresh object for every value and frame


def oracle_unload_e(prog, i, e):
    binders = []
    cell = peak._scope(prog, i)
    while cell is not None:
        binders.append(cell[0])
        cell = cell[1]
    anchor, rest = i, e  # the chain holds exactly the Lam/Seq binders, innermost first
    for b in binders:
        if type(prog.nodes[b]) is LetRec:
            continue
        if not len(rest) or rest.binder != b:
            raise cek.IllFormedState(
                f"no value for binder at {path_text(prog.path(b))} at {path_text(prog.path(anchor))}"
            )
        anchor, rest = b, rest.rest
    if len(rest):
        raise cek.IllFormedState(
            f"binder at {path_text(prog.path(rest.binder))} bound outside the scope of"
            f" {path_text(prog.path(anchor))}"
        )
    values = dict(e.items())
    env = None
    for b in reversed(binders):
        node = prog.nodes[b]
        if type(node) is LetRec:
            env = RecFrame(node.defs, env)
            continue
        env = Bind(node.binder, oracle_unload_v(prog, values[b]), env)
    return env


def oracle_unload_v(prog, v):
    t = type(v)
    if t is SymVar:
        return v
    if t is NumP:
        return NumC(v.n)
    entry, _ = peak._ascend(prog, v.entry, None)
    code, anchor = peak._entry_code(prog, entry)
    return Closure(code, oracle_unload_e(prog, anchor, v.env))


def oracle_unload_k(prog, e, args, kont):
    out = []

    def seq_frame(i, env):
        node = prog.nodes[i]
        while len(env) > peak._depth(prog, i):  # binders inside the Seq's left
            env = env.rest
        return SeqF(node.binder, node.right, oracle_unload_e(prog, i, env))

    def emit_args(env, frames):
        for f in frames:
            if type(f) is ARG:
                q = f.pos
                v = peak._operand(prog, q, 0, prog.nodes[q].arg, env)
                out.append(ArgF(oracle_unload_v(prog, v)))
            else:
                out.append(seq_frame(f.pos, env))

    emit_args(e, args)
    for f in kont:
        if type(f) is KArg:
            out.append(ArgF(oracle_unload_v(prog, f.value)))
        else:
            out.append(seq_frame(f.pos, f.env))
            emit_args(f.env, f.rest_args)
    return cek.frames(*out)


def oracle_peak_unload(P, rho):
    prog = as_prog(P)
    pc, args = peak._ascend(prog, rho.pc, rho.args)
    code, anchor = peak._entry_code(prog, pc)
    return CekState(
        code,
        oracle_unload_e(prog, anchor, rho.env),
        oracle_unload_k(prog, rho.env, args, rho.kont),
    )


# ---------------------------------------------------------------------------
# the oracle: alpha equivalence walking both terms to the leaves


def oracle_rank(name, scope):
    for i, frame in enumerate(scope):
        if name in frame:
            return (i, frame.index(name))
    return None


def oracle_aeq(a, b, sa=(), sb=()):
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is VarV:
        ra, rb = oracle_rank(a.name, sa), oracle_rank(b.name, sb)
        if ra is None and rb is None:
            return a.name == b.name
        return ra == rb
    if ta is NumV:
        return a.n == b.n
    if ta is ThunkV:
        return oracle_aeq(a.body, b.body, sa, sb)
    if ta is Force or ta is Prd:
        return oracle_aeq(a.value, b.value, sa, sb)
    if ta is App:
        return oracle_aeq(a.arg, b.arg, sa, sb) and oracle_aeq(a.body, b.body, sa, sb)
    if ta is Lam:
        return oracle_aeq(a.body, b.body, ((a.binder,),) + sa, ((b.binder,),) + sb)
    if ta is Seq:
        return oracle_aeq(a.left, b.left, sa, sb) and oracle_aeq(
            a.right, b.right, ((a.binder,),) + sa, ((b.binder,),) + sb
        )
    if ta is LetRec:
        if len(a.defs) != len(b.defs):
            return False
        sa2 = (tuple(n for n, _ in a.defs),) + sa
        sb2 = (tuple(n for n, _ in b.defs),) + sb
        for (_, da), (_, db) in zip(a.defs, b.defs):
            if not oracle_aeq(da, db, sa2, sb2):
                return False
        return oracle_aeq(a.body, b.body, sa2, sb2)
    if ta is If0:
        return (
            oracle_aeq(a.guard, b.guard, sa, sb)
            and oracle_aeq(a.then, b.then, sa, sb)
            and oracle_aeq(a.orelse, b.orelse, sa, sb)
        )
    if ta is Op:
        return (a.op is b.op and oracle_aeq(a.lhs, b.lhs, sa, sb)
                and oracle_aeq(a.rhs, b.rhs, sa, sb))
    raise TypeError(f"not a term: {a!r}")


# ---------------------------------------------------------------------------
# programs


# test_cek's rebound-binder programs: a frame binder shadowing an
# environment entry, and a stored thunk mentioning a source-free name the
# frame rebinds
REBOUND = (
    Seq(Prd(NumV(9)), "z", Seq(If0(VarV("z"), Prd(NumV(0)), Prd(NumV(1))), "z",
                               Op(VarV("z"), ArithOp.ADD, VarV("z")))),
    Seq(Prd(ThunkV(Force(VarV("z")))), "w",
        Seq(Prd(NumV(0)), "z", Seq(Force(VarV("w")), "y", Prd(VarV("y"))))),
)

# the reproducer of the known capture defect (ROADMAP item 1), a program on
# which the frame-by-frame walk renames a binder it need not, and nested
# letrecs whose binders reuse names free in the definitions outside them
CAPTURE = r"letrec x = force thunk { b . prd 6 } in letrec b = prd x in x . \z. z . prd 3"
NEEDLESS_RENAME = r"thunk { prd 1 } . \y. letrec f = force y in prd thunk { \y. force f }"
NESTED_LETRECS = (
    CAPTURE,
    NEEDLESS_RENAME,
    r"letrec f = prd g in letrec g = force f in letrec f = prd g in force f",
    r"\x. letrec f = prd x in letrec x = force f in prd thunk { \f. force x }",
    r"letrec a = prd b in letrec b = prd a in letrec a = force b in 5 . \b. force a",
    r"letrec f = prd y in 1 + 1 to y in letrec g = force f in force g to y in prd y",
    r"letrec f = \n. if0 n { prd 0 } { n - 1 to n in letrec g = n . force f in force g }"
    r" in 3 . force f",
    r"letrec f = prd thunk { force g } and g = prd 2 in letrec g = force f in"
    r" force g to h in force h",
)

GROUPS = {
    "fixtures": lambda: list(fx.PROGRAMS.values()),
    "acceptance corpus": lambda: [gen_term(s, s % 26) for s in range(1000)],
    "open terms": lambda: [gen_term(s, s % 26, closed=False) for s in range(500)],
    "open terms of size 24": lambda: [gen_term(s, 24, closed=False) for s in range(300)],
    "deep families": lambda: [parse_term(f(n)) for f in (chain_text, thunks_text, sum_text)
                              for n in DEPTHS],
    "rebound binders": lambda: list(REBOUND) + [parse_term(t) for t in SHADOWING],
    "nested letrecs": lambda: [parse_term(t) for t in NESTED_LETRECS],
}

# The states, by (group, program index) and then by step, where the oracle
# and cek's unload name a binder differently; the same steps on every
# machine.  At each, an inner frame's value mentions a letrec's own name
# until an outer frame substitutes that name away, so the frame-by-frame
# walk renames the letrec (x to x') and one substitution does not.
RENAMED_APART = {
    ("nested letrecs", 0): {1},
    ("nested letrecs", 2): {1},
    ("nested letrecs", 4): {1, 2},
}


def _states(name, m, fuel=300):
    """The states the named machine visits running ``m``, the load state
    first, through at most ``fuel`` steps."""
    states = []
    harness.run(harness.machine(name, m), fuel, lambda s, i: states.append(s))
    return states


def _outcome(fn, *args):
    try:
        return fn(*args)
    except cek.IllFormedState as exc:
        return ("ill-formed", str(exc))


def _terms_agree(sigma, want, renamed_apart=False):
    """cek's unload of ``sigma`` against the oracle's of the equal ``want``:
    the same term, printed the same.  In a state listed in RENAMED_APART the
    oracle renames a binder that cek's unload keeps, so there the two must
    differ in print and be alpha-equivalent."""
    got, expected = cek.unload(sigma), oracle_cek_unload(want)
    if renamed_apart:
        assert print_term(got) != print_term(expected)
        assert alpha_eq(got, expected) and oracle_aeq(got, expected)
        return
    assert got == expected
    assert print_term(got) == print_term(expected)


def _peak_agrees(prog, rho, renamed_apart=False):
    got, want = _outcome(peak.unload, prog, rho), _outcome(oracle_peak_unload, prog, rho)
    assert got == want
    if type(got) is CekState:
        _terms_agree(got, want, renamed_apart)


def _unloads_agree(term, renamed_apart=()):
    """Every state of every machine's run of ``term``; ``renamed_apart``
    holds the indices of the states listed in RENAMED_APART."""
    prog = as_prog(term)  # one table across the runs, as in a check
    for k, sigma in enumerate(_states("cek", prog)):
        _terms_agree(sigma, sigma, k in renamed_apart)
    for k, rho in enumerate(_states("peak", prog)):
        _peak_agrees(prog, rho, k in renamed_apart)
    for name in ("pek", "cfg"):
        for k, s in enumerate(_states(name, prog)):
            _peak_agrees(prog, pek.unload(prog, s), k in renamed_apart)


@pytest.mark.parametrize("group", GROUPS)
def test_unloads_agree_with_the_oracle_along_runs(group):
    for i, term in enumerate(GROUPS[group]()):
        _unloads_agree(term, RENAMED_APART.get((group, i), ()))


def test_chains_that_are_not_the_scope_fail_like_the_oracle():
    # random chains of the program's binders, at every position: the same
    # environment, or the same first wrong level in the same words
    rng = random.Random(5)
    for seed in range(0, 300, 3):
        m = gen_term(seed, seed % 26)
        prog = as_prog(m)
        binders = [prog.pos(p) for p, node in iter_subterms(m) if type(node) in (Lam, Seq)]
        binders = binders or [0]  # no binder at all: the root, which binds nothing
        for p, _ in iter_subterms(m):
            for _ in range(3):
                e = chain(*[(rng.choice(binders), NumP(1)) for _ in range(rng.randint(0, 3))])
                i = prog.pos(p)
                assert _outcome(peak._unload_e, prog, i, e) == _outcome(oracle_unload_e, prog, i, e)


def test_one_substitution_keeps_the_binder_name_sos_prints():
    # f's thunk mentions the outer y until the frame outside it substitutes
    # y away, so the frame-by-frame walk renames the inner \y it enters
    m = parse_term(NEEDLESS_RENAME)
    printed = set()
    for name in ("sos", "cek", "peak", "pek", "cfg"):
        mach = harness.machine(name, m)
        halt, _, _ = harness.run(mach, 100)
        printed.add(print_term(mach.value(halt.kind.value)))
    inner = "force thunk { letrec f = force thunk { prd 1 } in force thunk { prd 1 } }"
    assert printed == {rf"thunk {{ \y. {inner} }}"}
    halt = cek.step(cek.step(cek.load(m)))
    walked = oracle_unload_val(halt.kind.value)
    assert print_term(walked) == rf"thunk {{ \y'. {inner} }}"
    assert alpha_eq(walked, cek.unload_val(halt.kind.value))


def test_rebound_frame_binders_unload_like_the_oracle():
    env = Bind("z", NumC(9), None)
    masked = CekState(Prd(VarV("z")), env,
                      cek.frames(SeqF("z", Op(VarV("z"), ArithOp.ADD, VarV("z")), env)))
    stored = Bind("w", cek.lookup_value(ThunkV(Force(VarV("z"))), None), None)
    freshened = CekState(Prd(NumV(0)), None, cek.frames(SeqF("z", Force(VarV("w")), stored)))
    for sigma in (masked, freshened):
        _terms_agree(sigma, sigma)
        _terms_agree(sigma, sigma)  # the second time from the kept flattenings


# ---------------------------------------------------------------------------
# an unload is one object per cell and per anchor, read off what the state holds


def test_a_state_unloads_to_one_object_and_equal_cells_built_apart_to_equal_ones():
    # what an unload builds is kept on the cells it reads: the same cells
    # give the same objects, and separately built cells equal objects
    prog = as_prog(fx.MULT_CALL)
    for rho in _states("peak", prog, 10**6):
        once = peak.unload(prog, rho)
        twice = peak.unload(prog, rho)
        assert twice.env is once.env and twice.kont is once.kont
        copied = PeakState(rho.pc, chain(*reversed(list(rho.env.items()))), rho.args, rho.kont)
        assert copied.env == rho.env and (copied.env is not rho.env or not rho.env)
        again = peak.unload(prog, copied)
        assert again == once
        assert (again.env is once.env) == (not rho.env)  # only the empty chain is shared


def test_the_table_lives_in_the_checks_prog_and_dies_with_it():
    # the unloads live on the cells, and the empty chain's in one of the
    # Prog's tables, so they die with the states and the Prog
    prog = as_prog(parse_term(sum_text(7)))
    assert harness.tower_check(prog).ok
    assert "cons" not in prog.tables
    states = [pek.unload(prog, s) for s in _states("pek", prog, 10**6)]
    unloaded = [x for rho in states for sigma in [peak.unload(prog, rho)]
                for x in (sigma.env, *sigma.kont) if x is not None]
    unloaded += [x for x in prog.tables["empty"].values() if x is not None]
    assert {type(x) for x in unloaded} == {Bind, RecFrame, SeqF, ArgF}
    alive = [weakref.ref(x) for x in unloaded]
    assert not Prog(prog.term).tables  # nothing shared between Progs
    del prog, states, unloaded
    as_prog(parse_term("prd 0"))  # as_prog drops the Prog it kept for the check
    gc.collect()
    assert all(r() is None for r in alive)


@pytest.mark.parametrize("m", [100, 400, 1600])
def test_a_long_checks_table_holds_only_what_its_live_states_reach(m):
    # the memos live on the cells, so what a check keeps does not grow with
    # the number of steps it takes
    prog = as_prog(fx.mult_call(3, m, 0))
    mid = []

    def sample(real):
        def step(g, s):
            r = real(g, s)
            if len(mid) < 2 and type(r) is PekState and len(r.env) == 5:
                mid.append(weakref.ref(r.env))
            return r
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cfg, "step", sample(cfg.step))
        report = harness.tower_check(prog, fuel=10 * m)
    assert report.ok and report.steps_checked > 4 * m
    gc.collect()
    assert mid and all(r() is None for r in mid)  # the cells died, memos and all
    # what is left hangs off the empty chain, whatever m: the environments
    # at the root and at the letrec's body, and the letrec frame every
    # environment of the run ends in
    assert "cons" not in prog.tables
    assert set(prog.tables["empty"]) == {0, prog.pos((1,)), (RecFrame, 0)}


@pytest.mark.parametrize("text, letrec, binders", [
    (r"letrec f = prd 1 in if0 0 { force f } { prd 2 }", (), ()),
    (r"\x. letrec f = prd x in if0 x { force f } { prd 2 }", (0,), ((),)),
], ids=["the empty chain", "a cell"])
def test_anchors_inside_one_letrec_share_its_frame_over_a_cell(text, letrec, binders):
    # the letrec's body and its then-branch are two anchors under the same
    # cell (the empty chain, or x's): the letrec's frame over it is one object
    prog = as_prog(parse_term(text))
    e = chain(*[(prog.pos(p), NumP(0)) for p in binders])
    body, then = prog.pos((0,) + letrec), prog.pos((1, 0) + letrec)
    a, b = peak._unload_e(prog, body, e), peak._unload_e(prog, then, e)
    assert type(a) is RecFrame and a is b


# ---------------------------------------------------------------------------
# soundness of the memos: a graph machine that binds onto a stale parent cell
#
# Cells cannot be written to, so the memos kept on them cannot go stale.
# The nearest bug that can still happen is a bind onto the wrong chain: a
# graph machine whose MOV and OP put the new cell on the return frame's
# chain, when one is on top of the continuation, instead of the current
# one.  The memos must not hide it from any check.


def _stale_parent(real):
    """``cfg._execute``, but MOV and OP bind onto the chain of the return
    frame on top of the continuation, where the current chain belongs."""

    def execute(instr, succs, s):
        r = real(instr, succs, s)
        t = type(instr)
        top = s.kont.frame  # None on an empty continuation
        if (t is MOV or t is OP) and type(r) is PekState and type(top) is KRet:
            cell = r.env
            return PekState(r.pc, Env(cell.binder, cell.value, top.env), r.kont)
        return r

    return execute


def _every_check(m):
    prog = as_prog(m)
    checks = [harness.lockstep_check(prog, pair) for pair in LevelPair]
    return [harness.tower_check(prog), *checks]


def _summary(report):
    return report.program, report.steps_checked, report.lines()


def _with_oracles(monkeypatch):
    monkeypatch.setattr(cek, "unload", oracle_cek_unload)
    monkeypatch.setattr(cek, "unload_val", oracle_unload_val)
    monkeypatch.setattr(peak, "unload", oracle_peak_unload)
    monkeypatch.setattr(peak, "unload_v", oracle_unload_v)
    monkeypatch.setattr(harness, "alpha_eq", lambda a, b: oracle_aeq(a, b))


@pytest.mark.parametrize("stale", [False, True])
def test_every_report_equals_the_oracles(monkeypatch, stale):
    if stale:
        monkeypatch.setattr(cfg, "_execute", _stale_parent(cfg._execute))
    programs = [parse_term(sum_text(5)), *fx.PROGRAMS.values()]
    got = [_every_check(m) for m in programs]
    _with_oracles(monkeypatch)
    want = [_every_check(m) for m in programs]
    summary = lambda reports: [[_summary(r) for r in rs] for rs in reports]
    assert summary(got) == summary(want)
    assert got == want
    tower, pek_cfg = got[0][0], got[0][-1]
    if stale:  # sum's first inner bind: caught by both at the step it happens
        assert not tower.ok and tower.failures[0].step == 8
        assert pek_cfg.failures[0].step == 8
    else:
        assert all(rs[0].ok for rs in got)


def _frozen_untouched(obj):
    # the record has a slot for each field and for weak references, and no
    # other: no memo can be kept on it, whatever a check does
    return set(type(obj).__slots__) == {f.name for f in dataclasses.fields(obj)} | {"__weakref__"}


def _carriers(states):
    """Every PClosure, KSeq and KRet reachable from ``states``."""
    seen, out, todo = set(), [], []
    for s in states:
        todo.append(s.env)
        for f in s.kont:
            todo.append(f.value if type(f) is KArg else f)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) is Env:
            if len(x):
                todo += (x.value, x.rest)
        elif type(x) in (PClosure, KSeq, KRet):
            out.append(x)
            todo.append(x.env)
    return out


@pytest.mark.parametrize("stale", [False, True])
def test_no_memo_is_kept_on_an_object_that_carries_an_env_dict(monkeypatch, stale):
    # memos live on the immutable cells, never on what carries a chain
    if stale:
        monkeypatch.setattr(cfg, "_execute", _stale_parent(cfg._execute))
    seen = []

    def recording(fn):
        def wrapped(*args):
            r = fn(*args)
            if type(r) in (PekState, PeakState):
                seen.append(r)
            return r
        return wrapped

    for mod in (cfg, pek, peak):
        monkeypatch.setattr(mod, "step", recording(mod.step))
    monkeypatch.setattr(pek, "unload", recording(pek.unload))
    for m in (parse_term(sum_text(5)), *fx.PROGRAMS.values()):
        _every_check(m)
    carriers = _carriers(seen)
    assert {type(x) for x in carriers} == {PClosure, KSeq, KRet}
    assert all(_frozen_untouched(x) for x in carriers)


# ---------------------------------------------------------------------------
# alpha equivalence on terms that share subterm objects

_contexts = st.lists(st.tuples(st.sampled_from(("lam", "seq", "rec")), names), max_size=4)


def _under(ctx, m):
    for kind, x in reversed(ctx):
        if kind == "lam":
            m = Lam(x, m)
        elif kind == "seq":
            m = Seq(Prd(NumV(0)), x, m)
        else:
            m = LetRec(((x, Prd(NumV(1))),), m)
    return m


@settings(deadline=None)
@given(terms, _contexts, _contexts, names, names)
def test_alpha_eq_agrees_with_the_oracle_on_shared_subterms(m, ca, cb, x, y):
    renamed = substitute(m, {x: VarV(y)})  # shares every untouched subtree
    pairs = [
        (_under(ca, m), _under(cb, m)),
        (_under(ca, m), _under(cb, renamed)),
        (Seq(m, x, m), Seq(m, y, renamed)),
        (App(ThunkV(m), _under(ca, m)), App(ThunkV(renamed), _under(cb, m))),
    ]
    for a, b in pairs:
        assert alpha_eq(a, b) == oracle_aeq(a, b)
        assert alpha_eq(b, a) == oracle_aeq(b, a)


@pytest.mark.parametrize("calls", [1, 2])
def test_pairs_set_aside_past_the_recursion_budget_agree_with_the_oracle(monkeypatch, calls):
    # past _AEQ_CALLS levels a pair waits on alpha_eq's own stack; with the
    # budget cut down, most pairs of these terms wait there
    monkeypatch.setattr(syntax, "_AEQ_CALLS", calls)
    for seed in range(300):
        a = gen_term(seed, seed % 26, closed=seed % 3 == 0)
        for b in (a, relabel(a), gen_term(seed + 1, seed % 26, closed=False)):
            assert alpha_eq(a, b) == oracle_aeq(a, b), seed
            assert alpha_eq(b, a) == oracle_aeq(b, a), seed


def test_terms_30000_binders_deep_compare():
    a, b, c = Prd(VarV("x")), Prd(VarV("y0")), Prd(VarV("x"))
    for i in range(30000):
        a, b, c = Lam("x", a), Lam(f"y{i}", b), Lam("y", c)
    assert alpha_eq(a, b) and not alpha_eq(a, c)


def test_a_shared_subterm_under_swapped_binders_is_not_equal():
    x = VarV("x")
    body = Prd(x)
    assert not alpha_eq(Lam("x", Lam("y", body)), Lam("y", Lam("x", body)))
    assert not alpha_eq(Lam("x", Lam("y", Prd(x))), Lam("y", Lam("x", Prd(x))))
    assert not oracle_aeq(Lam("x", Lam("y", body)), Lam("y", Lam("x", body)))
    assert alpha_eq(Lam("x", Lam("y", body)), Lam("x", Lam("z", body)))


# ---------------------------------------------------------------------------
# operation counts, not time


@pytest.mark.parametrize("n", [16, 32])
def test_a_check_flattens_each_pending_frame_once(monkeypatch, n):
    flattened = _count_calls(monkeypatch, cek, "_unload_seq_frame")
    report = harness.tower_check(parse_term(sum_text(n)))
    assert report.ok
    assert len(flattened) <= n + 1  # 648 and 2,576 when every step flattened them all


def _first_closure_unloads(monkeypatch):
    """The closures ``cek.unload_val`` flattens, each the first time."""
    first, real = [], cek.unload_val

    def counted(v):
        if type(v) is Closure and v._unloaded is None:
            first.append(v)
        return real(v)

    monkeypatch.setattr(cek, "unload_val", counted)
    return first


@pytest.mark.parametrize("m", [100, 400, 1600])
def test_a_checked_step_substitutes_once_per_unload(monkeypatch, m):
    # one substitution per state unloaded, plus one per frame, sequence
    # frame and closure the first time each is flattened, however many
    # bindings are in scope; the frame-by-frame walk made one per binding
    # free in the code, 2,493 / 9,993 / 39,993 here
    calls = _count_calls(monkeypatch, cek, "substitute")
    kept = _count_calls(monkeypatch, cek, "_keep")
    frames = _count_calls(monkeypatch, cek, "_unload_seq_frame")
    closures = _first_closure_unloads(monkeypatch)
    report = harness.tower_check(fx.mult_call(3, m, 0), fuel=10 * m)
    assert report.ok and report.steps_checked == 8 * m
    assert len(calls) <= report.steps_checked + len(kept) + len(frames) + len(closures)


def letrecs_text(n):
    """n nested letrecs, each definition forcing the one outside it."""
    inner = "".join(f"letrec f{i + 1} = force f{i} in " for i in range(n))
    return f"letrec f0 = prd 0 in {inner}force f{n}"


@pytest.mark.parametrize("n", [16, 200, 2000])
def test_nested_letrecs_flatten_each_frame_once(monkeypatch, n):
    # each frame's thunk names the frame outside it; substituted frame by
    # frame, every level doubled the work: the run at n = 16 took 17 s on
    # a 2-vCPU host
    calls = _count_calls(monkeypatch, cek, "substitute")
    kept = _count_calls(monkeypatch, cek, "_keep")
    states = _states("cek", parse_term(letrecs_text(n)), fuel=3 * n)
    for sigma in states:
        cek.unload(sigma)
    assert len(states) == n + 2
    assert len(kept) <= n + 1
    assert len(calls) <= len(states) + len(kept)


def test_alpha_eq_calls_grow_linearly_in_nested_letrecs(monkeypatch):
    # each unloaded state reuses one thunk in two places per level, so a
    # walk of its tree doubles per level
    walked = _count_calls(monkeypatch, syntax, "_aeq")
    calls = []
    for n in (8, 12, 16):
        del walked[:]
        assert harness.tower_check(parse_term(letrecs_text(n))).ok
        calls.append(len(walked))
    assert calls[2] - calls[1] <= 1.2 * (calls[1] - calls[0])  # 16 times when exponential
    assert calls[2] <= 12 * 16


def test_nested_letrecs_check_quickly():
    # walked as a tree, n = 15 took 0.21 s on a 2-vCPU host
    report = harness.tower_check(parse_term(letrecs_text(40)))
    assert report.ok and report.steps_checked == 42


def test_a_shared_thunk_met_again_under_other_ranks_is_walked_again():
    # t and u are equal where first met (x and w bound by the Lams) and not
    # where met again (under z, x names the Seq's binder, w still the Lam)
    t, u = ThunkV(Prd(VarV("x"))), ThunkV(Prd(VarV("w")))
    a = Lam("x", Seq(Prd(t), "x", Lam("z", Prd(t))))
    b = Lam("w", Seq(Prd(u), "x", Lam("z", Prd(u))))
    assert not alpha_eq(a, b) and not oracle_aeq(a, b)
    assert alpha_eq(a, Lam("w", Seq(Prd(u), "x", Lam("z", Prd(t)))))


@pytest.mark.parametrize("n", [125, 250])
def test_alpha_eq_walks_what_the_step_changed(monkeypatch, n):
    walked = _count_calls(monkeypatch, syntax, "_aeq")
    report = harness.tower_check(parse_term(chain_text(n)))
    assert report.ok and report.steps_checked == n + 1
    assert len(walked) <= 6 * report.steps_checked  # n * n / 2 when walked to the leaves
