"""The acceptance gate: eleven criteria, one test and one PASS line each.

Expected values are frozen literals worked out by hand (or against the
shipped golden listing) before the implementation ran, and the big
criteria sweep a deterministic 1,010-program corpus: the named fixture
programs plus 1,000 generated closed terms of size <= 25.
"""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

import cbpv.fixtures as fx
from cbpv import cek, cfg, harness, peak, pek, rewrite, sos
from cbpv.harness import LevelPair, gen_term, lockstep_check, tower_check
from cbpv.parser import parse_term
from cbpv.rewrite import RuleId
from cbpv.sos import FuelExhausted, ProducedValue, Stuck, Terminal, Verdict
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
    Seq,
    ThunkV,
    VarV,
    alpha_eq,
    as_prog,
    substitute,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "mult_cfg.txt"
MACHINES = ("sos", "cek", "peak", "pek", "cfg")

# The shared corpus for criteria 5-8: every named fixture plus 1,000
# deterministic generated closed terms of size <= 25.
CORPUS = list(fx.PROGRAMS.values()) + [gen_term(seed, seed % 26) for seed in range(1000)]


def _ok(n):
    print(f"acceptance {n}: PASS")


# ---------------------------------------------------------------------------
# driving helpers


def _produced_number(machine, m, fuel=2000):
    """The numeral a machine's run produced, unloaded to the source level."""
    mach = harness.machine(machine, m)
    halt, _, _ = harness.run(mach, fuel)
    assert type(halt) is Terminal, (machine, halt)
    kind = halt.kind
    if type(kind) is sos.BareArith:
        return kind.n
    assert type(kind) is ProducedValue, (machine, kind)
    v = mach.value(kind.value)
    assert type(v) is NumV, (machine, v)
    return v.n


# ---------------------------------------------------------------------------
# 1. the worked multiplier example


def _mult_call_with(n, m, a):
    """The multiplier fixture's letrec applied to a fresh argument triple."""
    call = App(NumV(a), App(NumV(m), App(NumV(n), Force(VarV("mult")))))
    return LetRec(fx.MULT_CALL.defs, call)


def test_criterion_01_multiplier_runs_everywhere():
    t0 = time.perf_counter()
    expected = {(2, 3, 0): 4, (1, 1, 0): 0, (3, 4, 5): 14, (0, 2, 9): 9}
    for machine in MACHINES:
        assert _produced_number(machine, fx.MULT_CALL) == 4, machine
        for (n, m, a), want in expected.items():
            assert _produced_number(machine, _mult_call_with(n, m, a)) == want, (machine, n, m, a)
    assert time.perf_counter() - t0 < 1.0
    _ok(1)


# ---------------------------------------------------------------------------
# 2. the multiplier's compiled shape


def test_criterion_02_multiplier_listing_shape():
    listing = cfg.print_cfg(cfg.compile(as_prog(fx.MULT)))
    assert listing + "\n" == GOLDEN.read_text(encoding="utf-8")
    lines = listing.splitlines()
    assert len(lines) == 11
    mnemonics = Counter(line.split()[1] for line in lines)
    assert mnemonics == {"RET": 3, "POP": 3, "IF0": 2, "OP": 2, "TAIL": 1}
    assert lines[0] == "0: RET @1 []"
    _ok(2)


# ---------------------------------------------------------------------------
# 3. the rewrite chain on the layered-thunk family


def test_criterion_03_rewrite_chain():
    step1, _ = rewrite.optimize(fx.LAYERED_THUNKS, {RuleId.ForceThunk})
    assert alpha_eq(step1, fx.NESTED_SEQ)
    step2, _ = rewrite.optimize(fx.NESTED_SEQ, {RuleId.MoveElim})
    assert alpha_eq(step2, fx.OPEN_ADD)
    valuation = {"a": NumV(2), "b": NumV(3)}
    for m in (fx.LAYERED_THUNKS, fx.NESTED_SEQ, fx.OPEN_ADD):
        assert _produced_number("cfg", substitute(m, valuation)) == 5
    _ok(3)


# ---------------------------------------------------------------------------
# 4. the open-arithmetic one-liner


def test_criterion_04_open_add_compiles_to_one_line():
    assert cfg.print_cfg(cfg.compile(as_prog(fx.OPEN_ADD))) == "0: OPRET ADD a b []"
    _ok(4)


# ---------------------------------------------------------------------------
# 5. the tower square across the corpus


def test_criterion_05_tower_square_on_corpus():
    t0 = time.perf_counter()
    failures = [r for m in CORPUS if not (r := tower_check(m, fuel=300)).ok]
    elapsed = time.perf_counter() - t0
    assert not failures, failures[0].lines()
    assert elapsed < 60.0
    _ok(5)


# ---------------------------------------------------------------------------
# 6. every adjacent pair across the same corpus


def test_criterion_06_lockstep_pairs_on_corpus():
    t0 = time.perf_counter()
    failures = []
    for m in CORPUS:
        for pair in LevelPair:
            r = lockstep_check(m, pair, fuel=300)
            if not r.ok:
                failures.append(r)
    elapsed = time.perf_counter() - t0
    assert not failures, failures[0].lines()
    assert elapsed < 120.0
    _ok(6)


# ---------------------------------------------------------------------------
# 7. load/unload round trips at every level


def test_criterion_07_round_trip_at_every_level():
    for m in CORPUS:
        for machine in MACHINES[1:]:
            mach = harness.machine(machine, m)
            assert alpha_eq(mach.unload(mach.state), m), machine
    _ok(7)


# ---------------------------------------------------------------------------
# 8. well-formedness holds at every visited state


def test_criterion_08_wf_preserved_on_every_visited_state():
    for m in CORPUS:
        P = as_prog(m)

        def peak_wf(rho, i):
            assert peak.wf_check(P, rho).ok

        def pek_wf(s, i):
            assert pek.wf_check(P, s).ok

        harness.run(harness.machine("peak", P), 299, peak_wf)
        harness.run(harness.machine("pek", P), 299, pek_wf)
        harness.run(harness.machine("cfg", P), 299, pek_wf)
    _ok(8)


# ---------------------------------------------------------------------------
# 9. source and graph machines get stuck at the same residual


def test_criterion_09_stuck_alignment_on_open_terms():
    stuck = 0
    for seed in range(2000, 2200):
        m = gen_term(seed, seed % 26, closed=False)
        out, _, last = harness.run(harness.machine("sos", m), 300)
        if type(out) is not Stuck:
            continue
        stuck += 1
        mach = harness.machine("cfg", m)
        r, _, s = harness.run(mach, 300)
        assert type(r) is Stuck, (seed, r)
        assert r == out, (seed, r, out)
        assert alpha_eq(mach.unload(s), last), seed
    assert stuck >= 50  # the sample really exercises the stuck paths
    _ok(9)


# ---------------------------------------------------------------------------
# 10. every rewrite rule is sound over generated instances


ARITHS = tuple(ArithOp)
NAMES = ("a", "b", "f", "g", "x", "y", "z")


def _num(rng):
    return NumV(rng.randint(-9, 99))


def _comp(rng):
    return gen_term(rng.randrange(1 << 30), rng.randrange(10), True)


def _value(rng):
    if rng.random() < 0.6:
        return _num(rng)
    return ThunkV(gen_term(rng.randrange(1 << 30), rng.randrange(8), True))


def _producer(rng, depth=2):
    pick = rng.randrange(4 if depth else 2)
    if pick == 0:
        return Prd(_value(rng))
    if pick == 1:
        return Op(_num(rng), rng.choice(ARITHS), _num(rng))
    if pick == 2:
        return Seq(_comp(rng), rng.choice(NAMES), _producer(rng, depth - 1))
    return If0(_num(rng), _producer(rng, depth - 1), _producer(rng, depth - 1))


def _instance(rule, rng):
    """A closed term matching ``rule`` at the root."""
    if rule is RuleId.ForceThunk:
        return Force(ThunkV(_comp(rng)))
    if rule is RuleId.Beta:
        return App(_value(rng), Lam(rng.choice(NAMES), _comp(rng)))
    if rule is RuleId.MoveElim:
        if rng.random() < 0.5:
            return Seq(Prd(_value(rng)), rng.choice(NAMES), _comp(rng))
        x = rng.choice(NAMES)
        return Seq(_producer(rng), x, Prd(VarV(x)))
    if rule is RuleId.ConstFold:
        return Seq(Op(_num(rng), rng.choice(ARITHS), _num(rng)), rng.choice(NAMES), _comp(rng))
    if rule is RuleId.Inline:
        return App(ThunkV(Lam(rng.choice(NAMES), _comp(rng))), Lam(rng.choice(NAMES), _comp(rng)))
    if rule is RuleId.DeadTrue:
        return If0(NumV(0), _comp(rng), _comp(rng))
    if rule is RuleId.DeadFalse:
        n = rng.choice((1, -1)) * rng.randint(1, 99)
        return If0(NumV(n), _comp(rng), _comp(rng))
    m = _comp(rng)
    return If0(_num(rng), m, m)  # BranchElim


def test_criterion_10_rule_soundness_on_500_instances_each():
    for rule in RuleId:
        rng = random.Random(f"soundness/{rule.name}")
        for i in range(500):
            t = _instance(rule, rng)
            assert (rule, ()) in rewrite.find_redexes(t, {rule}), (rule.name, i)
            rewritten = rewrite.apply_rule(t, rule, ())
            report = rewrite.validate(t, rewritten, fuel=300)
            assert report.verdict is not Verdict.Inequivalent, (rule.name, i, report.failures)
            if report.verdict is Verdict.Unknown:
                # only tolerated when both sides run out of fuel
                sa, sb = sos.run(t, 300).result, sos.run(rewritten, 300).result
                ga = rewrite._graph_observation(t, 300)
                gb = rewrite._graph_observation(rewritten, 300)
                if type(sa) is FuelExhausted or type(sb) is FuelExhausted:
                    assert type(sa) is FuelExhausted and type(sb) is FuelExhausted, (rule.name, i)
                if ga is None or gb is None:
                    assert ga is None and gb is None, (rule.name, i)
    _ok(10)


# ---------------------------------------------------------------------------
# 11. the seeded compiler and machine mutations are all caught

_REAL_COMPILE = cfg.compile
_REAL_EXECUTE = cfg._execute
_REAL_RESOLVE = peak._resolve

# A call whose continuation needs the caller's bindings: the return-frame
# environment mutation is invisible on programs without such a shape.
_CALLER_SENSITIVE = parse_term(
    r"thunk { prd 3 } . \t. 1 + 1 to w in force t to x in x + w"
)


def _swapped_if0_targets(prog):
    g = _REAL_COMPILE(prog)
    blocks = {}
    for p, (instr, succs) in g.blocks.items():
        if type(instr) is cfg.IF0:
            instr = cfg.IF0(instr.guard, instr.nonzero, instr.zero)
            succs = succs[::-1]
        blocks[p] = (instr, succs)
    return cfg.Cfg(g.entry, blocks, g.prog)


def _call_stores_callee_env(instr, succs, s):
    if type(instr) is cfg.CALL:
        v = cfg.eval_operand(s.env, instr.fn)
        if type(v) is cfg.PClosure:
            ret = cfg.KRet(instr.bind, succs[0], v.env)
            kont = cfg._push_args(s.env, instr.args, cek.Frames(ret, s.kont))
            return cfg.PekState(v.entry, v.env, kont)
    return _REAL_EXECUTE(instr, succs, s)


def _delta_reversed(delta):
    """``delta`` pushing the frames it converts in reverse order."""

    def mutant(P, e, args, kont=cek.NIL):
        for f in delta(P, e, args):  # pushed top first, so they land reversed
            kont = cek.Frames(f, kont)
        return kont

    return mutant


def _eta_skipping_letrec(P, i):
    prog = as_prog(P)
    while True:
        t = type(prog.nodes[i])
        if t is Seq:
            i = prog.kid(i, 0)
        elif t is App:
            i = prog.kid(i, 1)
        else:  # a letrec no longer advances into its body
            return i


def _lookup_one_level_off(prog, i, entry):
    kind, x, k = _REAL_RESOLVE(prog, i, entry)
    return kind, x, k - 1 if kind is peak._LOC else k


# Each mutation is the (module, name, replacement) patches that make it.
_MUTATIONS = {
    "swapped if0 targets": [(cfg, "compile", _swapped_if0_targets)],
    "call frame stores callee env": [(cfg, "_execute", _call_stores_callee_env)],
    "frame conversion order reversed": [(pek, "delta", _delta_reversed(pek.delta))],
    "advancement skips letrec": [(pek, "eta", _eta_skipping_letrec)],
    "variable read one level off": [(peak, "_resolve", _lookup_one_level_off)],
    "descent skips letrec on both machines": [(peak, "_descent", _eta_skipping_letrec)],
    "frame conversion order reversed on both machines": [
        (peak, "delta", _delta_reversed(peak.delta)),
        (pek, "delta", _delta_reversed(pek.delta)),
    ],
}

# How each check catches each mutant, over the fixture corpus: "fail" for a
# report that is not ok, or the name of the exception the check raises.  A
# check missing from a row catches nothing.
#
# peak and pek read values through one lookup, convert frames through one δ
# and advance through one descent, so the peak/pek check cannot see a fault
# in them, and the tower check steps neither machine: the checks against
# cek and cfg, each with a lookup, frames and descent of its own, must.  A
# letrec that advancement stops on is not seen by a comparison but by the
# machine that fires on it: ``_fire`` raises TypeError on a letrec pc.
_TOWER = "tower"
_CEK_PEAK, _PEAK_PEK, _PEK_CFG = (
    p.value for p in (LevelPair.CEK_PEAK, LevelPair.PEAK_PEK, LevelPair.PEK_CFG)
)
_CAUGHT = {
    "swapped if0 targets": {_TOWER: "fail", _PEK_CFG: "fail"},
    "call frame stores callee env": {_TOWER: "fail", _PEK_CFG: "fail"},
    "frame conversion order reversed": {_PEAK_PEK: "fail", _PEK_CFG: "fail"},
    "advancement skips letrec": {_TOWER: "fail", _PEAK_PEK: "TypeError", _PEK_CFG: "TypeError"},
    "variable read one level off": {_CEK_PEAK: "fail", _PEK_CFG: "fail"},
    "descent skips letrec on both machines": {
        _TOWER: "fail", _CEK_PEAK: "TypeError", _PEAK_PEK: "TypeError", _PEK_CFG: "TypeError",
    },
    "frame conversion order reversed on both machines": {_CEK_PEAK: "fail", _PEK_CFG: "fail"},
}


def _detections():
    """``(program, check, kind)`` of each check that catches something
    across the fixture corpus: kind "fail" for a report that is not ok,
    else the name of the exception the check raised."""
    hits = []
    programs = list(fx.PROGRAMS.items()) + [("caller_sensitive", _CALLER_SENSITIVE)]
    for name, m in programs:
        checks = [(_TOWER, lambda: tower_check(m, fuel=300))]
        for pair in LevelPair:
            checks.append((pair.value, lambda p=pair: lockstep_check(m, p, fuel=300)))
        for check_name, run in checks:
            try:
                if not run().ok:
                    hits.append((name, check_name, "fail"))
            except Exception as exc:
                hits.append((name, check_name, type(exc).__name__))
    return hits


def test_criterion_11_mutations_are_detected():
    assert set(_CAUGHT) == set(_MUTATIONS)
    for label, patches in _MUTATIONS.items():
        with pytest.MonkeyPatch.context() as mp:
            for module, attr, mutant in patches:
                mp.setattr(module, attr, mutant)
            hits = _detections()
        assert hits, f"undetected mutation: {label}"
        caught = {}
        for _, check, kind in hits:
            caught.setdefault(check, set()).add(kind)
        assert caught == {c: {k} for c, k in _CAUGHT[label].items()}, (label, caught)
    # and the pristine build neither fails nor raises, so the signal is the mutation
    assert _detections() == []
    _ok(11)
