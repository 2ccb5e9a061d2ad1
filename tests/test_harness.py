"""The differential drivers and the random program generator."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import close_term, terms
from cbpv import cek, cfg, harness, peak, pek
from cbpv import fixtures as fx
from cbpv.cfg import IF0
from cbpv.cli import main
from cbpv.harness import Failure, LevelPair, gen_term, lockstep_check, tower_check
from cbpv.parser import parse_term
from cbpv.syntax import NumV, Prd, as_prog, free_vars, iter_subterms

ALL_PAIRS = list(LevelPair)


# ---------------------------------------------------------------------------
# lockstep over the fixture corpus


@pytest.mark.parametrize("name", list(fx.PROGRAMS))
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_fixture_corpus_commutes(name, pair):
    report = lockstep_check(fx.PROGRAMS[name], pair, fuel=500)
    assert report.ok, report.lines()


def test_two_step_program_checks_two_steps():
    report = lockstep_check(fx.ARITH_SEQ, LevelPair.PEK_CFG, fuel=100)
    assert report.ok and report.steps_checked == 2


def test_multiplication_commutes_with_reduction():
    report = lockstep_check(fx.MULT_CALL, LevelPair.SOS_CEK, fuel=500)
    assert report.ok


def test_strict_mode_distinguishes_entry_points():
    # the instruction machine loads past the binding spine, so strict
    # comparison fails immediately on a program whose root is not an
    # instruction, and succeeds when it is
    report = lockstep_check(fx.ARITH_SEQ, LevelPair.PEAK_PEK, fuel=100, mode="strict")
    assert not report.ok
    assert report.failures[0].step == 0
    assert lockstep_check(fx.FORCE_THUNK, LevelPair.PEAK_PEK, fuel=100, mode="strict").ok
    # left unset, the mode is the pair's own: modulo advancing for peak/pek
    assert lockstep_check(fx.ARITH_SEQ, LevelPair.PEAK_PEK, fuel=100).ok


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        lockstep_check(fx.ARITH_SEQ, LevelPair.SOS_CEK, 10, mode="sloppy")


def test_unknown_machine_rejected():
    with pytest.raises(ValueError):
        harness.machine("bogus", fx.ARITH_SEQ)


def test_divergent_program_checked_up_to_fuel():
    omega = parse_term("letrec f = force f in force f")
    for pair in ALL_PAIRS:
        report = lockstep_check(omega, pair, fuel=30)
        assert report.ok and report.steps_checked == 30, pair


# a loop whose states never repeat: a stale state is always a wrong one
_COUNTER = parse_term(r"letrec f = \x. x + 1 to y in y . force f in 0 . force f")
_LOWER = {
    LevelPair.SOS_CEK: cek,
    LevelPair.CEK_PEAK: peak,
    LevelPair.PEAK_PEK: pek,
    LevelPair.PEK_CFG: cfg,
}


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_state_after_the_last_fueled_step_is_checked(monkeypatch, pair):
    # The lower machine goes wrong only on the step after the last fueled
    # one, returning its first state again.
    fuel = 5
    module = _LOWER[pair]
    real_step = module.step
    seen = []

    def step(*args):
        seen.append(real_step(*args))
        return seen[0] if len(seen) == fuel + 1 else seen[-1]

    monkeypatch.setattr(module, "step", step)
    report = lockstep_check(_COUNTER, pair, fuel=fuel)
    assert not report.ok
    assert report.failures[0].step == fuel + 1


@given(terms)
@settings(max_examples=30, deadline=None)
def test_generated_terms_commute_everywhere(t):
    t = close_term(t)
    for pair in ALL_PAIRS:
        report = lockstep_check(t, pair, fuel=80)
        assert report.ok, (pair, report.lines())


# ---------------------------------------------------------------------------
# the full-tower square


@pytest.mark.parametrize("name", list(fx.PROGRAMS))
def test_tower_square_on_fixtures(name):
    report = tower_check(fx.PROGRAMS[name], fuel=2000)
    assert report.ok, report.lines()


def test_tower_square_aligns_stuck_programs():
    # stuck at the load state: the single verified square is the halt
    report = tower_check(parse_term("1 . prd 2"), fuel=10)
    assert report.ok and report.steps_checked == 1


def test_tower_square_up_to_fuel():
    omega = parse_term("letrec f = force f in force f")
    report = tower_check(omega, fuel=25)
    assert report.ok and report.steps_checked == 25


@given(terms)
@settings(max_examples=30, deadline=None)
def test_tower_square_on_generated_terms(t):
    report = tower_check(close_term(t), fuel=80)
    assert report.ok, report.lines()


# ---------------------------------------------------------------------------
# a broken compiler is caught


def _swap_branch_targets(prog):
    g = _REAL_COMPILE(prog)
    blocks = {}
    for p, (instr, succs) in g.blocks.items():
        if type(instr) is IF0:
            instr = IF0(instr.guard, instr.nonzero, instr.zero)
            succs = succs[::-1]
        blocks[p] = (instr, succs)
    return cfg.Cfg(g.entry, blocks, g.prog)


_REAL_COMPILE = cfg.compile


def test_swapped_branch_targets_fail_at_step_one(monkeypatch):
    monkeypatch.setattr(cfg, "compile", _swap_branch_targets)
    report = lockstep_check(fx.BRANCH_ZERO, LevelPair.PEK_CFG, fuel=100)
    assert not report.ok
    assert report.failures[0].step == 1
    assert report.failures[0].level == "pek/cfg"
    assert not tower_check(fx.BRANCH_ZERO, fuel=100).ok


def test_failure_lines_render_both_sides():
    expected, actual = parse_term("prd 0"), parse_term("prd 1")
    line = Failure(0, "sos/cek", expected, actual, as_prog(expected)).line()
    assert line == "sos/cek step 0: expected prd 0, got prd 1"


def _numerals_off_by_one(real):
    def eval_operand(e, o):
        v = real(e, o)
        return cfg.NumP(v.n + 1) if type(v) is cfg.NumP else v
    return eval_operand


def test_failure_lines_name_positions_by_their_paths(monkeypatch, capsys, tmp_path):
    # pcs and binders show as dotted paths, as the traces show them, not as
    # the position ids the machines use inside
    monkeypatch.setattr(cfg, "eval_operand", _numerals_off_by_one(cfg.eval_operand))
    text = "1 + 2 to x in x + 1 to y in prd y"
    want = (
        "pek/cfg step 1: expected PekState(pc=1.0, env=Env({ε: NumP(n=3)}), kont=()),"
        " got PekState(pc=1.0, env=Env({ε: NumP(n=5)}), kont=())"
    )
    report = lockstep_check(parse_term(text), LevelPair.PEK_CFG)
    assert report.lines() == [want]
    path = tmp_path / "off_by_one.cbpv"
    path.write_text(text + "\n")
    assert main(["check", "--all", str(path)]) == 3
    assert f"  {want}" in capsys.readouterr().err.splitlines()


def _jumps_past_the_last_node(real, jumped):
    def step(G, s):
        r = real(G, s)
        if type(r) is pek.PekState:
            jumped.append(len(as_prog(G.prog).nodes) + 2)
            return pek.PekState(jumped[-1], r.env, r.kont)
        return r
    return step


def test_a_failure_line_shows_an_id_that_names_no_position(monkeypatch):
    # a broken machine can hold any id: the checks report it, and the line
    # says it names no position instead of crashing or naming another node
    jumped = []
    monkeypatch.setattr(cfg, "step", _jumps_past_the_last_node(cfg.step, jumped))
    m = parse_term("1 + 2 to x in prd x")
    [line] = lockstep_check(m, LevelPair.PEK_CFG).lines()
    n = jumped[-1]
    assert line == (
        "pek/cfg step 1: expected PekState(pc=1, env=Env({ε: NumP(n=3)}), kont=()),"
        f" got PekState(pc=no position {n}, env=Env({{ε: NumP(n=3)}}), kont=())"
    )
    [line] = tower_check(m).lines()
    n = jumped[-1]
    assert line == (
        f"sos/cfg step 1: expected prd 3, got 'state does not unload: pc at no position {n}'"
    )
    prog = as_prog(m)
    state = pek.PekState(-1, peak.chain((-2, peak.NumP(3))), (pek.KRet(-3, 0, peak.EMPTY),))
    with pytest.raises(cek.IllFormedState, match="return frame at no position -3"):
        pek.unload(prog, state)
    assert harness._render(state, prog) == (
        "PekState(pc=no position -1, env=Env({no position -2: NumP(n=3)}),"
        " kont=(KRet(bind=no position -3, resume=ε, env=Env({})),))"
    )


def test_rendered_states_name_every_position_by_its_path():
    prog = as_prog(parse_term(r"thunk { prd 3 } . \t. (force t to x in 1 + x) to y in prd y"))
    rho = peak.load(prog)
    for _ in range(2):
        rho = peak.step(prog, rho)
    closure = "PClosure(entry=0.0, env=Env({}))"
    assert harness._render(rho, prog) == (
        f"PeakState(pc=0.0, env=Env({{}}), args=(), kont=(KSeq(pos=1.0.0,"
        f" env=Env({{1: {closure}}}), rest_args=(SEQ(pos=1.0),)),))"
    )
    s = pek.load(prog)
    ret = pek.KRet(prog.pos((0, 1)), prog.pos((1, 0, 1)), s.env)
    assert harness._render(pek.PekState(s.pc, s.env, (ret,)), prog) == (
        f"PekState(pc={prog.path_text(s.pc)}, env=Env({{}}),"
        " kont=(KRet(bind=1.0, resume=1.0.1, env=Env({})),))"
    )


# ---------------------------------------------------------------------------
# the generator


def test_size_zero_is_a_leaf_producer():
    t = gen_term(11, 0, True)
    assert type(t) is Prd and type(t.value) is NumV


@given(st.integers(0, 10_000), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_generation_is_deterministic(seed, size):
    assert gen_term(seed, size, True) == gen_term(seed, size, True)
    assert gen_term(seed, size, False) == gen_term(seed, size, False)


@given(st.integers(0, 10_000), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_closed_terms_have_no_free_variables(seed, size):
    assert free_vars(gen_term(seed, size, True)) == frozenset()


def test_corpus_covers_every_constructor():
    seen = set()
    for seed in range(200):
        for _, node in iter_subterms(gen_term(seed, 25, True)):
            seen.add(type(node).__name__)
    assert {"Force", "Prd", "App", "Lam", "Seq", "LetRec", "If0", "Op",
            "NumV", "ThunkV", "VarV"} <= seen


def test_distinct_seeds_vary():
    distinct = {gen_term(seed, 20, True) for seed in range(50)}
    assert len(distinct) > 40


def test_states_that_fail_to_unload_become_failures(monkeypatch):
    # A return frame that captures the callee's environment instead of the
    # caller's leaves the resume scope unbound; the checks must report that
    # rather than blow up inside the unload chain.
    caller_sensitive = parse_term(
        r"thunk { prd 3 } . \t. 1 + 1 to w in force t to x in x + w"
    )
    real_execute = cfg._execute

    def call_stores_callee_env(instr, succs, s):
        if type(instr) is cfg.CALL:
            v = cfg.eval_operand(s.env, instr.fn)
            if type(v) is cfg.PClosure:
                frames = tuple(cfg.KArg(x) for x in cfg._eval_args(s.env, instr.args))
                ret = cfg.KRet(instr.bind, succs[0], v.env)
                return cfg.PekState(v.entry, v.env, frames + (ret,) + s.kont)
        return real_execute(instr, succs, s)

    monkeypatch.setattr(cfg, "_execute", call_stores_callee_env)
    report = tower_check(caller_sensitive, fuel=100)
    assert not report.ok
    assert "does not unload" in report.failures[0].line()
    assert not lockstep_check(caller_sensitive, LevelPair.PEK_CFG, fuel=100).ok
