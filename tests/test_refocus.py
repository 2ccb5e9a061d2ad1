"""The refocused tower check against the plugged-term check it replaced.

``harness.tower_check`` reads each state as a decomposition, a focus in an
evaluation context (``sos.step_in``), and compares a step with the next
state only above the context tail the two share.  The oracle below is the
check as it was before: every visited state unloaded to a whole term
(``cfg.unload``), stepped by ``sos.step`` from the root and compared with
``alpha_eq`` in full.  The two must check the same number of steps and
report the same failures, in the same words, on every program and under
every broken machine below.
"""

import pytest

import cbpv.fixtures as fx
from cbpv import cfg, harness, pek, sos
from cbpv.harness import Failure, Report, gen_term, tower_check
from cbpv.parser import parse_term
from cbpv.sos import Next
from cbpv.syntax import alpha_eq, as_prog

from test_acceptance import _CALLER_SENSITIVE, _MUTATIONS, CORPUS
from test_compile_oracle import DEPTHS, chain_text, sum_text, thunks_text
from test_frames import spine
from test_unload_sharing import CAPTURE, NESTED_LETRECS, _stale_parent

# ---------------------------------------------------------------------------
# the oracle: the tower check on whole terms


class _Broken(Exception):
    """Carries a failing Report out of the run loop."""


def plugged_tower_check(m, fuel: int = 1000) -> Report:
    level = "sos/cfg"
    prog = as_prog(m)
    low = harness.machine("cfg", prog)
    ahead = None  # the structural step from the last visited state

    def fail(checked, step, expected, actual):
        raise _Broken(Report(prog.term, checked, (Failure(step, level, expected, actual, prog),)))

    def arrive(s, i):
        if type(ahead) is not Next:
            fail(i - 1, i, ahead, s)
        u, err = harness._unloads(low.unload, s)
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
            t, err = harness._unloads(low.unload, s)
            if err is not None:
                fail(i, i, "a state that unloads", err)
        ahead = sos.step(t)

    try:
        halt, steps, last = harness.run(low, fuel, visit)
        if halt is None:
            arrive(low.step(last), steps + 1)
            return Report(prog.term, steps)
    except _Broken as exc:
        return exc.args[0]
    if type(ahead) is Next or not harness._halts_align(ahead, halt, low.value, alpha_eq):
        return Report(prog.term, steps, (Failure(steps + 1, level, ahead, halt, prog),))
    return Report(prog.term, steps + 1)


def _outcome(check, m, fuel):
    """What a check reports on ``m``: steps checked and failure lines, or
    the exception it raised."""
    try:
        r = check(m, fuel)
    except Exception as exc:  # a broken machine may crash both checks alike
        return "raised", type(exc).__name__, str(exc)
    return r.steps_checked, r.lines()


def _agree(programs, fuel=300):
    """Assert that both checks report alike on every program; returns how
    many of them failed."""
    failed = 0
    for k, m in enumerate(programs):
        want = _outcome(plugged_tower_check, m, fuel)
        assert _outcome(tower_check, m, fuel) == want, k
        failed += len(want) != 2 or bool(want[1])
    return failed


# ---------------------------------------------------------------------------
# the corpora


def test_the_checks_agree_on_the_acceptance_corpus():
    assert _agree(CORPUS) == 0


OPEN_CORPORA = {
    "open terms": lambda: [gen_term(s, s % 26, closed=False) for s in range(500)],
    "open terms of size 24": lambda: [gen_term(s, 24, closed=False) for s in range(300)],
    "stuck open terms": lambda: [gen_term(s, s % 26, closed=False) for s in range(2000, 2200)],
    "nested letrecs": lambda: [parse_term(t) for t in NESTED_LETRECS],
}


@pytest.mark.parametrize("group", OPEN_CORPORA)
def test_the_checks_agree_on_open_terms(group):
    _agree(OPEN_CORPORA[group]())


def test_the_checks_agree_on_deep_programs():
    texts = [f(n) for f in (chain_text, thunks_text, sum_text) for n in DEPTHS + (300,)]
    programs = [parse_term(t) for t in texts] + [spine(n) for n in DEPTHS + (300,)]
    assert _agree(programs, fuel=10**6) == 0
    assert _agree([spine(2000)], fuel=20) == 0


# ---------------------------------------------------------------------------
# broken machines


# The mutants the tower check sees: the block machine loads where pek's
# advancement lands.  The others break frame conversion and lookup, which
# the block machine does not run.
_SEEN_BY_THE_TOWER = {
    "swapped if0 targets",
    "call frame stores callee env",
    "advancement skips letrec",
    "descent skips letrec on both machines",
}


@pytest.mark.parametrize("label", _MUTATIONS)
def test_the_checks_agree_under_each_mutant(monkeypatch, label):
    for module, attr, mutant in _MUTATIONS[label]:
        monkeypatch.setattr(module, attr, mutant)
    programs = list(fx.PROGRAMS.values()) + [_CALLER_SENSITIVE, parse_term(sum_text(5))]
    assert bool(_agree(programs)) == (label in _SEEN_BY_THE_TOWER)


def test_the_checks_agree_on_a_bind_onto_a_stale_parent(monkeypatch):
    monkeypatch.setattr(cfg, "_execute", _stale_parent(cfg._execute))
    programs = [parse_term(sum_text(5)), *fx.PROGRAMS.values()]
    assert _agree(programs)
    report = tower_check(programs[0])
    assert report.failures[0].step == 8 and report.steps_checked == 7


CAPTURE_LINE = (
    "sos/cfg step 1: expected thunk { letrec x = force thunk { b . prd 6 } in force thunk"
    " { b . prd 6 } } . prd 3, got thunk { letrec x = force thunk { thunk { letrec b' ="
    " prd thunk { letrec x = force thunk { b . prd 6 } in force thunk { b . prd 6 } } in"
    " prd thunk { letrec x = force thunk { b . prd 6 } in force thunk { b . prd 6 } } }"
    " . prd 6 } in force thunk { thunk { letrec b' = prd thunk { letrec x = force thunk"
    " { b . prd 6 } in force thunk { b . prd 6 } } in prd thunk { letrec x = force thunk"
    " { b . prd 6 } in force thunk { b . prd 6 } } } . prd 6 } } . prd 3"
)


def test_the_capture_reproducer_still_fails_at_step_one():
    m = parse_term(CAPTURE)
    for check in (tower_check, plugged_tower_check):
        report = check(m, 1000)
        assert report.steps_checked == 0 and report.lines() == [CAPTURE_LINE]


def test_a_halt_against_a_running_step_shows_the_whole_term(monkeypatch):
    # sos steps on where cfg halts: the failure shows sos's next term in
    # full, context included, as the plugged-term check did
    real = cfg.step

    def halts_early(g, s):
        r = real(g, s)
        return sos.Terminal(sos.AwaitingArgument()) if len(s.kont) > 2 else r

    monkeypatch.setattr(cfg, "step", halts_early)
    m = parse_term(sum_text(3))
    want = _outcome(plugged_tower_check, m, 300)
    assert _outcome(tower_check, m, 300) == want
    assert "expected Next(term=" in want[1][0]
