"""Positions named by id inside the machines: costs that grow with size.

peak, pek and cfg name every position by its id in the program's index
(``syntax.Prog``), and build a path only at the edge (traces, listings,
messages).  So a run builds no path, nor turns its term into a Prog again,
and compile's memory and a checked run's time grow in proportion to the
program.
"""

import gc
import sys
import time
import tracemalloc

import pytest

from cbpv import cfg, harness, peak, pek, syntax
from cbpv import fixtures as fx
from cbpv.parser import parse_term
from cbpv.sos import Stuck, Terminal
from cbpv.syntax import Prog, as_prog

from test_compile_oracle import chain_text, sum_text, thunks_text


def _count_paths(monkeypatch):
    made = []
    real = syntax.Prog.path_text

    def counted(self, i):
        made.append(i)
        return real(self, i)

    monkeypatch.setattr(syntax.Prog, "path_text", counted)
    return made


def _run(step, s):
    while type(s) not in (Terminal, Stuck):
        s = step(s)
    return s


@pytest.mark.parametrize("family", [chain_text, thunks_text, sum_text])
def test_a_run_builds_no_path(monkeypatch, family):
    term = parse_term(family(2000 if family is not sum_text else 200))
    made = _count_paths(monkeypatch)
    prog = as_prog(term)
    _run(lambda s: pek.step(prog, s), pek.load(prog))
    prog = Prog(term)  # each machine from a fresh index
    g, s = cfg.load(prog)  # compile included
    _run(lambda s: cfg.step(g, s), s)
    prog = Prog(term)
    _run(lambda s: peak.step(prog, s), peak.load(prog))
    assert made == []


@pytest.mark.parametrize("name", ["peak", "pek", "cfg"])
def test_a_run_turns_no_term_into_a_prog(name):
    # peak, pek and cfg take the Prog they run over: the term becomes one
    # when the machine is loaded, and neither a step nor a trace line
    # converts it again
    mach = harness.machine(name, fx.mult_call(3, 30, 0))
    calls, code = [], syntax.as_prog.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)  # the caller, should one fail

    sys.setprofile(profile)
    try:
        halt, steps, _ = harness.run(mach, 10**4, mach.describe)
    finally:
        sys.setprofile(None)
    assert type(halt) is Terminal and steps > 100
    assert calls == []


def test_a_letrec_nest_takes_memory_in_proportion_to_its_depth():
    # A position's static frame names only its nearest letrec, the next one
    # out being that letrec's own: about 3.9 times from 1,000 to 2,000 deep
    # when each frame kept every letrec up to its binder, n(n+1)/2 ids in all
    peaks = {}
    for n in (1000, 2000):
        term = parse_term("letrec f = prd 0 in " * n + "force f")
        tracemalloc.start()
        try:
            halt, _, _ = harness.run(harness.machine("pek", term), 100)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(halt) is Terminal
    assert peaks[2000] <= 2.5 * peaks[1000], peaks


def test_compile_memory_grows_with_the_program():
    peaks = {}
    for n in (1000, 4000):
        term = parse_term(chain_text(n))
        prog = as_prog(term)
        tracemalloc.start()
        try:
            cfg.compile(prog)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] < 30e6  # 127 MB when every block was named by its path
    assert peaks[4000] < 6 * peaks[1000]


@pytest.mark.parametrize("n", [1000, 2000])
def test_records_memory_is_a_small_multiple_of_the_output(n):
    # A spine's rows are as long as the spine, so the output is quadratic by
    # format; the memory besides it should not be.  Rendering each path by
    # climbing keeps nothing: about 3 times the output, where keeping one
    # path tuple per position came to about 5.7 times.
    term = parse_term("(" * n + "prd 0" + " to x in prd x)" * n)
    g = cfg.compile(as_prog(term))
    tracemalloc.start()
    try:
        out = cfg.records(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.splitlines()) == n + 1
    assert peak < 4 * len(out), peak / len(out)


@pytest.mark.skipif(sys.flags.dev_mode, reason="timing under -X dev is too noisy")
def test_a_checked_run_grows_linearly():
    # The collector is off while a run is timed: when its full collections
    # fall depends on everything alive in the process, so one landing in a
    # single run would be timed as that run's growth.  The sizes alternate
    # so both see the same machine.
    terms = {n: parse_term(chain_text(n)) for n in (1000, 4000)}
    best = dict.fromkeys(terms, float("inf"))
    for _ in range(5):
        for n, term in terms.items():
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                assert harness.tower_check(term, fuel=10**6).ok
                best[n] = min(best[n], time.perf_counter() - start)
            finally:
                gc.enable()
    small, large = best[1000], best[4000]
    assert large <= 6 * small, (small, large)  # about 12 times when pcs were paths
