"""Positions named by id inside the machines: costs that grow with size.

peak, pek and cfg name every position by its id in the program's index
(``syntax.Prog``), and build a path only at the edge (traces, listings,
messages).  So a run builds no path, and compile's memory and a checked
run's time grow in proportion to the program.
"""

import gc
import sys
import time
import tracemalloc

import pytest

from cbpv import cfg, harness, peak, pek, syntax
from cbpv.parser import parse_term
from cbpv.sos import Stuck, Terminal
from cbpv.syntax import Prog, as_prog

from test_compile_oracle import chain_text, sum_text, thunks_text


def _count_paths(monkeypatch):
    made = []
    real = syntax.Prog.path

    def counted(self, i):
        made.append(i)
        return real(self, i)

    monkeypatch.setattr(syntax.Prog, "path", counted)
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
