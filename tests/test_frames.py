"""Continuations as chains of shared cells (``cek.Frames``): equality of
chains of any depth, checks that derive each frame once, and a tower check
whose work per step does not grow with the continuation's depth."""

import sys

import pytest

from cbpv import cek, harness, peak, pek, sos
from cbpv.cek import NIL, ArgF, Frames, NumC, SeqF, frames
from cbpv.harness import LevelPair
from cbpv.parser import parse_term
from cbpv.peak import EMPTY, KArg, KSeq, NumP
from cbpv.pek import KRet
from cbpv.syntax import NumV, Prd, Seq, VarV, as_prog

from test_compile_oracle import sum_text

# ---------------------------------------------------------------------------
# equality


def _cek_frame(k):
    return ArgF(NumC(k)) if k % 2 else SeqF("r", Prd(VarV("r")), None)


def _peak_frame(k):
    return KArg(NumP(k)) if k % 2 else KSeq(k, EMPTY, frames(peak.SEQ(k + 1)))


def _pek_frame(k):
    return KArg(NumP(k)) if k % 2 else KRet(k, k + 1, EMPTY)


def _chain(frame, n):
    """A fresh chain of ``n`` frames, each a fresh object."""
    c = NIL
    for k in range(n):
        c = Frames(frame(k), c)
    return c


def _count_eq(monkeypatch, classes):
    """Count the calls of each class's ``__eq__``."""
    calls = []
    for cls in classes:
        real = cls.__eq__

        def counted(a, b, real=real):
            calls.append(type(a))
            return real(a, b)

        monkeypatch.setattr(cls, "__eq__", counted)
    return calls


@pytest.mark.parametrize(
    "frame, classes",
    [(_cek_frame, (ArgF, SeqF)), (_peak_frame, (KArg, KSeq)), (_pek_frame, (KArg, KRet))],
    ids=["cek", "peak", "pek"],
)
def test_deep_continuations_compare_without_recursion(monkeypatch, frame, classes):
    n = 30_000
    a, b = _chain(frame, n), _chain(frame, n)
    assert a is not b and len(a) == len(b) == n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        assert a == b and b == a
        assert a != _chain(frame, n - 1)
        assert a.twin is b and a.rest.twin is b.rest  # kept: cells cannot change
        assert a != Frames(frame(n + 1), b.rest)  # a different top frame
        # one push onto each: the second comparison walks the new cells and
        # stops at the pair the first one found equal
        calls = _count_eq(monkeypatch, classes)
        a1, b1 = Frames(frame(n), a), Frames(frame(n), b)
        assert a1 == b1
        assert len(calls) == 1 and a1.twin is b1
    finally:
        sys.setrecursionlimit(limit)


def _cells(c):
    out = []
    while c.size:
        out.append(c)
        c = c.rest
    return out


def test_unloads_of_one_suffix_are_one_object():
    # the unload of a continuation's tail is the tail of its unload, kept
    # on the tail's cell, so states that share a tail share its unload
    n = 20
    prog = as_prog(parse_term(sum_text(n)))
    s, states = pek.load(prog), []
    while type(s) is pek.PekState:
        states.append(s)
        s = pek.step(prog, s)
    deepest = max(states, key=lambda s: len(s.kont))
    assert len(deepest.kont) == n + 1  # a return frame per call, and the last argument
    rho = pek.unload(prog, deepest)
    sigma = peak.unload(prog, rho)
    unloaded = {id(c) for c in _cells(sigma.kont)}
    for k, r in zip(_cells(deepest.kont), _cells(rho.kont)):
        assert pek.unload(prog, pek.PekState(deepest.pc, deepest.env, k)).kont is r
        assert id(peak._unload_k(prog, EMPTY, NIL, r)) in unloaded
    again = peak.unload(prog, pek.unload(prog, deepest))
    assert again.kont is sigma.kont and again == sigma


# ---------------------------------------------------------------------------
# a checked step derives only the frames it pushed


def _count_derivations(monkeypatch):
    calls = []
    for mod, name in [
        (pek, "_peak_frame"),  # pek -> peak, one per frame
        (peak, "_cek_frames"),  # peak -> cek, one per frame
        (pek, "_frame_faults"),  # the wf verdict of one frame
        (harness, "_canon_frame"),  # the canonical form of one frame
    ]:
        real = getattr(mod, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("n", [64, 256])
def test_a_checked_step_derives_each_frame_once(monkeypatch, n):
    calls = _count_derivations(monkeypatch)
    report = harness.tower_check(parse_term(sum_text(n)), fuel=10**6)
    assert report.ok and report.steps_checked > 5 * n
    assert {"_peak_frame", "_cek_frames", "_frame_faults"} <= set(calls)
    assert len(calls) <= 4 * report.steps_checked
    del calls[:]
    report = harness.lockstep_check(parse_term(sum_text(n)), LevelPair.PEAK_PEK, fuel=10**6)
    assert report.ok and "_canon_frame" in calls
    assert len(calls) <= 4 * report.steps_checked


# ---------------------------------------------------------------------------
# what the checks derive from a chain (``Cell.derive``)


def _visited(monkeypatch, n):
    """The prog of ``sum_text(n)`` and the states its tower check and its
    peak/pek lockstep check visit: each pek state of the tower check with
    its PEAK unload, and each PEAK state the lockstep check canonicalizes."""
    prog = as_prog(parse_term(sum_text(n)))
    states = []
    real_wf, real_canon = pek.wf_check, harness.canon_state

    def wf_check(P, s):
        states.append(s)
        states.append(pek.unload(prog, s))
        return real_wf(P, s)

    def canon_state(P, rho):
        states.append(rho)
        return real_canon(P, rho)

    monkeypatch.setattr(pek, "wf_check", wf_check)
    monkeypatch.setattr(harness, "canon_state", canon_state)
    assert harness.tower_check(prog, fuel=10**6).ok
    assert harness.lockstep_check(prog, LevelPair.PEAK_PEK, fuel=10**6).ok
    return prog, states


def test_derived_images_share_suffixes_and_never_hold_their_cell(monkeypatch):
    prog, states = _visited(monkeypatch, 64)
    chains = []
    for s in states:
        chains += (s.env, s.kont)
        chains += (f.env for f in s.kont if type(f) is not KArg)
        if type(s) is peak.PeakState:
            # the canonical image of each suffix is the matching suffix of
            # the image, one object
            for c, canon in ((s.env, harness._canon_env), (s.kont, harness._canon_kont)):
                image = canon(prog, c)
                assert len(image) == len(c)
                for cell, suffix in zip(_cells(c), _cells(image)):
                    assert canon(prog, cell) is suffix
    seen, same = set(), 0
    for c in chains:
        for cell in _cells(c):
            if id(cell) in seen:
                break
            seen.add(id(cell))
            memo = getattr(cell, "memo", None)
            for v in memo[1].values() if memo else ():
                assert v is not cell  # a cell that is its own image keeps _SAME
                same += v is cek._SAME
    assert same


# ---------------------------------------------------------------------------
# a checked step plugs and compares only what it changed


def spine(n):
    """``(…(prd 0 to x in prd x)… to x in prd x)``, ``n`` Seq left sides deep."""
    m = Prd(NumV(0))
    for _ in range(n):
        m = Seq(m, "x", Prd(VarV("x")))
    return m


def _context_work(monkeypatch):
    """Per state a tower check visits, the context frames it derives
    (``cek._context_frame``) and plugs (``sos.plug``), which are those it
    compares, from the state's unload to sos's step from it."""
    work = []
    real_decompose, real_frame, real_plug = harness._decompose, cek._context_frame, sos.plug

    def decompose(*args):
        work.append(0)
        return real_decompose(*args)

    def context_frame(*args):
        work[-1] += 1
        return real_frame(*args)

    def plug(term, frames):
        frames = list(frames)
        work[-1] += len(frames)
        return real_plug(term, frames)

    monkeypatch.setattr(harness, "_decompose", decompose)
    monkeypatch.setattr(cek, "_context_frame", context_frame)
    monkeypatch.setattr(sos, "plug", plug)
    return work


PER_STEP = 8  # context frames derived, plugged and compared per checked step


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_a_checked_sum_step_does_the_same_work_at_any_depth(monkeypatch, n):
    work = _context_work(monkeypatch)
    report = harness.tower_check(parse_term(sum_text(n)), fuel=10**6)
    assert report.ok and len(work) == report.steps_checked > 5 * n
    assert max(work) <= PER_STEP


@pytest.mark.parametrize("n", [1000, 8000])
def test_a_checked_spine_step_does_the_same_work_at_any_depth(monkeypatch, n):
    # At the load state the whole spine is the focus, which sos descends,
    # and at the next it is the context, derived and compared once: those
    # two states cost the depth.  Each step after them costs a constant,
    # which needs the argument stack's unload kept on its cells
    # (``peak._unload_args``), or each state's context would be new.
    work = _context_work(monkeypatch)
    report = harness.tower_check(spine(n), fuel=20)
    assert report.ok and report.steps_checked == 20 and len(work) == 22
    assert max(work[:2]) <= 3 * n
    assert max(work[2:]) <= PER_STEP
