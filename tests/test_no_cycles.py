"""No run or check leaves cyclic garbage.

Each operation runs over a copy of every input with the collector off, and
the Prog ``as_prog`` kept is evicted after each input.  Whatever the operation built
is then freed by reference counting alone, so ``gc.collect()`` finds
nothing: the tower allocates no reference cycles.  A change that makes one
(a memo that refers back to its owner, a closure kept on the object it
closes over) fails here, and the message names the first input that leaks.
"""

import copy
import gc

import pytest

from test_acceptance import CORPUS
from test_compile_oracle import chain_text, sum_text, thunks_text
from test_unroll import even_odd, three_way
from cbpv import fixtures as fx
from cbpv import harness, rewrite, sos
from cbpv.harness import LevelPair, gen_term, lockstep_check, tower_check
from cbpv.parser import parse_term
from cbpv.syntax import as_prog

INPUTS = (
    CORPUS  # the fixtures and 1,000 generated closed terms
    + [gen_term(s, s % 26, closed=s % 5 != 4) for s in range(600)]
    + [parse_term(f(n)) for f in (chain_text, thunks_text, sum_text) for n in (1, 7, 60)]
    + [fx.mult_call(3, 10, 0), even_odd(11), three_way(12)]
)

_EVICT = parse_term("prd 0")


def _run_on(name):
    return lambda t: harness.run(harness.machine(name, t), 1000)


def _optimize_and_validate(t):
    return rewrite.validate(t, rewrite.optimize(t)[0])


OPERATIONS = {
    "sos.run": lambda t: sos.run(t, 1000),
    **{f"harness.run {m}": _run_on(m) for m in ("cek", "peak", "pek", "cfg")},
    "tower_check": tower_check,
    **{f"lockstep {p.value}": (lambda t, p=p: lockstep_check(t, p)) for p in LevelPair},
    "optimize + validate": _optimize_and_validate,
}


def _garbage_after(op, inputs) -> int:
    """What the collector finds after ``op`` ran on a fresh copy of each of
    ``inputs`` with it off, evicting the kept Prog after each.  Each copy
    is dropped after its run, and with it whatever the run kept on it."""
    fresh = [copy.deepcopy(t) for t in reversed(inputs)]
    gc.collect()
    gc.disable()
    try:
        while fresh:
            op(fresh.pop())
            as_prog(_EVICT)
    finally:
        gc.enable()
    return gc.collect()


@pytest.mark.parametrize("name", OPERATIONS)
def test_an_operation_leaves_no_cyclic_garbage(name):
    op = OPERATIONS[name]
    if _garbage_after(op, INPUTS):
        leaks = next(i for i, t in enumerate(INPUTS) if _garbage_after(op, [t]))
        pytest.fail(f"{name} leaves cyclic garbage on input {leaks}: {INPUTS[leaks]!r}")
