"""Seeded inputs for the three benchmark workloads.

Every program is generated here as text, together with the answer it must
produce.  Answers come from closed forms worked out by hand, never from the
machines under test.  ``digest`` fingerprints the program texts so that two
commits can be shown to have run identical inputs.
"""

import hashlib
import math
import random
from dataclasses import dataclass

from cbpv.fixtures import mult_call
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.printer import print_term
from cbpv.syntax import free_vars, iter_subterms

WORKLOADS = ("long_runs", "deep_programs", "verify_corpus")
MACHINES = ("sos", "cek", "peak", "pek", "cfg")

# fuel for runs that must reach their halt; it never binds on these inputs
BIG_FUEL = 10**7
# Corpus runs are a few steps long (the longest seen is 14).  A generated
# program can diverge while its sos term grows, which makes its cost
# superlinear in fuel, so a small fuel keeps one such program from
# swamping the thousands of others.
CORPUS_FUEL = 100


@dataclass(frozen=True)
class Program:
    pid: int
    text: str
    family: str  # "mult_call", "chain", "thunks", "sum" or "corpus"
    size: int  # the size axis of the growth fits (see README)
    nodes: int
    answer: object  # the int a run must produce, or None when only agreement is checked
    machines: tuple  # machines that run it to a halt
    tower: bool
    lockstep: bool
    verdict: bool  # optimize and validate after the checks (corpus only)
    valuations: tuple  # valuations of the free names, for validate
    fuel: int


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for p in self.programs:
            h.update(p.text.encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}/{seed}")
    make = {"long_runs": _long_runs, "deep_programs": _deep_programs,
            "verify_corpus": _verify_corpus}[name]
    programs = make(rng)
    rng.shuffle(programs)
    return Workload(name, tuple(Program(pid=i, **p) for i, p in enumerate(programs)))


def program_fields(term, family, answer, *, size=None, machines=MACHINES,
                   tower=False, lockstep=False, verdict=False, valuations=({},),
                   fuel=BIG_FUEL):
    """Fields of a Program; ``term`` is its text or its syntax tree."""
    if isinstance(term, str):
        text, term = term, parse_term(term)
    else:
        text = print_term(term)
    nodes = sum(1 for _ in iter_subterms(term))
    return dict(text=text, family=family, size=nodes if size is None else size,
                nodes=nodes, answer=answer, machines=machines, tower=tower,
                lockstep=lockstep, verdict=verdict, valuations=valuations,
                fuel=fuel)


# ---------------------------------------------------------------------------
# long_runs: one 36-node program, run lengths from 200 to 4000 iterations

LONG_COUNT = 20
LONG_M = (200, 4000)
LONG_CHECKED = 3  # the three shortest runs also go through every check


def _long_runs(rng):
    # Stratified log-uniform draw: one m per equal slice of log m, with the
    # two ends pinned.  Every seed then does nearly the same total work and
    # has the same longest run, so seeds compare on equal terms.
    lo, hi = (math.log(x) for x in LONG_M)
    inner = LONG_COUNT - 2
    qs = [0.0] + [(i + rng.random()) / inner for i in range(inner)] + [1.0]
    out = []
    for rank, q in enumerate(qs):
        m = round(math.exp(lo + (hi - lo) * q))
        n, a = rng.randint(1, 9), rng.randint(0, 99)
        checked = rank < LONG_CHECKED
        out.append(program_fields(
            mult_call(n, m, a), "mult_call", n * (m - 1) + a, size=m,
            tower=checked, lockstep=checked,
        ))
    return out


# ---------------------------------------------------------------------------
# deep_programs: three families on a size ladder

DEEP_LADDER = (125, 250, 500, 1000)
# sum's continuation depth grows with n and the tower check on it costs
# about n^1.8 (3.2 s at n=125), so its ladder is an eighth as tall
SUM_LADDER = (16, 32, 64, 128)
_STEMS = "abcdefghjmpqsuvwyz"  # not k or r, which sum_text binds


def chain_text(n: int, c: int = 1, stem: str = "x") -> str:
    """``c + 0 to x0 in x0 + 1 to x1 in ... prd x{n-1}``; yields c + n - 1."""
    links = [f"{c} + 0 to {stem}0 in "]
    links += [f"{stem}{i - 1} + 1 to {stem}{i} in " for i in range(1, n)]
    return "".join(links) + f"prd {stem}{n - 1}"


def thunks_text(n: int, c: int = 0) -> str:
    """n nested ``force thunk { ... }`` around ``prd c``; yields c."""
    return "force thunk { " * n + f"prd {c}" + " }" * n


def sum_text(n: int, c: int = 0, f: str = "sum", v: str = "n") -> str:
    """Non-tail recursive sum of 1..n on top of c; yields c + n(n+1)/2."""
    return (
        f"letrec {f} = \\{v}. if0 {v} {{ prd {c} }} "
        f"{{ {v} - 1 to k in (k . force {f}) to r in {v} + r }} in {n} . force {f}"
    )


def _deep_programs(rng):
    out = []
    for rank, n in enumerate(DEEP_LADDER):
        c, stem = rng.randint(1, 9), rng.choice(_STEMS)
        out.append(_deep(chain_text(n, c, stem), "chain", rank, c + n - 1))
        c = rng.randint(0, 9)
        out.append(_deep(thunks_text(n, c), "thunks", rank, c))
    for rank, n in enumerate(SUM_LADDER):
        c = rng.randint(0, 9)
        f, v = rng.sample(_STEMS, 2)
        out.append(_deep(sum_text(n, c, "s" + f, v), "sum", rank,
                         c + n * (n + 1) // 2, size=n))
    return out


def _deep(text, family, rank, answer, size=None):
    # sos runs on all but the top rung, tower_check on the two smallest
    # rungs and the lockstep pairs on the smallest
    top = rank == len(DEEP_LADDER) - 1
    return program_fields(text, family, answer, size=size,
                    machines=MACHINES[1:] if top else MACHINES,
                    tower=rank < 2, lockstep=rank == 0)


# ---------------------------------------------------------------------------
# verify_corpus: thousands of small generated programs

CORPUS_COUNT = 4000
CORPUS_MAX_SIZE = 25


def _verify_corpus(rng):
    out = []
    base = rng.randrange(10**9)
    for i in range(CORPUS_COUNT):
        closed = i % 5 != 4  # 80% closed, 20% open
        term = gen_term(base + i, i % (CORPUS_MAX_SIZE + 1), closed)
        names = sorted(free_vars(term))
        valuations = ({},)
        if names:  # open terms are validated under two valuations
            valuations = tuple(
                {x: rng.randint(-9, 99) for x in names} for _ in range(2)
            )
        out.append(program_fields(
            term, "corpus", None, tower=True, lockstep=True, verdict=True,
            valuations=valuations, fuel=CORPUS_FUEL,
        ))
    return out
