"""The timed operations of one program visit.

Each operation starts from program text, the way ``cbpv run``, ``compile``,
``check`` and ``optimize`` do, so the per-program caches (``Prog`` path
tables, free-variable memos on nodes) are filled inside the operation and
never carried from one operation to the next.  Every call into a layer is
timed, and when a ``Spans`` recorder is passed each call also leaves a span.
"""

from collections import Counter
from time import perf_counter as clock

from cbpv import cek, cfg, harness, peak, pek, rewrite, sos
from cbpv.harness import LevelPair
from cbpv.parser import parse_term
from cbpv.sos import (
    AwaitingArgument,
    BareArith,
    FuelExhausted,
    Next,
    ProducedValue,
    Stuck,
    Terminal,
    Verdict,
)
from cbpv.rewrite import RuleId
from cbpv.syntax import (
    Force,
    Lam,
    LetRec,
    NumV,
    Seq,
    ThunkV,
    VarV,
    arity,
    as_prog,
    child,
    free_vars,
    freshen,
    iter_subterms,
    substitute,
    with_child,
)

PAIRS = {
    "sos-cek": LevelPair.SOS_CEK,
    "cek-peak": LevelPair.CEK_PEAK,
    "peak-pek": LevelPair.PEAK_PEK,
    "pek-cfg": LevelPair.PEK_CFG,
}


class Spans:
    """Spans of the traced phase, kept in memory and written out at the end.

    A span is ``(program id, round, name, start, end, count)``; the spans
    of one visit to a program share its id and round, and the count is the
    work the call did (nodes parsed, blocks compiled, steps taken...).
    Spans never nest, so a layer's self time is the sum of its spans.
    """

    watch = True

    def __init__(self):
        self.rows = []
        self.round = 0
        self.kont = Counter()  # peak continuation depth per machine
        self.env = 0  # peak cfg environment size
        self.rules = Counter()  # rewrite rules applied
        self.nodes_before = self.nodes_after = 0

    def add(self, pid, name, t0, t1, count=0):
        self.rows.append((pid, self.round, name, t0, t1, count))


class NoSpans:
    """The untraced recorder: the same calls, nothing kept."""

    rows = ()
    watch = False
    round = 0

    def add(self, pid, name, t0, t1, count=0):
        pass


class WrongAnswer(Exception):
    """An operation finished but its output is wrong."""


class Visit:
    """What one visit to one program measured."""

    def __init__(self):
        self.times = {}  # key -> (start, end); "op.<name>" for a whole operation
        self.checked = 0  # steps checked by tower_check and lockstep_check
        self.verdict = None  # of validate, on the corpus
        self.findings = []  # known defects this visit ran into (see check_op)


# ---------------------------------------------------------------------------
# driving a machine


def _drive(step, s, limit, peaks):
    """Step from ``s`` until a halt or ``limit`` transitions.

    Returns ``(halt or None, step() calls, last running state)``.
    """
    n = 0
    while True:
        r = step(s)
        t = type(r)
        if t is Terminal or t is Stuck:
            return r, n + 1, s
        s = r
        n += 1
        if n == limit:
            return None, n, s


def _drive_watched(step, s, limit, peaks):
    """``_drive`` that also tracks the peak continuation depth (and, when
    ``peaks[1]`` is not None, the peak environment size)."""
    kmax, emax = peaks
    n = 0
    while True:
        k = len(s.kont)
        if k > kmax:
            kmax = k
        if emax is not None and len(s.env) > emax:
            emax = len(s.env)
        r = step(s)
        t = type(r)
        if t is Terminal or t is Stuck:
            peaks[:] = kmax, emax
            return r, n + 1, s
        s = r
        n += 1
        if n == limit:
            peaks[:] = kmax, emax
            return None, n, s


def _sos_step(t):
    r = sos.step(t)
    return r.term if type(r) is Next else r


def _run(drive, step, s, fuel, peaks):
    """Run to a halt, keeping the states reached after 1, 4, 16, ... steps.

    The loop is cut into chunks at those points, so sampling adds no work
    per step.  Returns ``(halt or None when fuel ran out, step() calls,
    last running state, samples)``.
    """
    samples, calls, target = [], 0, 1
    while True:
        r, n, s = drive(step, s, min(target, fuel) - calls, peaks)
        calls += n
        if r is not None or calls >= fuel:
            return r, calls, s, samples
        samples.append(s)
        target *= 4


def observation(halt):
    """A level-independent reading of a halt: the numeral, or its kind."""
    if halt is None:
        return ("fuel",)
    if type(halt) is Stuck:
        return ("stuck", halt.reason)
    kind = halt.kind
    if type(kind) is BareArith:
        return ("num", kind.n)
    if type(kind) is ProducedValue:
        n = getattr(kind.value, "n", None)  # NumV, NumC and NumP carry .n
        return ("num", n) if type(n) is int else ("value",)
    if type(kind) is AwaitingArgument:
        return ("awaiting",)
    return ("other", type(kind).__name__)


# ---------------------------------------------------------------------------
# operations


def _parse(p, spans):
    t0 = clock()
    term = parse_term(p.text)
    t1 = clock()
    spans.add(p.pid, "parser", t0, t1, p.nodes)
    return term, t0, t1


def machine_op(p, name, spans, v):
    """``cbpv run --machine name``: parse, load, step to a halt."""
    term, t0, t1 = _parse(p, spans)
    if name == "sos":
        step, s = _sos_step, term
    elif name == "cek":
        step, s = cek.step, cek.load(term)
    else:
        P = as_prog(term)
        if name == "peak":
            step, s = (lambda st: peak.step(P, st)), peak.load(P)
        else:
            step, s = (lambda st: pek.step(P, st)), pek.load(P)
    watched = spans.watch and name != "sos"
    peaks = [0, None]
    halt, calls, _, _ = _run(_drive_watched if watched else _drive, step, s, p.fuel, peaks)
    t2 = clock()
    spans.add(p.pid, name, t1, t2, calls)
    if watched:
        spans.kont[name] = max(spans.kont[name], peaks[0])
    v.times["run." + name] = (t1, t2)
    v.times["op." + name] = (t0, t2)
    return halt, calls


def cfg_op(p, spans, v):
    """``cbpv compile`` then the generated code run to a halt, then the
    pek, peak and cek unloads of a few states sampled along the run."""
    term, t0, t1 = _parse(p, spans)
    P = as_prog(term)
    g = cfg.compile(P)
    t2 = clock()
    spans.add(p.pid, "cfg.compile", t1, t2, len(g.blocks))
    cfg.print_cfg(g)
    t3 = clock()
    spans.add(p.pid, "cfg.print", t2, t3)
    v.times["compile"] = (t0, t3)

    peaks = [0, 0]
    step = lambda st: cfg.step(g, st)
    s = pek.load(P)
    halt, calls, last, samples = _run(
        _drive_watched if spans.watch else _drive, step, s, p.fuel, peaks
    )
    t4 = clock()
    spans.add(p.pid, "cfg", t3, t4, calls)
    v.times["run.cfg"] = (t3, t4)
    if spans.watch:
        spans.kont["cfg"] = max(spans.kont["cfg"], peaks[0])
        spans.env = max(spans.env, peaks[1])

    term_last = None
    for s in samples + [last]:
        a = clock()
        q = pek.unload(P, s)
        b = clock()
        r = peak.unload(P, q)
        c = clock()
        term_last = cek.unload(r)
        d = clock()
        spans.add(p.pid, "pek.unload", a, b, 1)
        spans.add(p.pid, "peak.unload", b, c, 1)
        spans.add(p.pid, "cek.unload", c, d, 1)

    # The last running state, unloaded to a source term, must take sos one
    # step to the same halt the generated code reached.
    if halt is not None:
        got = observation(sos.step(term_last))
        if got != observation(halt):
            raise WrongAnswer(f"unloaded last state halts as {got}, "
                              f"the generated code as {observation(halt)}")
    v.times["op.cfg"] = (t0, clock())
    return halt, calls


def _lockstep(term, pair, fuel):
    mode = "modulo_advance" if pair is LevelPair.PEAK_PEK else "strict"
    return harness.lockstep_check(term, pair, fuel=fuel, mode=mode)


def check_op(p, spans, v):
    """``cbpv check --all`` (peak/pek modulo advancing, as the CLI does),
    then, on the corpus, ``cbpv optimize`` with validation."""
    term, t0, t1 = _parse(p, spans)
    checks_from = t1
    reports = []
    if p.tower:
        r = harness.tower_check(term, fuel=p.fuel)
        t2 = clock()
        spans.add(p.pid, "harness.tower", t1, t2, r.steps_checked)
        reports.append(r)
        t1 = t2
    if p.lockstep:
        for name, pair in PAIRS.items():
            r = _lockstep(term, pair, p.fuel)
            t2 = clock()
            spans.add(p.pid, "harness.lockstep." + name, t1, t2, r.steps_checked)
            reports.append(r)
            t1 = t2
    v.times["check"] = (checks_from, t1)
    v.checked = sum(r.steps_checked for r in reports)
    bad = [line for r in reports for line in r.lines()]
    if bad:
        if not (p.verdict and _capture_only(term, p)):
            raise WrongAnswer("; ".join(bad))
        v.findings.append("unload_capture")
    if not p.verdict:
        v.times["op.check"] = (t0, t1)
        return

    optimized, log = rewrite.optimize(term)
    t2 = clock()
    spans.add(p.pid, "rewrite.optimize", t1, t2, len(log))
    report = rewrite.validate(term, optimized, fuel=p.fuel, valuations=p.valuations)
    t3 = clock()
    spans.add(p.pid, "rewrite.validate", t2, t3, 1)
    v.times["op.check"] = (t0, t3)
    v.verdict = report.verdict.name
    if spans.watch:
        spans.rules.update(step.rule.name for step in log)
        spans.nodes_before += p.nodes
        spans.nodes_after += sum(1 for _ in iter_subterms(optimized))
    if report.verdict is Verdict.Inequivalent:
        why = _explain(term, optimized, p)
        if why == "changed":
            # the known unsound rule: without it, nothing observable changes
            rules = frozenset(RuleId) - {RuleId.BranchElim}
            if _explain(term, rewrite.optimize(term, rules)[0], p) == "changed":
                raise WrongAnswer("optimize changed what the program does")
            why = "branch_elim"
        v.findings.append(why)


# ---------------------------------------------------------------------------
# known defects
#
# Generated programs run into two defects of the library, and into one
# limit of validate, at nearly every seed.  Each is recognised by what makes
# it go away, counted and reported; anything else is a failed operation.
#
# - "unload_capture": on an open program whose binders reuse a free name,
#   the unloaders substitute a binding into a closure body where the name
#   is free, so tower_check or lockstep_check fails.  Renaming the binders
#   apart from the free names makes every check pass.
# - "branch_elim": BranchElim drops ``if0 x { M } { M }`` although x may
#   hold a thunk, turning a stuck program into one that produces a number.
#   Optimizing without that rule leaves the observation unchanged.
# - "thunk_body": validate compares produced thunks as syntax, so a sound
#   rewrite inside a produced thunk is reported Inequivalent.


def _capture_only(term, p):
    """Whether every check passes once the binders are renamed apart from
    the program's free names."""
    renamed = _rename_apart(term, set(free_vars(term)))
    if renamed is term:
        return False
    reports = [harness.tower_check(renamed, fuel=p.fuel)]
    reports += [_lockstep(renamed, pair, p.fuel) for pair in PAIRS.values()]
    return all(r.ok for r in reports)


def _rename_apart(m, names):
    """``m`` with every binder of a name in ``names`` renamed to a fresh one."""
    t = type(m)
    if t is Lam or t is Seq or t is LetRec:
        bound = [n for n, _ in m.defs] if t is LetRec else [m.binder]
        clash = sorted({x for x in bound if x in names})
        if clash:
            avoid = set(names) | _names(m)
            ren = {}
            for x in clash:
                ren[x] = VarV(freshen(x, avoid))
                avoid.add(ren[x].name)
            if t is Lam:
                m = Lam(ren[m.binder].name, substitute(m.body, ren))
            elif t is Seq:
                m = Seq(m.left, ren[m.binder].name, substitute(m.right, ren))
            else:
                m = LetRec(
                    tuple((ren[n].name if n in ren else n, substitute(d, ren))
                          for n, d in m.defs),
                    substitute(m.body, ren),
                )
    for i in range(arity(m)):
        kid = child(m, i)
        new = _rename_apart(kid, names)
        if new is not kid:
            m = with_child(m, i, new)
    return m


def _names(m):
    """Every variable and binder name in ``m``."""
    out = set()
    for _, node in iter_subterms(m):
        t = type(node)
        if t is VarV:
            out.add(node.name)
        elif t is Lam or t is Seq:
            out.add(node.binder)
        elif t is LetRec:
            out.update(n for n, _ in node.defs)
    return out


def _explain(original, optimized, p):
    """Why validate found the two programs inequivalent.

    validate compares produced thunks as syntax, and optimize rewrites
    inside them, so a sound rewrite under a produced thunk is reported as
    Inequivalent.  Forcing the produced thunks tells that case
    ("thunk_body") from a rewrite that changed what the program observably
    does ("changed").
    """
    for val in p.valuations:
        sub = {x: NumV(n) for x, n in val.items()}
        a = substitute(original, sub) if sub else original
        b = substitute(optimized, sub) if sub else optimized
        oa, ob = _forced(a, p.fuel), _forced(b, p.fuel)
        if oa is not None and ob is not None and oa != ob:
            return "changed"
    return "thunk_body"


def _forced(m, fuel, depth=4):
    """The sos observation of ``m``, forcing produced thunks; None when
    fuel runs out."""
    r = sos.run(m, fuel).result
    if type(r) is FuelExhausted:
        return None
    if (depth and type(r) is Terminal and type(r.kind) is ProducedValue
            and type(r.kind.value) is ThunkV):
        inner = _forced(Force(r.kind.value), fuel, depth - 1)
        return None if inner is None else ("forced", inner)
    obs = observation(r)
    return obs[:1] if obs[0] == "stuck" else obs  # validate ignores the reason
