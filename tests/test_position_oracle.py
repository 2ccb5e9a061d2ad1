"""The position index against path-walking oracles, and its op counts.

pek and peak key their static tables (argument frames, advancement, binder
resolution, scopes) on the integer ids of ``Prog``'s position index, and
their states name positions by those ids.  The oracle below is how those
routes worked before the index: every query climbs the path one suffix at
a time, memoized by path, and its states name positions by path.  It
shares no code with the index, so equal answers at every position, and
equal unloads of every state along a run, compared through paths, mean the
two derivations agree.
"""

import pytest

import cbpv.fixtures as fx
from cbpv import cek, cfg, peak, pek, syntax
from cbpv.cek import Closure, CekState, NumC, SymVar, frames
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.peak import ARG, SEQ, KArg, KSeq, NumP, PClosure, PeakState
from cbpv.pek import PekState
from cbpv.sos import Stuck, Terminal
from cbpv.syntax import (
    App,
    If0,
    Lam,
    LetRec,
    NumV,
    Prog,
    Seq,
    ThunkV,
    VarV,
    as_prog,
    child,
    is_term,
    iter_subterms,
    path_text,
)

import paths
from conftest import at_ids, at_paths
from paths import FreeVar, LamBind, RecBind, SeqBind, resolve_binder
from test_compile_oracle import (
    DEPTHS,
    _count_calls,
    chain_text,
    count_built,
    sum_text,
    thunks_text,
)

# ---------------------------------------------------------------------------
# the oracle: path-keyed tables, filled by climbing suffixes


class Oracle:
    def __init__(self, term):
        self.term = term
        self.nodes = {(): term}
        self.tables = {}

    def table(self, key):
        return self.tables.setdefault(key, {})

    def at(self, p):
        nodes = self.nodes
        node = nodes.get(p)
        if node is None:
            missing = [p]
            q = p[1:]
            node = nodes.get(q)
            while node is None:
                missing.append(q)
                q = q[1:]
                node = nodes.get(q)
            for q in reversed(missing):
                node = child(node, q[0])
                nodes[q] = node
        return node

    def resolve_binder(self, occ):
        tbl = self.table("binder")
        if occ in tbl:
            return tbl[occ]
        name = self.at(occ).name
        ref = FreeVar(name)
        for k in range(len(occ)):
            q = occ[k + 1 :]
            parent = self.at(q)
            t = type(parent)
            if t is Lam and occ[k] == 0 and parent.binder == name:
                ref = LamBind(q)
                break
            if t is Seq and occ[k] == 1 and parent.binder == name:
                ref = SeqBind(q)
                break
            if t is LetRec:
                j = next((j for j, (n, _) in enumerate(parent.defs, 1) if n == name), None)
                if j is not None:
                    ref = RecBind(q, j)
                    break
        tbl[occ] = ref
        return ref

    def aframes(self, p):
        tab = self.table("aframes")
        if p in tab:
            return tab[p]
        pending = []
        while p not in tab:
            if not p:
                tab[p] = ()
                break
            pending.append(p)
            p = p[1:]
        parent = p
        for q in reversed(pending):
            head = q[0]
            t = type(self.at(parent))
            if t is App and head == 1:
                r = (ARG(parent),) + tab[parent]
            elif t is Lam and head == 0:
                r = tab[parent]
                if r and type(r[0]) is ARG:
                    r = r[1:]
            elif t is Seq and head == 0:
                r = (SEQ(parent),) + tab[parent]
            elif (
                (t is LetRec and head == 0)
                or (t is Seq and head == 1)
                or (t is If0 and head in (1, 2))
            ):
                r = tab[parent]
            else:
                r = ()
            tab[q] = r
            parent = q
        return tab[pending[0]] if pending else tab[p]

    def eta(self, p):
        while True:
            t = type(self.at(p))
            if t is Seq or t is LetRec:
                p = (0,) + p
            elif t is App:
                p = (1,) + p
            else:
                return p

    def advance(self, rho):
        pc, args = rho.pc, tuple(rho.args)
        while True:
            t = type(self.at(pc))
            if t is Seq:
                args, pc = (SEQ(pc),) + args, (0,) + pc
            elif t is App:
                args, pc = (ARG(pc),) + args, (1,) + pc
            elif t is LetRec:
                pc = (0,) + pc
            else:
                break
        return PeakState(pc, rho.env, frames(*args), rho.kont)

    def scope_entries(self, p):
        need = []
        for k in range(len(p)):
            head, parent = p[k], p[k + 1 :]
            t = type(self.at(parent))
            if (t is Lam and head == 0) or (t is Seq and head == 1):
                need.append(parent)
        return need

    # peak's unload

    def cut(self, e, p):
        """``e`` without the cells of binders out of scope at ``p``."""
        while len(e) > len(self.scope_entries(p)):
            e = e.rest
        return e

    def gamma(self, p, e):
        v = self.at(p)
        t = type(v)
        if t is NumV:
            return NumP(v.n)
        if t is ThunkV:
            return PClosure((0,) + p, self.cut(e, p))
        ref = self.resolve_binder(p)
        if type(ref) is FreeVar:
            return SymVar(ref.name)
        if type(ref) is RecBind:
            return PClosure((ref.index,) + ref.path, self.cut(e, ref.path))
        v = dict(e.items()).get(ref.path)
        if v is None:
            raise peak.MissingBinding(path_text(ref.path))
        return v

    def ascend(self, pc, args):
        while pc:
            head, parent = pc[0], pc[1:]
            t = type(self.at(parent))
            if t is Seq and head == 0:
                if args is None:
                    pc = parent
                    continue
                if args and type(args[0]) is SEQ and args[0].pos == parent:
                    args, pc = args[1:], parent
                    continue
                break
            if t is App and head == 1:
                if args is None:
                    pc = parent
                    continue
                if args and type(args[0]) is ARG and args[0].pos == parent:
                    args, pc = args[1:], parent
                    continue
                break
            if t is LetRec and head == 0:
                pc = parent
                continue
            break
        return pc, args

    def entry_code(self, p):
        if p:
            parent = p[1:]
            parent_node = self.at(parent)
            if type(parent_node) is LetRec and p[0] >= 1:
                return LetRec(parent_node.defs, self.at(p)), parent
        return self.at(p), p

    def check_chain(self, p, e):
        """Raise as peak's unload does unless ``e`` holds exactly the
        binders in scope at ``p``, innermost first."""
        while True:
            need = self.scope_entries(p)
            if not need:
                if len(e):
                    raise cek.IllFormedState(
                        f"binder at {path_text(e.binder)} bound outside the scope of {path_text(p)}"
                    )
                return
            if not len(e) or e.binder != need[0]:
                raise cek.IllFormedState(
                    f"no value for binder at {path_text(need[0])} at {path_text(p)}"
                )
            p, e = need[0], e.rest

    def unload_e(self, p, e):
        self.check_chain(p, e)
        e = dict(e.items())
        frames = []
        for k in range(len(p)):
            head, parent = p[k], p[k + 1 :]
            node = self.at(parent)
            t = type(node)
            if t is Lam and head == 0:
                frames.append(("bind", node.binder, parent))
            elif t is Seq and head == 1:
                frames.append(("bind", node.binder, parent))
            elif t is LetRec:
                frames.append(("rec", node.defs, None))
        env = None
        for kind, a, b in reversed(frames):
            if kind == "bind":
                v = e.get(b)
                if v is None:
                    raise cek.IllFormedState(f"no value for binder at {path_text(b)}")
                env = cek.Bind(a, self.unload_v(v), env)
            else:
                env = cek.RecFrame(a, env)
        return env

    def unload_v(self, v):
        t = type(v)
        if t is SymVar:
            return v
        if t is NumP:
            return NumC(v.n)
        entry, _ = self.ascend(v.entry, None)
        code, anchor = self.entry_code(entry)
        return Closure(code, self.unload_e(anchor, v.env))

    def unload_k(self, e, args, kont):
        out = []

        def emit_args(env, frames):
            for f in frames:
                if type(f) is ARG:
                    out.append(cek.ArgF(self.unload_v(self.gamma((0,) + f.pos, env))))
                else:
                    node = self.at(f.pos)
                    env = self.cut(env, f.pos)
                    out.append(cek.SeqF(node.binder, node.right, self.unload_e(f.pos, env)))

        emit_args(e, args)
        for f in kont:
            if type(f) is KArg:
                out.append(cek.ArgF(self.unload_v(f.value)))
            else:
                node = self.at(f.pos)
                out.append(cek.SeqF(node.binder, node.right, self.unload_e(f.pos, f.env)))
                emit_args(f.env, f.rest_args)
        return frames(*out)

    def peak_unload(self, rho):
        pc, args = self.ascend(rho.pc, tuple(rho.args))
        code, anchor = self.entry_code(pc)
        return CekState(code, self.unload_e(anchor, rho.env), self.unload_k(rho.env, args, rho.kont))

    def pek_unload(self, s):
        kont = frames(*(
            f if type(f) is KArg else KSeq(f.bind, f.env, frames(*self.aframes(f.bind)))
            for f in s.kont
        ))
        return PeakState(s.pc, s.env, frames(*self.aframes(s.pc)), kont)


# ---------------------------------------------------------------------------
# programs


SHADOWING = (
    r"letrec f = prd 1 and f = prd 2 in force f",
    r"\x. 1 + 1 to x in letrec x = prd x in force x to y in \x. prd x",
    r"1 + 1 to x in (\x. prd x) to x in prd x",
    r"letrec g = 0 . \g. force g in 3 . force g",
    r"letrec f = \n. if0 n { prd 0 } { n - 1 to n in n . force f } and f = prd 9 in 3 . force f",
    r"letrec f = \h. force h and g = prd 7 in g . force f",
)

GROUPS = {
    "fixtures": lambda: list(fx.PROGRAMS.values()),
    "acceptance corpus": lambda: [gen_term(s, s % 26) for s in range(1000)],
    "open terms": lambda: [gen_term(s, s % 26, closed=False) for s in range(500)],
    "shadowing": lambda: [parse_term(t) for t in SHADOWING],
    "deep families": lambda: [parse_term(f(n)) for f in (chain_text, thunks_text, sum_text)
                              for n in DEPTHS],
}


# ---------------------------------------------------------------------------
# every position, through the index's own path and through an equal tuple


def _binder_env(o, p):
    """A value for every Lam and Seq binder in scope at ``p``."""
    return peak.chain(*[(q, NumP(len(q))) for q in reversed(o.scope_entries(p))])


def _scope_entries(prog, p):
    need, b = [], peak._frame(prog, paths.pos(prog, p))[1]
    while b >= 0:
        need.append(paths.path(prog, b))
        b = peak._frame(prog, b)[1]
    return need


def _agrees_at(prog, o, p):
    written = _binder_env(o, p)
    e = at_ids(prog, written)
    assert paths.at(prog, p) is o.at(p)
    assert at_paths(prog, paths.aframes(prog, p)) == frames(*o.aframes(p))
    assert _scope_entries(prog, p) == o.scope_entries(p)
    assert peak._depth(prog, paths.pos(prog, p)) == len(e)
    assert peak._unload_e(prog, paths.pos(prog, p), e) == o.unload_e(p, written)
    node = o.at(p)
    if is_term(node):
        assert paths.path(prog, pek.eta(prog, paths.pos(prog, p))) == o.eta(p)
        rho = PeakState(p, peak.EMPTY, frames(), frames())
        assert at_paths(prog, peak.advance(prog, at_ids(prog, rho))) == o.advance(rho)
    else:
        want = o.gamma(p, written)
        assert at_paths(prog, paths.gamma(peak, prog, p, e)) == want
        if type(want) is PClosure:
            want = PClosure(o.eta(want.entry), want.env)
        assert at_paths(prog, paths.gamma(pek, prog, p, e)) == want
    if type(node) is VarV:
        assert resolve_binder(prog, p) == o.resolve_binder(p)


def _check_positions(term, order):
    prog, o = Prog(term), Oracle(term)  # a fresh index: nothing visited yet
    for p in order:
        own = paths.path(prog, paths.pos(prog, tuple(list(p))))
        assert own == p
        assert paths.path(prog, paths.pos(prog, own)) == own
        _agrees_at(prog, o, own)
        _agrees_at(prog, o, tuple(list(p)))


@pytest.mark.parametrize("group", GROUPS)
def test_index_agrees_with_the_oracle_at_every_position(group):
    for term in GROUPS[group]():
        every = [p for p, _ in iter_subterms(term)]
        _check_positions(term, every)  # preorder: every parent is warm
        _check_positions(term, every[::-1])  # last first: cold climbs


@pytest.mark.parametrize("group", GROUPS)
def test_path_text_climbs_to_the_position_a_root_walk_reaches(group):
    # Prog.path_text climbs parents; paths.pos walks kid down from the root
    for term in GROUPS[group]():
        prog = Prog(term)
        prog.fill()
        for i in range(len(prog.nodes)):
            assert paths.pos(prog, paths.path_from_text(prog.path_text(i))) == i
        for i in (-1, len(prog.nodes)):
            assert prog.path_text(i) == f"no position {i}"


# ---------------------------------------------------------------------------
# unloads of every state along a peak, a pek and a cfg run


def _states(step, s, fuel=300):
    yield s
    for _ in range(fuel):
        s = step(s)
        if type(s) in (Terminal, Stuck):
            return
        yield s


def _outcome(fn, *args):
    try:
        return fn(*args)
    except cek.IllFormedState as exc:
        return ("ill-formed", str(exc))


def _unloads_agree(term):
    prog, o = as_prog(term), Oracle(term)
    g = cfg.compile(prog)
    runs = [
        _states(lambda s: pek.step(prog, s), pek.load(prog)),
        _states(lambda s: cfg.step(g, s), pek.load(prog)),
    ]
    for states in runs:
        for s in states:
            q = pek.unload(prog, s)
            written = at_paths(prog, q)
            assert written == o.pek_unload(at_paths(prog, s))
            assert _outcome(peak.unload, prog, q) == _outcome(o.peak_unload, written)
    for rho in _states(lambda r: peak.step(prog, r), peak.load(prog)):
        assert _outcome(peak.unload, prog, rho) == _outcome(o.peak_unload, at_paths(prog, rho))


@pytest.mark.parametrize("group", GROUPS)
def test_unloads_agree_with_the_oracle_along_runs(group):
    for term in GROUPS[group]():
        _unloads_agree(term)


# ---------------------------------------------------------------------------
# operation counts, not time


def _run_to_halt(mod, prog):
    s = mod.load(prog)
    while type(s) not in (Terminal, Stuck):
        s = mod.step(prog, s)


@pytest.mark.parametrize("family", [chain_text, thunks_text])
@pytest.mark.parametrize("n", [60, 240])
@pytest.mark.parametrize("mod", [pek, peak])
def test_a_run_calls_child_once_per_newly_visited_position(monkeypatch, family, n, mod):
    term = parse_term(family(n))
    nodes = sum(1 for _ in iter_subterms(term))
    prog = as_prog(term)
    calls = count_built(monkeypatch)
    _run_to_halt(mod, prog)
    assert len(calls) == len(prog.nodes) - 1 < nodes
    _run_to_halt(mod, prog)  # a second run visits nothing new
    assert len(calls) == len(prog.nodes) - 1


@pytest.mark.parametrize("family", [chain_text, thunks_text])
@pytest.mark.parametrize("n", [60, 240])
def test_a_cold_unload_calls_child_at_most_depth_times(monkeypatch, family, n):
    term = parse_term(family(n))
    warm = as_prog(term)
    s = pek.load(warm)
    states = []
    while type(s) is PekState:
        states.append(s)
        s = pek.step(warm, s)
    deepest = max(states, key=lambda s: len(paths.path(warm, s.pc)))
    for s in (deepest, states[len(states) // 2]):
        written = at_paths(warm, s)
        prog = Prog(term)  # nothing visited yet
        calls = count_built(monkeypatch)
        reads = _count_calls(monkeypatch, syntax, "children")
        s = at_ids(prog, written)  # visits the positions the state names
        cold = peak.unload(prog, pek.unload(prog, s))
        assert len(reads) <= len(written.pc)  # one read per position above the pc
        above, q = 0, s.pc
        while q:  # the children of every position above the pc, and no more
            q = prog.parents[q]
            above += syntax.arity(prog.nodes[q])
        assert len(calls) <= above
        del calls[:], reads[:]
        assert peak.unload(prog, pek.unload(prog, s)) == cold
        assert not calls and not reads
        monkeypatch.undo()
