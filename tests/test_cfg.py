"""Compiler and CFG machine: frozen listings, exact PEK agreement, emission.

Blocks, operands and states name positions by id; the tests write them with
paths and convert with ``at_ids``/``at_paths`` under the graph's Prog."""

import dataclasses

import pytest
from hypothesis import given, settings

from cbpv import pek, sos
from cbpv import fixtures as fx
from cbpv.cfg import (
    CALL,
    IF0,
    LBL,
    LOC,
    MOV,
    NAT,
    OP,
    OPRET,
    POP,
    RET,
    STUCK,
    TAIL,
    VAR,
    Cfg,
    NotAComputation,
    UnknownPc,
    block_at,
    compile,
    describe,
    eval_operand,
    load,
    loc_names,
    operand_of,
    print_cfg,
    records,
    step,
    unload,
)
from cbpv.cek import NIL, frames
from cbpv.harness import gen_term
from cbpv.parser import parse_term
from cbpv.peak import EMPTY, KArg, MissingBinding, NumP, PClosure, chain
from cbpv.pek import KRet, PekState
from cbpv.sos import ProducedValue, Stuck, StuckReason, Terminal
from cbpv.syntax import (
    ArithOp,
    NumV,
    Prd,
    ThunkV,
    alpha_eq,
    arity,
    as_prog,
    child,
    is_value,
    iter_subterms,
    path_from_text,
    path_text,
)

from conftest import at_paths, close_term, terms

MULT = as_prog(fx.MULT)

MULT_LISTING = "\n".join(
    [
        "0: RET @1 []",
        "1: POP n [2]",
        "2: POP x [3]",
        "3: POP a [4]",
        "4: IF0 x [5 6]",
        "5: RET 0 []",
        "6: OP SUB x 1 y [7]",
        "7: IF0 y [8 9]",
        "8: RET a []",
        "9: OP ADD a n b [10]",
        "10: TAIL @1 n y b []",
    ]
)


# ---------------------------------------------------------------------------
# operands


def _operand(m, p):
    prog = as_prog(m)
    return at_paths(prog, operand_of(prog, p))


def test_operand_forms():
    assert _operand(MULT, (0, 0)) == LBL((1,), 0)  # the recursive name
    assert _operand(fx.BRANCH_ZERO, (0,)) == NAT(0)
    assert _operand(fx.OPEN_ADD, (0,)) == VAR("a")
    assert _operand(fx.ARITH_SEQ, (0, 1)) == LOC((), 1)  # x under its Seq
    assert _operand(fx.FORCE_THUNK, (0,)) == LBL((0, 0), 0)
    # levels and cuts count the Lam/Seq binders in scope: the thunk sits
    # under x and y, the recursive name's letrec under x only
    prog = as_prog(parse_term(
        "prd 1 to x in letrec f = prd x in \\y. force thunk { force f }"))
    assert _operand(prog, (0, 0, 0, 1)) == LBL((0, 0, 0, 0, 1), 2)
    assert _operand(prog, (0, 0, 0, 0, 0, 1)) == LBL((1, 1), 1)
    assert _operand(prog, (0, 1, 1)) == LOC((), 1)


def test_operand_rejects_computations():
    with pytest.raises(Exception):
        operand_of(fx.ARITH_SEQ, (0,))  # the Op node is not a value


def test_eval_operand_table():
    # positions are bare ids here: eval_operand reads no program
    e = chain((0, NumP(5)))
    assert eval_operand(e, NAT(3)) == NumP(3)
    assert eval_operand(e, VAR("a")).name == "a"
    assert eval_operand(e, LOC(0, 1)) == NumP(5)
    v = eval_operand(e, LBL(1, 1))
    assert v == PClosure(1, e) and v.env is e
    assert eval_operand(e, LBL(1, 0)).env is EMPTY  # cut back to the target's scope
    with pytest.raises(MissingBinding):
        eval_operand(EMPTY, LOC(1, 1))
    with pytest.raises(MissingBinding):
        eval_operand(e, LOC(1, 1))  # the cell at level 1 binds another binder


def _value_positions(prog):
    stack = [((), prog.term)]
    while stack:
        p, node = stack.pop()
        if is_value(node) and not isinstance(node, ThunkV):
            yield p
        elif isinstance(node, ThunkV):
            yield p
        stack.extend(((i,) + p, child(node, i)) for i in range(arity(node)))


@settings(deadline=None)
@given(terms)
def test_operand_evaluation_agrees_with_gamma(t):
    # eval_operand after operand_of is exactly the machine's value resolution
    prog = as_prog(t)
    for p in _value_positions(prog):
        try:
            want = pek.gamma(prog, p, EMPTY)
        except MissingBinding:
            with pytest.raises(MissingBinding):
                eval_operand(EMPTY, operand_of(prog, p))
            continue
        assert eval_operand(EMPTY, operand_of(prog, p)) == want


# ---------------------------------------------------------------------------
# compilation


def test_compile_single_return():
    g = compile(parse_term("prd 0"))
    assert g.entry == 0
    assert at_paths(g.prog, g.blocks) == {(): (RET(NAT(0)), ())}


def test_compile_rejects_values():
    with pytest.raises(NotAComputation):
        compile(NumV(3))
    with pytest.raises(NotAComputation):
        compile(ThunkV(Prd(NumV(1))))


def test_compile_open_arith():
    assert print_cfg(compile(fx.OPEN_ADD)) == "0: OPRET ADD a b []"


def test_compile_mult_listing():
    assert print_cfg(compile(MULT)) == MULT_LISTING


def test_compile_stuck_positions():
    g = compile(parse_term("1 . prd 2"))
    assert g.blocks[g.prog.pos((1,))] == (STUCK(StuckReason.ApplyNonFunction), ())
    g = compile(parse_term("(\\x. prd x) to w in prd w"))
    assert g.blocks[g.prog.pos((0,))] == (STUCK(StuckReason.SequencedNonProducer), ())


def test_compile_call_saves_binding_site():
    g = compile(parse_term("force thunk { prd 5 } to x in prd x"))
    instr, succs = at_paths(g.prog, g.blocks)[(0,)]
    assert instr == CALL(LBL((0, 0, 0), 0), (), (), 0)
    assert succs == ((1,),)


def _closed_graph(g):
    for instr, succs in g.blocks.values():
        for q in succs:
            assert q in g.blocks
        for f in ("fn", "src", "guard", "lhs", "rhs"):
            o = getattr(instr, f, None)
            if type(o) is LBL:
                assert o.target in g.blocks
        for o in getattr(instr, "args", ()):
            if type(o) is LBL:
                assert o.target in g.blocks


def test_graphs_are_closed():
    for m in fx.PROGRAMS.values():
        _closed_graph(compile(m))


@settings(deadline=None)
@given(terms)
def test_generated_graphs_are_closed(t):
    _closed_graph(compile(t))


# ---------------------------------------------------------------------------
# execution


def test_arith_seq_runs_on_the_graph():
    g, s = load(fx.ARITH_SEQ)
    assert at_paths(g.prog, g.blocks[s.pc][0]) == OP(NAT(1), ArithOp.ADD, NAT(2), (), 0)
    s1 = step(g, s)
    assert at_paths(g.prog, s1) == PekState((1,), chain(((), NumP(3))), NIL)
    assert step(g, s1) == Terminal(ProducedValue(NumP(3)))


def test_call_saves_caller_environment():
    g, s = load(parse_term("force thunk { prd 5 } to x in prd x"))
    s1 = step(g, s)
    assert at_paths(g.prog, s1) == PekState((0, 0, 0), EMPTY, frames(KRet((), (1,), EMPTY)))
    s2 = step(g, s1)
    assert at_paths(g.prog, s2) == PekState((1,), chain(((), NumP(5))), NIL)
    assert step(g, s2) == Terminal(ProducedValue(NumP(5)))


def test_tail_call_pushes_no_return_frame():
    g, s = load(fx.MULT_CALL)
    s1 = step(g, s)
    assert at_paths(g.prog, s1) == PekState(
        (1,), EMPTY, frames(KArg(NumP(2)), KArg(NumP(3)), KArg(NumP(0)))
    )


def test_unknown_pc_raises():
    g, _ = load(fx.ARITH_SEQ)
    with pytest.raises(UnknownPc, match="^no position 99$"):
        step(g, PekState(99, EMPTY, NIL))  # no position of the program has that id


def test_describe_of_an_unknown_pc_raises_unknown_pc():
    g, _ = load(fx.ARITH_SEQ)
    with pytest.raises(UnknownPc, match=r"^0\.1$"):
        describe(g, PekState(g.prog.pos((1, 0)), EMPTY, NIL), 0)  # the Op's rhs, a value


def test_blocks_are_keyed_by_the_position_id_of_each_instruction():
    g, _ = load(fx.MULT_CALL)
    instructions = [p for p, node in iter_subterms(g.prog.term)
                    if type(node).__name__ in ("Force", "Prd", "Lam", "If0", "Op")]
    assert list(g.blocks) == [g.prog.pos(p) for p in instructions]  # in preorder
    for p, block in g.blocks.items():
        assert block_at(g, p) is block
    with pytest.raises(UnknownPc, match="^ε$"):
        block_at(Cfg(0, {}, g.prog), 0)


def test_a_replaced_graph_finds_its_own_blocks():
    g, _ = load(fx.MULT_CALL)
    swapped = {p: (STUCK(StuckReason.UnboundPath), ()) for p in g.blocks}
    h = dataclasses.replace(g, blocks=swapped)
    for p in g.blocks:
        assert block_at(h, p) is swapped[p]


def test_a_positional_graph_built_by_hand_steps_and_describes():
    # criterion 11's mutant rebuilds the graph as Cfg(entry, blocks, prog)
    g, s = load(fx.MULT_CALL)
    by_hand = Cfg(g.entry, dict(g.blocks), g.prog)
    assert by_hand.binders is None and print_cfg(by_hand) == print_cfg(g)
    assert by_hand == g
    a, b = s, s
    for i in range(200):
        assert describe(by_hand, b, i) == describe(g, a, i)
        ra, rb = step(g, a), step(by_hand, b)
        assert ra == rb
        if type(ra) is not PekState:
            break
        a, b = ra, rb
    assert type(ra) is Terminal


def test_stuck_block_reports_its_reason():
    g, s = load(parse_term("1 . prd 2"))
    assert step(g, s) == Stuck(StuckReason.ApplyNonFunction)


# ---------------------------------------------------------------------------
# exact agreement with the instruction-pointer machine


def _drive_pair(m, fuel=300):
    prog = as_prog(m)
    g = compile(prog)
    s = pek.load(prog)
    for _ in range(fuel):
        r_cfg = step(g, s)
        r_pek = pek.step(prog, s)
        assert r_cfg == r_pek, (r_cfg, r_pek)
        if type(r_cfg) is not PekState:
            return
        s = r_cfg


def test_lockstep_on_fixtures():
    for prog in fx.PROGRAMS.values():
        _drive_pair(prog)


@settings(deadline=None)
@given(terms)
def test_lockstep_on_generated_terms(t):
    _drive_pair(close_term(t), fuel=80)
    _drive_pair(t, fuel=40)


# ---------------------------------------------------------------------------
# unloading


def test_unload_of_initial_state():
    for m in fx.PROGRAMS.values():
        g, s = load(m)
        assert alpha_eq(unload(g, s), m)


def test_unload_after_one_step_matches_structural_residual():
    g, s = load(fx.ARITH_SEQ)
    s1 = step(g, s)
    r = sos.step(fx.ARITH_SEQ)
    assert alpha_eq(unload(g, s1), r.term)


# ---------------------------------------------------------------------------
# emission


def test_records_shape():
    out = records(compile(MULT))
    lines = out.split("\n")
    assert len(lines) == 11
    for line in lines:
        assert len(line.split("\t")) == 5
    label, path, mnem, ops, succs = lines[0].split("\t")
    assert (label, path, mnem, ops, succs) == ("0", "0", "RET", "LBL:1", "")
    assert lines[10].split("\t")[2] == "TAIL"
    assert records(compile(MULT)) == out  # deterministic


def test_record_paths_are_root_first():
    out = records(compile(fx.ARITH_SEQ))
    first = out.split("\n")[0].split("\t")
    assert first[1] == "0"
    assert "DST:ε" in first[3]


def test_describe_format():
    g, s = load(fx.ARITH_SEQ)
    assert describe(g, s, 0) == "cfg 0: pc=0 instr=OP env=0 kont=0"


# The emitters as they were before every instruction's parts were listed
# once, kept as the oracle for print_cfg and records.


def _oracle_render_operand(o, label, loc):
    t = type(o)
    if t is NAT:
        return str(o.n)
    if t is VAR:
        return o.name
    if t is LOC:
        return loc(o.binder)
    return f"@{label(o.target)}"


def _oracle_render(instr, label, loc):
    t = type(instr)
    op = lambda o: _oracle_render_operand(o, label, loc)
    if t is CALL:
        return " ".join(["CALL", op(instr.fn), *map(op, instr.args), loc(instr.bind)])
    if t is TAIL:
        return " ".join(["TAIL", op(instr.fn), *map(op, instr.args)])
    if t is MOV:
        return f"MOV {op(instr.src)} {loc(instr.dst)}"
    if t is RET:
        return f"RET {op(instr.src)}"
    if t is POP:
        return f"POP {loc(instr.dst)}"
    if t is IF0:
        return f"IF0 {op(instr.guard)}"
    if t is OP:
        return f"OP {instr.op.name} {op(instr.lhs)} {op(instr.rhs)} {loc(instr.dst)}"
    if t is OPRET:
        return f"OPRET {instr.op.name} {op(instr.lhs)} {op(instr.rhs)}"
    return f"STUCK {instr.reason.name}"


def _oracle_print_cfg(G):
    label = {p: i for i, p in enumerate(G.blocks)}.__getitem__
    loc = dict(loc_names(G)).__getitem__
    lines = []
    for i, (instr, succs) in enumerate(G.blocks.values()):
        succ_text = " ".join(str(label(q)) for q in succs)
        lines.append(f"{i}: {_oracle_render(instr, label, loc)} [{succ_text}]")
    return "\n".join(lines)


def _oracle_record_operands(instr, path_text):
    def ser(o):
        t = type(o)
        if t is NAT:
            return f"NAT:{o.n}"
        if t is VAR:
            return f"VAR:{o.name}"
        if t is LOC:
            return f"LOC:{path_text(o.binder)}"
        return f"LBL:{path_text(o.target)}"

    t = type(instr)
    if t is CALL:
        return [ser(instr.fn), *map(ser, instr.args), f"DST:{path_text(instr.bind)}"]
    if t is TAIL:
        return [ser(instr.fn), *map(ser, instr.args)]
    if t is MOV:
        return [ser(instr.src), f"DST:{path_text(instr.dst)}"]
    if t is RET:
        return [ser(instr.src)]
    if t is POP:
        return [f"DST:{path_text(instr.dst)}"]
    if t is IF0:
        return [ser(instr.guard)]
    if t is OP:
        return [instr.op.name, ser(instr.lhs), ser(instr.rhs), f"DST:{path_text(instr.dst)}"]
    if t is OPRET:
        return [instr.op.name, ser(instr.lhs), ser(instr.rhs)]
    return [instr.reason.name]


def _oracle_records(G):
    label = {p: i for i, p in enumerate(G.blocks)}
    text = lambda i: path_text(G.prog.path(i))
    rows = []
    for i, (p, (instr, succs)) in enumerate(G.blocks.items()):
        rows.append(
            "\t".join(
                [
                    str(i),
                    text(p),
                    type(instr).__name__,
                    ",".join(_oracle_record_operands(instr, text)),
                    ",".join(str(label[q]) for q in succs),
                ]
            )
        )
    return "\n".join(rows)


def test_emission_agrees_with_the_oracle():
    # The 1,000 generated closed terms of the acceptance corpus, and open
    # terms, which also compile to STUCK and OPRET blocks.
    closed = [gen_term(seed, seed % 26) for seed in range(1000)]
    open_terms = [gen_term(seed, seed % 26, closed=False) for seed in range(500)]
    kinds = set()
    for m in list(fx.PROGRAMS.values()) + closed + open_terms:
        g = compile(m)
        assert print_cfg(g) == _oracle_print_cfg(g), m
        assert records(g) == _oracle_records(g), m
        kinds.update(type(instr) for instr, _ in g.blocks.values())
    assert kinds == {CALL, TAIL, MOV, RET, POP, IF0, OP, OPRET, STUCK}


def test_duplicate_binder_names_are_disambiguated():
    g = compile(parse_term("1 + 1 to x in 2 + 2 to x in prd x"))
    out = print_cfg(g)
    assert "x#ε" in out and "x#1" in out
