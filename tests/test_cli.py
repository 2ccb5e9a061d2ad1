"""End-to-end command line tests: every verb, every exit code.

These go through ``main(argv)`` with captured streams rather than a
subprocess, so failures point at real tracebacks.  The shipped fixture
files under fixtures/ are exercised directly and kept in sync with the
in-package sources.
"""

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import cbpv.fixtures as fx
from cbpv import cfg, harness, rewrite
from cbpv.cli import main
from cbpv.cfg import IF0
from cbpv.parser import ParseError, parse_term
from cbpv.printer import print_term
from cbpv.syntax import NumV, Prd, alpha_eq, as_prog

from conftest import terms

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "mult_cfg.txt"


def fixture_path(name):
    return str(FIXDIR / f"{name}.cbpv")


@pytest.fixture
def source_file(tmp_path):
    def write(src, name="prog.cbpv"):
        p = tmp_path / name
        p.write_text(src + "\n", encoding="utf-8")
        return str(p)

    return write


# ---------------------------------------------------------------------------
# shipped corpus


def test_fixture_files_match_package_sources():
    on_disk = sorted(p.stem for p in FIXDIR.glob("*.cbpv"))
    assert on_disk == sorted(fx.SOURCES)
    for name, src in fx.SOURCES.items():
        assert (FIXDIR / f"{name}.cbpv").read_text(encoding="utf-8") == src.strip() + "\n"


@pytest.mark.parametrize("name", sorted(fx.PROGRAMS))
def test_print_parse_identity_on_fixtures(name):
    t = fx.PROGRAMS[name]
    assert parse_term(print_term(t)) == t


@given(terms)
def test_print_parse_identity_on_generated_terms(t):
    assert parse_term(print_term(t)) == t


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_print_parse_identity_on_harness_corpus(seed):
    t = harness.gen_term(seed, 15)
    assert parse_term(print_term(t)) == t


def test_parse_term_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_term("force thunk { prd 0")
    assert exc.value.line == 1
    assert exc.value.col == 20


# ---------------------------------------------------------------------------
# run


def test_run_mult_call_on_the_graph_machine(capsys):
    assert main(["run", "--machine=cfg", "--fuel=1000", fixture_path("mult_call")]) == 0
    assert capsys.readouterr().out == "result: 4\n"


@pytest.mark.parametrize("name", sorted(fx.PROGRAMS))
def test_run_agrees_across_all_machines(name, capsys):
    seen = set()
    for machine in ("sos", "cek", "peak", "pek", "cfg"):
        code = main(["run", f"--machine={machine}", fixture_path(name)])
        captured = capsys.readouterr()
        seen.add((code, captured.out, captured.err))
    assert len(seen) == 1, seen


def test_run_default_machine_is_sos(capsys):
    assert main(["run", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr().out == "result: 3\n"


def test_run_trace_sos(capsys):
    assert main(["run", "--trace", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sos 0: 1 + 2 to x in prd x",
        "sos 1: prd 3",
        "result: 3",
    ]


def test_run_trace_cfg(capsys):
    assert main(["run", "--machine=cfg", "--trace", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cfg 0: pc=0 instr=OP env=0 kont=0",
        "cfg 1: pc=1 instr=RET env=1 kont=0",
        "result: 3",
    ]


def test_run_lambda_awaits_argument(source_file, capsys):
    path = source_file(r"\x. prd x")
    for machine in ("sos", "cek"):
        assert main(["run", f"--machine={machine}", path]) == 0
        assert capsys.readouterr().out == "result: awaiting argument\n"


def test_run_produced_thunk_prints_as_a_value(source_file, capsys):
    path = source_file("prd thunk { prd 0 }")
    for machine in ("sos", "cfg"):
        assert main(["run", f"--machine={machine}", path]) == 0
        assert capsys.readouterr().out == "result: thunk { prd 0 }\n"


def test_run_stuck_exits_1(capsys):
    for machine in ("sos", "cfg"):
        assert main(["run", f"--machine={machine}", fixture_path("open_add")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stuck: ArithNonNumeral\n"


def test_run_fuel_exhaustion_exits_2(source_file, capsys):
    path = source_file("letrec f = force f in force f")
    for machine in ("sos", "cek", "cfg"):
        assert main(["run", f"--machine={machine}", "--fuel=20", path]) == 2
        assert capsys.readouterr().err == "fuel exhausted after 20 steps\n"


# ---------------------------------------------------------------------------
# compile


def test_compile_trivial_producer(source_file, capsys):
    assert main(["compile", "--emit=cfg", source_file("prd 0")]) == 0
    assert capsys.readouterr().out == "0: RET 0 []\n"


def test_compile_defaults_to_the_listing(source_file, capsys):
    main(["compile", source_file("prd 0")])
    assert capsys.readouterr().out == "0: RET 0 []\n"


def test_compile_golden_multiplier(capsys):
    assert main(["compile", "--emit=cfg", fixture_path("mult")]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_compile_records(capsys):
    assert main(["compile", "--emit=records", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0\t0\tOP\tADD,NAT:1,NAT:2,DST:ε\t1",
        "1\t1\tRET\tLOC:ε\t",
    ]


# ---------------------------------------------------------------------------
# unload


@pytest.mark.parametrize(
    "steps,expected",
    [(0, "1 + 2 to x in prd x"), (1, "prd 3"), (50, "prd 3")],
)
def test_unload_after_n_graph_steps(steps, expected, capsys):
    assert main(["unload", f"--steps={steps}", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("name", sorted(fx.PROGRAMS))
def test_unload_at_load_state_recovers_the_source(name, capsys):
    assert main(["unload", fixture_path(name)]) == 0
    out = capsys.readouterr().out.strip()
    assert alpha_eq(parse_term(out), fx.PROGRAMS[name])


# ---------------------------------------------------------------------------
# optimize


def test_optimize_drains_layered_thunks(capsys):
    assert main(["optimize", fixture_path("layered_thunks")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "a + b\n"
    assert captured.err.splitlines() == [
        "ForceThunk @ ε",
        "MoveElim @ ε",
        "ForceThunk @ ε",
        "MoveElim @ ε",
    ]


def test_optimize_respects_the_rule_filter(capsys):
    assert main(["optimize", "--rules=ForceThunk", fixture_path("layered_thunks")]) == 0
    out = capsys.readouterr().out.strip()
    assert alpha_eq(parse_term(out), fx.NESTED_SEQ)


def test_optimize_validates_under_a_valuation(capsys):
    assert main(["optimize", "--valuation=a=2,b=3", fixture_path("nested_seq")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "a + b\n"
    assert "validation: Equivalent" in captured.err


def test_optimize_validation_unknown_on_divergence(source_file, capsys):
    path = source_file("letrec f = force f in force f")
    assert main(["optimize", "--valuation=", "--fuel=50", path]) == 0
    assert "validation: Unknown" in capsys.readouterr().err


def test_optimize_validation_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(rewrite, "optimize", lambda m, rules, max_passes: (Prd(NumV(99)), ()))
    assert main(["optimize", "--valuation=", fixture_path("arith_seq")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "prd 99\n"
    assert "validation: Inequivalent" in captured.err


# ---------------------------------------------------------------------------
# check


def test_check_all_on_a_fixture(capsys):
    path = fixture_path("arith_seq")
    assert main(["check", "--all", "--fuel=300", path]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_check_whole_corpus(capsys):
    paths = [fixture_path(name) for name in sorted(fx.SOURCES)]
    assert main(["check", "--all", "--fuel=2000", *paths]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{p}: ok" for p in paths]


def test_check_generated_programs(capsys):
    assert main(["check", "--count=4", "--seed=3", "--fuel=200"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"seed {s}: ok" for s in (3, 4, 5, 6)]


def test_check_accepts_modulo_advance(capsys):
    assert main(["check", "--all", "--modulo-advance", fixture_path("arith_seq")]) == 0


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


def test_check_catches_a_miscompile(monkeypatch, capsys):
    monkeypatch.setattr(cfg, "compile", _swap_branch_targets)
    path = fixture_path("branch_zero")
    assert main(["check", path]) == 3  # source-against-graph check alone sees it
    captured = capsys.readouterr()
    assert f"{path}: FAIL" in captured.err
    assert "1 of 1 programs failed" in captured.err

    assert main(["check", "--all", path]) == 3
    assert "pek/cfg step 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors


def test_syntax_error_exits_64(source_file, capsys):
    path = source_file("force thunk { prd")
    assert main(["run", path]) == 64
    assert capsys.readouterr().err.startswith("syntax error: 2:1:")


def test_missing_file_exits_64(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cbpv")]) == 64
    assert "cannot read" in capsys.readouterr().err


def test_unknown_rule_exits_64(capsys):
    assert main(["optimize", "--rules=Bogus", fixture_path("arith_seq")]) == 64
    assert "unknown rule 'Bogus'" in capsys.readouterr().err


def test_bad_valuation_exits_64_before_any_output(capsys):
    assert main(["optimize", "--valuation=a=zzz", fixture_path("open_add")]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad valuation entry" in captured.err


def test_check_without_input_exits_64(capsys):
    assert main(["check"]) == 64
    assert "check needs at least one file or --count=N" in capsys.readouterr().err


def test_bad_machine_choice_exits_64(source_file, capsys):
    assert main(["run", "--machine=bogus", source_file("prd 0")]) == 64


def test_missing_subcommand_exits_64(capsys):
    assert main([]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--fuel", "-1"],
        ["check", "--fuel", "-5"],
        ["optimize", "--valuation", "a=1", "--fuel", "-1"],
        ["optimize", "--steps", "-1"],
        ["unload", "--steps", "-2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_negative_counts_exit_64(argv, source_file, capsys):
    path = source_file("letrec f = force f in force f")
    assert main([*argv, path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not be negative" in captured.err


# ---------------------------------------------------------------------------
# internal faults


def test_recursion_overflow_exits_70(source_file, capsys):
    path = source_file("force thunk { " * 8000 + "prd 0" + " }" * 8000)
    assert main(["run", path]) == 70
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: RecursionError: ")
    assert captured.err.count("\n") == 1


def test_unknown_pc_exits_70(monkeypatch, source_file, capsys):
    monkeypatch.setattr(cfg, "compile", lambda prog: cfg.Cfg((), {}, prog))
    assert main(["run", "--machine=cfg", source_file("prd 0")]) == 70
    assert capsys.readouterr().err == "internal error: UnknownPc: ε\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out
