"""End-to-end command line tests: every verb, every exit code.

These go through ``main(argv)`` with captured streams rather than a
subprocess, so failures point at real tracebacks; only the test at the
interpreter's default recursion limit and the one whose reader closes
stdout start a fresh interpreter.  The shipped fixture files under
fixtures/ are exercised directly and kept in sync with the in-package
sources.
"""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import cbpv.fixtures as fx
from cbpv import cfg, harness, rewrite, syntax
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


# numerals past Python's 4,300-digit limit on decimal conversions, which
# stays as it is

BIG = "1234567890" * 500  # 5,000 digits


@pytest.mark.parametrize("machine", ["sos", "cek", "peak", "pek", "cfg"])
def test_run_prints_a_5000_digit_literal(machine, source_file, capsys):
    assert main(["run", f"--machine={machine}", source_file(f"prd {BIG}")]) == 0
    assert capsys.readouterr().out == f"result: {BIG}\n"
    assert main(["run", f"--machine={machine}", source_file(f"0 - {BIG}")]) == 0
    assert capsys.readouterr().out == f"result: -{BIG}\n"


def test_run_prints_a_computed_8193_digit_result(source_file, capsys):
    squares = "".join(f"a{i} * a{i} to a{i + 1} in " for i in range(12))
    path = source_file(f"10 * 10 to a0 in {squares}prd a12")  # 10 ** (2 ** 13)
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "result: 1" + "0" * 8192 + "\n"
    assert sys.get_int_max_str_digits() in (0, 4300)  # untouched


def test_big_numerals_print_and_parse_back(source_file, capsys):
    m = parse_term(f"prd -{BIG}")
    assert m == Prd(NumV(-int(BIG[:4000]) * 10**1000 - int(BIG[4000:])))
    assert print_term(m) == f"prd -{BIG}"
    assert main(["compile", "--emit=records", source_file(f"prd {BIG}")]) == 0
    assert capsys.readouterr().out == f"0\tε\tRET\tNAT:{BIG}\t\n"


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


def test_check_all_shares_one_prog_across_the_checks(monkeypatch, capsys):
    made = []
    real = syntax.Prog.__init__

    def counted(self, term):
        made.append(term)
        real(self, term)

    monkeypatch.setattr(syntax.Prog, "__init__", counted)
    assert main(["check", "--all", fixture_path("mult_call")]) == 0
    assert len(made) == 1


def test_check_accepts_modulo_advance(capsys):
    assert main(["check", "--all", "--modulo-advance", fixture_path("arith_seq")]) == 0
    flagged = capsys.readouterr()
    assert main(["check", "--all", fixture_path("arith_seq")]) == 0
    assert capsys.readouterr() == flagged  # the flag changes nothing


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


@pytest.mark.parametrize("char", ["é", "٣", "²"])
def test_non_ascii_letter_or_digit_exits_64(char, source_file, capsys):
    assert main(["run", source_file(f"prd {char}")]) == 64
    assert capsys.readouterr().err == f"syntax error: 1:5: unexpected character {char!r}\n"


def test_missing_file_exits_64(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cbpv")]) == 64
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compile", "unload", "optimize", "check"])
def test_a_file_that_is_not_utf8_exits_64(tmp_path, capsys, verb):
    path = tmp_path / "bytes.cbpv"
    path.write_bytes(b"\xff\xfe")
    assert main([verb, str(path)]) == 64
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 text\n"


@pytest.mark.parametrize("verb", ["run", "compile", "unload", "optimize", "check"])
def test_a_file_that_starts_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsys, verb):
    # editors on some systems save UTF-8 with a leading U+FEFF
    plain, marked = tmp_path / "plain.cbpv", tmp_path / "marked.cbpv"
    plain.write_bytes(b"prd 1\n")
    marked.write_bytes(b"\xef\xbb\xbfprd 1\n")
    assert main([verb, str(plain)]) == 0
    want = capsys.readouterr().out.replace(str(plain), str(marked))
    assert main([verb, str(marked)]) == 0
    assert capsys.readouterr() == (want, "")
    marked.write_bytes(b"\xef\xbb\xbf\xff")
    assert main([verb, str(marked)]) == 64
    assert capsys.readouterr().err == f"error: cannot read {marked}: not UTF-8 text\n"


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
        ["check", "--count", "-5"],
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


def test_recursion_overflow_exits_70(monkeypatch, source_file, capsys):
    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(harness, "run", overflow)
    assert main(["run", source_file("prd 0")]) == 70
    assert capsys.readouterr().err == (
        "internal error: RecursionError: maximum recursion depth exceeded\n"
    )


@pytest.mark.parametrize("machine", ["sos", "cek", "peak", "pek", "cfg"])
def test_deeply_nested_program_runs(machine, source_file, capsys):
    path = source_file("force thunk { " * 8000 + "prd 0" + " }" * 8000)
    assert main(["run", f"--machine={machine}", path]) == 0
    assert capsys.readouterr().out == "result: 0\n"


def test_check_of_30000_nested_thunks_exits_0(source_file, capsys):
    # every walk a check takes over the program and its states keeps its
    # own stack, so nesting deeper than Python's recursion limit checks
    path = source_file("force thunk { " * 30000 + "prd 0" + " }" * 30000)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def _under_30000_lambdas(source_file):
    # sos's first step substitutes 0 for x under 30,000 binders
    return source_file("0 . \\x. " + "\\y. " * 30000 + "prd x")


def test_sos_substitutes_under_30000_lambdas(source_file, capsys):
    assert main(["run", "--machine=sos", _under_30000_lambdas(source_file)]) == 0
    assert capsys.readouterr().out == "result: awaiting argument\n"


def test_check_under_30000_lambdas_exits_0(source_file, capsys):
    path = _under_30000_lambdas(source_file)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


_AT_THE_DEFAULT_LIMIT = r"""
import sys

limit = sys.getrecursionlimit()
import cbpv
from cbpv import harness, rewrite, sos
from cbpv.parser import parse_term
from cbpv.syntax import alpha_eq

assert sys.getrecursionlimit() == limit, (limit, sys.getrecursionlimit())
n = 5000  # deeper than the interpreter's default limit of 1,000
print(sos.run(parse_term("0 . \\x. " + "\\y. " * n + "prd x"), 10).result.kind)
print(harness.tower_check(parse_term("(" * n + "prd 0" + " to x in prd x)" * n), fuel=5).ok)

# a redex n deep, and a MoveElim whose left side is an n-link chain
_, steps = rewrite.optimize(parse_term("\\y. " * n + "force thunk { prd 0 }"), max_passes=1)
print(steps[0].rule.name, len(steps[0].at))
links = "".join(f"prd {i} to x{i} in " for i in range(n))
_, steps = rewrite.optimize(parse_term(f"({links}prd 7) to z in prd z"), max_passes=1)
print(steps[0].rule.name, len(steps[0].at))

# k closures, each on the environment of the next: reading one back reads
# back every closure under it, from cold.  Through a wrapper function each
# sits on its own short chain; bound in turn, all sit on one long chain.
k = 2000  # past the default limit even at one frame of recursion a closure
wrapped = "".join(f"(y{i} . force wrap) to y{i + 1} in " for i in range(k))
bound = "".join(f"prd thunk {{ force y{i} }} to y{i + 1} in " for i in range(k))
for chain in (
    f"letrec wrap = \\t. prd thunk {{ force t }} in prd thunk {{ prd 0 }} to y0 in {wrapped}prd y{k}",
    f"prd thunk {{ prd 0 }} to y0 in {bound}prd y{k}",
):
    chain = parse_term(chain)
    sos_mach = harness.machine("sos", chain)
    halt, steps, _ = harness.run(sos_mach, 10 * k)
    want, halfway = halt.kind.value, harness.run(sos_mach, steps // 2)[2]
    for name in ("cek", "peak", "pek", "cfg"):
        mach = harness.machine(name, chain)
        got = mach.value(harness.run(mach, steps)[0].kind.value)
        state = harness.run(mach, steps // 2)[2]
        print(name, alpha_eq(got, want), alpha_eq(mach.unload(state), halfway))
"""


def test_deep_programs_run_and_check_at_the_default_recursion_limit():
    # importing the package leaves the recursion limit alone, so what a
    # user gets at the interpreter's default is what this exercises
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _AT_THE_DEFAULT_LIMIT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    closures = "".join(f"{m} True True\n" for m in ("cek", "peak", "pek", "cfg"))
    want = "AwaitingArgument()\nTrue\nForceThunk 5000\nMoveElim 0\n" + 2 * closures
    assert out.stdout == want


_DEEP_CONTEXTS = {
    # 30,000 Seq left sides around the redex
    "seq": ("(" * 30000 + "prd 1" + " to x in prd x)" * 30000, 2, "fuel exhausted after 3 steps"),
    # 30,000 App bodies around a loop that takes one argument a turn
    "app": ("1 . " * 30000 + "letrec f = \\x. force f in force f", 2, "fuel exhausted after 3 steps"),
    # 30,000 App bodies around a function that takes one: stuck at step 1
    "app_stuck": ("1 . " * 30000 + "\\x. prd x", 1, "stuck: ApplyNonFunction"),
}


@pytest.mark.parametrize("machine", ["sos", "cek"])
@pytest.mark.parametrize("shape", sorted(_DEEP_CONTEXTS))
def test_a_30000_deep_evaluation_context_steps(machine, shape, source_file, capsys):
    # sos rebuilds the whole context every step, hence the small fuel
    text, code, err = _DEEP_CONTEXTS[shape]
    assert main(["run", f"--machine={machine}", "--fuel=3", source_file(text)]) == code
    assert capsys.readouterr().err == err + "\n"


def test_unknown_pc_exits_70(monkeypatch, source_file, capsys):
    monkeypatch.setattr(cfg, "compile", lambda prog: cfg.Cfg(0, {}, prog))
    assert main(["run", "--machine=cfg", source_file("prd 0")]) == 70
    assert capsys.readouterr().err == "internal error: UnknownPc: ε\n"


def test_a_closed_stdout_stops_without_an_internal_error(tmp_path):
    # the listing of a 300-deep spine, about 180 kB, outgrows the pipe, so
    # compile is still writing when its reader closes it, as ``head`` does
    src = tmp_path / "spine.cbpv"
    src.write_text("(" * 300 + "prd 0" + " to x in prd x)" * 300)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbpv.cli", "compile", str(src)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert [line[:11] for line in head] == [b"0: MOV 0 x#", b"1: MOV x#0.", b"2: MOV x#0."]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out
