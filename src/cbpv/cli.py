"""Command-line front end for the machine tower.

Five verbs behind one executable.  ``run`` steps a program on any of the
five machines and prints its observation, ``compile`` emits the block
graph (pretty listing or record rows), ``unload`` runs a few graph steps
and reads the residual source term back out, ``optimize`` applies the
local rewrites and can validate the result against the original, and
``check`` drives the lock-step harness.  Everything here is plumbing:
parse argv, read one file, call into the library, pick an exit code.

Exit codes: 0 success, 1 the program got stuck, 2 fuel ran out, 3 a
check or validation failed, 64 bad usage (a negative ``--fuel`` or
``--steps`` included) or a syntax error, 70 an internal fault such as
exhausted recursion or a compiler bug, reported on one stderr line.
"""

import argparse
import sys

from . import cfg, harness, rewrite
from .harness import LevelPair
from .parser import ParseError, parse_term
from .printer import print_term
from .rewrite import RuleId
from .sos import AwaitingArgument, BareArith, Stuck, Verdict
from .syntax import NumV, as_prog

USAGE_EXIT = 64
INTERNAL_EXIT = 70
MACHINES = ("sos", "cek", "peak", "pek", "cfg")


class UsageError(Exception):
    """Bad flag values or unreadable input; reported on exit code 64."""


def _load_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_term(text)


# ---------------------------------------------------------------------------
# run


def _result_line(mach, halt):
    """Render a Terminal halt as the one-line observation."""
    kind = halt.kind
    if type(kind) is BareArith:
        return f"result: {kind.n}"
    if type(kind) is AwaitingArgument:
        return "result: awaiting argument"
    v = mach.value(kind.value)
    if type(v) is NumV:
        return f"result: {v.n}"
    return f"result: {print_term(v)}"


def _cmd_run(args):
    mach = harness.machine(args.machine, _load_file(args.file))
    trace = (lambda s, i: print(mach.describe(s, i))) if args.trace else None
    halt, steps, _ = harness.run(mach, args.fuel, trace)
    if halt is None:
        print(f"fuel exhausted after {steps} steps", file=sys.stderr)
        return 2
    if type(halt) is Stuck:
        print(f"stuck: {halt.reason.value}", file=sys.stderr)
        return 1
    print(_result_line(mach, halt))
    return 0


# ---------------------------------------------------------------------------
# compile / unload


def _cmd_compile(args):
    m = _load_file(args.file)
    g = cfg.compile(as_prog(m))
    print(cfg.print_cfg(g) if args.emit == "cfg" else cfg.records(g))
    return 0


def _cmd_unload(args):
    mach = harness.machine("cfg", _load_file(args.file))
    _, _, s = harness.run(mach, args.steps)  # a halt reads back the last real state
    print(print_term(mach.unload(s)))
    return 0


# ---------------------------------------------------------------------------
# optimize


def _parse_rules(spec):
    if spec is None:
        return None
    rules = set()
    for name in spec.split(","):
        try:
            rules.add(RuleId[name.strip()])
        except KeyError:
            known = ", ".join(r.name for r in RuleId)
            raise UsageError(f"unknown rule {name.strip()!r} (known: {known})") from None
    return frozenset(rules)


def _parse_valuation(spec):
    val = {}
    if not spec.strip():
        return val  # explicit empty valuation: validate without closing anything
    for pair in spec.split(","):
        name, eq, num = pair.partition("=")
        if not eq or not name:
            raise UsageError(f"bad valuation entry {pair!r}, want name=int")
        try:
            val[name.strip()] = int(num)
        except ValueError:
            raise UsageError(f"bad valuation entry {pair!r}, want name=int") from None
    return val


def _cmd_optimize(args):
    m = _load_file(args.file)
    rules = _parse_rules(args.rules)
    valuations = tuple(_parse_valuation(v) for v in args.valuation)
    optimized, steps = rewrite.optimize(m, rules, max_passes=args.steps)
    for line in rewrite.log_lines(steps):
        print(line, file=sys.stderr)
    print(print_term(optimized))
    if not valuations:
        return 0
    report = rewrite.validate(m, optimized, fuel=args.fuel, valuations=valuations)
    print(f"validation: {report.verdict.name}", file=sys.stderr)
    for failure in report.failures:
        print(failure, file=sys.stderr)
    return 3 if report.verdict is Verdict.Inequivalent else 0


# ---------------------------------------------------------------------------
# check


def _check_reports(m, args):
    reports = [harness.tower_check(m, fuel=args.fuel)]
    if args.all_checks:
        for pair in LevelPair:
            modulo = args.modulo_advance or pair is LevelPair.PEAK_PEK
            mode = "modulo_advance" if modulo else "strict"
            reports.append(harness.lockstep_check(m, pair, fuel=args.fuel, mode=mode))
    return reports


def _cmd_check(args):
    if args.files:
        programs = [(path, _load_file(path)) for path in args.files]
    elif args.count:
        programs = [
            (f"seed {args.seed + i}", harness.gen_term(args.seed + i, 25))
            for i in range(args.count)
        ]
    else:
        raise UsageError("check needs at least one file or --count=N")

    failed = 0
    for name, m in programs:
        bad = [r for r in _check_reports(m, args) if not r.ok]
        if bad:
            failed += 1
            print(f"{name}: FAIL", file=sys.stderr)
            for report in bad:
                for line in report.lines():
                    print(f"  {line}", file=sys.stderr)
        else:
            print(f"{name}: ok")
    if failed:
        print(f"{failed} of {len(programs)} programs failed", file=sys.stderr)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argv plumbing


class _ArgParser(argparse.ArgumentParser):
    """argparse variant that reports usage problems on exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser():
    ap = _ArgParser(prog="cbpv", description="machine tower driver")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_ArgParser)

    run = sub.add_parser("run", help="step a program to a halt and print the result")
    run.add_argument("--machine", choices=MACHINES, default="sos")
    run.add_argument("--fuel", type=int, default=10000)
    run.add_argument("--trace", action="store_true", help="describe every visited state")
    run.add_argument("file")

    comp = sub.add_parser("compile", help="print the compiled block graph")
    comp.add_argument("--emit", choices=("cfg", "records"), default="cfg")
    comp.add_argument("file")

    unl = sub.add_parser("unload", help="run graph steps, then read the term back")
    unl.add_argument("--steps", type=int, default=0, help="graph steps to take first")
    unl.add_argument("file")

    opt = sub.add_parser("optimize", help="apply rewrite rules, optionally validating")
    opt.add_argument("--rules", help="comma-separated rule names (default: all)")
    opt.add_argument("--steps", type=int, default=100, help="rewrite budget")
    opt.add_argument(
        "--valuation",
        action="append",
        default=[],
        metavar="x=2,b=3",
        help="close free variables and validate; repeatable",
    )
    opt.add_argument("--fuel", type=int, default=10000)
    opt.add_argument("file")

    chk = sub.add_parser("check", help="run the lock-step harness")
    chk.add_argument(
        "--all",
        dest="all_checks",
        action="store_true",
        help="check every adjacent machine pair, not just source against graph",
    )
    chk.add_argument("--fuel", type=int, default=10000)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--count", type=int, help="check COUNT generated programs")
    chk.add_argument("--modulo-advance", dest="modulo_advance", action="store_true")
    chk.add_argument("files", nargs="*")

    return ap


_COMMANDS = {
    "run": _cmd_run,
    "compile": _cmd_compile,
    "unload": _cmd_unload,
    "optimize": _cmd_optimize,
    "check": _cmd_check,
}


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        for count in ("fuel", "steps"):
            if getattr(args, count, 0) < 0:
                ap.error(f"argument --{count}: must not be negative")
    except SystemExit as exc:
        return exc.code or 0
    try:
        return _COMMANDS[args.cmd](args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # RecursionError, cfg.UnknownPc, any other fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
