"""Reproduce the "Baseline" figures of ROADMAP.md with one command.

    python3 perfbench/baseline.py

Prints, for each figure, the fastest and the median of a few repeats:
step throughput per machine on ``mult_call(3, 2000, 0)``, compile time of
the n-deep ``to`` chain for n = 250 ... 2000, the cfg and cek runs of the
2000-deep chain, ``tower_check`` on the 250- and 500-deep chains, and the
step counts of the acceptance corpus.  README.md maps each figure to the
benchmark metric that now carries it.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402  (needs src/ on the path)
import ops  # noqa: E402
from cbpv import cfg, harness, sos  # noqa: E402
from cbpv.fixtures import mult_call  # noqa: E402
from cbpv.parser import parse_term  # noqa: E402
from cbpv.printer import print_term  # noqa: E402
from cbpv.syntax import as_prog  # noqa: E402

REPEATS = 3


def _program(text):
    return inputs.Program(pid=0, **inputs.program_fields(text, "baseline", None))


def _timed(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times), result


def _show(label, best, median, extra=""):
    print(f"{label:44s} best {best * 1e3:9.1f} ms  median {median * 1e3:9.1f} ms  {extra}")


def machine_run(p, name):
    v = ops.Visit()
    if name == "cfg":
        _, calls = ops.cfg_op(p, ops.NoSpans(), v)
    else:
        _, calls = ops.machine_op(p, name, ops.NoSpans(), v)
    t0, t1 = v.times["run." + name]
    return t1 - t0, calls


def main():
    print("step throughput on mult_call(3, 2000, 0) (metric steps_per_s.<m>)")
    p = _program(print_term(mult_call(3, 2000, 0)))
    for name in inputs.MACHINES:
        runs = [machine_run(p, name) for _ in range(REPEATS)]
        calls = runs[0][1]
        best = min(t for t, _ in runs)
        med = statistics.median(t for t, _ in runs)
        print(f"  {name:5s} {calls} steps  {calls / best:9.0f} steps/s best  "
              f"{calls / med:9.0f} steps/s median")

    print("compile of the n-deep chain (metrics cfg.compile_s, compile_s)")
    for n in (250, 500, 1000, 2000):
        term = parse_term(inputs.chain_text(n))
        best, med, _ = _timed(lambda: cfg.compile(as_prog(term)))
        _show(f"  cfg.compile, n={n}", best, med)

    print("the 2000-deep chain run (metrics steps_per_s.cfg, steps_per_s.cek)")
    p = _program(inputs.chain_text(2000))
    for name in ("cfg", "cek"):
        runs = [machine_run(p, name)[0] for _ in range(REPEATS)]
        _show(f"  {name} load and run", min(runs), statistics.median(runs))

    print("tower_check on the n-deep chain (metric checked_steps_per_s)")
    for n in (250, 500):
        text = inputs.chain_text(n)
        best, med, report = _timed(
            lambda: harness.tower_check(parse_term(text), fuel=inputs.BIG_FUEL))
        _show(f"  tower_check, n={n}", best, med, f"{report.steps_checked} steps, ok={report.ok}")

    print("the acceptance corpus, 1,000 generated terms (workload verify_corpus)")
    steps = [sos.run(harness.gen_term(seed, seed % 26), 300).steps_taken
             for seed in range(1000)]
    print(f"  sos steps: median {statistics.median(steps)}, longest {max(steps)}, "
          f"runs of 50 steps or more: {sum(s >= 50 for s in steps)}")


if __name__ == "__main__":
    main()
