"""Layered benchmark of the cbpv tower.

    python3 perfbench/run.py --workload long_runs --seed 1 --seconds 30 --trace 0

One closed loop in one single-threaded process: programs are visited one
after another, each visit running every operation the workload asks of the
program, until ``--seconds`` have passed and every program has been visited
at least once.  Every output is checked against an answer computed without
the library (see inputs.py).  Times are per-program medians over the visits,
so a burst of machine noise during one visit does not move them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the same workload is measured
untraced and then traced, for half the time each, and the JSON holds the
per-layer metrics taken from the spans; the spans themselves are written to
``perfbench/out/``.  The exit code is 1 when any operation failed or the
repository's ``src/cbpv`` cannot be imported.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import inputs
    import ops
    import speed
except ModuleNotFoundError as exc:  # not inside a checkout of the repository
    sys.exit(f"error: cannot import the cbpv package from {SRC}: {exc}")

MACHINES = inputs.MACHINES
PAIRS = tuple(ops.PAIRS)
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{f"steps_per_s.{m}": "steps/s" for m in MACHINES},
    "compile_s": "s",
    "checked_steps_per_s": "steps/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
}

PER_LAYER = {
    "parser.parse_s": "s",
    "parser.nodes": "count",
    "parser.nodes_per_s": "nodes/s",
    "cfg.compile_s": "s",
    "cfg.compile_calls": "count",
    "cfg.blocks": "count",
    "cfg.compile_growth_exp": "exponent",
    **{k: u for m in MACHINES for k, u in (
        (f"{m}.step_s", "s"),
        (f"{m}.steps", "count"),
        (f"{m}.steps_per_s", "steps/s"),
        (f"{m}.step_growth_exp", "exponent"),
    )},
    **{f"{m}.max_kont": "frames" for m in MACHINES[1:]},
    "cfg.max_env": "bindings",
    **{k: u for m in ("pek", "peak", "cek") for k, u in (
        (f"{m}.unload_s", "s"),
        (f"{m}.unloads", "count"),
    )},
    "harness.tower_s": "s",
    "harness.tower_steps": "count",
    "harness.tower_s_per_step": "s",
    "harness.tower_growth_exp": "exponent",
    **{k: u for pair in PAIRS for k, u in (
        (f"harness.lockstep_s.{pair}", "s"),
        (f"harness.lockstep_steps.{pair}", "count"),
    )},
    "trace.overhead_ratio": "ratio",
    "trace.covered_ratio": "ratio",
}

# span name -> the layer (module of src/cbpv) it times
LAYER_OF = {"parser": "parser", "cfg.compile": "cfg", "cfg.print": "cfg",
            **{m: m for m in MACHINES}, "pek.unload": "pek",
            "peak.unload": "peak", "cek.unload": "cek",
            "harness.tower": "harness",
            **{f"harness.lockstep.{p}": "harness" for p in PAIRS},
            "rewrite.optimize": "rewrite", "rewrite.validate": "rewrite"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the inputs, print their digest and exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Everything the visits of one phase measured."""

    def __init__(self):
        self.samples = defaultdict(list)  # (pid, key) -> [(start, end)], one per visit
        self.steps = {}  # (pid, machine) -> step() calls to the halt
        self.checked = {}  # pid -> steps checked
        self.outcome = {}  # pid -> (validate verdict, known defects met)
        self.attempted = self.failed = self.visits = 0
        self.failures = []
        self.elapsed = 0.0  # timed phase, less the speed probes taken in it
        self.speed = speed.Speed()

    def times(self):
        """Each (program, key)'s median over its visits, in seconds at the
        reference speed (see speed.py)."""
        scaled = self.speed.scaled
        return {k: statistics.median(scaled(t0, t1) for t0, t1 in v)
                for k, v in self.samples.items()}

    def verdict_ms(self, times):
        """Per program, text to verdict: on the corpus, the check, optimize
        and validate operation; elsewhere every operation on the program."""
        per = defaultdict(float)
        for (pid, key), t in times.items():
            if key == "verdict" or (key.startswith("op.")
                                    and (pid, "verdict") not in times):
                per[pid] += t
        return [1e3 * t for t in per.values()]


def visit(p, rotation, spans, tally):
    """Run every operation the program asks for and check the answers."""
    v = ops.Visit()
    failures = []
    # rotate the machine order so no machine always runs first or last
    names = list(p.machines)
    k = (rotation + p.pid) % len(names)
    results = {}
    for name in names[k:] + names[:k]:
        tally.speed.tick()
        try:
            if name == "cfg":
                halt, calls = ops.cfg_op(p, spans, v)
            else:
                halt, calls = ops.machine_op(p, name, spans, v)
        except Exception as exc:  # any exception is a failed operation
            failures.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
            continue
        results[name] = (calls, ops.observation(halt))
    if results:
        # Every machine must take the same number of steps (lockstep
        # guarantees it) and produce the reference answer; without one,
        # the machines must agree with one another.
        calls, obs = Counter(results.values()).most_common(1)[0][0]
        if p.answer is not None:
            obs = ("num", p.answer)
        for name, got in results.items():
            if got != (calls, obs):
                failures.append(f"{name}: got {got}, expected {(calls, obs)}")
    attempted = len(names)
    if p.tower or p.lockstep:
        attempted += 1
        tally.speed.tick()
        try:
            ops.check_op(p, spans, v)
        except Exception as exc:
            failures.append(f"check: {type(exc).__name__}: {exc}"[:300])

    if v.verdict is not None:
        v.times["verdict"] = v.times["op.check"]
        tally.outcome[p.pid] = (v.verdict, tuple(v.findings))
    tally.visits += 1
    tally.attempted += attempted
    tally.failed += len(failures)
    tally.failures += [f"program {p.pid}: {f}" for f in failures]
    for key, interval in v.times.items():
        tally.samples[p.pid, key].append(interval)
    for name, (calls, _) in results.items():
        tally.steps[p.pid, name] = calls
    if "check" in v.times:
        tally.checked[p.pid] = v.checked


def measure(workload, seconds, spans):
    """Visit programs in order, round after round, until ``seconds`` have
    passed and every program has been visited at least once."""
    progs = workload.programs
    tally = Tally()
    tally.speed.probe()
    start = time.perf_counter()
    i = 0
    while i < len(progs) or time.perf_counter() - start < seconds:
        spans.round = i // len(progs)
        visit(progs[i % len(progs)], spans.round, spans, tally)
        i += 1
    end = time.perf_counter()
    tally.speed.probe()
    probes = sum(t for at, t in zip(tally.speed.at, tally.speed.took) if start < at < end)
    tally.elapsed = end - start - probes
    return tally


# ---------------------------------------------------------------------------
# metrics


def _quantile(xs, q):
    # "inclusive" stays within the samples; the default method extrapolates
    # past the slowest of a few programs, which only adds noise
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def _ratio(num, den):
    return num / den if den else None


def wall_s(times):
    """One round over the workload: the sum of every operation's time."""
    return sum(t for (_, key), t in times.items() if key.startswith("op."))


def end_to_end(tally, setup_s):
    med = tally.times()
    verdict_ms = tally.verdict_ms(med)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s(med),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for m in MACHINES:
        keys = [pid for (pid, name) in tally.steps if name == m
                and (pid, "run." + m) in med]
        out[f"steps_per_s.{m}"] = _ratio(
            sum(tally.steps[pid, m] for pid in keys),
            sum(med[pid, "run." + m] for pid in keys))
    out["compile_s"] = sum(t for (_, key), t in med.items() if key == "compile")
    out["checked_steps_per_s"] = _ratio(
        sum(tally.checked.values()),
        sum(med[pid, "check"] for pid in tally.checked))
    out["verdict_p50_ms"] = statistics.median(verdict_ms)
    out["verdict_p99_ms"] = _quantile(verdict_ms, 99)
    return out


def growth_exp(points):
    """Least-squares slope of log y on log x over ``(family, x, y)`` points
    of one family; None with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for _, x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def per_layer(spans, traced, untraced, programs):
    """Per-layer figures for one round over the workload: each program's
    spans summed per round, then the median round, as for end-to-end."""
    rounds = defaultdict(lambda: [0.0, 0, 0])  # (pid, name, round) -> [s, count, calls]
    spent = 0.0
    for pid, rnd, name, t0, t1, n in spans.rows:
        acc = rounds[pid, name, rnd]
        acc[0] += traced.speed.scaled(t0, t1)
        acc[1] += n
        acc[2] += 1
        spent += t1 - t0
    per_round = defaultdict(list)
    for (pid, name, _), acc in rounds.items():
        per_round[pid, name].append(acc)
    typical = {}  # (pid, name) -> [s, count, calls] of the median round
    for key, accs in per_round.items():
        accs.sort()
        typical[key] = accs[(len(accs) - 1) // 2]
    total = defaultdict(float)
    count = Counter()
    calls = Counter()
    for (pid, name), (t, n, c) in typical.items():
        total[name] += t
        count[name] += n
        calls[name] += c

    def fits(name, per_unit):
        """Growth points for one span name: (family, size, cost)."""
        pts = []
        for p in programs:
            if (p.pid, name) in typical:
                t, n, _ = typical[p.pid, name]
                pts.append((p.family, p.size, t / n if per_unit else t))
        return pts

    out = {
        "parser.parse_s": total["parser"],
        "parser.nodes": count["parser"],
        "parser.nodes_per_s": _ratio(count["parser"], total["parser"]),
        "cfg.compile_s": total["cfg.compile"],
        "cfg.compile_calls": calls["cfg.compile"],
        "cfg.blocks": count["cfg.compile"],
    }
    growth = {"cfg.compile_growth_exp": fits("cfg.compile", False)}
    for m in MACHINES:
        out[f"{m}.step_s"] = total[m]
        out[f"{m}.steps"] = count[m]
        out[f"{m}.steps_per_s"] = _ratio(count[m], total[m])
        growth[f"{m}.step_growth_exp"] = fits(m, True)
    for m in MACHINES[1:]:
        out[f"{m}.max_kont"] = spans.kont[m]
    out["cfg.max_env"] = spans.env
    for m in ("pek", "peak", "cek"):
        out[f"{m}.unload_s"] = total[m + ".unload"]
        out[f"{m}.unloads"] = calls[m + ".unload"]
    out["harness.tower_s"] = total["harness.tower"]
    out["harness.tower_steps"] = count["harness.tower"]
    out["harness.tower_s_per_step"] = _ratio(total["harness.tower"], count["harness.tower"])
    growth["harness.tower_growth_exp"] = fits("harness.tower", True)
    for pair in PAIRS:
        out[f"harness.lockstep_s.{pair}"] = total["harness.lockstep." + pair]
        out[f"harness.lockstep_steps.{pair}"] = count["harness.lockstep." + pair]
    families = sorted({p.family for p in programs})
    by_family = {
        key: {f: growth_exp([pt for pt in pts if pt[0] == f]) for f in families}
        for key, pts in growth.items()
    }
    for key, slopes in by_family.items():
        # the steepest family: the growth an optimization must bring down
        out[key] = max((s for s in slopes.values() if s is not None), default=None)
    out["trace.overhead_ratio"] = _ratio(wall_s(traced.times()),
                                         wall_s(untraced.times()))
    out["trace.covered_ratio"] = _ratio(spent, traced.elapsed)

    self_s = Counter()
    for name, t in total.items():
        self_s[LAYER_OF[name]] += t
    detail = {
        "self_s": dict(self_s),
        "growth_by_family": by_family,
    }
    if spans.rules or total["rewrite.validate"]:  # the layer ran: the corpus
        detail.update({
            "rewrite.optimize_s": total["rewrite.optimize"],
            "rewrite.validate_s": total["rewrite.validate"],
            "rewrite.applied": dict(spans.rules),
            "rewrite.size_ratio": _ratio(spans.nodes_after, spans.nodes_before),
        })
    return out, detail


def outcomes(tally):
    """Validate verdicts over the distinct programs, and the known defects
    they ran into (see ops.py), each with the first program that did."""
    verdicts = Counter(v for v, _ in tally.outcome.values())
    known = Counter(f for _, fs in tally.outcome.values() for f in fs)
    first = {}
    for pid, (_, fs) in sorted(tally.outcome.items()):
        for f in fs:
            first.setdefault(f, pid)
    return {"rewrite.verdict": dict(verdicts), "known_defects": dict(known),
            "known_defects.first_program": first}


# ---------------------------------------------------------------------------
# set-up


def setup_seconds(args, digest):
    """Median time of fresh processes that import the library and generate
    the inputs, from process start to where the first timed operation would
    begin; probed and scaled like every other time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    probes = speed.Speed()
    times = []
    for _ in range(SETUP_REPEATS):
        probes.probe()
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        probes.probe()
        if out.returncode != 0 or out.stdout.strip() != digest:
            raise SystemExit(f"set-up run disagrees: {out.stdout!r} {out.stderr[-500:]}")
        times.append((t0, t1))
    return statistics.median(probes.scaled(t0, t1) for t0, t1 in times)


# ---------------------------------------------------------------------------
# output


def _print_metrics(metrics, units):
    for name, unit in units.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {unit}")


def main(argv=None):
    args = _args(argv)
    workload = inputs.build(args.workload, args.seed)
    if args.setup_only:
        print(workload.digest)
        return 0

    if args.trace:
        untraced = measure(workload, args.seconds / 2, ops.NoSpans())
        spans = ops.Spans()
        tally = measure(workload, args.seconds / 2, spans)
        metrics, detail = per_layer(spans, tally, untraced, workload.programs)
        units = PER_LAYER
    else:
        tally = measure(workload, args.seconds, ops.NoSpans())
        metrics = end_to_end(tally, setup_seconds(args, workload.digest))
        units = END_TO_END
        detail = {}
    if tally.outcome:
        detail.update(outcomes(tally))

    error_rate = tally.failed / tally.attempted
    print(f"workload {workload.name} seed {args.seed} digest {workload.digest} "
          f"programs {len(workload.programs)} visits {tally.visits} "
          f"timed {tally.elapsed:.1f} s")
    _print_metrics(metrics, units)
    print(f"{'error_rate':36s} {error_rate:>14.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print(f"samples: {len(workload.programs)} programs, each the median of "
          f"{tally.visits / len(workload.programs):.2f} visits on average; "
          f"speed probe median {1e3 * tally.speed.median_s():.3f} ms against "
          f"{1e3 * speed.REFERENCE_S:g} ms reference")
    for key, value in detail.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for line in tally.failures[:20]:
        print(line, file=sys.stderr)

    _write_out(args, workload, tally, metrics, detail, spans if args.trace else None)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


def _write_out(args, workload, tally, metrics, detail, spans):
    """Per-program rows, metrics and (traced) spans under perfbench/out/."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    med = defaultdict(dict)
    for (pid, key), t in tally.times().items():
        med[pid][key] = t
    rows = [
        {"pid": p.pid, "family": p.family, "size": p.size, "nodes": p.nodes,
         "answer": p.answer,
         "steps": {m: tally.steps.get((p.pid, m)) for m in p.machines},
         "median_s": med[p.pid]}
        for p in workload.programs
    ]
    with open(out / f"{stem}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "digest": workload.digest, "metrics": metrics,
                   "detail": detail, "failures": tally.failures,
                   "programs": rows}, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w") as fh:
            for pid, rnd, name, t0, t1, n in spans.rows:
                fh.write(json.dumps({"id": pid, "round": rnd, "name": name,
                                     "start": t0, "dur": t1 - t0,
                                     "count": n}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
