"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the inputs are a function of the seed, that a tiny run of
each workload prints every metric BENCHMARK.json names with its unit and no
failed operation, and that the benchmark refuses to run outside a checkout.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import inputs  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_digest_follows_the_seed(name):
    a = inputs.build(name, 7)
    assert inputs.build(name, 7).digest == a.digest
    assert inputs.build(name, 8).digest != a.digest


def _tiny(name):
    """A few of the workload's cheapest programs, two sizes per family: the
    checked ones, or on the corpus the first forty."""
    w = inputs.build(name, 3)
    keep = w.programs[:40] if name == "verify_corpus" else [p for p in w.programs if p.tower]
    return inputs.Workload(name, tuple(keep))


def _main(monkeypatch, name, trace):
    tiny = _tiny(name)
    monkeypatch.setattr(run.inputs, "build", lambda *_: tiny)
    monkeypatch.setattr(run, "setup_seconds", lambda *_: 0.25)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric(monkeypatch, name, trace):
    code, result = _main(monkeypatch, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def _corpus_program(text, valuations):
    fields = inputs.program_fields(text, "corpus", None, tower=True, lockstep=True,
                                   verdict=True, valuations=valuations,
                                   fuel=inputs.CORPUS_FUEL)
    return inputs.Program(pid=0, **fields)


@pytest.mark.parametrize("text, valuations, finding", [
    # binders reuse the free name b; the unloaders capture it
    (r"thunk { b * 8 } . \b. b . \z. 28 . if0 x { if0 z { prd 4 } "
     r"{ prd thunk { prd 45 } } } { prd 5 }", ({"b": 1, "x": 2}, {"b": 0, "x": 0}),
     "unload_capture"),
    # BranchElim drops an if0 whose guard holds a thunk
    (r"letrec y = prd 8 in if0 y { prd 9 } { prd 9 }", ({},), "branch_elim"),
    # validate compares produced thunks as syntax
    (r"prd thunk { force thunk { prd 9 } }", ({},), "thunk_body"),
])
def test_known_defects_are_recognised(text, valuations, finding):
    """These fail a check at the parent commit; when one is fixed, this
    test fails and the known-defect accounting in ops.py can shrink."""
    v = run.ops.Visit()
    run.ops.check_op(_corpus_program(text, valuations), run.ops.NoSpans(), v)
    assert v.findings == [finding]


def test_contract_matches_the_runner():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "long_runs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
