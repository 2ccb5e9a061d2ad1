"""Byte-for-byte replay of a recorded command-line transcript.

``tests/golden/cli_transcript.txt`` holds, for every shipped fixture, the
exit code, stdout and stderr of each verb under the flags listed in
``invocations``.  Each entry is replayed in-process through ``main`` and
must reproduce the recording exactly, so refactors of the drivers behind
the CLI cannot change what a user sees.

To re-record after an intended output change, run from the repo root::

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/golden/cli_transcript.txt
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from cbpv.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"
MACHINES = ("sos", "cek", "peak", "pek", "cfg")


def invocations():
    """Every recorded argv, with fixture paths relative to the repo root."""
    out = []
    for path in sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.cbpv")):
        for machine in MACHINES:
            for flags in ([], ["--trace"], ["--fuel", "3"]):
                out.append(["run", "--machine", machine, *flags, path])
        out.append(["unload", "--steps", "0", path])
        out.append(["unload", "--steps", "3", path])
        out.append(["compile", "--emit", "cfg", path])
        out.append(["compile", "--emit", "records", path])
        out.append(["optimize", "--valuation", "a=2,b=3", path])
        out.append(["check", "--all", path])
    out.append(["optimize", "--rules", "Bogus", "fixtures/arith_seq.cbpv"])
    out.append(["optimize", "--valuation", "a=zzz", "fixtures/open_add.cbpv"])
    out.append(["check"])
    return out


def _lines(prefix, text):
    assert text == "" or text.endswith("\n"), "output without a final newline"
    return [f"{prefix} {line}" for line in text.split("\n")[:-1]]


def entry(argv, code, out, err):
    """One transcript entry: the command, its exit code, then its output."""
    return "\n".join(
        [f"$ cbpv {' '.join(argv)}", f"exit {code}", *_lines("1>", out), *_lines("2>", err)]
    )


def _recorded():
    return TRANSCRIPT.read_text(encoding="utf-8").removesuffix("\n").split("\n\n")


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_transcript_covers_every_invocation():
    heads = [e.split("\n", 1)[0] for e in _recorded()]
    assert heads == [f"$ cbpv {' '.join(argv)}" for argv in invocations()]


@pytest.mark.parametrize("i", range(len(invocations())))
def test_replay_matches_transcript(i, capsys):
    argv = invocations()[i]
    code = main(argv)
    captured = capsys.readouterr()
    assert entry(argv, code, captured.out, captured.err) == _recorded()[i]


if __name__ == "__main__":
    os.chdir(ROOT)
    entries = []
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        entries.append(entry(argv, code, out.getvalue(), err.getvalue()))
    sys.stdout.write("\n\n".join(entries) + "\n")
