"""Golden test of the bytes the command line writes.

Each case runs `satprop.cli.main` in-process on one fixed argv and compares
the sha256 of its stdout, its stderr, each file it was asked to write (None
when the file was not written) and its exit code with `data/cli_golden.json`.
Inputs come from `--gen` or stdin, so no temporary path reaches an output;
`--timings` is left out, since its seconds differ from run to run.  To
re-record the digests against the program on the path:

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints how many digests changed in each group of cases, a group being
the first word of a case name; a case added or removed counts as changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from satprop import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

UNSAT_CNF = "p cnf 3 8\n" + "".join(
    " ".join(str(v if s else -v) for v, s in zip((1, 2, 3), signs)) + " 0\n"
    for signs in itertools.product([False, True], repeat=3)
)
# a unit, a 2-clause, a tautology and a header that undercounts
SHORT_CNF = "c short clauses\np cnf 5 3\n1 0\n-2 4 0\n3 -3 5 0\n2 5 -1 0\n"
# CRLF line ends, a comment after the problem line, unsorted literals, a
# clause split across lines, two clauses on one line, a header that
# undercounts and a SATLIB `%` trailer with its stray 0
SATLIB_LAYOUT_CNF = (
    "c SATLIB-style layout\r\np cnf 6 3\r\nc after the header\r\n"
    " 3 -1 2 0\r\n-4 5\r\n\t6 0\r\n2 -6 -3 0 1 4 0\r\n%\r\n0\r\n"
)

# name -> (argv, stdin).  "{out}" stands for a file in a fresh directory,
# hashed after the call when an argv names it.
CASES: dict[str, tuple[list[str], str | None]] = {
    "solve-fifo-oracle-on": (
        ["solve", "--gen", "n=12,m=51,seed=1", "--oracle", "on"], None),
    "solve-random-oracle-off": (
        ["solve", "--gen", "n=12,m=51,seed=1", "--oracle", "off",
         "--order", "random:5"], None),
    "solve-fifo-unsat-out": (
        ["solve", "--gen", "n=20,m=160,seed=7000", "--oracle", "off",
         "--out", "{out}"], None),
    "solve-random-oracle-on": (
        ["solve", "--gen", "n=9,m=30,seed=6", "--order", "random:3",
         "--oracle", "on"], None),
    "solve-stdin-unsat": (["solve", "--input", "-", "--oracle", "on"], UNSAT_CNF),
    "solve-stdin-short-clauses": (["solve", "--input", "-"], SHORT_CNF),
    "solve-stdin-satlib-layout": (["solve", "--input", "-"], SATLIB_LAYOUT_CNF),
    "solve-stdin-empty-clause": (
        ["solve", "--input", "-", "--oracle", "on"], "p cnf 3 2\n1 2 3 0\n0\n"),
    "solve-oracle-skipped": (
        ["solve", "--gen", "n=31,m=40,seed=1", "--oracle", "on"], None),
    "trace-fifo": (["trace", "--gen", "n=9,m=30,seed=6"], None),
    "trace-fifo-unsat-out": (
        ["trace", "--gen", "n=20,m=160,seed=7000", "--out", "{out}"], None),
    "trace-random-small-out": (
        ["trace", "--gen", "n=9,m=30,seed=6", "--order", "random:3",
         "--out", "{out}"], None),
    "trace-random-out": (
        ["trace", "--gen", "n=20,m=160,seed=7000", "--order", "random:3",
         "--out", "{out}"], None),
    "trace-stdin-empty-clause": (
        ["trace", "--input", "-", "--out", "{out}"], "p cnf 3 1\n0\n"),
    "bench-fifo-oracle-on": (
        ["bench", "--gen", "n=8,m=16..32..8,seed=2,count=5", "--oracle", "on"],
        None),
    "bench-random-counterexamples": (
        ["bench", "--gen", "n=8,m=30..40..5,seed=4,count=10", "--oracle", "on",
         "--order", "random:2", "--out", "{out}"], None),
    "bench-oracle-off": (
        ["bench", "--gen", "n=12,m=12..72..12,seed=1,count=5", "--oracle", "off"],
        None),
    "bench-oracle-skipped": (
        ["bench", "--gen", "n=31,m=40..80..40,seed=1,count=2", "--oracle", "on"],
        None),
    "verify-quick": (["verify", "--quick"], None),
    "version": (["--version"], None),
    "error-parse": (["solve", "--input", "-"], "p cnf 4 1\n1 2 3 4 0\n"),
    "error-gen-range": (["solve", "--gen", "n=2,m=3,seed=1"], None),
    "error-gen-field": (["bench", "--gen", "n=12,m=30,seed=1,cont=50"], None),
    "error-multi-instance": (["trace", "--gen", "n=12,m=30..50,seed=1"], None),
    "error-solve-trace": (
        ["solve", "--gen", "n=3,m=1,seed=1", "--trace", "t.json"], None),
    "error-order": (["solve", "--gen", "n=3,m=1,seed=1", "--order", "lifo"], None),
    "error-exclusive": (["solve", "--input", "-", "--gen", "n=3,m=1,seed=1"], ""),
    "error-bench-needs-gen": (["bench"], None),
    "error-unknown-flag": (["verify", "--timings"], None),
    "error-bad-choice": (
        ["bench", "--gen", "n=8,m=16,seed=2", "--oracle", "maybe"], None),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(name: str) -> dict:
    """The digests of one case's exit code, streams and written files."""
    argv, stdin = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": os.path.join(tmp, "out.json")}
        args = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, saved_columns = sys.stdin, os.environ.get("COLUMNS")
        # bytes behind a text layer, as a process's stdin is
        sys.stdin = io.TextIOWrapper(io.BytesIO((stdin or "").encode()), encoding="utf-8")
        os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to it
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        finally:
            sys.stdin = saved_stdin
            if saved_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = saved_columns
        files = {key: _sha(Path(path).read_text()) if os.path.exists(path) else None
                 for key, path in paths.items() if f"{{{key}}}" in argv}
    return {"exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()), "files": files}


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden_digests(name):
    assert run_case(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = {name: run_case(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    names = digests.keys() | old.keys()
    total = Counter(name.split("-")[0] for name in names)
    changed = Counter(name.split("-")[0] for name in names
                      if old.get(name) != digests.get(name))
    print(f"{GOLDEN.name}: {sum(changed.values())} of {len(names)} digests changed")
    for group in sorted(total):
        print(f"  {group}: {changed[group]} of {total[group]} digests changed")
