import argparse
import errno
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satprop
from satprop import __version__, bitspace, checks, cli, oracle, propagate
from satprop.bitspace import Partition
from satprop.clausal import build_clausal_partition
from satprop.cli import (
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSAT,
    instance_seed,
    main,
    parse_gen_spec,
    parse_order,
)
from satprop.dimacs import gen_random_3sat, parse_dimacs, write_report

UNSAT_CNF = "p cnf 3 8\n" + "".join(
    " ".join(str(v if s else -v) for v, s in zip((1, 2, 3), signs)) + " 0\n"
    for signs in itertools.product([False, True], repeat=3)
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- config parsing -----------------------------------------------------------

def test_parse_gen_spec_forms():
    spec = parse_gen_spec("n=12,m=42,seed=7")
    assert (spec.n, spec.m_points, spec.seed, spec.count) == (12, [42], 7, 1)
    spec = parse_gen_spec("n=12,m=12..72..6,seed=5,count=50")
    assert spec.m_points == list(range(12, 73, 6))
    spec = parse_gen_spec("n=12,m=12..72,seed=5")
    assert spec.m_points == list(range(12, 73, 6))
    with pytest.raises(ValueError):
        parse_gen_spec("n=12,seed=7")
    with pytest.raises(ValueError):
        parse_gen_spec("n=12,m=9..3,seed=7")


@pytest.mark.parametrize("spec, message", [
    ("n=2,m=3,seed=1", "n >= 3"),
    ("n=1048577,m=1,seed=1", "^--gen needs n <= 1048576, got 1048577$"),
    ("n=12,m=-1,seed=1", "m >= 0"),
    ("n=12,m=-6..12..6,seed=1", "m >= 0"),
    ("n=12,m=262145,seed=1", "^--gen needs m <= 262144, got 262145$"),
    ("n=12,m=0..262145,seed=1", "^--gen needs m <= 262144, got 0..262145$"),
    ("n=12,m=0..1000000000..1,seed=1", "^--gen needs m <= 262144, got 0..1000000000..1$"),
    ("n=12,m=30,seed=1,count=0", "count >= 1"),
    ("n=12,m=30,seed=1,count=-1", "count >= 1"),
    ("n=12,m=30,seed=1,count=1010", "^--gen needs count <= 1009, got 1010$"),
    ("n=12,m=0..991..1,seed=1", "^--gen needs at most 991 m points, got 992$"),
    ("n=12,m=30,seed=-007", "^--gen needs seed >= 0, got -7$"),
    ("n=3,m=1,seed=1,foo=2", "unknown --gen field 'foo'"),
    ("n=12,m=30,seed=1,cont=50", "unknown --gen field 'cont'"),
    ("n=3,m=1,seed=1,n=4", "repeated --gen field 'n'"),
    ("n=x,m=1,seed=1", "^--gen field 'n' needs an integer, got 'x'$"),
    ("n=12,m=y,seed=1", "^--gen field 'm' needs an integer, got 'y'$"),
    ("n=12,m=3,seed=z", "^--gen field 'seed' needs an integer, got 'z'$"),
    ("n=12,m=3,seed=1,count=1.5", "^--gen field 'count' needs an integer, got '1.5'$"),
    ("n=12,m=3..,seed=1", "^bad m range '3..'$"),
    ("n=12,m=3..x..1,seed=1", "^bad m range '3..x..1'$"),
])
def test_parse_gen_spec_rejects_out_of_range(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_gen_spec(spec)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--gen", "n=3,m=1,seed=1,foo=2"], "unknown --gen field 'foo'"),
    (["bench", "--gen", "n=12,m=30,seed=1,cont=50"], "unknown --gen field 'cont'"),
    (["trace", "--gen", "n=3,m=1,seed=1,n=4"], "repeated --gen field 'n'"),
])
def test_unknown_or_repeated_gen_field_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, m", [
    ("bench", "0..1000000000..1"), ("solve", "1000000000")])
def test_gen_past_max_clauses_exits_2(capsys, command, m):
    # the generator builds every clause, and bench the list of m points,
    # so an m past the bound is refused before either is built
    code, out, err = run(capsys, command, "--gen", f"n=12,m={m},seed=1")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: --gen needs m <= 262144, got {m}\n"


def test_gen_past_max_vars_exits_2(capsys):
    # extraction and the report are sized by n, so a larger n is refused
    # before any instance is built
    code, out, err = run(capsys, "solve", "--gen", "n=1048577,m=1,seed=1")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: --gen needs n <= 1048576, got 1048577\n"


def test_gen_count_stops_before_the_next_points_seeds():
    # the 1010th instance of a point would take the next point's first
    # seed, and so the first clauses of its instances; count=1010 exits 2
    # (test_out_of_range_gen_exits_2)
    assert instance_seed(5, 0, 1009) == instance_seed(5, 1, 0) == 5_001_024
    assert parse_gen_spec("n=12,m=30..35..5,seed=5,count=1009").count == 1009
    # likewise the 992nd point of a sweep would take the next base's seeds;
    # 991 points of 1009 instances stay below them, and 992 points exit 2
    assert instance_seed(1, 991, 84) == instance_seed(2, 0, 0) == 2_000_006
    assert instance_seed(1, 990, 1008) < instance_seed(2, 0, 0)
    spec = parse_gen_spec("n=12,m=0..990..1,seed=1,count=1009")
    assert (len(spec.m_points), spec.count) == (991, 1009)


@pytest.mark.parametrize("argv, message", [
    (["solve", "--gen", "n=x,m=1,seed=1"], "--gen field 'n' needs an integer, got 'x'"),
    (["bench", "--gen", "n=12,m=3..,seed=1"], "bad m range '3..'"),
    (["bench", "--gen", "n=12,m=3,seed=1,count=1.5"],
     "--gen field 'count' needs an integer, got '1.5'"),
    (["trace", "--gen", "n=3,m=1,seed=1", "--order", "random:"],
     "bad --order 'random:', expected fifo or random:<seed>"),
])
def test_non_integer_value_names_its_field(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "n=2,m=3,seed=1"],
    ["solve", "--gen", "n=12,m=-1,seed=1"],
    ["bench", "--gen", "n=2,m=3..6..3,seed=1"],
    ["bench", "--gen", "n=12,m=30,seed=1,count=-1"],
    ["bench", "--gen", "n=12,m=30..35..5,seed=5,count=1010"],
    ["bench", "--gen", "n=12,m=0..991..1,seed=1"],
    # random.Random(-s) draws what random.Random(s) does
    ["solve", "--gen", "n=10,m=40,seed=-7"],
    ["bench", "--gen", "n=12,m=30..35..5,seed=-1,count=2"],
])
def test_out_of_range_gen_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: --gen needs ")


@pytest.mark.parametrize("command", ["solve", "trace", "bench"])
def test_negative_order_seed_exits_2(capsys, command):
    # random.Random(-s) shuffles as random.Random(s) does, so random:-3
    # would run random:3's schedule under another label
    code, out, err = run(capsys, command, "--gen", "n=12,m=30,seed=1", "--order", "random:-3")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: --order needs seed >= 0, got -3\n"


# int() also reads `_` between digits and non-ASCII digits; --gen and
# --order read ASCII decimals, as DIMACS counts are read
@pytest.mark.parametrize("argv, message", [
    (["solve", "--gen", "n=1_2,m=3_0,seed=1"], "--gen field 'n' needs an integer, got '1_2'"),
    (["solve", "--gen", "n=12,m=3_0,seed=1"], "--gen field 'm' needs an integer, got '3_0'"),
    (["solve", "--gen", "n=\uff11\uff12,m=30,seed=1"],
     "--gen field 'n' needs an integer, got '\uff11\uff12'"),
    (["trace", "--gen", "n=12,m=30,seed=\u0663"],
     "--gen field 'seed' needs an integer, got '\u0663'"),
    (["bench", "--gen", "n=12,m=30,seed=1,count=1_0"],
     "--gen field 'count' needs an integer, got '1_0'"),
    (["bench", "--gen", "n=12,m=1_2..30,seed=1"], "bad m range '1_2..30'"),
    (["bench", "--gen", "n=12,m=12..30..\uff16,seed=1"], "bad m range '12..30..\uff16'"),
    (["solve", "--gen", "n=12,m=30,seed=1", "--order", "random:1_0"],
     "bad --order 'random:1_0', expected fifo or random:<seed>"),
    (["trace", "--gen", "n=12,m=30,seed=1", "--order", "random:\uff15"],
     "bad --order 'random:\uff15', expected fifo or random:<seed>"),
])
def test_gen_and_order_read_only_ascii_decimals(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: {message}\n"


def test_gen_and_order_read_a_sign_and_leading_zeros():
    spec = parse_gen_spec("n=+012,m=03..+9..03,seed=+01,count=02")
    assert (spec.n, spec.m_points, spec.seed, spec.count) == (12, [3, 6, 9], 1, 2)
    assert parse_order("random:+007") == ("random", 7)


def test_parse_order_forms():
    assert parse_order("fifo") == ("fifo", None)
    assert parse_order("random:9") == ("random", 9)
    for spec in ("lifo", "random:", "random:x", "random:1.5"):
        with pytest.raises(ValueError, match=(
                f"^bad --order '{spec}', expected fifo or random:<seed>$")):
            parse_order(spec)


def test_input_and_gen_mutually_exclusive(capsys, tmp_path):
    path = tmp_path / "x.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    code, _, err = run(capsys, "solve", "--input", str(path), "--gen",
                       "n=3,m=1,seed=1")
    assert code == EXIT_PARSE
    assert "mutually exclusive" in err


@pytest.mark.parametrize("argv", [
    "verify --input x.cnf", "verify --gen n=3,m=1,seed=1", "verify --oracle on",
    "verify --order fifo", "verify --out x.json", "verify --trace t.json",
    "verify --timings", "verify --quick --mutate-bc",
    "solve --gen n=3,m=1,seed=1 --quick",
    "trace --gen n=3,m=1,seed=1 --oracle on", "trace --gen n=3,m=1,seed=1 --quick",
    "trace --gen n=3,m=1,seed=1 --timings", "trace --gen n=3,m=1,seed=1 --trace t.json",
    "bench --gen n=3,m=1,seed=1 --input x.cnf", "bench --gen n=3,m=1,seed=1 --quick",
    "bench --gen n=3,m=1,seed=1 --trace t.json",
    "solve --gen n=3,m=1,seed=1 --trace t.json",
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    assert main(argv.split()) == EXIT_PARSE
    assert "error: unrecognized arguments: " in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    # each row of README's subcommand table lists exactly the flags that
    # subcommand's parser accepts, leaving out --help
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE))
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(rows) == sorted(sub.choices)
    for name, parser in sub.choices.items():
        accepted = {flag for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)
                    for flag in action.option_strings}
        assert set(re.findall(r"`(--[\w-]+)`", rows[name])) == accepted, name


@pytest.mark.parametrize("argv, message", [
    (["solve", "--gen", "n=3,m=1,seed=1", "--oracle", "maybe"],
     "error: argument --oracle: invalid choice: 'maybe'"),
    ([], "error: the following arguments are required: subcommand"),
])
def test_argparse_usage_errors_return_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert message in err


def test_version_returns_0(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == EXIT_OK
    assert out.strip() == __version__


@pytest.mark.parametrize("subcommand", ["solve", "trace"])
@pytest.mark.parametrize("spec", ["n=12,m=30..50,seed=1", "n=12,m=30,seed=1,count=5"])
def test_single_instance_commands_reject_multi_instance_gen(capsys, subcommand, spec):
    code, out, err = run(capsys, subcommand, "--gen", spec)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and "single m and count=1" in err


def test_one_process_runs_each_command_as_alone(capsys, monkeypatch):
    # main reuses one argparse parser; each call must still behave as the
    # same command run alone, in its own process
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
    env = {**os.environ, "PYTHONPATH": str(Path(satprop.__file__).parents[1])}
    commands = [
        (["--bogus"], EXIT_PARSE),
        (["--help"], EXIT_OK),
        (["--version"], EXIT_OK),
        (["solve", "--gen", "n=12,m=51,seed=1", "--oracle", "on"], None),
        # a completeness miss: no empty cube on an UNSAT instance
        (["solve", "--gen", "n=10,m=35,seed=8005071", "--oracle", "on"], EXIT_DISAGREE),
        (["verify", "--quick"], EXIT_OK),
    ]
    for argv, want in commands:
        code, out, err = run(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "satprop.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
        assert want is None or code == want


def _load_tracer():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # perfbench's tracer wraps these names where the program looks them
    # up; a rename would break its traced runs
    tracer = _load_tracer()
    modules = {module for module, *_ in tracer.TARGETS}
    assert {"cli", "propagate"} <= modules
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"satprop.{module}"), attr))


def test_tracer_reads_what_each_command_returns(capsys):
    # the tracer also reads the wrapped functions' results (a build's
    # cubes, a fixpoint's stats, a graph's edges); one traced call per
    # command must run as usual and leave those counts set
    tracer = _load_tracer()
    spans = tracer.Tracer()
    uninstall = spans.install({module: importlib.import_module(f"satprop.{module}")
                               for module, *_ in tracer.TARGETS})
    try:
        codes = [main(argv.split()) for argv in (
            "solve --gen n=9,m=30,seed=6", "trace --gen n=9,m=30,seed=6",
            "bench --gen n=8,m=16..24..8,seed=2,count=2", "verify --quick")]
    finally:
        uninstall()
    capsys.readouterr()
    assert codes == [EXIT_OK] * 4
    metrics = spans.metrics(0.0, 0.0)
    assert metrics["clausal.cubes"] > 0
    assert metrics["propagate.edge_applications"] > 0


def test_out_degrees_are_counted_only_where_stats_are_read(capsys, monkeypatch):
    # a result counts the out-degrees `edge_applications` sums when its
    # stats are first read: trace, verify and bench read none (a bench
    # point reads only each result's passes and cells removed), solve reads
    # those of its one fixpoint
    counted, runs = [], []
    out_degrees, run_fixpoint = propagate._out_degrees, propagate.fixpoint

    def counting_out_degrees(nodes):
        counted.append(nodes)
        return out_degrees(nodes)

    def counting_fixpoint(*args, **kwargs):
        runs.append(args[0])
        return run_fixpoint(*args, **kwargs)

    monkeypatch.setattr(propagate, "_out_degrees", counting_out_degrees)
    monkeypatch.setattr(cli, "fixpoint", counting_fixpoint)
    assert run(capsys, "trace", "--gen", "n=400,m=1704,seed=1")[0] == EXIT_OK
    assert run(capsys, "verify", "--quick")[0] == EXIT_OK
    assert counted == []
    runs.clear()
    run(capsys, "solve", "--gen", "n=12,m=51,seed=1")
    assert len(counted) == len(runs) == 1
    counted.clear()
    runs.clear()
    run(capsys, "bench", "--gen", "n=12,m=42,seed=1,count=5")
    assert counted == [] and len(runs) == 5
    result = run_fixpoint(build_clausal_partition(gen_random_3sat(12, 42, seed=1)).state)
    stats = result.stats
    assert result.stats is stats and len(counted) == 1


# --- solve --------------------------------------------------------------------

def test_solve_single_clause(capsys, tmp_path):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 3 1\n-1 2 -3 0\n")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--oracle", "on")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["engine_verdict"] == "no_empty_cube"
    assert report["cubes"] == [{"triple": [1, 2, 3], "mask": "0xDF"}]
    assert report["oracle_verdict"] == "sat"
    assert report["oracle_agrees"] is True
    assert report["assignment_verified"] is True


def test_solve_unreadable_input_exit_2(capsys, tmp_path):
    for path in (tmp_path / "no-such.cnf", tmp_path):
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("subcommand", ["solve", "trace"])
def test_undecodable_stdin_exit_2(capsys, monkeypatch, subcommand):
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    code, out, err = run(capsys, subcommand, "--input", "-")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: cannot read -: 'utf-8' codec can't decode")


@pytest.mark.parametrize("subcommand", ["solve", "trace"])
def test_closed_stdin_exit_2(capsys, monkeypatch, subcommand):
    # a process started with fd 0 closed has sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, subcommand, "--input", "-")
    assert (code, out, err) == (EXIT_PARSE, "", "error: cannot read -: stdin is closed\n")


def test_input_file_is_read_as_utf8_under_any_locale(tmp_path):
    # a byte-order mark and a non-ASCII comment, read under the C locale
    # (an ASCII preferred encoding) and under UTF-8 mode
    (tmp_path / "bom.cnf").write_bytes("\ufeffc café\np cnf 3 1\n1 -2 3 0\n".encode())
    env = {**os.environ, "PYTHONPATH": str(Path(satprop.__file__).parents[1])}
    runs = [subprocess.run(
        [sys.executable, "-m", "satprop.cli", "solve", "--input", "bom.cnf"],
        capture_output=True, text=True, cwd=tmp_path, env={**env, **locale})
        for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                       {"PYTHONUTF8": "1"})]
    assert [(r.returncode, r.stderr) for r in runs] == [(EXIT_OK, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["assignment_verified"] is True


def test_stdin_is_decoded_as_a_file_is(tmp_path):
    # a byte-order mark, a UTF-8 comment and CRLF line ends, on a stdin
    # configured as latin-1; the header undercounts, so a diagnostic names
    # a line
    data = "\ufeffc café\r\np cnf 3 1\r\n1 -2 3 0\r\n-1 2 0\r\n".encode()
    (tmp_path / "bom.cnf").write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(Path(satprop.__file__).parents[1]),
           "PYTHONIOENCODING": "latin-1"}
    runs = [subprocess.run(
        [sys.executable, "-m", "satprop.cli", "solve", "--input", path],
        input=data, capture_output=True, cwd=tmp_path, env=env)
        for path in ("bom.cnf", "-")]
    from_file, from_stdin = [
        (r.returncode, r.stdout.replace(b'"bom.cnf"', b'"<stdin>"'),
         r.stderr.replace(b"bom.cnf:", b"<stdin>:")) for r in runs]
    assert from_stdin == from_file
    assert from_file[0] == EXIT_OK and b"<stdin>:5:" in from_file[2]


def test_solve_satlib_file_with_trailer(capsys):
    path = Path(__file__).parent / "data" / "satlib_trailer.cnf"
    code, out, err = run(capsys, "solve", "--input", str(path), "--oracle", "on")
    assert code == EXIT_OK
    assert err == ""
    report = json.loads(out)
    assert report["instance"]["num_clauses"] == 4
    assert report["oracle_verdict"] == "sat"
    assert report["assignment_verified"] is True


def test_solve_unsat_exit_code(capsys, tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT_CNF)
    code, out, _ = run(capsys, "solve", "--input", str(path), "--oracle", "on")
    assert code == EXIT_UNSAT
    report = json.loads(out)
    assert report["engine_verdict"] == "unsat_by_empty_cube"
    assert report["empty_triple"] == [1, 2, 3]
    assert report["oracle_agrees"] is True


def test_solve_oracle_off_reports_null(capsys, tmp_path):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--oracle", "off")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["oracle_verdict"] is None
    assert report["oracle_agrees"] is None


def test_solve_notes_a_skipped_oracle(capsys):
    n = oracle.DECIDE_LIMIT + 1
    code, out, err = run(capsys, "solve", "--gen", f"n={n},m=40,seed=1", "--oracle", "on")
    assert code in (EXIT_OK, EXIT_UNSAT)
    assert json.loads(out)["oracle_verdict"] is None
    assert err == (f"oracle skipped: {n} variables exceeds decide limit "
                   f"{oracle.DECIDE_LIMIT}\n")


def test_solve_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 4 1\n1 2 3 4 0\n")
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == EXIT_PARSE
    assert "3SAT-only" in err


@pytest.mark.parametrize("text", [
    "p cnf 10 1\n1_0 2 3 0\n",
    "p cnf 3 1\n1 2 3 0_0\n",
    "p cnf 3 1\n\uff11 2 3 0\n",
    "p cnf 3 1\n\u0663 -2 1 0\n",
    "p cnf 1_0 1\n1 2 3 0\n",
], ids=["underscore-literal", "underscore-zero", "fullwidth", "arabic-indic",
        "underscore-count"])
def test_solve_non_ascii_decimal_exit_2(capsys, tmp_path, text):
    # int() reads each bad token; DIMACS does not, and the error is at it
    path = tmp_path / "bad.cnf"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == EXIT_PARSE and out == ""
    first = parse_dimacs(text).diagnostics[0]
    assert first.severity == "error" and str(first) in err


def test_solve_trivially_unsat(capsys, tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 3 1\n0\n")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--oracle", "on")
    assert code == EXIT_UNSAT
    assert json.loads(out)["engine_verdict"] == "trivially_unsat"


def test_solve_deterministic_output(capsys, tmp_path):
    argv = ["solve", "--gen", "n=10,m=35,seed=3", "--oracle", "on"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_solve_writes_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--gen", "n=3,m=1,seed=1",
                       "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(out_path.read_text())["tool"] == "satprop"


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "n=9,m=30,seed=6", "--out"],
    ["trace", "--gen", "n=9,m=30,seed=6", "--out"],
    ["bench", "--gen", "n=8,m=16,seed=2,count=2", "--out"],
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


class _FullStdout(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "n=9,m=30,seed=6"],
    ["trace", "--gen", "n=9,m=30,seed=6"],
    ["bench", "--gen", "n=8,m=16,seed=2,count=2"],
    ["verify", "--quick"],
])
def test_unwritable_stdout_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err == f"error: cannot write <stdout>: [Errno {errno.ENOSPC}] " \
                  f"{os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "n=9,m=30,seed=6"],
    ["trace", "--gen", "n=9,m=30,seed=6"],
    ["bench", "--gen", "n=8,m=16,seed=2,count=2"],
])
def test_out_overwrites_longer_file_and_writes_to_devices(capsys, tmp_path, argv):
    # the report is written over the old bytes in place and a longer file
    # then cut to the report's length; a device such as /dev/null is not cut
    code, printed, _ = run(capsys, *argv)
    assert code == EXIT_OK
    path = tmp_path / "report.json"
    for size in (65536, len(printed) + 1, len(printed), len(printed) - 1, 0):
        path.write_bytes(b"x" * size)
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert path.read_bytes() == printed.encode()
    code, out, err = run(capsys, *argv, "--out", os.devnull)
    assert (code, out, err) == (EXIT_OK, "", "")


@pytest.mark.parametrize("source", ["gen", "unsat", "trivial"])
def test_solve_timings_block(capsys, tmp_path, source):
    inputs = {"unsat": UNSAT_CNF, "trivial": "p cnf 3 1\n0\n"}
    if source == "gen":
        argv = ["solve", "--gen", "n=10,m=35,seed=3", "--oracle", "on"]
    else:
        path = tmp_path / f"{source}.cnf"
        path.write_text(inputs[source])
        argv = ["solve", "--input", str(path), "--oracle", "on"]
    plain_code, plain, _ = run(capsys, *argv)
    code, timed, _ = run(capsys, *argv, "--timings")
    assert code == plain_code
    report = json.loads(timed)
    timings = report.pop("timings")
    assert set(timings) == {"parse", "build", "oracle", "fixpoint", "extract"}
    for seconds in timings.values():
        assert isinstance(seconds, float) and seconds >= 0
    assert "timings" not in json.loads(plain)
    assert write_report(report) == plain


# --- verify -------------------------------------------------------------------

def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == EXIT_OK
    assert out == (
        "PASS algebra-axioms\n"
        "PASS bc-vs-join-oracle\n"
        "PASS project-lift-impose-laws\n"
        "PASS uni-bi-confluence\n"
        "PASS soundness-vs-projections\n"
    )


def test_verify_full_passes(capsys):
    # the whole battery, every mask pair of both layouts, as the README runs it
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert out == (
        "PASS algebra-axioms\n"
        "PASS bc-vs-join-oracle\n"
        "PASS project-lift-impose-laws\n"
        "PASS uni-bi-confluence\n"
        "PASS soundness-vs-projections\n"
    )


def test_verify_checks_the_bc_installed_in_bitspace(capsys, monkeypatch):
    # verify checks the bc that bitspace holds when it runs; this one skips
    # the meet step on p's side.  The first failing pair pins which pairs are
    # checked, and in what order
    monkeypatch.setattr(bitspace, "bc", lambda p, q: (bitspace.bc_uni(p, q), q))
    assert run(capsys, "verify", "--quick") == (1, (
        "PASS algebra-axioms\n"
        "FAIL bc-vs-join-oracle: bc mismatch on overlap2 masks (0xF2, 0x17)\n"
        "PASS project-lift-impose-laws\n"
        "PASS uni-bi-confluence\n"
        "PASS soundness-vs-projections\n"), "")


def test_verify_mutated_bc_fails(capsys, monkeypatch):
    # the mirror fault: p is returned as it came, only q is narrowed.  The
    # oracle compares both outputs, so the same first pair fails
    monkeypatch.setattr(bitspace, "bc", lambda p, q: (p, bitspace.bc_uni(q, p)))
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 1
    assert out == (
        "PASS algebra-axioms\n"
        "FAIL bc-vs-join-oracle: bc mismatch on overlap2 masks (0xF2, 0x17)\n"
        "PASS project-lift-impose-laws\n"
        "PASS uni-bi-confluence\n"
        "PASS soundness-vs-projections\n"
    )


_fixpoint = propagate.fixpoint
_bidirectional = propagate.bidirectional_fixpoint
_worklist = propagate._worklist


def _drop_lowest_green(result):
    """`result` with the lowest GREEN cell of every non-empty cube removed."""
    cubes = result.fixpoint.cubes
    for triple, mask in cubes.items():
        cubes[triple] = mask & (mask - 1)
    return result


def _random_orders_drop_a_cell(state, order_seed=None, **kwargs):
    result = _fixpoint(state, order_seed, **kwargs)
    return result if order_seed is None else _drop_lowest_green(result)


def _keeps_input_state(state, *args, **kwargs):
    result = _fixpoint(state, *args, **kwargs)
    result.fixpoint = state
    return result


def _reports_last_empty_cube(graph, masks, early_exit, *args):
    """`_worklist` reporting the last all-RED cube of a closed run, not the
    first."""
    *counts, empty = _worklist(graph, masks, early_exit, *args)
    if not early_exit and 0 in masks:
        empty = len(masks) - 1 - masks[::-1].index(0)
    return *counts, empty


def _claim_empty_cube(result):
    """`result` reporting its first cube as all-RED."""
    result.empty_triple = result.fixpoint.triples()[0]
    return result


def test_bc_check_sees_a_bc_installed_after_import(monkeypatch):
    # a bc that skips the meet step on p's side, installed where the check
    # looks bc up
    monkeypatch.setattr(bitspace, "bc", lambda p, q: (bitspace.bc_uni(p, q), q))
    assert checks.bc_matches_join("overlap2", 0xF2, 0x17) == (
        "bc mismatch on overlap2 masks (0xF2, 0x17)")


@pytest.mark.parametrize("fakes, failure", [
    ({"ws": lambda a, b: a},
     "algebra-axioms: commutativity violated at (Color.RED, Color.GREEN)"),
    ({"lift": lambda p, target: Partition(tuple(target), 0)},
     "project-lift-impose-laws: lift(project(p)) lost GREEN cells of p"),
    ({"lift": lambda p, target: Partition.all_green(tuple(target))},
     "project-lift-impose-laws: project(lift(q)) != q"),
    ({"impose": lambda p, q: Partition.all_green(p.coords)},
     "project-lift-impose-laws: impose produced GREEN cells outside p"),
    ({"bidirectional_fixpoint": lambda *a, **k: _drop_lowest_green(_bidirectional(*a, **k))},
     "uni-bi-confluence: uni/bi fixpoint mismatch on seed 4000"),
    ({"fixpoint": _random_orders_drop_a_cell},
     "uni-bi-confluence: confluence violated on seed 4000, order 0"),
    ({"fixpoint": lambda *a, **k: _drop_lowest_green(_fixpoint(*a, **k)),
      "bidirectional_fixpoint": lambda *a, **k: _drop_lowest_green(_bidirectional(*a, **k))},
     "soundness-vs-projections: soundness violated on seed 9000 triple (1, 2, 5)"),
    ({"fixpoint": lambda *a, **k: _claim_empty_cube(_fixpoint(*a, **k)),
      "bidirectional_fixpoint": lambda *a, **k: _claim_empty_cube(_bidirectional(*a, **k))},
     "soundness-vs-projections: false UNSAT on seed 9000"),
    ({"fixpoint": _keeps_input_state},
     "uni-bi-confluence: uni/bi fixpoint mismatch on seed 4003"),
    ({"_worklist": _reports_last_empty_cube},
     "uni-bi-confluence: uni/bi fixpoint mismatch on seed 4032"),
])
def test_verify_reports_each_broken_property(capsys, monkeypatch, fakes, failure):
    # each fake breaks one property; bind it wherever satprop looks the name up
    for name, fake in fakes.items():
        for module in list(sys.modules.values()):
            if module.__name__.startswith("satprop") and hasattr(module, name):
                monkeypatch.setattr(module, name, fake)
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 1
    assert f"FAIL {failure}" in out.splitlines()
    assert out.count("PASS") == 4


# --- bench --------------------------------------------------------------------

def test_bench_deterministic_and_sound(capsys):
    argv = ["bench", "--gen", "n=8,m=16..32..8,seed=2,count=5", "--oracle", "on"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert [p["m"] for p in doc["points"]] == [16, 24, 32]
    for point in doc["points"]:
        assert point["soundness_violations"] == 0
        assert point["oracle_skipped"] == 0
        total = point["agree"] + point["completeness_misses"]
        assert total == point["count"]
    assert code1 == EXIT_OK


def test_bench_notes_a_skipped_oracle_once(capsys):
    n = oracle.DECIDE_LIMIT + 1
    code, out, err = run(capsys, "bench", "--gen", f"n={n},m=40..80..40,seed=1,count=3",
                         "--oracle", "on")
    assert code == EXIT_OK
    assert [p["oracle_skipped"] for p in json.loads(out)["points"]] == [3, 3]
    assert err == (f"oracle skipped: {n} variables exceeds decide limit "
                   f"{oracle.DECIDE_LIMIT}\n")
    # auto skips without a note
    code, out, err = run(capsys, "bench", "--gen", f"n={n},m=40,seed=1,count=3")
    assert [p["oracle_skipped"] for p in json.loads(out)["points"]] == [3]
    assert err == ""


def test_bench_counterexamples_reproduce_exit_20(capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "--gen",
                       "n=8,m=30..40..5,seed=4,count=10", "--oracle", "on")
    doc = json.loads(out)
    for point in doc["points"]:
        for ce in point["counterexamples"]:
            path = tmp_path / f"ce{ce['seed']}.cnf"
            path.write_text(ce["dimacs"])
            rc, _, _ = run(capsys, "solve", "--input", str(path),
                           "--oracle", "on")
            assert rc == EXIT_DISAGREE


def test_bench_tallies_false_unsat(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fixpoint",
                        lambda *a, **k: _claim_empty_cube(_fixpoint(*a, **k)))
    code, out, _ = run(capsys, "bench", "--gen", "n=8,m=16..40..12,seed=2,count=5",
                       "--oracle", "on")
    assert code == EXIT_DISAGREE
    points = json.loads(out)["points"]
    for point in points:
        assert point["engine_unsat"] == point["count"]
        assert point["soundness_violations"] == point["oracle_sat"]
        ces = point["counterexamples"]
        assert [ce["kind"] for ce in ces] == ["false_unsat"] * point["oracle_sat"]
        for ce in ces:
            want = gen_random_3sat(8, point["m"], ce["seed"])
            assert parse_dimacs(ce["dimacs"]).instance == want
    assert sum(p["soundness_violations"] for p in points) > 0


def test_bench_random_order_records_its_seed(capsys):
    # a random-order sweep can be run again from its own document
    argv = ["bench", "--gen", "n=8,m=16..24..8,seed=2,count=3", "--oracle", "off"]
    assert "seeds" not in json.loads(run(capsys, *argv)[1])
    _, out, _ = run(capsys, *argv, "--order", "random:7")
    doc = json.loads(out)
    assert (doc["order"], doc["seeds"]) == ("random", {"order_seed": 7})
    order = f"{doc['order']}:{doc['seeds']['order_seed']}"
    assert run(capsys, *argv, "--order", order)[1] == out


def test_bench_timings_add_wall_time_only(capsys):
    # each point gains the seconds of its fixpoint calls and of its oracle
    # calls, which read 0.0 when the oracle does not run, and nothing else
    for mode in ("off", "on"):
        argv = ["bench", "--gen", "n=8,m=16..24..8,seed=2,count=3", "--oracle", mode]
        _, plain, _ = run(capsys, *argv)
        code, timed, _ = run(capsys, *argv, "--timings")
        assert code == EXIT_OK
        plain_points, timed_points = json.loads(plain)["points"], json.loads(timed)["points"]
        assert len(timed_points) == len(plain_points) == 2
        for without, with_timings in zip(plain_points, timed_points):
            assert not {"wall_time_s", "oracle_time_s"} & set(without)
            wall = with_timings.pop("wall_time_s")
            assert isinstance(wall, float) and wall >= 0
            oracle_time = with_timings.pop("oracle_time_s")
            assert isinstance(oracle_time, float)
            assert oracle_time > 0 if mode == "on" else oracle_time == 0.0
            assert with_timings == without


def _can_prune(mask):
    """Two RED cells of `mask` differ in one variable."""
    red = [cell for cell in range(8) if not mask >> cell & 1]
    return any((a ^ b).bit_count() == 1 for a in red for b in red)


def test_bench_counts_prunable_cubes(capsys):
    # a cube can prune only if it has at most 6 GREEN cells, that is, if its
    # triple hosts two distinct clauses; n=6 has only 20 triples, so most
    # instances have some
    _, out, _ = run(capsys, "bench", "--gen", "n=6,m=2..16..7,seed=3,count=4",
                    "--oracle", "off")
    points = json.loads(out)["points"]
    for point_index, point in enumerate(points):
        shared_hosts = prunable = 0
        for i in range(point["count"]):
            inst = gen_random_3sat(6, point["m"], instance_seed(3, point_index, i))
            hosts = [tuple(map(abs, clause)) for clause in set(inst.clauses)]
            shared_hosts += sum(hosts.count(t) >= 2 for t in set(hosts))
            cubes = build_clausal_partition(inst).state.cubes
            prunable += sum(_can_prune(mask) for mask in cubes.values())
        assert point["prunable_cubes"] == prunable <= shared_hosts
        assert "informative_cubes" not in point
    assert [p["prunable_cubes"] > 0 for p in points] == [False, True, True]


@pytest.mark.parametrize("order, order_seed", [("fifo", None), ("random:7", 7)])
def test_bench_totals_are_sums_of_the_fixpoint_stats(capsys, order, order_seed):
    # a point's totals are read off each result without its stats, and must
    # equal the stats' sums, at points where the engine refutes some of the
    # instances and an early exit cuts a run short
    _, out, _ = run(capsys, "bench", "--gen", "n=12,m=60..72..12,seed=1,count=6",
                    "--oracle", "off", "--order", order)
    points = json.loads(out)["points"]
    for point_index, point in enumerate(points):
        passes = cells_removed = 0
        for i in range(point["count"]):
            inst = gen_random_3sat(12, point["m"], instance_seed(1, point_index, i))
            stats = propagate.fixpoint(build_clausal_partition(inst).state,
                                       order_seed=order_seed).stats
            passes += stats.passes
            cells_removed += stats.cells_removed
        assert (point["total_passes"], point["total_cells_removed"]) == (passes, cells_removed)
    assert all(0 < point["engine_unsat"] < point["count"] for point in points)


def test_bench_requires_gen(capsys):
    code, _, err = run(capsys, "bench")
    assert code == EXIT_PARSE
    assert err == "error: bench requires --gen\n"


# --- trace --------------------------------------------------------------------

def test_trace_no_edges_empty_records(capsys):
    code, out, _ = run(capsys, "trace", "--gen", "n=3,m=1,seed=1")
    assert code == EXIT_OK
    assert json.loads(out)["records"] == []


def test_trace_file_with_empty_clause(capsys, tmp_path):
    path, out_path = tmp_path / "empty.cnf", tmp_path / "trace.json"
    path.write_text("p cnf 3 2\n1 2 3 0\n0\n")
    code, out, err = run(capsys, "trace", "--input", str(path), "--out", str(out_path))
    assert code == EXIT_UNSAT
    assert out == ""
    assert err == (
        f"{path}:3:1: warning: empty clause: instance is trivially unsatisfiable\n"
        f"{path}: trivially unsatisfiable, nothing to trace\n")
    assert not out_path.exists()


def test_trace_two_cube_transition(capsys, tmp_path):
    path = tmp_path / "two.cnf"
    # p on (1,2,3) RED at cells 0 and 1; q all-GREEN needs a clause on
    # (2,3,4): pick one then it prunes nothing back
    path.write_text("p cnf 4 3\n1 2 3 0\n-1 2 3 0\n2 3 4 0\n")
    code, out, _ = run(capsys, "trace", "--input", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    transitions = {
        (tuple(r["edge"][0]), tuple(r["edge"][1])): (r["before"], r["after"])
        for r in doc["records"]
    }
    assert transitions[((1, 2, 3), (2, 3, 4))] == ("0xFE", "0xEE")


@pytest.mark.parametrize("order", ["fifo", "random:3"])
def test_trace_document_agrees_with_solve_report(capsys, order):
    # both come from one run's change log: its records are the changes the
    # report counts, and its final cubes the report's
    gen = ["--gen", "n=9,m=30,seed=6", "--order", order]
    _, trace, _ = run(capsys, "trace", *gen)
    _, report, _ = run(capsys, "solve", *gen, "--oracle", "off")
    trace, report = json.loads(trace), json.loads(report)
    records, stats = trace["records"], report["stats"]
    assert records
    assert trace["final_cubes"] == report["cubes"]
    assert len(records) == stats["applications_changed"]
    assert sum(r["cells_removed"] for r in records) == stats["cells_removed"]


def test_trace_replay_reproduces_fixpoint(capsys):
    code, out, _ = run(capsys, "trace", "--gen", "n=9,m=30,seed=6")
    doc = json.loads(out)
    final = {}
    for rec in doc["records"]:
        final[tuple(rec["edge"][1])] = rec["after"]
    for cube in doc["final_cubes"]:
        triple = tuple(cube["triple"])
        if triple in final:
            assert final[triple] == cube["mask"]


@pytest.mark.parametrize("order", ["fifo", "random:3"])
def test_trace_documents_round_trip(capsys, order):
    # n=20, m=160, seed 7000 is refuted after 328 change-making applications
    gen = ["--gen", "n=20,m=160,seed=7000", "--order", order]
    solve_code, report, _ = run(capsys, "solve", *gen, "--oracle", "off")
    trace_code, trace, _ = run(capsys, "trace", *gen)
    assert solve_code == trace_code == EXIT_UNSAT
    for text in (report, trace):
        doc = json.loads(text)
        assert write_report(doc) == text
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    assert len(json.loads(trace)["records"]) > 100
