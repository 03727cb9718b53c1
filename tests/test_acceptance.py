"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2, 4, 5 and 6 run the property checks of `satprop.checks`, the
functions `satprop verify` runs, on this suite's own larger instance
families (seeds 40_000+, 50_000+, 60_000+) and within its own time bounds.
Criteria 3 and 7-9 have no `verify` counterpart and are written out here.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import json
import time

from satprop import checks, cli, oracle
from satprop.bitspace import Partition, assemble
from satprop.clausal import build_clausal_partition
from satprop.dimacs import emit_dimacs, gen_random_3sat, parse_dimacs
from satprop.propagate import fixpoint


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_algebra_axioms():
    start = time.perf_counter()
    detail = checks.algebra_laws()
    elapsed = time.perf_counter() - start
    report("1-algebra-axioms", detail is None and elapsed < 1.0,
           f"{elapsed:.3f} s" + (f", {detail}" if detail else ""))


def test_criterion_2_bc_equals_join_oracle():
    start = time.perf_counter()
    mismatches = sum(
        checks.bc_matches_join(layout, ma, mb) is not None
        for layout in checks.LAYOUTS for ma in range(256) for mb in range(256))
    elapsed = time.perf_counter() - start
    report(
        "2-bc-vs-join-oracle",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches over 131072 pairs, {elapsed:.1f} s",
    )


def test_criterion_3_whole_instance_equivalence():
    mismatches = 0
    for i in range(100):
        n = 8 + (i % 7)  # 8..14 variables, all well under the 16-var cap
        m = int(n * (1.0 + (i % 8) * 0.5))
        inst = gen_random_3sat(n, m, seed=30_000 + i)
        build = build_clausal_partition(inst)
        assembled = assemble(
            (Partition(t, mask) for t, mask in build.state.cubes.items()), "BS")
        table = oracle.conjunction_truth_table(inst)
        if table.coords != assembled.coords:
            from satprop.bitspace import project
            assembled = project(assembled, table.coords)
        if assembled != table:
            mismatches += 1
    report("3-whole-instance-equivalence", mismatches == 0,
           f"{mismatches} mismatches over 100 instances")


def test_criterion_4_soundness_no_false_unsat():
    start = time.perf_counter()
    violations = 0
    empty_verdicts = 0
    for i in range(500):
        n = 12 + (i % 9)  # 12..20
        ratio = 1.0 + (i % 11) * 0.5  # 1.0..6.0
        m = int(n * ratio)
        inst = gen_random_3sat(n, m, seed=40_000 + i)
        build = build_clausal_partition(inst)
        result = fixpoint(build.state, early_exit=False)
        empty_verdicts += result.empty_triple is not None
        violations += checks.sound(inst, result, f"seed {40_000 + i}") is not None
    elapsed = time.perf_counter() - start
    report(
        "4-soundness",
        violations == 0 and elapsed < 300.0,
        f"{violations} violations over 500 instances "
        f"({empty_verdicts} empty-cube verdicts), {elapsed:.1f} s",
    )


def test_criterion_5_confluence():
    violations = 0
    for i in range(50):
        n = 9 + (i % 5)
        m = int(n * (2.0 + (i % 5)))
        inst = gen_random_3sat(n, m, seed=50_000 + i)
        build = build_clausal_partition(inst)
        violations += checks.uni_bi_confluence(
            build.state, f"seed {50_000 + i}", range(4)) is not None
    report("5-confluence", violations == 0,
           f"{violations} violations over 50 instances x 5 orders")


def test_criterion_6_uni_equals_bi():
    violations = 0
    for i in range(100):
        n = 9 + (i % 6)
        m = int(n * (1.5 + (i % 7) * 0.5))
        inst = gen_random_3sat(n, m, seed=60_000 + i)
        build = build_clausal_partition(inst)
        violations += checks.uni_bi_confluence(build.state, f"seed {60_000 + i}") is not None
    report("6-uni-equals-bi", violations == 0,
           f"{violations} mismatches over 100 instances")


def test_criterion_7_termination_bound():
    violations = 0
    for i in range(100):
        n = 10 + (i % 8)
        m = int(n * (1.0 + (i % 10) * 0.5))
        inst = gen_random_3sat(n, m, seed=70_000 + i)
        build = build_clausal_partition(inst)
        for kwargs in [{}, {"early_exit": False},
                       {"order_seed": i}]:
            result = fixpoint(build.state, **kwargs)
            if result.stats.applications_changed > 8 * len(build.state.cubes):
                violations += 1
    report("7-termination-bound", violations == 0,
           f"{violations} violations over 300 runs")


def test_criterion_8_claim_audit(capsys, tmp_path):
    argv = ["bench", "--gen", "n=10,m=10..60..5,seed=8,count=20",
            "--oracle", "on"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    ok = out1 == out2 and code1 == code2 == 0
    doc = json.loads(out1)
    misses = 0
    for point in doc["points"]:
        ok &= point["soundness_violations"] == 0
        for ce in point["counterexamples"]:
            misses += 1
            path = tmp_path / f"ce{ce['seed']}.cnf"
            path.write_text(ce["dimacs"])
            rc = cli.main(["solve", "--input", str(path), "--oracle", "on"])
            capsys.readouterr()
            ok &= rc == cli.EXIT_DISAGREE
    with capsys.disabled():
        report("8-claim-audit", ok,
               f"deterministic table, {misses} completeness misses all "
               f"reproduced with exit 20")


MALFORMED_FIXTURES = [
    ("1 2 0\n", 1),                      # missing header
    ("p cnf 4 1\n1 2 3 4 0\n", 2),       # too wide
    ("p cnf 2 1\n1 9 0\n", 2),           # literal out of range
    ("p cnf 3 1\n1 2 3\n", 2),           # unterminated clause
    ("p cnf 3 1\np cnf 3 1\n1 0\n", 2),  # duplicate header
    ("p cnf x 1\n1 0\n", 1),             # non-numeric header
]


def test_criterion_9_parser():
    ok = True
    for seed in range(50):
        inst = gen_random_3sat(4 + seed % 10, 3 * seed % 37, seed=seed)
        ok &= parse_dimacs(emit_dimacs(inst)).instance == inst
    for text, want_line in MALFORMED_FIXTURES:
        result = parse_dimacs(text)
        errors = result.errors
        ok &= result.instance is None
        ok &= any(e.line == want_line for e in errors)
    report("9-parser", ok)
