"""Golden differential test of the oracle's SAT decision.

Every case decides a seeded instance with `oracle.brute_force_sat` and
hashes the verdict: whether it is satisfiable, and the witness as its
sorted (variable, value) items.  The witness is the model the search
found, including the values that refuted branches left behind, so the
digests pin the search tree as well as the verdict.  The digests in
`data/oracle_golden.json` were recorded from the DPLL that copied the
clause list for every literal it set; a rewrite of the search must
reproduce them byte for byte.  To re-record them against the oracle on the
path:

    PYTHONPATH=src python tests/test_oracle_golden.py --record

which prints how many digests changed in each family of cases, a family
being a key's text before its first comma; a case added or removed counts
as changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from test_oracle import _decide_cases, _xorsat

from satprop.clausal import Instance
from satprop.dimacs import gen_random_3sat
from satprop.oracle import brute_force_sat

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden.json"


def mixed_cnf(n: int, m: int, seed: int) -> Instance:
    """m clauses of 1, 2 or 3 distinct variables (3 most often), each
    literal positive with chance 1/2; after the first, a clause repeats an
    earlier one with chance 1/4."""
    rng = random.Random(seed)
    clauses: list[tuple[int, ...]] = []
    for _ in range(m):
        if clauses and rng.random() < 0.25:
            clauses.append(rng.choice(clauses))
            continue
        chosen = sorted(rng.sample(range(1, n + 1), rng.choice((3, 3, 3, 2, 2, 1))))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Instance(n, tuple(clauses))


def planted_3sat(n: int, m: int, seed: int) -> Instance:
    """m random 3-clauses, as `gen_random_3sat` draws them, that a hidden
    random assignment satisfies: satisfiable at any ratio."""
    rng = random.Random(seed)
    hidden = [None] + [rng.random() < 0.5 for _ in range(n)]
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < m:
        chosen = sorted(rng.sample(range(1, n + 1), 3))
        clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return Instance(n, tuple(clauses))


def cases():
    """(key, instance) of every golden case."""
    for i, inst in enumerate(_decide_cases()):
        yield f"decide,{i},n={inst.num_vars},m={len(inst.clauses)}", inst
    for equations in (10, 20):
        for seed in range(30):
            yield f"xorsat,n=16,equations={equations},seed={seed}", _xorsat(
                16, equations, seed)[0]
    for n in (6, 12, 20, 30):
        for ratio in (1.0, 2.0, 3.0, 4.0):
            for seed in range(6):
                yield (f"mixed,n={n},ratio={ratio},seed={seed}",
                       mixed_cnf(n, round(n * ratio), seed))
    for n in (25, 28, 30):
        for ratio in (3.0, 4.26, 5.0, 6.0):
            for seed in range(5):
                yield (f"3sat,n={n},ratio={ratio},seed={seed}",
                       gen_random_3sat(n, round(n * ratio), seed))
    for seed in range(3):  # bitsets over m=200 clauses span several words
        yield f"planted,n=30,m=200,seed={seed}", planted_3sat(30, 200, seed)
    yield "no-clauses,n=0", Instance(0, ())
    yield "no-clauses,n=5", Instance(5, ())
    yield "empty-clause,n=3", Instance(3, ((1, 2, 3),), has_empty_clause=True)


def digest(inst: Instance) -> str:
    verdict = brute_force_sat(inst)
    witness = None if verdict.witness is None else sorted(verdict.witness.items())
    text = json.dumps([verdict.satisfiable, witness], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests() -> dict[str, str]:
    return {key: digest(inst) for key, inst in cases()}


def test_oracle_matches_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = case_digests()
    assert sorted(got) == sorted(want)
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, f"{len(differing)} cases differ, first: {differing[:5]}"


def test_models_over_several_machine_words_satisfy_the_instance():
    # 200 clauses: each bitset of the search spans four 64-bit words; the
    # golden digests pin these models, which no truth table over 2^30 cells
    # could check
    for seed in range(3):
        inst = planted_3sat(30, 200, seed)
        verdict = brute_force_sat(inst)
        assert verdict.satisfiable and inst.evaluate(verdict.witness)
        assert set(verdict.witness) == set(range(1, 31))


def test_golden_cases_cover_both_verdicts_and_every_clause_width():
    verdicts: dict[str, set[bool]] = {}
    widths = set()
    for key, inst in cases():
        family = key.split(",")[0]
        verdicts.setdefault(family, set()).add(brute_force_sat(inst).satisfiable)
        widths.update(map(len, inst.clauses))
    assert widths == {1, 2, 3}
    for family in ("decide", "xorsat", "mixed", "3sat"):
        assert verdicts[family] == {False, True}, family
    assert verdicts["planted"] == {True}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = case_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    keys = digests.keys() | old.keys()
    total = Counter(key.split(",")[0] for key in keys)
    changed = Counter(key.split(",")[0] for key in keys
                      if old.get(key) != digests.get(key))
    print(f"{GOLDEN.name}: {sum(changed.values())} of {len(keys)} digests changed")
    for family in sorted(total):
        print(f"  {family}: {changed[family]} of {total[family]} digests changed")
