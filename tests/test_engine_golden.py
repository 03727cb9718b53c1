"""Golden differential test of the propagation engine.

Every case runs the engine on a seeded instance and hashes what it
returned: the verdict, the four stats, the fixpoint masks and the trace
records for `fixpoint` under three orders, with early exit on and off; and
the `extract_assignment` result.  The digests in `data/engine_golden.json`
cover random 3SAT and were recorded from the engine that built a
`Partition` per edge application; those in
`data/engine_golden_short.json` cover random CNF with 1- and 2-clauses,
whose padding makes u1 a hub held by most cubes, and were recorded from
the engine that applied a cube's whole block of out-edges.  In both, the
random-order digests were re-recorded when random order became shuffled
passes of cubes, where it had applied shuffled single edges.  A rewrite of
the engine must reproduce both byte for byte.  On the same instances, the
two-sided sweep `bidirectional_fixpoint` must reach the masks and the
empty cube of the closed FIFO fixpoint.  To re-record the digests against
the engine on the path:

    PYTHONPATH=src python tests/test_engine_golden.py --record

which prints, per file, how many digests changed in each group of one
order and early-exit flag, and among the extraction digests.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from satprop.clausal import Instance, build_clausal_partition
from satprop.dimacs import gen_random_3sat
from satprop.propagate import (
    PropStats,
    _Graph,
    _out_degrees,
    bidirectional_fixpoint,
    extract_assignment,
    fixpoint,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.json"
GOLDEN_SHORT = GOLDEN.with_name("engine_golden_short.json")

SIZES = (6, 9, 12, 20, 40)
RATIOS = (2.0, 3.0, 4.26, 5.5)
SEEDS = range(6)
ORDER_SEEDS = (None, 0, 7)  # FIFO, then random order under two seeds

# The short-clause family: (name, clause widths drawn from, clause/variable
# ratios), at each of SHORT_SIZES and SHORT_SEEDS
SHORT_FAMILIES = (
    ("mixed", (3, 3, 3, 3, 3, 3, 2, 2, 2, 1), (1.0, 2.0, 3.0)),
    ("2cnf", (2,), (0.5, 1.0, 1.5)),
)
SHORT_SIZES = (12, 40)
SHORT_SEEDS = range(4)


def random_cnf(n: int, m: int, seed: int, widths: tuple[int, ...]) -> Instance:
    """m clauses, each on a width drawn from `widths` of distinct variables
    drawn from 1..n, each literal positive with chance 1/2.  A clause of
    width 1 or 2 is padded with the smallest ids it lacks, so almost every
    such cube holds u1."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        chosen = sorted(rng.sample(range(1, n + 1), rng.choice(widths)))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Instance(n, tuple(clauses))


def _masks(result) -> list:
    return [[list(t), result.fixpoint.cubes[t]] for t in result.fixpoint.triples()]


def _outcome(result) -> dict:
    stats = result.stats
    return {
        "empty_triple": result.empty_triple,
        "stats": [stats.passes, stats.edge_applications,
                  stats.applications_changed, stats.cells_removed],
        "masks": _masks(result),
    }


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _instances():
    """(key, instance, clausal state) of every random 3SAT golden instance."""
    for n in SIZES:
        for ratio in RATIOS:
            for seed in SEEDS:
                instance = gen_random_3sat(n, round(n * ratio), seed)
                state = build_clausal_partition(instance).state
                yield f"n={n},ratio={ratio},seed={seed}", instance, state


def _short_instances():
    """(key, instance, clausal state) of every short-clause golden instance."""
    for name, widths, ratios in SHORT_FAMILIES:
        for n in SHORT_SIZES:
            for ratio in ratios:
                for seed in SHORT_SEEDS:
                    instance = random_cnf(n, round(n * ratio), seed, widths)
                    state = build_clausal_partition(instance).state
                    yield f"{name},n={n},ratio={ratio},seed={seed}", instance, state


def case_digests(instances) -> dict[str, str]:
    """One digest per case of `instances`, keyed by instance, order and
    early-exit flag."""
    out: dict[str, str] = {}
    for key, instance, state in instances:
        for order_seed in ORDER_SEEDS:
            for early_exit in (True, False):
                result = fixpoint(state, order_seed, early_exit)
                record = _outcome(result)
                record["trace"] = [
                    [list(r.edge[0]), list(r.edge[1]), r.before, r.after,
                     r.cells_removed] for r in result.trace]
                label = "fifo" if order_seed is None else f"random:{order_seed}"
                out[f"{key},order={label},early_exit={early_exit}"] = _digest(record)
        base = fixpoint(state)
        extraction = (None if base.empty_triple is not None
                      else extract_assignment(base, instance))
        out[f"{key},extract"] = _digest(
            None if extraction is None else
            [sorted(extraction.assignment.items()), extraction.verified])
    return out


def _assert_matches(path, instances):
    want = json.loads(path.read_text())
    got = case_digests(instances)
    assert sorted(got) == sorted(want)
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, f"{len(differing)} cases differ, first: {differing[:5]}"


def test_engine_matches_golden_digests():
    _assert_matches(GOLDEN, _instances())


def test_engine_matches_short_clause_golden_digests():
    _assert_matches(GOLDEN_SHORT, _short_instances())


def _assert_sweep_matches(instances):
    """The two-sided sweep reaches the closed FIFO fixpoint on each of
    `instances`; returns how many there were."""
    count = 0
    for key, _, state in instances:
        want = fixpoint(state, early_exit=False)
        got = bidirectional_fixpoint(state)
        assert _masks(got) == _masks(want), key
        assert got.empty_triple == want.empty_triple, key
        count += 1
    return count


def test_bidirectional_matches_closed_fixpoint():
    assert _assert_sweep_matches(_instances()) == 120


def test_bidirectional_matches_closed_fixpoint_on_short_clauses():
    assert _assert_sweep_matches(_short_instances()) == 48


def test_fifo_builds_no_block(monkeypatch):
    # a 2-CNF whose cubes all hold u1, by padding or as a literal: its graph
    # is complete, yet FIFO only visits the cubes holding a separator that
    # its source restricts.  The stats are those of the engine that applied
    # whole blocks of out-edges.  Random order applies the same cubes in
    # shuffled passes and reaches the same masks.  Either order lists a
    # cube's neighbours only to take the edges past an empty cube off the
    # count, at most once a run
    calls = []
    neighbours = _Graph.neighbours

    def counted(graph, s):
        calls.append(s)
        return neighbours(graph, s)

    monkeypatch.setattr(_Graph, "neighbours", counted)
    state = build_clausal_partition(random_cnf(2000, 1600, 4, (2,))).state
    graph = _Graph(tuple(state.triples()))
    assert len(graph.nodes) == 1600 and sum(_out_degrees(graph.nodes)) == 2_558_400
    result = fixpoint(state)
    assert result.empty_triple is None
    assert result.stats == PropStats(2, 2_559_999, 7, 11)
    shuffled = fixpoint(state, order_seed=0)
    assert shuffled.empty_triple is None
    assert shuffled.fixpoint == result.fixpoint
    assert calls == []
    for _, _, state in [*_instances(), *_short_instances()]:
        for order_seed in (None, 0):
            for early_exit in (True, False):
                calls.clear()
                result = fixpoint(state, order_seed, early_exit)
                assert len(calls) <= 1
                if calls:
                    assert early_exit and result.empty_triple is not None


def _group(key: str) -> str:
    """The group of a digest key: its order and early-exit flag, or
    "extract"."""
    return "order=" + key.split(",order=")[1] if ",order=" in key else "extract"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    for path, instances in ((GOLDEN, _instances), (GOLDEN_SHORT, _short_instances)):
        old = json.loads(path.read_text()) if path.exists() else {}
        digests = case_digests(instances())
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        keys = digests.keys() | old.keys()
        total = Counter(map(_group, keys))
        changed = Counter(_group(key) for key in keys if old.get(key) != digests.get(key))
        print(f"{path.name}: {sum(changed.values())} of {len(keys)} digests changed")
        for group in sorted(total):
            print(f"  {group}: {changed[group]} of {total[group]}")
