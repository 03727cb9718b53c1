"""Golden differential test of the propagation engine.

Every case runs the engine on a seeded random 3SAT instance and hashes what
it returned: the verdict, the four stats, the fixpoint masks and the trace
records for `fixpoint` under three orders, with early exit on and off; and
the `extract_assignment` result.  The digests in `data/engine_golden.json`
were recorded from the engine that built a `Partition` per edge
application, so a rewrite of the engine must reproduce its results byte for
byte.  On the same instances, the two-sided sweep `bidirectional_fixpoint`
must reach the masks and the empty cube of the closed FIFO fixpoint.  To
re-record the digests against the engine on the path:

    PYTHONPATH=src python tests/test_engine_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from satprop.clausal import build_clausal_partition
from satprop.dimacs import gen_random_3sat
from satprop.propagate import bidirectional_fixpoint, extract_assignment, fixpoint

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.json"

SIZES = (6, 9, 12, 20, 40)
RATIOS = (2.0, 3.0, 4.26, 5.5)
SEEDS = range(6)
ORDER_SEEDS = (None, 0, 7)  # FIFO, then random order under two seeds


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
    """(key, instance, clausal state) of every golden instance."""
    for n in SIZES:
        for ratio in RATIOS:
            for seed in SEEDS:
                instance = gen_random_3sat(n, round(n * ratio), seed)
                state = build_clausal_partition(instance).state
                yield f"n={n},ratio={ratio},seed={seed}", instance, state


def case_digests() -> dict[str, str]:
    """One digest per case, keyed by instance, order and early-exit flag."""
    out: dict[str, str] = {}
    for key, instance, state in _instances():
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


def test_engine_matches_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = case_digests()
    assert sorted(got) == sorted(want)
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, f"{len(differing)} cases differ, first: {differing[:5]}"


def test_bidirectional_matches_closed_fixpoint():
    count = 0
    for key, _, state in _instances():
        want = fixpoint(state, early_exit=False)
        got = bidirectional_fixpoint(state)
        assert _masks(got) == _masks(want), key
        assert got.empty_triple == want.empty_triple, key
        count += 1
    assert count == 120


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(case_digests(), indent=1, sort_keys=True) + "\n")
