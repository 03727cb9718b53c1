"""The benchmark's workloads: seeded inputs, CLI operations and output checks.

A workload is one *round*: a fixed list of CLI operations, each an argv for
``satprop.cli.main`` plus a check of what it wrote.  The timed loop repeats
the round, so every round does identical work for a given seed.  Inputs are
generated here, with the benchmark's own random 3SAT generator, so the
program under test receives only DIMACS files (or, for ``bench``, the
``--gen`` spec that is its only input form).

Every check is independent of satprop's code: clauses are re-evaluated and
initial cube masks recomputed from the generated clause list.  At the
default seed each operation's summary is also compared with the values
recorded in ``reference.json`` by ``record_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
# Warm-up operations only fill caches; a fixed input keeps their cost, part
# of setup_s, from varying with the workload seed.
WARMUP_SEED = 0

Clause = tuple[int, int, int]


@dataclass
class Op:
    """One CLI call.  ``check(exit_code, stdout)`` returns the summary that is
    compared with the reference, or raises ``CheckFailed``."""

    argv: list[str]
    instances: int
    check: Callable[[int, str], object]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op

    @property
    def instances(self) -> int:
        return sum(op.instances for op in self.ops)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# inputs


def random_3sat(n: int, m: int, rng: random.Random) -> list[Clause]:
    """Uniform random 3SAT: three distinct variables, independent signs."""
    clauses = []
    for _ in range(m):
        vs = sorted(rng.sample(range(1, n + 1), 3))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def write_dimacs(path: Path, n: int, clauses: list[Clause]) -> None:
    lines = [f"c perfbench random 3SAT n={n} m={len(clauses)}",
             f"p cnf {n} {len(clauses)}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in clauses]
    path.write_text("\n".join(lines) + "\n")


def initial_masks(clauses: list[Clause]) -> dict[tuple[int, ...], int]:
    """GREEN mask of each clause triple before propagation: the cell that
    falsifies each hosted clause is RED.  Coordinate i of the ascending
    triple is bit 2**i of the cell index, F=0, T=1."""
    masks: dict[tuple[int, ...], int] = {}
    for clause in clauses:
        triple = tuple(abs(lit) for lit in clause)
        falsifying = sum(1 << i for i, lit in enumerate(clause) if lit < 0)
        masks[triple] = masks.get(triple, 0xFF) & ~(1 << falsifying)
    return masks


def satisfies(clauses: list[Clause], assignment: dict[int, bool]) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses)


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks


def _check_cubes(cubes: list[dict], clauses: list[Clause]) -> dict[tuple[int, ...], int]:
    """Every fixpoint mask is a subset of its clause triple's initial mask."""
    want = initial_masks(clauses)
    got = {tuple(c["triple"]): int(c["mask"], 16) for c in cubes}
    require(set(got) == set(want),
            f"cube triples differ from clause triples ({len(got)} vs {len(want)})")
    for triple, mask in got.items():
        require(mask & ~want[triple] == 0,
                f"cube {list(triple)} mask {mask:#04x} not within initial {want[triple]:#04x}")
    return got


def solve_check(out: Path, clauses: list[Clause]) -> Callable[[int, str], object]:
    def check(code: int, stdout: str) -> object:
        require(code in (0, 10), f"solve exit code {code}")
        report = json.loads(out.read_text())
        verdict = report["engine_verdict"]
        require(verdict in ("no_empty_cube", "unsat_by_empty_cube"),
                f"unexpected engine_verdict {verdict!r}")
        require((code == 10) == (verdict == "unsat_by_empty_cube"),
                f"exit code {code} does not match verdict {verdict}")
        masks = _check_cubes(report["cubes"], clauses)
        if verdict == "unsat_by_empty_cube":
            require(masks[tuple(report["empty_triple"])] == 0,
                    "empty_triple is not all-RED")
        assignment = report["assignment"]
        if assignment is not None:
            values = {int(v): b for v, b in assignment.items()}
            ok = satisfies(clauses, values)
            require(report["assignment_verified"] is ok,
                    f"assignment_verified {report['assignment_verified']} but clauses say {ok}")
            if ok:  # a model lies in a GREEN cell of every sound fixpoint cube
                for triple, mask in masks.items():
                    cell = sum(1 << i for i, v in enumerate(triple) if values[v])
                    require(mask >> cell & 1, f"model falls on a RED cell of {list(triple)}")
        return {"engine_verdict": verdict, "stats": report["stats"],
                "cubes": digest(report["cubes"]),
                "assignment_verified": report["assignment_verified"]}
    return check


def trace_check(out: Path, clauses: list[Clause]) -> Callable[[int, str], object]:
    def check(code: int, stdout: str) -> object:
        require(code in (0, 10), f"trace exit code {code}")
        doc = json.loads(out.read_text())
        masks = _check_cubes(doc["final_cubes"], clauses)
        for rec in doc["records"]:
            before, after = int(rec["before"], 16), int(rec["after"], 16)
            require(after & ~before == 0 and after != before, "trace record gained cells")
            require(rec["cells_removed"] == (before ^ after).bit_count(),
                    "trace record cells_removed mismatch")
        require((code == 10) == (0 in masks.values()),
                f"exit code {code} does not match the final cubes")
        return {"final_cubes": digest(doc["final_cubes"]),
                "records": len(doc["records"]), "exit": code}
    return check


TALLIES = ("m", "count", "engine_unsat", "oracle_sat", "oracle_unsat",
           "oracle_skipped", "agree", "soundness_violations",
           "completeness_misses", "total_passes", "total_cells_removed")


def bench_check(out: Path, m: int, count: int) -> Callable[[int, str], object]:
    def check(code: int, stdout: str) -> object:
        require(code == 0, f"bench exit code {code}")
        points = json.loads(out.read_text())["points"]
        require([p["m"] for p in points] == [m], "bench m points differ from the spec")
        for p in points:
            require(p["soundness_violations"] == 0,
                    f"m={p['m']}: {p['soundness_violations']} soundness violations")
            decided = p["oracle_sat"] + p["oracle_unsat"]
            require(p["count"] == count and decided + p["oracle_skipped"] == count,
                    f"m={p['m']}: oracle tallies do not add up to count")
            require(p["agree"] + p["completeness_misses"] == decided,
                    f"m={p['m']}: agreement tallies do not add up")
            require(p["engine_unsat"] <= p["oracle_unsat"] + p["oracle_skipped"],
                    f"m={p['m']}: more engine UNSAT than oracle UNSAT")
        return [{k: p[k] for k in TALLIES} for p in points]
    return check


def verify_check(code: int, stdout: str) -> object:
    lines = stdout.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    require(not failed, "; ".join(failed) or "no checks ran")
    require(code == 0, f"verify exit code {code}")
    return lines


# ---------------------------------------------------------------------------
# workloads


def _instance_ops(subcommand: str, workdir: Path, tag: str, seed: int,
                  shapes: list[tuple[int, float]], extra: list[str],
                  make_check: Callable) -> list[Op]:
    ops = []
    for i, (n, ratio) in enumerate(shapes):
        m = round(n * ratio)
        clauses = random_3sat(n, m, random.Random(f"{tag}/{seed}/{i}/{n}/{m}"))
        cnf, out = workdir / f"{tag}-{i}.cnf", workdir / f"{tag}-{i}.json"
        write_dimacs(cnf, n, clauses)
        argv = [subcommand, "--input", str(cnf), *extra, "--out", str(out)]
        ops.append(Op(argv, 1, make_check(out, clauses)))
    return ops


def solve_extract(seed: int, workdir: Path, n: int = 12, ratios=(3.0, 4.26),
                  per_shape: int = 64) -> Workload:
    shapes = [(n, r) for _ in range(per_shape) for r in ratios]
    ops = _instance_ops("solve", workdir, "solve", seed, shapes,
                        ["--oracle", "off"], solve_check)
    warmup = _instance_ops("solve", workdir, "warmup", WARMUP_SEED, shapes[:1],
                           ["--oracle", "off"], solve_check)[0]
    return Workload(ops, warmup)


def verdict_large(seed: int, workdir: Path, n: int = 400,
                  ratios=(3.0, 4.26)) -> Workload:
    ops = _instance_ops("trace", workdir, "trace", seed, [(n, r) for r in ratios],
                        [], trace_check)
    warmup = _instance_ops("trace", workdir, "warmup", WARMUP_SEED,
                           [(n // 4, ratios[-1])], [], trace_check)[0]
    return Workload(ops, warmup)


def _bench_op(workdir: Path, name: str, n: int, m: int, count: int, seed: int) -> Op:
    out = workdir / f"{name}.json"
    spec = f"n={n},m={m},seed={seed},count={count}"
    argv = ["bench", "--gen", spec, "--oracle", "on", "--out", str(out)]
    return Op(argv, count, bench_check(out, m, count))


def audit_sweep(seed: int, workdir: Path, readme_count: int = 50,
                threshold_count: int = 10) -> Workload:
    """Two sweeps, one bench call per ratio point: a ten-second sweep in one
    call could not be timed against the host's speed (see run.HostSpeed).
    Each point gets its own generator seed, so the instances of different
    points are independent, as in a one-call sweep."""
    points = [(12, m, readme_count) for m in range(12, 73, 6)]
    points += [(20, m, threshold_count) for m in range(60, 111, 5)]
    ops = [_bench_op(workdir, f"bench-{k}", n, m, count, seed * 1000 + k)
           for k, (n, m, count) in enumerate(points)]
    warmup = _bench_op(workdir, "warmup", 12, 36, 5, WARMUP_SEED)
    return Workload(ops, warmup)


def verify_battery(seed: int, workdir: Path, argv=("verify", "--quick")) -> Workload:
    """``verify`` takes no input; its battery is fixed by the program, so
    the seed changes nothing here."""
    op = Op(list(argv), 1, verify_check)
    return Workload([op], warmup=op)


WORKLOADS = {
    "solve-extract": solve_extract,
    "verdict-large": verdict_large,
    "audit-sweep": audit_sweep,
    "verify-battery": verify_battery,
}
