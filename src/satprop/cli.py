"""Command-line surface: solve, verify, bench, and trace subcommands.

Exit codes: 0 = engine reports no empty cube and the oracle (if run)
agrees; 10 = UNSAT by empty cube (oracle-confirmed or oracle skipped);
20 = engine and oracle disagree; 2 = usage error, unreadable input,
unwritable output or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import __version__, bitspace, oracle
from .bitspace import GREEN, RED, Partition, bc, bs, ws
from .clausal import Instance, build_clausal_partition
from .dimacs import (
    build_report,
    emit_dimacs,
    gen_random_3sat,
    mask_hex,
    parse_dimacs,
    write_report,
)
from .propagate import (
    bidirectional_fixpoint,
    extract_assignment,
    fixpoint,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSAT = 10
EXIT_DISAGREE = 20


@dataclass
class GenSpec:
    n: int
    m_points: list[int]
    seed: int
    count: int = 1


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    gen: GenSpec | None = None
    oracle_mode: str = "auto"  # on | off | auto
    order: str = "fifo"
    order_seed: int | None = None
    out_path: str | None = None
    trace_path: str | None = None
    quick: bool = False
    timings: bool = False
    mutate_bc: bool = False


def parse_gen_spec(spec: str) -> GenSpec:
    """Parse --gen n=<n>,m=<m>|<a>..<b>[..<step>],seed=<s>[,count=<k>]."""
    fields: dict[str, str] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad --gen field {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    missing = {"n", "m", "seed"} - set(fields)
    if missing:
        raise ValueError(f"--gen missing fields: {sorted(missing)}")
    n = int(fields["n"])
    m_spec = fields["m"]
    if ".." in m_spec:
        pieces = m_spec.split("..")
        if len(pieces) == 2:
            lo, hi = int(pieces[0]), int(pieces[1])
            step = max(1, n // 2)
        elif len(pieces) == 3:
            lo, hi, step = int(pieces[0]), int(pieces[1]), int(pieces[2])
        else:
            raise ValueError(f"bad m range {m_spec!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad m range {m_spec!r}")
        m_points = list(range(lo, hi + 1, step))
    else:
        m_points = [int(m_spec)]
    count = int(fields.get("count", 1))
    if n < 3:
        raise ValueError(f"--gen needs n >= 3, got {n}")
    if min(m_points) < 0:
        raise ValueError(f"--gen needs m >= 0, got {m_spec}")
    if count < 1:
        raise ValueError(f"--gen needs count >= 1, got {count}")
    return GenSpec(n, m_points, int(fields["seed"]), count)


def parse_order(spec: str) -> tuple[str, int | None]:
    if spec == "fifo":
        return "fifo", None
    if spec.startswith("random:"):
        return "random", int(spec.split(":", 1)[1])
    raise ValueError(f"bad --order {spec!r}, expected fifo or random:<seed>")


def instance_seed(base: int, point_index: int, i: int) -> int:
    """Per-instance generator seed: base*1000003 + point*1009 + i."""
    return base * 1_000_003 + point_index * 1_009 + i


def _load_instance(config: RunConfig) -> tuple[Instance, str, dict[str, Any]]:
    """Returns (instance, source label, seeds).  Raises SystemExit(2) on an
    unreadable input or a parse failure after printing diagnostics to
    stderr."""
    if config.gen is not None:
        spec = config.gen
        inst = gen_random_3sat(spec.n, spec.m_points[0], spec.seed)
        label = f"gen:n={spec.n},m={spec.m_points[0]},seed={spec.seed}"
        return inst, label, {"gen_seed": spec.seed}
    assert config.input_path is not None
    if config.input_path == "-":
        text = sys.stdin.read()
        label = "<stdin>"
    else:
        try:
            with open(config.input_path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {config.input_path}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE) from None
        label = config.input_path
    result = parse_dimacs(text)
    for diag in result.diagnostics:
        print(f"{label}:{diag}", file=sys.stderr)
    if result.instance is None:
        raise SystemExit(EXIT_PARSE)
    return result.instance, label, {}


def _run_oracle(instance: Instance, mode: str) -> oracle.OracleVerdict | None:
    if mode == "off":
        return None
    if instance.num_vars > oracle.DECIDE_LIMIT:
        if mode == "on":
            print(
                f"oracle skipped: {instance.num_vars} variables exceeds "
                f"decide limit {oracle.DECIDE_LIMIT}",
                file=sys.stderr,
            )
        return None
    return oracle.brute_force_sat(instance)


def _write_out(text: str, path: str | None) -> None:
    """Write to `path`, or stdout for None or "-".  Raises SystemExit(2)
    after printing a diagnostic to stderr when the path cannot be written."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def cmd_solve(config: RunConfig) -> int:
    instance, source, seeds = _load_instance(config)
    build = build_clausal_partition(instance)
    oracle_verdict = _run_oracle(instance, config.oracle_mode)

    if build.trivially_unsat:
        engine_verdict = "trivially_unsat"
        agrees = (not oracle_verdict.satisfiable) if oracle_verdict else None
        result = None
        stats = {"passes": 0, "edge_applications": 0,
                 "applications_changed": 0, "cells_removed": 0}
        empty_triple = None
        assignment = verified = None
    else:
        result = fixpoint(
            build.state,
            order=config.order,
            seed=config.order_seed,
            record_trace=config.trace_path is not None,
        )
        empty_triple = result.empty_triple
        engine_verdict = (
            "unsat_by_empty_cube" if empty_triple is not None else "no_empty_cube"
        )
        assignment = verified = None
        if empty_triple is None:
            extraction = extract_assignment(result, instance)
            if extraction is not None:
                assignment, verified = extraction.assignment, extraction.verified
        if oracle_verdict is None:
            agrees = None
        elif empty_triple is not None:
            agrees = not oracle_verdict.satisfiable
        else:
            agrees = oracle_verdict.satisfiable
        stats = {
            "passes": result.stats.passes,
            "edge_applications": result.stats.edge_applications,
            "applications_changed": result.stats.applications_changed,
            "cells_removed": result.stats.cells_removed,
        }
        if config.trace_path is not None:
            _write_out(_trace_document(result), config.trace_path)

    cubes = (
        []
        if result is None
        else [
            (triple, result.fixpoint.cubes[triple].green_mask)
            for triple in result.fixpoint.triples()
        ]
    )
    seeds = dict(seeds)
    if config.order == "random":
        seeds["order_seed"] = config.order_seed
    report = build_report(
        instance=instance,
        source=source,
        engine_verdict=engine_verdict,
        empty_triple=empty_triple,
        cubes=cubes,
        stats=stats,
        oracle_verdict=(
            None
            if oracle_verdict is None
            else ("sat" if oracle_verdict.satisfiable else "unsat")
        ),
        oracle_agrees=agrees,
        assignment=assignment,
        assignment_verified=verified,
        order=config.order,
        seeds=seeds,
        unconstrained_vars=instance.unconstrained_vars(),
    )
    _write_out(write_report(report), config.out_path)

    if agrees is False:
        return EXIT_DISAGREE
    if engine_verdict in ("unsat_by_empty_cube", "trivially_unsat"):
        return EXIT_UNSAT
    return EXIT_OK


def _trace_document(result: Any) -> str:
    records = [
        {
            "edge": [list(rec.edge[0]), list(rec.edge[1])],
            "before": mask_hex(rec.before),
            "after": mask_hex(rec.after),
            "cells_removed": rec.cells_removed,
        }
        for rec in (result.trace or [])
    ]
    doc = {
        "tool": "satprop",
        "version": __version__,
        "records": records,
        "final_cubes": [
            {"triple": list(t), "mask": mask_hex(result.fixpoint.cubes[t].green_mask)}
            for t in result.fixpoint.triples()
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_trace(config: RunConfig) -> int:
    instance, source, _ = _load_instance(config)
    build = build_clausal_partition(instance)
    if build.trivially_unsat:
        print(f"{source}: trivially unsatisfiable, nothing to trace", file=sys.stderr)
        return EXIT_UNSAT
    result = fixpoint(
        build.state, order=config.order, seed=config.order_seed, record_trace=True
    )
    _write_out(_trace_document(result), config.trace_path or config.out_path)
    return EXIT_UNSAT if result.empty_triple is not None else EXIT_OK


# ---------------------------------------------------------------------------
# verify: the full property battery


def _check_algebra() -> str | None:
    colors = (RED, GREEN)
    for a in colors:
        for b in colors:
            if ws(a, b) not in colors or bs(a, b) not in colors:
                return "closure violated"
            if ws(a, b) is not ws(b, a) or bs(a, b) is not bs(b, a):
                return f"commutativity violated at ({a}, {b})"
            for c in colors:
                if ws(ws(a, b), c) is not ws(a, ws(b, c)):
                    return "WS associativity violated"
                if bs(bs(a, b), c) is not bs(a, bs(b, c)):
                    return "BS associativity violated"
                if bs(a, ws(b, c)) is not ws(bs(a, b), bs(a, c)):
                    return "BS-over-WS distributivity violated"
                if ws(a, bs(b, c)) is not bs(ws(a, b), ws(a, c)):
                    return "WS-over-BS distributivity violated"
        if ws(a, RED) is not a:
            return "RED is not the WS identity"
        if bs(a, GREEN) is not a:
            return "GREEN is not the BS identity"
        if bs(a, RED) is not RED:
            return "RED is not BS-absorbing"
    return None


_LAYOUTS = {
    "overlap2": ((1, 2, 3), (2, 3, 4)),
    "overlap1": ((1, 2, 3), (3, 4, 5)),
}


def _check_bc_oracle(
    quick: bool, bc_fn: Callable = bc
) -> str | None:
    rng = random.Random(20260826)
    for name, (ca, cb) in _LAYOUTS.items():
        if quick:
            pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(2048)]
        else:
            pairs = [(a, b) for a in range(256) for b in range(256)]
        for ma, mb in pairs:
            p, q = Partition(ca, ma), Partition(cb, mb)
            got = bc_fn(p, q)
            want = oracle.join_semantics_oracle(p, q)
            if (got[0].green_mask, got[1].green_mask) != (
                want[0].green_mask,
                want[1].green_mask,
            ):
                return (
                    f"bc mismatch on {name} masks ({mask_hex(ma)}, {mask_hex(mb)})"
                )
    return None


def _check_structural_laws(quick: bool) -> str | None:
    rng = random.Random(97)
    rounds = 100 if quick else 500
    for _ in range(rounds):
        k = rng.randint(1, 4)
        coords = tuple(sorted(rng.sample(range(1, 9), k)))
        mask = rng.randrange(1 << (1 << k))
        p = Partition(coords, mask)
        sub = tuple(sorted(rng.sample(coords, rng.randint(1, k))))
        proj = bitspace.project(p, sub)
        lifted = bitspace.lift(proj, coords)
        if lifted.green_mask & p.green_mask != p.green_mask:
            return "lift(project(p)) lost GREEN cells of p"
        if bitspace.project(lifted, sub).green_mask != proj.green_mask:
            return "project(lift(q)) != q"
        extra = rng.randrange(1 << (1 << len(sub)))
        q = Partition(sub, extra)
        imposed = bitspace.impose(p, q)
        if imposed.green_mask & p.green_mask != imposed.green_mask:
            return "impose produced GREEN cells outside p"
    return None


def _check_fixpoint_equivalences(quick: bool) -> str | None:
    count = 10 if quick else 30
    for i in range(count):
        inst = gen_random_3sat(10, 25 + i, seed=4000 + i)
        build = build_clausal_partition(inst)
        base = fixpoint(build.state, early_exit=False)
        bi = bidirectional_fixpoint(build.state, early_exit=False)
        if {t: c.green_mask for t, c in base.fixpoint.cubes.items()} != {
            t: c.green_mask for t, c in bi.fixpoint.cubes.items()
        }:
            return f"uni/bi fixpoint mismatch on seed {4000 + i}"
        for order_seed in range(3):
            alt = fixpoint(
                build.state, order="random", seed=order_seed, early_exit=False
            )
            if {t: c.green_mask for t, c in base.fixpoint.cubes.items()} != {
                t: c.green_mask for t, c in alt.fixpoint.cubes.items()
            }:
                return f"confluence violated on seed {4000 + i}, order {order_seed}"
    return None


def _check_soundness(quick: bool) -> str | None:
    count = 10 if quick else 40
    for i in range(count):
        n = 10 + (i % 5)
        m = int(n * (1.5 + (i % 7) * 0.6))
        inst = gen_random_3sat(n, m, seed=9000 + i)
        build = build_clausal_partition(inst)
        result = fixpoint(build.state, early_exit=False)
        projected = oracle.projected_solution_sets(inst, result.fixpoint.triples())
        for triple, cells in projected.items():
            green = set(result.fixpoint.cubes[triple].green_cells())
            if not cells <= green:
                return f"soundness violated on seed {9000 + i} triple {triple}"
        if result.empty_triple is not None:
            if oracle.brute_force_sat(inst).satisfiable:
                return f"false UNSAT on seed {9000 + i}"
    return None


def cmd_verify(config: RunConfig) -> int:
    bc_fn = bc
    if config.mutate_bc:
        def bc_fn(p, q):  # deliberately wrong: skips the meet step on p's side
            return bitspace.bc_uni(p, q), q
    checks = [
        ("algebra-axioms", lambda: _check_algebra()),
        ("bc-vs-join-oracle", lambda: _check_bc_oracle(config.quick, bc_fn)),
        ("project-lift-impose-laws", lambda: _check_structural_laws(config.quick)),
        ("uni-bi-confluence", lambda: _check_fixpoint_equivalences(config.quick)),
        ("soundness-vs-projections", lambda: _check_soundness(config.quick)),
    ]
    failures = 0
    for name, check in checks:
        detail = check()
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# bench: the empirical claim audit


def cmd_bench(config: RunConfig) -> int:
    if config.gen is None:
        print("bench requires --gen", file=sys.stderr)
        return EXIT_PARSE
    spec = config.gen
    points = []
    for point_index, m in enumerate(spec.m_points):
        agg = {
            "m": m,
            "ratio": round(m / spec.n, 4),
            "count": spec.count,
            "engine_unsat": 0,
            "oracle_sat": 0,
            "oracle_unsat": 0,
            "oracle_skipped": 0,
            "agree": 0,
            "soundness_violations": 0,
            "completeness_misses": 0,
            "total_passes": 0,
            "total_cells_removed": 0,
            "counterexamples": [],
        }
        elapsed = 0.0
        for i in range(spec.count):
            seed = instance_seed(spec.seed, point_index, i)
            inst = gen_random_3sat(spec.n, m, seed)
            build = build_clausal_partition(inst)
            start = time.perf_counter()
            result = fixpoint(build.state, order=config.order, seed=config.order_seed)
            elapsed += time.perf_counter() - start
            engine_unsat = result.empty_triple is not None
            if engine_unsat:
                agg["engine_unsat"] += 1
            agg["total_passes"] += result.stats.passes
            agg["total_cells_removed"] += result.stats.cells_removed
            verdict = _run_oracle(inst, config.oracle_mode)
            if verdict is None:
                agg["oracle_skipped"] += 1
                continue
            if verdict.satisfiable:
                agg["oracle_sat"] += 1
            else:
                agg["oracle_unsat"] += 1
            if engine_unsat == (not verdict.satisfiable):
                agg["agree"] += 1
            elif engine_unsat:
                agg["soundness_violations"] += 1
                agg["counterexamples"].append(
                    {"kind": "false_unsat", "seed": seed, "dimacs": emit_dimacs(inst)}
                )
            else:
                agg["completeness_misses"] += 1
                agg["counterexamples"].append(
                    {"kind": "engine_nonempty_oracle_unsat", "seed": seed,
                     "dimacs": emit_dimacs(inst)}
                )
        if config.timings:
            agg["wall_time_s"] = round(elapsed, 6)
        points.append(agg)

    doc = {
        "tool": "satprop",
        "version": __version__,
        "gen": {"n": spec.n, "seed": spec.seed, "count": spec.count,
                "m_points": spec.m_points},
        "order": config.order,
        "oracle": config.oracle_mode,
        "points": points,
    }
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", config.out_path)
    total_sound = sum(p["soundness_violations"] for p in points)
    return EXIT_OK if total_sound == 0 else EXIT_DISAGREE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satprop",
        description="Partition-propagation 3SAT engine with a brute-force audit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [
        ("solve", "propagate one instance to fixpoint and report the verdict"),
        ("verify", "run the full property battery"),
        ("bench", "sweep random instances and audit engine/oracle agreement"),
        ("trace", "run propagation with a per-application trace"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", help="DIMACS CNF path, or - for stdin")
        p.add_argument("--gen", help="n=<n>,m=<m>|<a>..<b>[..<step>],seed=<s>[,count=<k>]")
        p.add_argument("--oracle", choices=["on", "off", "auto"], default="auto")
        p.add_argument("--order", default="fifo", help="fifo or random:<seed>")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--quick", action="store_true", help="subsampled verify checks")
        p.add_argument("--trace", dest="trace_path", help="trace output path")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock fields in bench output")
        p.add_argument("--mutate-bc", action="store_true", help=argparse.SUPPRESS)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.input and args.gen:
        raise ValueError("--input and --gen are mutually exclusive")
    gen = parse_gen_spec(args.gen) if args.gen else None
    if args.subcommand in ("solve", "trace"):
        if not (args.input or gen):
            raise ValueError(f"{args.subcommand} requires --input or --gen")
        if gen is not None and (len(gen.m_points) != 1 or gen.count != 1):
            raise ValueError(
                f"{args.subcommand} takes one instance: --gen needs a single m "
                f"and count=1 (use bench for sweeps)"
            )
    order, order_seed = parse_order(args.order)
    return RunConfig(
        subcommand=args.subcommand,
        input_path=args.input,
        gen=gen,
        oracle_mode=args.oracle,
        order=order,
        order_seed=order_seed,
        out_path=args.out,
        trace_path=args.trace_path,
        quick=args.quick,
        timings=args.timings,
        mutate_bc=args.mutate_bc,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if config.subcommand == "solve":
            return cmd_solve(config)
        if config.subcommand == "verify":
            return cmd_verify(config)
        if config.subcommand == "bench":
            return cmd_bench(config)
        if config.subcommand == "trace":
            return cmd_trace(config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    raise AssertionError(f"unhandled subcommand {config.subcommand}")


if __name__ == "__main__":
    sys.exit(main())
