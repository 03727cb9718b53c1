"""Command-line surface: solve, verify, bench, and trace subcommands.

Exit codes: 0 = engine reports no empty cube and the oracle (if run)
agrees; 10 = UNSAT by empty cube (oracle-confirmed or oracle skipped);
20 = engine and oracle disagree; 1 = a `verify` check failed; 2 = usage
error, unreadable input, unwritable output or parse error.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import random
import stat
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__, checks, oracle
# bc is not used here, but callers that wrap the layer functions look it up
# by name in this module, so it stays importable.
from .bitspace import Partition, bc  # noqa: F401
from .clausal import Instance, Triple, build_clausal_partition
from .dimacs import (
    MAX_CLAUSES,
    MAX_VARS,
    _decimal,
    build_report,
    build_trace,
    emit_dimacs,
    gen_random_3sat,
    parse_dimacs,
    write_report,
)
# bidirectional_fixpoint is not used here, but callers that wrap the layer
# functions look it up by name in this module, so it stays importable.
from .propagate import (  # noqa: F401
    PropStats,
    bidirectional_fixpoint,
    count_prunable,
    extract_assignment,
    fixpoint,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSAT = 10
EXIT_DISAGREE = 20


# Seeds per bench point: point p's instances take the seeds from p*1009 on
# (plus the base's offset), so a count past it would reuse point p + 1's
# seeds, and a seed fixes one clause stream.  Bases lie BASE_SEEDS apart,
# so a sweep past BASE_SEEDS // POINT_SEEDS = 991 points would reuse the
# next base's seeds.
POINT_SEEDS = 1_009
BASE_SEEDS = 1_000_003


@dataclass
class GenSpec:
    n: int
    m_points: list[int]
    seed: int
    count: int = 1


def parse_gen_spec(spec: str) -> GenSpec:
    """Parse --gen n=<n>,m=<m>|<a>..<b>[..<step>],seed=<s>[,count=<k>]."""
    fields: dict[str, str] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad --gen field {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("n", "m", "seed", "count"):
            raise ValueError(f"unknown --gen field {key!r}")
        if key in fields:
            raise ValueError(f"repeated --gen field {key!r}")
        fields[key] = value.strip()
    missing = {"n", "m", "seed"} - set(fields)
    if missing:
        raise ValueError(f"--gen missing fields: {sorted(missing)}")
    n = _gen_int(fields, "n")
    m_spec = fields["m"]
    if ".." in m_spec:
        try:
            bounds = [_decimal(piece) for piece in m_spec.split("..")]
        except ValueError:
            raise ValueError(f"bad m range {m_spec!r}") from None
        if len(bounds) == 2:
            lo, hi = bounds
            step = max(1, n // 2)
        elif len(bounds) == 3:
            lo, hi, step = bounds
        else:
            raise ValueError(f"bad m range {m_spec!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad m range {m_spec!r}")
    else:
        lo = hi = _gen_int(fields, "m")
        step = 1
    count = _gen_int(fields, "count") if "count" in fields else 1
    if n < 3:
        raise ValueError(f"--gen needs n >= 3, got {n}")
    if n > MAX_VARS:
        raise ValueError(f"--gen needs n <= {MAX_VARS}, got {n}")
    if lo < 0:
        raise ValueError(f"--gen needs m >= 0, got {m_spec}")
    if hi > MAX_CLAUSES:
        raise ValueError(f"--gen needs m <= {MAX_CLAUSES}, got {m_spec}")
    if count < 1:
        raise ValueError(f"--gen needs count >= 1, got {count}")
    if count > POINT_SEEDS:
        raise ValueError(f"--gen needs count <= {POINT_SEEDS}, got {count}")
    seed = _gen_int(fields, "seed")
    if seed < 0:  # random.Random(-s) draws what random.Random(s) does
        raise ValueError(f"--gen needs seed >= 0, got {seed}")
    m_points = range(lo, hi + 1, step)
    if len(m_points) > BASE_SEEDS // POINT_SEEDS:
        raise ValueError(f"--gen needs at most {BASE_SEEDS // POINT_SEEDS} m points, "
                         f"got {len(m_points)}")
    return GenSpec(n, list(m_points), seed, count)


def _gen_int(fields: dict[str, str], key: str) -> int:
    try:
        return _decimal(fields[key])
    except ValueError:
        raise ValueError(
            f"--gen field {key!r} needs an integer, got {fields[key]!r}") from None


def parse_order(spec: str) -> tuple[str, int | None]:
    if spec == "fifo":
        return "fifo", None
    if spec.startswith("random:"):
        try:
            seed = _decimal(spec.removeprefix("random:"))
        except ValueError:
            pass
        else:
            if seed < 0:  # random.Random(-s) shuffles as random.Random(s) does
                raise ValueError(f"--order needs seed >= 0, got {seed}")
            return "random", seed
    raise ValueError(f"bad --order {spec!r}, expected fifo or random:<seed>")


def instance_seed(base: int, point_index: int, i: int) -> int:
    """Per-instance generator seed: base*1000003 + point*1009 + i."""
    return base * BASE_SEEDS + point_index * POINT_SEEDS + i


def _load_instance(config: argparse.Namespace) -> tuple[Instance, str]:
    """Returns (instance, source label).  Raises SystemExit(2) on an
    unreadable input or a parse failure after printing diagnostics to
    stderr."""
    if config.gen is not None:
        spec = config.gen
        inst = gen_random_3sat(spec.n, spec.m_points[0], spec.seed)
        return inst, f"gen:n={spec.n},m={spec.m_points[0]},seed={spec.seed}"
    assert config.input_path is not None
    stdin = config.input_path == "-"
    try:
        if not stdin:
            raw = open(config.input_path, "rb")
        elif sys.stdin is None:  # the process was started with fd 0 closed
            raise OSError("stdin is closed")
        else:
            raw = io.BytesIO(sys.stdin.buffer.read())
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {config.input_path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    label = "<stdin>" if stdin else config.input_path
    result = parse_dimacs(text)
    for diag in result.diagnostics:
        print(f"{label}:{diag}", file=sys.stderr)
    if result.instance is None:
        raise SystemExit(EXIT_PARSE)
    return result.instance, label


def _oracle_decides(num_vars: int, mode: str) -> bool:
    """Whether `mode` has the oracle decide instances of `num_vars` variables.
    Under "on" a refusal past the decide limit is noted on stderr, so a run
    asks once."""
    if mode == "on" and num_vars > oracle.DECIDE_LIMIT:
        print(f"oracle skipped: {num_vars} variables exceeds decide limit "
              f"{oracle.DECIDE_LIMIT}", file=sys.stderr)
    return mode != "off" and num_vars <= oracle.DECIDE_LIMIT


def _write_out(text: str, path: str | None) -> None:
    """Write to `path`, or to stdout, flushed, for None or "-".  Raises
    SystemExit(2) after printing a diagnostic to stderr when the path or
    stdout cannot be written.

    An existing file is overwritten in place, not truncated first: emptying
    a file that holds data can make closing it start writeback, which costs
    more than the write.  It is then cut to the text's length only if it was
    longer than `len(text)`, which the encoded text never undercuts, so a
    new file or one no longer than the text costs one fstat more than a
    plain open.  Only a regular file is cut, so devices and FIFOs such as
    /dev/null still work.  Not atomic: a crash mid-write can leave the old
    bytes or a mix of old and new."""
    stdout = path is None or path == "-"
    try:
        if stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="utf-8") as fh:
            st = os.fstat(fh.fileno())
            fh.write(text)
            if stat.S_ISREG(st.st_mode) and st.st_size > len(text):
                fh.truncate()
    except OSError as exc:
        print(f"error: cannot write {'<stdout>' if stdout else path}: {exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def cmd_solve(config: argparse.Namespace) -> int:
    # seconds per stage, reported with --timings; a stage that is not run
    # reads 0.0
    timings = dict.fromkeys(("parse", "build", "oracle", "fixpoint", "extract"), 0.0)

    def timed(stage: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        timings[stage] = round(time.perf_counter() - start, 6)
        return result

    instance, source = timed("parse", _load_instance, config)
    build = timed("build", build_clausal_partition, instance)
    decides = _oracle_decides(instance.num_vars, config.oracle_mode)
    oracle_verdict = timed("oracle", oracle.brute_force_sat, instance) if decides else None

    empty_triple = assignment = verified = None
    cubes: Iterable[tuple[Triple, int]] = ()
    if instance.has_empty_clause:
        engine_verdict = "trivially_unsat"
        stats = asdict(PropStats())
    else:
        result = timed("fixpoint", fixpoint, build.state, order_seed=config.order_seed)
        empty_triple = result.empty_triple
        engine_verdict = (
            "unsat_by_empty_cube" if empty_triple is not None else "no_empty_cube"
        )
        if empty_triple is None:
            extraction = timed("extract", extract_assignment, result, instance)
            if extraction is not None:
                assignment, verified = extraction.assignment, extraction.verified
        stats = asdict(result.stats)
        cubes = result.fixpoint.cubes.items()
    engine_unsat = instance.has_empty_clause or empty_triple is not None
    agrees = (
        None if oracle_verdict is None else engine_unsat != oracle_verdict.satisfiable
    )

    seeds: dict[str, int] = {} if config.gen is None else {"gen_seed": config.gen.seed}
    if config.order_seed is not None:
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
        timings=timings if config.timings else None,
    )
    _write_out(write_report(report), config.out_path)

    if agrees is False:
        return EXIT_DISAGREE
    return EXIT_UNSAT if engine_unsat else EXIT_OK


def cmd_trace(config: argparse.Namespace) -> int:
    instance, source = _load_instance(config)
    if instance.has_empty_clause:
        print(f"{source}: trivially unsatisfiable, nothing to trace", file=sys.stderr)
        return EXIT_UNSAT
    state = build_clausal_partition(instance).state
    result = fixpoint(state, order_seed=config.order_seed)
    _write_out(write_report(build_trace(result.trace, result.fixpoint.cubes.items())),
               config.out_path)
    return EXIT_UNSAT if result.empty_triple is not None else EXIT_OK


# ---------------------------------------------------------------------------
# verify: the property battery of `checks`, on fixed instance families


def _bc_family(quick: bool) -> Iterator[str | None]:
    rng = random.Random(20260826)
    for layout in checks.LAYOUTS:
        if quick:
            pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(2048)]
        else:
            pairs = [(a, b) for a in range(256) for b in range(256)]
        for ma, mb in pairs:
            yield checks.bc_matches_join(layout, ma, mb)


def _laws_family(quick: bool) -> Iterator[str | None]:
    rng = random.Random(97)
    for _ in range(100 if quick else 500):
        k = rng.randint(1, 4)
        coords = tuple(sorted(rng.sample(range(1, 9), k)))
        p = Partition(coords, rng.randrange(1 << (1 << k)))
        sub = tuple(sorted(rng.sample(coords, rng.randint(1, k))))
        q = Partition(sub, rng.randrange(1 << (1 << len(sub))))
        yield checks.project_lift_impose_laws(p, q)


def _fixpoint_family(quick: bool) -> Iterator[str | None]:
    instances = [(10, 25 + i, 4000 + i) for i in range(10 if quick else 30)]
    # closes with every cube all-RED, so the empty cube each run reports is
    # compared too
    instances.append((6, 40, 4032))
    for n, m, seed in instances:
        state = build_clausal_partition(gen_random_3sat(n, m, seed)).state
        yield checks.uni_bi_confluence(state, f"seed {seed}", range(3))


def _soundness_family(quick: bool) -> Iterator[str | None]:
    for i in range(10 if quick else 40):
        n = 10 + (i % 5)
        m = int(n * (1.5 + (i % 7) * 0.6))
        inst = gen_random_3sat(n, m, seed=9000 + i)
        result = fixpoint(build_clausal_partition(inst).state, early_exit=False)
        yield checks.sound(inst, result, f"seed {9000 + i}")


def cmd_verify(config: argparse.Namespace) -> int:
    battery = [  # (check name, one result per instance, None when it holds)
        ("algebra-axioms", [checks.algebra_laws()]),
        ("bc-vs-join-oracle", _bc_family(config.quick)),
        ("project-lift-impose-laws", _laws_family(config.quick)),
        ("uni-bi-confluence", _fixpoint_family(config.quick)),
        ("soundness-vs-projections", _soundness_family(config.quick)),
    ]
    failed = False
    for name, results in battery:
        detail = next((d for d in results if d is not None), None)
        line = f"PASS {name}" if detail is None else f"FAIL {name}: {detail}"
        _write_out(line + "\n", None)
        failed |= detail is not None
    return 1 if failed else EXIT_OK


# ---------------------------------------------------------------------------
# bench: the empirical claim audit


def cmd_bench(config: argparse.Namespace) -> int:
    spec = config.gen
    # every instance of a run has spec.n variables
    decides = _oracle_decides(spec.n, config.oracle_mode)
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
            "prunable_cubes": 0,  # cubes that are not inert at the start
            "counterexamples": [],
        }
        elapsed = oracle_elapsed = 0.0  # seconds in fixpoint, in the oracle
        for i in range(spec.count):
            seed = instance_seed(spec.seed, point_index, i)
            inst = gen_random_3sat(spec.n, m, seed)
            build = build_clausal_partition(inst)
            agg["prunable_cubes"] += count_prunable(build.state.cubes.values())
            start = time.perf_counter()
            result = fixpoint(build.state, order_seed=config.order_seed)
            elapsed += time.perf_counter() - start
            engine_unsat = result.empty_triple is not None
            if engine_unsat:
                agg["engine_unsat"] += 1
            agg["total_passes"] += result.passes
            agg["total_cells_removed"] += result.cells_removed
            if not decides:
                agg["oracle_skipped"] += 1
                continue
            start = time.perf_counter()
            verdict = oracle.brute_force_sat(inst)
            oracle_elapsed += time.perf_counter() - start
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
            agg["oracle_time_s"] = round(oracle_elapsed, 6)
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
    if config.order_seed is not None:
        doc["seeds"] = {"order_seed": config.order_seed}
    _write_out(write_report(doc), config.out_path)
    total_sound = sum(p["soundness_violations"] for p in points)
    return EXIT_OK if total_sound == 0 else EXIT_DISAGREE


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags it reads.  Parsing leaves the
    parser unchanged, so one parser serves every call in a process."""
    parser = argparse.ArgumentParser(
        prog="satprop",
        description="Partition-propagation 3SAT engine with a brute-force audit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    solve = sub.add_parser(
        "solve", help="propagate one instance to fixpoint and report the verdict")
    verify = sub.add_parser("verify", help="run the full property battery")
    bench = sub.add_parser(
        "bench", help="sweep random instances and audit engine/oracle agreement")
    trace = sub.add_parser("trace", help="run propagation with a per-application trace")
    for p in (solve, trace):
        p.add_argument("--input", dest="input_path",
                       help="DIMACS CNF path, or - for stdin")
    for p in (solve, bench, trace):
        p.add_argument("--gen", help="n=<n>,m=<m>|<a>..<b>[..<step>],seed=<s>[,count=<k>]")
        p.add_argument("--order", default="fifo", help="fifo or random:<seed>")
        p.add_argument("--out", dest="out_path", help="output path (default stdout)")
    for p in (solve, bench):
        p.add_argument("--oracle", dest="oracle_mode", choices=["on", "off", "auto"],
                       default="auto")
    solve.add_argument("--timings", action="store_true",
                       help="add per-stage seconds to the report")
    bench.add_argument("--timings", action="store_true",
                       help="include wall-clock fields in bench output")
    verify.add_argument("--quick", action="store_true", help="subsampled verify checks")
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """`args`, checked, with `gen` parsed into a `GenSpec` (None if unset)
    and `order` split into `order` and `order_seed`.  A subcommand's
    namespace holds the flags it accepts, so `input_path` marks the
    single-instance commands and `gen` without it marks bench."""
    if getattr(args, "input_path", None) and getattr(args, "gen", None):
        raise ValueError("--input and --gen are mutually exclusive")
    if hasattr(args, "gen"):
        args.gen = parse_gen_spec(args.gen) if args.gen else None
    if hasattr(args, "input_path"):
        if not (args.input_path or args.gen):
            raise ValueError(f"{args.subcommand} requires --input or --gen")
        if args.gen is not None and (len(args.gen.m_points) != 1 or args.gen.count != 1):
            raise ValueError(
                f"{args.subcommand} takes one instance: --gen needs a single m "
                f"and count=1 (use bench for sweeps)"
            )
    elif hasattr(args, "gen") and args.gen is None:
        raise ValueError(f"{args.subcommand} requires --gen")
    if hasattr(args, "order"):
        args.order, args.order_seed = parse_order(args.order)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code.  A SystemExit raised on
    the way, by argparse (2 for a usage error, 0 for --help and --version)
    or by a command, becomes the return value."""
    try:
        args = build_parser().parse_args(argv)
        try:
            config = config_from_args(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        command = {"solve": cmd_solve, "verify": cmd_verify,
                   "bench": cmd_bench, "trace": cmd_trace}[args.subcommand]
        return command(config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
