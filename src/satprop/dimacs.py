"""DIMACS CNF ingestion and emission, random 3SAT generation, and the JSON
run-report format.

The parser is 3SAT-only: clauses of more than three distinct variables are
rejected with a diagnostic rather than split.  Diagnostics carry 1-based
line/column positions into the source text.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Sequence

from . import __version__
from .clausal import EMPTY, TAUTOLOGY, Clause, Instance, canonicalize

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str  # "error" | "warning"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    instance: Instance | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


def parse_dimacs(text: str) -> ParseResult:
    """Parse DIMACS CNF text into a canonical 3SAT instance.

    Comment lines start with 'c'; one 'p cnf <vars> <clauses>' problem line
    is required before any clause; clauses are nonzero integers terminated
    by 0 and may span lines.  A line starting with '%' ends the data, as in
    the SATLIB benchmark files, whose '%' line is followed by a stray '0'.
    Header/clause count mismatch and dropped tautologies are warnings;
    out-of-range literals, missing header, and clauses wider than 3
    distinct variables are errors.
    """
    diagnostics: list[ParseDiagnostic] = []
    num_vars: int | None = None
    declared_clauses = 0
    clauses: list[Clause] = []
    empty_clauses = 0
    tautologies = 0
    pending: list[int] = []
    # where the pending clause starts: (line number, line, token index)
    pending_start: tuple[int, str, int] | None = None

    def error(line: int, col: int, message: str) -> None:
        diagnostics.append(ParseDiagnostic(line, col, message, "error"))

    def warning(line: int, col: int, message: str) -> None:
        diagnostics.append(ParseDiagnostic(line, col, message, "warning"))

    def finish_clause(lineno: int, line: str, k: int) -> None:
        """Close the pending clause at token k of `line`."""
        nonlocal empty_clauses, tautologies
        assert num_vars is not None
        start = pending_start or (lineno, line, k)
        if len(pending) > 3:
            width = len({abs(lit) for lit in pending})
            if width > 3:
                error(*_position(*start),
                      f"clause has {width} distinct variables; this tool is 3SAT-only")
                return
        result = canonicalize(pending, num_vars)
        if result is TAUTOLOGY:
            tautologies += 1
            warning(*_position(*start), "tautological clause dropped")
        elif result is EMPTY:
            empty_clauses += 1
            warning(*_position(*start), "empty clause: instance is trivially unsatisfiable")
        else:
            clauses.append(result)

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):  # SATLIB end-of-data trailer
            break
        if stripped.startswith("p"):
            col = line.index("p") + 1
            if num_vars is not None:
                error(lineno, col, "duplicate problem line")
                continue
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                error(lineno, col, f"malformed problem line: {stripped!r}")
                continue
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                error(lineno, col, f"non-numeric counts in problem line: {stripped!r}")
                num_vars = None
            if num_vars is not None and (num_vars < 0 or declared_clauses < 0):
                error(lineno, col, "negative counts in problem line")
                num_vars = None
            continue
        if num_vars is None:
            error(*_position(lineno, line, 0), "clause data before problem line")
            return ParseResult(None, diagnostics)
        for k, token in enumerate(stripped.split()):
            try:
                lit = int(token)
            except ValueError:
                error(*_position(lineno, line, k), f"not an integer literal: {token!r}")
                continue
            if lit == 0:
                finish_clause(lineno, line, k)
                pending = []
                pending_start = None
            elif abs(lit) > num_vars:
                error(*_position(lineno, line, k),
                      f"literal {lit} out of range for {num_vars} variables")
            else:
                if pending_start is None:
                    pending_start = (lineno, line, k)
                pending.append(lit)

    last_line = text.count("\n") + 1
    if num_vars is None:
        error(last_line, 1, "missing problem line")
        return ParseResult(None, diagnostics)
    if pending_start is not None:
        error(*_position(*pending_start), "clause not terminated by 0")
    parsed_count = len(clauses) + empty_clauses + tautologies
    if parsed_count != declared_clauses:
        warning(last_line, 1,
                f"header declares {declared_clauses} clauses, found {parsed_count}")

    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    instance = Instance(num_vars, tuple(clauses), empty_clauses > 0, tautologies)
    return ParseResult(instance, diagnostics)


def _position(lineno: int, line: str, k: int) -> tuple[int, int]:
    """Line number and 1-based column of the k-th token of a line.  Columns
    are worked out only for diagnostics, so clean lines are just split."""
    match = next(islice(_TOKEN.finditer(line), k, None))
    return lineno, match.start() + 1


def emit_dimacs(instance: Instance) -> str:
    """Canonical emission: sorted literals, one clause per line.  Parsing
    the output reproduces the instance."""
    count = len(instance.clauses) + (1 if instance.has_empty_clause else 0)
    lines = [f"p cnf {instance.num_vars} {count}"]
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause.as_ints()) + " 0")
    if instance.has_empty_clause:
        lines.append("0")
    return "\n".join(lines) + "\n"


def gen_random_3sat(n: int, m: int, seed: int) -> Instance:
    """Uniform random 3SAT: each clause picks 3 distinct variables with
    rng.sample(range(1, n+1), 3), sorts them ascending, then draws one
    polarity per variable with rng.random() < 0.5 meaning positive.
    Duplicate clauses are permitted.  Deterministic for a fixed seed."""
    if n < 3:
        raise ValueError(f"need at least 3 variables, got {n}")
    rng = random.Random(seed)
    raw = []
    for _ in range(m):
        vars_ = sorted(rng.sample(range(1, n + 1), 3))
        raw.append([v if rng.random() < 0.5 else -v for v in vars_])
    return Instance.from_raw(n, raw)


def mask_hex(mask: int) -> str:
    return f"0x{mask:02X}"


def build_report(
    *,
    instance: Instance,
    source: str,
    engine_verdict: str,
    empty_triple: Sequence[int] | None,
    cubes: Iterable[tuple[Sequence[int], int]],
    stats: dict[str, int],
    oracle_verdict: str | None,
    oracle_agrees: bool | None,
    assignment: dict[int, bool] | None,
    assignment_verified: bool | None,
    order: str,
    seeds: dict[str, Any],
    unconstrained_vars: Sequence[int] = (),
) -> dict[str, Any]:
    """Assemble the run-report document (see README for the schema)."""
    return {
        "tool": "satprop",
        "version": __version__,
        "source": source,
        "instance": {
            "num_vars": instance.num_vars,
            "num_clauses": len(instance.clauses),
            "tautologies_dropped": instance.tautologies_dropped,
            "has_empty_clause": instance.has_empty_clause,
            "unconstrained_vars": list(unconstrained_vars),
        },
        "order": order,
        "seeds": seeds,
        "engine_verdict": engine_verdict,
        "empty_triple": list(empty_triple) if empty_triple is not None else None,
        "oracle_verdict": oracle_verdict,
        "oracle_agrees": oracle_agrees,
        "assignment": (
            {str(v): val for v, val in sorted(assignment.items())}
            if assignment is not None
            else None
        ),
        "assignment_verified": assignment_verified,
        "cubes": [
            {"triple": list(triple), "mask": mask_hex(mask)}
            for triple, mask in cubes
        ],
        "stats": stats,
    }


def write_report(report: dict[str, Any]) -> str:
    """Serialize a report deterministically (sorted keys, 2-space indent)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
