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
from operator import itemgetter
from typing import Any, Iterable, Sequence

from . import __version__
from .clausal import EMPTY, TAUTOLOGY, Clause, Instance, canonicalize

_TOKEN = re.compile(r"\S+")

# The most variables a problem line or a --gen spec may declare.  Extraction
# and the report are sized by the declared count, not by the clauses: at
# 2**20 variables and one clause `solve --out` peaks near 390 MB and writes
# a 37 MB report, and both grow in proportion to the count.
MAX_VARS = 1 << 20

# The most clauses a --gen spec may ask for, as its `m` or the upper end of
# its `m` range.  The generator builds every clause first, and the memory
# and time of the clausal build, the fixpoint and the report grow with them;
# the README's `--gen` entry gives both at the largest spec.
MAX_CLAUSES = 1 << 18


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
    by 0 and may span lines.  Counts and literals are ASCII decimals: a
    sign and leading zeros are read, and `_` or a non-ASCII digit is an
    error.  A line starting with '%' ends the data, as in the SATLIB
    benchmark files, whose '%' line is followed by a stray '0'.
    Header/clause count mismatch and dropped tautologies are warnings;
    out-of-range literals, missing header, a header declaring more than
    `MAX_VARS` variables, and clauses wider than 3 distinct variables are
    errors.  One leading byte-order mark is dropped.

    The text is read once, into one `_Reader`: a line at a time up to the
    problem line, then in chunks of about `_CHUNK` characters that end at a
    line whose last token is 0.  `_Reader.read_bulk` reads a chunk of
    clean 3-literal clauses; any other chunk (one with a comment line, a
    clause of another width, a repeated variable, or anything that needs a
    diagnostic) goes to `_Reader.read_lines` alone, which gives every
    diagnostic, and the next chunk tries the bulk step again.  Either way
    each clause is canonicalized once.
    """
    text = text.removeprefix("\ufeff")
    reader = _Reader()
    start = 0
    while reader.num_vars is None and not reader.ended and start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        reader.read_lines(text[start:end])
        start = end
    while not reader.ended and start < len(text):
        match = _CLAUSE_END.search(text, start + _CHUNK)
        end = match.end() if match else len(text)
        chunk = text[start:end]
        start = end
        if not reader.read_bulk(chunk):
            reader.read_lines(chunk)
    return reader.result(text)


# The line breaks that `str.splitlines` knows besides "\n" and "\r", each
# looked for with `in`, which finds one character at memchr speed; a regex
# character class is slower than `splitlines` itself.
_OTHER_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# The end of a line whose last token is 0, where a chunk of clause data may
# end without cutting a clause.
_CLAUSE_END = re.compile(r"(?<!\S)0[^\S\n]*\n")
# Characters of clause data checked and converted per step, rounded up to
# the end of a line that ends a clause: one `split` of all the data would
# hold a string for each of its tokens at once, which at 2**18 clauses
# takes the parse's peak (by tracemalloc) from 50 to 83 MB.
_CHUNK = 1 << 12


class _Reader:
    """The state of one parse, carried from chunk to chunk: the counts, the
    clauses so far, the pending clause and where it starts, the empty-clause
    and tautology counts, and the diagnostics."""

    def __init__(self) -> None:
        self.num_vars: int | None = None
        self.declared = 0
        self.clauses: list[Clause] = []
        self.empty_clauses = 0
        self.tautologies = 0
        self.pending: list[int] = []
        # where the pending clause starts: (line number, line, token index)
        self.pending_start: tuple[int, str, int] | None = None
        self.diagnostics: list[ParseDiagnostic] = []
        self.lineno = 1  # the number of the next line to read
        self.ended = False  # at a '%' line, or at clause data before the problem line
        self.headless = False  # at clause data before the problem line

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, col, message, "error"))

    def warning(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, col, message, "warning"))

    def read_bulk(self, chunk: str) -> bool:
        """Read a chunk of clean 3-SAT clause data and say True; say False,
        and change nothing, for any other chunk or while a clause is pending.

        The chunk's lines must end at "\n" or "\r\n" only.  Up to a line
        that starts with '%', which ends the data as in `read_lines`, the
        chunk must be ASCII without `_`, and its tokens, converted by
        `split` and `map(int, ...)`, must be clauses of exactly three
        literals: every fourth token is 0 and no other is.  A clause is
        sorted by variable if its variables do not ascend.  A comment line,
        a token that is not an integer, a clause that is not 3 literals
        wide or repeats a variable, and an out-of-range literal decline the
        chunk."""
        if (self.pending or any(map(chunk.__contains__, _OTHER_BREAKS))
                or "\r" in chunk and chunk.count("\r") != chunk.count("\r\n")):
            return False
        data, ended = chunk, "%" in chunk
        if ended:
            cut = data.rfind("\n", 0, data.index("%")) + 1
            if not data[cut:].lstrip().startswith("%"):  # a '%' inside a line
                return False
            data = data[:cut]
        if not data.isascii() or "_" in data:
            return False
        try:
            ints = list(map(int, data.split()))
        except ValueError:  # a comment or problem line, or a bad token
            return False
        if len(ints) & 3 or not ints.count(0) == ints[3::4].count(0) == len(ints) >> 2:
            return False
        clauses = list(zip(ints[0::4], ints[1::4], ints[2::4]))
        for k, (a, b, c) in enumerate(clauses):
            if not abs(a) < abs(b) < abs(c):
                a, b, c = clauses[k] = tuple(sorted((a, b, c), key=abs))
                if not 0 < abs(a) < abs(b) < abs(c):  # a repeated variable
                    return False
        # the last variable of a sorted clause is its largest
        assert self.num_vars is not None
        if max(map(abs, map(itemgetter(2), clauses)), default=0) > self.num_vars:
            return False
        self.clauses += clauses
        self.lineno += chunk.count("\n")
        self.ended = ended
        return True

    def read_lines(self, text: str) -> None:
        """Read the lines of `text` one at a time and token by token, with a
        positioned diagnostic for every fault, up to the end of the text or
        of the data: a '%' line or clause data before the problem line.
        Each clause is closed by `_finish_clause`, so each is canonicalized
        once and its diagnostics point at its first token."""
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=self.lineno):
            stripped = line.lstrip()
            if not stripped or stripped.startswith("c"):
                continue
            if stripped.startswith("%"):  # SATLIB end-of-data trailer
                self.ended = True
                return
            if stripped.startswith("p"):
                self._problem_line(lineno, line.index("p") + 1, stripped)
                continue
            num_vars = self.num_vars
            if num_vars is None:
                self.error(*_position(lineno, line, 0), "clause data before problem line")
                self.ended = self.headless = True
                return
            for k, token in enumerate(stripped.split()):
                try:
                    lit = _decimal(token)
                except ValueError:
                    self.error(*_position(lineno, line, k),
                               f"not an integer literal: {token!r}")
                    continue
                if lit == 0:
                    self._finish_clause(self.pending_start or (lineno, line, k))
                elif abs(lit) > num_vars:
                    self.error(*_position(lineno, line, k),
                               f"literal {lit} out of range for {num_vars} variables")
                else:
                    if self.pending_start is None:
                        self.pending_start = (lineno, line, k)
                    self.pending.append(lit)
        self.lineno += len(lines)

    def _problem_line(self, lineno: int, col: int, stripped: str) -> None:
        """Read the counts of a problem line, the first `p` of which is at
        column `col`."""
        if self.num_vars is not None:
            self.error(lineno, col, "duplicate problem line")
            return
        parts = stripped.split()
        if len(parts) != 4 or parts[1] != "cnf":
            self.error(lineno, col, f"malformed problem line: {stripped!r}")
            return
        try:
            num_vars, declared = _decimal(parts[2]), _decimal(parts[3])
        except ValueError:
            self.error(lineno, col, f"non-numeric counts in problem line: {stripped!r}")
            return
        if num_vars < 0 or declared < 0:
            self.error(lineno, col, "negative counts in problem line")
        elif num_vars > MAX_VARS:
            self.error(lineno, col, f"problem line declares {num_vars} variables, "
                                    f"more than {MAX_VARS}")
        else:
            self.num_vars, self.declared = num_vars, declared

    def _finish_clause(self, start: tuple[int, str, int]) -> None:
        """Close the pending clause, whose first token (or terminating 0,
        for an empty clause) is at `start`."""
        literals, num_vars = self.pending, self.num_vars
        assert num_vars is not None
        self.pending, self.pending_start = [], None
        if len(literals) > 3:
            width = len({abs(lit) for lit in literals})
            if width > 3:
                self.error(*_position(*start),
                           f"clause has {width} distinct variables; this tool is 3SAT-only")
                return
        result = canonicalize(literals, num_vars)
        if result is TAUTOLOGY:
            self.tautologies += 1
            self.warning(*_position(*start), "tautological clause dropped")
        elif result is EMPTY:
            self.empty_clauses += 1
            self.warning(*_position(*start),
                         "empty clause: instance is trivially unsatisfiable")
        else:
            self.clauses.append(result)

    def result(self, text: str) -> ParseResult:
        """The result once `text` has been read: the diagnostics of its end,
        on the line after its last "\n", and the instance unless there is
        an error."""
        if self.num_vars is None:
            if not self.headless:
                self.error(text.count("\n") + 1, 1, "missing problem line")
            return ParseResult(None, self.diagnostics)
        if self.pending_start is not None:
            self.error(*_position(*self.pending_start), "clause not terminated by 0")
        found = len(self.clauses) + self.empty_clauses + self.tautologies
        if found != self.declared:
            self.warning(text.count("\n") + 1, 1,
                         f"header declares {self.declared} clauses, found {found}")
        if any(d.severity == "error" for d in self.diagnostics):
            return ParseResult(None, self.diagnostics)
        return ParseResult(Instance(self.num_vars, tuple(self.clauses),
                                    self.empty_clauses > 0, self.tautologies),
                           self.diagnostics)


def _decimal(token: str) -> int:
    """An ASCII decimal integer, with an optional sign and leading zeros
    (`+1`, `01`).  `int` alone also takes `_` between digits and non-ASCII
    digits (`1_0`, `１`), which DIMACS does not."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


def _position(lineno: int, line: str, k: int) -> tuple[int, int]:
    """Line number and 1-based column of the k-th token of a line.  Columns
    are worked out only for diagnostics, so clean lines are just split."""
    match = next(islice(_TOKEN.finditer(line), k, None))
    return lineno, match.start() + 1


def emit_dimacs(instance: Instance) -> str:
    """Canonical emission: sorted literals, one clause per line, and a
    line `0` for the empty clause.  Parsing the output reproduces the
    instance's `num_vars`, `clauses` and `has_empty_clause`; a parse's
    dropped tautologies are not emitted, so its `tautologies_dropped` reads
    0 again."""
    count = len(instance.clauses) + (1 if instance.has_empty_clause else 0)
    lines = [f"p cnf {instance.num_vars} {count}"]
    for clause in instance.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    if instance.has_empty_clause:
        lines.append("0")
    return "\n".join(lines) + "\n"


def gen_random_3sat(n: int, m: int, seed: int) -> Instance:
    """Uniform random 3SAT: each clause picks 3 distinct variables, sorts
    them ascending, then draws one polarity per variable with
    rng.random() < 0.5 meaning positive.  Duplicate clauses are permitted.
    Deterministic for a fixed seed, and m takes the first m clauses of the
    seed's stream.

    The variables are the stream of rng.sample(range(1, n + 1), 3), drawn
    through rng.getrandbits as sample draws them in CPython 3.10-3.13: an
    index below k is getrandbits(k.bit_length()), redrawn while it is >= k.
    For n <= 21 sample takes its pool method: indices below n, n - 1 and
    n - 2, each drawn item's slot refilled from the end of the pool.  Above
    21 it takes its set method: three indices below n, each redrawn while
    it repeats an earlier one."""
    if n < 3:
        raise ValueError(f"need at least 3 variables, got {n}")
    rng = random.Random(seed)
    bits, coin = rng.getrandbits, rng.random
    pool = n <= 21
    k0, k1, k2 = n.bit_length(), (n - 1).bit_length(), (n - 2).bit_length()
    clauses = []
    for _ in range(m):
        i = bits(k0)
        while i >= n:
            i = bits(k0)
        if pool:  # after i, slot i holds n; after j, slot j holds slot n - 2
            j = bits(k1)
            while j >= n - 1:
                j = bits(k1)
            k = bits(k2)
            while k >= n - 2:
                k = bits(k2)
            a = i + 1
            b = n if j == i else j + 1
            if k == j:
                c = n if i == n - 2 else n - 1
            elif k == i:
                c = n
            else:
                c = k + 1
        else:
            j = bits(k0)
            while j >= n or j == i:
                j = bits(k0)
            k = bits(k0)
            while k >= n or k == i or k == j:
                k = bits(k0)
            a, b, c = i + 1, j + 1, k + 1
        if a > b:  # distinct sorted variables: canonical as built
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        clauses.append((a if coin() < 0.5 else -a, b if coin() < 0.5 else -b,
                        c if coin() < 0.5 else -c))
    return Instance(n, tuple(clauses))


def mask_hex(mask: int) -> str:
    return f"0x{mask:02X}"


class _Cube(dict):
    """A cube entry as `_cube_entries` builds it, from a `mask_hex` string
    and a triple of ints; `to_json` writes it as `_json` would a dict."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        i, j = nl + "  ", nl + "    "
        a, b, c = self["triple"]
        return (f'{{{i}"mask": {_string(self["mask"])},{i}"triple": '
                f'[{j}{a},{j}{b},{j}{c}{i}]{nl}}}')


class _Record(dict):
    """A trace record as `build_trace` builds it, from two `mask_hex`
    strings, an int and an edge of two int triples; `to_json` writes it as
    `_json` would a dict."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        i, j = nl + "  ", nl + "    "
        k = j + "  "
        (a, b, c), (d, e, f) = self["edge"]
        return (f'{{{i}"after": {_string(self["after"])},{i}"before": '
                f'{_string(self["before"])},{i}"cells_removed": {self["cells_removed"]},'
                f'{i}"edge": [{j}[{k}{a},{k}{b},{k}{c}{j}],'
                f'{j}[{k}{d},{k}{e},{k}{f}{j}]{i}]{nl}}}')


class _Assignment(dict):
    """A report's assignment as `build_report` builds it, from variable ids
    written as decimal strings to bools; `to_json` writes it as `_json`
    would a dict, in json's order of string keys."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        if not self:
            return "{}"
        i = nl + "  "
        lines = (f'"{key}": {"true" if value else "false"}'
                 for key, value in sorted(self.items()))
        return f"{{{i}{f',{i}'.join(lines)}{nl}}}"


class _Ints(list):
    """A list of ints, such as a report's `unconstrained_vars`; `to_json`
    writes it as `_json` would a list."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        if not self:
            return "[]"
        i = nl + "  "
        return f"[{i}{f',{i}'.join(map(str, self))}{nl}]"


def _cube_entries(cubes: Iterable[tuple[Sequence[int], int]]) -> list[dict[str, Any]]:
    return [_Cube(triple=list(triple), mask=mask_hex(mask)) for triple, mask in cubes]


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
    timings: dict[str, float] | None = None,
) -> dict[str, Any]:
    """Assemble the run-report document (see README for the schema).  The
    `timings` block is added only when given."""
    report = {
        "tool": "satprop",
        "version": __version__,
        "source": source,
        "instance": {
            "num_vars": instance.num_vars,
            "num_clauses": len(instance.clauses),
            "tautologies_dropped": instance.tautologies_dropped,
            "has_empty_clause": instance.has_empty_clause,
            "unconstrained_vars": _Ints(instance.unconstrained_vars()),
        },
        "order": order,
        "seeds": seeds,
        "engine_verdict": engine_verdict,
        "empty_triple": list(empty_triple) if empty_triple is not None else None,
        "oracle_verdict": oracle_verdict,
        "oracle_agrees": oracle_agrees,
        "assignment": (
            _Assignment({str(v): val for v, val in assignment.items()})
            if assignment is not None
            else None
        ),
        "assignment_verified": assignment_verified,
        "cubes": _cube_entries(cubes),
        "stats": stats,
    }
    if timings is not None:
        report["timings"] = timings
    return report


def build_trace(
    records: Iterable[Any], cubes: Iterable[tuple[Sequence[int], int]]
) -> dict[str, Any]:
    """Assemble the trace document: one record per change-making edge
    application, from `propagate.TraceRecord`s, and the final cubes."""
    return {
        "tool": "satprop",
        "version": __version__,
        "records": [
            _Record(edge=[list(rec.edge[0]), list(rec.edge[1])],
                    before=mask_hex(rec.before), after=mask_hex(rec.after),
                    cells_removed=rec.cells_removed)
            for rec in records
        ],
        "final_cubes": _cube_entries(cubes),
    }


# json's text for null, false and true: a json.dumps call costs microseconds
# and a report may hold thousands of these
_CONSTANTS = {value: json.dumps(value) for value in (None, False, True)}
# json's own string escaper, the one json.dumps calls for a str
_string = json.encoder.encode_basestring_ascii
# the builders' entry types, which write themselves
_SELF_WRITING = frozenset({_Cube, _Record, _Assignment, _Ints})


def write_report(doc: Any) -> str:
    """Serialize a document deterministically: the text of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.

    json indents in pure Python, so the containers are walked here instead.
    The cube entries, trace records, assignments and int lists that the
    builders above make write themselves, each in one string operation,
    and ints and constants are written as json writes them; every other
    value, a plain dict or list of an entry's shape too, and every string
    and key, is written by json."""
    return _json(doc, "\n") + "\n"


def _json(value: Any, nl: str) -> str:
    """`value` as JSON on a line whose indent `nl` (a newline and spaces)
    gives; nested lines are indented two more spaces per level."""
    kind = type(value)
    if kind in _SELF_WRITING:
        return value.to_json(nl)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if kind is int:
        return str(value)  # as json writes an int, not a bool or subclass
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        items = (_json(item, inner) for item in value)
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = (f"{_key(key)}: {_json(item, inner)}"
                 for key, item in sorted(value.items()))
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _string(key)
    # json writes an int, float, bool or None key as its JSON text, quoted,
    # and raises TypeError for any other type: '{"<key>": 0}'
    return json.dumps({key: 0})[1:-4]
