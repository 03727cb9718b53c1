"""3SAT instances and their clausal partition.

An instance is a conjunction of disjunctive clauses of at most three
literals.  The clausal partition maps canonical variable triples to 8-cell
cubes; each clause marks RED the cells that falsify it (for a clause on
three distinct variables that is exactly the complement assignment).
Clauses with fewer than three distinct variables are hosted on a triple
padded with the smallest absent variable ids, so every cube stays
3-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

Triple = tuple[int, int, int]


class Degenerate(Enum):
    """Outcomes of canonicalization that are not ordinary clauses."""

    TAUTOLOGY = "tautology"
    EMPTY = "empty"


TAUTOLOGY = Degenerate.TAUTOLOGY
EMPTY = Degenerate.EMPTY


@dataclass(frozen=True)
class Literal:
    variable: int
    negated: bool

    def __post_init__(self) -> None:
        if self.variable < 1:
            raise ValueError(f"variable id must be >= 1, got {self.variable}")

    def as_int(self) -> int:
        return -self.variable if self.negated else self.variable

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("literal 0 is reserved as clause terminator")
        return cls(abs(lit), lit < 0)


@dataclass(frozen=True)
class Clause:
    """Canonical disjunctive clause: literals sorted by variable, no
    duplicates, not tautological."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.literals) <= 3:
            raise ValueError(f"clause width {len(self.literals)} outside 1..3")
        vars_ = [lit.variable for lit in self.literals]
        if vars_ != sorted(set(vars_)):
            raise ValueError("clause literals must be sorted and duplicate-free")

    def variables(self) -> tuple[int, ...]:
        return tuple(lit.variable for lit in self.literals)

    def satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        return any(
            assignment[lit.variable] != lit.negated for lit in self.literals
        )

    def as_ints(self) -> tuple[int, ...]:
        return tuple(lit.as_int() for lit in self.literals)


# Every clause that holds a literal shares one immutable Literal for it, built
# (and checked) the first time a clause needs it.  The table is emptied when
# it reaches _LITERALS_MAX entries, so it keeps few literals alive after the
# instances that used them are gone.
_LITERALS: dict[int, Literal] = {}
_LITERALS_MAX = 1 << 16


def _shared_literal(lit: int) -> Literal:
    shared = _LITERALS.get(lit)
    if shared is None:
        if len(_LITERALS) >= _LITERALS_MAX:
            _LITERALS.clear()
        shared = _LITERALS[lit] = Literal.from_int(lit)
    return shared


def canonicalize(
    literals: Iterable[int | Literal], num_vars: int
) -> Clause | Degenerate:
    """Merge duplicate literals, sort by variable, detect tautologies and
    the empty clause.  Raises on variable ids outside 1..num_vars."""
    polarity: dict[int, int] = {}  # variable -> its literal, as an int
    for raw in literals:
        if isinstance(raw, Literal):
            var, lit = raw.variable, raw.as_int()
        elif raw == 0:
            raise ValueError("literal 0 is reserved as clause terminator")
        else:
            var, lit = abs(raw), raw
        if var > num_vars:
            raise ValueError(f"variable u{var} exceeds declared count {num_vars}")
        if polarity.setdefault(var, lit) != lit:
            return TAUTOLOGY
    if not polarity:
        return EMPTY
    return Clause(tuple([_shared_literal(polarity[v]) for v in sorted(polarity)]))


@dataclass(frozen=True)
class Instance:
    """A 3SAT instance E = (U, C) after canonicalization."""

    num_vars: int
    clauses: tuple[Clause, ...]
    has_empty_clause: bool = False
    tautologies_dropped: int = 0

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.variable > self.num_vars:
                    raise ValueError(
                        f"variable u{lit.variable} exceeds num_vars {self.num_vars}"
                    )

    @classmethod
    def from_raw(
        cls, num_vars: int, raw_clauses: Iterable[Sequence[int]]
    ) -> "Instance":
        clauses = []
        tautologies = 0
        has_empty = False
        for raw in raw_clauses:
            result = canonicalize(raw, num_vars)
            if result is TAUTOLOGY:
                tautologies += 1
            elif result is EMPTY:
                has_empty = True
            else:
                clauses.append(result)
        return cls(num_vars, tuple(clauses), has_empty, tautologies)

    def constrained_vars(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for clause in self.clauses:
            seen.update(clause.variables())
        return tuple(sorted(seen))

    def unconstrained_vars(self) -> tuple[int, ...]:
        constrained = set(self.constrained_vars())
        return tuple(v for v in range(1, self.num_vars + 1) if v not in constrained)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        if self.has_empty_clause:
            return False
        return all(clause.satisfied_by(assignment) for clause in self.clauses)


def host_triple(clause: Clause, num_vars: int) -> Triple:
    """The canonical triple hosting a clause: its own variables, padded with
    the smallest absent ids.  Padding past num_vars uses phantom ids."""
    if len(clause.literals) == 3:
        return clause.variables()  # type: ignore[return-value]
    vars_ = set(clause.variables())
    triple = sorted(vars_)
    candidate = 1
    while len(triple) < 3:
        while candidate in vars_:
            candidate += 1
        triple.append(candidate)
        vars_.add(candidate)
    return tuple(sorted(triple))  # type: ignore[return-value]


# _CELLS[pos][bit]: the cells of a triple whose coordinate at position pos
# equals bit.  A literal is falsified exactly where its variable equals its
# `negated` flag, so a clause's falsifying cells are the AND of
# _CELLS[pos][negated] over its literals.
_CELLS = tuple(
    tuple(sum(1 << cell for cell in range(8) if cell >> pos & 1 == bit)
          for bit in (0, 1))
    for pos in range(3)
)


def _forbidden_mask(clause: Clause, triple: Triple) -> int:
    """Mask of the host triple's cells whose assignments falsify the clause."""
    mask = 0xFF
    for lit in clause.literals:
        try:
            pos = triple.index(lit.variable)
        except ValueError:
            raise ValueError(
                f"variable u{lit.variable} not in triple {triple}"
            ) from None
        mask &= _CELLS[pos][lit.negated]
    return mask


def forbidden_cells(clause: Clause, triple: Triple) -> set[int]:
    """Cell indices of the host triple whose assignments falsify the clause:
    one cell for a 3-variable clause, 2^(3-t) for a t-variable clause."""
    mask = _forbidden_mask(clause, triple)
    return {cell for cell in range(8) if mask >> cell & 1}


@dataclass
class ClausalState:
    """Mapping from canonical variable triples to the GREEN masks of their
    8-cell cubes: bit c is set when cell c is GREEN, with cells indexed as
    in `bitspace` (the triple's variable at position i gives bit 2**i of
    the cell index)."""

    cubes: dict[Triple, int]

    def triples(self) -> list[Triple]:
        return sorted(self.cubes)

    def total_green(self) -> int:
        return sum(mask.bit_count() for mask in self.cubes.values())


@dataclass
class ClausalBuild:
    """Result of building the clausal partition from an instance."""

    state: ClausalState
    trivially_unsat: bool


def build_clausal_partition(instance: Instance) -> ClausalBuild:
    """Group clauses by host triple; each cube starts all-GREEN and loses
    the forbidden cells of every clause it hosts.  An empty clause makes
    the instance trivially unsatisfiable (flagged, not raised)."""
    cubes: dict[Triple, int] = {}
    for clause in instance.clauses:
        triple = host_triple(clause, instance.num_vars)
        cubes[triple] = cubes.get(triple, 0xFF) & ~_forbidden_mask(clause, triple)
    state = ClausalState(dict(sorted(cubes.items())))
    return ClausalBuild(state, instance.has_empty_clause)


def assignment_restriction(
    assignment: Mapping[int, bool], triple: Sequence[int]
) -> int:
    """Cell index of an assignment's restriction to a coordinate tuple."""
    cell = 0
    for i, var in enumerate(triple):
        if assignment[var]:
            cell |= 1 << i
    return cell
