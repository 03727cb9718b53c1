"""3SAT instances and their clausal partition.

An instance is a conjunction of disjunctive clauses of at most three
literals.  A clause is a tuple of DIMACS literals, signed variable ids
sorted by variable: `canonicalize` makes one from raw literals, and
`Instance` checks that every clause it holds has that form.  The clausal
partition maps canonical variable triples to 8-cell cubes; each clause
marks RED the cells that falsify it (for a clause on three distinct
variables that is exactly the complement assignment).  Clauses with fewer
than three distinct variables are hosted on a triple padded with the
smallest absent variable ids, so every cube stays 3-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

Triple = tuple[int, int, int]


class Degenerate(Enum):
    """Outcomes of canonicalization that are not ordinary clauses."""

    TAUTOLOGY = "tautology"
    EMPTY = "empty"


TAUTOLOGY = Degenerate.TAUTOLOGY
EMPTY = Degenerate.EMPTY


# One to three nonzero DIMACS literals, sorted by variable, one per variable
Clause = tuple[int, ...]


def _top_var(clause: Clause) -> int:
    """The last variable of `clause` if its variables ascend strictly from
    1, so that no literal is 0 or repeats a variable; else 0."""
    top = 0
    for lit in clause:
        var = abs(lit)
        if var <= top:
            return 0
        top = var
    return top


def canonicalize(literals: Iterable[int], num_vars: int) -> Clause | Degenerate:
    """Merge duplicate literals, sort by variable, detect tautologies and
    the empty clause.  Raises on literal 0 and on variable ids outside
    1..num_vars, anywhere in the clause, tautology or not.  The width is not
    checked here: a result of more than three literals is rejected by
    `Instance`."""
    clause = tuple(literals)
    if 0 < _top_var(clause) <= num_vars:
        return clause  # already canonical
    polarity: dict[int, int] = {}  # variable -> its first literal
    tautology = False
    for lit in clause:
        if lit == 0:
            raise ValueError("literal 0 is reserved as clause terminator")
        var = abs(lit)
        if var > num_vars:
            raise ValueError(f"variable u{var} exceeds declared count {num_vars}")
        if polarity.setdefault(var, lit) != lit:
            tautology = True
    if tautology:
        return TAUTOLOGY
    if not polarity:
        return EMPTY
    return tuple([polarity[v] for v in sorted(polarity)])


@dataclass(frozen=True)
class Instance:
    """A 3SAT instance E = (U, C) after canonicalization."""

    num_vars: int
    clauses: tuple[Clause, ...]
    has_empty_clause: bool = False
    tautologies_dropped: int = 0

    def __post_init__(self) -> None:
        """Every clause is canonical: one to three nonzero literals over
        strictly ascending variables, none past num_vars.  A 3-literal
        clause that passes one chained comparison is canonical; any other
        clause goes through the checks that name what is wrong."""
        num_vars = self.num_vars
        for clause in self.clauses:
            if len(clause) == 3:
                a, b, c = clause
                if 0 < abs(a) < abs(b) < abs(c) <= num_vars:
                    continue
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause width {len(clause)} outside 1..3")
            var = _top_var(clause)
            if not var:
                raise ValueError(
                    f"clause {clause}: literals must be nonzero, sorted by "
                    f"variable and duplicate-free"
                )
            if var > num_vars:
                raise ValueError(f"variable u{var} exceeds num_vars {num_vars}")

    def constrained_vars(self) -> tuple[int, ...]:
        return tuple(sorted(self._variables()))

    def unconstrained_vars(self) -> tuple[int, ...]:
        constrained = self._variables()
        return tuple(v for v in range(1, self.num_vars + 1) if v not in constrained)

    def _variables(self) -> set[int]:
        """The variables the clauses mention."""
        seen: set[int] = set()
        for clause in self.clauses:
            seen.update(map(abs, clause))
        return seen

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        if self.has_empty_clause:
            return False
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


def host_triple(clause: Clause, num_vars: int) -> Triple:
    """The canonical triple hosting a clause: its own variables, padded with
    the smallest absent ids.  Padding past num_vars uses phantom ids."""
    vars_ = set(map(abs, clause))
    triple = sorted(vars_)
    candidate = 1
    while len(triple) < 3:
        while candidate in vars_:
            candidate += 1
        triple.append(candidate)
        vars_.add(candidate)
    return tuple(sorted(triple))  # type: ignore[return-value]


# _CELLS[pos][bit]: the cells of a triple whose coordinate at position pos
# equals bit.  A literal is falsified exactly where its variable is 1 if the
# literal is negative and 0 if it is positive, so a clause's falsifying cells
# are the AND of _CELLS[pos][lit < 0] over its literals.
_CELLS = tuple(
    tuple(sum(1 << cell for cell in range(8) if cell >> pos & 1 == bit)
          for bit in (0, 1))
    for pos in range(3)
)


def _forbidden_mask(clause: Clause, triple: Triple) -> int:
    """Mask of the host triple's cells whose assignments falsify the clause."""
    mask = 0xFF
    for lit in clause:
        try:
            pos = triple.index(abs(lit))
        except ValueError:
            raise ValueError(f"variable u{abs(lit)} not in triple {triple}") from None
        mask &= _CELLS[pos][lit < 0]
    return mask


@dataclass
class ClausalState:
    """Mapping from canonical variable triples to the GREEN masks of their
    8-cell cubes: bit c is set when cell c is GREEN, with cells indexed as
    in `bitspace` (the triple's variable at position i gives bit 2**i of
    the cell index)."""

    cubes: dict[Triple, int]

    def triples(self) -> list[Triple]:
        return sorted(self.cubes)


@dataclass
class ClausalBuild:
    """Result of building the clausal partition from an instance."""

    state: ClausalState


def build_clausal_partition(instance: Instance) -> ClausalBuild:
    """Group clauses by host triple; each cube starts all-GREEN and loses
    the forbidden cells of every clause it hosts.  A clause of three
    literals is its own host and falsified by one cell, whose bit i is set
    when its i-th literal is negative; a shorter one goes through
    `host_triple` and `_forbidden_mask`.  An empty clause hosts no cube; the
    instance flags it (`Instance.has_empty_clause`)."""
    cubes: dict[Triple, int] = {}
    get = cubes.get
    for clause in instance.clauses:
        if len(clause) == 3:
            a, b, c = clause
            triple = (abs(a), abs(b), abs(c))
            cubes[triple] = get(triple, 0xFF) & ~(1 << ((a < 0) | (b < 0) << 1 | (c < 0) << 2))
        else:
            triple = host_triple(clause, instance.num_vars)
            cubes[triple] = get(triple, 0xFF) & ~_forbidden_mask(clause, triple)
    state = ClausalState({triple: cubes[triple] for triple in sorted(cubes)})
    return ClausalBuild(state)

