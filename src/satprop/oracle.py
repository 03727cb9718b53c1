"""Independent ground truth.

Everything here recomputes results directly, deliberately avoiding the
partition-combination code it is used to check.  Only the Partition value
type is shared.

SAT decisions come from DPLL with unit propagation at every size, over
clause bitsets: bit i stands for clause i.  The search keeps each
literal's occurrence set, `alive` (the clauses not yet satisfied) and each
clause's count of free literals (0-3), bit-sliced into two ints, so
setting a literal is a few operations on ints and backtracking drops them.
It branches on the first free literal of the first unit, else of the first
2-clause, else of the first alive clause: of the first shortest clause.

The projections of the solution set onto triples and the conjunction table
come from truth tables, a mask over all assignments, since their cells are
the answer.  The join-semantics reference for the two-sided combination
enumerates every cell of both operands on each call: it collects the
shared cells that each side's GREEN cells restrict to, then keeps the
GREEN cells whose restriction the other side holds.  Only the operands'
restriction tables, with the check that their coordinates overlap and
differ, are cached, per pair of coordinate tuples; no answer is.

Size guards are hard errors, not silent truncation: decide <= 30 vars,
project <= 20, full truth-table partition <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .bitspace import Partition
from .clausal import Instance, Triple

DECIDE_LIMIT = 30
PROJECT_LIMIT = 20
TRUTH_TABLE_LIMIT = 16


@dataclass
class OracleVerdict:
    satisfiable: bool
    witness: dict[int, bool] | None


# Cells 0-7 of the column of positions 0, 1 and 2, as one byte.
_LOW_COLUMN_BYTES = (b"\xaa", b"\xcc", b"\xf0")


def _column(pos: int, n: int) -> int:
    """Bitmask over 2^n cells where bit `pos` of the cell index is 1: a byte
    pattern repeated over the 2^n / 8 bytes of the mask (little-endian, so
    cell 0 is the low bit of the first byte)."""
    if pos < 3:
        pattern = _LOW_COLUMN_BYTES[pos]
    else:  # 2^pos cells clear, then 2^pos cells set
        half = 1 << (pos - 3)
        pattern = b"\x00" * half + b"\xff" * half
    cells = 1 << n
    column = int.from_bytes(pattern * max(1, cells // (8 * len(pattern))), "little")
    return column & ((1 << cells) - 1)


def _columns(n: int) -> list[int]:
    """The columns of positions 0 .. n-1 over 2^n cells."""
    return [_column(pos, n) for pos in range(n)]


def _sat_mask(
    instance: Instance, vars_order: Sequence[int], columns: Sequence[int] | None = None
) -> int:
    """Truth-table mask over all assignments to vars_order (ascending id at
    bit position 0): bit set iff the assignment satisfies every clause.
    `columns` are the `_columns` of len(vars_order), built here if absent."""
    n = len(vars_order)
    pos = {v: i for i, v in enumerate(vars_order)}
    full = (1 << (1 << n)) - 1
    if instance.has_empty_clause:
        return 0
    if columns is None:
        columns = _columns(n)
    acc = full
    for clause in instance.clauses:
        clause_mask = 0
        for lit in clause:
            col = columns[pos[abs(lit)]]
            clause_mask |= col if lit > 0 else full ^ col
        acc &= clause_mask
        if acc == 0:
            break
    return acc


def brute_force_sat(instance: Instance) -> OracleVerdict:
    """Exact SAT decision by DPLL, with a full model when satisfiable."""
    n = instance.num_vars
    if n > DECIDE_LIMIT:
        raise ValueError(f"num_vars {n} exceeds oracle decide limit {DECIDE_LIMIT}")
    if instance.has_empty_clause:
        return OracleVerdict(False, None)
    witness = _dpll(instance.clauses, n)
    return OracleVerdict(witness is not None, witness)


def _dpll(clauses: Sequence[tuple[int, ...]], num_vars: int) -> dict[int, bool] | None:
    """DPLL with unit propagation, branching on the first free literal of
    the first shortest clause; returns a model of all of 1..num_vars or
    None."""
    occ, low, high = _encode(clauses, num_vars)
    assignment: dict[int, bool] = {}
    if not _solve(clauses, occ, (1 << len(clauses)) - 1, low, high, 0, assignment):
        return None
    for v in range(1, num_vars + 1):
        assignment.setdefault(v, False)
    return assignment


def _encode(
    clauses: Sequence[tuple[int, ...]], num_vars: int
) -> tuple[list[int], int, int]:
    """The search's starting bitsets, bit i for clause i: the occurrence
    set of each literal, at index `lit` of a list of 2*num_vars + 1 ints (a
    negative literal counts from the end), and each clause's width 1-3 as
    its bit in a low and a high int."""
    occ = [0] * (2 * num_vars + 1)
    low = high = 0
    for i, clause in enumerate(clauses):
        bit = 1 << i
        for lit in clause:
            occ[lit] |= bit
        if len(clause) != 2:
            low |= bit
        if len(clause) > 1:
            high |= bit
    return occ, low, high


def _solve(
    clauses: Sequence[tuple[int, ...]], occ: list[int], alive: int, low: int,
    high: int, fixed: int, assignment: dict[int, bool],
) -> bool:
    """Whether the `alive` clauses can be satisfied, where `low` and `high`
    hold each clause's count of free literals and bit v of `fixed` is set
    for each variable v set on this path.  Records the values it tries in
    `assignment`, which on success holds a model of the clauses."""
    while alive:
        units = alive & low & ~high
        pick = units or alive & high & ~low or alive
        for lit in clauses[(pick & -pick).bit_length() - 1]:
            if not fixed >> abs(lit) & 1:
                break
        var = abs(lit)
        fixed |= 1 << var
        if not units:  # no clause has one free literal, so none empties
            for choice in (lit, -lit):
                assignment[var] = choice > 0
                rest = alive & ~occ[choice]
                hit = occ[-choice] & rest
                if _solve(clauses, occ, rest, low ^ hit, high ^ (hit & ~low),
                          fixed, assignment):
                    return True
            del assignment[var]
            return False
        assignment[var] = lit > 0
        alive &= ~occ[lit]
        hit = occ[-lit] & alive  # these clauses lose a free literal
        if hit & low & ~high:
            return False
        low, high = low ^ hit, high ^ (hit & ~low)
    return True


def join_semantics_oracle(
    p: Partition, q: Partition
) -> tuple[Partition, Partition]:
    """Reference semantics for the two-sided combination: a cell survives
    iff it was GREEN and some GREEN cell of the other partition agrees with
    it on the shared coordinates.  Computed by direct cell enumeration of
    both operands, over cached tables of each cell's restriction to the
    shared coordinates.  Like `bitspace.bc`, it raises ValueError on
    operands with disjoint or equal coordinate tuples."""
    p_table, q_table = _restriction_tables(p.coords, q.coords)
    p_mask, q_mask = p.green_mask, q.green_mask
    p_support = q_support = 0  # the shared cells each side's GREEN cells restrict to
    for cell, bit in enumerate(p_table):
        if p_mask >> cell & 1:
            p_support |= bit
    for cell, bit in enumerate(q_table):
        if q_mask >> cell & 1:
            q_support |= bit
    p_out = q_out = 0
    for cell, bit in enumerate(p_table):
        if p_mask >> cell & 1 and q_support & bit:
            p_out |= 1 << cell
    for cell, bit in enumerate(q_table):
        if q_mask >> cell & 1 and p_support & bit:
            q_out |= 1 << cell
    return Partition(p.coords, p_out), Partition(q.coords, q_out)


@lru_cache(maxsize=None)
def _restriction_tables(
    p_coords: tuple[int, ...], q_coords: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each operand, entry `cell` is the restriction of that cell to the
    shared coordinates, as the bit of a cell index over them.  Disjoint or
    equal coordinate tuples raise ValueError, on every call: lru_cache
    caches no exception."""
    shared = tuple(sorted(set(p_coords) & set(q_coords)))
    if not shared:
        raise ValueError(
            f"disjoint coordinates: {list(p_coords)} vs {list(q_coords)}"
        )
    if p_coords == q_coords:
        raise ValueError("operands must differ in at least one coordinate")
    tables = []
    for coords in (p_coords, q_coords):
        positions = [coords.index(v) for v in shared]
        tables.append(tuple(
            1 << sum((cell >> pos & 1) << j for j, pos in enumerate(positions))
            for cell in range(1 << len(coords))
        ))
    return tables[0], tables[1]


def projected_solution_sets(
    instance: Instance, triples: Iterable[Triple]
) -> dict[Triple, set[int]]:
    """For each triple, the set of cell indices reachable as restrictions of
    satisfying assignments.  Free variables appearing only in triples (e.g.
    padding) are enumerated alongside the constrained ones."""
    triples = list(triples)
    var_set = set(instance.constrained_vars())
    for triple in triples:
        var_set.update(triple)
    vars_order = tuple(sorted(var_set))
    if len(vars_order) > PROJECT_LIMIT:
        raise ValueError(
            f"{len(vars_order)} variables exceeds projection limit {PROJECT_LIMIT}"
        )
    columns = _columns(len(vars_order))
    mask = _sat_mask(instance, vars_order, columns)
    pos = {v: i for i, v in enumerate(vars_order)}
    full = (1 << (1 << len(vars_order))) - 1
    out: dict[Triple, set[int]] = {}
    for triple in triples:
        cells = set()
        cols = [columns[pos[v]] for v in triple]
        for cell in range(8):
            sel = mask
            for i, col in enumerate(cols):
                sel &= col if cell >> i & 1 else full ^ col
                if sel == 0:
                    break
            if sel:
                cells.add(cell)
        out[triple] = cells
    return out


def conjunction_truth_table(instance: Instance) -> Partition:
    """The full-space partition whose GREEN cells are exactly the satisfying
    assignments, over the constrained variables (all variables if the
    instance has no clauses)."""
    coords = instance.constrained_vars()
    if not coords:
        if instance.num_vars == 0:
            raise ValueError("no variables to build a truth table over")
        coords = tuple(range(1, instance.num_vars + 1))
    if len(coords) > TRUTH_TABLE_LIMIT:
        raise ValueError(
            f"{len(coords)} constrained variables exceeds truth-table limit "
            f"{TRUTH_TABLE_LIMIT}"
        )
    return Partition(coords, _sat_mask(instance, coords))
