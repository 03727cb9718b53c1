"""Colored partitions of Z2 vector spaces and their combination operators.

A Partition colors every point of a small Boolean cube GREEN (allowed) or
RED (disallowed).  Two cellwise operators exist: WS keeps GREEN alive
(disjunction) and BS keeps RED alive (conjunction).  On top of those sit
the structural operations: projection onto a coordinate subset
(GREEN-preserving fold), cylindrical lifting, imposition, the one-sided
combination of overlapping cubes (bc_uni) and the two-sided one (bc, the
pair of one-sided ones), and the assembly of several partitions into one
on the union of their coordinates.

Cell indexing convention (used everywhere in this package): coordinates
are kept sorted ascending; the coordinate at position i contributes bit
2**i of the cell index, with F=0 and T=1.  Position 0 is the least
significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

MAX_DIM = 16


class Color(Enum):
    RED = 0
    GREEN = 1


RED = Color.RED
GREEN = Color.GREEN


def ws(a: Color, b: Color) -> Color:
    """GREEN-preserving scalar operator (disjunction). RED is its identity."""
    return GREEN if (a is GREEN or b is GREEN) else RED


def bs(a: Color, b: Color) -> Color:
    """RED-preserving scalar operator (conjunction). GREEN is its identity."""
    return RED if (a is RED or b is RED) else GREEN


@dataclass(frozen=True)
class Partition:
    """An ordered coordinate tuple plus a GREEN-cell bitmask over 2^k cells.

    `coords` is validated once per distinct tuple, by the cached
    `_mask_bound` (so it must be hashable); `green_mask` on every
    construction."""

    coords: tuple[int, ...]
    green_mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.green_mask < _mask_bound(self.coords):
            raise ValueError(
                f"mask 0x{self.green_mask:X} too wide for {len(self.coords)} coordinates")

    @classmethod
    def all_green(cls, coords: Sequence[int]) -> "Partition":
        coords = tuple(coords)
        return cls(coords, (1 << (1 << len(coords))) - 1)


@lru_cache(maxsize=None)
def _mask_bound(coords: tuple[int, ...]) -> int:
    """1 << 2^k for a valid coordinate tuple of length k; raises ValueError
    for an invalid one.  lru_cache caches no exception, so an invalid tuple
    raises on every call."""
    k = len(coords)
    if not 1 <= k <= MAX_DIM:
        raise ValueError(f"dimension {k} outside 1..{MAX_DIM}")
    if any(c < 1 for c in coords):
        raise ValueError(f"coordinates must be positive: {coords}")
    if list(coords) != sorted(set(coords)):
        raise ValueError(f"coordinates must be strictly ascending: {coords}")
    return 1 << (1 << k)


@lru_cache(maxsize=None)
def _fiber_masks(coords: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    """For each cell of `sub`, the mask of `coords` cells restricting to it."""
    positions = [coords.index(v) for v in sub]
    fibers = [0] * (1 << len(sub))
    for cell in range(1 << len(coords)):
        idx = 0
        for j, pos in enumerate(positions):
            if cell >> pos & 1:
                idx |= 1 << j
        fibers[idx] |= 1 << cell
    return tuple(fibers)


def _project_mask(mask: int, coords: tuple[int, ...], sub: tuple[int, ...]) -> int:
    fibers = _fiber_masks(coords, sub)
    out = 0
    for idx, fiber in enumerate(fibers):
        if mask & fiber:
            out |= 1 << idx
    return out


def _lift_mask(mask: int, sub: tuple[int, ...], coords: tuple[int, ...]) -> int:
    fibers = _fiber_masks(coords, sub)
    out = 0
    for idx, fiber in enumerate(fibers):
        if mask >> idx & 1:
            out |= fiber
    return out


def project(p: Partition, target: Sequence[int]) -> Partition:
    """GREEN-preserving fold onto `target`: a target cell is GREEN iff any
    cell in its fiber over the dropped coordinates is GREEN."""
    target = tuple(sorted(target))
    if not target:
        raise ValueError("projection target must be nonempty")
    if not set(target) <= set(p.coords):
        raise ValueError(f"target {list(target)} not a subset of {list(p.coords)}")
    if target == p.coords:
        return p
    return Partition(target, _project_mask(p.green_mask, p.coords, target))


def lift(p: Partition, target: Sequence[int]) -> Partition:
    """Cylindrical extension: each target cell takes the color of its
    restriction to p's coordinates."""
    target = tuple(sorted(target))
    if not set(p.coords) <= set(target):
        raise ValueError(f"target {list(target)} not a superset of {list(p.coords)}")
    if target == p.coords:
        return p
    if len(target) > MAX_DIM:
        raise ValueError(f"lift target dimension {len(target)} exceeds {MAX_DIM}")
    return Partition(target, _lift_mask(p.green_mask, p.coords, target))


def impose(p: Partition, q: Partition) -> Partition:
    """Clear every GREEN cell of p whose restriction to q's coordinates is
    RED in q.  Never turns a cell GREEN."""
    if not set(q.coords) <= set(p.coords):
        raise ValueError(f"{list(q.coords)} not a subset of {list(p.coords)}")
    lifted = _lift_mask(q.green_mask, q.coords, p.coords)
    return Partition(p.coords, p.green_mask & lifted)


def bc(p: Partition, q: Partition) -> tuple[Partition, Partition]:
    """Two-sided combination of overlapping cubes, (bc_uni(p, q),
    bc_uni(q, p)).  That is the paper's definition, the meet of the two
    projections onto the shared coordinates imposed back on each operand:
    an operand lies inside the lift of its own projection, so imposing the
    meet on it clears the cells that imposing the other's projection does."""
    return bc_uni(p, q), bc_uni(q, p)


def bc_uni(p: Partition, q: Partition) -> Partition:
    """One-sided combination: q's projection onto the shared coordinates
    imposed on p, in one pass over the shared cells: p keeps its fiber
    over a shared cell where q's fiber over it holds a GREEN cell.  The
    fiber pairs of two coordinate tuples are read from a cache.  q is not
    modified."""
    q_mask = q.green_mask
    keep = 0
    for p_fiber, q_fiber in _shared_fibers(p.coords, q.coords):
        if q_mask & q_fiber:
            keep |= p_fiber
    return Partition(p.coords, p.green_mask & keep)


@lru_cache(maxsize=None)
def _shared_fibers(
    p_coords: tuple[int, ...], q_coords: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """For each cell of the coordinates two operands of bc_uni share, the
    pair (p fiber, q fiber) of the cells of each operand restricting to it.
    Disjoint or equal coordinate tuples raise ValueError, on every call:
    lru_cache caches no exception."""
    shared = tuple(sorted(set(p_coords) & set(q_coords)))
    if not shared:
        raise ValueError(
            f"disjoint coordinates: {list(p_coords)} vs {list(q_coords)}"
        )
    if p_coords == q_coords:
        raise ValueError("operands must differ in at least one coordinate")
    return tuple(zip(_fiber_masks(p_coords, shared), _fiber_masks(q_coords, shared)))


def assemble(parts: Iterable[Partition], op: str = "BS") -> Partition:
    """Fold partitions over overlapping coordinate sets into one partition
    on the union of their coordinates.  Starts from the operator identity
    (all-GREEN for BS, all-RED for WS) and folds each part in via lift.
    Under BS this is the global truth table of a conjunction."""
    if op not in ("WS", "BS"):
        raise ValueError(f"unknown operator {op!r}, expected 'WS' or 'BS'")
    use_ws = op == "WS"
    parts = list(parts)
    coord_set: set[int] = set()
    for part in parts:
        coord_set.update(part.coords)
    if not coord_set:
        raise ValueError("assemble requires at least one coordinate")
    if len(coord_set) > MAX_DIM:
        raise ValueError(f"assemble dimension {len(coord_set)} exceeds {MAX_DIM}")
    coords = tuple(sorted(coord_set))
    acc = 0 if use_ws else (1 << (1 << len(coords))) - 1
    for part in parts:
        lifted = _lift_mask(part.green_mask, part.coords, coords)
        acc = acc | lifted if use_ws else acc & lifted
    return Partition(coords, acc)
