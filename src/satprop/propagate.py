"""Fixpoint propagation over the clausal partition.

Cubes sharing one or two variables are adjacent; along each directed edge
the source cube's projection onto the shared variables is imposed on the
target (the unidirectional combination, `bitspace.bc_uni`).  A worklist
requeues the out-edges of any cube that changed, and the system runs until
no edge application changes anything.  Cubes only ever lose GREEN cells,
so the number of change-making applications is bounded by 8 x cube count
and the fixpoint is independent of scheduling order.

The engine works on integer masks, one per cube, with cubes numbered in
sorted-triple order.  An ordered pair of adjacent triples has one of 18
shapes, given by the positions the shared variables hold in each triple (9
with one shared variable, 9 with two).  Each shape has a 256-entry table,
built from `bitspace.bc_uni` at import, that maps a source mask to the
target cells it supports, so applying an edge is `masks[t] &
table[masks[s]]`.

A cube whose RED cells are pairwise at distance two or more on the 3-cube
is inert: every shape table maps its mask to 0xFF, so no edge out of it
changes anything.  Every mask with at least 7 GREEN cells is inert, and in
random 3SAT a cube has at most 6 only when its triple hosts two distinct
clauses.  So a cube's out-edges are built only when they are applied from
a mask that is not inert, and the edges out of an inert cube are counted
as applied and skipped.  A skipped edge would change no mask, log nothing
and requeue nothing, so stats, traces and masks are those of applying every
edge, one at a time, in queue order.

A run logs each change-making application once, as (source, target, mask
before, mask after); a result's trace and its counts of changes and removed
cells are read off that log.

`bidirectional_fixpoint` is a separate reference for the paper's two-sided
combination: Gauss-Seidel sweeps over the undirected pairs, each updated on
both sides by bc(p, q) == (bc_uni(p, q), bc_uni(q, p)), that is two table
lookups on the masks from before the update.  It shares the graph code and
the shape tables with the engine, which are tested on their own, and no
loop, so the two settling to the same state checks the worklist.  It
counts and records nothing.

No graph is cached between calls: each run builds its own unless handed
one through the private `_graph` argument, and a result holds the graph it
was computed on, on which `extract_assignment` resumes propagation.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Iterable, Sequence

# bc and impose are not used here, but callers that wrap the layer functions
# look bc, bc_uni and impose up by name in this module, so all three stay
# importable.
from .bitspace import Partition, bc, bc_uni, impose  # noqa: F401
from .clausal import _CELLS, ClausalState, Instance, Triple

Edge = tuple[Triple, Triple]
# A cube's out-edges: (target cube, shape table) pairs, in target order
Block = list[tuple[int, tuple[int, ...]]]


@dataclass
class PropStats:
    passes: int = 0
    edge_applications: int = 0
    applications_changed: int = 0
    cells_removed: int = 0


@dataclass
class TraceRecord:
    edge: Edge
    before: int
    after: int
    cells_removed: int


@dataclass
class Extraction:
    assignment: dict[int, bool]
    verified: bool


@dataclass
class PropagationResult:
    fixpoint: ClausalState
    empty_triple: Triple | None
    stats: PropStats
    trace: list[TraceRecord]
    # The adjacency the result was computed on, with the blocks built so far
    _graph: _Graph = field(repr=False, compare=False)


def _shape(src: Sequence[int], tgt: Sequence[int]) -> int:
    """Shape code of an ordered pair of triples: bit i is set when src[i] is
    a shared variable, bit 3 + j when tgt[j] is."""
    shared = set(src) & set(tgt)
    code = 0
    for i, var in enumerate(src):
        if var in shared:
            code |= 1 << i
    for j, var in enumerate(tgt):
        if var in shared:
            code |= 8 << j
    return code


def _shape_tables() -> dict[int, tuple[int, ...]]:
    """For each shape, the table whose entry m is the mask of target cells
    that agree on the shared variables with some GREEN cell of source mask
    m.  The images of the 8 single source cells come from `bc_uni` on a
    representative pair of triples; a mask's image is the union of its
    cells' images, since projection and lifting both preserve unions."""
    tables: dict[int, tuple[int, ...]] = {}
    triples = list(combinations(range(1, 6), 3))
    for src in triples:
        for tgt in triples:
            code = _shape(src, tgt)
            if code in tables or not 0 < len(set(src) & set(tgt)) < 3:
                continue
            full = Partition(tgt, 0xFF)
            table = [0]  # entries for the masks below 1 << cell
            for cell in range(8):
                image = bc_uni(full, Partition(src, 1 << cell)).green_mask
                table += [mask | image for mask in table]
            tables[code] = tuple(table)
    return tables


_TABLES = _shape_tables()

# _INERT[m] is 1 when every shape table maps mask m to 0xFF, so that no edge
# out of a cube with mask m changes anything: 35 masks, those whose RED cells
# are pairwise at distance two or more on the 3-cube.
_INERT = bytes(all(t[mask] == 0xFF for t in _TABLES.values()) for mask in range(256))


def count_prunable(masks: Iterable[int]) -> int:
    """How many of the cube masks `masks` can prune some neighbour, that is,
    are not inert."""
    return sum(not _INERT[mask] for mask in masks)


class _Graph:
    """Adjacency of a set of triples, one block per cube.  Cube i is
    `nodes[i]`; its out-edges, its block, are `blocks[i]`, a list of
    (target cube, shape table) pairs in target order, or None until `build`
    fills it in.  Edge ids number the blocks one after the other: those of
    cube i run from `first[i]` to `first[i + 1] - 1`, so they follow
    (source triple, target triple) order.

    `first` comes from the out-degrees, counted without building any edge,
    and `edges` builds every block.  `_index` maps each variable to its
    (cube, position) pairs in cube order, which extraction reads too."""

    def __init__(self, nodes: tuple[Triple, ...]) -> None:
        self.nodes = nodes
        # var -> (cube, position of var in that cube's triple), in cube order
        index: dict[int, list[tuple[int, int]]] = {}
        # (u, v) -> the number of cubes holding both u < v
        pairs: dict[tuple[int, int], int] = {}
        for i, triple in enumerate(nodes):
            for pos, var in enumerate(triple):
                index.setdefault(var, []).append((i, pos))
            a, b, c = triple
            for pair in ((a, b), (a, c), (b, c)):
                pairs[pair] = pairs.get(pair, 0) + 1
        self._index = index
        # The cubes sharing a variable with (a, b, c), by inclusion-exclusion;
        # only the cube itself holds all three, and it is not its own target.
        self.first = [0, *accumulate(
            len(index[a]) + len(index[b]) + len(index[c])
            - pairs[a, b] - pairs[a, c] - pairs[b, c]
            for a, b, c in nodes
        )]
        self.blocks: list[Block | None] = [None] * len(nodes)

    def build(self, s: int) -> Block:
        """Fill in and return cube s's block."""
        shapes: dict[int, int] = {}
        for pos, var in enumerate(self.nodes[s]):
            src_bit = 1 << pos
            for t, tgt_pos in self._index[var]:
                shapes[t] = shapes.get(t, 0) | src_bit | 8 << tgt_pos
        del shapes[s]
        block = self.blocks[s] = [(t, _TABLES[shapes[t]]) for t in sorted(shapes)]
        return block

    def build_all(self) -> None:
        for s, block in enumerate(self.blocks):
            if block is None:
                self.build(s)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (source triple, target triple) pairs, in id order."""
        self.build_all()
        nodes = self.nodes
        return tuple((nodes[s], nodes[t])
                     for s, block in enumerate(self.blocks) for t, _ in block)


def build_adjacency(state: ClausalState) -> _Graph:
    """The adjacency of `state`: its `edges` are all ordered pairs of
    distinct triples sharing 1 or 2 variables, in (source, target) order."""
    return _Graph(tuple(sorted(state.cubes)))


def fixpoint(
    state: ClausalState,
    order_seed: int | None = None,
    early_exit: bool = True,
    *,
    _graph: _Graph | None = None,
) -> PropagationResult:
    """Run the unidirectional operator to steady state.

    order_seed: None applies the blocks in FIFO order, starting from every
    cube in triple order; an int shuffles the initial worklist of edges (and
    each re-enqueue batch) with a generator seeded by it.  early_exit stops
    at the first all-RED cube, one empty on entry included; disable it to
    force full closure (the fixpoint masks can differ below an empty cube,
    the verdict cannot).  `_graph`, if given, is `build_adjacency(state)`
    from an earlier call; which of its blocks are already built changes no
    result.
    """
    graph = _Graph(tuple(sorted(state.cubes))) if _graph is None else _graph
    masks = [state.cubes[triple] for triple in graph.nodes]
    if early_exit and 0 in masks:
        return _result(graph, masks, masks.index(0))
    rng = None if order_seed is None else random.Random(order_seed)
    passes, applications, log, empty = _worklist(
        graph, masks, range(len(masks)), early_exit, rng)
    return _result(graph, masks, empty, passes, applications, log)


def bidirectional_fixpoint(
    state: ClausalState, *, _graph: _Graph | None = None
) -> PropagationResult:
    """The closed fixpoint of the two-sided combination, by Gauss-Seidel
    sweeps: each adjacent pair a < b, in order, is updated on both sides
    from the masks before the update, until a sweep changes nothing.  The
    empty cube reported is the first all-RED cube in triple order.  The sweep
    counts and records nothing: its stats are all zero and its trace empty."""
    graph = _Graph(tuple(sorted(state.cubes))) if _graph is None else _graph
    graph.build_all()
    table = {(s, t): onto for s, block in enumerate(graph.blocks) for t, onto in block}
    pairs = [(a, b, table[b, a], onto_b) for (a, b), onto_b in table.items() if a < b]
    masks = [state.cubes[triple] for triple in graph.nodes]
    changed = True
    while changed:
        changed = False
        for a, b, onto_a, onto_b in pairs:
            before_a, before_b = masks[a], masks[b]
            masks[a] = before_a & onto_a[before_b]
            masks[b] = before_b & onto_b[before_a]
            if masks[a] != before_a or masks[b] != before_b:
                changed = True
    return _result(graph, masks, masks.index(0) if 0 in masks else None)


def _result(
    graph: _Graph,
    masks: list[int],
    empty: int | None,
    passes: int = 0,
    applications: int = 0,
    log: Sequence[tuple[int, int, int, int]] = (),
) -> PropagationResult:
    """The result of a run on `graph` that left `masks`, reporting cube
    `empty` as all-RED unless it is None, from what `_worklist` returned."""
    nodes = graph.nodes
    trace = [TraceRecord((nodes[s], nodes[t]), before, after,
                         (before ^ after).bit_count())
             for s, t, before, after in log]
    stats = PropStats(passes, applications, len(trace),
                      sum(rec.cells_removed for rec in trace))
    return PropagationResult(ClausalState(dict(zip(nodes, masks))),
                             None if empty is None else nodes[empty],
                             stats, trace, graph)


def _worklist(
    graph: _Graph,
    masks: list[int],
    items: Sequence[int],
    early_exit: bool,
    rng: random.Random | None,
) -> tuple[int, int, list[tuple[int, int, int, int]], int | None]:
    """The propagation loop from the blocks of the cubes `items`.  Updates
    `masks` in place and returns the pass and edge application counts, the
    change log and the id of the empty cube it reports, if any.  Under
    `early_exit` the caller guarantees that no mask is empty on entry.

    Without `rng` a work item is a cube s, standing for its whole block, and
    the cubes `items` start queued, in the order given.  Under `rng` an item
    is an edge id, the edges of those cubes' blocks start queued and the ids
    are shuffled; the id's source is the cube whose range in `first` holds
    it.  A None marker ends each pass.

    An item is counted as applied in full and dequeued when it comes up.  If
    its source is inert it is skipped: none of its edges targets its source,
    which therefore stays inert through them.  Otherwise its block is built
    if need be and its edges applied in one loop.  When a cube changes, it
    is requeued: without `rng` as one item, unless it is queued already,
    which one flag per cube tells, since then every block is queued in full
    or not at all, bar the one being applied; under `rng`, its out-edges
    that are not queued are appended as edge items, shuffled.  An empty cube
    met under `early_exit` ends the loop in the middle of an item, and the
    edges of the item not yet applied are taken off the count again.
    """
    nodes, first, blocks, build, inert = (
        graph.nodes, graph.first, graph.blocks, graph.build, _INERT)
    log: list[tuple[int, int, int, int]] = []
    count = first[-1]

    if rng is not None:  # items become the edge ids of their blocks
        items = [e for s in items for e in range(first[s], first[s + 1])]
        rng.shuffle(items)
    queued = bytearray(len(nodes) if rng is None else count)
    for item in items:
        queued[item] = 1
    queue: deque[int | None] = deque(items)
    queue.append(None)  # pass marker
    popleft, append, extend = queue.popleft, queue.append, queue.extend
    passes = 1 if count else 0
    applications = 0
    changed_this_pass = False
    empty = None

    while queue:
        item = popleft()
        if item is None:
            if queue and changed_this_pass:
                passes += 1
                append(None)
                changed_this_pass = False
            continue
        queued[item] = 0
        if rng is None:
            s = item
            applications += first[s + 1] - first[s]
        else:
            s = bisect_right(first, item) - 1
            applications += 1
        source = masks[s]
        if inert[source]:
            continue
        block = blocks[s]
        if block is None:
            block = build(s)
        edges = block if rng is None else (block[item - first[s]],)
        for t, onto in edges:
            before = masks[t]
            after = before & onto[source]
            if after == before:
                continue
            masks[t] = after
            log.append((s, t, before, after))
            changed_this_pass = True
            if early_exit and after == 0:
                empty = t
                applications -= len(edges) - 1 - edges.index((t, onto))
                break
            if rng is None:
                if not queued[t]:
                    queued[t] = 1
                    append(t)
            else:
                requeue = []
                for e in range(first[t], first[t + 1]):
                    if not queued[e]:
                        queued[e] = 1
                        requeue.append(e)
                rng.shuffle(requeue)
                extend(requeue)
        if empty is not None:
            break
    # Under early_exit a cube emptied in the loop ended it, and the caller
    # guarantees none was empty on entry, so only a full closure needs this
    # scan.
    if not early_exit and 0 in masks:
        empty = masks.index(0)

    return passes, applications, log, empty


def extract_assignment(
    result: PropagationResult, instance: Instance
) -> Extraction | None:
    """Greedy assignment extraction with one-level value backtracking.

    Walks the variables of the cubes in ascending order and tries F, then
    T: the value's cells are kept in every cube the graph's variable index
    lists for it, and propagation resumes from the cubes that lost cells.
    The first value that empties no cube is committed; if both do,
    extraction gives up.
    Variables of the instance that no cube holds are set F, and any
    assignment returned is verified by direct clause evaluation.  Not a
    complete solver by design: returning None on a satisfiable instance is
    a recorded possibility, not a bug.

    Precondition: `result.fixpoint` is closed, i.e. no edge application
    changes it.  Every result of `fixpoint` or `bidirectional_fixpoint`
    without an empty cube is.  Cubes only lose cells, so on a closed state
    only the edges leaving a cube the unit changed can fire, and resuming
    from those reaches the fixpoint, and the verdict, that propagating from
    scratch would.
    """
    if result.empty_triple is not None:
        raise ValueError("cannot extract an assignment from an empty-cube verdict")

    graph = result._graph
    masks = [result.fixpoint.cubes[triple] for triple in graph.nodes]
    chosen: dict[int, bool] = {}

    for var in sorted(graph._index):
        for value in (False, True):
            trial = _impose_unit(graph, masks, graph._index[var], value)
            if trial is not None:
                chosen[var], masks = value, trial
                break
        else:
            return None

    assignment = {v: False for v in range(1, instance.num_vars + 1)}
    for var, value in chosen.items():
        if var <= instance.num_vars:
            assignment[var] = value
    verified = instance.evaluate(assignment)
    return Extraction(assignment, verified)


def _impose_unit(
    graph: _Graph,
    masks: list[int],
    occurrences: list[tuple[int, int]],
    value: bool,
) -> list[int] | None:
    """A copy of `masks` with one variable set to `value` in every cube
    holding it, at the (cube, position) pairs `occurrences`, and propagated
    from the cubes that changed; None if a cube empties, without propagating
    at all when the unit alone empties one."""
    trial = masks[:]
    changed: list[int] = []
    for i, pos in occurrences:
        after = trial[i] & _CELLS[pos][value]
        if not after:
            return None
        if after != trial[i]:
            trial[i] = after
            changed.append(i)
    *_, empty = _worklist(graph, trial, changed, True, None)
    return trial if empty is None else None
