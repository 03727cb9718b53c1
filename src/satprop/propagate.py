"""Fixpoint propagation over the clausal partition.

Cubes sharing one or two variables are adjacent; along each directed edge
the source cube's projection onto the shared variables is imposed on the
target (the unidirectional combination, `bitspace.bc_uni`).  A worklist
of cubes requeues any cube that changed, standing for its out-edges, and
runs in passes until a pass requeues nothing.  Cubes only ever lose GREEN
cells, so the number of change-making applications is bounded by 8 x cube
count and the fixpoint is independent of scheduling order.

The engine works on integer masks, one per cube, with cubes numbered in
sorted-triple order.  An ordered pair of adjacent triples has one of 18
shapes, given by the positions the shared variables hold in each triple (9
with one shared variable, 9 with two).  Each shape has a 256-entry table,
built from `bitspace.bc_uni` at import, that maps a source mask to the
target cells it supports, so applying an edge is `masks[t] &
table[masks[s]]`.

An edge prunes only through a separator, a variable or a pair of variables
the two cubes share, onto which the source's projection is not full.
`_SEPARATORS[mask]` lists the separators a mask restricts; a cube that
restricts none is inert, and no edge out of it changes anything.  For the
length of a run the loop keeps a bound per separator, the meet of the
projections onto it that earlier cubes were applied through, and every
cube holding the separator projects onto it within that bound.  A cube in
a pass lists only the separators it restricts whose bound its projection
does not contain, and is applied only to the cubes holding a listed
separator, in target order, each through the table of its shape, read off
the two triples by `_shape`; the edges to the other cubes would change
nothing (`_worklist` says why).  A skipped edge is counted as applied, and
would change no mask, log nothing and requeue nothing, so stats, traces
and masks are those of applying every edge, one at a time, in queue
order.  FIFO order applies each pass as it was queued; random order
shuffles each pass first, which can change the stats and the trace but,
by confluence, neither the closed masks nor the verdict.

A result holds the record of its run: the list of cubes each pass
applied, the edges an early exit leaves out, and a log of each
change-making application, as (source, target, mask before, mask after),
with cubes numbered in the key order of its fixpoint.  Its stats and
trace are computed from that record when first read, and the out-degrees
that `edge_applications` sums are counted only then, by `_out_degrees`: a
caller that reads no stats counts no out-degree, and one that reads no
trace builds no trace record.  A result's `passes` and `cells_removed`
are read off the record without counting out-degrees, and they are all
that `bench` reads, so of the commands only `solve`, which reports the
stats, counts out-degrees.

`bidirectional_fixpoint` is a separate reference for the paper's two-sided
combination: Gauss-Seidel sweeps over the undirected pairs, each updated on
both sides by bc(p, q) == (bc_uni(p, q), bc_uni(q, p)), `bitspace`'s
definition of bc, that is two table lookups on the masks from before the
update.  It shares the graph code and the shape tables with the engine,
which are tested on their own, and no loop, so the two settling to the
same state checks the worklist.  It takes its pairs from
`_Graph.neighbours` and each side's table from `_shape` in that
direction, and counts and records nothing.

Extraction does not run the worklist.  A state is closed exactly when all
cubes holding a separator project onto it alike, so `extract_assignment`
reads one domain per separator off the fixpoint into a `_Closure`, and
`_Closure.impose` sets each unit on its variable's domain and lifts every
domain that shrinks onto the cubes holding it, until no domain shrinks.
It keeps one state: a unit that empties a domain is undone from the log of
the entries it changed, and `_Closure.value` reads the values committed.

Each run builds its own graph and keeps none: a result holds the
fixpoint's masks, the empty cube and the run's record, and
`extract_assignment` reads only the masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Collection, Iterable, Sequence

# bc and impose are not used here, but callers that wrap the layer functions
# look bc, bc_uni and impose up by name in this module, so all three stay
# importable.
from .bitspace import Partition, bc, bc_uni, impose  # noqa: F401
from .clausal import _CELLS, ClausalState, Instance, Triple

Edge = tuple[Triple, Triple]


@dataclass
class PropStats:
    """What a `fixpoint` run did.

    passes: the first pass over every cube, then one per non-empty list of
    requeued cubes; 0 on a graph with no edge and when the run stops at a
    cube empty on entry.
    edge_applications: every out-edge of a cube, counted when the cube
    comes up in a pass, the edges the loop skips included; at an early exit
    the source's edges to targets after the emptied one are left out.
    applications_changed: the applications that changed their target, one
    per trace record.
    cells_removed: the GREEN cells those applications removed.
    """

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
    """The fixpoint a run left, the all-RED cube it reports, if any, and
    the run's record, with cube i the i-th key of `fixpoint.cubes`:
    `_passes`, the cubes each pass applied, in the order applied, the last
    cut just after the source of an early exit; `_skipped`, that source's
    out-edges to cubes after the one it emptied; and `_log`, each
    change-making application as (source, target, mask before, mask after).
    A result with no run, such as that of `bidirectional_fixpoint`, has an
    empty record.  `passes` and `cells_removed` are read off the record and
    count no out-degree; `stats` adds `edge_applications`, which does, and
    it and `trace` are computed from the record when first read.  Of the
    commands only `solve` reads `stats`; `bench` reads `passes` and
    `cells_removed`."""

    fixpoint: ClausalState
    empty_triple: Triple | None
    _passes: Sequence[list[int]] = field(default=(), repr=False)
    _skipped: int = field(default=0, repr=False)
    _log: Sequence[tuple[int, int, int, int]] = field(default=(), repr=False)

    @property
    def passes(self) -> int:
        """`stats.passes`: the number of passes the run made."""
        return len(self._passes)

    @property
    def cells_removed(self) -> int:
        """`stats.cells_removed`: the GREEN cells the run's changes removed."""
        return sum((before ^ after).bit_count() for _, _, before, after in self._log)

    @cached_property
    def stats(self) -> PropStats:
        applications = -self._skipped
        if self._passes:
            degree = _out_degrees(self.fixpoint.cubes)
            applications += sum(degree[s] for items in self._passes for s in items)
        return PropStats(self.passes, applications, len(self._log), self.cells_removed)

    @cached_property
    def trace(self) -> list[TraceRecord]:
        nodes = list(self.fixpoint.cubes)
        return [TraceRecord((nodes[s], nodes[t]), before, after,
                            (before ^ after).bit_count())
                for s, t, before, after in self._log]


def _shape(src: Triple, tgt: Triple) -> int:
    """Shape code of an ordered pair of triples: a variable at source
    position i and target position j sets bits i and 3 + j."""
    a, b, c = src
    x, y, z = tgt
    # 9, 10 and 12 are (1, 2 or 4) | 8, and so on
    return ((9 if x == a else 10 if x == b else 12 if x == c else 0)
            | (17 if y == a else 18 if y == b else 20 if y == c else 0)
            | (33 if z == a else 34 if z == b else 36 if z == c else 0))


def _shape_tables() -> dict[int, bytes]:
    """For each shape, the table whose entry m is the mask of target cells
    that agree on the shared variables with some GREEN cell of source mask
    m.  The images of the 8 single source cells come from `bc_uni` on a
    representative pair of triples; a mask's image is the union of its
    cells' images, since projection and lifting both preserve unions."""
    tables: dict[int, bytes] = {}
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
            tables[code] = bytes(table)
    return tables


_TABLES = _shape_tables()

# A separator, a variable or a pair of variables, sits in one of six slots of
# a triple holding it: its variable at position 0, 1 or 2, or its pair at
# positions (0, 1), (0, 2) or (1, 2); _SLOTS gives each slot's position bits.
# A separator's domain is kept as the mask it lifts to on a triple holding
# its variables first, at the position bits _FRAMES gives, so projecting a
# mask onto a slot and lifting a domain onto it are lookups in the shape
# tables below, one per slot.
_SLOTS = (1, 2, 4, 3, 5, 6)
_FRAMES = (1, 1, 1, 3, 3, 3)
_PROJECTIONS = tuple(_TABLES[bits | frame << 3] for bits, frame in zip(_SLOTS, _FRAMES))
_LIFTS = tuple(_TABLES[frame | bits << 3] for bits, frame in zip(_SLOTS, _FRAMES))


def _restricted(mask: int) -> tuple[int, ...]:
    """The slots of the separators along which a cube with GREEN mask
    `mask` prunes, in slot order: a variable when the mask's projection
    onto it is not full, a pair when that onto the pair is not full but
    that onto each of its variables is.  A variable's slot is its
    position, so a pair's position bits are the slots of its variables."""
    slots: list[int] = []
    for slot, (bits, project) in enumerate(zip(_SLOTS, _PROJECTIONS)):
        if project[mask] != 0xFF and not any(bits >> k & 1 for k in slots):
            slots.append(slot)
    return tuple(slots)


# _SEPARATORS[m] lists the slots of the separators a cube with mask m
# restricts (see `_restricted`).  An edge changes its target only if the
# target holds one of them, and an empty tuple marks the 35 inert masks,
# whose RED cells are pairwise at distance two or more on the 3-cube: no
# edge out of them changes anything.
_SEPARATORS = tuple(map(_restricted, range(256)))


def count_prunable(masks: Iterable[int]) -> int:
    """How many of the cube masks `masks` can prune some neighbour, that is,
    are not inert."""
    return sum(1 for mask in masks if _SEPARATORS[mask])


class _Graph:
    """Adjacency of a set of triples.  Cube i is `nodes[i]`; its out-edges
    go to its `neighbours`, every other cube sharing a variable with it, in
    target order.

    No edge is stored, nor any out-degree: a shape is read off the two
    triples by `_shape`, `_out_degrees` counts the out-degrees when a
    result's stats are read (of the commands, only by `solve`), and the
    graph holds nothing built after `__init__`.  `_index` maps each
    variable to the cubes holding it, in cube order; `_worklist` lists a
    separator's holders from it."""

    def __init__(self, nodes: tuple[Triple, ...]) -> None:
        self.nodes = nodes
        # var -> the cubes holding it, in cube order
        index: dict[int, list[int]] = {}
        setdefault = index.setdefault
        for i, (a, b, c) in enumerate(nodes):
            setdefault(a, []).append(i)
            setdefault(b, []).append(i)
            setdefault(c, []).append(i)
        self._index = index

    def neighbours(self, s: int) -> list[int]:
        """The other cubes sharing a variable with cube s, in cube order:
        the targets of its out-edges."""
        return sorted({t for var in self.nodes[s] for t in self._index[var]} - {s})

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (source triple, target triple) pairs, in that
        order."""
        nodes = self.nodes
        return tuple((nodes[s], nodes[t]) for s in range(len(nodes))
                     for t in self.neighbours(s))


def _out_degrees(nodes: Collection[Triple]) -> list[int]:
    """The out-degree of each cube of `nodes`: the number of other cubes
    sharing a variable with it, counted without listing any edge, by
    inclusion-exclusion over the cubes holding each of its variables and
    each of its pairs.  Only the cube itself holds all three, and it is not
    its own target.  The pair at positions (u, v) is keyed u * k + v, with
    k above every variable."""
    k = max(chain.from_iterable(nodes), default=0) + 1
    held = [0] * k
    pairs: dict[int, int] = {}
    get = pairs.get
    for a, b, c in nodes:
        held[a] += 1
        held[b] += 1
        held[c] += 1
        u, v, w = a * k + b, a * k + c, b * k + c
        pairs[u] = get(u, 0) + 1
        pairs[v] = get(v, 0) + 1
        pairs[w] = get(w, 0) + 1
    return [held[a] + held[b] + held[c]
            - pairs[a * k + b] - pairs[a * k + c] - pairs[b * k + c]
            for a, b, c in nodes]


def build_adjacency(state: ClausalState) -> _Graph:
    """The adjacency of `state`: its `edges` are all ordered pairs of
    distinct triples sharing 1 or 2 variables, in (source, target) order."""
    return _Graph(tuple(sorted(state.cubes)))


def fixpoint(
    state: ClausalState, order_seed: int | None = None, early_exit: bool = True
) -> PropagationResult:
    """Run the unidirectional operator to steady state.

    order_seed: None applies the out-edges a cube at a time in FIFO order,
    starting from every cube in triple order; an int shuffles each pass of
    cubes with a generator seeded by it.  early_exit stops at the first
    all-RED cube, one empty on entry included; disable it to force full
    closure (the fixpoint masks can differ below an empty cube, the
    verdict cannot).
    """
    nodes = tuple(sorted(state.cubes))
    masks = [state.cubes[triple] for triple in nodes]
    rng = None if order_seed is None else random.Random(order_seed)
    passes, skipped, log, empty = _worklist(_Graph(nodes), masks, early_exit, rng)
    return PropagationResult(ClausalState(dict(zip(nodes, masks))),
                             None if empty is None else nodes[empty], passes, skipped, log)


def bidirectional_fixpoint(state: ClausalState) -> PropagationResult:
    """The closed fixpoint of the two-sided combination, by Gauss-Seidel
    sweeps: each adjacent pair a < b, in order, is updated on both sides
    from the masks before the update, until a sweep changes nothing.  The
    empty cube reported is the first all-RED cube in triple order.  The sweep
    counts and records nothing: its stats are all zero and its trace empty."""
    graph = _Graph(tuple(sorted(state.cubes)))
    nodes = graph.nodes
    pairs = [(a, b, _TABLES[_shape(nodes[b], nodes[a])],
              _TABLES[_shape(nodes[a], nodes[b])])
             for a in range(len(nodes)) for b in graph.neighbours(a) if a < b]
    masks = [state.cubes[triple] for triple in nodes]
    changed = True
    while changed:
        changed = False
        for a, b, onto_a, onto_b in pairs:
            before_a, before_b = masks[a], masks[b]
            masks[a] = before_a & onto_a[before_b]
            masks[b] = before_b & onto_b[before_a]
            if masks[a] != before_a or masks[b] != before_b:
                changed = True
    return PropagationResult(ClausalState(dict(zip(nodes, masks))),
                             nodes[masks.index(0)] if 0 in masks else None)


def _worklist(
    graph: _Graph,
    masks: list[int],
    early_exit: bool,
    rng: random.Random | None,
) -> tuple[list[list[int]], int, list[tuple[int, int, int, int]], int | None]:
    """The propagation loop, pass by pass.  Updates `masks` in place and
    returns the run's record, `PropagationResult`'s `_passes`, `_skipped`
    and `_log`, and the id of the empty cube it reports, if any.  Under
    `early_exit` a cube empty on entry ends the run before any pass.

    A pass is a list of cubes, each standing for all its out-edges, applied
    in order; under `rng` it is shuffled first.  The first pass holds every
    cube in triple order, each later one the cubes the pass before it
    requeued, in that order, and the run ends after a pass that requeues
    nothing.  A graph with no edge makes no pass.

    A cube's out-edges count as applied when it comes up, which the record
    of the passes keeps for `PropagationResult.stats`.  If it
    restricts no separator it is skipped: no edge out of it changes
    anything.  Otherwise its edges into the holders of the restricted
    separators it lists are applied, in target order, each through the
    table of its shape; the others map their target to itself.

    The loop keeps a bound per separator, keyed by its variable or its
    pair and framed as a `_Closure` domain: full at the start, then the
    meet of the projections onto it that earlier cubes were applied
    through.  Every holder of a separator projects onto it within its
    bound, since each was given an image inside the lift of each of those
    projections and masks only shrink.  So a restricted separator whose
    bound lies within the cube's projection onto it is not listed: the
    edges into its holders map them to themselves.  A listed separator's
    bound is met with the projection when it is listed; the invariant
    holds again once the listed targets are applied, before any bound is
    read.  A variable's bound is enough for a holder that
    shares a pair (a, x) with the cube, whose edge imposes the projection
    onto (a, x): a cube that restricts a projects onto (a, x) as
    P(a) x P(x), since P(a) holds at most one value.  If P(x) is full, the
    holder lies within that once it lies within P(a); otherwise the cube
    restricts x too, and the holder is listed through x or lies within
    x's bound, inside P(x).

    A cube that changes is requeued once, unless it is queued already,
    which one flag per cube tells.  An empty cube met under `early_exit`
    ends the run in the middle of its source's edges: the last pass is cut
    just after the source, and the record's skipped count takes its edges
    into cubes after the empty one off the count again.
    """
    if early_exit and 0 in masks:
        return [], 0, [], masks.index(0)
    nodes, index = graph.nodes, graph._index
    separators, projections, tables = _SEPARATORS, _PROJECTIONS, _TABLES
    bounds: dict[int | tuple[int, int], int] = {}
    bound = bounds.get
    log: list[tuple[int, int, int, int]] = []
    passes: list[list[int]] = []
    # a graph has an edge when some variable is held by two cubes
    edged = any(len(holders) > 1 for holders in index.values())
    items = list(range(len(nodes))) if edged else []
    queued = bytearray(b"\x01") * len(items)

    while items:
        if rng is not None:
            rng.shuffle(items)
        passes.append(items)
        requeued: list[int] = []
        for s in items:
            queued[s] = 0
            source = masks[s]
            sep = separators[source]
            if not sep:
                continue
            a, b, c = src = nodes[s]
            keys = (a, b, c, (a, b), (a, c), (b, c))
            found: list[int] = []
            for slot in sep:
                key = keys[slot]
                image = projections[slot][source]
                if (was := bound(key, 0xFF)) & ~image:
                    bounds[key] = was & image
                    if slot < 3:
                        found += index[key]
                    else:
                        u, v = key
                        found += [t for t in index[u] if v in nodes[t]]
            targets = set(found)
            targets.discard(s)
            for t in sorted(targets):
                before = masks[t]
                after = before & tables[_shape(src, nodes[t])][source]
                if after == before:
                    continue
                masks[t] = after
                log.append((s, t, before, after))
                if early_exit and after == 0:
                    del items[items.index(s) + 1:]
                    return passes, sum(u > t for u in graph.neighbours(s)), log, t
                if not queued[t]:
                    queued[t] = 1
                    requeued.append(t)
        items = requeued
    # Under early_exit no mask is empty here: none was on entry, and a cube
    # emptied in the loop returned from it.
    return passes, 0, log, masks.index(0) if 0 in masks else None


def extract_assignment(
    result: PropagationResult, instance: Instance
) -> Extraction | None:
    """Greedy assignment extraction with one-level value backtracking.

    Walks the variables of the cubes in ascending order and tries F, then
    T: the value is imposed and closed over the separators in place by
    `_Closure.impose`.  The first value that empties no cube is committed,
    and read back by `_Closure.value` at the end; one that does is undone;
    if both do, extraction gives up.
    Variables of the instance that no cube holds are set F, and any
    assignment returned is verified by direct clause evaluation.  Not a
    complete solver by design: returning None on a satisfiable instance is
    a recorded possibility, not a bug.

    Precondition: `result.fixpoint` is closed, i.e. no edge application
    changes it.  Every result of `fixpoint` or `bidirectional_fixpoint`
    without an empty cube is.  A state is closed exactly when it is
    separator-closed: when, for every variable and every pair of variables,
    all cubes holding it project onto it alike, since two cubes share one
    variable or one pair.  So the `_Closure` reads the separators'
    domains once off the fixpoint, and closing a unit over them reaches
    the greatest closed state below it, which is the fixpoint, and the
    verdict, that propagating from scratch would reach.
    """
    if result.empty_triple is not None:
        raise ValueError("cannot extract an assignment from an empty-cube verdict")

    closure = _Closure(result.fixpoint.cubes)
    for var in sorted(closure.variables):
        if not (closure.impose(var, False) or closure.impose(var, True)):
            return None

    assignment = {v: False for v in range(1, instance.num_vars + 1)}
    for var in closure.variables:
        if var <= instance.num_vars:
            assignment[var] = closure.value(var)
    verified = instance.evaluate(assignment)
    return Extraction(assignment, verified)


class _Closure:
    """Extraction's state over the separators of `cubes`, a closed
    fixpoint's triple -> GREEN mask dict: every variable, and every pair of
    variables two or more cubes hold.  Cube i is the i-th triple in sorted
    order, with mask `masks[i]`; separator k has holders `holders[k]`, as
    (cube, slot) pairs, and domain `domains[k]`, read off its first holder:
    the state is closed, so every holder projects onto it alike; `slots[i]`
    gives the separators in cube i's six slots, None for a pair no other
    cube holds; `variables` maps each variable to its separator."""

    def __init__(self, cubes: dict[Triple, int]) -> None:
        nodes = sorted(cubes)
        self.masks = masks = [cubes[triple] for triple in nodes]
        singles: dict[int, list[tuple[int, int]]] = {}
        pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, (a, b, c) in enumerate(nodes):
            singles.setdefault(a, []).append((i, 0))
            singles.setdefault(b, []).append((i, 1))
            singles.setdefault(c, []).append((i, 2))
            pairs.setdefault((a, b), []).append((i, 3))
            pairs.setdefault((a, c), []).append((i, 4))
            pairs.setdefault((b, c), []).append((i, 5))
        self.holders = holders = list(singles.values())
        self.variables = variables = {var: sep for sep, var in enumerate(singles)}
        relays: dict[tuple[int, int], int] = {}  # a pair one cube holds relays nothing
        for pair, held in pairs.items():
            if len(held) > 1:
                relays[pair] = len(holders)
                holders.append(held)
        self.domains = [_PROJECTIONS[slot][masks[i]]
                        for i, slot in (held[0] for held in holders)]
        relay = relays.get
        self.slots = [(variables[a], variables[b], variables[c], relay((a, b)),
                       relay((a, c)), relay((b, c))) for a, b, c in nodes]

    def impose(self, var: int, value: bool) -> bool:
        """Set variable `var` to `value` and close the masks and domains
        over the separators, in place.  A domain that shrinks is lifted onto
        its holders, and a holder that changes shrinks the domains in its
        slots to its projections; the closure ends when no domain shrinks.
        When a domain empties (those of an empty cube do: every projection
        maps 0 to 0), each entry changed is put back, newest first, and the
        result is False."""
        masks, domains, holders, slots = self.masks, self.domains, self.holders, self.slots
        sep = self.variables[var]
        domain = domains[sep] & _CELLS[0][value]
        if domain == domains[sep] or not domain:  # implied, or refuted at once
            return bool(domain)
        changes = [(domains, sep, domains[sep])]
        domains[sep] = domain
        shrunk = [sep]
        while shrunk:
            sep = shrunk.pop()
            domain = domains[sep]
            for t, slot in holders[sep]:
                before = masks[t]
                after = before & _LIFTS[slot][domain]
                if after == before:
                    continue
                changes.append((masks, t, before))
                masks[t] = after
                for other, project in zip(slots[t], _PROJECTIONS):
                    if other is None:
                        continue
                    was = domains[other]
                    now = was & project[after]
                    if now != was:
                        changes.append((domains, other, was))
                        domains[other] = now
                        if not now:
                            for entries, i, before in reversed(changes):
                                entries[i] = before
                            return False
                        shrunk.append(other)
        return True

    def value(self, var: int) -> bool:
        """The value committed to variable `var`: is its domain its T cells?"""
        return self.domains[self.variables[var]] == _CELLS[0][True]
