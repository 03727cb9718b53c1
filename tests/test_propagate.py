import gc
import itertools
import random
import time
import weakref
from collections import Counter, deque

import pytest
from hypothesis import given
from test_engine_golden import random_cnf
from test_oracle import overlapping_partitions

from satprop import checks
from satprop.bitspace import Partition, bc, bc_uni, impose, lift, project
from satprop.clausal import _CELLS, ClausalState, Instance, build_clausal_partition
from satprop.dimacs import gen_random_3sat
from satprop.oracle import join_semantics_oracle
from satprop.propagate import (
    _SEPARATORS,
    _TABLES,
    Extraction,
    PropagationResult,
    PropStats,
    TraceRecord,
    _Closure,
    _Graph,
    _out_degrees,
    _shape,
    bidirectional_fixpoint,
    build_adjacency,
    count_prunable,
    extract_assignment,
    fixpoint,
)


ALL_POLARITIES = tuple(
    tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
    for signs in itertools.product([False, True], repeat=3)
)


# --- adjacency ----------------------------------------------------------------

def test_adjacency_overlap_two():
    graph = build_adjacency(ClausalState({(1, 2, 3): 0xFF, (2, 3, 4): 0xFF}))
    assert set(graph.edges) == {
        ((1, 2, 3), (2, 3, 4)), ((2, 3, 4), (1, 2, 3))}


def test_adjacency_disjoint():
    graph = build_adjacency(ClausalState({(1, 2, 3): 0xFF, (4, 5, 6): 0xFF}))
    assert graph.edges == ()


def test_adjacency_pairwise_single_shared():
    graph = build_adjacency(ClausalState(
        {(1, 2, 3): 0xFF, (3, 4, 5): 0xFF, (1, 4, 6): 0xFF}))
    assert len(graph.edges) == 6


# --- edge application ---------------------------------------------------------

def test_edge_from_all_green_source_changes_nothing():
    state = ClausalState({(1, 2, 3): 0xFF, (2, 3, 4): 0xAB})
    result = fixpoint(state)
    assert result.fixpoint.cubes[(2, 3, 4)] == 0xAB
    assert all(rec.edge[1] != (2, 3, 4) for rec in result.trace)


def test_edge_prunes_target():
    state = ClausalState({(1, 2, 3): 0xFC, (2, 3, 4): 0xFF})
    result = fixpoint(state)
    # one change, on the target only; the input state is left as it was
    assert result.trace == [
        TraceRecord(((1, 2, 3), (2, 3, 4)), 0xFF, 0xEE, 2)]
    assert result.fixpoint.cubes == {(1, 2, 3): 0xFC, (2, 3, 4): 0xEE}
    assert state.cubes == {(1, 2, 3): 0xFC, (2, 3, 4): 0xFF}
    again = fixpoint(result.fixpoint)
    assert again.stats.edge_applications == 2
    assert again.stats.applications_changed == 0


# --- shape tables ---------------------------------------------------------------

def _reference_shape(src, tgt):
    """Shape code of an ordered pair of triples, from the shared variables:
    bit i is set when src[i] is one of them, bit 3 + j when tgt[j] is."""
    shared = set(src) & set(tgt)
    code = 0
    for i, var in enumerate(src):
        if var in shared:
            code |= 1 << i
    for j, var in enumerate(tgt):
        if var in shared:
            code |= 8 << j
    return code


def _overlapping_pairs(variables):
    """Every ordered pair of triples over `variables` sharing one or two."""
    triples = list(itertools.combinations(variables, 3))
    return [(src, tgt) for src in triples for tgt in triples
            if 0 < len(set(src) & set(tgt)) < 3]


def test_shape_matches_the_shared_variables_and_reverses_by_a_bit_swap():
    pairs = _overlapping_pairs(range(1, 7))
    assert len(pairs) == 360
    for src, tgt in pairs:
        code = _shape(src, tgt)
        assert code == _reference_shape(src, tgt), (src, tgt)
        # what the two-sided sweep reads the reverse edge's table with
        assert _shape(tgt, src) == code >> 3 | (code & 7) << 3, (src, tgt)


def _representatives():
    """One ordered pair of overlapping triples per shape, drawn from other
    variables than the tables were built from."""
    return {_reference_shape(src, tgt): (src, tgt)
            for src, tgt in _overlapping_pairs((10, 20, 30, 40, 50, 60))}


def test_shape_tables_match_bc_uni():
    pairs = _representatives()
    assert len(pairs) == 18 and set(pairs) == set(_TABLES)
    rng = random.Random(5)
    for code, (src, tgt) in pairs.items():
        table = _TABLES[code]
        for src_mask in range(256):
            source = Partition(src, src_mask)
            for tgt_mask in (0xFF, rng.randrange(256), rng.randrange(256)):
                want = bc_uni(Partition(tgt, tgt_mask), source).green_mask
                assert tgt_mask & table[src_mask] == want, (src, tgt, src_mask)


def test_cubes_with_seven_green_cells_are_inert():
    # a source with at most one RED cell supports every target cell, so its
    # out-edges never change anything; with two RED cells some shape prunes
    six_green_pruning = 0
    for table in _TABLES.values():
        for mask, image in enumerate(table):
            if mask.bit_count() >= 7:
                assert image == 0xFF, mask
            elif mask.bit_count() == 6:
                six_green_pruning += image != 0xFF
    assert six_green_pruning == 36


def test_inert_masks_are_the_independent_sets_of_the_cube():
    # a mask prunes nothing along any shape exactly when no two of its RED
    # cells differ in one variable, that is are adjacent on the 3-cube; the
    # engine skips the edges of exactly these masks
    inert = 0
    for mask in range(256):
        red = [cell for cell in range(8) if not mask >> cell & 1]
        independent = all((a ^ b).bit_count() != 1
                          for a, b in itertools.combinations(red, 2))
        assert all(t[mask] == 0xFF for t in _TABLES.values()) == independent, mask
        assert (not _SEPARATORS[mask]) == independent, mask
        inert += independent
    assert inert == 35
    # the README's breakdown by GREEN count
    by_green = Counter(mask.bit_count() for mask in range(256) if not _SEPARATORS[mask])
    assert by_green == {8: 1, 7: 8, 6: 16, 5: 8, 4: 2}


def _red_faces(mask, positions):
    """Whether some assignment of the variables at `positions` leaves only
    RED cells of `mask`, i.e. the projection onto them is not full."""
    return any(
        not any(mask >> cell & 1 for cell in range(8)
                if all(cell >> p & 1 == bit for p, bit in zip(positions, bits)))
        for bits in itertools.product((0, 1), repeat=len(positions)))


def test_separator_table_lists_what_each_shape_prunes():
    # slots 0-2 list the variables at positions 0-2, slots 3-5 the pairs at
    # positions (0, 1), (0, 2) and (1, 2) when neither of their variables is
    # listed, in slot order; an edge prunes its target exactly when the
    # variables the two cubes share hold a listed separator
    slots = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for mask in range(256):
        sep = _SEPARATORS[mask]
        assert sep == tuple(sorted(set(sep))) and set(sep) <= set(range(6)), mask
        listed = []
        for k, slot in enumerate(slots):
            wanted = _red_faces(mask, slot) and (
                len(slot) == 1 or not any(p in sep for p in slot))
            assert (k in sep) == wanted, (mask, slot)
            if wanted:
                listed.append(set(slot))
        for code, table in _TABLES.items():
            shared = {p for p in range(3) if code >> p & 1}
            prunes = any(separator <= shared for separator in listed)
            assert (table[mask] != 0xFF) == prunes, (mask, code)


def test_count_prunable_on_a_hand_built_instance():
    inst = Instance(6, (
        (1, 2, 3), (-1, 2, 3),    # RED cells 0 and 1, one variable apart
        (4, 5, 6), (-4, -5, 6),   # RED cells 0 and 3, two apart: inert
        (1, 4, 5),                # 7 GREEN cells: inert
    ))
    masks = build_clausal_partition(inst).state.cubes.values()
    assert sum(mask.bit_count() <= 6 for mask in masks) == 2
    assert count_prunable(masks) == 1


def test_graph_edges_carry_their_shape_table():
    state = build_clausal_partition(gen_random_3sat(12, 40, seed=3)).state
    graph = _Graph(tuple(state.triples()))
    count = 0
    for s, src in enumerate(graph.nodes):
        for t in graph.neighbours(s):
            code = _shape(src, graph.nodes[t])
            assert code == _reference_shape(src, graph.nodes[t])
            assert code in _TABLES
            count += 1
    assert count == sum(_out_degrees(graph.nodes)) == len(build_adjacency(state).edges)


def test_bc_is_two_one_sided_combinations():
    # bitspace.bc is (bc_uni(p, q), bc_uni(q, p)), the identity the tables
    # and bidirectional mode rely on; this checks it against the paper's
    # definition, the meet of the two projections imposed back on each
    # operand, on every pair of masks
    for ca, cb in checks.LAYOUTS.values():
        shared = tuple(sorted(set(ca) & set(cb)))
        proj_a = [project(Partition(ca, m), shared).green_mask for m in range(256)]
        proj_b = [project(Partition(cb, m), shared).green_mask for m in range(256)]
        lifts = [(lift(Partition(shared, meet), ca).green_mask,
                  lift(Partition(shared, meet), cb).green_mask)
                 for meet in range(1 << (1 << len(shared)))]
        for ma in range(256):
            p = Partition(ca, ma)
            for mb in range(256):
                lift_a, lift_b = lifts[proj_a[ma] & proj_b[mb]]
                got_p, got_q = bc(p, Partition(cb, mb))
                assert (got_p.green_mask, got_q.green_mask) == (
                    ma & lift_a, mb & lift_b), (ca, cb, ma, mb)


@given(overlapping_partitions())
def test_bc_is_two_one_sided_combinations_on_random_partitions(pair):
    p, q = pair
    shared = tuple(sorted(set(p.coords) & set(q.coords)))
    meet = Partition(shared, project(p, shared).green_mask & project(q, shared).green_mask)
    assert bc(p, q) == tuple(
        Partition(x.coords, x.green_mask & lift(meet, x.coords).green_mask) for x in (p, q))


def test_shape_tables_match_join_oracle():
    # the tables against the independent oracle on every shape, where
    # verify's two layouts reach only four of them
    for code, (src, tgt) in _representatives().items():
        table = _TABLES[code]
        for src_mask in range(256):
            want = join_semantics_oracle(Partition(src, src_mask), Partition(tgt, 0xFF))[1]
            assert table[src_mask] == want.green_mask, (src, tgt, src_mask)


# --- eager reference engine -----------------------------------------------------
#
# The engine as it was before it counted the blocks of inert cubes instead of
# building and scanning them: every edge built up front, and every queued
# edge applied.  In random order it runs passes of cubes, each shuffled, and
# applies every out-edge of a cube, one at a time, in target order.  The
# lazy engine must return the same stats, trace, masks, empty cube and
# extraction, on instances larger than the golden digests'.

class _EagerGraph:
    def __init__(self, nodes):
        self.nodes = nodes
        index = {}
        for i, triple in enumerate(nodes):
            for pos, var in enumerate(triple):
                index.setdefault(var, []).append((i, 8 << pos))
        self.src, self.tgt, self.table = [], [], []
        self.first = [0]
        for s, triple in enumerate(nodes):
            shapes = {}
            for pos, var in enumerate(triple):
                for t, tgt_bit in index[var]:
                    shapes[t] = shapes.get(t, 0) | 1 << pos | tgt_bit
            del shapes[s]
            for t in sorted(shapes):
                self.src.append(s)
                self.tgt.append(t)
                self.table.append(_TABLES[shapes[t]])
            self.first.append(len(self.tgt))


def _eager_worklist(graph, masks, early_exit, rng, trace, items=None):
    if items is None and early_exit and 0 in masks:
        return PropStats(), masks.index(0)
    if rng is not None:
        return _eager_shuffled(graph, masks, early_exit, rng, trace)
    nodes, src, tgt = graph.nodes, graph.src, graph.tgt
    table, first = graph.table, graph.first
    count = len(tgt)
    if items is None:
        items = range(count)
        queued = bytearray(b"\x01") * count
    else:
        queued = bytearray(count)
        for item in items:
            queued[item] = 1
    queue = deque(items)
    queue.append(None)
    passes = 1 if count else 0
    applications = changed = removed_total = 0
    changed_this_pass = False
    empty = None
    while queue:
        item = queue.popleft()
        if item is None:
            if queue and changed_this_pass:
                passes += 1
                queue.append(None)
                changed_this_pass = False
            continue
        queued[item] = 0
        applications += 1
        t = tgt[item]
        before = masks[t]
        after = before & table[item][masks[src[item]]]
        if after == before:
            continue
        masks[t] = after
        removed = (before ^ after).bit_count()
        if trace is not None:
            trace.append(TraceRecord((nodes[src[item]], nodes[t]), before, after, removed))
        changed += 1
        removed_total += removed
        changed_this_pass = True
        if early_exit and after == 0:
            empty = t
            break
        for e in range(first[t], first[t + 1]):
            if not queued[e]:
                queued[e] = 1
                queue.append(e)
    if not early_exit and 0 in masks:
        empty = masks.index(0)
    return PropStats(passes, applications, changed, removed_total), empty


def _eager_shuffled(graph, masks, early_exit, rng, trace):
    """Random order: passes of cubes, each shuffled by `rng`; every out-edge
    of a cube is applied, one at a time, and a cube that changes is
    requeued unless it is queued."""
    nodes, tgt, table, first = graph.nodes, graph.tgt, graph.table, graph.first
    items = list(range(len(nodes))) if tgt else []
    queued = bytearray(b"\x01") * len(items)
    passes = applications = changed = removed_total = 0
    while items:
        passes += 1
        rng.shuffle(items)
        requeued = []
        for s in items:
            queued[s] = 0
            for e in range(first[s], first[s + 1]):
                applications += 1
                t = tgt[e]
                before = masks[t]
                after = before & table[e][masks[s]]
                if after == before:
                    continue
                masks[t] = after
                removed = (before ^ after).bit_count()
                trace.append(TraceRecord((nodes[s], nodes[t]), before, after, removed))
                changed += 1
                removed_total += removed
                if early_exit and after == 0:
                    return PropStats(passes, applications, changed, removed_total), t
                if not queued[t]:
                    queued[t] = 1
                    requeued.append(t)
        items = requeued
    empty = masks.index(0) if 0 in masks else None
    return PropStats(passes, applications, changed, removed_total), empty


def _eager_extract(graph, masks, instance):
    """`extract_assignment` on the eager engine, from closed fixpoint masks."""
    occurrences = {}
    for i, triple in enumerate(graph.nodes):
        for pos, var in enumerate(triple):
            occurrences.setdefault(var, []).append((i, pos))
    chosen = {}
    for var in sorted(occurrences):
        for value in (False, True):
            trial = _eager_impose_unit(graph, masks, occurrences[var], value)
            if trial is not None:
                chosen[var], masks = value, trial
                break
        else:
            return None
    assignment = {v: chosen.get(v, False) for v in range(1, instance.num_vars + 1)}
    return Extraction(assignment, instance.evaluate(assignment))


def _eager_impose_unit(graph, masks, occurrences, value):
    first = graph.first
    trial = masks[:]
    edges = []
    for i, pos in occurrences:
        after = trial[i] & _CELLS[pos][value]
        if not after:
            return None
        if after != trial[i]:
            trial[i] = after
            edges.extend(range(first[i], first[i + 1]))
    _, empty = _eager_worklist(graph, trial, True, None, None, items=edges)
    return trial if empty is None else None


# sign patterns of the clauses `_with_extra_clauses` adds on a clause's
# triple: flipping the first literal leaves 6 GREEN cells, which prune
# through the other two variables; the three others with the first literal
# kept force it, and prune through each variable
SHARED_PAIR = [(-1, 1, 1)]
FORCED = [(1, -1, 1), (1, 1, -1), (1, -1, -1)]


def _with_extra_clauses(n, m, seed, extra, flips):
    """A random instance plus, on the triples of its first `extra` clauses,
    a copy of each clause per sign pattern in `flips`: those cubes start
    with at most 6 GREEN cells, so their out-edges are applied."""
    clauses = gen_random_3sat(n, m, seed).clauses
    return Instance(n, clauses + tuple(
        tuple(sign * lit for sign, lit in zip(signs, lits))
        for lits in clauses[:extra] for signs in flips))


def _embedded_core(n, m, seed):
    """A random instance at n variables holding a 12-variable instance that
    the engine refutes only after 17 passes, on variables spread over 1..n."""
    stride = n // 13
    return Instance(n, gen_random_3sat(n, m, seed).clauses + tuple(
        tuple(stride * lit for lit in clause)
        for clause in gen_random_3sat(12, 60, seed=2).clauses))


def _with_isolated_clause(n, m, seed):
    """A random instance with its variables from 7 up renumbered from 10 up,
    plus two clauses on (7, 8, 9): that cube shares no variable with any
    other, so it has no out-edges, it sits between cubes with some, and it
    is not inert, so the engine looks its out-edges up."""
    def shift(lit):
        return lit + 3 if lit >= 7 else lit - 3 if lit <= -7 else lit
    clauses = gen_random_3sat(n, m, seed).clauses
    return Instance(n + 3, tuple(tuple(map(shift, clause)) for clause in clauses)
                    + ((7, 8, 9), (-7, 8, 9)))


@pytest.mark.parametrize("state", [
    # the first four share two variables pairwise, and (3, 4, 5) two with
    # each of the two before it
    ClausalState(dict.fromkeys(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5), (5, 6, 7)], 0xFF)),
    build_clausal_partition(gen_random_3sat(40, 170, seed=1)).state,
    build_clausal_partition(_with_extra_clauses(100, 300, 2, 40, SHARED_PAIR)).state,
    build_clausal_partition(_with_extra_clauses(400, 1704, 3, 30, SHARED_PAIR)).state,
    build_clausal_partition(_with_extra_clauses(400, 1200, 3, 10, FORCED)).state,
    build_clausal_partition(_embedded_core(400, 1200, 4)).state,
])
def test_degrees_count_the_built_blocks(state):
    # cube s has as many out-edges as the eager graph built for it, and they
    # go to its neighbours in cube order
    graph = _Graph(tuple(state.triples()))
    eager = _EagerGraph(graph.nodes)
    first = eager.first
    degree = _out_degrees(graph.nodes)
    assert degree == [b - a for a, b in zip(first, first[1:])]
    for s in range(len(graph.nodes)):
        near = graph.neighbours(s)
        assert degree[s] == len(near)
        assert near == eager.tgt[first[s]:first[s + 1]]
    assert build_adjacency(state).edges == tuple(
        (eager.nodes[s], eager.nodes[t]) for s, t in zip(eager.src, eager.tgt))


# --- fixpoint -----------------------------------------------------------------

def test_fixpoint_single_cube_no_edges():
    build = build_clausal_partition(Instance(3, ((1, 2, 3),)))
    result = fixpoint(build.state)
    assert result.empty_triple is None
    assert result.stats.edge_applications == 0
    assert result.stats.applications_changed == 0
    assert result.fixpoint.cubes == build.state.cubes


def test_fixpoint_empty_cube_absorbs_neighbor():
    inst = Instance(4, (*ALL_POLARITIES, (2, 3, 4)))
    build = build_clausal_partition(inst)
    result = fixpoint(build.state)
    assert result.empty_triple == (1, 2, 3)
    full = fixpoint(build.state, early_exit=False)
    assert full.fixpoint.cubes[(2, 3, 4)] == 0


def test_fixpoint_matches_oracle_projections_on_forced_chain():
    # forced units threaded through shared variables: the one solution sets
    # every variable True, so each cube's projection of it is cell 7 alone
    inst = Instance(6, ((1,), (-1, 2), (-2, 3), (-3, 4), (-4, 5), (-5, 6)))
    build = build_clausal_partition(inst)
    result = fixpoint(build.state, early_exit=False)
    assert checks.sound(inst, result, "forced chain") is None
    assert all(mask == 1 << 7 for mask in result.fixpoint.cubes.values())


def test_fixpoint_monotone_and_bounded():
    for seed in range(10):
        inst = gen_random_3sat(10, 40, seed=seed)
        build = build_clausal_partition(inst)
        result = fixpoint(build.state, early_exit=False)
        for triple, mask in result.fixpoint.cubes.items():
            initial = build.state.cubes[triple]
            assert mask & initial == mask
        assert result.stats.applications_changed <= 8 * len(build.state.cubes)
        assert result.stats.cells_removed == sum(
            build.state.cubes[triple].bit_count() - mask.bit_count()
            for triple, mask in result.fixpoint.cubes.items())


def test_fixpoint_confluent_across_orders():
    for seed in range(5):
        inst = gen_random_3sat(9, 35, seed=100 + seed)
        build = build_clausal_partition(inst)
        assert checks.uni_bi_confluence(build.state, f"seed {100 + seed}", range(4)) is None


@pytest.mark.parametrize("instance", [
    pytest.param(gen_random_3sat(12, 51, seed=1), id="n=12,m=51"),
    pytest.param(gen_random_3sat(12, 66, seed=2), id="n=12,m=66"),
    pytest.param(gen_random_3sat(40, 170, seed=1), id="n=40,m=170"),
])
def test_stats_and_trace_do_not_depend_on_when_they_are_read(instance):
    # a result's stats and trace are computed from its run's record when
    # first read, and come out the same read in either order, after the
    # caller changes the fixpoint, and after more runs on the same state,
    # such as `checks.uni_bi_confluence` makes
    state = build_clausal_partition(instance).state
    for order_seed in (None, 0):
        for early_exit in (True, False):
            case = (order_seed, early_exit)
            first = fixpoint(state, order_seed, early_exit)
            want = first.stats, first.trace
            trace_first = fixpoint(state, order_seed, early_exit)
            assert trace_first.trace == want[1], case
            assert trace_first.stats == want[0], case
            late = fixpoint(state, order_seed, early_exit)
            for triple in late.fixpoint.cubes:
                late.fixpoint.cubes[triple] = 0
            for other_seed in (None, 1, 2):
                fixpoint(state, other_seed, early_exit=False)
            bidirectional_fixpoint(state)
            assert (late.stats, late.trace) == want, case


_REFUTED = gen_random_3sat(12, 66, seed=2)  # FIFO stops 25 edges short in a source
_EMPTY_ON_ENTRY = Instance(4, (*ALL_POLARITIES, (2, 3, 4)))


@pytest.mark.parametrize("run, instance", [
    pytest.param(fixpoint, gen_random_3sat(12, 51, seed=1), id="fifo"),
    pytest.param(lambda state: fixpoint(state, order_seed=0),
                 gen_random_3sat(12, 51, seed=1), id="order_seed"),
    pytest.param(lambda state: fixpoint(state, early_exit=False), _REFUTED, id="closed"),
    pytest.param(fixpoint, _REFUTED, id="early-exit"),
    pytest.param(lambda state: fixpoint(state, order_seed=0), _REFUTED,
                 id="early-exit,order_seed"),
    pytest.param(fixpoint, _EMPTY_ON_ENTRY, id="empty-on-entry"),
    pytest.param(fixpoint, Instance(6, ((1, 2, 3), (-4, 5, 6))), id="no-edge"),
    pytest.param(bidirectional_fixpoint, _REFUTED, id="bidirectional"),
])
def test_passes_and_cells_removed_are_the_stats_fields(run, instance):
    # bench reads a result's passes and cells removed, which count no
    # out-degree, in place of its stats: they must be the stats' fields,
    # read before the stats or after
    result = run(build_clausal_partition(instance).state)
    unread = result.passes, result.cells_removed
    stats = result.stats
    assert unread == (result.passes, result.cells_removed) == (stats.passes, stats.cells_removed)
    assert result.cells_removed == sum(record.cells_removed for record in result.trace)


def test_the_fixpoint_kinds_are_each_their_own_case():
    # the cases above reach what each name says
    refuted = build_clausal_partition(_REFUTED).state
    early = fixpoint(refuted)
    assert early.empty_triple is not None and early._skipped > 0
    assert fixpoint(refuted, order_seed=0)._skipped > 0
    closed = fixpoint(refuted, early_exit=False)
    assert closed.cells_removed > early.cells_removed > 0
    assert bidirectional_fixpoint(refuted).empty_triple is not None
    assert fixpoint(build_clausal_partition(_EMPTY_ON_ENTRY).state).passes == 0
    assert fixpoint(build_clausal_partition(gen_random_3sat(12, 51, seed=1)).state).passes > 1


@pytest.mark.parametrize("order_seed", [None, 0])
def test_fixpoint_reports_a_cube_empty_on_entry(order_seed):
    state = build_clausal_partition(Instance(4, (*ALL_POLARITIES, (2, 3, 4)))).state
    assert state.cubes[(1, 2, 3)] == 0
    result = fixpoint(state, order_seed)
    assert result.empty_triple == (1, 2, 3)
    assert result.stats == PropStats(0, 0, 0, 0)
    assert result.trace == []
    assert result.fixpoint == state
    closed = fixpoint(state, order_seed, early_exit=False)
    assert closed.empty_triple == (1, 2, 3)
    assert closed.fixpoint.cubes == {(1, 2, 3): 0, (2, 3, 4): 0}
    assert closed.stats.edge_applications > 0


# --- bidirectional ------------------------------------------------------------

def test_bidirectional_equals_unidirectional():
    for seed in range(10):
        inst = gen_random_3sat(10, 38, seed=200 + seed)
        build = build_clausal_partition(inst)
        assert checks.uni_bi_confluence(build.state, f"seed {200 + seed}") is None


def test_bidirectional_no_edges_is_noop():
    build = build_clausal_partition(Instance(3, ((1, 2, 3),)))
    result = bidirectional_fixpoint(build.state)
    assert result.fixpoint.cubes == build.state.cubes


def test_bidirectional_finds_empty_cube():
    inst = Instance(4, (*ALL_POLARITIES, (2, 3, 4)))
    result = bidirectional_fixpoint(build_clausal_partition(inst).state)
    assert result.empty_triple is not None
    # the sweep changed cubes but counts and records nothing
    assert result.fixpoint.cubes[(2, 3, 4)] != 0xFF
    assert (result.stats, result.trace) == (PropStats(), [])


# --- soundness ----------------------------------------------------------------

def test_satisfying_assignments_stay_green():
    for seed in range(15):
        inst = gen_random_3sat(8, 34, seed=300 + seed)
        build = build_clausal_partition(inst)
        result = fixpoint(build.state, early_exit=False)
        assert checks.sound(inst, result, f"seed {300 + seed}") is None


# --- extraction ---------------------------------------------------------------

def test_extract_greedy_single_clause():
    inst = Instance(3, ((1, 2, 3),))
    result = fixpoint(build_clausal_partition(inst).state)
    extraction = extract_assignment(result, inst)
    assert extraction is not None
    assert extraction.verified
    assert extraction.assignment == {1: False, 2: False, 3: True}


def test_extract_forced_unit():
    inst = Instance(3, ((-1,), (1, 2, 3)))
    result = fixpoint(build_clausal_partition(inst).state)
    extraction = extract_assignment(result, inst)
    assert extraction is not None
    assert extraction.assignment[1] is False
    assert extraction.verified


def test_extract_requires_nonempty_verdict():
    inst = Instance(3, ALL_POLARITIES)
    result = fixpoint(build_clausal_partition(inst).state)
    with pytest.raises(ValueError):
        extract_assignment(result, inst)


def test_extract_assigns_unconstrained_false():
    inst = Instance(5, ((1, 2, 3),))
    result = fixpoint(build_clausal_partition(inst).state)
    extraction = extract_assignment(result, inst)
    assert extraction.assignment[4] is False
    assert extraction.assignment[5] is False


def test_extract_may_fail_without_asserting_unsat():
    # one-level backtracking can give up on satisfiable instances; when it
    # returns something, it must verify
    for seed in range(10):
        inst = gen_random_3sat(10, 43, seed=400 + seed)
        result = fixpoint(build_clausal_partition(inst).state)
        if result.empty_triple is not None:
            continue
        extraction = extract_assignment(result, inst)
        if extraction is not None:
            assert extraction.verified


def _extract_from_scratch(result, instance):
    """Reference for `extract_assignment`, as it was before it propagated
    incrementally: each trial imposes the unit on a copy of the state and
    runs a full fixpoint."""
    state = result.fixpoint
    chosen = {}
    for var in sorted({v for triple in state.cubes for v in triple}):
        for value in (False, True):
            unit = Partition((var,), 0b10 if value else 0b01)
            trial = fixpoint(ClausalState({
                triple: impose(Partition(triple, mask), unit).green_mask
                if var in triple else mask
                for triple, mask in state.cubes.items()}))
            if trial.empty_triple is None:
                chosen[var], state = value, trial.fixpoint
                break
        else:
            return None
    assignment = {v: chosen.get(v, False) for v in range(1, instance.num_vars + 1)}
    return Extraction(assignment, instance.evaluate(assignment))


@pytest.mark.parametrize("n, m, seed", [(100, 300, 0), (100, 300, 1), (200, 600, 0)])
def test_extract_matches_from_scratch_reference(n, m, seed):
    inst = gen_random_3sat(n, m, seed)
    state = build_clausal_partition(inst).state
    result = fixpoint(state)
    want = _extract_from_scratch(result, inst)
    assert want is not None and want.verified
    assert extract_assignment(result, inst) == want
    # any closed fixpoint of the state is the same one, so the assignment
    # does not depend on the order or mode that computed it
    assert extract_assignment(fixpoint(state, order_seed=5), inst) == want
    assert extract_assignment(bidirectional_fixpoint(state), inst) == want
    # nor on anything but the closed masks: a result built from them alone,
    # inserted in any order, with no stats and no trace, gives it too
    cubes = list(result.fixpoint.cubes.items())
    random.Random(seed).shuffle(cubes)
    bare = PropagationResult(ClausalState(dict(cubes)), None)
    assert (bare.stats, bare.trace) == (PropStats(), [])
    assert extract_assignment(bare, inst) == want


def test_a_result_holds_no_graph(monkeypatch):
    # the graph a run builds for itself is freed once the run returns
    graphs = []
    init = _Graph.__init__

    def recording_init(self, nodes):
        graphs.append(weakref.ref(self))
        init(self, nodes)

    monkeypatch.setattr(_Graph, "__init__", recording_init)
    state = build_clausal_partition(gen_random_3sat(12, 40, seed=1)).state
    results = [fixpoint(state), fixpoint(state, order_seed=3), bidirectional_fixpoint(state)]
    gc.collect()
    assert len(graphs) == len(results)
    assert all(ref() is None for ref in graphs)


def test_extraction_is_linear_on_a_sparse_instance():
    # most units of this instance are not implied, so extraction changes
    # the state for thousands of variables; closing each in place costs
    # what it changes, 0.23-0.32 s of extraction on a 2-vCPU x86 VM, where
    # a copy of every mask and domain per variable took 6.6 s
    inst = gen_random_3sat(65536, 16384, seed=1)
    result = fixpoint(build_clausal_partition(inst).state)
    start = time.process_time()
    got = extract_assignment(result, inst)
    assert time.process_time() - start < 2.0
    assert got is not None and got.verified


@pytest.mark.parametrize("instance", [
    pytest.param(gen_random_3sat(12, m, seed), id=f"n=12,m={m},seed={seed}")
    for m in (36, 51) for seed in range(3)
] + [
    pytest.param(_with_extra_clauses(20, 60, 2, 6, FORCED), id="n=20,forced"),
    pytest.param(_with_extra_clauses(20, 70, 3, 8, SHARED_PAIR), id="n=20,shared-pair"),
    pytest.param(Instance(12, ((1, 2), (-2, 3), (-3, -4), (4, 5, 6), (-1, 7),
                               (-7, 8), (8, -9), (9, 10, -11), (-12,))),
                 id="n=12,short-clauses"),
])
def test_unit_closure_is_the_fixpoint_of_the_imposed_state(instance):
    # closing a unit over the separators of a closed state, in place,
    # reaches the closed fixpoint of the state with the unit imposed, and
    # fails exactly when that fixpoint holds an empty cube, leaving the
    # masks and domains as they were; the domains it leaves are those read
    # off the masks it leaves
    result = fixpoint(build_clausal_partition(instance).state)
    assert result.empty_triple is None
    cubes = result.fixpoint.cubes
    nodes = sorted(cubes)
    masks = [cubes[triple] for triple in nodes]
    domains = _Closure(cubes).domains

    def check(closure, got, var, value):
        imposed = ClausalState({
            triple: mask & _CELLS[triple.index(var)][value] if var in triple else mask
            for triple, mask in zip(nodes, masks)})
        want = fixpoint(imposed, early_exit=False)
        if want.empty_triple is not None:
            assert got is False, (var, value)
            assert (closure.masks, closure.domains) == (masks, domains), (var, value)
            return False
        assert got is True, (var, value)
        assert closure.masks == [want.fixpoint.cubes[triple] for triple in nodes]
        assert closure.domains == _Closure(dict(zip(nodes, closure.masks))).domains
        return True

    for var in _Closure(cubes).variables:
        holds = {}
        for value in (False, True):
            closure = _Closure(cubes)
            holds[value] = check(closure, closure.impose(var, value), var, value)
        # extraction's sequence: on one closure, a refuted value, then the
        # other, which reaches the fixpoint with only the other imposed
        for value in (False, True):
            if holds[value] and not holds[not value]:
                closure = _Closure(cubes)
                assert closure.impose(var, not value) is False, (var, value)
                check(closure, closure.impose(var, value), var, value)


# --- lazy engine against the eager reference ---------------------------------

_DIFFERENTIAL = [
    pytest.param(gen_random_3sat(n, round(n * ratio), seed=1), id=f"n={n},ratio={ratio}")
    for n in (100, 400, 2000) for ratio in (3.0, 4.26, 5.5)
] + [
    pytest.param(_with_extra_clauses(400, 1200, 5, 20, SHARED_PAIR), id="n=400,shared-pair"),
    pytest.param(_with_extra_clauses(400, 1200, 1, 10, FORCED), id="n=400,forced"),
    pytest.param(_with_extra_clauses(2000, 8520, 1, 5, FORCED), id="n=2000,forced"),
    pytest.param(_embedded_core(400, 1200, 7), id="n=400,embedded-core"),
    # sparse: most units are not implied, so extraction changes the state
    # and undoes refuted values on many variables
    pytest.param(gen_random_3sat(2000, 600, seed=1), id="n=2000,m=600"),
    # a degree-0 cube, which the passes hold and extraction queues; the
    # second ends under early exit
    pytest.param(_with_isolated_clause(12, 51, 1), id="n=12,isolated-clause"),
    pytest.param(_with_isolated_clause(12, 66, 1), id="n=12,isolated-clause,unsat"),
    # no edge, so no pass: no cube, one cube, two disjoint cubes, and a cube
    # empty on entry, which only a full closure runs the loop on
    pytest.param(Instance(3, ()), id="no-clause"),
    pytest.param(Instance(3, ((1, -2, 3),)), id="one-clause"),
    pytest.param(Instance(6, ((1, 2, 3), (-4, 5, -6))), id="disjoint-clauses"),
    pytest.param(Instance(3, ALL_POLARITIES), id="all-polarities"),
] + [
    # small dense instances, where FIFO early exit often meets the empty cube
    # in the middle of a cube's out-edges: 8 of these 24 at seeds 0-3
    pytest.param(gen_random_3sat(n, round(n * ratio), seed=seed),
                 id=f"n={n},ratio={ratio},seed={seed}")
    for n in (6, 9, 12) for ratio in (4.26, 5.5) for seed in range(4)
]


@pytest.mark.parametrize("instance", _DIFFERENTIAL)
def test_lazy_engine_matches_eager_reference(instance):
    state = build_clausal_partition(instance).state
    graph = _EagerGraph(tuple(state.triples()))
    for order_seed in (None, 0, 7):
        for early_exit in (True, False):
            masks = [state.cubes[triple] for triple in graph.nodes]
            rng = None if order_seed is None else random.Random(order_seed)
            trace = []
            stats, empty = _eager_worklist(graph, masks, early_exit, rng, trace)
            got = fixpoint(state, order_seed, early_exit)
            case = (order_seed, early_exit)
            assert got.stats == stats, case
            assert got.trace == trace, case
            assert got.fixpoint.cubes == dict(zip(graph.nodes, masks)), case
            assert got.empty_triple == (None if empty is None else graph.nodes[empty]), case
            if order_seed is None and early_exit and empty is None:
                assert extract_assignment(got, instance) == _eager_extract(
                    graph, masks, instance)


# --- separator bounds -----------------------------------------------------------

def _unbounded_worklist(graph, masks, early_exit, rng):
    """`_worklist` without separator bounds: a cube that restricts some
    separator is applied to every holder of every separator it restricts,
    in target order."""
    nodes, index = graph.nodes, graph._index
    log = []
    passes = []
    items = list(range(len(nodes))) if any(len(held) > 1 for held in index.values()) else []
    queued = bytearray(b"\x01") * len(items)
    while items:
        if rng is not None:
            rng.shuffle(items)
        passes.append(items)
        requeued = []
        for s in items:
            queued[s] = 0
            source = masks[s]
            sep = _SEPARATORS[source]
            a, b, c = src = nodes[s]
            found = []
            for slot, var in enumerate(src):
                if slot in sep:
                    found += index[var]
            for slot, (u, v) in enumerate(((a, b), (a, c), (b, c)), 3):
                if slot in sep:
                    found += [t for t in index[u] if v in nodes[t]]
            for t in sorted(set(found) - {s}):
                before = masks[t]
                after = before & _TABLES[_shape(src, nodes[t])][source]
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
    return passes, 0, log, masks.index(0) if 0 in masks else None


def _unbounded_fixpoint(state, order_seed, early_exit):
    """`fixpoint` on the unbounded loop."""
    graph = _Graph(tuple(state.triples()))
    masks = [state.cubes[triple] for triple in graph.nodes]
    if early_exit and 0 in masks:
        return PropagationResult(ClausalState(dict(zip(graph.nodes, masks))),
                                 graph.nodes[masks.index(0)])
    rng = None if order_seed is None else random.Random(order_seed)
    passes, skipped, log, empty = _unbounded_worklist(graph, masks, early_exit, rng)
    return PropagationResult(ClausalState(dict(zip(graph.nodes, masks))),
                             None if empty is None else graph.nodes[empty],
                             _passes=passes, _skipped=skipped, _log=log)


_UNBOUNDED_CASES = [
    pytest.param(gen_random_3sat(n, round(n * ratio), seed), id=f"n={n},ratio={ratio},seed={seed}")
    for n in (6, 9, 12, 20, 30, 40) for ratio in (2.0, 3.0, 4.26, 5.5) for seed in range(3)
] + [
    # 1- and 2-clauses padded with the smallest ids they lack, so that many
    # cubes share u1 and u2 and a pair of them
    pytest.param(random_cnf(n, round(n * ratio), seed, widths),
                 id=f"widths={''.join(map(str, widths))},n={n},ratio={ratio},seed={seed}")
    for widths in ((3, 3, 3, 3, 3, 3, 2, 2, 2, 1), (3, 2, 1), (2,))
    for n in (12, 40, 100) for ratio in (1.0, 2.0, 3.0) for seed in range(2)
]


def _assert_runs_unbounded(state, order_seed, early_exit):
    """`fixpoint` returns what the unbounded loop does; returns that."""
    want = _unbounded_fixpoint(state, order_seed, early_exit)
    got = fixpoint(state, order_seed, early_exit)
    case = (order_seed, early_exit)
    assert got.fixpoint == want.fixpoint, case
    assert got.stats == want.stats, case
    assert got.trace == want.trace, case
    assert got.empty_triple == want.empty_triple, case
    return got


@pytest.mark.parametrize("instance", _UNBOUNDED_CASES)
def test_bounds_skip_only_edges_that_change_nothing(instance):
    state = build_clausal_partition(instance).state
    for order_seed in (None, 0, 1, 2):
        for early_exit in (True, False):
            _assert_runs_unbounded(state, order_seed, early_exit)


def test_bounds_skip_only_edges_that_change_nothing_on_a_long_refutation():
    # Refuted in FIFO order after 3,459 changes, over 19 passes.  Closed, it
    # runs on until every cube is empty, which takes the unbounded loop
    # about 4 s an order, so it runs closed in FIFO order only.
    state = build_clausal_partition(gen_random_3sat(200, 13_000, seed=1)).state
    result = _assert_runs_unbounded(state, None, True)
    assert result.stats.applications_changed == 3459
    assert result.empty_triple is not None
    for order_seed in (0, 1, 2):
        _assert_runs_unbounded(state, order_seed, True)
    _assert_runs_unbounded(state, None, False)


@pytest.mark.parametrize("restricted", [
    pytest.param(_CELLS[0][False], id="variable"),
    pytest.param(0xFF & ~(_CELLS[0][False] & _CELLS[1][False]), id="pair"),
])
def test_a_bounded_separator_lists_no_holder(monkeypatch, restricted):
    # The first two cubes restrict the same separator, u1 or the pair
    # (u1, u2), to the same projection, and all four hold it.  Whichever of
    # the two comes up first lists its three holders and bounds the
    # separator; after it, neither the other nor the two cubes it pruned,
    # which then restrict the separator alike, visit a target.
    state = ClausalState({(1, 2, 3): restricted, (1, 2, 4): restricted,
                          (1, 2, 5): 0xFF, (1, 2, 6): 0xFF})
    shape = _shape
    visits = []

    def counted(src, tgt):
        visits.append((src, tgt))
        return shape(src, tgt)

    monkeypatch.setattr("satprop.propagate._shape", counted)
    for order_seed in (None, 0, 1, 2):
        visits.clear()
        result = fixpoint(state, order_seed)
        assert result.stats.applications_changed == 2
        assert len(visits) == 3 and len({src for src, _ in visits}) == 1, visits
