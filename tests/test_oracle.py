import ast
import dataclasses
import gc
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from satprop import bitspace, checks, oracle
from satprop.bitspace import Partition, assemble, project
from satprop.clausal import Instance, build_clausal_partition
from satprop.dimacs import gen_random_3sat
from satprop.propagate import fixpoint


def _column_by_formula(pos, n):
    """Column of `pos` over 2^n cells: the period-2^(pos+1) chunk times the
    repunit that repeats it over the whole mask."""
    period = 1 << (pos + 1)
    chunk = ((1 << (1 << pos)) - 1) << (1 << pos)
    reps = ((1 << (1 << n)) - 1) // ((1 << period) - 1)
    return chunk * reps


def test_columns_match_formula():
    for n in range(15):
        assert oracle._columns(n) == [_column_by_formula(pos, n) for pos in range(n)]
    for pos in (0, 1, 2, 3, 4, 11, 19):
        assert oracle._column(pos, 20) == _column_by_formula(pos, 20)


def _model_count(inst):
    """The number of satisfying assignments, by enumerating all of them."""
    return sum(
        inst.evaluate(dict(enumerate(values, start=1)))
        for values in itertools.product([False, True], repeat=inst.num_vars)
    )


def _table_count(inst):
    """The number of satisfying assignments, from the conjunction table."""
    table = oracle.conjunction_truth_table(inst)
    return table.green_mask.bit_count() << (inst.num_vars - len(table.coords))


def _assert_witness(inst, verdict):
    """A SAT verdict's witness assigns every variable and satisfies `inst`."""
    if verdict.satisfiable:
        assert set(verdict.witness) == set(range(1, inst.num_vars + 1))
        assert inst.evaluate(verdict.witness)
    else:
        assert verdict.witness is None


def test_brute_force_single_clause():
    inst = Instance(3, ((1, 2, 3),))
    verdict = oracle.brute_force_sat(inst)
    assert verdict.satisfiable
    assert _table_count(inst) == _model_count(inst) == 7
    assert inst.evaluate(verdict.witness)


def test_brute_force_all_polarities_unsat():
    clauses = tuple(
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product([False, True], repeat=3)
    )
    inst = Instance(3, clauses)
    verdict = oracle.brute_force_sat(inst)
    assert not verdict.satisfiable
    assert _table_count(inst) == _model_count(inst) == 0


def test_brute_force_no_clauses():
    inst = Instance(3, ())
    verdict = oracle.brute_force_sat(inst)
    assert verdict.satisfiable
    assert _table_count(inst) == _model_count(inst) == 8
    _assert_witness(inst, verdict)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="decide limit"):
        oracle.brute_force_sat(Instance(31, ()))


def test_brute_force_dpll_path_agrees_with_table():
    # past the projection limit the verdict is still a decision with a
    # witness and no model count, and it agrees with the truth table
    inst = gen_random_3sat(22, 60, seed=11)
    verdict = oracle.brute_force_sat(inst)
    assert [f.name for f in dataclasses.fields(verdict)] == ["satisfiable", "witness"]
    assert verdict.satisfiable == (oracle._sat_mask(inst, range(1, 23)) != 0)
    _assert_witness(inst, verdict)


def _decide_cases():
    """Seeded random 3SAT at n in {3, 8, 12, 16, 20} and ratios 1-8, and
    the shapes of the README sweep (n=12, m=12..72) and of the n=20 sweep
    (n=20, m=60..110)."""
    for n in (3, 8, 12, 16, 20):
        for ratio in range(1, 9):
            for seed in range(5 if n < 20 else 2):
                yield gen_random_3sat(n, ratio * n, seed=seed)
    for m in range(12, 73, 6):
        for seed in range(100, 105):
            yield gen_random_3sat(12, m, seed=seed)
    for m in range(60, 111, 5):
        for seed in range(100, 103):
            yield gen_random_3sat(20, m, seed=seed)


def test_dpll_agrees_with_truth_table_on_small_instances():
    outcomes = set()
    for inst in _decide_cases():
        n = inst.num_vars
        verdict = oracle.brute_force_sat(inst)
        assert verdict.satisfiable == (oracle._sat_mask(inst, range(1, n + 1)) != 0)
        _assert_witness(inst, verdict)
        outcomes.add(verdict.satisfiable)
    assert outcomes == {False, True}


# --- 3-XORSAT: structured inputs the engine never prunes ----------------------

def _xorsat(n, equations, seed):
    """A random 3-XORSAT system in CNF: `equations` parities x ^ y ^ z = b on
    distinct triples, each as the 4 clauses that forbid the assignments of
    the wrong parity.  Returns the instance and the system as (triple, b)."""
    rng = random.Random(seed)
    triples = set()
    while len(triples) < equations:
        triples.add(tuple(sorted(rng.sample(range(1, n + 1), 3))))
    system = [(triple, rng.randrange(2)) for triple in sorted(triples)]
    clauses = []
    for triple, b in system:
        for values in itertools.product([0, 1], repeat=3):
            if sum(values) % 2 != b:  # forbid it: each literal false there
                clauses.append(tuple(-v if x else v for v, x in zip(triple, values)))
    return Instance(n, tuple(clauses)), system


def _gf2_solvable(system):
    """Gaussian elimination over GF(2) on rows (variable bitmask, parity)."""
    pivots = {}  # pivot bit -> row whose lowest set bit it is
    for triple, b in system:
        row = sum(1 << (v - 1) for v in triple)
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = (row, b)
                break
            prow, pb = pivots[low]
            row, b = row ^ prow, b ^ pb
        else:
            if b:  # 0 = 1
                return False
    return True


def test_dpll_decides_3xorsat_like_gaussian_elimination():
    # 20 equations on 16 variables are mostly UNSAT; 10 equations give the
    # SAT side, where the witness is checked
    outcomes = set()
    for equations in (20, 10):
        for seed in range(30):
            inst, system = _xorsat(16, equations, seed)
            assert len(inst.clauses) == 4 * equations
            verdict = oracle.brute_force_sat(inst)
            assert verdict.satisfiable == _gf2_solvable(system)
            _assert_witness(inst, verdict)
            outcomes.add(verdict.satisfiable)
            # every cube is a parity cube, inert, so propagation changes nothing
            result = fixpoint(build_clausal_partition(inst).state, early_exit=False)
            assert result.stats.applications_changed == 0
            assert result.empty_triple is None
    assert outcomes == {False, True}


def test_dpll_leaves_no_reference_cycle():
    # the search recurses through a module function, not a closure over the
    # assignment, so deciding an instance leaves no garbage for the cyclic
    # collector
    instances = [gen_random_3sat(12, 51, seed) for seed in range(50)]
    gc.collect()
    gc.disable()
    try:
        for inst in instances:
            oracle.brute_force_sat(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the search's bitsets -------------------------------------------------------

def test_encode_sets_occurrences_and_two_bit_widths():
    # bit i stands for clause i; its width is 1 (low), 2 (high) or 3 (both)
    occ, low, high = oracle._encode(((1,), (-1, 2), (1, -2, 3), (-3,)), 3)
    assert [occ[lit] for lit in (1, 2, 3, -1, -2, -3)] == [
        0b0101, 0b0010, 0b0100, 0b0010, 0b0100, 0b1000]
    assert (low & ~high, high & ~low, low & high) == (0b1001, 0b0010, 0b0100)


def test_search_sets_units_first_then_branches_on_a_two_clause():
    # with no unit, the 2-clause (-3, 4) is taken before the lower 3-clause;
    # the 1-literal clause (-1,) is a unit, set before any branch
    verdict = oracle.brute_force_sat(Instance(4, ((1, 2, 3), (-3, 4))))
    assert list(verdict.witness.items()) == [(3, False), (1, True), (2, False), (4, False)]
    verdict = oracle.brute_force_sat(Instance(4, ((1, 2, 3), (-3, 4), (-1,))))
    assert list(verdict.witness.items()) == [(1, False), (2, True), (3, False), (4, False)]


def test_contradictory_units_are_refuted_at_the_root(monkeypatch):
    calls = []
    solve = oracle._solve
    monkeypatch.setattr(oracle, "_solve", lambda *args: calls.append(1) or solve(*args))
    assert oracle.brute_force_sat(Instance(1, ((1,), (-1,)))) == oracle.OracleVerdict(
        False, None)
    assert len(calls) == 1


def test_no_clauses_give_the_all_false_model():
    for n in (0, 1, 4):
        verdict = oracle.brute_force_sat(Instance(n, ()))
        assert verdict.witness == dict.fromkeys(range(1, n + 1), False)


# --- independence ---------------------------------------------------------------

def test_oracle_imports_only_value_types():
    # the oracle must share no code with the engine it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("satprop")
        ):
            module = (node.module or "").removeprefix("satprop.")
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("satprop") for a in node.names)
    assert imported == {("bitspace", "Partition"), ("clausal", "Instance"),
                        ("clausal", "Triple")}
    assert not {module for module, _ in imported} & {"propagate", "checks"}


# --- join_semantics_oracle -----------------------------------------------------

def test_join_oracle_all_green_unchanged():
    p = Partition.all_green((1, 2, 3))
    q = Partition.all_green((2, 3, 4))
    out_p, out_q = oracle.join_semantics_oracle(p, q)
    assert (out_p, out_q) == (p, q)


def test_join_oracle_no_support_anywhere():
    p = Partition.all_green((1, 2, 3))
    q = Partition((2, 3, 4), 0)
    out_p, _ = oracle.join_semantics_oracle(p, q)
    assert out_p.green_mask == 0


def test_join_oracle_disjoint_error():
    p, q = Partition((1, 2, 3), 0), Partition((4, 5, 6), 0)
    for _ in range(2):  # the cached restriction tables never cache a failure
        with pytest.raises(ValueError,
                           match=r"disjoint coordinates: \[1, 2, 3\] vs \[4, 5, 6\]"):
            oracle.join_semantics_oracle(p, q)


def test_join_oracle_rejects_equal_coordinates_as_bc_does():
    p, q = Partition((1, 2, 3), 0xF0), Partition((1, 2, 3), 0x3C)
    for combine in (oracle.join_semantics_oracle, bitspace.bc, bitspace.bc_uni):
        with pytest.raises(ValueError,
                           match="^operands must differ in at least one coordinate$"):
            combine(p, q)


def _green_cells(p):
    return [cell for cell in range(1 << len(p.coords)) if p.green_mask >> cell & 1]


def _supported_mask_by_tuples(a, b, shared):
    """The GREEN cells of `a` supported by `b`, with each cell's restriction
    to `shared` built as a tuple of bits."""
    b_pos = [b.coords.index(v) for v in shared]
    support = set()
    for cell in _green_cells(b):
        support.add(tuple(cell >> pos & 1 for pos in b_pos))
    a_pos = [a.coords.index(v) for v in shared]
    out = 0
    for cell in _green_cells(a):
        if tuple(cell >> pos & 1 for pos in a_pos) in support:
            out |= 1 << cell
    return out


def _assert_join_matches_tuples(p, q):
    shared = tuple(sorted(set(p.coords) & set(q.coords)))
    out_p, out_q = oracle.join_semantics_oracle(p, q)
    assert (out_p.coords, out_q.coords) == (p.coords, q.coords)
    assert out_p.green_mask == _supported_mask_by_tuples(p, q, shared)
    assert out_q.green_mask == _supported_mask_by_tuples(q, p, shared)


@pytest.mark.parametrize("layout", sorted(checks.LAYOUTS))
def test_join_oracle_matches_tuple_reference_on_every_layout_pair(layout):
    coords_a, coords_b = checks.LAYOUTS[layout]
    for mask_a in range(256):
        p = Partition(coords_a, mask_a)
        for mask_b in range(256):
            _assert_join_matches_tuples(p, Partition(coords_b, mask_b))


@st.composite
def overlapping_partitions(draw, universe=8):
    """Two partitions of 1-4 coordinates that share exactly 1-3 of them and
    differ in at least one."""
    shared = draw(st.sets(st.integers(1, universe), min_size=1, max_size=3))
    free = sorted(set(range(1, universe + 1)) - shared)
    extra_a = draw(st.sets(st.sampled_from(free), max_size=4 - len(shared)))
    free = [v for v in free if v not in extra_a]
    extra_b = draw(st.sets(st.sampled_from(free), max_size=4 - len(shared)))
    parts = []
    for extra in (extra_a, extra_b):
        coords = tuple(sorted(shared | extra))
        mask = draw(st.integers(0, (1 << (1 << len(coords))) - 1))
        parts.append(Partition(coords, mask))
    assume(parts[0].coords != parts[1].coords)
    return tuple(parts)


@given(overlapping_partitions())
def test_join_oracle_matches_tuple_reference_on_any_shape(pair):
    _assert_join_matches_tuples(*pair)


def test_join_oracle_contracting_idempotent():
    p = Partition((1, 2, 3), 0xB7)
    q = Partition((2, 3, 4), 0x6D)
    out_p, out_q = oracle.join_semantics_oracle(p, q)
    assert out_p.green_mask & p.green_mask == out_p.green_mask
    assert out_q.green_mask & q.green_mask == out_q.green_mask
    again = oracle.join_semantics_oracle(out_p, out_q)
    assert (again[0], again[1]) == (out_p, out_q)


# --- projected_solution_sets ---------------------------------------------------

def test_projections_empty_for_unsat():
    clauses = tuple(
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product([False, True], repeat=3)
    )
    inst = Instance(3, clauses)
    out = oracle.projected_solution_sets(inst, [(1, 2, 3)])
    assert out[(1, 2, 3)] == set()


def test_projections_single_clause():
    inst = Instance(3, ((-1, 2, -3),))
    out = oracle.projected_solution_sets(inst, [(1, 2, 3)])
    assert out[(1, 2, 3)] == set(range(8)) - {5}


def test_projections_guard():
    inst = gen_random_3sat(22, 90, seed=0)
    assert len(inst.constrained_vars()) > 20
    with pytest.raises(ValueError, match="projection limit"):
        oracle.projected_solution_sets(inst, [(1, 2, 3)])


# --- conjunction_truth_table ---------------------------------------------------

def test_truth_table_no_clauses():
    table = oracle.conjunction_truth_table(Instance(2, ()))
    assert table == Partition.all_green((1, 2))


def test_truth_table_single_clause():
    table = oracle.conjunction_truth_table(Instance(3, ((-1, 2, -3),)))
    assert table.green_mask == 0xDF


def test_truth_table_matches_assemble_on_two_cube_configuration():
    inst = Instance(4, ((1, 2, 3), (-2, -3, -4)))
    build = build_clausal_partition(inst)
    assembled = assemble(
        (Partition(t, mask) for t, mask in build.state.cubes.items()), "BS")
    assert oracle.conjunction_truth_table(inst) == assembled


def test_truth_table_agrees_with_brute_force_count():
    for seed in range(10):
        inst = gen_random_3sat(9, 25, seed=seed)
        table = oracle.conjunction_truth_table(inst)
        free = inst.num_vars - len(table.coords)
        assert table.green_mask.bit_count() * (1 << free) == _model_count(inst)


def test_empty_clause_instance_has_no_model():
    inst = Instance(4, ((1, 2, 3), (-1, 4)), has_empty_clause=True)
    assignments = itertools.product([False, True], repeat=4)
    assert not any(inst.evaluate(dict(zip(range(1, 5), values))) for values in assignments)
    table = oracle.conjunction_truth_table(inst)
    assert (table.coords, table.green_mask) == ((1, 2, 3, 4), 0)
    triples = [(1, 2, 3), (1, 2, 4)]
    assert oracle.projected_solution_sets(inst, triples) == {t: set() for t in triples}


def test_truth_table_guard():
    inst = gen_random_3sat(17, 40, seed=3)
    if len(inst.constrained_vars()) > 16:
        with pytest.raises(ValueError, match="truth-table limit"):
            oracle.conjunction_truth_table(inst)


def test_assemble_with_padding_matches_projected_table():
    # a 2-variable clause hosts on a padded triple; projecting the assembled
    # partition back onto the constrained variables recovers the table
    inst = Instance(3, ((1, -2),))
    build = build_clausal_partition(inst)
    assembled = assemble(
        (Partition(t, mask) for t, mask in build.state.cubes.items()), "BS")
    assert assembled.coords == (1, 2, 3)
    table = oracle.conjunction_truth_table(inst)
    assert table.coords == (1, 2)
    assert project(assembled, table.coords) == table
