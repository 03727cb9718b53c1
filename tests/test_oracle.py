import itertools

import pytest

from satprop import oracle
from satprop.bitspace import Partition, assemble, project
from satprop.clausal import Instance, build_clausal_partition
from satprop.dimacs import gen_random_3sat


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


def test_brute_force_single_clause():
    inst = Instance.from_raw(3, [[1, 2, 3]])
    verdict = oracle.brute_force_sat(inst)
    assert verdict.satisfiable
    assert verdict.solution_count == 7
    assert inst.evaluate(verdict.witness)


def test_brute_force_all_polarities_unsat():
    raws = [
        [v if s else -v for v, s in zip((1, 2, 3), signs)]
        for signs in itertools.product([False, True], repeat=3)
    ]
    verdict = oracle.brute_force_sat(Instance.from_raw(3, raws))
    assert not verdict.satisfiable
    assert verdict.solution_count == 0


def test_brute_force_no_clauses():
    verdict = oracle.brute_force_sat(Instance.from_raw(3, []))
    assert verdict.satisfiable
    assert verdict.solution_count == 8


def test_brute_force_guard():
    with pytest.raises(ValueError, match="decide limit"):
        oracle.brute_force_sat(Instance.from_raw(31, []))


def test_brute_force_dpll_path_agrees_with_table():
    # 22 variables forces the DPLL path; cross-check a shrunken twin
    inst = gen_random_3sat(22, 60, seed=11)
    verdict = oracle.brute_force_sat(inst)
    assert verdict.solution_count is None
    if verdict.satisfiable:
        assert inst.evaluate(verdict.witness)


def test_dpll_agrees_with_truth_table_on_small_instances():
    for seed in range(20):
        inst = gen_random_3sat(8, 30, seed=seed)
        table = oracle.brute_force_sat(inst)
        witness = oracle._dpll([list(c) for c in inst.clauses], 8)
        assert (witness is not None) == table.satisfiable
        if witness is not None:
            assert inst.evaluate(witness)


# --- join_semantics_oracle -----------------------------------------------------

def test_join_oracle_all_green_unchanged():
    p = Partition.all_green((1, 2, 3))
    q = Partition.all_green((2, 3, 4))
    out_p, out_q = oracle.join_semantics_oracle(p, q)
    assert (out_p, out_q) == (p, q)


def test_join_oracle_no_support_anywhere():
    p = Partition.all_green((1, 2, 3))
    q = Partition.all_red((2, 3, 4))
    out_p, _ = oracle.join_semantics_oracle(p, q)
    assert out_p.is_all_red()


def test_join_oracle_disjoint_error():
    with pytest.raises(ValueError):
        oracle.join_semantics_oracle(Partition((1,), 1), Partition((2,), 1))


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
    raws = [
        [v if s else -v for v, s in zip((1, 2, 3), signs)]
        for signs in itertools.product([False, True], repeat=3)
    ]
    inst = Instance.from_raw(3, raws)
    out = oracle.projected_solution_sets(inst, [(1, 2, 3)])
    assert out[(1, 2, 3)] == set()


def test_projections_single_clause():
    inst = Instance.from_raw(3, [[-1, 2, -3]])
    out = oracle.projected_solution_sets(inst, [(1, 2, 3)])
    assert out[(1, 2, 3)] == set(range(8)) - {5}


def test_projections_guard():
    inst = gen_random_3sat(22, 90, seed=0)
    assert len(inst.constrained_vars()) > 20
    with pytest.raises(ValueError, match="projection limit"):
        oracle.projected_solution_sets(inst, [(1, 2, 3)])


# --- conjunction_truth_table ---------------------------------------------------

def test_truth_table_no_clauses():
    table = oracle.conjunction_truth_table(Instance.from_raw(2, []))
    assert table == Partition.all_green((1, 2))


def test_truth_table_single_clause():
    table = oracle.conjunction_truth_table(Instance.from_raw(3, [[-1, 2, -3]]))
    assert table.green_mask == 0xDF


def test_truth_table_matches_assemble_on_two_cube_configuration():
    inst = Instance.from_raw(4, [[1, 2, 3], [-2, -3, -4]])
    build = build_clausal_partition(inst)
    assembled = assemble(
        (Partition(t, mask) for t, mask in build.state.cubes.items()), "BS")
    assert oracle.conjunction_truth_table(inst) == assembled


def test_truth_table_agrees_with_brute_force_count():
    for seed in range(10):
        inst = gen_random_3sat(9, 25, seed=seed)
        table = oracle.conjunction_truth_table(inst)
        verdict = oracle.brute_force_sat(inst)
        free = inst.num_vars - len(table.coords)
        assert table.green_count() * (1 << free) == verdict.solution_count


def test_truth_table_guard():
    inst = gen_random_3sat(17, 40, seed=3)
    if len(inst.constrained_vars()) > 16:
        with pytest.raises(ValueError, match="truth-table limit"):
            oracle.conjunction_truth_table(inst)


def test_assemble_with_padding_matches_projected_table():
    # a 2-variable clause hosts on a padded triple; projecting the assembled
    # partition back onto the constrained variables recovers the table
    inst = Instance.from_raw(3, [[1, -2]])
    build = build_clausal_partition(inst)
    assembled = assemble(
        (Partition(t, mask) for t, mask in build.state.cubes.items()), "BS")
    assert assembled.coords == (1, 2, 3)
    table = oracle.conjunction_truth_table(inst)
    assert table.coords == (1, 2)
    assert project(assembled, table.coords) == table
