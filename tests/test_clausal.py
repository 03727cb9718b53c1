import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satprop.clausal import (
    EMPTY,
    TAUTOLOGY,
    Instance,
    _forbidden_mask,
    build_clausal_partition,
    canonicalize,
    host_triple,
)
from satprop.dimacs import gen_random_3sat, parse_dimacs


def clause_of(*lits, num_vars=10):
    result = canonicalize(lits, num_vars)
    assert isinstance(result, tuple)
    return result


# --- canonicalize ------------------------------------------------------------

def test_canonicalize_merges_and_sorts():
    c = clause_of(2, -1, 2)
    assert c == (-1, 2)


def test_canonicalize_tautology_and_empty():
    assert canonicalize([1, -1, 3], 3) is TAUTOLOGY
    assert canonicalize([], 3) is EMPTY


def test_canonicalize_rejects_bad_ids():
    cases = [
        ([0], "literal 0"),
        ([4], "exceeds declared count"),
        # a bad literal after a variable shows both signs is still read
        ([1, -1, 7], "exceeds declared count"),
        ([1, -1, 0], "literal 0"),
    ]
    for literals, match in cases:
        for fn in (canonicalize, _canonicalize_by_literal):
            with pytest.raises(ValueError, match=match):
                fn(literals, 3)


# --- host triples ------------------------------------------------------------

def test_host_triple_padding():
    assert host_triple(clause_of(-1, 2, -3), 5) == (1, 2, 3)
    assert host_triple(clause_of(1, 2), 5) == (1, 2, 3)
    assert host_triple(clause_of(2, 3), 5) == (1, 2, 3)
    assert host_triple(clause_of(-2), 5) == (1, 2, 3)
    # phantom ids past num_vars when the instance is too small
    assert host_triple(clause_of(1, 2, num_vars=2), 2) == (1, 2, 3)
    assert host_triple(clause_of(1, num_vars=1), 1) == (1, 2, 3)


# --- forbidden cells ---------------------------------------------------------

def forbidden_cells(clause, triple):
    """The cells of `_forbidden_mask`, as a set of cell indices."""
    mask = _forbidden_mask(clause, triple)
    return {cell for cell in range(8) if mask >> cell & 1}


def test_forbidden_cells_three_vars():
    # (~u1 v u2 v ~u3): binary form (F,T,F), complement (T,F,T) = cell 5
    assert forbidden_cells(clause_of(-1, 2, -3), (1, 2, 3)) == {5}


def test_forbidden_cells_two_vars():
    assert forbidden_cells(clause_of(1, 2), (1, 2, 3)) == {0, 4}


def test_forbidden_cells_unit():
    assert forbidden_cells(clause_of(-2), (1, 2, 3)) == {2, 3, 6, 7}


def test_forbidden_cells_rejects_outside_variable():
    with pytest.raises(ValueError):
        forbidden_cells(clause_of(4), (1, 2, 3))


@given(st.data())
def test_forbidden_cells_match_direct_evaluation(data):
    width = data.draw(st.integers(1, 3))
    vars_ = sorted(data.draw(st.sets(st.integers(1, 5), min_size=width, max_size=width)))
    lits = [v if data.draw(st.booleans()) else -v for v in vars_]
    clause = clause_of(*lits, num_vars=8)
    triple = host_triple(clause, 8)
    cells = forbidden_cells(clause, triple)
    for cell in range(8):
        sigma = {var: bool(cell >> i & 1) for i, var in enumerate(triple)}
        satisfied = any(sigma[abs(lit)] == (lit > 0) for lit in clause)
        assert satisfied == (cell not in cells)


# --- build_clausal_partition -------------------------------------------------

def test_build_single_clause():
    inst = Instance(3, ((-1, 2, -3),))
    build = build_clausal_partition(inst)
    assert not inst.has_empty_clause
    assert build.state.cubes[(1, 2, 3)] == 0xDF


def test_build_accumulates_on_shared_triple():
    inst = Instance(3, ((1, 2, 3), (-1, 2, -3)))
    build = build_clausal_partition(inst)
    assert build.state.cubes[(1, 2, 3)] == 0xDE


def test_build_all_polarities_gives_all_red():
    clauses = tuple(
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product([False, True], repeat=3)
    )
    inst = Instance(3, clauses)
    build = build_clausal_partition(inst)
    assert build.state.cubes[(1, 2, 3)] == 0x00


def test_build_flags_trivially_unsat():
    # the instance carries the flag; the build holds the other clauses' cubes
    inst = parse_dimacs("p cnf 3 2\n1 2 3 0\n0\n").instance
    build = build_clausal_partition(inst)
    assert inst.has_empty_clause
    assert build.state.cubes == {(1, 2, 3): 0xFE}


def test_build_green_iff_all_hosted_clauses_satisfied():
    inst = Instance(4, ((1, -2, 3), (-1, -2, 3), (2, 3, 4)))
    build = build_clausal_partition(inst)
    by_triple = {}
    for clause in inst.clauses:
        by_triple.setdefault(host_triple(clause, 4), []).append(clause)
    for triple, mask in build.state.cubes.items():
        for cell in range(8):
            sigma = {v: bool(cell >> i & 1) for i, v in enumerate(triple)}
            expected = all(
                any(sigma[abs(lit)] == (lit > 0) for lit in c) for c in by_triple[triple]
            )
            assert (mask >> cell & 1 == 1) == expected


def test_triple_union_covers_constrained_vars():
    inst = Instance(6, ((1, 2, 3), (-4, 5, 6), (2, -5)))
    build = build_clausal_partition(inst)
    covered = {v for t in build.state.cubes for v in t}
    assert set(inst.constrained_vars()) <= covered


# --- Instance ----------------------------------------------------------------

def test_instance_var_accounting():
    inst = Instance(5, ((1, 2, 3),))
    assert inst.constrained_vars() == (1, 2, 3)
    assert inst.unconstrained_vars() == (4, 5)


def test_instance_tautology_counter():
    inst = parse_dimacs("p cnf 3 2\n1 -1 0\n1 2 3 0\n").instance
    assert inst.tautologies_dropped == 1
    assert len(inst.clauses) == 1


def test_instance_rejects_overflow_variable():
    with pytest.raises(ValueError):
        Instance(2, ((1, 2, 3),))


@pytest.mark.parametrize("clause", [
    (),  # no literal
    (1, 2, 3, -3),  # four literals
    (2, 1),  # variables not ascending
    (1, -1),  # one variable twice
    (0, 1),  # literal 0
    (1, 2, 4),  # variable past num_vars
])
def test_instance_rejects_non_canonical_clause(clause):
    with pytest.raises(ValueError):
        Instance(3, (clause,))


_NOT_CANONICAL = "literals must be nonzero, sorted by variable and duplicate-free"


@pytest.mark.parametrize("clause, message", [
    ((0, 2, 3), _NOT_CANONICAL),  # literal 0 first
    ((1, 0, 3), _NOT_CANONICAL),  # literal 0 second
    ((1, -2, 0), _NOT_CANONICAL),  # literal 0 last
    ((1, -1, 3), _NOT_CANONICAL),  # first variable repeated
    ((1, 3, -3), _NOT_CANONICAL),  # last variable repeated
    ((3, 2, 1), _NOT_CANONICAL),  # variables descending
    ((1, 3, 2), _NOT_CANONICAL),  # last two variables swapped
    ((1, 2, -5), "variable u5 exceeds num_vars 4"),  # one past num_vars
])
def test_instance_names_what_is_wrong_with_a_3_literal_clause(clause, message):
    # a 3-literal clause that fails the quick canonical test gets the
    # message of the check it fails, as any other clause does
    with pytest.raises(ValueError) as caught:
        Instance(4, ((1, 2, 3), clause))
    expected = message if message.startswith("variable") else f"clause {clause}: {message}"
    assert str(caught.value) == expected


# --- differential: mask construction against the per-cell references ----------

def _forbidden_cells_by_cell(clause, triple):
    """The per-cell loop that built forbidden cells before the mask table."""
    positions = {}
    for lit in clause:
        if abs(lit) not in triple:
            raise ValueError(f"variable u{abs(lit)} not in triple {triple}")
        positions[abs(lit)] = triple.index(abs(lit))
    cells = set()
    for cell in range(8):
        falsified = all(
            (cell >> positions[abs(lit)] & 1 == 1) == (lit < 0)
            for lit in clause
        )
        if falsified:
            cells.add(cell)
    return cells


def _canonicalize_by_literal(literals, num_vars):
    """canonicalize read literal by literal: every raw literal is checked
    and split into a variable and a sign before a tautology is reported,
    and the clause is rebuilt from them."""
    polarity = {}
    tautology = False
    for lit in literals:
        if lit == 0:
            raise ValueError("literal 0 is reserved as clause terminator")
        variable, negated = abs(lit), lit < 0
        if variable > num_vars:
            raise ValueError(
                f"variable u{variable} exceeds declared count {num_vars}"
            )
        if variable in polarity:
            tautology |= polarity[variable] != negated
        else:
            polarity[variable] = negated
    if tautology:
        return TAUTOLOGY
    if not polarity:
        return EMPTY
    return tuple(-v if polarity[v] else v for v in sorted(polarity))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _reference_instance(num_vars, raw_clauses):
    clauses, tautologies, has_empty = [], 0, False
    for raw in raw_clauses:
        result = _canonicalize_by_literal(raw, num_vars)
        if result is TAUTOLOGY:
            tautologies += 1
        elif result is EMPTY:
            has_empty = True
        else:
            clauses.append(result)
    return Instance(num_vars, tuple(clauses), has_empty, tautologies)


def _host_triple_by_scan(clause):
    """The clause's variables and the smallest ids not among them, three in
    all, ascending."""
    vars_ = {abs(lit) for lit in clause}
    absent = (v for v in itertools.count(1) if v not in vars_)
    return tuple(sorted(vars_ | set(itertools.islice(absent, 3 - len(vars_)))))


def _reference_masks(instance):
    masks = {}
    for clause in instance.clauses:
        triple = _host_triple_by_scan(clause)
        mask = masks.get(triple, 0xFF)
        for cell in _forbidden_cells_by_cell(clause, triple):
            mask &= ~(1 << cell)
        masks[triple] = mask
    return masks


def _assert_front_half_matches(instance, reference):
    assert instance == reference
    build = build_clausal_partition(instance)
    assert build.state.cubes == _reference_masks(reference)
    for clause in instance.clauses:
        triple = host_triple(clause, instance.num_vars)
        assert triple == _host_triple_by_scan(clause)
        assert forbidden_cells(clause, triple) == (
            _forbidden_cells_by_cell(clause, triple)
        )


@st.composite
def raw_clauses(draw):
    """num_vars in 1..5 (below 3 the host triples pad past num_vars) and up
    to eight raw clauses of zero to five literals: duplicates, tautologies,
    literal 0 and ids past num_vars."""
    num_vars = draw(st.integers(1, 5))
    literal = st.integers(-num_vars - 1, num_vars + 1)
    return num_vars, draw(st.lists(st.lists(literal, max_size=5), max_size=8))


@given(raw_clauses())
def test_canonicalize_and_build_match_references(drawn):
    num_vars, raws = drawn
    accepted = []
    for raw in raws:
        result = _outcome(canonicalize, raw, num_vars)
        assert result == _outcome(_canonicalize_by_literal, raw, num_vars)
        # keep the clauses the parser takes: no literal 0 (it ends a DIMACS
        # clause), none past num_vars, at most three distinct variables
        in_range = all(0 < abs(lit) <= num_vars for lit in raw)
        if in_range and len(set(map(abs, raw))) <= 3:
            accepted.append(raw)
    text = f"p cnf {num_vars} {len(accepted)}\n" + "".join(
        " ".join(map(str, [*raw, 0])) + "\n" for raw in accepted)
    _assert_front_half_matches(
        parse_dimacs(text).instance, _reference_instance(num_vars, accepted)
    )


@given(st.data())
def test_forbidden_cells_match_reference_on_any_host(data):
    width = data.draw(st.integers(1, 3))
    vars_ = sorted(data.draw(st.sets(st.integers(1, 6), min_size=width, max_size=width)))
    clause = clause_of(*[v if data.draw(st.booleans()) else -v for v in vars_])
    triple = tuple(sorted(data.draw(st.sets(st.integers(1, 6), min_size=3, max_size=3))))
    assert _outcome(forbidden_cells, clause, triple) == (
        _outcome(_forbidden_cells_by_cell, clause, triple)
    )


@pytest.mark.parametrize("n, m", [
    *(pytest.param(n, 3 * n, id=str(n)) for n in (12, 100, 400)),
    pytest.param(3, 9, id="n=3"),  # every clause on (1, 2, 3)
    pytest.param(12, 0, id="m=0"),
])
def test_random_instances_match_references(n, m):
    rng = random.Random(n)  # the draw gen_random_3sat documents
    raws = []
    for _ in range(m):
        vars_ = sorted(rng.sample(range(1, n + 1), 3))
        raws.append([v if rng.random() < 0.5 else -v for v in vars_])
    _assert_front_half_matches(gen_random_3sat(n, m, n), _reference_instance(n, raws))
