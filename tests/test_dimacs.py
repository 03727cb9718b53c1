from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satprop import clausal, dimacs
from satprop.clausal import Instance
from satprop.dimacs import (
    emit_dimacs,
    gen_random_3sat,
    mask_hex,
    parse_dimacs,
    write_report,
)


# --- parsing ------------------------------------------------------------------

def test_parse_basic_instance():
    result = parse_dimacs("p cnf 3 1\n-1 2 -3 0\n")
    inst = result.instance
    assert inst is not None
    assert inst.num_vars == 3
    assert len(inst.clauses) == 1
    assert inst.clauses[0].as_ints() == (-1, 2, -3)
    assert result.errors == []


def test_parse_drops_tautology_with_warning():
    result = parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert result.instance is not None
    assert len(result.instance.clauses) == 0
    assert result.instance.tautologies_dropped == 1
    assert any("tautolog" in w.message for w in result.warnings)


def test_parse_rejects_wide_clause():
    result = parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    assert result.instance is None
    (err,) = result.errors
    assert "3SAT-only" in err.message
    assert (err.line, err.column) == (2, 1)


def test_parse_comments_and_multiline_clauses():
    text = "c header comment\np cnf 4 2\n1 -2\n3 0 2 3\n-4 0\n"
    result = parse_dimacs(text)
    assert result.instance is not None
    assert [c.as_ints() for c in result.instance.clauses] == [
        (1, -2, 3), (2, 3, -4)]


def test_parse_out_of_range_literal_position():
    result = parse_dimacs("p cnf 2 1\nc mid comment\n 1 5 0\n")
    assert result.instance is None
    (err,) = result.errors
    assert (err.line, err.column) == (3, 4)
    assert "out of range" in err.message


def test_parse_satlib_trailer():
    text = (Path(__file__).parent / "data" / "satlib_trailer.cnf").read_text()
    result = parse_dimacs(text)
    assert result.diagnostics == []
    assert result.instance is not None
    assert not result.instance.has_empty_clause
    assert [c.as_ints() for c in result.instance.clauses] == [
        (1, -2, 3), (-1, 4, -5), (2, -3, -4), (-1, -2, 5)]


def test_parse_missing_header():
    result = parse_dimacs("1 2 0\n")
    assert result.instance is None
    assert any("problem line" in e.message for e in result.errors)


def test_parse_unterminated_clause():
    result = parse_dimacs("p cnf 3 1\n1 2 3\n")
    assert result.instance is None
    (err,) = result.errors
    assert "not terminated" in err.message
    assert (err.line, err.column) == (2, 1)


def test_parse_count_mismatch_warning():
    result = parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    assert result.instance is not None
    assert any("declares 2 clauses" in w.message for w in result.warnings)


def test_parse_empty_clause_flags_trivially_unsat():
    result = parse_dimacs("p cnf 3 2\n1 2 3 0\n0\n")
    assert result.instance is not None
    assert result.instance.has_empty_clause
    assert any("trivially" in w.message for w in result.warnings)


def test_parse_canonicalizes_each_clause_once(monkeypatch):
    calls = []
    built = []

    def counting_canonicalize(literals, num_vars):
        calls.append(list(literals))
        return real_canonicalize(literals, num_vars)

    def counting_post_init(instance):
        built.append(instance)
        real_post_init(instance)

    real_canonicalize = clausal.canonicalize
    real_post_init = Instance.__post_init__
    monkeypatch.setattr(clausal, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(dimacs, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(Instance, "__post_init__", counting_post_init)
    result = parse_dimacs("p cnf 4 3\n1 -1 2 0\n0\n1 2 3 0\n")
    inst = result.instance
    assert [c.as_ints() for c in inst.clauses] == [(1, 2, 3)]
    assert inst.num_vars == 4
    assert inst.has_empty_clause
    assert inst.tautologies_dropped == 1
    assert [str(d) for d in result.diagnostics] == [
        "2:1: warning: tautological clause dropped",
        "3:1: warning: empty clause: instance is trivially unsatisfiable",
    ]
    assert calls == [[1, -1, 2], [], [1, 2, 3]]
    assert built == [inst]


def test_diagnostics_point_into_source():
    text = "p cnf 2 1\n1 -1 0\n"
    result = parse_dimacs(text)
    lines = text.splitlines()
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


# --- emission -----------------------------------------------------------------

def test_emit_empty_instance():
    result = parse_dimacs("p cnf 0 0\n")
    assert emit_dimacs(result.instance) == "p cnf 0 0\n"


def test_emit_canonical_clause():
    result = parse_dimacs("p cnf 3 1\n-1 2 -3 0\n")
    assert emit_dimacs(result.instance) == "p cnf 3 1\n-1 2 -3 0\n"


def test_round_trip_identity():
    inst = gen_random_3sat(10, 30, seed=5)
    assert parse_dimacs(emit_dimacs(inst)).instance == inst


@given(st.integers(3, 12), st.integers(0, 40), st.integers(0, 10_000))
def test_round_trip_property(n, m, seed):
    inst = gen_random_3sat(n, m, seed)
    assert parse_dimacs(emit_dimacs(inst)).instance == inst


# --- generator ----------------------------------------------------------------

def test_generator_determinism():
    a = gen_random_3sat(10, 42, seed=7)
    b = gen_random_3sat(10, 42, seed=7)
    assert a == b
    assert emit_dimacs(a) == emit_dimacs(b)


def test_generator_shape():
    inst = gen_random_3sat(10, 42, seed=7)
    assert len(inst.clauses) + inst.tautologies_dropped == 42
    assert inst.tautologies_dropped == 0
    for clause in inst.clauses:
        vars_ = clause.variables()
        assert len(set(vars_)) == 3
        assert all(1 <= v <= 10 for v in vars_)


def test_generator_empty_and_guard():
    assert gen_random_3sat(3, 0, seed=1).clauses == ()
    with pytest.raises(ValueError):
        gen_random_3sat(2, 1, seed=1)


# --- report -------------------------------------------------------------------

def test_mask_hex_format():
    assert mask_hex(0xDF) == "0xDF"
    assert mask_hex(0) == "0x00"


def test_write_report_is_deterministic():
    report = {"b": 1, "a": [1, 2], "c": {"y": None, "x": True}}
    assert write_report(report) == write_report(dict(reversed(report.items())))
    assert write_report(report).endswith("\n")
