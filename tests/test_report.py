"""The JSON documents: the builders of the `solve` report and the `trace`
document, and the writer, checked against json's own indenting encoder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satprop.clausal import Instance, build_clausal_partition
from satprop.dimacs import gen_random_3sat
from satprop.oracle import OracleVerdict
from satprop.propagate import extract_assignment, fixpoint
from satprop.report import (
    _Assignment,
    _Cube,
    _Ints,
    _Record,
    build_report,
    build_trace,
    mask_hex,
    write_report,
)


def test_mask_hex_format():
    assert mask_hex(0xDF) == "0xDF"
    assert mask_hex(0) == "0x00"


def test_write_report_is_deterministic():
    report = {"b": 1, "a": [1, 2], "c": {"y": None, "x": True}}
    assert write_report(report) == write_report(dict(reversed(report.items())))
    assert write_report(report).endswith("\n")


@pytest.mark.parametrize("n, m, seed", [(20, 160, 7000), (12, 40, 3)])
def test_builders_make_self_writing_entries(n, m, seed):
    # the builders' cube entries and trace records write themselves, by one
    # f-string each; a plain dict of the same shape takes the generic walker,
    # so this pins the builders to the self-writing types and those types
    # to json's text
    inst = gen_random_3sat(n, m, seed)
    result = fixpoint(build_clausal_partition(inst).state)
    unsat = result.empty_triple is not None
    extraction = None if unsat else extract_assignment(result, inst)
    report = build_report(inst, "gen", result, extraction, None, "fifo", {})
    trace = build_trace(result)
    if unsat:
        assert len(trace["records"]) > 100 and len(report["cubes"]) > 100
    else:
        assert extraction is not None and report["assignment"] is not None
    assert all(type(entry) is _Cube
               for entry in (*report["cubes"], *trace["final_cubes"]))
    assert all(type(record) is _Record for record in trace["records"])
    assert type(report["instance"]["unconstrained_vars"]) is _Ints
    assert type(report["assignment"]) is (_Assignment if extraction else type(None))
    for doc in (report, trace):
        assert write_report(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("num_vars, clauses", [
    (0, ()),  # an empty assignment and no unconstrained variable
    (12, ((1, -2, 3), (-10, 11), (4,))),  # keys 1, 10, 11, 12, 2, ... in json's order
])
def test_report_writes_assignment_and_unconstrained_vars_as_json(num_vars, clauses):
    inst = Instance(num_vars, clauses)
    result = fixpoint(build_clausal_partition(inst).state)
    extraction = extract_assignment(result, inst)
    report = build_report(inst, "x", result, extraction, None, "fifo", {})
    assert len(report["assignment"]) == num_vars
    assert report["instance"]["unconstrained_vars"] == list(inst.unconstrained_vars())
    assert write_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_report_of_an_instance_with_an_empty_clause():
    # such an instance is not propagated: the report reads its verdict,
    # cubes and stats off the missing result, and the oracle agrees with an
    # UNSAT verdict
    inst = Instance(4, ((1, 2, 3), (-1, 4)), has_empty_clause=True)
    report = build_report(inst, "x", None, None, OracleVerdict(False, None), "fifo", {})
    assert report["engine_verdict"] == "trivially_unsat"
    assert report["cubes"] == [] and report["empty_triple"] is None
    assert report["stats"] == {"passes": 0, "edge_applications": 0,
                               "applications_changed": 0, "cells_removed": 0}
    assert report["oracle_verdict"] == "unsat" and report["oracle_agrees"] is True
    assert report["assignment"] is None and report["assignment_verified"] is None
    assert "timings" not in report
    assert write_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _reference_report(doc):
    """The writer as it was: json's own indenting encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, newlines, controls, non-ASCII and astral characters
_STRINGS = st.text(st.sampled_from('ax0 "\\\n\t\x00\x7f\u00e9\u2028\u20ac\U0001f600'))
_INTS = st.integers(-(2**70), 2**70)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, _STRINGS, st.floats(),
    # floats as bench writes its ratio
    st.tuples(st.integers(0, 200), st.integers(1, 50)).map(
        lambda mn: round(mn[0] / mn[1], 4)),
)
_TRIPLES = st.lists(st.integers(1, 2000), min_size=3, max_size=3)
# entries that do not fit the writer's templates: other widths, bools,
# tuples, extra keys, and masks that are not str
_MISFIT_TRIPLES = st.one_of(
    st.lists(st.one_of(_INTS, st.booleans()), min_size=1, max_size=4),
    _TRIPLES.map(tuple),
)
_MASKS = st.one_of(st.integers(0, 255).map(mask_hex), _STRINGS)
_CUBES = st.one_of(
    st.fixed_dictionaries({"mask": _MASKS, "triple": _TRIPLES}),
    st.fixed_dictionaries({"mask": _MASKS, "triple": _MISFIT_TRIPLES}),
    st.fixed_dictionaries({"mask": _SCALARS, "triple": _TRIPLES}),
    st.fixed_dictionaries({"mask": _MASKS, "triple": _TRIPLES},
                          optional={"extra": _SCALARS, "Mask": _SCALARS}),
)
_RECORDS = st.fixed_dictionaries(
    {"after": _MASKS, "before": _MASKS, "cells_removed": st.integers(0, 8),
     "edge": st.lists(_TRIPLES, min_size=2, max_size=2)},
    optional={"extra": _SCALARS},
) | st.fixed_dictionaries(
    {"after": st.one_of(_MASKS, _SCALARS), "before": _MASKS,
     "cells_removed": st.one_of(st.booleans(), _INTS),
     "edge": st.lists(st.one_of(_TRIPLES, _MISFIT_TRIPLES), min_size=1, max_size=3)},
)
_ASSIGNMENTS = st.dictionaries(st.integers(1, 10**6).map(str), st.booleans()).map(
    _Assignment)
_INT_LISTS = st.lists(_INTS).map(_Ints)
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_CUBES) | st.lists(_RECORDS) | _ASSIGNMENTS | _INT_LISTS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        # json writes int, float, bool and None keys as strings
        st.dictionaries(_INTS, children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False) | st.booleans(), children, max_size=3),
        st.builds(lambda value: {None: value}, children),
        st.fixed_dictionaries({"source": _STRINGS, "cubes": st.lists(_CUBES),
                               "records": st.lists(_RECORDS), "rest": children}),
        st.lists(st.one_of(_CUBES, _RECORDS, children), max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_write_report_matches_json_reference(doc):
    assert write_report(doc) == _reference_report(doc)
