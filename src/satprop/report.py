"""The JSON documents the CLI writes, and the one writer that serializes
them.

`build_report` and `build_trace` take a run's own objects (the instance,
the `PropagationResult`, the `Extraction`, the `OracleVerdict`) and derive
every field of the `solve` report and the `trace` document from them;
`bench` builds its sweep under the same `PROVENANCE`.  `write_report`
writes any of the three as ``json.dumps(doc, indent=2, sort_keys=True)``
would (see README, "Report schema").  This module is the only one that
imports `json`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from . import __version__
from .clausal import Instance, Triple
from .oracle import OracleVerdict
from .propagate import Extraction, PropagationResult, PropStats

# the provenance keys at the top of every document
PROVENANCE = {"tool": "satprop", "version": __version__}


def mask_hex(mask: int) -> str:
    return f"0x{mask:02X}"


class _Cube(dict):
    """A cube entry as `_cube_entries` builds it, from a `mask_hex` string
    and a triple of ints; `to_json` writes it as `_json` would a dict."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        i, j = nl + "  ", nl + "    "
        a, b, c = self["triple"]
        return (f'{{{i}"mask": {_string(self["mask"])},{i}"triple": '
                f'[{j}{a},{j}{b},{j}{c}{i}]{nl}}}')


class _Record(dict):
    """A trace record as `build_trace` builds it, from two `mask_hex`
    strings, an int and an edge of two int triples; `to_json` writes it as
    `_json` would a dict."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        i, j = nl + "  ", nl + "    "
        k = j + "  "
        (a, b, c), (d, e, f) = self["edge"]
        return (f'{{{i}"after": {_string(self["after"])},{i}"before": '
                f'{_string(self["before"])},{i}"cells_removed": {self["cells_removed"]},'
                f'{i}"edge": [{j}[{k}{a},{k}{b},{k}{c}{j}],'
                f'{j}[{k}{d},{k}{e},{k}{f}{j}]{i}]{nl}}}')


class _Assignment(dict):
    """A report's assignment as `build_report` builds it, from variable ids
    written as decimal strings to bools; `to_json` writes it as `_json`
    would a dict, in json's order of string keys."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        if not self:
            return "{}"
        i = nl + "  "
        lines = (f'"{key}": {"true" if value else "false"}'
                 for key, value in sorted(self.items()))
        return f"{{{i}{f',{i}'.join(lines)}{nl}}}"


class _Ints(list):
    """A list of ints, such as a report's `unconstrained_vars`; `to_json`
    writes it as `_json` would a list."""

    __slots__ = ()

    def to_json(self, nl: str) -> str:
        if not self:
            return "[]"
        i = nl + "  "
        return f"[{i}{f',{i}'.join(map(str, self))}{nl}]"


def _cube_entries(cubes: dict[Triple, int]) -> list[dict[str, Any]]:
    return [_Cube(triple=list(triple), mask=mask_hex(mask))
            for triple, mask in cubes.items()]


def build_report(
    instance: Instance,
    source: str,
    result: PropagationResult | None,
    extraction: Extraction | None,
    oracle_verdict: OracleVerdict | None,
    order: str,
    seeds: dict[str, Any],
    timings: dict[str, float] | None = None,
) -> dict[str, Any]:
    """Assemble the `solve` report (see README for the schema) from one
    run.  `result` is the fixpoint's, or None for an instance with an empty
    clause, which is not propagated: its verdict is `trivially_unsat`, it
    has no cubes and its stats are zero.  `extraction` is None when none
    was run or none was found, and `oracle_verdict` when the oracle was
    skipped.  The `timings` block is added only when given."""
    empty_triple = None if result is None else result.empty_triple
    if result is None:
        engine_verdict = "trivially_unsat"
    elif empty_triple is None:
        engine_verdict = "no_empty_cube"
    else:
        engine_verdict = "unsat_by_empty_cube"
    agrees = None
    if oracle_verdict is not None:
        agrees = (engine_verdict != "no_empty_cube") != oracle_verdict.satisfiable
    report = {
        **PROVENANCE,
        "source": source,
        "instance": {
            "num_vars": instance.num_vars,
            "num_clauses": len(instance.clauses),
            "tautologies_dropped": instance.tautologies_dropped,
            "has_empty_clause": instance.has_empty_clause,
            "unconstrained_vars": _Ints(instance.unconstrained_vars()),
        },
        "order": order,
        "seeds": seeds,
        "engine_verdict": engine_verdict,
        "empty_triple": None if empty_triple is None else list(empty_triple),
        "oracle_verdict": (None if oracle_verdict is None
                           else "sat" if oracle_verdict.satisfiable else "unsat"),
        "oracle_agrees": agrees,
        "assignment": None if extraction is None else _Assignment(
            {str(v): val for v, val in extraction.assignment.items()}),
        "assignment_verified": None if extraction is None else extraction.verified,
        "cubes": [] if result is None else _cube_entries(result.fixpoint.cubes),
        "stats": asdict(PropStats() if result is None else result.stats),
    }
    if timings is not None:
        report["timings"] = timings
    return report


def build_trace(result: PropagationResult) -> dict[str, Any]:
    """Assemble the `trace` document of a run: one record per
    change-making edge application, and the final cubes."""
    return {
        **PROVENANCE,
        "records": [
            _Record(edge=[list(rec.edge[0]), list(rec.edge[1])],
                    before=mask_hex(rec.before), after=mask_hex(rec.after),
                    cells_removed=rec.cells_removed)
            for rec in result.trace
        ],
        "final_cubes": _cube_entries(result.fixpoint.cubes),
    }


# json's text for null, false and true: a json.dumps call costs microseconds
# and a report may hold thousands of these
_CONSTANTS = {value: json.dumps(value) for value in (None, False, True)}
# json's own string escaper, the one json.dumps calls for a str
_string = json.encoder.encode_basestring_ascii
# the builders' entry types, which write themselves
_SELF_WRITING = frozenset({_Cube, _Record, _Assignment, _Ints})


def write_report(doc: Any) -> str:
    """Serialize a document deterministically: the text of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.

    json indents in pure Python, so the containers are walked here instead.
    The cube entries, trace records, assignments and int lists that the
    builders above make write themselves, each in one string operation,
    and ints and constants are written as json writes them; every other
    value, a plain dict or list of an entry's shape too, and every string
    and key, is written by json."""
    return _json(doc, "\n") + "\n"


def _json(value: Any, nl: str) -> str:
    """`value` as JSON on a line whose indent `nl` (a newline and spaces)
    gives; nested lines are indented two more spaces per level."""
    kind = type(value)
    if kind in _SELF_WRITING:
        return value.to_json(nl)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if kind is int:
        return str(value)  # as json writes an int, not a bool or subclass
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        items = (_json(item, inner) for item in value)
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = (f"{_key(key)}: {_json(item, inner)}"
                 for key, item in sorted(value.items()))
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _string(key)
    # json writes an int, float, bool or None key as its JSON text, quoted,
    # and raises TypeError for any other type: '{"<key>": 0}'
    return json.dumps({key: 0})[1:-4]
