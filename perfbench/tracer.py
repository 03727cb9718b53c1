"""Layer spans recorded from outside the program.

``Tracer.install`` replaces satprop's public functions, in the module
namespace where each caller looks them up, with wrappers that record a span
(name, start, end, parent).  A fixpoint called from ``extract_assignment``
therefore becomes a child span of the extraction.  Functions called once per
edge application or per cell pair (``bc_uni``, ``bc``, ``impose``,
``join_semantics_oracle``) are too many to keep one span each; their calls
and time are summed per name and charged to the enclosing span as child
time.  Self time is a span's duration less the time of its children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

# (module, attribute, layer, summed per call instead of one span per call)
TARGETS = [
    ("cli", "main", "cli", False),
    ("cli", "parse_dimacs", "dimacs.parse", False),
    ("cli", "gen_random_3sat", "dimacs.gen", False),
    ("cli", "build_report", "dimacs.report", False),
    ("cli", "write_report", "dimacs.report", False),
    ("cli", "emit_dimacs", "dimacs.report", False),
    ("cli", "build_clausal_partition", "clausal.build", False),
    ("cli", "fixpoint", "propagate.fixpoint", False),
    ("propagate", "fixpoint", "propagate.fixpoint", False),
    ("cli", "extract_assignment", "propagate.extract", False),
    ("cli", "bidirectional_fixpoint", "propagate.bidirectional", False),
    ("propagate", "build_adjacency", "propagate.adjacency", False),
    ("oracle", "brute_force_sat", "oracle.decide", False),
    ("oracle", "projected_solution_sets", "oracle.project", False),
    ("oracle", "join_semantics_oracle", "oracle.join", True),
    ("propagate", "bc_uni", "bitspace.bc_uni", True),
    ("bitspace", "bc_uni", "bitspace.bc_uni", True),
    ("propagate", "bc", "bitspace.bc", True),
    ("cli", "bc", "bitspace.bc", True),
    ("propagate", "impose", "bitspace.impose", True),
    ("bitspace", "impose", "bitspace.impose", True),
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})


def _names(layer: str) -> tuple[str, str, str]:
    """Metric names of a layer's self time, total time and calls."""
    if layer == "cli":  # the root span: its self time is argparse, JSON, file I/O
        return "cli.self_s", "cli.total_s", "cli.calls"
    return f"{layer}_s", f"{layer}_total_s", f"{layer}_calls"


# name -> unit, in report order.  Each layer reports its self time, total
# time and calls; the rest are counts read from what the program returned.
SELF_TIMES = [_names(layer)[0] for layer in LAYERS]
METRICS: dict[str, str] = {}
for _layer in LAYERS:
    _self, _total, _calls = _names(_layer)
    METRICS.update({_self: "s", _total: "s", _calls: "count"})
METRICS.update({
    "propagate.edges": "count",
    "propagate.edge_applications": "count",
    "propagate.applications_changed": "count",
    "propagate.useful_ratio": "ratio",
    "propagate.cells_removed": "count",
    "propagate.extract_fixpoint_calls": "count",
    "propagate.extract_success_ratio": "ratio",
    "dimacs.parse_mb_per_s": "MB/s",
    "clausal.cubes": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
})


def _count_result(counts: Counter, layer: str, args: tuple, result: object) -> None:
    if layer == "propagate.fixpoint":
        stats = result.stats
        counts["propagate.edge_applications"] += stats.edge_applications
        counts["propagate.applications_changed"] += stats.applications_changed
        counts["propagate.cells_removed"] += stats.cells_removed
    elif layer == "propagate.adjacency":
        counts["propagate.edges"] += len(result.edges)
    elif layer == "propagate.extract":
        counts["extract_successes"] += result is not None
    elif layer == "clausal.build":
        counts["clausal.cubes"] += len(result.state.cubes)
    elif layer == "dimacs.parse":
        counts["parse_bytes"] += len(args[0].encode())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        self.summed: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0

    def _span(self, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((frame[0], parent and parent[0], layer,
                                   start, end, frame[1]))
            _count_result(self.counts, layer, args, result)
            return result
        return wrapper

    def _summed(self, layer: str, fn: Callable) -> Callable:
        total = self.summed[layer]
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                total[0] += 1
                total[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def install(self, modules: dict[str, ModuleType]) -> Callable[[], None]:
        """Wrap every target; returns a function that puts the originals back."""
        saved = []
        for mod_name, attr, layer, summed in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            wrap = self._summed if summed else self._span
            setattr(module, attr, wrap(layer, original))

        def uninstall() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        return uninstall

    def metrics(self, traced_wall: float, untraced_wall: float,
                scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; span times are multiplied by ``scale``."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        names = {span_id: layer for span_id, _, layer, *_ in self.spans}
        extract_fixpoints = 0
        root_s = 0.0
        for span_id, parent, layer, start, end, child in self.spans:
            calls[layer] += 1
            total[layer] += (end - start) * scale
            self_s[layer] += (end - start - child) * scale
            if parent is None:
                root_s += (end - start) * scale
            elif layer == "propagate.fixpoint" and names[parent] == "propagate.extract":
                extract_fixpoints += 1
        for layer, (n, seconds) in self.summed.items():
            calls[layer] += n
            total[layer] += seconds * scale
            self_s[layer] += seconds * scale
        out: dict[str, float] = {}
        for layer in LAYERS:
            self_name, total_name, calls_name = _names(layer)
            out[self_name] = self_s[layer]
            out[total_name] = total[layer]
            out[calls_name] = calls[layer]
        c = self.counts
        out.update({
            "propagate.edges": c["propagate.edges"],
            "propagate.edge_applications": c["propagate.edge_applications"],
            "propagate.applications_changed": c["propagate.applications_changed"],
            "propagate.useful_ratio": _ratio(c["propagate.applications_changed"],
                                             c["propagate.edge_applications"]),
            "propagate.cells_removed": c["propagate.cells_removed"],
            "propagate.extract_fixpoint_calls": extract_fixpoints,
            "propagate.extract_success_ratio": _ratio(c["extract_successes"],
                                                      calls["propagate.extract"]),
            "dimacs.parse_mb_per_s": _ratio(c["parse_bytes"] / 1e6,
                                            self_s["dimacs.parse"]),
            "clausal.cubes": c["clausal.cubes"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.uncovered_s": traced_wall - root_s,
        })
        return out

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["id", "parent", "layer", "start", "end", "child_s"],
            "spans": self.spans,
            "summed": {layer: {"calls": n, "seconds": s}
                       for layer, (n, s) in sorted(self.summed.items())},
        }
        path.write_text(json.dumps(doc) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
