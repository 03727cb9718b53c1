#!/usr/bin/env python3
"""satprop benchmark: run one workload through ``satprop.cli.main`` in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Load shape: a closed loop with one client.  One process, no threads; each
CLI operation starts when the previous one has returned.  The program is
imported from ``src/`` of the checkout this file sits in.

Set-up (timed as ``setup_s``, repeated three times, median reported):
import satprop afresh, generate the seeded inputs, write them, and run one
warm-up operation.  Then, with ``--trace 0``, the workload's round of
operations, each round from a fresh import of the program (untimed), is
repeated while another round still fits in ``--seconds``
(at least one round) and the end-to-end metrics are printed.  With
``--trace 1`` one traced round runs between two untraced ones, and the
per-layer metrics of the traced round are printed; the spans are written
to ``.perfbench_work/``.  Every operation's output is checked either way.

End-to-end metrics.  Each operation's time is its median over the rounds
run.  ``wall_s`` is the sum of those over one round; ``instances_per_s``
is the round's instances over ``wall_s`` (an instance is one input file for
solve and trace, one generated instance for bench, one battery for verify);
``instance_s.p50`` and ``instance_s.tail`` are taken over the round's
operations, each divided by its instances; ``peak_rss_mb`` is the process's
peak resident memory.  Every time, per-layer ones too, is in seconds of a
reference host (see ``HostSpeed``): shared hosts drift too much for raw
seconds to hold a bound.  ``error_rate`` (failed over attempted operations) is
printed on its own line and carried by ``attempted`` and ``failed``: it is
zero on a healthy program, so it cannot be a bounded metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
MODULES = ("cli", "propagate", "oracle", "bitspace")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def import_satprop(root: Path) -> dict:
    """Import satprop from ``root/src``, dropping any copy already loaded."""
    src = root / "src"
    if not (src / "satprop" / "__init__.py").is_file():
        raise ProgramMissing(f"no satprop package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "satprop" or n.startswith("satprop.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"satprop.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"satprop imported from {modules['cli'].__file__}, not {src}")
    return modules


class HostSpeed:
    """Converts measured times to seconds of a reference host.

    Shared hosts run the same Python code up to a third slower for tens of
    seconds at a time, more than the bounds the benchmark must hold.  A
    fixed piece of pure-Python work (tuples, sets, a dict and small ints, as
    the program uses) is timed before and after every timed step; the step's
    time is scaled by ``REFERENCE_S`` over the mean of those two samples,
    i.e. expressed in seconds of a host on which the calibration takes
    ``REFERENCE_S``.  The calibration is outside every timed step, and the
    raw and scaled totals are printed with each result."""

    REFERENCE_S = 0.010
    ITERATIONS = 10_000
    _SMALL = frozenset({1, 2, 3})

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        start = perf_counter()
        table: dict = {}
        for i in range(self.ITERATIONS):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0) + len(set(key) & self._SMALL) + (i * i & 0xFF)
        return perf_counter() - start

    def scale(self, elapsed: float) -> float:
        """Scales a step measured since the previous call (or creation)."""
        before, self._last = self._last, self._calibrate()
        scaled = elapsed * self.REFERENCE_S * 2 / (before + self._last)
        self.raw_s += elapsed
        self.scaled_s += scaled
        return scaled


class Runner:
    """Runs operations and keeps the failure accounting."""

    def __init__(self, modules: dict, reference: list | None,
                 host: HostSpeed | None = None) -> None:
        self.cli = modules["cli"]
        self.reference = reference
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.summaries: list = []

    def run(self, op: workloads.Op, index: int | None = None) -> float:
        """Times one CLI call, then checks it.  ``index`` is the op's place
        in the round, used to find its reference summary."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        code: object = None
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(op.argv)
            except (Exception, SystemExit) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        if problem is None:
            try:
                summary = op.check(code, out.getvalue())
                self.summaries.append(summary)
                if self.reference is not None and index is not None:
                    workloads.require(summary == self.reference[index],
                                      "output differs from the reference at the default seed")
            except Exception as exc:  # malformed output can fail a check in any way
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv[:1])}: {problem}")
        return elapsed if self.host is None else self.host.scale(elapsed)

    def round(self, workload: workloads.Workload,
              spans: tracer.Tracer | None = None) -> list[float]:
        """One pass over the workload's operations; returns each one's time.
        The round starts from a fresh import of the program, so the caches
        it fills lazily are paid once per round, as each CLI process pays
        them, and every round does the same work."""
        modules = import_satprop(ROOT)
        self.cli = modules["cli"]
        uninstall = spans.install(modules) if spans is not None else None
        try:
            return [self.run(op, index) for index, op in enumerate(workload.ops)]
        finally:
            if uninstall is not None:
                uninstall()


def set_up(name: str, seed: int, workdir: Path, check_reference: bool = True):
    """Import, generate inputs and run the warm-up; returns the pieces."""
    start = perf_counter()
    modules = import_satprop(ROOT)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    reference = (load_reference(name)
                 if check_reference and seed == workloads.DEFAULT_SEED else None)
    runner = Runner(modules, reference)
    runner.run(workload.warmup)
    return perf_counter() - start, workload, runner


def load_reference(name: str) -> list:
    return json.loads((HERE / "reference.json").read_text())[name]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its level.
    With ten samples or fewer no percentile qualifies; the maximum is
    reported at level 1.0."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0
    return ordered[n - 11], (n - 10) / n


def measure(runner: Runner, workload: workloads.Workload, seconds: float) -> dict:
    """Repeats the round while another one fits in ``seconds``.  Each
    operation's time is its median over the rounds, so the number of
    latency samples, and with it the tail level, is fixed by the workload
    and not by how many rounds a faster or slower program fits in."""
    rounds: list[list[float]] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        rounds.append(runner.round(workload))
        durations.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    op_times = [statistics.median(times) for times in zip(*rounds)]
    per_instance = [t / op.instances for t, op in zip(op_times, workload.ops)]
    tail_s, level = tail(per_instance)
    wall_s = sum(op_times)
    print(f"rounds {len(rounds)}; instance_s.tail at level {level:.3f} "
          f"of {len(per_instance)} samples")
    return {
        "wall_s": wall_s,
        "instances_per_s": workload.instances / wall_s,
        "instance_s.p50": statistics.median(per_instance),
        "instance_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(runner: Runner, workload: workloads.Workload, spans_path: Path) -> dict:
    """One traced round between two untraced ones; the tracing overhead is
    the traced round's time less the mean of the untraced ones."""
    untraced_before = sum(runner.round(workload))
    spans = tracer.Tracer()
    raw_before = runner.host.raw_s
    traced_wall = sum(runner.round(workload, spans))
    # span times are raw; scale them as the traced round's operations were
    scale = traced_wall / (runner.host.raw_s - raw_before)
    untraced_after = sum(runner.round(workload))
    spans.write(spans_path)
    return spans.metrics(traced_wall, (untraced_before + untraced_after) / 2, scale)


def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    workdir = work_root / f"{name}-seed{seed}"
    host = HostSpeed()
    setups = []
    for _ in range(SETUPS):
        elapsed, workload, runner = set_up(name, seed, workdir)
        setups.append(host.scale(elapsed))
    runner.host = host
    if trace:
        values = traced(runner, workload, workdir / "spans.json")
        units = tracer.METRICS
    else:
        values = {"setup_s": statistics.median(setups),
                  **measure(runner, workload, seconds)}
        units = END_TO_END
    print(f"host speed: timed steps took {host.raw_s:.6g} s, "
          f"{host.scaled_s:.6g} reference s")
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    error_rate = runner.failed / runner.attempted
    print(f"error_rate {error_rate:.6g} ({runner.failed}/{runner.attempted})")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT / ".perfbench_work")
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
