"""The README's measured table matches what the commands it names print."""

import json
import re
from pathlib import Path

from satprop.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SECTION = "## Does an empty cube decide 3SAT?"


def _section():
    """The README section that holds the table, up to the next section."""
    text = README.read_text(encoding="utf-8")
    start = text.index(SECTION)
    return text[start:text.index("\n## ", start)]


def _table1_row(n, point):
    """The Table 1 row, as the README writes it, of one `bench` point."""
    alpha = point["m"] // n
    return (f"| {n} | {alpha} | {point['m']} | {point['oracle_unsat']} "
            f"| {point['engine_unsat']} | {point['completeness_misses']} "
            f"| {point['soundness_violations']} "
            f"| {point['prunable_cubes'] / point['count']:.2f} | {9 / 7 * alpha ** 2 / n:.2f} |")


def test_table1_rows_are_what_bench_prints(capsys):
    section = _section()
    commands = re.findall(r"`satprop (bench --gen n=(\d+),\S+ --oracle on)`", section)
    assert [n for _, n in commands] == ["12", "20", "30"]
    rows = [line for line in section.splitlines() if re.match(r"\| \d", line)]
    printed = []
    for argv, n in commands:
        assert main(argv.split()) == 0
        for point in json.loads(capsys.readouterr().out)["points"]:
            assert point["soundness_violations"] == 0
            printed.append(_table1_row(int(n), point))
    for row, want in zip(rows, printed):
        assert row == want, f"README row {row!r} differs: bench prints {want!r}"
    assert len(rows) == len(printed)
