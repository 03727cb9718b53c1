"""The benchmark's workloads still produce the outputs it pins.

`perfbench/run.py` checks every operation's output against
`perfbench/reference.json` when it runs at the default seed, and counts a
mismatch as a failed operation.  Each workload named in `BENCHMARK.json` is
run here once, at that seed and for a single round, so a change to pinned
output fails here and not first in a benchmark run.  The harness imports
the program afresh from `src/`, so each workload runs in its own process;
it writes only under the test's temporary directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

RUN_ONE = """\
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads
print(json.dumps(run.run(sys.argv[2], workloads.DEFAULT_SEED, 0.0, False, Path(sys.argv[3]))))
"""


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_matches_the_reference_at_the_default_seed(name, tmp_path):
    done = subprocess.run(
        [sys.executable, "-B", "-c", RUN_ONE, str(ROOT / "perfbench"), name, str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
