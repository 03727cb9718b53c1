#!/usr/bin/env python3
"""Record each workload's output summaries at the default seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``, which ``run.py`` compares every
operation against when it runs with the default seed.  Run it only at a
commit whose outputs are known to be right; every check in
``workloads.py`` must pass while recording.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        workdir = run.ROOT / ".perfbench_work" / f"{name}-reference"
        _, workload, runner = run.set_up(name, workloads.DEFAULT_SEED, workdir,
                                            check_reference=False)
        runner.summaries.clear()
        runner.round(workload)
        if runner.failed:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        reference[name] = runner.summaries
        print(f"{name}: {len(runner.summaries)} operations recorded")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
