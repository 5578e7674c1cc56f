"""Regenerate reference/<workload>.csv from the current program.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once at the default seed, untraced, and stores its CSV.
Only do this when a change is meant to move the numbers (for instance a
change of rounding), and say so in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads


def main(names) -> int:
    ref_dir = run.HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workdir = run.ROOT / ".perfbench_work" / f"reference-{name}"
        result, _digest, _error = run.run_rep(
            name, workloads.DEFAULT_SEED, False, workdir, run.DEADLINE_S)
        if result is None or result["exit"] != 0:
            print(f"{name}: run failed", file=sys.stderr)
            return 1
        shutil.copyfile(workdir / result["csv"], ref_dir / f"{name}.csv")
        shutil.rmtree(workdir)
        print(f"{name}: wrote reference/{name}.csv ({result['run_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
