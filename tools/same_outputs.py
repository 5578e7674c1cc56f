"""Check that this tree's `vnsim run` outputs are byte-identical to another
checkout's, on every benchmark workload and on extra configs.

    python3 tools/same_outputs.py --parent <checkout> [--seeds 0,3,7] \
        [--config FILE ...]

For each workload of perfbench/workloads.py and each seed (an empty
`--seeds` runs none), the config from this tree's `config_text` is run with
`python3 -m vnsim run` once with each tree's `src/` on PYTHONPATH, each in
its own empty directory (a tree without `vnsim/__main__.py` runs `python3 -m
vnsim.cli run`). Each `--config` file, which may be repeated, is run so
too, once, with its `output`, `summary` and `checkpoint_path` keys replaced
by the workloads' output in that directory. The CSV and the summary must
match byte for byte; for a file that differs, the first differing line of
each side is printed. Exit status 1 on any difference or failed run, 0
otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_difference(a: bytes, b: bytes):
    """(line number from 1, line of a, line of b) of the first differing
    line, with None for a side that has ended; None if a == b."""
    if a == b:
        return None
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        la = lines_a[i] if i < len(lines_a) else None
        lb = lines_b[i] if i < len(lines_b) else None
        if la != lb:
            return i + 1, la, lb
    # same lines, different line endings
    return len(lines_a), lines_a[-1], lines_b[-1]


def compare_dirs(parent: Path, change: Path, names) -> list:
    """One message per file that is missing or differs between the two
    output directories."""
    problems = []
    for name in names:
        pa, pc = parent / name, change / name
        if not pa.exists() or not pc.exists():
            problems.append(f"{name}: missing in "
                            + ", ".join(str(p.parent) for p in (pa, pc)
                                        if not p.exists()))
            continue
        diff = first_difference(pa.read_bytes(), pc.read_bytes())
        if diff is not None:
            line, la, lb = diff
            problems.append(f"{name}: first difference at line {line}\n"
                            f"  parent: {la!r}\n  change: {lb!r}")
    return problems


def in_workdir(text: str, output: str) -> str:
    """A config's text with its output paths replaced by `output` in the
    working directory (the summary and checkpoint then go next to it)."""
    own = ("output", "summary", "checkpoint_path")
    lines = [line for line in text.splitlines()
             if line.split("#", 1)[0].partition("=")[0].strip() not in own]
    return "".join(line + "\n" for line in lines) + f"output = {output}\n"


def _run(tree: Path, workdir: Path, config: str) -> int:
    workdir.mkdir()
    (workdir / "run.conf").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    module = "vnsim" if (tree / "src/vnsim/__main__.py").exists() else "vnsim.cli"
    out = subprocess.run([sys.executable, "-m", module, "run", "run.conf"],
                         cwd=workdir, env=env, capture_output=True, text=True)
    if out.returncode:
        sys.stderr.write(out.stderr)
    return out.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout to compare this tree with")
    parser.add_argument("--seeds", default="0,3,7",
                        help="comma-separated workload seeds")
    parser.add_argument("--config", action="append", default=[], type=Path,
                        metavar="FILE", help="a config to run beside the "
                        "workloads; may be repeated")
    args = parser.parse_args(argv)

    workloads = _workloads()
    names = [workloads.OUTPUT, workloads.OUTPUT + ".summary"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    jobs = [(f"{name} seed {seed}", workloads.config_text(name, seed))
            for name in workloads.WORKLOADS for seed in seeds]
    jobs += [(str(path), in_workdir(path.read_text(), workloads.OUTPUT))
             for path in args.config]
    bad = 0
    for label, config in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            dirs = {side: Path(tmp) / side for side in trees}
            codes = {side: _run(tree, dirs[side], config)
                     for side, tree in trees.items()}
            problems = compare_dirs(dirs["parent"], dirs["change"], names)
        if codes["parent"] != codes["change"]:
            problems.insert(0, f"exit status {codes['parent']} (parent) "
                               f"against {codes['change']} (change)")
        print(f"{label}: " + ("identical" if not problems else "DIFFERENT"),
              flush=True)
        for problem in problems:
            print("  " + problem)
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
