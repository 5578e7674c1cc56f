"""Alternating parent/change benchmark runs, collected in one BENCH_*.json.

    python3 tools/bench_pairs.py --parent <checkout of the parent commit> \
        --out BENCH_<name>.json free_stream:0:10 coupled_push:0:3 ...

Each spec is <workload>:<seed>:<pairs>[:<trace>]. A pair runs `python3
perfbench/run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace T` once in the parent checkout and once in this one;
odd pairs start with the parent, even pairs with the change, so a drift of
the machine's speed splits evenly. The file keeps the final JSON line of
every run, and per spec the medians and quartiles of each metric on each
side and how many pairs the change won on each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _git_rev(path: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=path,
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _run(checkout: Path, workload: str, seed: int, trace: int,
         seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed:\n{out.stderr}")
    res = json.loads(lines[-1])
    res["metrics"] = {name: m["value"] for name, m in res["metrics"].items()}
    return res


def _summarise(runs: list, lower_is_better: dict) -> dict:
    sides = {side: [r["metrics"] for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    out = {}
    for name in sides["parent"][0]:
        stats = {}
        for side, metrics in sides.items():
            q1, med, q3 = np.percentile([m[name] for m in metrics], [25, 50, 75])
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        if name in lower_is_better:
            sign = 1 if lower_is_better[name] else -1
            stats["change_wins"] = sum(
                sign * (c[name] - p[name]) < 0
                for p, c in zip(sides["parent"], sides["change"]))
        out[name] = stats
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("specs", nargs="+",
                        help="<workload>:<seed>:<pairs>[:<trace>]")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs, summary = [], []
    for spec in args.specs:
        workload, seed, pairs, *trace = spec.split(":")
        seed, pairs, trace = int(seed), int(pairs), int(trace[0]) if trace else 0
        group = []
        for pair in range(1, pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                res = _run(checkouts[side], workload, seed, trace,
                           bench["run_seconds"])
                entry = {"workload": workload, "seed": seed, "trace": trace,
                         "pair": pair, "side": side, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": res["metrics"]}
                print(json.dumps(entry), flush=True)
                group.append(entry)
        runs += group
        summary.append({"workload": workload, "seed": seed, "trace": trace,
                        "pairs": pairs,
                        "metrics": _summarise(group, lower_is_better)})

    parent_rev = _git_rev(checkouts["parent"])
    report = {
        "command": f"python3 tools/bench_pairs.py --parent <checkout of "
                   f"{parent_rev}> --out {args.out.name} "
                   + " ".join(args.specs),
        "protocol": " ".join(__doc__.split("\n\n")[2].split()),
        "parent": parent_rev,
        "machine": f"{platform.machine()}, {platform.system()}, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
