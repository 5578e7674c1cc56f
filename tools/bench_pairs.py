"""Alternating parent/change benchmark runs, collected in one BENCH_*.json.

    python3 tools/bench_pairs.py --parent <checkout of the parent commit> \
        --out BENCH_<name>.json free_stream:0:10 coupled_push:0:3 ...

Each spec is <workload>:<seed>:<pairs>[:<trace>]. A pair runs `python3
perfbench/run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace T` once in the parent checkout and once in this one;
odd pairs start with the parent, even pairs with the change, so a drift of
the machine's speed splits evenly. The file keeps the final JSON line of
every run, and per spec the medians and quartiles of each metric on each
side, how many pairs the change won on each end-to-end metric, and whether
the change's median stays within that metric's `bound` of BENCHMARK.json
(relative to the parent's median, in the metric's worse direction). It
also keeps the machine's busy, steal and idle CPU ticks of /proc/stat over
the whole run, where that file exists: time stolen by other guests of the
host slows both sides and widens their spread.
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


def cpu_ticks(stat_text: str) -> dict:
    """Busy (user, nice, system, irq, softirq), steal and idle (idle,
    iowait) ticks of all CPUs, from the text of /proc/stat."""
    for line in stat_text.splitlines():
        name, *values = line.split()
        if name == "cpu":
            user, nice, system, idle, iowait, irq, softirq, steal = (
                int(v) for v in (values + ["0"] * 8)[:8])
            return {"busy": user + nice + system + irq + softirq,
                    "steal": steal, "idle": idle + iowait}
    raise ValueError("no aggregate cpu line in /proc/stat")


def _read_cpu_ticks() -> dict | None:
    try:
        return cpu_ticks(Path("/proc/stat").read_text())
    except OSError:
        return None


def ticks_over(before: dict | None, after: dict | None) -> dict | None:
    """The ticks between two readings, and steal's share of busy + steal."""
    if before is None or after is None:
        return None
    out = {k: after[k] - before[k] for k in before}
    used = out["busy"] + out["steal"]
    out["steal_share"] = out["steal"] / used if used else 0.0
    return out


def _summarise(runs: list, end_to_end: list) -> dict:
    """Per-metric medians and quartiles of each side; for the end-to-end
    metrics (BENCHMARK.json entries) also the pairs the change won and
    `within_bound`."""
    sides = {side: [r["metrics"] for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    specs = {m["name"]: m for m in end_to_end}
    out = {}
    for name in sides["parent"][0]:
        stats = {}
        for side, metrics in sides.items():
            q1, med, q3 = np.percentile([m[name] for m in metrics], [25, 50, 75])
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        if name in specs:
            sign = 1 if specs[name]["better"] == "lower" else -1
            stats["change_wins"] = sum(
                sign * (c[name] - p[name]) < 0
                for p, c in zip(sides["parent"], sides["change"]))
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            worse = sign * (change - parent) / abs(parent) if parent else 0.0
            stats["within_bound"] = bool(worse <= specs[name]["bound"])
        out[name] = stats
    return out


def _breaches(summary: dict) -> list:
    return [name for name, stats in summary.items()
            if not stats.get("within_bound", True)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("specs", nargs="+",
                        help="<workload>:<seed>:<pairs>[:<trace>]")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs, summary = [], []
    ticks_before = _read_cpu_ticks()
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
        metrics = _summarise(group, bench["end_to_end"])
        summary.append({"workload": workload, "seed": seed, "trace": trace,
                        "pairs": pairs, "metrics": metrics})
        breaches = _breaches(metrics)
        print(f"{workload} seed {seed}: "
              + (f"bound breached: {', '.join(breaches)}" if breaches
                 else "every end-to-end metric within its bound"), flush=True)

    cpu = ticks_over(ticks_before, _read_cpu_ticks())
    parent_rev = _git_rev(checkouts["parent"])
    report = {
        "command": f"python3 tools/bench_pairs.py --parent <checkout of "
                   f"{parent_rev}> --out {args.out.name} "
                   + " ".join(args.specs),
        "protocol": " ".join(__doc__.split("\n\n")[2].split()),
        "parent": parent_rev,
        "machine": f"{platform.machine()}, {platform.system()}, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
        "cpu_ticks": cpu,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
