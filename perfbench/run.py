"""vnsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload coupled_push --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each repetition is one `vnsim run` of the workload's config in a fresh child
process (child.py) with the BLAS/OpenMP pools pinned to one thread, one
repetition at a time.  Repetitions continue while the next one is expected
to end within --seconds, and at least MIN_REPS run.  With --trace 1 they
alternate untraced and traced, and the per-layer metrics come from the
traced ones.

Every repetition is checked: exit code 0, summary status ok, a CSV
byte-identical to the first repetition of this invocation, and, for the
default seed, a CSV matching reference/<workload>.csv column by column within
RTOL (other seeds: finite columns and sup_mu > 0).  A repetition that fails
counts in `failed`.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  Metrics are
medians over the repetitions.  `--workload all` runs every workload untraced
and prints one table instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3          # untraced; a traced invocation needs one of each kind
DEADLINE_S = 170.0    # whole invocation, under the 180 s limit
RTOL = 1e-7           # reference match; reruns must be byte-identical
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [  # (name, unit)
    ("run_s", "s"),
    ("setup_s", "s"),
    ("particle_steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]


def read_csv(path: Path):
    """(column names, rows as lists of floats) of a vnsim run CSV."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[2:]]


def check_csv(path: Path, name: str, seed: int) -> str | None:
    """None if the CSV is correct for this workload and seed, else why not."""
    header, rows = read_csv(path)
    if not rows:
        return "CSV has no rows"
    if seed == workloads.DEFAULT_SEED:
        ref_path = HERE / "reference" / f"{name}.csv"
        if not ref_path.is_file():
            return f"no reference CSV {ref_path.name}"
        ref_header, ref_rows = read_csv(ref_path)
        if header != ref_header or len(rows) != len(ref_rows):
            return "CSV shape differs from the reference"
        for j, col in enumerate(header):
            for row, ref in zip(rows, ref_rows):
                if not abs(row[j] - ref[j]) <= RTOL * max(abs(row[j]), abs(ref[j])):
                    return (f"column {col} at t={row[0]}: {row[j]!r} != "
                            f"reference {ref[j]!r}")
        return None
    if any(v != v or abs(v) == float("inf") for row in rows for v in row):
        return "CSV has a non-finite value"
    sup = header.index("sup_mu")
    if not all(row[sup] > 0.0 for row in rows):
        return "sup_mu is not positive in every row"
    return None


def summary_status(path: Path) -> str:
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        if key.strip() == "status":
            return val.strip()
    return ""


def child_env() -> dict:
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def run_rep(name: str, seed: int, trace: bool, workdir: Path, timeout: float):
    """One repetition: (result dict or None, CSV sha256 or None, error or None)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed),
           str(int(trace)), str(result_path)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, None, f"child exited {proc.returncode}: {tail[0]}"
    result = json.loads(result_path.read_text())
    if result["exit"] != 0:
        return result, None, f"vnsim run exited {result['exit']}"
    status = summary_status(workdir / result["summary"])
    if status != "ok":
        return result, None, f"summary status {status!r}"
    csv_path = workdir / result["csv"]
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return result, digest, check_csv(csv_path, name, seed)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions of one workload; return the aggregated record."""
    start = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    reps, errors, walls = [], [], []
    first_digest = None
    try:
        while True:
            n = len(reps) + len(errors)
            elapsed = time.perf_counter() - start
            needed = n < (2 if trace else MIN_REPS)
            expected = statistics.mean(walls) if walls else 0.0
            if not needed and elapsed + expected > seconds:
                break
            remaining = DEADLINE_S - elapsed
            if remaining <= 1.0:
                break
            traced = trace and n % 2 == 1
            t0 = time.perf_counter()
            result, digest, error = run_rep(name, seed, traced, workdir, remaining)
            walls.append(time.perf_counter() - t0)
            if error is None and first_digest not in (None, digest):
                error = "CSV is not byte-identical to the first repetition"
            if digest is not None and first_digest is None:
                first_digest = digest
            if error is None:
                reps.append(result)
            else:
                errors.append(error)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"name": name, "seed": seed, "reps": reps, "errors": errors,
            "attempted": len(reps) + len(errors)}


def end_to_end(reps: list) -> dict:
    per_rep = {
        "run_s": [r["run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "particle_steps_per_s": [r["particles"] * r["steps"] / (r["run_s"] - r["setup_s"])
                                 for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {name: per_rep[name] for name, _ in END_TO_END}


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r["run_s"] for r in reps if not r["traced"]]
    out = {}
    for name, _unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = [statistics.median(r["layers"]["trace.run_s"] for r in traced)
                         - statistics.median(plain)] if traced and plain else []
        else:
            out[name] = [r["layers"][name] for r in traced]
    return out


def describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the contract JSON object."""
    reps = record["reps"]
    units = dict(tracing.PER_LAYER if trace else END_TO_END)
    samples = (per_layer if trace else end_to_end)(reps) if reps else {}
    metrics = {}
    print(f"workload {record['name']} seed {record['seed']} "
          f"delta {workloads.delta_for_seed(record['seed'])!r}")
    for error in record["errors"]:
        print(f"  FAILED repetition: {error}")
    for name, values in samples.items():
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": units[name]}
            print(f"  {name} = {metrics[name]['value']:.6g} {units[name]} "
                  f"(median, {describe(values)})")
    if reps:
        est = reps[0]["estimate_mb"]
        peak = max(r["peak_rss_mb"] for r in reps)
        flag = "EXCEEDS estimate" if peak > est else "within estimate"
        print(f"  memory: peak_rss_mb {peak:.1f} MiB vs cli.estimate_memory_mb "
              f"{est:.1f} MiB ({flag})")
    print(f"  ops_attempted = {record['attempted']}  ops_failed = {len(record['errors'])}")
    return {"correct": bool(reps) and not record["errors"],
            "attempted": record["attempted"], "failed": len(record["errors"]),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vnsim" / "cli.py").is_file():
        print(f"error: vnsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = {}
        for name in workloads.WORKLOADS:
            results[name] = report(measure(name, args.seed, args.seconds, False), False)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(record, bool(args.trace))
    print(json.dumps(result))
    return 0 if record["reps"] else 1


if __name__ == "__main__":
    sys.exit(main())
