"""Self-test of the benchmark itself (not part of the vnsim test suite).

    python3 perfbench/selftest.py

Runs every workload once, traced, at the default seed, and checks:
- the traced CSV passes the same checks as an untraced one (tracing does
  not change results);
- every span records calls > 0 on the workloads that exercise it, which
  catches a wrapper installed on a name that no caller looks up;
- the top-level spans account for the traced run_s (coverage >= MIN_COVERAGE);
- BENCHMARK.json names exactly the workloads and metrics the benchmark
  reports;
- run.py fails without printing a result when the vnsim sources are absent.
Prints the three largest self times per workload.  Exits 0 if all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads

MIN_COVERAGE = 0.95

ALL = set(workloads.WORKLOADS)
COUPLED = {"coupled_push", "coupled_semilag", "coupled_fine"}
SEMILAG = {"coupled_semilag", "free_stream"}

# span -> workloads on which it must record calls
EXERCISED = {
    "profiles.InitialData.f_value": ALL,
    "characteristics.push": ALL,
    "characteristics.backward_trace": SEMILAG,
    "wavefield.GridFieldHistory.first_derivs": COUPLED,
    "wavefield.GridFieldHistory.phi": COUPLED,
    "wavefield.GridFieldHistory.append": COUPLED,
    "wavefield.fdtd_step": COUPLED,
    "wavefield.FieldGrid.ensure_extent": ALL,
    "wavefield.field_derivatives": COUPLED,
    "vlasov_pic.sample_particles": ALL,
    "vlasov_pic.deposit_mu": ALL,
    "vlasov_pic.update_weights": COUPLED,
    "vlasov_pic.evaluate_f": SEMILAG,
    "vlasov_pic.init_coupled_state": ALL,
    "vlasov_pic.step": ALL,
    "diagnostics.semilag_profile": SEMILAG,
    "diagnostics.max_momentum_spread": ALL,
    "diagnostics.grid_derivative_maps": COUPLED,
    "cli.record": ALL,
    "cli.has_nan": ALL,
    "cli.save_checkpoint": {"coupled_push"},
    "cli.write_output": ALL,
    "cli.write_summary": ALL,
}


def check_workload(name: str) -> list:
    failures = []
    workdir = run.ROOT / ".perfbench_work" / f"selftest-{name}"
    result, _digest, error = run.run_rep(name, workloads.DEFAULT_SEED, True,
                                         workdir, run.DEADLINE_S)
    shutil.rmtree(workdir, ignore_errors=True)
    if error is not None:
        return [f"{name}: traced run failed: {error}"]
    for span, names in EXERCISED.items():
        if name in names and result["calls"][span] == 0:
            failures.append(f"{name}: span {span} recorded no calls")
    layers = result["layers"]
    if layers["trace.coverage"] < MIN_COVERAGE:
        failures.append(f"{name}: spans cover {layers['trace.coverage']:.3f} "
                        f"of run_s, need {MIN_COVERAGE}")
    top = sorted(((v, k) for k, v in layers.items()
                  if k.endswith(".self_s")), reverse=True)[:3]
    print(f"{name}: run_s {layers['trace.run_s']:.2f} s, coverage "
          f"{layers['trace.coverage']:.4f}; largest self times: "
          + ", ".join(f"{k[:-7]} {v:.2f} s" for v, k in top))
    return failures


def check_benchmark_json() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", tracing.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != reported:
            failures.append(f"BENCHMARK.json {key} differs from what the benchmark reports")
    for w in spec["workloads"]:
        if w["why"] != workloads.WORKLOADS[w["name"]]["why"]:
            failures.append(f"BENCHMARK.json why of {w['name']} differs from workloads.py")
    return failures


def check_bare_directory() -> list:
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    bare = run.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "coupled_push",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py printed a result without the vnsim sources"]
    return []


def main() -> int:
    failures = check_benchmark_json() + check_bare_directory()
    for name in workloads.WORKLOADS:
        failures += check_workload(name)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
