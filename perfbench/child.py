"""One benchmark repetition: a single `vnsim run` of a workload in this process.

    python3 perfbench/child.py <workload> <seed> <trace 0|1> <result.json>

The config goes through cli.parse_config and cli.run_scenario exactly as
`vnsim run` does; the CSV and summary land in the current directory.  The
measurements are written as JSON to <result.json>.  With trace 0 only the
set-up call is wrapped (one span); with trace 1 every span in tracing.SPANS
is.  run.py starts one of these per repetition, so peak RSS belongs to one
run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vnsim import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, trace, result_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = tracing.Tracer()
    tracer.install(tracing.SPANS if trace else
                   [s for s in tracing.SPANS if s.name == tracing.SETUP_SPAN])
    text = workloads.config_text(name, seed)

    start = time.perf_counter()
    cfg = cli.parse_config(text)
    code = cli.run_scenario(cfg)
    run_s = time.perf_counter() - start

    result = {
        "exit": code,
        "traced": trace,
        "run_s": run_s,
        "setup_s": tracer.stat(tracing.SETUP_SPAN, "s"),
        "particles": int(tracer.stat(tracing.SETUP_SPAN, "particles")),
        "steps": int(round(cfg.t_end / cfg.dt)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "estimate_mb": cli.estimate_memory_mb(cfg),
        "csv": cfg.output,
        "summary": cfg.summary_path,
    }
    if trace:
        result["layers"] = tracer.layer_metrics(run_s)
        result["calls"] = {span.name: int(tracer.stat(span.name, "calls"))
                           for span in tracing.SPANS}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
