"""The benchmark's scenario workloads and the seed -> input mapping.

Each workload is one closed, batch `vnsim run` of a fixed config.  Sizes are
chosen so that one run takes a few seconds on a 2-core box while the layer
the workload exists for still dominates it (see README.md for the measured
profile).
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# The program has no RNG (quiet start is a lattice), so the seed varies the
# inputs through the amplitude multiplier.  The range is narrow so that the
# amount of work (particle count, steps, grid growth) does not change.
DELTA_RANGE = (0.9, 1.1)

# Only the keys that differ from SimConfig defaults; `delta` and `output`
# are added by config_text().
WORKLOADS = {
    "coupled_push": {
        "why": "acceptance coupled grid, 76k particles: the RK4 push and its "
               "GridFieldHistory.first_derivs gather do almost all the work; "
               "checkpoints are written between steps",
        "config": {
            "n_per_dim": 10, "h": 0.5, "dt": 0.25, "pad": 5, "semilag": 0,
            "record_interval": 1, "checkpoint_interval": 0.5, "t_end": 1,
        },
    },
    "coupled_semilag": {
        "why": "3k particles with a stored float32 history: backward traces "
               "of semilag_profile through the history dominate; the forward "
               "push is small",
        "config": {
            "n_per_dim": 6, "h": 0.5, "dt": 0.25, "pad": 5,
            "keep_history": 1, "history_float32": 1, "history_stride": 4,
            "semilag": 1, "record_interval": 2, "t_end": 2,
        },
    },
    "free_stream": {
        "why": "acceptance free transport, 252k particles: zero-field push "
               "without gather, ensemble spread and deposit; a gather or "
               "semilag change should not move it",
        "config": {
            "coupling": 0, "h": 1, "dt": 0.5, "n_per_dim": 12,
            "record_interval": 2, "t_end": 10,
        },
    },
    "coupled_fine": {
        "why": "refinement-study grid h = 0.25 with few particles: FDTD, "
               "domain growth and the cone derivative maps dominate",
        "config": {
            "h": 0.25, "dt": 0.125, "pad": 3, "n_per_dim": 4, "semilag": 0,
            "record_interval": 2, "t_end": 12,
        },
    },
}

OUTPUT = "out.csv"


def delta_for_seed(seed: int) -> float:
    """Amplitude multiplier for a seed; the default seed gives exactly 1."""
    if seed == DEFAULT_SEED:
        return 1.0
    lo, hi = DELTA_RANGE
    return lo + (hi - lo) * random.Random(seed).random()


def config_text(name: str, seed: int) -> str:
    """`vnsim run` config for one workload and seed, output in the cwd."""
    values = dict(WORKLOADS[name]["config"], delta=repr(delta_for_seed(seed)),
                  output=OUTPUT)
    return "".join(f"{key} = {val}\n" for key, val in values.items())
