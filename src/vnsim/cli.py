"""Scenario runner: plain-text config, coupled time loop with per-record
diagnostics, decay fits, amplitude sweeps, and bitwise-reproducible
checkpoint/restart.

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .errors import ConfigError, DomainTooSmallError
from .profiles import InitialData, make_bump, validate_membership
from .vlasov_pic import (CoupledState, init_coupled_state, step,
                         ParticleEnsemble)
from .wavefield import FieldGrid, GridFieldHistory, _cfl_ok

FLOAT_FMT = "%.17g"

CSV_COLUMNS = [
    "t", "sup_mu", "sup_mu_sl", "p_max", "max_spread", "spread_sl",
    "k_origin", "k_cone", "l_origin", "fsc_k_raw", "fsc_l_raw",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    R: float = 1.0
    delta: float = 1.0          # amplitude multiplier applied to all data
    f_center: tuple = (0.0,) * 6
    f_radius: float = 1.0
    f_amplitude: float = 0.02
    f_k: int = 2
    phi0_center: tuple = (0.0, 0.0, 0.0)
    phi0_radius: float = 1.0
    phi0_amplitude: float = 0.01
    phi0_k: int = 3
    phi1_center: tuple = (0.0, 0.0, 0.0)
    phi1_radius: float = 1.0
    phi1_amplitude: float = 0.01
    phi1_k: int = 2
    h: float = 0.5
    dt: float = 0.25
    t_end: float = 10.0
    n_per_dim: int = 12
    pad: float = 2.0
    coupling: bool = True
    record_interval: float = 1.0
    semilag: bool = True        # semi-Lagrangian mu/spread columns
    semilag_radii: int = 24
    semilag_np: int = 10
    keep_history: bool = False  # store strided field levels for back-traces
    history_stride: int = 4
    history_float32: bool = False
    beta: float = 0.6
    eta: float = 0.0            # 0 = calibrate from early-time margins
    eta_t_hat: float = 2.0
    fit_t_lo: float = 10.0
    fit_t_hi: float = 0.0       # 0 = t_end
    output: str = "run.csv"
    summary: str = ""           # default: output + ".summary"
    threads: int = 1
    checkpoint_interval: float = 0.0  # 0 = no periodic checkpoints
    checkpoint_path: str = ""   # default: output + ".ckpt.npz"
    memory_budget_mb: float = 4096.0
    config_text: str = ""       # normalized source text, set by parse_config

    @property
    def fit_window(self):
        hi = self.fit_t_hi if self.fit_t_hi > 0 else self.t_end
        return (self.fit_t_lo, hi)

    @property
    def summary_path(self) -> str:
        return self.summary or self.output + ".summary"

    @property
    def ckpt_path(self) -> str:
        return self.checkpoint_path or self.output + ".ckpt.npz"


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_tuple(n):
    def conv(s: str):
        vals = tuple(float(v) for v in s.split(","))
        if len(vals) != n:
            raise ValueError(f"expected {n} comma-separated values, got {len(vals)}")
        return vals
    return conv


_SCHEMA = {
    "R": float, "delta": float,
    "f_center": _parse_tuple(6), "f_radius": float, "f_amplitude": float,
    "f_k": int,
    "phi0_center": _parse_tuple(3), "phi0_radius": float,
    "phi0_amplitude": float, "phi0_k": int,
    "phi1_center": _parse_tuple(3), "phi1_radius": float,
    "phi1_amplitude": float, "phi1_k": int,
    "h": float, "dt": float, "t_end": float, "n_per_dim": int, "pad": float,
    "coupling": _parse_bool, "record_interval": float,
    "semilag": _parse_bool, "semilag_radii": int, "semilag_np": int,
    "keep_history": _parse_bool, "history_stride": int,
    "history_float32": _parse_bool,
    "beta": float, "eta": float, "eta_t_hat": float,
    "fit_t_lo": float, "fit_t_hi": float,
    "output": str, "summary": str, "threads": int,
    "checkpoint_interval": float, "checkpoint_path": str,
    "memory_budget_mb": float,
}


def estimate_memory_mb(cfg: SimConfig) -> float:
    """Upfront bound on peak array memory at the final grid size."""
    n = 2 * int(np.ceil((cfg.R + cfg.t_end + cfg.pad + 1.0) / cfg.h)) + 3
    level = n**3 * 8.0
    total = 8.0 * level  # grid triple + mu + history ring
    if cfg.keep_history:
        n_levels = cfg.t_end / (cfg.dt * cfg.history_stride) + 2
        itemsize = 4.0 if cfg.history_float32 else 8.0
        total += n_levels * n**3 * itemsize
    # lattice particle fraction inside the unit 6-ball is pi^3/6 / 2^6
    n_part = cfg.n_per_dim**6 * (np.pi**3 / 6.0) / 64.0
    total += n_part * 15 * 8.0
    return total / 2**20


def parse_config(text: str) -> SimConfig:
    """key = value lines, # comments, unknown keys rejected with line numbers."""
    values = {}
    norm_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        norm_lines.append(f"{key} = {val}")
    cfg = SimConfig(**values, config_text="\n".join(sorted(norm_lines)) + "\n")
    _validate(cfg)
    return cfg


def _validate(cfg: SimConfig):
    if cfg.R <= 0:
        raise ConfigError("R must be positive")
    if cfg.delta < 0:
        raise ConfigError("delta must be nonnegative")
    if cfg.h <= 0 or cfg.dt <= 0 or cfg.t_end <= 0:
        raise ConfigError("h, dt, t_end must be positive")
    if cfg.coupling and not _cfl_ok(cfg.dt, cfg.h):
        raise ConfigError(
            f"CFL violated: dt = {cfg.dt} exceeds h/sqrt(3) = {cfg.h / np.sqrt(3):.6g}")
    if not 0.5 < cfg.beta < 0.75:
        raise ConfigError(
            f"beta = {cfg.beta} outside the admissible interval (1/2, 3/4)")
    if cfg.n_per_dim < 4:
        raise ConfigError("n_per_dim must be >= 4")
    if cfg.threads != 1:
        raise ConfigError("only threads = 1 is supported (deterministic mode)")
    steps = cfg.record_interval / cfg.dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ConfigError("record_interval must be a positive multiple of dt")
    if cfg.history_stride < 1:
        raise ConfigError("history_stride must be >= 1")
    if cfg.coupling and cfg.semilag and cfg.keep_history:
        # the *_sl columns trace back from each record time through the
        # stored levels, which exist only every history_stride steps
        level_dt = cfg.history_stride * cfg.dt
        for name in ("record_interval", "t_end"):
            k = getattr(cfg, name) / level_dt
            if abs(k - round(k)) > 1e-9:
                raise ConfigError(
                    f"{name} must be a multiple of history_stride * dt = {level_dt:g} "
                    "when coupling, semilag and keep_history are on")
    if cfg.checkpoint_interval > 0:
        cs = cfg.checkpoint_interval / cfg.dt
        if abs(cs - round(cs)) > 1e-9 or round(cs) < 1:
            raise ConfigError("checkpoint_interval must be a positive multiple of dt")
    need = estimate_memory_mb(cfg)
    if need > cfg.memory_budget_mb:
        raise ConfigError(
            f"estimated memory {need:.0f} MiB exceeds budget "
            f"{cfg.memory_budget_mb:.0f} MiB (raise memory_budget_mb or shrink the run)")


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(cfg.config_text.encode()).hexdigest()[:16]


def build_initial_data(cfg: SimConfig) -> InitialData:
    d = cfg.delta
    return InitialData(
        f_in=make_bump(cfg.f_center, cfg.f_radius, d * cfg.f_amplitude, cfg.f_k),
        phi0_in=make_bump(cfg.phi0_center, cfg.phi0_radius,
                          d * cfg.phi0_amplitude, cfg.phi0_k),
        phi1_in=make_bump(cfg.phi1_center, cfg.phi1_radius,
                          d * cfg.phi1_amplitude, cfg.phi1_k),
        support_radius_R=cfg.R,
    )


# ---------------------------------------------------------------------------
# Per-record diagnostics
# ---------------------------------------------------------------------------

def _record_row(state: CoupledState, cfg: SimConfig) -> dict:
    t = state.t
    row = {c: 0.0 for c in CSV_COLUMNS}
    row["t"] = t
    row["sup_mu"] = diag.sup_mu(state.grid)
    row["p_max"] = diag.momentum_support(state.ensemble)
    row["max_spread"] = diag.max_momentum_spread(state.ensemble, cfg.h)

    if cfg.semilag:
        view = None
        if not state.coupling:
            view = state.field_view  # zero field, no history needed
        elif state.hist_full is not None:
            view = state.hist_full
        if view is not None and t > 0:
            trace_dt = t if not state.coupling else cfg.dt
            _, mu_sl, spread_sl = diag.semilag_profile(
                t, view, state.data, trace_dt,
                n_radii=cfg.semilag_radii, n_p=cfg.semilag_np)
            row["sup_mu_sl"] = float(mu_sl.max())
            row["spread_sl"] = float(spread_sl.max())
        elif t == 0.0:
            row["sup_mu_sl"] = row["sup_mu"]

    if state.coupling:
        origin = np.zeros(3)
        row["k_origin"] = float(diag.measure_K(state.grid, origin))
        row["l_origin"] = float(diag.measure_L(state.grid, origin))
        K, L, r = diag.grid_derivative_maps(state.grid, max_radius=cfg.R + t)
        if K.size:
            row["k_cone"] = float(K.max())
            wk = diag.ConeWeight(cfg.R, cfg.beta, cfg.beta)(t, r)
            wl = wk * (1.0 + cfg.R + t - r)
            row["fsc_k_raw"] = float((K * wk).max())
            row["fsc_l_raw"] = float((L * wl).max())
    return row


def _format_row(row: dict) -> str:
    return ",".join(FLOAT_FMT % row[c] for c in CSV_COLUMNS)


def _has_nan(state: CoupledState) -> bool:
    vals = [state.grid.phi_p, state.grid.phi_0, state.ensemble.x,
            state.ensemble.p, state.ensemble.w]
    return any(not np.isfinite(np.sum(a)) for a in vals if a.size)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, cfg: SimConfig, state: CoupledState, rows: list):
    ens = state.ensemble
    grid = state.grid
    np.savez(
        path,
        config_text=np.frombuffer(cfg.config_text.encode(), dtype=np.uint8),
        config_hash=np.frombuffer(config_hash(cfg).encode(), dtype=np.uint8),
        t=np.array([state.t]),
        rows=np.frombuffer("\n".join(rows).encode(), dtype=np.uint8),
        ens_x=ens.x, ens_p=ens.p, ens_w=ens.w,
        ens_x0=ens.x0, ens_p0=ens.p0, ens_w0=ens.w0,
        ens_phi0=ens.phi0_at_x0, cell_volume=np.array([ens.cell_volume]),
        grid_meta=np.array([grid.h, grid.dt, float(grid.n_half), grid.t]),
        phi_m=grid.phi_m, phi_0=grid.phi_0, phi_p=grid.phi_p, mu=grid.mu,
    )


def load_checkpoint(path: str):
    with np.load(path) as z:
        cfg = parse_config(bytes(z["config_text"]).decode())
        rows = bytes(z["rows"]).decode().split("\n")
        h, dtv, n_half, gt = z["grid_meta"]
        grid = FieldGrid(h=float(h), dt=float(dtv), n_half=int(n_half),
                         t=float(gt), phi_m=z["phi_m"], phi_0=z["phi_0"],
                         phi_p=z["phi_p"], mu=z["mu"])
        ens = ParticleEnsemble(
            x=z["ens_x"], p=z["ens_p"], w=z["ens_w"], x0=z["ens_x0"],
            p0=z["ens_p0"], w0=z["ens_w0"], phi0_at_x0=z["ens_phi0"],
            cell_volume=float(z["cell_volume"][0]))
        t = float(z["t"][0])
    data = build_initial_data(cfg)
    hist = GridFieldHistory(max_levels=4)
    hist.append(grid.t, grid.phi_0, grid.h, grid.n_half)
    hist.append(grid.t + grid.dt, grid.phi_p, grid.h, grid.n_half)
    state = CoupledState(ensemble=ens, grid=grid, hist=hist, hist_full=None,
                         data=data, t=t, coupling=cfg.coupling, pad=cfg.pad)
    return cfg, state, rows


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def _write_output(cfg: SimConfig, rows: list):
    with open(cfg.output, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(r + "\n")


def _try_fit(rows: list, col: str, cfg: SimConfig):
    idx = CSV_COLUMNS.index(col)
    series = []
    for r in rows:
        vals = r.split(",")
        series.append((float(vals[0]), float(vals[idx])))
    try:
        return diag.fit_decay(series, cfg.fit_window)
    except ValueError:
        return None


def _write_summary(cfg: SimConfig, rows: list, status: str, note: str = ""):
    parsed = [[float(v) for v in r.split(",")] for r in rows]
    arr = np.array(parsed) if parsed else np.zeros((0, len(CSV_COLUMNS)))

    def col(name):
        return arr[:, CSV_COLUMNS.index(name)] if arr.size else np.zeros(0)

    lines = [f"config_hash = {config_hash(cfg)}", f"status = {status}"]
    if note:
        lines.append(f"note = {note}")
    if arr.size:
        lines.append(f"t_final = {FLOAT_FMT % col('t')[-1]}")
        lines.append(f"p_max_overall = {FLOAT_FMT % col('p_max').max()}")
        # FSC verdict with the configured or auto-calibrated eta
        ts = col("t")
        raw = np.maximum(col("fsc_k_raw"), col("fsc_l_raw"))
        eta = cfg.eta
        if eta <= 0.0:
            early = raw[ts <= cfg.eta_t_hat]
            eta = float(early.max()) if early.size and early.max() > 0 else 1.0
        lines.append(f"eta = {FLOAT_FMT % eta}")
        bad = ts[raw > eta * (1.0 + 1e-9)]
        lines.append(f"fsc_satisfied = {int(bad.size == 0)}")
        if bad.size:
            lines.append(f"fsc_first_violation_t = {FLOAT_FMT % bad[0]}")
        for name in ("sup_mu_sl", "sup_mu", "spread_sl", "max_spread",
                     "k_origin", "l_origin"):
            fit = _try_fit(rows, name, cfg)
            if fit is not None:
                lines.append(f"slope_{name} = {FLOAT_FMT % fit.slope}")
                lines.append(f"residual_{name} = {FLOAT_FMT % fit.residual}")
    with open(cfg.summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(cfg: SimConfig, state: CoupledState | None = None,
                 rows: list | None = None) -> int:
    """Run (or continue) a scenario; writes CSV + summary, returns exit code."""
    if state is None:
        data = build_initial_data(cfg)
        state = init_coupled_state(
            data, cfg.n_per_dim, cfg.h, cfg.dt, pad=cfg.pad,
            coupling=cfg.coupling, keep_history=cfg.keep_history,
            history_stride=cfg.history_stride,
            history_dtype=np.float32 if cfg.history_float32 else np.float64)
        rows = [_format_row(_record_row(state, cfg))]
    elif cfg.coupling and cfg.semilag and cfg.keep_history:
        raise ConfigError(
            "resume cannot rebuild the full field history; "
            "use semilag = 0 or keep_history = 0 for resumable coupled runs")

    rec_every = int(round(cfg.record_interval / cfg.dt))
    ckpt_every = (int(round(cfg.checkpoint_interval / cfg.dt))
                  if cfg.checkpoint_interval > 0 else 0)
    n_steps = int(round(cfg.t_end / cfg.dt))
    start = int(round(state.t / cfg.dt))

    for k in range(start + 1, n_steps + 1):
        record = (k % rec_every == 0) or (k == n_steps)
        try:
            step(state, deposit=record)
        except DomainTooSmallError as exc:
            _write_output(cfg, rows)
            _write_summary(cfg, rows, "aborted", f"domain: {exc}")
            return 3
        if _has_nan(state):
            save_checkpoint(cfg.ckpt_path, cfg, state, rows)
            _write_output(cfg, rows)
            _write_summary(cfg, rows, "aborted",
                           f"NaN detected at t={state.t}; "
                           f"last state saved to {cfg.ckpt_path}")
            return 3
        if record:
            rows.append(_format_row(_record_row(state, cfg)))
        if ckpt_every and k % ckpt_every == 0:
            save_checkpoint(cfg.ckpt_path, cfg, state, rows)

    _write_output(cfg, rows)
    _write_summary(cfg, rows, "ok")
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def sweep(cfg: SimConfig, deltas) -> list:
    """run_scenario per amplitude multiplier; returns table rows
    (delta, exit, fsc_satisfied, p_max, p_bound_ok)."""
    base = [line for line in cfg.config_text.splitlines()
            if line.partition("=")[0].strip() not in ("delta", "output", "summary")]
    table = []
    for d in deltas:
        sub = parse_config("\n".join(
            base + [f"delta = {float(d)!r}", f"output = {cfg.output}.delta{d:g}.csv"]))
        code = run_scenario(sub)
        summary = {}
        with open(sub.summary_path) as fh:
            for line in fh:
                if "=" in line:
                    key, _, val = line.partition("=")
                    summary[key.strip()] = val.strip()
        p_max = float(summary.get("p_max_overall", "0"))
        table.append({
            "delta": float(d),
            "exit": code,
            "fsc_satisfied": summary.get("fsc_satisfied", "0") == "1",
            "p_max": p_max,
            "p_bound_ok": p_max <= 2.0 * cfg.R + 1e-12,
            "fsc_first_violation_t": summary.get("fsc_first_violation_t", ""),
        })
    return table


def _print_sweep_table(table):
    print("delta,exit,fsc_satisfied,p_max,p_bound_ok,fsc_first_violation_t")
    for row in table:
        print(f"{row['delta']:g},{row['exit']},{int(row['fsc_satisfied'])},"
              f"{FLOAT_FMT % row['p_max']},{int(row['p_bound_ok'])},"
              f"{row['fsc_first_violation_t']}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> SimConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vnsim",
        description="Relativistic kinetic gas coupled to a scalar wave field: "
                    "scenario runs, amplitude sweeps, and decay diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run a scenario per amplitude multiplier")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--delta", required=True,
                         help="comma-separated amplitude multipliers")
    p_res = sub.add_parser("resume", help="continue a run from a checkpoint")
    p_res.add_argument("checkpoint")
    p_val = sub.add_parser("validate", help="check config and data admissibility")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_scenario(_load_config(args.config))
        if args.command == "sweep":
            deltas = [float(v) for v in args.delta.split(",")]
            _print_sweep_table(sweep(_load_config(args.config), deltas))
            return 0
        if args.command == "resume":
            cfg, state, rows = load_checkpoint(args.checkpoint)
            return run_scenario(cfg, state=state, rows=rows)
        if args.command == "validate":
            cfg = _load_config(args.config)
            report = validate_membership(build_initial_data(cfg))
            print(f"config_hash = {config_hash(cfg)}")
            print(f"norm = {FLOAT_FMT % report.norm_value}")
            print(f"admissible = {int(report.all_ok)}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
