"""Scenario runner: plain-text config, coupled time loop with per-record
diagnostics, decay fits, amplitude sweeps, and bitwise-reproducible
checkpoint/restart.

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import diagnostics as diag
from .errors import ConfigError, DomainTooSmallError
from .profiles import InitialData, make_bump, validate_membership
from .vlasov_pic import (PAIR_CHUNK, PARTICLE_CHUNK, PUSH_CHUNK, CoupledState,
                         init_coupled_state, step, ParticleEnsemble)
from .wavefield import GROW_CHUNK, FieldGrid, _cfl_ok

try:
    # CPython's built-in sha256, as random.py takes sha512: hashlib would
    # map OpenSSL's libcrypto, 3.5 MiB resident, for one short digest
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

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


_CONVERTERS = {"float": float, "int": int, "bool": _parse_bool, "str": str}


def _converter(field):
    # annotations are strings here; a tuple's length is its default's
    if field.type == "tuple":
        return _parse_tuple(len(field.default))
    return _CONVERTERS[field.type]


# retired keys are still parsed, so that old configs load and hash the
# same, but do not reach SimConfig
_RETIRED = {"threads": int}
_SCHEMA = {f.name: _converter(f) for f in fields(SimConfig)
           if f.name != "config_text"} | _RETIRED


# A run's peak RSS, measured on coupled and free-transport runs (Python 3.11,
# numpy 2.4), as the sum of what each phase holds at its peak:
# - the interpreter with numpy and vnsim, 30.2 MiB after `import vnsim.cli`;
# - the sampler's pair mask: a float and a bool per pair of one PAIR_CHUNK;
# - per particle, the most a phase holds; by tracemalloc on free_stream's
#   252,032 particles and coupled_push's 76,416, the deposit in both.  Free,
#   18 floats: a record's deposit holds the 11 of x, p, w, the charges
#   w/gamma and the step of x, and 5 of its own (the cell index, 3 fractions
#   and q wx wy of one corner pair), 16.9 with its chunks' scratch and box.
#   Coupled, 20: a step holds the 9 of x, p, w, w0 and phi0_in and 7 of the
#   new x, p and w, or the deposit's 6 (its own charges besides), 18.3 with
#   the scratch and the field levels; the sampler holds 3 of kept pieces
#   (x and p cell, f) while it fills the 7 of x, p and w.  While it pushes,
#   a step also holds its view's gather tables and a gather's copy of the
#   columns it reads, at most 1 float per particle each: the VIEW_TABLES
#   tables cover a box of at most a VIEW_TABLES-th as many nodes as there
#   are particles (8 tables of 729 nodes against coupled_push's 76,416
#   particles).  The 20 charged hold those 18 and the deposit's 18.3;
# - the deposit's scratch, 7 floats per particle of one PARTICLE_CHUNK
#   (a chunk's cell coordinate, its floor, 3 cell indices and 2 products);
# - coupled, 46 floats per particle of one PUSH_CHUNK: the RK4 stages, the
#   gather's scratch and the chunk's new x, p and w (45.4 by tracemalloc on
#   a push and re-weighing of 2^13 particles of coupled_push's ensemble);
# - per semi-Lagrangian trace point, 16 floats of its inputs and outputs,
#   and on one PARTICLE_CHUNK of points up to 10 more of the trace, charged
#   20;
# - coupled, 4 levels of the final cube: a step holds phi_0, phi_p, the new
#   level and the source box (8.7 % of a level at coupled_fine's last step),
#   a growth at most 2 old and 2 grown levels; the rest is margin for a
#   freed cube that the heap may keep.  Free, twice the source box of the
#   particles within R + t: a deposit makes its box while mu holds the last.
# Levels that a field history holds are charged by the history term.
_BASELINE_MB = 31.0
_PAIR_BYTES = 9
_FREE_PARTICLE_FLOATS = 18
_COUPLED_PARTICLE_FLOATS = 20
_DEPOSIT_CHUNK_FLOATS = 7
_PUSH_FLOATS = 46
_TRACE_CHUNK_FLOATS = 20
_TRACE_POINT_FLOATS = 16
_PEAK_LEVELS = 4


def _lattice_particles(n: int) -> int:
    """The sampler's particle count at most: the cells of its n^6 lattice
    whose centres lie inside the support ball.  In units of (r/n)^2 a
    centre's squared offset is a sum of six squares (2i + 1 - n)^2, so the
    cells are counted by their sums over the x and over the p axes."""
    sq = (2 * np.arange(n) + 1 - n) ** 2
    lim = n * n
    two = np.bincount(np.add.outer(sq, sq).ravel(), minlength=lim)[:lim]
    three = np.zeros(lim, dtype=np.int64)
    for s in sq:
        three[s:] += two[:lim - s]
    # x cells with sum k, times the p cells with sum below n^2 - k
    return int(three @ np.cumsum(three)[::-1])


def estimate_memory_mb(cfg: SimConfig) -> float:
    """Upper estimate of a run's peak resident memory in MiB; history
    levels count at the cube size of their own time."""
    def cube(t):
        # nodes of the cube that the field grid holds at time t
        return (2 * int(np.ceil((cfg.R + t + cfg.pad + GROW_CHUNK) / cfg.h)) + 1) ** 3

    total = 8.0 * (_PEAK_LEVELS * cube(cfg.t_end) if cfg.coupling else
                   2 * (2 * int(np.ceil((cfg.R + cfg.t_end) / cfg.h)) + 2) ** 3)
    if cfg.keep_history and cfg.coupling:
        level_dt = cfg.dt * cfg.history_stride
        itemsize = 4.0 if cfg.history_float32 else 8.0
        n_levels = int(cfg.t_end / level_dt + 1e-9) + 1
        total += sum(cube(k * level_dt) for k in range(n_levels)) * itemsize
    n_part = _lattice_particles(cfg.n_per_dim)
    per_particle = _COUPLED_PARTICLE_FLOATS if cfg.coupling else _FREE_PARTICLE_FLOATS
    total += (min(cfg.n_per_dim**6, PAIR_CHUNK) * _PAIR_BYTES
              + (n_part * per_particle
                 + min(n_part, PARTICLE_CHUNK) * _DEPOSIT_CHUNK_FLOATS) * 8.0)
    if cfg.coupling:
        total += min(n_part, PUSH_CHUNK) * _PUSH_FLOATS * 8.0
    if cfg.semilag and (cfg.keep_history or not cfg.coupling):
        n_points = cfg.semilag_radii * cfg.semilag_np**3
        total += (min(n_points, PARTICLE_CHUNK) * _TRACE_CHUNK_FLOATS
                  + n_points * _TRACE_POINT_FLOATS) * 8.0
    return _BASELINE_MB + total / 2**20


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
    cfg = SimConfig(**{k: v for k, v in values.items() if k not in _RETIRED},
                    config_text="\n".join(sorted(norm_lines)) + "\n")
    _validate(cfg)
    return cfg


def _multiple_of(value: float, step: float) -> bool:
    """value is k * step for an integer k >= 1, to 1e-9 relative to step."""
    k = value / step
    return abs(k - round(k)) <= 1e-9 and round(k) >= 1


def _validate(cfg: SimConfig):
    if cfg.R <= 0:
        raise ConfigError("R must be positive")
    if cfg.delta < 0:
        raise ConfigError("delta must be nonnegative")
    try:
        build_initial_data(cfg)  # make_bump checks each profile
    except ValueError as exc:
        raise ConfigError(f"initial data: {exc}") from exc
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
    if cfg.pad < 0:
        raise ConfigError("pad must be nonnegative")
    if cfg.coupling and int(np.ceil((cfg.R + cfg.pad) / cfg.h)) < 3:
        # as make_field_grid sizes the t = 0 cube; the derivative stencils
        # of the t = 0 record need 3 nodes on each side of the origin
        raise ConfigError("R + pad must exceed 2 h when coupling is on")
    if cfg.semilag_radii < 1 or cfg.semilag_np < 1:
        raise ConfigError("semilag_radii and semilag_np must be >= 1")
    if not _multiple_of(cfg.t_end, cfg.dt):
        # the run takes round(t_end / dt) steps and would end elsewhere
        raise ConfigError("t_end must be a multiple of dt")
    if not _multiple_of(cfg.record_interval, cfg.dt):
        raise ConfigError("record_interval must be a positive multiple of dt")
    if cfg.history_stride < 1:
        raise ConfigError("history_stride must be >= 1")
    if cfg.coupling and cfg.semilag and cfg.keep_history:
        # the *_sl columns trace back from each record time through the
        # stored levels, which exist only every history_stride steps
        level_dt = cfg.history_stride * cfg.dt
        for name in ("record_interval", "t_end"):
            if not _multiple_of(getattr(cfg, name), level_dt):
                raise ConfigError(
                    f"{name} must be a multiple of history_stride * dt = {level_dt:g} "
                    "when coupling, semilag and keep_history are on")
    if cfg.checkpoint_interval > 0 and not _multiple_of(cfg.checkpoint_interval, cfg.dt):
        raise ConfigError("checkpoint_interval must be a positive multiple of dt")
    need = estimate_memory_mb(cfg)
    if need > cfg.memory_budget_mb:
        raise ConfigError(
            f"estimated memory {need:.0f} MiB exceeds budget "
            f"{cfg.memory_budget_mb:.0f} MiB (raise memory_budget_mb or shrink the run)")


def config_hash(cfg: SimConfig) -> str:
    return sha256(cfg.config_text.encode()).hexdigest()[:16]


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
    if state.coupling:
        row["p_max"] = diag.momentum_support(state.ensemble)
    else:  # p and w never change without coupling
        if state.free_p_max is None:
            state.free_p_max = diag.momentum_support(state.ensemble)
        row["p_max"] = state.free_p_max
    row["max_spread"] = diag.max_momentum_spread(state.ensemble, cfg.h)

    if cfg.semilag:
        # the zero field without coupling, else the stored levels if any
        view = state.hist_full if state.coupling else state.grid.view()
        if view is not None and t > 0:
            _, mu_sl, spread_sl = diag.semilag_profile(
                t, view, state.data, cfg.dt if state.coupling else t,
                n_radii=cfg.semilag_radii, n_p=cfg.semilag_np)
            row["sup_mu_sl"] = float(mu_sl.max())
            row["spread_sl"] = float(spread_sl.max())
        elif t == 0.0:
            row["sup_mu_sl"] = row["sup_mu"]

    if state.coupling:
        k, l = diag.measure_KL(state.grid, np.zeros(3))
        row["k_origin"], row["l_origin"] = float(k), float(l)
        cone = diag.cone_maxima(state.grid, t, cfg.R, cfg.beta)
        if cone is not None:
            row["k_cone"], row["fsc_k_raw"], row["fsc_l_raw"] = cone
    return row


def _format_row(row: dict) -> str:
    return ",".join(FLOAT_FMT % row[c] for c in CSV_COLUMNS)


def _has_nan(state: CoupledState, first: bool = True) -> bool:
    """Whether a step left a NaN or an infinity in x, in p and w (without
    coupling only x changes after the run's `first` check), or in the field's
    new level (`FieldGrid.phi_p_finite`)."""
    ens = state.ensemble
    vals = [ens.x] + ([ens.p, ens.w] if state.coupling or first else [])
    return (any(not np.isfinite(np.sum(a)) for a in vals if a.size)
            or not state.grid.phi_p_finite())


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, cfg: SimConfig, state: CoupledState, rows: list):
    """Write the checkpoint to `path` + ".tmp" and rename it over `path`, so
    that a write that fails or is killed leaves the last checkpoint whole.

    Only a coupled run's checkpoint holds what the weight law reads, w0 and
    phi0_in at x0 (`ens_w0`, `ens_phi0`)."""
    ens = state.ensemble
    weight_law = (dict(ens_w0=ens.w0, ens_phi0=ens.phi0_at_x0)
                  if state.coupling else {})
    tmp = path + ".tmp"
    try:
        # a file object, because np.savez appends ".npz" to a path without it
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                config_text=np.frombuffer(cfg.config_text.encode(), dtype=np.uint8),
                config_hash=np.frombuffer(config_hash(cfg).encode(), dtype=np.uint8),
                rows=np.frombuffer("\n".join(rows).encode(), dtype=np.uint8),
                ens_x=ens.x, ens_p=ens.p, ens_w=ens.w, **weight_law,
                **state.grid.arrays(),
            )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str):
    """(config, state, rows) from a checkpoint; keys no run reads, such as
    the `ens_w0` and `ens_phi0` that free checkpoints once held, are
    ignored."""
    try:
        with np.load(path) as z:
            cfg = parse_config(bytes(z["config_text"]).decode())
            rows = bytes(z["rows"]).decode().split("\n")
            grid = FieldGrid.from_arrays(z, levels=cfg.coupling)
            ens = ParticleEnsemble(x=z["ens_x"], p=z["ens_p"], w=z["ens_w"])
            if cfg.coupling:
                ens.w0, ens.phi0_at_x0 = z["ens_w0"], z["ens_phi0"]
    except ConfigError:
        raise  # a checkpoint whose config is invalid
    except (ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ConfigError(f"not a vnsim checkpoint: {path}: {exc}") from exc
    state = CoupledState(ensemble=ens, grid=grid, hist_full=None,
                         data=build_initial_data(cfg), coupling=cfg.coupling,
                         pad=cfg.pad)
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
        eta, bad = diag.fsc_verdict(col("t"), col("fsc_k_raw"), col("fsc_l_raw"),
                                    cfg.eta, cfg.eta_t_hat)
        lines.append(f"eta = {FLOAT_FMT % eta}")
        lines.append(f"fsc_satisfied = {int(bad.size == 0)}")
        if bad.size:
            lines.append(f"fsc_first_violation_t = {FLOAT_FMT % bad[0]}")
        for name in ("sup_mu_sl", "sup_mu", "spread_sl", "max_spread",
                     "k_origin", "l_origin"):
            try:
                fit = diag.fit_decay(np.stack([col("t"), col(name)], axis=-1),
                                     cfg.fit_window)
            except ValueError:
                continue
            lines.append(f"slope_{name} = {FLOAT_FMT % fit.slope}")
            lines.append(f"residual_{name} = {FLOAT_FMT % fit.residual}")
    if cfg.coupling and cfg.semilag and not cfg.keep_history:
        lines.append("sl_columns = not measured (coupled runs need keep_history = 1)")
    with open(cfg.summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _abort(cfg: SimConfig, rows: list, note: str) -> int:
    """Write the rows and an "aborted" summary, echo the note to stderr: exit 3."""
    _write_output(cfg, rows)
    _write_summary(cfg, rows, "aborted", note)
    print(f"aborted: {note}", file=sys.stderr)
    return 3


def run_scenario(cfg: SimConfig, state: CoupledState | None = None,
                 rows: list | None = None) -> int:
    """Run (or continue) a scenario; writes CSV + summary, returns exit code."""
    if state is not None and cfg.coupling and cfg.semilag and cfg.keep_history:
        raise ConfigError(
            "resume cannot rebuild the full field history; "
            "use semilag = 0 or keep_history = 0 for resumable coupled runs")
    rows = rows or []
    rec_every = int(round(cfg.record_interval / cfg.dt))
    ckpt_every = (int(round(cfg.checkpoint_interval / cfg.dt))
                  if cfg.checkpoint_interval > 0 else 0)
    n_steps = int(round(cfg.t_end / cfg.dt))

    try:
        if state is None:
            state = init_coupled_state(
                build_initial_data(cfg), cfg.n_per_dim, cfg.h, cfg.dt,
                pad=cfg.pad, coupling=cfg.coupling,
                keep_history=cfg.keep_history, history_stride=cfg.history_stride,
                history_dtype=np.float32 if cfg.history_float32 else np.float64)
            rows.append(_format_row(_record_row(state, cfg)))
        first_step = int(round(state.t / cfg.dt)) + 1
        for k in range(first_step, n_steps + 1):
            record = (k % rec_every == 0) or (k == n_steps)
            step(state, deposit=record)
            if _has_nan(state, first=k == first_step):
                note = f"NaN detected at t={state.t}"
                try:
                    save_checkpoint(cfg.ckpt_path, cfg, state, rows)
                except OSError as exc:
                    return _abort(cfg, rows, f"{note}; checkpoint: {exc}")
                return _abort(cfg, rows, f"{note}; last state saved to {cfg.ckpt_path}")
            if record:
                rows.append(_format_row(_record_row(state, cfg)))
            if ckpt_every and k % ckpt_every == 0:
                try:
                    save_checkpoint(cfg.ckpt_path, cfg, state, rows)
                except OSError as exc:
                    # the last checkpoint that was written stays whole
                    return _abort(cfg, rows, f"checkpoint: {exc}")
    except (DomainTooSmallError, MemoryError, FloatingPointError) as exc:
        # no checkpoint of a half-done step; the last periodic one stays valid
        reason = ("domain" if isinstance(exc, DomainTooSmallError) else
                  "out of memory" if isinstance(exc, MemoryError) else "NaN detected")
        return _abort(cfg, rows, f"{reason}: {exc}")

    _write_output(cfg, rows)
    _write_summary(cfg, rows, "ok")
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def sweep(cfg: SimConfig, deltas) -> list:
    """run_scenario per amplitude multiplier; returns table rows
    (delta, exit, fsc_satisfied, p_max, p_bound_ok).

    Member d writes <output>.delta<d>.csv; its summary and checkpoint take
    the default paths next to it, so every member stays resumable.
    """
    own = ("delta", "output", "summary", "checkpoint_path")
    base = [line for line in cfg.config_text.splitlines()
            if line.partition("=")[0].strip() not in own]
    table = []
    for d in deltas:
        sub = parse_config("\n".join(
            base + [f"delta = {float(d)!r}", f"output = {cfg.output}.delta{d:g}.csv"]))
        code = run_scenario(sub)
        with open(sub.summary_path) as fh:
            summary = {key.strip(): val.strip() for key, _, val in
                       (line.partition("=") for line in fh if "=" in line)}
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
