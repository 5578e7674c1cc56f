"""Coupled kinetic/wave time loop: quiet-start particles, exact exponential
weight law, cloud-in-cell deposition, and the leapfrog field update.

The distribution is carried by lattice particles whose weights obey the
closed-form law  w(t) = w(0) * exp(4 phi(t, x(t)) - 4 phi0_in(x(0))),
so no quadrature of the source term along trajectories is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import characteristics as chars
from .characteristics import FieldView, PhaseState, ZeroField
from .errors import DomainTooSmallError
from .profiles import InitialData
from .wavefield import FieldGrid, GridFieldHistory, fdtd_step, make_field_grid

__all__ = [
    "ParticleEnsemble", "CoupledState", "sample_particles", "deposit_mu",
    "update_weights", "init_coupled_state", "step", "evaluate_f", "mu_mass",
]


# ---------------------------------------------------------------------------
# Particle ensemble
# ---------------------------------------------------------------------------

@dataclass
class ParticleEnsemble:
    """Quiet-start particle set: per-particle state plus frozen initial data."""

    x: np.ndarray          # (N, 3) positions
    p: np.ndarray          # (N, 3) momenta
    w: np.ndarray          # (N,) current weights
    x0: np.ndarray         # (N, 3) initial positions
    p0: np.ndarray         # (N, 3) initial momenta
    w0: np.ndarray         # (N,) initial weights f_in * cell volume
    phi0_at_x0: np.ndarray  # (N,) phi0_in evaluated at x0, cached
    cell_volume: float     # 6D sampling cell volume

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_particles(data: InitialData, n_per_dim: int,
                     chunk: int = 2**22) -> ParticleEnsemble:
    """Deterministic lattice over the phase-space support, one particle per
    cell center; zero-weight cells are dropped."""
    if n_per_dim < 4:
        raise ValueError("n_per_dim must be >= 4")
    prof = data.f_in
    r = prof.radius
    s = 2.0 * r / n_per_dim
    centers = -r + (np.arange(n_per_dim) + 0.5) * s

    xs, ps, ws = [], [], []
    # chunk over the spatial dims to bound memory
    grid3 = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    pgrid = grid3 + prof.center[3:6]
    chunk_size = max(1, chunk // pgrid.shape[0])
    for i0 in range(0, grid3.shape[0], chunk_size):
        xc = grid3[i0:i0 + chunk_size] + prof.center[0:3]
        xx = np.repeat(xc, pgrid.shape[0], axis=0)
        pp = np.tile(pgrid, (xc.shape[0], 1))
        f = data.f_value(xx, pp)
        keep = f > 0.0
        if np.any(keep):
            xs.append(xx[keep])
            ps.append(pp[keep])
            ws.append(f[keep])
    if xs:
        x = np.concatenate(xs)
        p = np.concatenate(ps)
        w = np.concatenate(ws) * s**6
    else:
        x = np.zeros((0, 3))
        p = np.zeros((0, 3))
        w = np.zeros(0)
    return ParticleEnsemble(
        x=x.copy(), p=p.copy(), w=w.copy(), x0=x.copy(), p0=p.copy(),
        w0=w.copy(), phi0_at_x0=data.phi0_in.value(x), cell_volume=s**6,
    )


def mu_mass(ens: ParticleEnsemble) -> float:
    """Sum of w/gamma: the integral of mu carried by the ensemble."""
    gamma = np.sqrt(1.0 + np.sum(ens.p**2, axis=-1))
    return float(np.sum(ens.w / gamma))


# ---------------------------------------------------------------------------
# Deposition
# ---------------------------------------------------------------------------

def deposit_mu(ens: ParticleEnsemble, grid: FieldGrid) -> np.ndarray:
    """Cloud-in-cell (trilinear) deposit of w/gamma onto the grid, / h^3."""
    n = grid.n_nodes
    mu = np.zeros((n, n, n))
    if ens.n == 0:
        return mu
    gamma = np.sqrt(1.0 + np.sum(ens.p**2, axis=-1))
    q = ens.w / gamma
    u = ens.x / grid.h + grid.n_half
    i0 = np.floor(u).astype(int)
    if np.any(i0 < 0) or np.any(i0 + 1 > n - 1):
        raise DomainTooSmallError("particle outside deposition grid")
    frac = u - i0
    flat = mu.ravel()
    for ox in (0, 1):
        wx = frac[:, 0] if ox else 1.0 - frac[:, 0]
        for oy in (0, 1):
            wy = frac[:, 1] if oy else 1.0 - frac[:, 1]
            for oz in (0, 1):
                wz = frac[:, 2] if oz else 1.0 - frac[:, 2]
                idx = ((i0[:, 0] + ox) * n + i0[:, 1] + oy) * n + i0[:, 2] + oz
                np.add.at(flat, idx, q * wx * wy * wz)
    mu /= grid.h**3
    return mu


def update_weights(ens: ParticleEnsemble, field: FieldView, t: float) -> ParticleEnsemble:
    """Apply the closed-form weight law at the particles' current positions."""
    if ens.n:
        phi_now = field.phi(t, ens.x)
        ens.w = ens.w0 * np.exp(4.0 * (phi_now - ens.phi0_at_x0))
    return ens


# ---------------------------------------------------------------------------
# Coupled state and time loop
# ---------------------------------------------------------------------------

@dataclass
class CoupledState:
    ensemble: ParticleEnsemble
    grid: FieldGrid
    hist: GridFieldHistory          # recent levels, used for pushes
    hist_full: GridFieldHistory | None  # optional full history for diagnostics
    data: InitialData
    t: float
    coupling: bool = True
    pad: float = 2.0

    @property
    def field_view(self) -> FieldView:
        return self.hist if self.coupling else ZeroField()


def init_coupled_state(data: InitialData, n_per_dim: int, h: float, dt: float,
                       pad: float = 2.0, coupling: bool = True,
                       keep_history: bool = True, history_stride: int = 1,
                       history_dtype=np.float64) -> CoupledState:
    ens = sample_particles(data, n_per_dim)
    # the t=0 deposit feeds the Taylor start
    probe = make_field_grid(data, h, dt, pad=pad, check_cfl=coupling)
    mu0 = deposit_mu(ens, probe)
    grid = make_field_grid(data, h, dt, pad=pad, mu0=mu0, check_cfl=coupling)
    hist = GridFieldHistory(max_levels=4)
    hist.append(0.0, grid.phi_0, h, grid.n_half)
    hist.append(dt, grid.phi_p, h, grid.n_half)
    hist_full = None
    if keep_history:
        hist_full = GridFieldHistory(dtype=history_dtype)
        hist_full.stride = history_stride
        hist_full.append(0.0, grid.phi_0, h, grid.n_half)
    return CoupledState(ensemble=ens, grid=grid, hist=hist, hist_full=hist_full,
                        data=data, t=0.0, coupling=coupling, pad=pad)


def step(state: CoupledState, deposit: bool = True) -> CoupledState:
    """One coupled cycle: push -> weights -> deposit -> field -> advance t."""
    ens = state.ensemble
    grid = state.grid
    dt = grid.dt
    t_new = state.t + dt
    view = state.field_view

    if ens.n:
        pushed = chars.push(PhaseState(x=ens.x, p=ens.p, t=state.t), dt, view)
        ens.x, ens.p = pushed.x, pushed.p
        if state.coupling:
            update_weights(ens, view, t_new)

    grid.ensure_extent(state.data.support_radius_R + t_new + state.pad)
    if state.coupling or deposit:
        mu = deposit_mu(ens, grid)
    else:
        mu = np.zeros_like(grid.mu)

    if state.coupling:
        fdtd_step(grid, mu,
                  sponge_radius=state.data.support_radius_R + t_new + 1.0)
        state.hist.append(t_new + dt, grid.phi_p, grid.h, grid.n_half)
        if state.hist_full is not None:
            stride = getattr(state.hist_full, "stride", 1)
            n_levels = int(round(t_new / dt))
            if n_levels % stride == 0:
                state.hist_full.append(t_new, grid.phi_0, grid.h, grid.n_half)
    else:
        grid.mu = mu
        grid.t = t_new
    state.t = t_new
    return state


# ---------------------------------------------------------------------------
# Exact semi-Lagrangian evaluation of f
# ---------------------------------------------------------------------------

def evaluate_f(t: float, x, p, hist: FieldView, data: InitialData,
               dt: float) -> np.ndarray:
    """f(t,x,p) by backward characteristics and the exponential weight law.

    Independent of the particle ensemble; reduces to f_in(x - t*phat, p) for
    a vanishing field.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if t == 0.0:
        return data.f_value(x, p)
    x0, p0 = chars.backward_trace(t, x, p, hist, dt)
    f0 = data.f_value(x0, p0)
    if not np.any(f0 > 0.0):
        return f0
    phi_now = hist.phi(t, x)
    phi_init = hist.phi(0.0, x0)  # the run's own field at t = 0
    return f0 * np.exp(4.0 * (phi_now - phi_init))
