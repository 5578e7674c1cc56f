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
from .characteristics import FieldView, PhaseState
from .errors import DomainTooSmallError
from .profiles import InitialData
from .wavefield import FieldGrid, GridFieldHistory, make_field_grid

__all__ = [
    "ParticleEnsemble", "CoupledState", "sample_particles", "deposit_mu",
    "update_weights", "init_coupled_state", "step", "evaluate_f",
]


# The coupled step pushes and re-weighs, and evaluate_f traces, at most this
# many particles or points at a time, so the RK4 stage and gather arrays
# stay one chunk's size; no value depends on it.
PARTICLE_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# Particle ensemble
# ---------------------------------------------------------------------------

@dataclass
class ParticleEnsemble:
    """Quiet-start particle set: current state plus what the weight law reads."""

    x: np.ndarray          # (N, 3) positions
    p: np.ndarray          # (N, 3) momenta
    w: np.ndarray          # (N,) current weights
    w0: np.ndarray         # (N,) initial weights f_in * cell volume
    phi0_at_x0: np.ndarray  # (N,) phi0_in at the initial positions

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_particles(data: InitialData, n_per_dim: int,
                     chunk: int = 2**22) -> ParticleEnsemble:
    """Deterministic lattice over the phase-space support, one particle per
    cell center; zero-weight cells are dropped.

    Particles are in row-major (x cell, p cell) order.  f_in is evaluated
    only on the cells whose offsets from the bump centre lie in the support
    ball, with a relative slack of 1e-9 on r^2 so that every cell that
    rounding puts inside is a candidate; `f > 0` still decides.
    """
    if n_per_dim < 4:
        raise ValueError("n_per_dim must be >= 4")
    prof = data.f_in
    r = prof.radius
    s = 2.0 * r / n_per_dim
    centers = -r + (np.arange(n_per_dim) + 0.5) * s

    xs, ps, ws = [], [], []
    # the x and p lattices are the same offsets from the centre
    grid3 = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    z2 = np.sum(grid3**2, axis=-1)
    pgrid = grid3 + prof.center[3:6]
    # chunk over the spatial dims to bound memory
    chunk_size = max(1, chunk // pgrid.shape[0])
    for i0 in range(0, grid3.shape[0], chunk_size):
        xc = grid3[i0:i0 + chunk_size] + prof.center[0:3]
        ix, ip = np.nonzero(z2[i0:i0 + chunk_size, None] + z2[None, :]
                            < r**2 * (1 + 1e-9))
        xx, pp = xc[ix], pgrid[ip]
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
    return ParticleEnsemble(x=x, p=p, w=w, w0=w.copy(),
                            phi0_at_x0=data.phi0_in.value(x))


# ---------------------------------------------------------------------------
# Deposition
# ---------------------------------------------------------------------------

def deposit_mu(ens: ParticleEnsemble, grid: FieldGrid) -> np.ndarray:
    """Cloud-in-cell (trilinear) deposit of w/gamma onto the grid, / h^3.

    The result becomes `grid.mu`, exactly +0.0 outside the box of the nodes
    it touched, which the grid records (`FieldGrid.set_mu`).  It overwrites
    the previous mu when the grid may reuse that array, else it is new
    (`FieldGrid.clear_mu`); a particle outside the grid raises before
    either.  The particle arithmetic runs on one axis column at a time; the
    weight of a corner is ((q wx) wy) wz, and the corners add in x-, y-,
    z-major order, each over the particles in their order.
    """
    n = grid.n_nodes
    if ens.n == 0:
        return grid.clear_mu()
    q = ens.w / np.sqrt(1.0 + chars._norm2(ens.p))
    i0, frac = [], []
    for col in ens.x.T:
        u = col / grid.h + grid.n_half
        f = np.floor(u)
        i0.append(f.astype(int))
        frac.append(u - f)  # the same bits as u minus the integer floor
    # box of the touched nodes
    box = tuple(slice(i.min(), i.max() + 2) for i in i0)
    if any(b.start < 0 or b.stop > n for b in box):
        raise DomainTooSmallError("particle outside deposition grid")
    mu = grid.clear_mu()
    base = (i0[0] * n + i0[1]) * n + i0[2]
    wx, wy, wz = ((1.0 - f, f) for f in frac)
    flat = mu.ravel()
    for ox in (0, 1):
        qx = q * wx[ox]
        for oy in (0, 1):
            qxy = qx * wy[oy]
            for oz in (0, 1):
                np.add.at(flat, base + ((ox * n + oy) * n + oz), qxy * wz[oz])
    # nodes outside the box stay 0, which the division leaves unchanged
    mu[box] /= grid.h**3
    grid.set_mu(mu, box)
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
    hist_full: GridFieldHistory | None  # optional strided history for diagnostics
    data: InitialData
    coupling: bool = True
    pad: float = 2.0
    # without coupling: the step of x, built by the first step from ens.p and
    # dt, which never change then (ens.p is never written in place); it is
    # not checkpointed, so a resumed run builds it again
    free_disp: np.ndarray | None = None

    @property
    def t(self) -> float:
        """The run's time, the grid's center level time."""
        return self.grid.t


def init_coupled_state(data: InitialData, n_per_dim: int, h: float, dt: float,
                       pad: float = 2.0, coupling: bool = True,
                       keep_history: bool = True, history_stride: int = 1,
                       history_dtype=np.float64) -> CoupledState:
    ens = sample_particles(data, n_per_dim)
    hist_full = None
    if coupling:
        # the t=0 deposit feeds the Taylor start
        grid = make_field_grid(data, h, dt, pad=pad,
                               source=lambda g: deposit_mu(ens, g))
        if keep_history:
            hist_full = GridFieldHistory(dtype=history_dtype, stride=history_stride)
            grid.keep(hist_full)
    else:  # no field levels: the grid carries the deposit only
        grid = FieldGrid.at_start(data.support_radius_R, h, dt, pad)
        deposit_mu(ens, grid)
    return CoupledState(ensemble=ens, grid=grid, hist_full=hist_full,
                        data=data, coupling=coupling, pad=pad)


def step(state: CoupledState, deposit: bool = True) -> CoupledState:
    """One coupled cycle: push -> weights -> deposit -> field -> advance t.

    A coupled ensemble is pushed and re-weighed PARTICLE_CHUNK particles at
    a time into new x, p and w; every value is per particle, so the bits do
    not depend on the chunks.
    """
    ens, grid = state.ensemble, state.grid
    dt = grid.dt
    t_new = state.t + dt

    if not state.coupling:
        if state.free_disp is None:
            state.free_disp = chars.free_displacement(ens.p, dt)
        ens.x = ens.x + state.free_disp
    else:
        view = grid.view()
        x, p, w = np.empty_like(ens.x), np.empty_like(ens.p), np.empty_like(ens.w)
        for a in range(0, ens.n, PARTICLE_CHUNK):
            s = slice(a, a + PARTICLE_CHUNK)
            pushed = chars.push(PhaseState(x=ens.x[s], p=ens.p[s], t=state.t),
                                dt, view)
            part = update_weights(
                ParticleEnsemble(x=pushed.x, p=pushed.p, w=ens.w[s], w0=ens.w0[s],
                                 phi0_at_x0=ens.phi0_at_x0[s]), view, t_new)
            x[s], p[s], w[s] = part.x, part.p, part.w
            # hold one chunk's arrays at a time
            del pushed, part
        ens.x, ens.p, ens.w = x, p, w
        # a domain growth below replaces the levels the view holds; drop them
        del view

    grid.ensure_extent(state.data.support_radius_R + t_new + state.pad)
    if state.coupling or deposit:
        deposit_mu(ens, grid)
    else:
        grid.clear_mu()

    grid.advance(state.data.support_radius_R, state.hist_full)
    return state


# ---------------------------------------------------------------------------
# Exact semi-Lagrangian evaluation of f
# ---------------------------------------------------------------------------

def evaluate_f(t: float, x, p, hist: FieldView, data: InitialData,
               dt: float) -> np.ndarray:
    """f(t,x,p) by backward characteristics and the exponential weight law.

    Independent of the particle ensemble; reduces to f_in(x - t*phat, p) for
    a vanishing field.  x and p broadcast to one shape (..., 3); the points
    are traced PARTICLE_CHUNK at a time.  f is evaluated only at the points
    whose characteristic `backward_trace` cannot show to miss f_in's
    support; the others read +0.0, which is what f_in's +0.0 times the
    finite weight factor gives.
    """
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(p, dtype=float))
    xs, ps = x.reshape(-1, 3), p.reshape(-1, 3)
    f = np.empty(len(xs))
    for a in range(0, len(xs), PARTICLE_CHUNK):
        s = slice(a, a + PARTICLE_CHUNK)
        f[s] = _f_along_characteristics(t, xs[s], ps[s], hist, data, dt)
    return f.reshape(x.shape[:-1])


def _f_along_characteristics(t, x, p, hist, data, dt):
    """evaluate_f on one batch of points, traced together."""
    if t == 0.0:
        return data.f_value(x, p)
    support = (data.f_in.center, data.f_in.radius)
    x0, p0, kept = chars.backward_trace(t, x, p, hist, dt, support=support)
    f0 = data.f_value(x0, p0)
    if np.any(f0 > 0.0):
        phi_now = hist.phi(t, x[kept])
        phi_init = hist.phi(0.0, x0)  # the run's own field at t = 0
        f0 = f0 * np.exp(4.0 * (phi_now - phi_init))
    f = np.zeros(len(x))
    f[kept] = f0
    return f
