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
from .profiles import InitialData, _squared_norm
from .wavefield import VIEW_TABLES, FieldGrid, GridFieldHistory, make_field_grid

__all__ = [
    "ParticleEnsemble", "CoupledState", "sample_particles", "deposit_mu",
    "update_weights", "init_coupled_state", "step", "evaluate_f",
]


# evaluate_f traces, the sampler evaluates f_in, the deposit and the free
# step read at most this many particles or points at a time, so their
# temporaries stay one chunk's size; no value depends on it.
PARTICLE_CHUNK = 1 << 15

# The coupled step pushes and re-weighs this many particles at a time.  Its
# RK4 stages and gathers hold about 45 floats per particle, several times
# what the other passes hold, so its chunk is smaller; those passes keep
# PARTICLE_CHUNK, since 2^13 there made coupled_semilag's run 15-35 %
# slower.  No value depends on it.
PUSH_CHUNK = 1 << 13

# The sampler's pair mask covers at most this many (x cell, p cell) pairs at
# a time, as long as one x cell has no more p cells.
PAIR_CHUNK = 1 << 22


# ---------------------------------------------------------------------------
# Particle ensemble
# ---------------------------------------------------------------------------

@dataclass
class ParticleEnsemble:
    """Quiet-start particle set: current state plus what the weight law reads.

    Only a coupled run runs the weight law, so only its ensemble carries
    w0 and phi0_at_x0 (`init_coupled_state` builds them); a free ensemble
    leaves them None.
    """

    x: np.ndarray          # (N, 3) positions
    p: np.ndarray          # (N, 3) momenta
    w: np.ndarray          # (N,) current weights
    w0: np.ndarray | None = None          # (N,) initial weights f_in * cell volume
    phi0_at_x0: np.ndarray | None = None  # (N,) phi0_in at the initial positions

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_particles(data: InitialData, n_per_dim: int,
                     chunk: int = PAIR_CHUNK) -> ParticleEnsemble:
    """Deterministic lattice over the phase-space support, one particle per
    cell center; zero-weight cells are dropped.

    Particles are in row-major (x cell, p cell) order.  f_in is evaluated
    only on the cells whose offsets from the bump centre lie in the support
    ball, with a relative slack of 1e-9 on r^2 so that every cell that
    rounding puts inside is a candidate; `f > 0` still decides.  The pair
    mask covers `chunk` (x cell, p cell) pairs at a time, and f_in is
    evaluated on PARTICLE_CHUNK candidates at a time, of which the kept
    cells' indices and f stay; x and p then fill arrays of the kept count,
    piece by piece, so no field is joined from copies.  Every value is per
    cell, so the bits do not depend on either chunk.  The ensemble holds x,
    p and w = f_in * cell volume only; what the weight law reads besides is
    `init_coupled_state`'s to build.
    """
    if n_per_dim < 4:
        raise ValueError("n_per_dim must be >= 4")
    prof = data.f_in
    r = prof.radius
    s = 2.0 * r / n_per_dim
    centers = -r + (np.arange(n_per_dim) + 0.5) * s

    kept, fs = [], []  # each batch's kept candidates: (x cell, p cell), f
    # the x and p lattices are the same offsets from the centre
    grid3 = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    z2 = np.sum(grid3**2, axis=-1)
    pgrid = grid3 + prof.center[3:6]
    # chunk over the spatial dims to bound memory
    chunk_size = max(1, chunk // pgrid.shape[0])
    for i0 in range(0, grid3.shape[0], chunk_size):
        # The float sum behind this mask is the sampler's largest temporary
        # (24 MB at n_per_dim = 12) and stays whole on purpose: freeing an
        # array this large raises glibc's dynamic mmap and trim thresholds,
        # so the run's later large temporaries reuse heap pages.  A mask of
        # one x cell at a time took the coupled_push benchmark from 13k to
        # 51k minor page faults, and free_stream's peak RSS from 76 to 86 MiB.
        ix, ip = np.nonzero(z2[i0:i0 + chunk_size, None] + z2[None, :]
                            < r**2 * (1 + 1e-9))
        ix += i0
        for a in range(0, len(ix), PARTICLE_CHUNK):
            xi, pi = ix[a:a + PARTICLE_CHUNK], ip[a:a + PARTICLE_CHUNK]
            f = data.f_value(grid3[xi] + prof.center[0:3], pgrid[pi])
            keep = f > 0.0
            kept.append((xi[keep], pi[keep]))
            fs.append(f[keep])
        del ix, ip
    w = np.concatenate(fs)
    del fs
    x, p = np.empty((len(w), 3)), np.empty((len(w), 3))
    start = 0
    for xi, pi in kept:
        rows = slice(start, start + len(xi))
        np.add(grid3.take(xi, axis=0), prof.center[0:3], out=x[rows])
        pgrid.take(pi, axis=0, out=p[rows])
        start += len(xi)
    del kept
    w *= s**6
    return ParticleEnsemble(x=x, p=p, w=w)


# ---------------------------------------------------------------------------
# Deposition
# ---------------------------------------------------------------------------

def _charge(ens: ParticleEnsemble) -> np.ndarray:
    """q = w/gamma of every particle, PARTICLE_CHUNK particles at a time."""
    q = np.empty(ens.n)
    for a in range(0, ens.n, PARTICLE_CHUNK):
        s = slice(a, a + PARTICLE_CHUNK)
        np.divide(ens.w[s], np.sqrt(1.0 + _squared_norm(ens.p[s])), out=q[s])
    return q


def deposit_mu(ens: ParticleEnsemble, grid: FieldGrid,
               q: np.ndarray | None = None) -> np.ndarray:
    """Cloud-in-cell (trilinear) deposit of the charges q = w/gamma onto the
    grid, / h^3.

    q is the caller's per-particle array, which a free run computes once,
    or, when it passes none, computed here PARTICLE_CHUNK particles at a
    time.  The result becomes `grid.mu` on the box of the nodes it touches,
    whose first node is `grid.mu_origin`; an empty ensemble clears mu.  The
    cell index is monotone in the coordinate, so the box comes first, from
    each axis's smallest and largest coordinate: a NaN or an infinity
    raises FloatingPointError, and a particle outside the grid
    DomainTooSmallError, before any cast or allocation.  The weight of a
    corner is ((q wx) wy) wz, and the corners add in x-, y-, z-major order,
    each over the particles in their order.

    The particles are read PARTICLE_CHUNK at a time, one axis column at a
    time, into the cell index (in the box's strides, from the cube's node 0;
    each corner's offset subtracts the box's first node) and the three
    fractions; with q wx wy of one (x, y) corner pair, formed chunk by
    chunk, that is 5 floats per particle over the whole ensemble besides q.
    Each corner's adds run chunk by chunk in particle order, so no node's
    order of adds depends on the chunks.
    """
    if ens.n == 0:
        return grid.clear_mu()
    # each axis's smallest and largest coordinate, column by column (8x faster
    # than over axis 0 of (N, 3)); a NaN or an infinity survives min and max
    ends = np.array([(col.min(), col.max()) for col in ens.x.T])
    lo, hi = np.floor(ends.T / grid.h + grid.n_half)
    if not np.isfinite(lo).all() or not np.isfinite(hi).all():
        raise FloatingPointError("a particle coordinate is NaN or infinite")
    if lo.min() < 0 or hi.max() + 2 > grid.n_nodes:
        raise DomainTooSmallError("particle outside deposition grid")
    origin, shape = lo.astype(int), (hi - lo).astype(int) + 2
    _, ny, nz = shape
    first = (origin[0] * ny + origin[1]) * nz + origin[2]
    if q is None:
        q = _charge(ens)
    chunks = [slice(a, a + PARTICLE_CHUNK) for a in range(0, ens.n, PARTICLE_CHUNK)]
    base, frac = np.empty(ens.n, dtype=int), np.empty((3, ens.n))
    for s in chunks:
        i0 = []
        for col, fr in zip(ens.x[s].T, frac[:, s]):
            u = col / grid.h + grid.n_half
            f = np.floor(u)
            i0.append(f.astype(int))
            np.subtract(u, f, out=fr)  # the same bits as u minus the integer floor
        base[s] = (i0[0] * ny + i0[1]) * nz + i0[2]
    fx, fy, fz = frac
    mu = np.zeros(shape)
    flat = mu.ravel()
    qxy = np.empty(ens.n)
    for ox in (0, 1):
        for oy in (0, 1):
            for s in chunks:
                np.multiply(q[s], fx[s] if ox else 1.0 - fx[s], out=qxy[s])
                qxy[s] *= fy[s] if oy else 1.0 - fy[s]
            for oz in (0, 1):
                corner = (ox * ny + oy) * nz + oz - first
                for s in chunks:
                    wz = fz[s] if oz else 1.0 - fz[s]
                    np.add.at(flat, base[s] + corner, qxy[s] * wz)
    mu /= grid.h**3
    grid.mu, grid.mu_origin = mu, tuple(origin.tolist())
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
    """The particles, the grid and, without coupling, the run's constants.

    Without coupling p, w and dt never change (neither array is written in
    place), so what the run reads of them is computed once: the step of x
    (`free_disp`, built by the first step), the deposit's charges w/gamma
    (`free_q`, built with the t = 0 deposit) and the largest |p| of the
    records (`free_p_max`, built by the first record, `cli._record_row`).
    None of them is checkpointed; a resumed run builds each again when it
    first reads it.  A free step adds `free_disp` into x in place, so no
    code holds `ensemble.x` across a free step.
    """

    ensemble: ParticleEnsemble
    grid: FieldGrid
    hist_full: GridFieldHistory | None  # optional strided history for diagnostics
    data: InitialData
    coupling: bool = True
    pad: float = 2.0
    free_disp: np.ndarray | None = None
    free_q: np.ndarray | None = None
    free_p_max: float | None = None

    @property
    def t(self) -> float:
        """The run's time, the grid's center level time."""
        return self.grid.t


def init_coupled_state(data: InitialData, n_per_dim: int, h: float, dt: float,
                       pad: float = 2.0, coupling: bool = True,
                       keep_history: bool = True, history_stride: int = 1,
                       history_dtype=np.float64) -> CoupledState:
    """Sample the particles and make the t = 0 grid and deposit.

    A coupled ensemble gets what its weight law reads: w0, a copy of w, and
    phi0_in at the particles' positions, PARTICLE_CHUNK at a time.
    """
    ens = sample_particles(data, n_per_dim)
    hist_full, free_q = None, None
    if coupling:
        ens.w0, ens.phi0_at_x0 = ens.w.copy(), np.empty(ens.n)
        for a in range(0, ens.n, PARTICLE_CHUNK):
            s = slice(a, a + PARTICLE_CHUNK)
            ens.phi0_at_x0[s] = data.phi0_in.value(ens.x[s])
        # the t=0 deposit feeds the Taylor start
        grid = make_field_grid(data, h, dt, pad=pad,
                               source=lambda g: deposit_mu(ens, g))
        if keep_history:
            hist_full = GridFieldHistory(dtype=history_dtype, stride=history_stride)
            grid.keep(hist_full)
    else:  # no field levels: the grid carries the deposit only
        grid = FieldGrid.at_start(data.support_radius_R, h, dt, pad)
        free_q = _charge(ens)
        deposit_mu(ens, grid, q=free_q)
    return CoupledState(ensemble=ens, grid=grid, hist_full=hist_full,
                        data=data, coupling=coupling, pad=pad, free_q=free_q)


def _push_box(x: np.ndarray, grid: FieldGrid, dt: float) -> tuple | None:
    """The node box (first node, nodes per axis) of every cell corner that
    a step's push and weight law read, or None when its tables would not
    pay.

    Every RK4 stage position, and the final x, lies within |dt| of the
    step's start on each axis, as |phat| < 1; the box takes each axis's
    smallest and largest coordinate, column by column, widened by |dt| and
    one node for rounding, clipped to the nodes 1 .. n - 2 that sampled
    cells' corners are.  None for an empty ensemble, a coordinate that is
    not finite or off the grid (the deposit then raises), and a box whose
    VIEW_TABLES tables would hold more floats than there are particles.
    """
    if not len(x):
        return None
    ends = np.array([(col.min(), col.max()) for col in x.T])
    if not np.all(np.abs(ends) <= grid.x_max):  # also False for a NaN
        return None
    reach = abs(dt) / grid.h
    first = np.floor(ends[:, 0] / grid.h + grid.n_half - reach) - 1
    last = np.floor(ends[:, 1] / grid.h + grid.n_half + reach) + 2
    first = np.maximum(first, 1).astype(int)
    shape = np.minimum(last, grid.n_nodes - 2).astype(int) - first + 1
    if np.any(shape < 1) or VIEW_TABLES * np.prod(shape) > len(x):
        return None
    return tuple(first.tolist()), tuple(shape.tolist())


def step(state: CoupledState, deposit: bool = True) -> CoupledState:
    """One coupled cycle: push -> weights -> deposit -> field -> advance t.

    A coupled ensemble is pushed and re-weighed PUSH_CHUNK particles at a
    time into new x, p and w; every value is per particle, so the bits do
    not depend on the chunks.  Its view (`FieldGrid.view`) holds the box
    of the particles' reach over the step (`_push_box`), if any, so every
    chunk, RK4 stage and the weight law gather from one set of tables,
    built once per step; they go with the view.  A free step adds the
    state's `free_disp` into x in place and deposits the state's `free_q`,
    building either that the state lacks (a resumed run).
    """
    ens, grid = state.ensemble, state.grid
    dt = grid.dt
    t_new = state.t + dt

    if not state.coupling:
        if state.free_disp is None:
            state.free_disp = np.empty_like(ens.p)
            for a in range(0, ens.n, PARTICLE_CHUNK):
                s = slice(a, a + PARTICLE_CHUNK)
                state.free_disp[s] = chars.free_displacement(ens.p[s], dt)
        ens.x += state.free_disp
    else:
        view = grid.view(_push_box(ens.x, grid, dt))
        x, p, w = np.empty_like(ens.x), np.empty_like(ens.p), np.empty_like(ens.w)
        for a in range(0, ens.n, PUSH_CHUNK):
            s = slice(a, a + PUSH_CHUNK)
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
    if state.coupling:
        deposit_mu(ens, grid)
    elif deposit:
        if state.free_q is None:
            state.free_q = _charge(ens)
        deposit_mu(ens, grid, q=state.free_q)
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
