"""Measurements of the quantities the decay theory bounds: first/second field
derivatives (K, L) at the origin and over the cone ball, both from
`wavefield.field_derivatives` on boxes of nodes, the source sup norm,
momentum support and per-cell momentum spread, free-streaming-condition
margins, and log-log decay fits.

Two measurement routes exist for the source sup and the momentum spread:
the particle-ensemble route (cheap, granular at late times because a fixed
lattice cannot resolve a momentum support shrinking like t^-3) and the
semi-Lagrangian route built on the exact backward-characteristic evaluation
of f, which stays sharp at late times and backs the decay fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import FieldView
from .profiles import InitialData, _squared_norm
from .vlasov_pic import ParticleEnsemble, evaluate_f
from .wavefield import FieldGrid, _slabs, field_derivatives

__all__ = [
    "DecayFit", "measure_KL",
    "sup_mu", "momentum_support", "max_momentum_spread",
    "fsc_raw_margins", "fsc_verdict", "fit_decay",
    "grid_derivative_maps", "cone_maxima", "semilag_profile",
]


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    slope: float
    intercept: float
    residual: float
    window: tuple


def fit_decay(series, window) -> DecayFit:
    """Least squares of log(value) against log(1+t) inside the window."""
    t_lo, t_hi = window
    if t_hi / max(t_lo, 1e-300) < 4.0:
        raise ValueError("fit window must span at least a factor 4 in t")
    ts = np.array([s[0] for s in series], dtype=float)
    vs = np.array([s[1] for s in series], dtype=float)
    sel = (ts >= t_lo) & (ts <= t_hi)
    ts, vs = ts[sel], vs[sel]
    if ts.size < 8:
        raise ValueError(f"need >= 8 points in window, got {ts.size}")
    if np.any(vs <= 0.0):
        raise ValueError("all values in the fit window must be positive")
    lt = np.log1p(ts)
    lv = np.log(vs)
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    residual=float(np.sqrt(np.mean(resid**2))),
                    window=(t_lo, t_hi))


# ---------------------------------------------------------------------------
# Field-derivative measurements
# ---------------------------------------------------------------------------

def measure_KL(grid: FieldGrid) -> tuple:
    """(K, L) at the origin as floats: `field_derivatives` on the box of
    its one node, n_half, which lies within the nodes 2 .. n - 3 as a
    coupled config's cube has n_half >= 3 (`cli._validate`)."""
    K, L = field_derivatives(grid, (grid.n_half,) * 3, (1, 1, 1))
    return float(K[0, 0, 0]), float(L[0, 0, 0])


def _ball_planes(grid: FieldGrid, radius: float) -> tuple:
    """Index range [lo, hi) of the interior sub-cube, on each axis, that holds
    the nodes with |x| <= radius: radius / h nodes from the center plus one
    of margin (r <= radius decides); capped at n so that inf stays an int."""
    n = grid.n_nodes
    reach = int(min(np.floor(radius / grid.h), n)) + 1
    lo = max(2, grid.n_half - reach)
    return lo, max(lo, min(n - 2, grid.n_half + reach + 1))


def grid_derivative_maps(grid: FieldGrid, max_radius: float | None = None,
                         planes: tuple | None = None):
    """K and L on all interior nodes with |x| <= max_radius; with `planes`
    = (a, b), only on those of the x-planes [a, b).

    Returns (K, L, r) flat arrays in node order; used for grid-wide sup
    norms and FSC margins.  The stencils run only on the index sub-cube that
    holds the ball, clamped to the interior, one slab of x-planes at a time.
    """
    radius = np.inf if max_radius is None else max_radius  # inf keeps all
    lo, hi = _ball_planes(grid, radius)
    first, last = planes or (lo, hi)
    first, last = max(first, lo), min(last, hi)
    if last <= first:
        return (np.zeros(0),) * 3
    ax = grid.node_axis()
    parts = []
    for a, b in _slabs(first, last, (hi - lo) ** 2):
        K, L = field_derivatives(grid, (a, lo, lo), (b - a, hi - lo, hi - lo))
        xx, yy, zz = np.meshgrid(ax[a:b], ax[lo:hi], ax[lo:hi], indexing="ij",
                                 sparse=True)
        r = np.broadcast_to(np.sqrt(xx**2 + yy**2 + zz**2), K.shape)
        sel = r <= radius
        parts.append((K[sel], L[sel], r[sel]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def cone_maxima(grid: FieldGrid, t: float, R: float, beta: float):
    """(max K, *fsc_raw_margins) over the interior nodes with |x| <= R + t,
    bit for bit as from the whole-ball maps, or None when there is no node.

    The maps are made and reduced one slab of x-planes at a time, so no
    ball-sized array exists; np.maximum keeps a NaN, as .max() does.
    """
    lo, hi = _ball_planes(grid, R + t)
    best = None
    for planes in _slabs(lo, hi, (hi - lo) ** 2):
        K, L, r = grid_derivative_maps(grid, max_radius=R + t, planes=planes)
        if K.size:
            got = (K.max(), *fsc_raw_margins(K, L, r, t, R, beta))
            best = got if best is None else tuple(map(np.maximum, best, got))
    return None if best is None else tuple(float(v) for v in best)


def sup_mu(grid: FieldGrid) -> float:
    """Max of the deposited source level."""
    return float(grid.mu.max(initial=0.0))


# ---------------------------------------------------------------------------
# Ensemble support measurements
# ---------------------------------------------------------------------------

def _live(ens: ParticleEnsemble):
    """(number of weighted particles, their x, their p); the arrays are the
    ensemble's own, not copies, when every weight is positive."""
    live = ens.w > 0.0
    n_live = np.count_nonzero(live)
    if n_live == ens.n:
        return n_live, ens.x, ens.p
    return n_live, ens.x[live], ens.p[live]


def momentum_support(ens: ParticleEnsemble) -> float:
    """Max |p| over weighted particles; 0 for an empty ensemble."""
    n_live, _, p = _live(ens)
    if n_live == 0:
        return 0.0
    # sqrt is monotone, so the root of the largest square is the largest root
    return float(np.sqrt(_squared_norm(p).max()))


def max_momentum_spread(ens: ParticleEnsemble, cell_size: float) -> float:
    """Max over the occupied cells of a cubic lattice of the bounding-box
    volume of the momenta of the weighted particles in the cell.

    The hash of the cell keys and the segment reductions run on one axis
    column at a time: each column's key is multiplied and XORed into one
    int64 array in place, so no key column outlives its turn.  The sort need
    not be stable: a segment's max and min do not depend on the order of its
    particles.
    """
    n_live, x, p = _live(ens)
    if n_live < 2:
        return 0.0
    flat = np.zeros(n_live, dtype=np.int64)
    for col, prime in zip(x.T, (73856093, 19349663, 83492791)):
        key = col / cell_size
        np.floor(key, out=key)
        key = key.astype(np.int64)
        key *= prime
        flat ^= key
        del key
    order = np.argsort(flat)
    flat = flat[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(flat))[0] + 1])
    # a one-particle segment has zero extent and so zero spread
    ext = []
    for col in p.T:
        seg = col[order]
        ext.append(np.maximum.reduceat(seg, starts) - np.minimum.reduceat(seg, starts))
    e0, e1, e2 = ext
    return float(((e0 * e1) * e2).max(initial=0.0))


# ---------------------------------------------------------------------------
# Free-streaming condition
# ---------------------------------------------------------------------------

def fsc_raw_margins(K, L, r, t: float, R: float, beta: float):
    """Raw margins (max K / w_K, max L / w_L) of the decay hypothesis
    K <= eta w_K, L <= eta w_L at one time, where
    w_K = (1+R+t+|x|)^-beta (1+R+t-|x|)^-beta and w_L = w_K / (1+R+t-|x|).
    K, L, r are node maps of the cone, as grid_derivative_maps returns them.
    """
    wk = (1.0 + R + t + r) ** beta * (1.0 + R + t - r) ** beta
    wl = wk * (1.0 + R + t - r)
    return float((K * wk).max()), float((L * wl).max())


def fsc_verdict(ts, k_raw, l_raw, eta: float, eta_t_hat: float):
    """(eta, times of violation) for a series of raw margins.

    eta <= 0 calibrates eta as the largest margin at t <= eta_t_hat (1 when
    that is 0); a margin violates when it exceeds eta by more than 1e-9
    relative, so the boundary itself is satisfied.
    """
    ts = np.asarray(ts, dtype=float)
    raw = np.maximum(k_raw, l_raw)
    if eta <= 0.0:
        early = raw[ts <= eta_t_hat]
        eta = float(early.max()) if early.size and early.max() > 0 else 1.0
    return eta, ts[raw > eta * (1.0 + 1e-9)]


# ---------------------------------------------------------------------------
# Semi-Lagrangian source and spread measurements
# ---------------------------------------------------------------------------

def _p_box(t: float, x: np.ndarray, data: InitialData, safety: float = 1.6):
    """Bounding box of the momentum support of f(t, x, .).

    Free-streaming geometry: the support concentrates around the momentum
    whose velocity points from the origin region to x, with width shrinking
    like gamma^3 * (radius + R)/t; capped by the global bound |p| <= 2R.
    """
    p_max = 2.0 * data.support_radius_R
    if t < 2.0:
        return -p_max * np.ones(3), p_max * np.ones(3)
    v = x / t
    vn = np.linalg.norm(v)
    if vn >= 0.995:
        v = v * (0.995 / vn)
        vn = 0.995
    gamma_c = 1.0 / np.sqrt(1.0 - vn**2)
    p_c = v * gamma_c
    w = safety * gamma_c**3 * (data.f_in.radius + data.support_radius_R) / t
    lo = np.clip(p_c - w, -p_max, p_max)
    hi = np.clip(p_c + w, -p_max, p_max)
    return lo, hi


def _p_grid(lo, hi, n_p):
    axes = [lo[k] + (np.arange(n_p) + 0.5) * (hi[k] - lo[k]) / n_p for k in range(3)]
    pg = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    vol = float(np.prod((hi - lo) / n_p))
    return pg, vol


def _radial_probes(t: float, data: InitialData, n_radii: int) -> np.ndarray:
    r_hi = data.support_radius_R + t  # support certainly inside |x| <= R + t
    radii = np.linspace(0.0, r_hi, n_radii)
    probes = np.zeros((n_radii, 3))
    probes[:, 0] = radii
    return probes


def semilag_profile(t: float, field: FieldView, data: InitialData, dt: float,
                    n_radii: int = 24, n_p: int = 10):
    """mu and momentum-spread radial profiles in a single backward trace.

    All probe/momentum pairs are batched into one characteristic integration,
    which is what makes late-time measurements affordable on stored-history
    fields; `evaluate_f` traces to s = 0 only the pairs whose characteristic
    may reach f_in's support (about 1 in 100 on the acceptance grid) and
    gives the others +0.0, the value a full trace gives.  Returns (radii,
    mu, spread) arrays of length n_radii.
    """
    probes = _radial_probes(t, data, n_radii)
    m = n_p**3
    # probe i's momentum grid is rows [i m, (i + 1) m) of P, its x of X
    X = np.repeat(probes, m, axis=0)
    P = np.empty((n_radii * m, 3))
    vols, steps = [], []
    for i, x in enumerate(probes):
        lo, hi = _p_box(t, x, data)
        P[i * m:(i + 1) * m], vol = _p_grid(lo, hi, n_p)
        vols.append(vol)
        steps.append((hi - lo) / n_p)
    f = evaluate_f(t, X, P, field, data, dt)
    gamma = np.sqrt(1.0 + _squared_norm(P))
    mu = np.empty(n_radii)
    spread = np.empty(n_radii)
    for i in range(n_radii):
        fi = f[i * m:(i + 1) * m]
        pi = P[i * m:(i + 1) * m]
        mu[i] = np.sum(fi / gamma[i * m:(i + 1) * m]) * vols[i]
        pts = pi[fi > 0.0]
        if pts.shape[0] < 2:
            spread[i] = 0.0
        else:
            # one sampling cell width per face closes the open boundary
            ext = pts.max(axis=0) - pts.min(axis=0) + steps[i]
            spread[i] = np.prod(ext)
    radii = np.linalg.norm(probes, axis=-1)
    return radii, mu, spread
