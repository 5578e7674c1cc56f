"""Measurements of the quantities the decay theory bounds: first/second field
derivatives (K, L), the source sup norm, momentum support and per-cell
momentum spread, free-streaming-condition margins, characteristic dispersion,
and log-log decay fits.

Two measurement routes exist for the source sup and the momentum spread:
the particle-ensemble route (cheap, granular at late times because a fixed
lattice cannot resolve a momentum support shrinking like t^-3) and the
semi-Lagrangian route built on the exact backward-characteristic evaluation
of f, which stays sharp at late times and backs the decay fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import FieldView, rel_velocity, flow_jacobian, backward_trace
from .profiles import InitialData
from .vlasov_pic import ParticleEnsemble, evaluate_f
from .wavefield import (GRAD, HESS, NOW, TIME_D1, TIME_D2, VALUE, FieldGrid,
                        difference, field_derivatives)

__all__ = [
    "ConeWeight", "DecayFit", "FscReport", "measure_K", "measure_L",
    "sup_mu", "momentum_support", "momentum_spread", "max_momentum_spread",
    "check_fsc", "fit_decay", "dispersion_check", "free_flow_dispersion_ratio",
    "jacobian_bound", "JacobianBoundReport", "grid_derivative_maps",
    "mu_pointwise", "semilag_profile",
]


# ---------------------------------------------------------------------------
# Cone weights and decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeWeight:
    """(1 + R + t + |x|)^a * (1 + R + t - |x|)^b."""

    R: float
    a: float
    b: float

    def __call__(self, t, xnorm):
        t = np.asarray(t, dtype=float)
        xnorm = np.asarray(xnorm, dtype=float)
        return ((1.0 + self.R + t + xnorm) ** self.a
                * (1.0 + self.R + t - xnorm) ** self.b)


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

def measure_K(grid: FieldGrid, probes) -> np.ndarray:
    """K = |dt phi| + |grad phi| at probe points (Euclidean gradient norm)."""
    dt_phi, grad, _, _, _ = field_derivatives(grid, probes)
    return np.abs(dt_phi) + np.linalg.norm(grad, axis=-1)


def measure_L(grid: FieldGrid, probes) -> np.ndarray:
    """L = |dt2 phi| + |dt grad phi| + max |hess entries| at probe points."""
    _, _, dt2, dt_grad, hess = field_derivatives(grid, probes)
    return (np.abs(dt2) + np.linalg.norm(dt_grad, axis=-1)
            + np.abs(hess).max(axis=(-1, -2)))


def grid_derivative_maps(grid: FieldGrid, max_radius: float | None = None):
    """K and L on all interior nodes with |x| <= max_radius.

    Returns (K, L, r) flat arrays; used for grid-wide sup norms and FSC
    margins.
    """
    n = grid.n_nodes
    levels = (grid.phi_m, grid.phi_0, grid.phi_p)

    def on_nodes(k, space):
        """`space` combined on the interior nodes of the level at time offset k."""
        def shifted(off):
            i, j, l = off
            return levels[k + 1][2 + i:n - 2 + i, 2 + j:n - 2 + j, 2 + l:n - 2 + l]
        return space.combine(shifted)

    def d(time, space=VALUE):
        return difference(time, space, on_nodes, grid.dt, grid.h)

    # one running accumulator for |grad|^2, |dt grad|^2 and max |hess|: on
    # fine grids each interior-sized array is tens of MiB
    acc = np.zeros((n - 4,) * 3)
    for g in GRAD:
        acc += d(NOW, g) ** 2
    K = np.abs(d(TIME_D1)) + np.sqrt(acc)
    acc[...] = 0.0
    for g in GRAD:
        acc += d(TIME_D1, g) ** 2
    L = np.abs(d(TIME_D2)) + np.sqrt(acc)
    acc[...] = 0.0
    for st in HESS.values():
        np.maximum(acc, np.abs(d(NOW, st)), out=acc)
    L += acc
    ax = grid.node_axis()[2:-2]
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    r = np.broadcast_to(np.sqrt(xx**2 + yy**2 + zz**2), K.shape)
    if max_radius is not None:
        sel = r <= max_radius
        return K[sel], L[sel], r[sel]
    return K.ravel(), L.ravel(), r.ravel()


def sup_mu(grid: FieldGrid) -> float:
    """Max of the deposited source level."""
    return float(grid.mu.max(initial=0.0))


# ---------------------------------------------------------------------------
# Ensemble support measurements
# ---------------------------------------------------------------------------

def momentum_support(ens: ParticleEnsemble) -> float:
    """Max |p| over weighted particles; 0 for an empty ensemble."""
    live = ens.w > 0.0
    if not np.any(live):
        return 0.0
    return float(np.linalg.norm(ens.p[live], axis=-1).max())


def momentum_spread(ens: ParticleEnsemble, cell_center, cell_size: float) -> float:
    """Bounding-box volume of momenta of weighted particles inside one cell."""
    cell_center = np.asarray(cell_center, dtype=float)
    live = ens.w > 0.0
    inside = live & np.all(np.abs(ens.x - cell_center) <= cell_size / 2, axis=-1)
    if np.count_nonzero(inside) < 2:
        return 0.0
    p = ens.p[inside]
    return float(np.prod(p.max(axis=0) - p.min(axis=0)))


def max_momentum_spread(ens: ParticleEnsemble, cell_size: float) -> float:
    """Max of momentum_spread over the occupied cells of a cubic lattice."""
    live = ens.w > 0.0
    if np.count_nonzero(live) < 2:
        return 0.0
    x = ens.x[live]
    p = ens.p[live]
    keys = np.floor(x / cell_size).astype(np.int64)
    flat = (keys[:, 0] * 73856093) ^ (keys[:, 1] * 19349663) ^ (keys[:, 2] * 83492791)
    order = np.argsort(flat, kind="stable")
    flat, p = flat[order], p[order]
    bounds = np.nonzero(np.diff(flat))[0] + 1
    best = 0.0
    for lo, hi in zip(np.concatenate([[0], bounds]),
                      np.concatenate([bounds, [flat.size]])):
        if hi - lo >= 2:
            seg = p[lo:hi]
            best = max(best, float(np.prod(seg.max(axis=0) - seg.min(axis=0))))
    return best


# ---------------------------------------------------------------------------
# Free-streaming condition
# ---------------------------------------------------------------------------

@dataclass
class FscReport:
    beta: float
    eta: float
    worst_k_margin: float
    worst_l_margin: float
    satisfied: bool
    first_violation: tuple | None  # (t, xnorm) of the earliest violation


def check_fsc(k_samples, l_samples, beta: float, eta: float, R: float) -> FscReport:
    """Margins of the decay hypothesis: value / (eta * cone weight) <= 1.

    Samples are sequences of (t, |x|, value); the K weight has exponents
    (-beta, -beta) and the L weight (-beta, -beta-1).
    """
    if not 0.5 < beta < 0.75:
        raise ValueError(f"beta must lie in (1/2, 3/4), got {beta}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    wk = ConeWeight(R, -beta, -beta)
    wl = ConeWeight(R, -beta, -beta - 1.0)

    def margins(samples, w):
        out = []
        for t, xn, val in samples:
            if xn > R + t:
                continue  # the decay hypothesis only constrains the cone
            out.append((val / (eta * w(t, xn)), t, xn))
        return out

    mk = margins(k_samples, wk)
    ml = margins(l_samples, wl)
    worst_k = max((m[0] for m in mk), default=0.0)
    worst_l = max((m[0] for m in ml), default=0.0)
    violations = sorted((t, xn) for m, t, xn in mk + ml if m > 1.0)
    return FscReport(beta=beta, eta=eta, worst_k_margin=float(worst_k),
                     worst_l_margin=float(worst_l),
                     satisfied=worst_k <= 1.0 and worst_l <= 1.0,
                     first_violation=violations[0] if violations else None)


# ---------------------------------------------------------------------------
# Characteristic-flow diagnostics
# ---------------------------------------------------------------------------

def free_flow_dispersion_ratio(p1, p2) -> float:
    """|phat1 - phat2| / |p1 - p2|: the exact dispersion rate for zero field."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return float(np.linalg.norm(rel_velocity(p1) - rel_velocity(p2))
                 / np.linalg.norm(p1 - p2))


def dispersion_check(field: FieldView, samples, dt: float) -> float:
    """Min over samples of |X(0,t,x,p1) - X(0,t,x,p2)| / (|p1 - p2| t).

    Each sample is (x, p1, p2, t) with t >= 1 (the ratio degenerates at
    t -> 0).
    """
    ratios = []
    for x, p1, p2, t in samples:
        if t < 1.0:
            raise ValueError("dispersion samples require t >= 1")
        x1, _ = backward_trace(t, np.asarray(x, float), np.asarray(p1, float), field, dt)
        x2, _ = backward_trace(t, np.asarray(x, float), np.asarray(p2, float), field, dt)
        dp = np.linalg.norm(np.asarray(p1, float) - np.asarray(p2, float))
        ratios.append(float(np.linalg.norm(x1 - x2) / (dp * t)))
    return min(ratios)


@dataclass
class JacobianBoundReport:
    max_abs: float          # max entry over the full 6x6 flow Jacobians
    max_abs_x_block: float  # max entry over the derivative-in-x columns


def jacobian_bound(field: FieldView, samples, dt: float) -> JacobianBoundReport:
    """Entrywise bounds of the backward-flow Jacobian over samples (x, p, t).

    The x-columns (derivatives of (X, P) w.r.t. x) are the ones that stay
    O(1) on decaying-field runs; the p-columns grow linearly in t already
    for free flow.
    """
    max_all = 0.0
    max_x = 0.0
    for x, p, t in samples:
        jac = flow_jacobian(t, np.asarray(x, float), np.asarray(p, float), field, dt)
        max_all = max(max_all, float(np.abs(jac).max()))
        max_x = max(max_x, float(np.abs(jac[..., :, 0:3]).max()))
    return JacobianBoundReport(max_abs=max_all, max_abs_x_block=max_x)


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


def mu_pointwise(t: float, x, field: FieldView, data: InitialData, dt: float,
                 n_p: int = 12) -> float:
    """mu(t,x) = int f(t,x,p)/sqrt(1+p^2) dp via the exact f representation,
    on an adaptive momentum box."""
    x = np.asarray(x, dtype=float)
    lo, hi = _p_box(t, x, data)
    pg, vol = _p_grid(lo, hi, n_p)
    f = evaluate_f(t, np.broadcast_to(x, pg.shape), pg, field, data, dt)
    gamma = np.sqrt(1.0 + np.sum(pg * pg, axis=-1))
    return float(np.sum(f / gamma) * vol)


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
    fields.  Returns (radii, mu, spread) arrays of length n_radii.
    """
    probes = _radial_probes(t, data, n_radii)
    xs, ps, vols, steps = [], [], [], []
    for x in probes:
        lo, hi = _p_box(t, x, data)
        pg, vol = _p_grid(lo, hi, n_p)
        xs.append(np.broadcast_to(x, pg.shape).copy())
        ps.append(pg)
        vols.append(vol)
        steps.append((hi - lo) / n_p)
    X = np.concatenate(xs)
    P = np.concatenate(ps)
    f = evaluate_f(t, X, P, field, data, dt)
    gamma = np.sqrt(1.0 + np.sum(P * P, axis=-1))
    m = n_p**3
    mu = np.empty(n_radii)
    spread = np.empty(n_radii)
    for i in range(n_radii):
        fi = f[i * m:(i + 1) * m]
        pi = ps[i]
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
