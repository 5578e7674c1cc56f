"""Measurements of the quantities the decay theory bounds: first/second field
derivatives (K, L) at the origin and over the cone ball, all from one pass
of `wavefield.field_derivatives` over the ball's slabs (`cone_maxima`), the
source sup norm, momentum support and per-cell momentum spread,
free-streaming-condition margins, and log-log decay fits.

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
    "DecayFit", "sup_mu", "momentum_support", "max_momentum_spread",
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

def _ball_planes(grid: FieldGrid, radius: float) -> tuple:
    """Index range [lo, hi) of the interior nodes, on one axis, that holds
    the nodes with |coordinate| <= radius: radius / h nodes from the center
    plus one of margin (r <= radius decides); capped at n so that inf stays
    an int, and empty for a negative radius."""
    n = grid.n_nodes
    reach = int(min(np.floor(radius / grid.h), n)) + 1
    lo = max(2, grid.n_half - reach)
    return lo, max(lo, min(n - 2, grid.n_half + reach + 1))


def _disc_radius(grid: FieldGrid, radius: float, first: int, last: int) -> float:
    """Radius of the ball's disc on the plane of [first, last) nearest the
    center, which holds the widest disc of those planes; -1 if that plane
    misses the ball.  For a plane at |x| <= radius, x^2 <= radius^2 after
    rounding too, so the root is real."""
    x = abs(grid.node_axis()[min(max(grid.n_half, first), last - 1)])
    return float(np.sqrt(radius * radius - x * x)) if x <= radius else -1.0


def grid_derivative_maps(grid: FieldGrid, max_radius: float | None = None,
                         planes: tuple | None = None):
    """K and L on all interior nodes with |x| <= max_radius; with `planes`
    = (a, b), only on those of the x-planes [a, b).

    Returns (K, L, r) flat arrays in node order; used for grid-wide sup
    norms and FSC margins.  The stencils run on one box: the planes' part
    of the index sub-cube that holds the ball, clamped to the interior,
    whose y and z ranges hold the ball's disc on the plane nearest the
    center (`_disc_radius`), the widest of the planes', not its whole
    square.  A node outside that box is farther than max_radius: its x is
    at least that plane's, and its y or z a node beyond the disc.
    """
    radius = np.inf if max_radius is None else max_radius  # inf keeps all
    lo, hi = _ball_planes(grid, radius)
    first, last = planes or (lo, hi)
    first, last = max(first, lo), max(first, lo, min(last, hi))
    if first < last:
        lo, hi = _ball_planes(grid, _disc_radius(grid, radius, first, last))
    K, L = field_derivatives(grid, (first, lo, lo), (last - first, hi - lo, hi - lo))
    ax = grid.node_axis()
    xx, yy, zz = np.meshgrid(ax[first:last], ax[lo:hi], ax[lo:hi], indexing="ij",
                             sparse=True)
    r = np.broadcast_to(np.sqrt(xx**2 + yy**2 + zz**2), K.shape)
    sel = r <= radius
    return K[sel], L[sel], r[sel]


def cone_maxima(grid: FieldGrid, t: float, R: float, beta: float):
    """(K and L at the origin, max K, *fsc_raw_margins) over the interior
    nodes with |x| <= R + t, bit for bit as from the whole-ball maps.  The
    origin, the one node with r == 0.0 (`node_axis`), must be among them:
    n_half >= 3 (`cli._validate`) and R + t >= 0.  The maps are made and
    reduced one slab of x-planes at a time, each on the box of its widest
    disc (`grid_derivative_maps`), so no ball-sized array exists and the
    stencils skip the corners of the ball's cube; np.maximum keeps a NaN,
    as .max() does.
    """
    lo, hi = _ball_planes(grid, R + t)
    best = None
    for a, b in _slabs(lo, hi, (hi - lo) ** 2):
        K, L, r = grid_derivative_maps(grid, max_radius=R + t, planes=(a, b))
        if a <= grid.n_half < b:
            origin = K[r == 0.0][0], L[r == 0.0][0]
        if K.size:
            got = (K.max(), *fsc_raw_margins(K, L, r, t, R, beta))
            best = got if best is None else tuple(map(np.maximum, best, got))
    return tuple(float(v) for v in origin + best)


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


# the cell hash's multipliers: cells whose keys give one XOR of their
# products count as one cell (ROADMAP item 5)
_HASH_PRIMES = np.array([73856093, 19349663, 83492791], dtype=np.int64)


def _compact(index: np.ndarray) -> np.ndarray:
    """Renumber `index` in place by each value's rank among its distinct
    values; return those values in increasing order."""
    order = np.argsort(index)
    ranks = index[order]
    new = np.empty(len(ranks), dtype=bool)
    new[0] = True
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:])
    values = ranks[new]
    np.cumsum(new, out=ranks)
    ranks -= 1
    index[order] = ranks
    return values


def _cells(x: np.ndarray, cell_size: float):
    """(index, keys): index[i] in [0, m) numbers the cell floor(x[i] /
    cell_size) of particle i; keys is (m, 3) int64, the key of each number.

    The keys' box comes from each x column's smallest and largest
    coordinate, as x -> floor(x / c) is monotone.  The index is accumulated
    in float64 over that box, exactly while it has at most 2^53 cells; it
    numbers every cell of the box when the box has at most a quarter as
    many cells as particles, else only the occupied cells (`_compact`).  A
    key off int64, a NaN, or a larger box takes the key triples and
    `np.unique`, which hold several times the particles' bytes.
    """
    ends = np.floor(np.array([(col.min(), col.max()) for col in x.T]) / cell_size)
    lo, hi = ends.min(axis=1), ends.max(axis=1)  # a negative cell_size swaps them
    in_range = bool(np.all((lo >= -2.0**63) & (hi < 2.0**63)))  # False for a NaN
    dims = [int(b) - int(a) + 1 for a, b in zip(lo, hi)] if in_range else []
    if not in_range or np.prod(dims, dtype=object) > 2**53:
        keys, index = np.unique(np.floor(x / cell_size).astype(np.int64), axis=0,
                                return_inverse=True)
        return index.ravel(), keys
    index = None
    for col, first, n in zip(x.T, lo, dims):
        u = col / cell_size
        np.floor(u, out=u)
        u -= first  # exact: both are integers within the box
        if index is None:
            index = u
        else:
            index *= n
            index += u
        del u  # so that at most two columns exist
    index = index.astype(np.int64)
    box = dims[0] * dims[1] * dims[2]
    cells = np.arange(box) if 4 * box <= len(x) else _compact(index)
    keys = np.stack(np.unravel_index(cells, dims), axis=1)
    keys += lo.astype(np.int64)
    return index, keys


def max_momentum_spread(ens: ParticleEnsemble, cell_size: float) -> float:
    """Max over the occupied cells of a cubic lattice of the bounding-box
    volume of the momenta of the weighted particles in the cell.

    Each particle's cell gets one integer index (`_cells`), and every
    momentum column's max and min per cell are taken with np.maximum.at and
    np.minimum.at, so the cost follows the particles and the cells, with no
    sort of the particles on the usual path.  Cells whose key hash
    coincides are then merged, max of maxes and min of mins (ROADMAP item
    5: the fix deletes that merge).  A one-particle cell has zero extent
    and so zero spread.
    """
    n_live, x, p = _live(ens)
    if n_live < 2:
        return 0.0
    index, keys = _cells(x, cell_size)
    top, bottom = (np.full((3, len(keys)), v) for v in (-np.inf, np.inf))
    for col, hi, lo in zip(p.T, top, bottom):
        np.maximum.at(hi, index, col)
        np.minimum.at(lo, index, col)
    del index
    # an empty cell keeps inf > -inf; a NaN compares False and stays
    occupied = ~(bottom[0] > top[0])
    keys, top, bottom = keys[occupied], top[:, occupied], bottom[:, occupied]
    keys *= _HASH_PRIMES  # wraps as the hash does
    _, group = np.unique(np.bitwise_xor.reduce(keys, axis=1), return_inverse=True)
    ext, low = (np.full((3, group.max() + 1), v) for v in (-np.inf, np.inf))
    for k in range(3):
        np.maximum.at(ext[k], group, top[k])
        np.minimum.at(low[k], group, bottom[k])
    ext -= low
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
