"""Scalar wave solver: FDTD leapfrog on an expanding cube plus pointwise
light-cone integral oracles (sphere means and retarded potentials).

The grid is node-centered with a node at the origin; coordinates are integer
multiples of the spacing h, so the domain can be re-embedded into a larger
cube exactly (copy, zero fill).  Boundary values stay 0 as long as the cube
tracks R + t + pad, which finite propagation speed guarantees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .characteristics import FieldView
from .errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from .profiles import InitialData

__all__ = [
    "FieldGrid", "make_field_grid", "fdtd_step", "field_derivatives",
    "discrete_energy", "GridFieldHistory", "SourceHistory", "CallableSource",
    "unit_sphere_quadrature", "kirchhoff_homogeneous", "data_term_dt_phi",
    "retarded_potential",
]


def _cfl_ok(dt: float, h: float) -> bool:
    return dt <= h / np.sqrt(3.0) + 1e-12


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass
class FieldGrid:
    """Three consecutive time levels of phi on a cube, plus the source level.

    Levels phi_m, phi_0, phi_p live at times t-dt, t, t+dt where t is the
    diagnostic center time.  Node i has coordinate (i - n_half)*h.
    """

    h: float
    dt: float
    n_half: int
    t: float
    phi_m: np.ndarray
    phi_0: np.ndarray
    phi_p: np.ndarray
    mu: np.ndarray

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_half + 1

    @property
    def x_max(self) -> float:
        return self.n_half * self.h

    def node_axis(self) -> np.ndarray:
        return (np.arange(self.n_nodes) - self.n_half) * self.h

    def ensure_extent(self, x_needed: float, grow_chunk: float = 1.0):
        """Re-embed into a larger cube if x_needed exceeds the current extent."""
        if x_needed <= self.x_max:
            return
        new_half = int(np.ceil((x_needed + grow_chunk) / self.h))
        off = new_half - self.n_half
        n_new = 2 * new_half + 1
        for name in ("phi_m", "phi_0", "phi_p", "mu"):
            old = getattr(self, name)
            new = np.zeros((n_new, n_new, n_new))
            new[off:off + old.shape[0], off:off + old.shape[1],
                off:off + old.shape[2]] = old
            setattr(self, name, new)
        self.n_half = new_half


def _sample_on_nodes(fn, axis: np.ndarray) -> np.ndarray:
    xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1)
    return fn(pts)


def make_field_grid(data: InitialData, h: float, dt: float, pad: float = 2.0,
                    mu0: np.ndarray | None = None,
                    check_cfl: bool = True) -> FieldGrid:
    """Grid at t = 0 with phi(-dt), phi(0), phi(dt) from a 2nd-order Taylor start.

    phi(+-dt) = phi0 +- dt*phi1 + dt^2/2 * (lap phi0 - mu(0)).
    `check_cfl=False` is for runs that never advance the field (the grid then
    only carries deposited source levels).
    """
    if check_cfl and not _cfl_ok(dt, h):
        raise ConfigError(f"CFL violated: dt={dt} > h/sqrt(3)={h / np.sqrt(3):.6g}")
    n_half = int(np.ceil((data.support_radius_R + pad) / h))
    grid = FieldGrid(h=h, dt=dt, n_half=n_half, t=0.0,
                     phi_m=np.zeros(1), phi_0=np.zeros(1), phi_p=np.zeros(1),
                     mu=np.zeros(1))
    axis = grid.node_axis()
    phi0 = _sample_on_nodes(data.phi0_in.value, axis)
    phi1 = _sample_on_nodes(data.phi1_in.value, axis)
    lap0 = _sample_on_nodes(data.phi0_in.laplacian, axis)
    if mu0 is None:
        mu0 = np.zeros_like(phi0)
    acc = 0.5 * dt**2 * (lap0 - mu0)
    grid.phi_0 = phi0
    grid.phi_m = phi0 - dt * phi1 + acc
    grid.phi_p = phi0 + dt * phi1 + acc
    grid.mu = mu0
    return grid


def _laplacian(phi: np.ndarray, h: float) -> np.ndarray:
    lap = np.zeros_like(phi)
    lap[1:-1, 1:-1, 1:-1] = (
        phi[2:, 1:-1, 1:-1] + phi[:-2, 1:-1, 1:-1]
        + phi[1:-1, 2:, 1:-1] + phi[1:-1, :-2, 1:-1]
        + phi[1:-1, 1:-1, 2:] + phi[1:-1, 1:-1, :-2]
        - 6.0 * phi[1:-1, 1:-1, 1:-1]
    ) / h**2
    return lap


def fdtd_step(grid: FieldGrid, mu: np.ndarray,
              sponge_radius: float | None = None) -> FieldGrid:
    """Advance the center time by dt with the 7-point leapfrog update.

    `mu` is the source at the grid's upper level time t+dt.  With
    `sponge_radius` set, the region beyond it is gently damped each step;
    the exact solution vanishes beyond |x| = R + t, so the sponge only
    absorbs the nonphysical precursor that the stencil radiates at speed
    h/dt > 1.  Mutates and returns `grid`.
    """
    if not _cfl_ok(grid.dt, grid.h):
        raise ConfigError("CFL violated")
    if mu.shape != grid.phi_p.shape:
        raise DomainTooSmallError("source level shape does not match grid")
    new = 2.0 * grid.phi_p - grid.phi_0 + grid.dt**2 * (
        _laplacian(grid.phi_p, grid.h) - mu
    )
    if sponge_radius is not None:
        ax = grid.node_axis()
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(xx**2 + yy**2 + zz**2)
        sigma = 0.25 * np.clip((r - sponge_radius) / 3.0, 0.0, 1.0) ** 2
        new *= 1.0 - sigma
    # The discrete stencil leaks an exponentially small tail one cell per
    # step ahead of the physical cone; only a significant boundary value
    # means the domain is genuinely too small.
    edge = max(np.abs(new[:2]).max(initial=0), np.abs(new[-2:]).max(initial=0),
               np.abs(new[:, :2]).max(initial=0), np.abs(new[:, -2:]).max(initial=0),
               np.abs(new[:, :, :2]).max(initial=0), np.abs(new[:, :, -2:]).max(initial=0))
    scale = float(np.abs(new).max())
    if scale > 0.0 and edge > 1e-4 * scale:
        raise DomainTooSmallError(
            f"field reached within 2 cells of the boundary (t={grid.t + grid.dt:.3f})"
        )
    grid.phi_m = grid.phi_0
    grid.phi_0 = grid.phi_p
    grid.phi_p = new
    grid.mu = mu
    grid.t += grid.dt
    return grid


def discrete_energy(grid: FieldGrid) -> float:
    """Leapfrog-conserved discrete energy for the source-free equation."""
    h, dt = grid.h, grid.dt
    v = (grid.phi_p - grid.phi_0) / dt
    e = 0.5 * np.sum(v * v) - 0.5 * np.sum(grid.phi_p * _laplacian(grid.phi_0, h))
    return float(e * h**3)


# ---------------------------------------------------------------------------
# Centered differences and the trilinear sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Stencil:
    """Centered difference sum(coef * f[offset]) / step**order.

    Spatial offsets are node vectors (step h); time offsets -1, 0, +1 index
    the levels at t - dt, t, t + dt (step dt).
    """

    order: int
    terms: tuple  # ((offset, coef), ...)

    def combine(self, take):
        """sum(coef * take(offset)): the difference before the step scaling."""
        (off, coef), *rest = self.terms
        acc = coef * take(off)
        for off, coef in rest:
            acc += coef * take(off)
        return acc


_E = np.eye(3, dtype=int)
_O = np.zeros(3, dtype=int)

VALUE = Stencil(0, ((_O, 1.0),))
GRAD = tuple(Stencil(1, ((e, 0.5), (-e, -0.5))) for e in _E)
# upper triangle of the Hessian, keyed by (k, j)
HESS = {
    (k, j): Stencil(2, (
        ((_E[k], 1.0), (_O, -2.0), (-_E[k], 1.0)) if k == j
        else ((_E[k] + _E[j], 0.25), (_E[k] - _E[j], -0.25),
              (_E[j] - _E[k], -0.25), (-_E[k] - _E[j], 0.25))))
    for k in range(3) for j in range(k, 3)
}
NOW = Stencil(0, ((0, 1.0),))
TIME_D1 = Stencil(1, ((1, 0.5), (-1, -0.5)))
TIME_D2 = Stencil(2, ((1, 1.0), (0, -2.0), (-1, 1.0)))


def difference(time: Stencil, space: Stencil, take, dt: float, h: float):
    """`time` applied to `space`, where take(k, space) is `space` combined on
    the level at time offset k; the steps are divided out once, at the end."""
    return time.combine(lambda k: take(k, space)) / (dt**time.order * h**space.order)


def sample_levels(levels, h: float, n_half: int, x, stencils) -> np.ndarray:
    """Trilinear samples of node stencils on levels that share one geometry.

    Returns shape (len(levels), len(stencils)) + x.shape[:-1]: each stencil
    combined on the nodes of each level, interpolated to x, not scaled by
    the step.  A point is sampled when its cell and the cell's +-1
    neighbours lie on the grid, and is 0 otherwise.  The 8 cell corners are
    visited once each; every gather is a flat index into the raveled level,
    offset by the strides n**2, n, 1.
    """
    x = np.asarray(x, dtype=float)
    n = levels[0].shape[0]
    u = x.reshape(-1, 3) / h + n_half
    i0 = np.floor(u).astype(np.intp)
    frac = u - i0
    valid = np.all((i0 >= 1) & (i0 <= n - 3), axis=-1)
    i0[~valid] = 1  # any cell with neighbours keeps the gathers in range
    # flat index of the cell's (-1, -1, -1) neighbour: every shift is >= 0
    low = ((i0[:, 0] - 1) * n + i0[:, 1] - 1) * n + i0[:, 2] - 1
    weights = [(1.0 - frac[:, ax], frac[:, ax]) for ax in range(3)]
    strides = np.array([n * n, n, 1])
    flats = [np.ravel(level) for level in levels]
    out = np.zeros((len(levels), len(stencils), low.size))
    for corner in itertools.product((0, 1), repeat=3):
        w = weights[0][corner[0]] * weights[1][corner[1]] * weights[2][corner[2]]
        start = np.add(corner, 1) @ strides  # from `low` to this corner
        for flat, acc in zip(flats, out):
            for stencil, a in zip(stencils, acc):
                a += w * stencil.combine(
                    lambda off: flat[start + off @ strides:].take(low))
    out[..., ~valid] = 0.0
    return out.reshape(out.shape[:2] + x.shape[:-1])


def field_derivatives(grid: FieldGrid, x) -> tuple:
    """(dt_phi, grad, dt2_phi, dt_grad, hess) at points x, 2nd-order centered.

    Trilinear interpolation of node stencils; probes must be at least two
    cells inside the boundary.
    """
    x = np.asarray(x, dtype=float)
    i0 = np.floor(x / grid.h + grid.n_half)
    if np.any(i0 < 2) or np.any(i0 > grid.n_nodes - 4):
        raise ValueError("probe point too close to (or outside) the grid boundary")
    stencils = (VALUE, *GRAD, *HESS.values())
    samples = sample_levels((grid.phi_m, grid.phi_0, grid.phi_p), grid.h,
                            grid.n_half, x, stencils)
    column = {st: j for j, st in enumerate(stencils)}

    def d(time, space=VALUE):
        return difference(time, space, lambda k, st: samples[k + 1, column[st]],
                          grid.dt, grid.h)

    grad = np.stack([d(NOW, g) for g in GRAD], axis=-1)
    dt_grad = np.stack([d(TIME_D1, g) for g in GRAD], axis=-1)
    hess = np.empty(x.shape + (3,))
    for (k, j), st in HESS.items():
        hess[..., k, j] = hess[..., j, k] = d(NOW, st)
    return d(TIME_D1), grad, d(TIME_D2), dt_grad, hess


# ---------------------------------------------------------------------------
# Stored levels: field view for particle pushes and backward traces, and the
# source store of the retarded integral
# ---------------------------------------------------------------------------

class GridFieldHistory(FieldView):
    """Time-bracketed store of levels; linear in t, trilinear in x.

    dt phi is the forward difference of the bracketing levels.  A ring window
    (`max_levels`) bounds memory when full history is not needed.
    """

    def __init__(self, max_levels: int | None = None, dtype=np.float64):
        self._times: list[float] = []
        self._levels: list[tuple[np.ndarray, float, int]] = []  # (phi, h, n_half)
        self.max_levels = max_levels
        self.dtype = dtype

    def append(self, t: float, phi: np.ndarray, h: float, n_half: int):
        self._times.append(t)
        self._levels.append((np.asarray(phi, dtype=self.dtype), h, n_half))
        if self.max_levels is not None and len(self._times) > self.max_levels:
            self._times.pop(0)
            self._levels.pop(0)

    @property
    def t_min(self) -> float:
        return self._times[0]

    @property
    def t_max(self) -> float:
        return self._times[-1]

    def covers(self, t: float) -> bool:
        return bool(self._times) and self.t_min - 1e-9 <= t <= self.t_max + 1e-9

    def _bracket(self, t: float):
        if not self._times:
            raise OutOfHistoryError("no field levels stored")
        if not self.covers(t):
            raise OutOfHistoryError(
                f"t={t} outside stored history [{self.t_min}, {self.t_max}]")
        if len(self._times) == 1:
            return 0, 0, 0.0
        t = min(max(t, self.t_min), self.t_max)
        k = int(np.searchsorted(self._times, t, side="right")) - 1
        k = min(max(k, 0), len(self._times) - 2)
        t0, t1 = self._times[k], self._times[k + 1]
        return k, k + 1, (t - t0) / (t1 - t0)

    def _at_bracket(self, t: float, x, stencils):
        """Stencils at x on the two levels bracketing t, each divided by its
        level's h**order: (earlier, later, weight of later, their t spacing).

        Levels of one geometry share the corner weights; after a domain
        growth the two levels differ in n_half and are sampled apart.
        """
        def sample(levels, h, n_half):
            out = sample_levels(levels, h, n_half, x, stencils)
            for j, st in enumerate(stencils):
                out[:, j] /= h**st.order
            return out

        k0, k1, a = self._bracket(t)
        (f0, h0, n0), (f1, h1, n1) = self._levels[k0], self._levels[k1]
        if k1 == k0:
            v0 = v1 = sample((f0,), h0, n0)[0]
        elif (h0, n0, f0.shape) == (h1, n1, f1.shape):
            v0, v1 = sample((f0, f1), h0, n0)
        else:
            v0, v1 = sample((f0,), h0, n0)[0], sample((f1,), h1, n1)[0]
        return v0, v1, a, self._times[k1] - self._times[k0]

    def phi(self, t, x):
        (v0,), (v1,), a, _ = self._at_bracket(t, x, (VALUE,))
        return (1.0 - a) * v0 + a * v1

    def first_derivs(self, t, x):
        v0, v1, a, tau = self._at_bracket(t, x, (VALUE, *GRAD))
        dt_phi = (v1[0] - v0[0]) / tau if tau else np.zeros_like(v0[0])
        grad = np.stack([(1.0 - a) * g0 + a * g1 for g0, g1 in zip(v0[1:], v1[1:])],
                        axis=-1)
        return dt_phi, grad

    def second_derivs(self, t, x):
        x = np.asarray(x, dtype=float)
        v0, v1, a, tau = self._at_bracket(t, x, (*GRAD, *HESS.values()))
        if tau:
            dt_grad = np.stack([(g1 - g0) / tau for g0, g1 in zip(v0[:3], v1[:3])],
                               axis=-1)
        else:
            dt_grad = np.zeros(x.shape)
        hess = np.empty(x.shape + (3,))
        for (k, j), h0, h1 in zip(HESS, v0[3:], v1[3:]):
            hess[..., k, j] = hess[..., j, k] = (1.0 - a) * h0 + a * h1
        return dt_grad, hess


class SourceHistory(GridFieldHistory):
    """Deposited source levels for the retarded integral: the level store
    read as a density, linear in time and trilinear in space."""

    def density(self, s: float, y) -> np.ndarray:
        return self.phi(s, y)


class CallableSource:
    """Source given by a closed-form density(s, y); used by oracle tests."""

    def __init__(self, fn, t_range=(0.0, np.inf)):
        self.fn = fn
        self.t_range = t_range

    def covers(self, t: float) -> bool:
        return self.t_range[0] - 1e-9 <= t <= self.t_range[1] + 1e-9

    def density(self, s: float, y: np.ndarray) -> np.ndarray:
        if not self.covers(s):
            raise OutOfHistoryError(f"source not defined at time {s}")
        return np.asarray(self.fn(s, y))


# ---------------------------------------------------------------------------
# Light-cone integrals
# ---------------------------------------------------------------------------

def unit_sphere_quadrature(n_theta: int = 24, n_phi: int = 48):
    """Gauss-Legendre x trapezoid product rule; weights sum to 4*pi."""
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    ph = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - mu**2)
    dirs = np.stack([
        np.outer(st, np.cos(ph)),
        np.outer(st, np.sin(ph)),
        np.outer(mu, np.ones(n_phi)),
    ], axis=-1).reshape(-1, 3)
    w = np.outer(wmu, np.full(n_phi, 2.0 * np.pi / n_phi)).reshape(-1)
    return dirs, w


def kirchhoff_homogeneous(t: float, x, data: InitialData,
                          quad=(24, 48), t_small: float = 1e-9) -> float:
    """Homogeneous wave solution from (phi0_in, phi1_in) by sphere means.

    phi0(t,x) = (1/4 pi t^2) oint (phi0_in - grad phi0_in . (x-y)) dS
              + (1/4 pi t)   oint phi1_in dS     over |x-y| = t.
    """
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t < t_small:
        return float(data.phi0_in.value(x) + t * data.phi1_in.value(x)
                     + 0.5 * t**2 * data.phi0_in.laplacian(x))
    dirs, w = unit_sphere_quadrature(*quad)
    y = x + t * dirs
    # x - y = -t n  =>  -grad.(x-y) = +t n.grad
    vals0 = data.phi0_in.value(y) + t * np.sum(dirs * data.phi0_in.gradient(y), axis=-1)
    vals1 = data.phi1_in.value(y)
    return float((np.sum(w * vals0) + t * np.sum(w * vals1)) / (4.0 * np.pi))


def _momentum_integral(data: InitialData, y: np.ndarray, omega: np.ndarray,
                       n_p: int) -> float:
    """int f_in(y, p) / ((1 + omega.phat) sqrt(1+p^2)) dp by midpoint rule."""
    c = data.f_in.center
    cx, cp = c[:3], c[3:]
    r2 = data.f_in.radius**2 - float(np.sum((y - cx) ** 2))
    if r2 <= 0.0:
        return 0.0
    r = np.sqrt(r2)
    centers = (np.arange(n_p) + 0.5) * 2 * r / n_p - r
    pg = np.stack(np.meshgrid(cp[0] + centers, cp[1] + centers, cp[2] + centers,
                              indexing="ij"), axis=-1).reshape(-1, 3)
    vol = (2 * r / n_p) ** 3
    f = data.f_value(np.broadcast_to(y, pg.shape), pg)
    gamma = np.sqrt(1.0 + np.sum(pg * pg, axis=-1))
    phat = pg / gamma[:, None]
    kern = 1.0 / ((1.0 + phat @ omega) * gamma)
    return float(np.sum(f * kern) * vol)


def data_term_dt_phi(t: float, x, data: InitialData, quad=(24, 48),
                     n_p: int = 12) -> float:
    """Data part of dt phi: the three sphere integrals over |x-y| = t.

    The kinetic term carries the kernel 1/(1 + omega.phat) with
    omega = -(x-y)/|x-y|; the field terms are the t-derivative of the
    homogeneous sphere-mean solution.
    """
    x = np.asarray(x, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    dirs, w = unit_sphere_quadrature(*quad)
    y = x + t * dirs  # omega = -(x-y)/t = dirs
    xy = -t * dirs    # x - y

    # kinetic data term: -(1/t) oint [int f_in/( (1+omega.phat) gamma) dp] dS_y
    term1 = 0.0
    rho = np.linalg.norm(y - data.f_in.center[:3], axis=-1)
    hit = np.nonzero(rho < data.f_in.radius)[0]
    for i in hit:
        term1 += w[i] * _momentum_integral(data, y[i], dirs[i], n_p)
    term1 *= -(1.0 / t) * t**2  # dS_y = t^2 dOmega

    # field data terms
    vals2 = data.phi1_in.value(y) - np.sum(data.phi1_in.gradient(y) * xy, axis=-1)
    term2 = float(np.sum(w * vals2) * t**2 / (4.0 * np.pi * t**2))
    g0 = data.phi0_in.gradient(y)
    h0 = data.phi0_in.hessian(y)
    vals3 = (2.0 * np.sum(g0 * xy, axis=-1)
             - np.einsum("qi,qij,qj->q", xy, h0, xy))
    term3 = float(-np.sum(w * vals3) * t**2 / (4.0 * np.pi * t**3))
    return term1 + term2 + term3


def retarded_potential(t: float, x, hist, shell_width: float,
                       quad=(16, 32)) -> float:
    """-(1/4 pi) int_{|x-y|<=t} mu(t-|x-y|, y)/|x-y| dy in retarded shells.

    Midpoint rule in radius with shells of the given width, fixed-order
    sphere quadrature per shell.  `hist` must cover retarded times in [0, t].
    """
    x = np.asarray(x, dtype=float)
    if t <= 0:
        return 0.0
    if not hist.covers(0.0) or not hist.covers(t):
        raise OutOfHistoryError("source history does not cover [0, t]")
    dirs, w = unit_sphere_quadrature(*quad)
    n_full = int(np.floor(t / shell_width))
    total = 0.0
    for j in range(n_full + 1):
        if j < n_full:
            r, dr = (j + 0.5) * shell_width, shell_width
        else:
            dr = t - n_full * shell_width
            if dr <= 1e-12:
                break
            r = n_full * shell_width + dr / 2
        mu_vals = hist.density(t - r, x + r * dirs)
        total += dr * r * np.sum(w * mu_vals)
    return float(-total / (4.0 * np.pi))
