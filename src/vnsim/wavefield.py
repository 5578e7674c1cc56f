"""Scalar wave solver: FDTD leapfrog on an expanding cube, the centered
difference stencils, combined on boxes of nodes (K and L in
`field_derivatives`, the sampler's tables, a stored level's gradient
maxima) or sampled trilinearly between nodes (the push and the backward
traces), the stored level history, and the retarded-potential integral over
the light cone.

The grid is node-centered with a node at the origin; coordinates are integer
multiples of the spacing h, so the domain can be re-embedded into a larger
cube exactly (copy, zero fill).  Boundary values stay 0 as long as the cube
tracks R + t + pad, which finite propagation speed guarantees.
"""

from __future__ import annotations

import functools
import itertools
import sys
import types
import weakref
from dataclasses import dataclass, field

import numpy as np

from .characteristics import FieldView, ZeroField
from .errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from .profiles import InitialData

__all__ = [
    "FieldGrid", "make_field_grid", "fdtd_step", "field_derivatives",
    "discrete_energy", "GridFieldHistory", "unit_sphere_quadrature",
    "retarded_potential",
]


def _cfl_ok(dt: float, h: float) -> bool:
    return dt <= h / np.sqrt(3.0) + 1e-12


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

GROW_CHUNK = 1.0  # a growth's margin beyond the extent asked for
LEVELS = ("phi_m", "phi_0", "phi_p")


def _refs(obj, name: str) -> int:
    return sys.getrefcount(getattr(obj, name))


# the count `_refs` gives for an attribute that nothing else refers to
_SOLE_REFS = _refs(types.SimpleNamespace(a=np.zeros(1)), "a")


@dataclass
class FieldGrid:
    """Three consecutive time levels of phi on a cube, plus the source level:
    the run's field, which the loop, the record and the checkpoint reach
    through `view`, `advance`, `arrays`/`from_arrays` and `phi_p_finite`.

    Levels phi_m, phi_0, phi_p live at times t-dt, t, t+dt, t the diagnostic
    center time, and are None without coupling.  Node i is at (i - n_half)*h.
    The source is held on its box only: mu[j] is the source at node
    mu_origin + j, and it is exactly +0.0 outside the box (`source_box`); a
    whole cube is the box at origin (0, 0, 0).

    `fdtd_step` writes the new level into the buffer of the phi_m that falls
    out while the grid holds its only reference (`reusable`).  A domain
    growth drops phi_m and mu (None until the step makes them again), so a
    coupled step holds three level cubes and the source box.  `finite`, a
    weak reference, marks the level that `fdtd_step` found all finite
    (`phi_p_finite`) while it is still phi_p.
    """

    h: float
    dt: float
    n_half: int
    t: float
    phi_m: np.ndarray | None = None
    phi_0: np.ndarray | None = None
    phi_p: np.ndarray | None = None
    mu: np.ndarray | None = None
    mu_origin: tuple = (0, 0, 0)
    finite: weakref.ref | None = field(default=None, repr=False, compare=False)

    @classmethod
    def at_start(cls, R: float, h: float, dt: float, pad: float) -> FieldGrid:
        """The level-less grid at t = 0 whose cube holds R + pad."""
        return cls(h=h, dt=dt, n_half=int(np.ceil((R + pad) / h)), t=0.0)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_half + 1

    @property
    def x_max(self) -> float:
        return self.n_half * self.h

    def node_axis(self) -> np.ndarray:
        return (np.arange(self.n_nodes) - self.n_half) * self.h

    def reusable(self, name: str, shape: tuple) -> np.ndarray | None:
        """The array self.<name> if it may be overwritten, else None (also
        when the grid holds none): it has `shape`, is C-contiguous float64
        with writeable memory of its own, and this grid holds its only
        reference."""
        if _refs(self, name) > _SOLE_REFS:
            return None
        a = getattr(self, name)
        flags = a.flags
        if (a.shape == shape and a.dtype == np.float64 and flags.c_contiguous
                and flags.owndata and flags.writeable):
            return a
        return None

    def source_box(self) -> tuple:
        """The slices of the cube that mu covers; a ValueError if mu is not
        a 3-D box that fits the cube at mu_origin."""
        box = tuple(slice(o, o + m) for o, m in zip(self.mu_origin, self.mu.shape))
        if (np.shape(self.mu_origin) != (3,) or self.mu.ndim != 3
                or any(b.start < 0 or b.stop > self.n_nodes for b in box)):
            raise ValueError(f"mu of shape {self.mu.shape} at {self.mu_origin} "
                             f"does not fit the cube of {self.n_nodes}^3 nodes")
        return box

    def clear_mu(self) -> np.ndarray:
        """Set mu to +0.0 everywhere, as the empty box, and return it."""
        self.mu, self.mu_origin = np.zeros((0, 0, 0)), (0, 0, 0)
        return self.mu

    def phi_p_finite(self) -> bool:
        """Whether phi_p is all finite (so without levels): as `fdtd_step`
        found it, else by its sum."""
        p = self.phi_p
        return (p is None or (self.finite is not None and self.finite() is p)
                or bool(np.isfinite(np.sum(p))))

    def view(self, box: tuple | None = None) -> FieldView:
        """The push's view: phi_0 at t and phi_p at t + dt as a two-level
        GridFieldHistory (drop it before a growth), or the zero field.

        `box`, a node box (first node, nodes per axis) within the nodes
        1 .. n - 2 of each axis, goes to the history, which then builds
        each (level, stencil) table it gathers over that box once and keeps
        it while the view lives: at most VIEW_TABLES tables, VALUE and GRAD
        on both levels.  `vlasov_pic.step` gives the box of its particles'
        reach.
        """
        if self.phi_0 is None:
            return ZeroField()
        view = GridFieldHistory(box=box)
        view.append(self.t, self.phi_0, self.h, self.n_half)
        view.append(self.t + self.dt, self.phi_p, self.h, self.n_half)
        return view

    def advance(self, R: float, hist: GridFieldHistory | None = None):
        """`fdtd_step` from mu with the sponge at R + t + 1, t the new time,
        and the due append to `hist` (`keep`); without levels only t += dt."""
        if self.phi_0 is None:
            self.t += self.dt
        else:
            fdtd_step(self, sponge_radius=R + (self.t + self.dt) + 1.0)
            self.keep(hist)

    def keep(self, hist: GridFieldHistory | None):
        """Append phi_0 at t to `hist`, if any, at every stride-th step."""
        if hist is not None and int(round(self.t / self.dt)) % hist.stride == 0:
            hist.append(self.t, self.phi_0, self.h, self.n_half)

    def arrays(self) -> dict:
        """Checkpoint arrays: grid_meta = (h, dt, n_half, t), levels if any,
        mu and mu_origin."""
        levels = {k: getattr(self, k) for k in LEVELS if self.phi_0 is not None}
        return dict(grid_meta=np.array([self.h, self.dt, float(self.n_half), self.t]),
                    **levels, mu=self.mu, mu_origin=np.array(self.mu_origin))

    @classmethod
    def from_arrays(cls, z, levels: bool) -> FieldGrid:
        """The grid of the `arrays()` in z, with its levels only if `levels`;
        without mu_origin, mu is the whole cube.  A ValueError if mu does
        not fit the cube."""
        h, dt, n_half, t = z["grid_meta"]
        grid = cls(h=float(h), dt=float(dt), n_half=int(n_half), t=float(t), mu=z["mu"],
                   mu_origin=tuple(int(o) for o in z.get("mu_origin", (0, 0, 0))),
                   **{k: z[k] for k in LEVELS if levels})
        grid.source_box()
        return grid

    def ensure_extent(self, x_needed: float):
        """Re-embed phi_0 and phi_p, the levels the next step reads, into a
        larger cube if x_needed exceeds the current extent.  A grid without
        levels grows only its n_half.

        A MemoryError leaves the grid as it was: both grown levels exist
        before anything is dropped.  Then phi_m and mu become None, as the
        step writes both before it reads them (also mu without levels, which
        would still hold the old cube's indices), and phi_0 is copied and
        swapped in before phi_p, so each old level is freed (a run's field
        history holds float32 copies) before the next copy touches the
        zeroed, not yet resident pages of its grown level.  The growth so
        holds at most 2 old and 2 grown levels.
        """
        if x_needed <= self.x_max:
            return
        new_half = int(np.ceil((x_needed + GROW_CHUNK) / self.h))
        grown = [np.zeros((2 * new_half + 1,) * 3) for _ in range(2)
                 if self.phi_0 is not None]
        inner = slice(new_half - self.n_half, new_half + self.n_half + 1)
        self.phi_m = self.mu = None
        for name, new in zip(("phi_0", "phi_p"), grown):
            new[inner, inner, inner] = getattr(self, name)
            setattr(self, name, new)
        self.n_half = new_half


def _sample_on_nodes(fn, axis: np.ndarray) -> np.ndarray:
    xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1)
    return fn(pts)


def make_field_grid(data: InitialData, h: float, dt: float, pad: float = 2.0,
                    source=FieldGrid.clear_mu) -> FieldGrid:
    """Grid at t = 0 with phi(-dt), phi(0), phi(dt) from a 2nd-order Taylor start.

    phi(+-dt) = phi0 +- dt*phi1 + dt^2/2 * (lap phi0 - mu(0)), where
    source(grid) sets mu(0) on the level-less grid `FieldGrid.at_start` (by
    default +0.0 everywhere).
    """
    if not _cfl_ok(dt, h):
        raise ConfigError(f"CFL violated: dt={dt} > h/sqrt(3)={h / np.sqrt(3):.6g}")
    grid = FieldGrid.at_start(data.support_radius_R, h, dt, pad)
    axis = grid.node_axis()
    phi0 = _sample_on_nodes(data.phi0_in.value, axis)
    phi1 = _sample_on_nodes(data.phi1_in.value, axis)
    lap0 = _sample_on_nodes(data.phi0_in.laplacian, axis)
    source(grid)
    # outside its box mu is +0.0, and lap0 - 0.0 keeps every bit of lap0
    lap0[grid.source_box()] -= grid.mu
    acc = 0.5 * dt**2 * lap0
    grid.phi_0 = phi0
    grid.phi_m = phi0 - dt * phi1 + acc
    grid.phi_p = phi0 + dt * phi1 + acc
    return grid


# Grid passes run one slab of at most this many nodes (consecutive x-planes)
# at a time, and `sample_levels` gathers at most this many table values, or
# 4 times as many directly, per chunk of points, so each pass stays near L2;
# no value's operation order depends on it.
SLAB_NODES = 1 << 16


def _slabs(lo: int, hi: int, plane_nodes: int):
    """Bounds (a, b) of the slabs that cover the planes [lo, hi) in order."""
    planes = max(1, SLAB_NODES // max(1, plane_nodes))
    for a in range(lo, hi, planes):
        yield a, min(a + planes, hi)


def _laplacian(phi: np.ndarray, h: float, planes: tuple | None = None,
               out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """7-point Laplacian of the x-planes [a, b) = `planes` (all by default),
    0 on the boundary faces; written into `out`, shape (b - a, n, n).

    Each neighbour is the raveled level shifted by a flat offset n**2, n or
    1, so every add is one contiguous pass.  The flat range skips the two
    end planes; on the other four faces the shifts wrap into the adjacent
    row or plane, and those nodes are zeroed afterwards.  `work`, if given,
    is a buffer of (b - a) n**2 floats, neither `phi` nor `out`, that takes
    the 6 phi term instead of a new array.
    """
    n = phi.shape[0]
    a, b = planes or (0, n)
    if out is None:
        out = np.empty((b - a, n, n))
    flat = np.ravel(phi)
    inner_a, inner_b = max(a, 1), min(b, n - 1)
    if inner_a < inner_b:
        lo, hi = inner_a * n * n, inner_b * n * n
        dst = np.ravel(out)[lo - a * n * n:hi - a * n * n]
        np.add(flat[lo + n * n:hi + n * n], flat[lo - n * n:hi - n * n], out=dst)
        for off in (n, -n, 1, -1):
            dst += flat[lo + off:hi + off]
        six = None if work is None else np.ravel(work)[:hi - lo]
        dst -= np.multiply(6.0, flat[lo:hi], out=six)
        dst /= h**2
    out[[p - a for p in (0, n - 1) if a <= p < b]] = 0.0  # the end planes
    out[:, 0] = out[:, -1] = 0.0
    out[:, :, 0] = out[:, :, -1] = 0.0
    return out


def fdtd_step(grid: FieldGrid, sponge_radius: float | None = None) -> FieldGrid:
    """Advance the center time by dt with the 7-point leapfrog update.

    The grid's mu is the source at its upper level time t+dt, subtracted on
    its box (`FieldGrid.source_box`); outside it, mu is +0.0 and x - 0.0
    keeps every bit of x.  With `sponge_radius` set, the region beyond it
    is gently damped each step; the exact solution vanishes beyond
    |x| = R + t, so the sponge only absorbs the nonphysical precursor that
    the stencil radiates at speed h/dt > 1.  Mutates and returns `grid`.

    The new level is written into the buffer of phi_m, the level that falls
    out, when the grid may reuse it (`FieldGrid.reusable`: a level a field
    history, a view or a caller still holds is never written), and into a
    new array otherwise.  So after a DomainTooSmallError phi_m may already
    be overwritten.  When the new level's max and min are finite, the grid
    records it as all finite (`FieldGrid.phi_p_finite`).
    """
    if not _cfl_ok(grid.dt, grid.h):
        raise ConfigError("CFL violated")
    mu, (bx, by, bz) = grid.mu, grid.source_box()
    phi_p, phi_0 = grid.phi_p, grid.phi_0
    n = phi_p.shape[0]
    c = n // 2  # the plane x = 0, and the row y = 0
    new = grid.reusable("phi_m", phi_p.shape)
    if new is None:
        new = np.empty_like(phi_p)
    # the slabs of the planes [0, c], each with its mirror in [c + 1, n)
    pairs = [((a, b), (max(n - b, c + 1), n - a)) for a, b in _slabs(0, c + 1, n * n)]
    scratch = np.empty((pairs[0][0][1], n, n))
    if sponge_radius is not None:
        ax = grid.node_axis()
        xy2 = (ax[:, None] ** 2 + ax[c:] ** 2)[..., None]  # x^2 + y^2, y >= 0
        z2 = ax**2
    top, bottom = -np.inf, np.inf
    for (a, b), mirror in pairs:
        slabs = [(lo, hi) for lo, hi in ((a, b), mirror) if lo < hi]
        for lo, hi in slabs:
            # new = 2 phi_p - phi_0 + dt^2 (lap - mu), in that order; the
            # slab of `new` is free scratch until its level is written
            out = new[lo:hi]
            buf = _laplacian(phi_p, grid.h, (lo, hi), scratch[:hi - lo], out)
            x0, x1 = max(lo, bx.start), min(hi, bx.stop)
            if x0 < x1:
                buf[x0 - lo:x1 - lo, by, bz] -= mu[x0 - bx.start:x1 - bx.start]
            buf *= grid.dt**2
            np.multiply(2.0, phi_p[lo:hi], out=out)
            out -= phi_0[lo:hi]
            out += buf
        if sponge_radius is not None:
            # 1 - 0.25 clip((r - r_s) / 3, 0, 1)^2 on the planes [a, b) and
            # rows y >= 0, in `scratch` once both slabs are done; node_axis()
            # is exactly antisymmetric, so both slabs' other rows share it
            f = np.ravel(scratch)[:(b - a) * (c + 1) * n].reshape(b - a, c + 1, n)
            np.sqrt(np.add(xy2[a:b], z2, out=f), out=f)
            f -= sponge_radius
            f /= 3.0
            np.square(np.clip(f, 0.0, 1.0, out=f), out=f)
            f *= 0.25
            np.subtract(1.0, f, out=f)
        for lo, hi in slabs:
            out = new[lo:hi]
            if sponge_radius is not None:
                # plane i of the mirror takes the factor of plane n - 1 - i,
                # and row j < c that of row n - 1 - j
                fx = f if lo == a else f[n - hi - a:n - lo - a][::-1]
                out[:, c:] *= fx
                out[:, :c] *= fx[:, :0:-1]
            # np.maximum/minimum, unlike max(), keep a NaN
            top = np.maximum(top, out.max())
            bottom = np.minimum(bottom, out.min())
    # The discrete stencil leaks an exponentially small tail one cell per
    # step ahead of the physical cone; only a significant boundary value
    # means the domain is genuinely too small.  A NaN or an infinity makes
    # the scale NaN or inf, which no edge value exceeds; on a finite level
    # max |v| over the two planes next to each face is max(max v, -min v),
    # read plane by plane without a copy.
    scale = float(max(top, -bottom))
    if 0.0 < scale < np.inf:
        edge = 0.0
        for axis in range(3):
            planes = np.moveaxis(new, axis, 0)
            for plane in (*planes[:2], *planes[-2:]):
                edge = max(edge, plane.max(), -plane.min())
        if edge > 1e-4 * scale:
            raise DomainTooSmallError(
                f"field reached within 2 cells of the boundary "
                f"(t={grid.t + grid.dt:.3f})")
    grid.phi_m = grid.phi_0
    grid.phi_0 = grid.phi_p
    grid.phi_p = new
    grid.finite = (weakref.ref(new) if np.isfinite(top) and np.isfinite(bottom)
                   else None)
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
# the most tables a push's view (`FieldGrid.view`) builds: VALUE and GRAD on
# each of its two levels
VIEW_TABLES = 2 * len((VALUE, *GRAD))
NOW = Stencil(0, ((0, 1.0),))
TIME_D1 = Stencil(1, ((1, 0.5), (-1, -0.5)))
TIME_D2 = Stencil(2, ((1, 1.0), (0, -2.0), (-1, 1.0)))


def difference(time: Stencil, space: Stencil, take, dt: float, h: float):
    """`time` applied to `space`, where take(k, space) is `space` combined on
    the level at time offset k; the steps are divided out once, at the end."""
    return time.combine(lambda k: take(k, space)) / (dt**time.order * h**space.order)


@functools.lru_cache(maxsize=None)
def _flat_stencil(st: Stencil, n: int) -> Stencil:
    """`st` with each offset as its shift in a raveled level of n**3 nodes;
    kept per stencil and n, as every table and direct gather reads it."""
    strides = np.array([n * n, n, 1])
    return Stencil(st.order, tuple((int(off @ strides), c) for off, c in st.terms))


def _combined(columns, n: int, low):
    """Each (level, stencil) column's stencil, combined in its level's
    dtype, at the nodes whose flat indices in the raveled n**3 levels are
    low + n**2 + n + 1, so at least one node inside the cube on each axis."""
    start = n * n + n + 1
    for level, st in columns:
        flat = np.ravel(level)
        yield _flat_stencil(st, n).combine(lambda shift: flat[start + shift:].take(low))


def _on_box(level: np.ndarray, st: Stencil, first, shape) -> np.ndarray:
    """`st` combined on a node box (first node, nodes per axis) of `level`,
    one slice of the level per term, in its dtype; shape `shape`.  The box
    with the stencil's reach lies on the level."""
    return st.combine(lambda off: level[tuple(
        slice(f + o, f + o + m) for f, o, m in zip(first, off, shape))])


def box_table(columns, first, shape) -> np.ndarray:
    """The stencil table of `columns` on a node box: (len(columns), nodes)
    float64, entry (j, r) column j's stencil at box node first + r in the
    box's C order, combined in its level's dtype and then cast.  The box
    (first node, nodes per axis) lies within the nodes 1 .. n - 2 of each
    axis."""
    return np.array([_on_box(level, st, first, shape).ravel() for level, st in columns],
                    dtype=float)


# a cell's 8 corners as node offsets, in x-, y-, z-major order
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))


def sample_levels(columns, h: float, n_half: int, x, shared=None) -> np.ndarray:
    """Trilinear samples of node stencils on levels that share one geometry.

    `columns` lists the (level, stencil) pairs to gather; a caller that
    wants every stencil on every level passes their product.  Returns shape
    (len(columns),) + x.shape[:-1]: each column's stencil combined on the
    nodes of its level, interpolated to x, not scaled by the step.  A point
    is sampled when its cell and the cell's +-1 neighbours lie on the grid,
    and is 0 otherwise.  Every gather is a flat index into the raveled
    level, offset by the strides n**2, n, 1.  Each column accumulates its
    corners from +0.0, so no sample is -0.0, and its bits do not depend on
    the other columns of the call.

    The corners are read from a table of a box's nodes (`box_table`) or
    directly.  `shared`, if given, is (first, shape, tables): a node box
    within the nodes 1 .. n - 2 and each column's one-column `box_table`
    on it, which a history with a box (`FieldGrid.view`) builds once for
    all its calls.  When the corners of every point's cell lie in that box,
    every point is sampled, and the call gathers those tables with no
    validity mask.  Else, if the box of the sampled cells' corners has no
    more nodes than there are points, the call builds the table on that
    box; else each stencil term is one gather for all 8 corners.  Every
    table entry holds the same per-node combine, and all paths add
    w * value over the corners in one order, so they give the same bits.
    A table's corner gathers go into one (width, chunk) buffer, width the
    number of columns, in chunks of SLAB_NODES // width points; the direct
    gathers of a chunk hold 8 such buffers, in chunks of
    SLAB_NODES // (2 * width).
    """
    x = np.asarray(x, dtype=float)
    n = columns[0][0].shape[0]
    u = x.reshape(-1, 3) / h
    u += n_half
    width = len(columns)
    out = np.zeros((width, len(u)))
    valid, table = None, None
    # a NaN coordinate fails this test, and so does an infinite one
    if shared is not None and len(u) and all(
            f <= c.min() and c.max() < f + m - 1 for c, f, m in zip(u.T, *shared[:2])):
        lo, box = np.asarray(shared[0]), np.asarray(shared[1])
        table = np.concatenate(shared[2])
        i0 = np.floor(u).astype(np.intp)
    else:
        # a NaN, infinite or huge coordinate moves to a cell off the grid, so
        # the cast never sees it and its weights stay finite; a sampled
        # point's coordinate lies in [1, n - 2) and keeps its bits
        np.fmax(u, -1.0, out=u)
        np.minimum(u, n, out=u)
        i0 = np.floor(u).astype(np.intp)
        valid = np.logical_and.reduce([(c >= 1) & (c <= n - 3) for c in i0.T])
        if not valid.any():
            return out.reshape((width,) + x.shape[:-1])
        i0[~valid] = i0[valid.argmax()]  # a sampled cell keeps the gathers in range
        lo = np.array([c.min() for c in i0.T])
        box = np.array([c.max() for c in i0.T]) + 2 - lo  # corner nodes per axis
        if np.prod(box) <= len(u):
            table = box_table(columns, lo, box)
    strides = np.array([n * n, n, 1])
    base = strides.sum()
    if table is None:
        chunk = max(1, SLAB_NODES // (2 * width))
    else:  # table entry r holds box node r, in the box's strides
        strides = np.array([box[1] * box[2], box[2], 1])
        base, chunk = lo @ strides, max(1, SLAB_NODES // width)
    offsets, term = _CORNERS @ strides, np.empty(width * min(chunk, len(u)))
    frac = np.subtract(u, i0, out=u)
    for a in range(0, len(u), chunk):
        # low: the cell's table entry, or its (-1, -1, -1) neighbour's flat index
        s = slice(a, a + chunk)
        low = i0[s, 0] * strides[0] + i0[s, 1] * strides[1] + i0[s, 2] - base
        wx, wy, wz = [(1.0 - f, f) for f in frac[s].T]
        acc = out[:, s]
        v = term[:acc.size].reshape(acc.shape)  # one corner's w * value
        if table is None:  # one take per stencil term for all 8 corners
            vals = np.array(list(_combined(columns, n, low + offsets[:, None])))
        for k, c in enumerate(_CORNERS):
            if not c[2]:  # the corners are in x-, y-, z-major order
                wxy = wx[c[0]] * wy[c[1]]
            w = wxy * wz[c[2]]  # (wx wy) wz
            if table is None:
                np.multiply(vals[:, k], w, out=v)
            else:  # entries are in range; "clip" writes `v` without a check copy
                table.take(low + offsets[k], axis=1, mode="clip", out=v)
                v *= w
            acc += v
    if valid is not None:
        out[:, ~valid] = 0.0
    return out.reshape((width,) + x.shape[:-1])


def field_derivatives(grid: FieldGrid, first, shape) -> tuple:
    """(K, L) on a node box (first node, nodes per axis) within the nodes
    2 .. n - 3 of each axis, arrays of shape `shape` from 2nd-order centered
    differences of the grid's three levels: K = |dt phi| + |grad phi|
    (Euclidean norm), L = |dt2 phi| + |dt grad phi| + max |hess entries|."""
    levels = (grid.phi_m, grid.phi_0, grid.phi_p)

    def d(time, space=VALUE):
        return difference(time, space,
                          lambda k, st: _on_box(levels[k + 1], st, first, shape),
                          grid.dt, grid.h)

    # one running accumulator for |grad|^2, |dt grad|^2 and max |hess|
    acc = np.zeros(shape)
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
    return K, L


# ---------------------------------------------------------------------------
# Stored levels: field view for particle pushes and backward traces, and the
# source store of the retarded integral
# ---------------------------------------------------------------------------

class GridFieldHistory(FieldView):
    """Time-bracketed store of levels; linear in t, trilinear in x.

    dt phi is the forward difference of the bracketing levels.  A run that
    keeps every `stride`-th level of its field records the stride here.
    Levels are never changed once stored: `derivative_bound` caches maxima
    per level and per bracket.

    A read gathers only the columns that the weight a of the later level
    can use.  At a == 0 (a push's first stage) `first_derivs` gathers VALUE
    on both levels, for dt phi, and GRAD on the earlier one; at a == 1 (its
    last stage, and the weight law's read) VALUE on both and GRAD on the
    later one; `phi` there reads one level.  The blend (1 - a) s0 + a s1
    would return the same bits: samples accumulate from +0.0, so none is
    -0.0, and 1.0 s + 0.0 s' == s for a finite s'.  They differ only where
    the level with weight 0 holds a non-finite sample s': the blend gives a
    NaN there, the narrow read s.

    A history with a `box` (a push's view, `FieldGrid.view`), whose levels
    share one geometry, builds the `box_table` of each (level, stencil)
    column on that node box when it first reads it, keeps it for its life
    and hands it to every `sample_levels` call, which gathers its rows
    wherever the points' cells lie in the box.  A table is a function of
    the stored level, which never changes, so it needs no key beyond the
    history's own.
    """

    # a level whose |phi| reaches this gets no finite bound: e^(4 (phi - phi'))
    # of the weight law then stays finite wherever a trace drops a point
    PHI_CAP = 80.0

    def __init__(self, dtype=np.float64, stride: int = 1, box: tuple | None = None):
        self._times: list[float] = []
        self._levels: list[tuple[np.ndarray, float, int]] = []  # (phi, h, n_half)
        self._maxima: dict[int, tuple[float, float]] = {}  # level -> node maxima
        self._bounds: dict[tuple, float] = {}  # (k0, k1) -> derivative bound
        self._tables: dict[tuple, np.ndarray] = {}  # (k, stencil) -> box table
        self.dtype = dtype
        self.stride = stride
        self.box = box

    def append(self, t: float, phi: np.ndarray, h: float, n_half: int):
        self._times.append(t)
        self._levels.append((np.asarray(phi, dtype=self.dtype), h, n_half))

    @property
    def t_min(self) -> float:
        return self._times[0]

    @property
    def t_max(self) -> float:
        return self._times[-1]

    def covers(self, t: float) -> bool:
        return bool(self._times) and self.t_min - 1e-9 <= t <= self.t_max + 1e-9

    def _index(self, t: float) -> int:
        """The bracket [k, k + 1] that t selects, t clamped to the history."""
        t = min(max(t, self.t_min), self.t_max)
        k = int(np.searchsorted(self._times, t, side="right")) - 1
        return min(max(k, 0), len(self._times) - 2)

    def _bracket(self, t: float):
        if not self._times:
            raise OutOfHistoryError("no field levels stored")
        if not self.covers(t):
            raise OutOfHistoryError(
                f"t={t} outside stored history [{self.t_min}, {self.t_max}]")
        if len(self._times) == 1:
            return 0, 0, 0.0
        k = self._index(t)
        t = min(max(t, self.t_min), self.t_max)
        t0, t1 = self._times[k], self._times[k + 1]
        return k, k + 1, (t - t0) / (t1 - t0)

    def derivative_bound(self, t0, t1):
        """Max of the bracket bounds over the brackets that a time in
        [t0, t1] selects (a NaN level makes it NaN); inf without levels."""
        if not self._times:
            return np.inf
        if len(self._times) == 1:
            return self._bracket_bound(0, 0)
        ks = range(self._index(min(t0, t1)), self._index(max(t0, t1)) + 1)
        return float(np.max([self._bracket_bound(k, k + 1) for k in ks]))

    def _bracket_bound(self, k0: int, k1: int) -> float:
        """1.01 (max |grad| + max |dt phi| + rounding slack) on the bracket of
        levels k0 <= k1, from node maxima.

        The gather is a convex combination of node stencils (0 outside the
        valid cells), so |grad| is at most the larger level's max Euclidean
        central-difference gradient / h, and |dt phi| the max |L1 - L0| / tau
        over nodes when both levels share one geometry; after a growth
        (max |L0| + max |L1|) / tau, and 0 on a single level.  The slack
        covers the rounding of the two sampled values whose difference is
        dt phi; the factor 1.01 that of the float32 stencils.
        """
        if (k0, k1) not in self._bounds:
            (f0, h0, n0), (f1, h1, n1) = self._levels[k0], self._levels[k1]
            (g0, m0), (g1, m1) = self._node_maxima(k0), self._node_maxima(k1)
            dt_phi = 0.0
            if k1 != k0:
                diff = m0 + m1
                if (h0, n0, f0.shape) == (h1, n1, f1.shape):
                    diff = 0.0
                    for a, b in _slabs(0, f0.shape[0], f0[0].size):
                        diff = np.maximum(diff, np.abs(
                            f1[a:b] - f0[a:b].astype(float)).max())
                tau = self._times[k1] - self._times[k0]
                dt_phi = (diff + 1e-12 * (m0 + m1)) / tau
            bound = 1.01 * (np.maximum(g0, g1) + dt_phi)
            self._bounds[k0, k1] = float(
                np.inf if np.maximum(m0, m1) >= self.PHI_CAP else bound)
        return self._bounds[k0, k1]

    def _node_maxima(self, k: int) -> tuple:
        """(max Euclidean `GRAD` gradient / h over the nodes 1..n-2 of each
        axis, which the valid cells' corners are, and max |phi| over all
        nodes) of level k, slab by slab in float64; a NaN node makes both
        NaN."""
        if k not in self._maxima:
            phi, h, _ = self._levels[k]
            n = phi.shape[0]
            g2, top = 0.0, 0.0
            for a, b in _slabs(0, n, n * n):
                top = np.maximum(top, np.abs(phi[a:b]).max())
                lo, hi = max(a, 1), min(b, n - 1)
                if lo >= hi:
                    continue
                s = phi[lo - 1:hi + 1].astype(float)
                gx, gy, gz = (_on_box(s, g, (1, 1, 1), (hi - lo, n - 2, n - 2))
                              for g in GRAD)
                g2 = np.maximum(g2, (gx * gx + gy * gy + gz * gz).max())
            self._maxima[k] = (float(np.sqrt(g2) / h), float(top))
        return self._maxima[k]

    def _sample(self, x, columns) -> dict:
        """{(k, stencil): the stencil on level k at x, divided by the
        level's h**order} for the (level index, stencil) pairs `columns`.

        Levels of one geometry are sampled in one call; after a domain
        growth the two levels of a bracket differ in n_half and are sampled
        apart.  A column's bits do not depend on the others it is sampled
        with.
        """
        groups = {}
        for k, st in dict.fromkeys(columns):
            f, h, n_half = self._levels[k]
            groups.setdefault((h, n_half, f.shape), []).append((k, st))
        out = {}
        for (h, n_half, _), cols in groups.items():
            levels = [(self._levels[k][0], st) for k, st in cols]
            if self.box is None:
                samples = sample_levels(levels, h, n_half, x)
            else:
                samples = sample_levels(levels, h, n_half, x,
                                        (*self.box, [self._table(*c) for c in cols]))
            for (k, st), v in zip(cols, samples):
                if st.order:  # v / 1.0 is v
                    v /= h**st.order
                out[k, st] = v
        return out

    def _table(self, k: int, st) -> np.ndarray:
        """The one-column `box_table` of `st` on level k over the box."""
        if (k, st) not in self._tables:
            self._tables[k, st] = box_table([(self._levels[k][0], st)], *self.box)
        return self._tables[k, st]

    @staticmethod
    def _ends(k0: int, k1: int, a: float) -> tuple:
        """The levels that the blend with weight a on level k1 reads."""
        return (k0,) if a == 0.0 else (k1,) if a == 1.0 else (k0, k1)

    @staticmethod
    def _lerp(s: dict, k0: int, k1: int, a: float, st):
        """(1 - a) s0 + a s1 of `st`'s samples, read from `_ends` alone."""
        if a == 0.0:
            return s[k0, st]
        if a == 1.0:
            return s[k1, st]
        return (1.0 - a) * s[k0, st] + a * s[k1, st]

    def phi(self, t, x):
        k0, k1, a = self._bracket(t)
        s = self._sample(x, [(k, VALUE) for k in self._ends(k0, k1, a)])
        return self._lerp(s, k0, k1, a, VALUE)

    def first_derivs(self, t, x):
        k0, k1, a = self._bracket(t)
        s = self._sample(x, [(k0, VALUE), (k1, VALUE)]
                         + [(k, g) for k in self._ends(k0, k1, a) for g in GRAD])
        tau = self._times[k1] - self._times[k0]
        v0, v1 = s[k0, VALUE], s[k1, VALUE]
        dt_phi = (v1 - v0) / tau if tau else np.zeros_like(v0)
        grad = np.stack([self._lerp(s, k0, k1, a, g) for g in GRAD], axis=-1)
        return dt_phi, grad


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


def retarded_potential(t: float, x, hist, shell_width: float,
                       quad=(16, 32)) -> float:
    """-(1/4 pi) int_{|x-y|<=t} mu(t-|x-y|, y)/|x-y| dy in retarded shells.

    Midpoint rule in radius with shells of the given width, fixed-order
    sphere quadrature per shell.  `hist`, a `GridFieldHistory` of deposited
    source levels or any closed-form source with `covers(s)` and
    `phi(s, y)`, must cover retarded times in [0, t].
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
        mu_vals = hist.phi(t - r, x + r * dirs)
        total += dr * r * np.sum(w * mu_vals)
    return float(-total / (4.0 * np.pi))
