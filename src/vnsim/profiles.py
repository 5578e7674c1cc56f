"""Compactly supported polynomial bump profiles and the initial-data norm.

All initial data are radial bumps A*(1 - |y-c|^2/r^2)^(k+1), which vanish
identically outside the ball of radius r and are exactly C^k across its
boundary.  Because the profile is polynomial inside the ball, every
derivative needed for the data norm is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_points(y, dim: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {y.shape}")
    return y


def _squared_norm(z) -> np.ndarray:
    """np.sum(z * z, axis=-1), bitwise, column by column: the squares add in
    np.sum's order, z0 z0 + z1 z1 + ..., about 1.6 times faster on 6-D rows
    (np.sum's start of +0.0 changes no sum of squares, which is never -0.0)."""
    out = z[..., 0] * z[..., 0]
    for k in range(1, z.shape[-1]):
        out += z[..., k] * z[..., k]
    return out


@dataclass(frozen=True)
class BumpProfile:
    """A*(1 - |y-center|^2/radius^2)^(k+1) inside the support ball, 0 outside."""

    center: np.ndarray
    radius: float
    amplitude: float
    smoothness_order: int  # k: profile is C^k across the support boundary

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def _m(self) -> int:
        return self.smoothness_order + 1

    def _radial_factors(self, y, orders):
        """(1-s)^(m-j) factors times falling-factorial coefficients, j in orders."""
        z = _as_points(y, self.dim) - self.center
        s = _squared_norm(z) / self.radius**2
        inside = s < 1.0
        one_ms = np.where(inside, 1.0 - s, 0.0)
        out = {}
        for j in orders:
            coeff = self.amplitude * (-1.0) ** j
            for i in range(j):
                coeff *= self._m - i
            if coeff == 0.0:
                out[j] = np.zeros_like(s)
            else:  # a negative power of 0 outside the ball is masked
                with np.errstate(divide="ignore"):
                    out[j] = np.where(inside, coeff * one_ms ** (self._m - j), 0.0)
        return z, out

    # -- pointwise evaluation ------------------------------------------------

    def value(self, y) -> np.ndarray:
        _, h = self._radial_factors(y, (0,))
        return h[0]

    def gradient(self, y) -> np.ndarray:
        z, h = self._radial_factors(y, (1,))
        q = 2.0 / self.radius**2
        return h[1][..., None] * q * z

    def hessian(self, y) -> np.ndarray:
        z, h = self._radial_factors(y, (1, 2))
        q = 2.0 / self.radius**2
        eye = np.eye(self.dim)
        return (
            h[2][..., None, None] * q**2 * z[..., :, None] * z[..., None, :]
            + h[1][..., None, None] * q * eye
        )

    def laplacian(self, y) -> np.ndarray:
        z, h = self._radial_factors(y, (1, 2))
        q = 2.0 / self.radius**2
        return h[2] * q**2 * _squared_norm(z) + h[1] * q * self.dim

    def third_derivative(self, y) -> np.ndarray:
        """Full third-derivative tensor, shape (..., d, d, d)."""
        z, h = self._radial_factors(y, (2, 3))
        q = 2.0 / self.radius**2
        eye = np.eye(self.dim)
        zi = z[..., :, None, None]
        zj = z[..., None, :, None]
        zl = z[..., None, None, :]
        sym = (
            eye[:, :, None] * zl + eye[:, None, :] * zj + eye[None, :, :] * zi
        )
        return h[3][..., None, None, None] * q**3 * zi * zj * zl + h[2][
            ..., None, None, None
        ] * q**2 * sym

    # -- sup norms of derivative tensors -------------------------------------

    def _sample_radii(self, n: int, max_order: int) -> np.ndarray:
        """n radii over [0, radius], then the critical radii of every order.

        The squared norm of each derivative tensor at r is a polynomial of
        degree <= 2m in s = r^2/radius^2, so its interpolant on 2m + 1
        Chebyshev points is exact up to rounding; the real parts of its
        derivative's roots, clipped to [0, 1], hold every interior peak.
        """
        def norm2(s, j):
            return self._tensor_norms_at_radius(self.radius * np.sqrt(s), j)[j] ** 2

        roots = [np.polynomial.Chebyshev.interpolate(
                     norm2, 2 * self._m, domain=[0.0, 1.0], args=(j,)).deriv().roots()
                 for j in range(max_order + 1)]
        s = np.clip(np.concatenate(roots).real, 0.0, 1.0)
        return np.append(np.linspace(0.0, self.radius, n), self.radius * np.sqrt(s))

    def _tensor_norms_at_radius(self, r: np.ndarray, max_order: int) -> np.ndarray:
        """Frobenius norms of the derivative tensors at distance r from center.

        By radial symmetry the norms only depend on r; they are evaluated at
        the point r*e1.  Returns array of shape (max_order+1, len(r)).
        """
        d = self.dim
        pts = np.zeros(r.shape + (d,))
        pts[..., 0] = r
        pts = pts + self.center
        z, h = self._radial_factors(pts, tuple(range(max_order + 1)))
        q = 2.0 / self.radius**2
        norms = [np.abs(h[0])]
        if max_order >= 1:
            norms.append(np.abs(h[1]) * q * r)
        if max_order >= 2:
            diag1 = h[2] * q**2 * r**2 + h[1] * q
            rest = h[1] * q
            norms.append(np.sqrt(diag1**2 + (d - 1) * rest**2))
        if max_order >= 3:
            t111 = h[3] * q**3 * r**3 + 3.0 * h[2] * q**2 * r
            t1jj = h[2] * q**2 * r
            norms.append(np.sqrt(t111**2 + 3.0 * (d - 1) * t1jj**2))
        return np.stack(norms)

    def derivative_sup_norms(self, max_order: int, n_samples: int = 4001) -> np.ndarray:
        """Sup over the support of the Frobenius norm of each derivative tensor.

        Dense radial sampling plus each order's critical radii
        (`_sample_radii`).
        """
        if max_order > self.smoothness_order:
            raise ValueError(
                f"derivatives of order {max_order} exceed smoothness C^{self.smoothness_order}"
            )
        r = self._sample_radii(n_samples, max_order)
        return self._tensor_norms_at_radius(r, max_order).max(axis=1)


def make_bump(center, radius: float, amplitude: float, k: int) -> BumpProfile:
    """Construct the polynomial bump amplitude*(1-|y-center|^2/radius^2)^(k+1)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    if k < 1:
        raise ValueError(f"smoothness order k must be >= 1, got {k}")
    return BumpProfile(center=center, radius=radius, amplitude=float(amplitude),
                       smoothness_order=int(k))


# ---------------------------------------------------------------------------
# Initial data: (f_in on R^6, phi0_in on R^3, phi1_in on R^3)
# ---------------------------------------------------------------------------

# Derivative orders entering the data norm, per datum.
NORM_ORDERS = {"f_in": 1, "phi0_in": 3, "phi1_in": 2}


@dataclass(frozen=True)
class InitialData:
    f_in: BumpProfile      # over phase space R^6
    phi0_in: BumpProfile   # over R^3
    phi1_in: BumpProfile   # over R^3
    support_radius_R: float

    def __post_init__(self):
        if self.f_in.dim != 6:
            raise ValueError("f_in must be a profile over R^6")
        if self.phi0_in.dim != 3 or self.phi1_in.dim != 3:
            raise ValueError("phi0_in and phi1_in must be profiles over R^3")
        if self.support_radius_R <= 0:
            raise ValueError("support radius R must be positive")

    def f_value(self, x, p) -> np.ndarray:
        """f_in at phase points; x and p arrays broadcastable with last axis 3."""
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        return self.f_in.value(np.concatenate(np.broadcast_arrays(x, p), axis=-1))


def initial_norm(data: InitialData, sample_spacing: float,
                 with_tolerance: bool = False):
    """Data norm: sum of sup norms of derivatives up to orders (1, 3, 2).

    Sups are taken by dense radial sampling of the closed-form derivative
    tensors; `sample_spacing` sets the radial sample distance.  With
    `with_tolerance`, also returns the sampling modulus of continuity as an
    error bar on the sup.
    """
    if sample_spacing <= 0:
        raise ValueError("sample_spacing must be positive")
    total = 0.0
    tol = 0.0
    for name, order in NORM_ORDERS.items():
        prof: BumpProfile = getattr(data, name)
        n = int(np.ceil(prof.radius / sample_spacing)) + 1
        if n < 8:
            raise ValueError(
                f"sample_spacing {sample_spacing} too coarse for {name}: "
                f"needs >= 8 points across radius {prof.radius}"
            )
        norms = prof._tensor_norms_at_radius(prof._sample_radii(n, order), order)
        total += float(norms.max(axis=1).sum())
        # modulus of continuity of the sampled curves
        tol += float(np.abs(np.diff(norms[:, :n], axis=1)).max(initial=0.0))
    if with_tolerance:
        return total, tol
    return total


@dataclass
class MembershipReport:
    """Per-condition outcome of the admissibility check for initial data."""

    f_support_ok: bool
    phi0_support_ok: bool
    phi1_support_ok: bool
    regularity_ok: bool
    nonnegative_ok: bool
    norm_value: float
    norm_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.f_support_ok and self.phi0_support_ok and self.phi1_support_ok
                and self.regularity_ok and self.nonnegative_ok and self.norm_ok)


def validate_membership(data: InitialData, sample_spacing: float = 1e-3) -> MembershipReport:
    """Check support inclusions, regularity orders, and the norm bound <= 1."""
    R = data.support_radius_R

    def contained(prof: BumpProfile) -> bool:
        return float(np.linalg.norm(prof.center) + prof.radius) <= R + 1e-12

    norm = initial_norm(data, min(sample_spacing, data.f_in.radius / 16))
    return MembershipReport(
        f_support_ok=contained(data.f_in),
        phi0_support_ok=contained(data.phi0_in),
        phi1_support_ok=contained(data.phi1_in),
        regularity_ok=(data.f_in.smoothness_order >= 1
                       and data.phi0_in.smoothness_order >= 3
                       and data.phi1_in.smoothness_order >= 2),
        nonnegative_ok=data.f_in.amplitude >= 0.0,
        norm_value=norm,
        norm_ok=norm <= 1.0,
    )
