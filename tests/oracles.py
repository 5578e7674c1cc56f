"""Reference code that only the tests read.

A finite-difference second derivative of any field view, the closed-form
field of the manufactured-solution tests, the flow Jacobian of the
characteristics (its variational equations), the sphere-mean (Kirchhoff)
solution of the homogeneous wave equation, the dispersion and Jacobian
bounds of acceptance criterion 9, and the one bitwise-equality assert.
They reuse the run's RK4 step, backward trace and sphere rule.
"""

from dataclasses import dataclass

import numpy as np

from vnsim.characteristics import (FieldView, _backward_steps, _dot, _rhs,
                                   _rk4, backward_trace, rel_velocity)
from vnsim.errors import OutOfHistoryError
from vnsim.profiles import InitialData, _squared_norm
from vnsim.wavefield import unit_sphere_quadrature

FD_STEP = 1e-4  # spatial step of the second-derivative differences


def assert_same_bits(got, ref, nan_sign=True):
    """Same shape and dtype, equal values, NaN in the same places, and the
    same sign bit on every entry.  With nan_sign=False the sign of a NaN is
    not compared: where numpy's loops choose it, no output shows it ('%.17g'
    prints nan)."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)  # NaN equals NaN here
    signed = Ellipsis if nan_sign else ~np.isnan(got)
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(ref[signed]))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def second_derivs(field: FieldView, t, x):
    """(dt grad phi, hess phi) with shapes (..., 3), (..., 3, 3): centered
    differences in x of field.first_derivs, the Hessian symmetrized (mixed
    partials commute for the true field).  A zero field gives +0.0."""
    x = np.asarray(x, dtype=float)
    eps = FD_STEP
    dt_grad = np.zeros(x.shape)
    hess = np.zeros(x.shape + (3,))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = eps
        dtp, gp = field.first_derivs(t, x + dx)
        dtm, gm = field.first_derivs(t, x - dx)
        dt_grad[..., j] = (dtp - dtm) / (2 * eps)
        hess[..., j, :] = (gp - gm) / (2 * eps)
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return dt_grad, hess


class AnalyticField(FieldView):
    """Field from closed-form callables fn(t, x), defined for t in t_range.

    A source density for `retarded_potential` needs only phi_fn.
    """

    def __init__(self, phi_fn, dt_phi_fn=None, grad_fn=None,
                 t_range=(-np.inf, np.inf)):
        self._phi = phi_fn
        self._dt = dt_phi_fn
        self._grad = grad_fn
        self.t_range = t_range

    def covers(self, t: float) -> bool:
        return self.t_range[0] - 1e-9 <= t <= self.t_range[1] + 1e-9

    def _check_t(self, t):
        if not self.covers(t):
            raise OutOfHistoryError(f"t={t} outside covered range {self.t_range}")

    def phi(self, t, x):
        self._check_t(t)
        return np.asarray(self._phi(t, np.asarray(x, dtype=float)))

    def first_derivs(self, t, x):
        self._check_t(t)
        x = np.asarray(x, dtype=float)
        return np.asarray(self._dt(t, x)), np.asarray(self._grad(t, x))


# ---------------------------------------------------------------------------
# Variational (Jacobian) equations
# ---------------------------------------------------------------------------

def _flow_matrix(t, x, p, field: FieldView):
    """6x6 derivative of the characteristic RHS w.r.t. (x, p)."""
    gamma2 = 1.0 + _squared_norm(p)
    gamma = np.sqrt(gamma2)
    phat = p / gamma[..., None]
    dt_phi, grad = field.first_derivs(t, x)
    dt_grad, hess = second_derivs(field, t, x)
    s_phi = dt_phi + _dot(phat, grad)

    eye = np.broadcast_to(np.eye(3), x.shape + (3,))
    # d phat / d p = (I - phat phat^T)/gamma
    dphat_dp = (eye - phat[..., :, None] * phat[..., None, :]) / gamma[..., None, None]
    # d(S phi)/dp_j = grad . dphat/dp_j
    ds_dp = np.einsum("...k,...kj->...j", grad, dphat_dp)
    # dF_i/dp_j = -delta_ij S phi - p_i ds_dp_j + grad_i p_j / gamma^3
    df_dp = (
        -s_phi[..., None, None] * eye
        - p[..., :, None] * ds_dp[..., None, :]
        + grad[..., :, None] * p[..., None, :] / (gamma2 * gamma)[..., None, None]
    )
    # dF_i/dx_j = -p_i (dt_grad_j + phat . hess[:,j]) - hess_ij / gamma
    ds_dx = dt_grad + np.einsum("...k,...kj->...j", phat, hess)
    df_dx = (
        -p[..., :, None] * ds_dx[..., None, :]
        - hess / gamma[..., None, None]
    )
    mat = np.zeros(x.shape[:-1] + (6, 6))
    mat[..., 0:3, 3:6] = dphat_dp
    mat[..., 3:6, 0:3] = df_dx
    mat[..., 3:6, 3:6] = df_dp
    return mat


def flow_jacobian(t: float, x, p, field: FieldView, dt: float) -> np.ndarray:
    """Derivative of (X(0), P(0)) with respect to the data (x, p) at time t.

    Integrates the variational equations dJ/ds = M(s) J backward along the
    characteristic with the same RK4 step as the trajectory itself.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    jac = np.broadcast_to(np.eye(6), x.shape[:-1] + (6, 6)).copy()
    s = t

    def rhs(time, xx, pp, jj):
        dx, dp = _rhs(time, xx, pp, field)
        dj = _flow_matrix(time, xx, pp, field) @ jj
        return dx, dp, dj

    for step in _backward_steps(t, dt):
        x, p, jac = _rk4(s, (x, p, jac), step, rhs)
        s += step
    return jac


# ---------------------------------------------------------------------------
# Characteristic-flow bounds (acceptance criterion 9)
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
# Sphere means
# ---------------------------------------------------------------------------

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
