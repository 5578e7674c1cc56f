"""Characteristic ODEs of the kinetic equation and their variational flow.

Trajectories obey
    dx/ds = phat,    dp/ds = -(S phi) p - (1+p^2)^(-1/2) grad phi,
with phat = p/sqrt(1+p^2) and S phi = dt phi + phat . grad phi.  The
integrator is classical RK4 on a uniform step; the flow Jacobian is obtained
by integrating the variational equations alongside the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfHistoryError

__all__ = [
    "FieldView", "ZeroField", "AnalyticField", "PhaseState",
    "rel_velocity", "free_displacement", "force", "push", "backward_trace",
    "flow_jacobian",
]


# ---------------------------------------------------------------------------
# Field access
# ---------------------------------------------------------------------------

class FieldView:
    """Evaluator of (phi, dt phi, grad phi) at arbitrary (t, x).

    Outside the represented spatial region fields evaluate to 0; outside the
    stored time range evaluation raises OutOfHistoryError.
    """

    fd_step = 1e-4  # spatial step for default second-derivative differences

    def phi(self, t, x):
        raise NotImplementedError

    def first_derivs(self, t, x):
        """Return (dt_phi, grad_phi) with shapes (...,), (..., 3)."""
        raise NotImplementedError

    def second_derivs(self, t, x):
        """Return (dt_grad_phi, hess_phi) with shapes (..., 3), (..., 3, 3).

        Default: centered differences of first_derivs in x.
        """
        x = np.asarray(x, dtype=float)
        eps = self.fd_step
        dt_grad = np.zeros(x.shape)
        hess = np.zeros(x.shape + (3,))
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = eps
            dtp, gp = self.first_derivs(t, x + dx)
            dtm, gm = self.first_derivs(t, x - dx)
            dt_grad[..., j] = (dtp - dtm) / (2 * eps)
            hess[..., j, :] = (gp - gm) / (2 * eps)
        # symmetrize: mixed partials commute for the true field
        hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        return dt_grad, hess

    def derivative_bound(self, t0: float, t1: float) -> float:
        """An upper bound on |dt phi| + |grad phi| (Euclidean) as first_derivs
        returns them, at any point and any time in [t0, t1]: inf unless the
        view knows better.  `backward_trace` drops no point under a bound
        that is not finite."""
        return np.inf


class ZeroField(FieldView):
    """phi identically 0 (free transport)."""

    def phi(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def first_derivs(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1]), np.zeros(x.shape)

    def second_derivs(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape), np.zeros(x.shape + (3,))

    def derivative_bound(self, t0, t1):
        return 0.0


class AnalyticField(FieldView):
    """Field from closed-form callables fn(t, x), defined for t in t_range.

    Manufactured-solution and oracle tests read it; a source density for
    retarded_potential needs only phi_fn.  Second derivatives are FieldView's
    finite differences.
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
# Phase-space state and right-hand sides
# ---------------------------------------------------------------------------

@dataclass
class PhaseState:
    """Batched phase-space state: x, p of shape (..., 3) at common time t."""

    x: np.ndarray
    p: np.ndarray
    t: float


def _norm2(a) -> np.ndarray:
    """np.sum(a * a, axis=-1) over a last axis of length 3, bitwise: the
    columns in np.sum's order, (a0 a0 + a1 a1) + a2 a2, which is several
    times faster than the reduction on (N, 3) rows."""
    return (a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]) + a[..., 2] * a[..., 2]


def _dot(a, b) -> np.ndarray:
    """np.sum(a * b, axis=-1) over a last axis of length 3, bitwise.

    np.sum adds the columns to a start of 0.0, which changes a sum only by
    turning -0.0 into +0.0; the columns add that 0.0 last.  (A sum of
    squares is never -0.0, so _norm2 needs no such term.)
    """
    return ((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
            + a[..., 2] * b[..., 2]) + 0.0


def rel_velocity(p) -> np.ndarray:
    """Relativistic velocity p/sqrt(1+|p|^2); magnitude strictly below 1."""
    p = np.asarray(p, dtype=float)
    return p / np.sqrt(1.0 + _norm2(p))[..., None]


def free_displacement(p, dt: float) -> np.ndarray:
    """The step of x in a zero field, dt/6 (v + 2v + 2v + v) with
    v = rel_velocity(p): every RK4 stage sees the same velocity, and summing
    it in the stage order keeps x bitwise equal to the general path."""
    v = rel_velocity(p)
    return dt / 6 * (v + 2 * v + 2 * v + v)


def force(t, x, p, field: FieldView) -> np.ndarray:
    """Momentum rate -(S phi) p - (1+p^2)^(-1/2) grad phi; x, p float arrays."""
    return _rhs(t, x, p, field)[1]


def _rhs(t, x, p, field):
    """(phat, force) at one RK4 stage, gamma and phat computed once; phat
    has the bits of rel_velocity(p)."""
    gamma = np.sqrt(1.0 + _norm2(p))[..., None]
    phat = p / gamma
    dt_phi, grad = field.first_derivs(t, x)
    s_phi = dt_phi + _dot(phat, grad)
    return phat, -s_phi[..., None] * p - grad / gamma


def _rk4(t, y, dt, rhs):
    """One classical RK4 step of dy/ds = rhs(s, *y); y is a tuple of arrays.

    The stages are summed in place as they come, s1 + 2 s2 + 2 s3 + s4 left
    to right: the adds of a + dt/6 (s1 + 2 s2 + 2 s3 + s4) in their order,
    so the same bits, while no stage outlives the next one.  The sum takes
    over the first stage's arrays, so rhs must return arrays of its own.
    """
    k = rhs(t, *y)
    acc = list(k)
    for step, c in ((dt / 2, 2), (dt / 2, 2), (dt, 1)):
        y_stage = tuple(a + step * s for a, s in zip(y, k))
        del k  # free the last stage's slopes (the first stage's are acc)
        k = rhs(t + step, *y_stage)
        del y_stage
        for j, total in enumerate(acc):
            total += k[j] if c == 1 else c * k[j]
    return tuple(a + dt / 6 * total for a, total in zip(y, acc))


def push(state: PhaseState, dt: float, field: FieldView) -> PhaseState:
    """One RK4 step of the characteristic system (dt may be negative).

    In a ZeroField dp/ds = 0, so x moves by free_displacement.  The momenta
    are returned as given, not copied (the general path differs only by
    turning -0.0 into +0.0); this is safe because no vnsim code writes into
    `ParticleEnsemble.p` or a `PhaseState.p` in place.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    x = np.asarray(state.x, dtype=float)
    p = np.asarray(state.p, dtype=float)
    t = state.t
    if isinstance(field, ZeroField):
        return PhaseState(x=x + free_displacement(p, dt), p=p, t=t + dt)
    xn, pn = _rk4(t, (x, p), dt, lambda s, xs, ps: _rhs(s, xs, ps, field))
    return PhaseState(x=xn, p=pn, t=t + dt)


def _backward_steps(t: float, dt: float):
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_full = int(np.floor(t / dt + 1e-12))
    rem = t - n_full * dt
    steps = [-dt] * n_full
    if rem > 1e-12 * max(1.0, t):
        steps.append(-rem)
    return steps


def _misses(t: float, steps: list, field: FieldView, center, radius: float):
    """The drop rule of `backward_trace`: misses(j, x, p) marks the points
    of the state after j steps whose foot provably lies outside the ball
    |(X(0), P(0)) - center| < radius; None when the field's bounds are not
    finite.

    Step i, of length h_i, runs under K_i = field.derivative_bound over its
    stage times, and |F| <= K (1 + |p|).  So an RK4 step changes P by at
    most (1 + |P|) (e^(K h) - 1): its stages sum to the quartic Taylor
    polynomial of that bound; the weighted mean of its stages' change of P,
    which moves x through the 1-Lipschitz phat, is smaller.  With S_j, A_j
    the sums of h_i and K_i h_i over the steps i >= j, and
    E_j = sum_(i >= j) h_i (e^(K_j h_j + ... + K_i h_i) - 1),
        |P(0) - P_j| <= (1 + |P_j|) (e^A_j - 1),
        |X(0) - (X_j - S_j phat(P_j))| <= (1 + |P_j|) E_j.
    A point is dropped when these lower bounds on |X(0) - c_x| and
    |P(0) - c_p|, less a rounding slack that grows with the number of steps,
    put it outside radius**2 (1 + 1e-9), where f_in is +0.0.
    """
    K, s = [], t
    for step in steps:  # the stage times of push, from s down to s + step
        K.append(field.derivative_bound(s + step, s))
        s = s + step
    n = len(steps)
    h = -np.array(steps, dtype=float)
    u = np.array(K, dtype=float) * h
    S, A, E = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 1, -1, -1):
            S[j], A[j] = S[j + 1] + h[j], A[j + 1] + u[j]
            E[j] = np.exp(u[j]) * E[j + 1] + np.expm1(u[j]) * S[j]
    # E_0 exceeds every other term, and an inf or NaN K makes it NaN
    if not np.isfinite(E[0]):
        return None
    slack = 1e-12 * (n + 1)
    grow = np.exp(A)
    center = np.asarray(center, dtype=float)
    limit = radius**2 * (1.0 + 1e-9)

    def misses(j, x, p):
        one_p = 1.0 + np.sqrt(_norm2(p))
        free = x - S[j] * rel_velocity(p) - center[:3]
        dx = (np.sqrt(_norm2(free)) - one_p * E[j]
              - slack * (1.0 + np.sqrt(_norm2(x)) + S[j]
                         + one_p * (E[j] + S[j] * grow[j])))
        dp = (np.sqrt(_norm2(p - center[3:]))
              - one_p * (np.expm1(A[j]) + slack * grow[j]))
        return np.maximum(dx, 0.0) ** 2 + np.maximum(dp, 0.0) ** 2 > limit

    return misses


def backward_trace(t: float, x, p, field: FieldView, dt: float, support=None):
    """Trace the characteristic through (t, x, p) back to s = 0.

    Returns (X(0), P(0)); the inputs may be batched with last axis 3.

    With `support` = (center, radius), a ball in (x, p) outside which f_in
    vanishes, x and p are one batch of shape (N, 3).  Before the first step
    and after every step the trace drops the points whose foot provably
    misses the ball (`_misses`, from the field's `derivative_bound`), and
    returns (X(0), P(0), kept): the feet of the points whose indices into
    the batch are `kept`.  Every step still goes through `push`, also on an
    empty batch; a kept point's foot has the bits of the unpruned trace, as
    every value is per point.
    """
    steps = _backward_steps(t, dt)
    state = PhaseState(x=np.asarray(x, dtype=float),
                       p=np.asarray(p, dtype=float), t=t)
    misses = None if support is None else _misses(t, steps, field, *support)
    kept = None if support is None else np.arange(len(state.x))
    for j in range(len(steps) + 1):
        if misses is not None:
            keep = ~misses(j, state.x, state.p)
            state = PhaseState(x=state.x[keep], p=state.p[keep], t=state.t)
            kept = kept[keep]
        if j < len(steps):
            state = push(state, steps[j], field)
    if support is None:
        return state.x, state.p
    return state.x, state.p, kept


# ---------------------------------------------------------------------------
# Variational (Jacobian) equations
# ---------------------------------------------------------------------------

def _flow_matrix(t, x, p, field: FieldView):
    """6x6 derivative of the characteristic RHS w.r.t. (x, p)."""
    gamma2 = 1.0 + _norm2(p)
    gamma = np.sqrt(gamma2)
    phat = p / gamma[..., None]
    dt_phi, grad = field.first_derivs(t, x)
    dt_grad, hess = field.second_derivs(t, x)
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
