import itertools
import weakref

import numpy as np
import pytest

from vnsim.characteristics import (AnalyticField, PhaseState, ZeroField,
                                   _backward_steps, _flow_matrix, _rk4,
                                   backward_trace, flow_jacobian, force, push,
                                   rel_velocity)
from vnsim.errors import OutOfHistoryError


def gaussian_field(amp=0.02, w=0.9):
    """Smooth analytic field with closed-form first derivatives."""
    def phi(t, x):
        return amp * np.sin(w * t) * np.exp(-np.sum(x * x, axis=-1))

    def dt_phi(t, x):
        return amp * w * np.cos(w * t) * np.exp(-np.sum(x * x, axis=-1))

    def grad(t, x):
        return -2.0 * x * phi(t, x)[..., None]

    return AnalyticField(phi, dt_phi, grad)


class TestRelVelocity:
    def test_zero_momentum(self):
        np.testing.assert_array_equal(rel_velocity(np.zeros(3)), np.zeros(3))

    def test_subluminal(self):
        rng = np.random.default_rng(3)
        p = rng.normal(scale=50.0, size=(100, 3))
        v = rel_velocity(p)
        assert np.all(np.linalg.norm(v, axis=-1) < 1.0)

    def test_known_value(self):
        v = rel_velocity(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(v, [2.0 / np.sqrt(5.0), 0, 0])


class TestForce:
    def test_zero_field(self):
        state = PhaseState(x=np.ones(3), p=np.ones(3), t=0.5)
        np.testing.assert_array_equal(force(state.t, state.x, state.p, ZeroField()),
                                      np.zeros(3))

    def test_formula(self):
        fld = gaussian_field()
        x = np.array([0.3, -0.2, 0.1])
        p = np.array([0.5, 0.1, -0.4])
        t = 0.7
        gamma = np.sqrt(1 + p @ p)
        dt_phi, grad = fld.first_derivs(t, x)
        s_phi = dt_phi + (p / gamma) @ grad
        expected = -s_phi * p - grad / gamma
        np.testing.assert_allclose(force(t, x, p, fld), expected)


class TestPush:
    def test_free_transport_exact(self):
        p = np.array([0.4, -0.3, 0.2])
        state = PhaseState(x=np.zeros(3), p=p.copy(), t=0.0)
        out = push(state, 7.0, ZeroField())
        np.testing.assert_allclose(out.x, 7.0 * rel_velocity(p), rtol=1e-14)
        np.testing.assert_allclose(out.p, p, rtol=1e-14)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError):
            push(PhaseState(x=np.zeros(3), p=np.zeros(3), t=0.0), 0.0, ZeroField())

    def test_rk4_order(self):
        fld = gaussian_field(amp=0.1)
        x0 = np.array([0.1, 0.2, -0.1])
        p0 = np.array([0.3, -0.5, 0.2])
        T = 1.0

        def integrate(n):
            s = PhaseState(x=x0.copy(), p=p0.copy(), t=0.0)
            for _ in range(n):
                s = push(s, T / n, fld)
            return np.concatenate([s.x, s.p])

        ref = integrate(512)
        errs = [np.abs(integrate(n) - ref).max() for n in (8, 16)]
        order = np.log2(errs[0] / errs[1])
        assert 3.5 < order < 4.6

    def test_batched(self):
        fld = gaussian_field()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        p = rng.normal(size=(10, 3))
        out = push(PhaseState(x=x, p=p, t=0.0), 0.1, fld)
        for i in range(10):
            single = push(PhaseState(x=x[i], p=p[i], t=0.0), 0.1, fld)
            np.testing.assert_allclose(out.x[i], single.x, rtol=1e-14)


class TestBackwardTrace:
    def test_inverts_forward_integration(self):
        fld = gaussian_field(amp=0.05)
        x0 = np.array([0.2, -0.3, 0.1])
        p0 = np.array([0.4, 0.2, -0.1])
        dt = 0.01
        s = PhaseState(x=x0.copy(), p=p0.copy(), t=0.0)
        for _ in range(150):
            s = push(s, dt, fld)
        xb, pb = backward_trace(s.t, s.x, s.p, fld, dt)
        np.testing.assert_allclose(xb, x0, atol=1e-9)
        np.testing.assert_allclose(pb, p0, atol=1e-9)

    def test_partial_last_step(self):
        # t not a multiple of dt: remainder handled by a shorter final step
        xb, pb = backward_trace(1.3, np.zeros(3), np.array([0.5, 0, 0]),
                                ZeroField(), dt=0.5)
        np.testing.assert_allclose(xb, -1.3 * rel_velocity(np.array([0.5, 0, 0])),
                                   rtol=1e-13)
        np.testing.assert_allclose(pb, [0.5, 0, 0])

    @pytest.mark.parametrize("fld, drops", [(ZeroField(), True),
                                            (gaussian_field(amp=0.05), False)])
    def test_support_keeps_the_feet_of_the_unpruned_trace(self, fld, drops):
        # a field without a finite derivative_bound drops nothing
        rng = np.random.default_rng(4)
        x = rng.uniform(-2.0, 2.0, (400, 3))
        p = rng.uniform(-1.0, 1.0, (400, 3))
        center, radius = np.array([0.5, 0, 0, 0.2, 0, 0]), 0.8
        xb, pb = backward_trace(1.3, x, p, fld, 0.25)
        xk, pk, kept = backward_trace(1.3, x, p, fld, 0.25, support=(center, radius))
        assert_bitwise_equal_states(xk, pk, xb[kept], pb[kept])
        inside = np.linalg.norm(np.concatenate([xb, pb], axis=-1) - center,
                                axis=-1) < radius
        assert set(np.flatnonzero(inside)) <= set(kept)
        assert 0 < len(kept) < 400 if drops else len(kept) == 400

    def test_time_range_enforced(self):
        fld = gaussian_field()
        fld.t_range = (0.0, 1.0)
        with pytest.raises(OutOfHistoryError):
            backward_trace(2.0, np.zeros(3), np.zeros(3) + 0.1, fld, 0.25)


def zero_analytic_field():
    """phi = 0 as an AnalyticField, which takes the general RK4 path."""
    return AnalyticField(lambda t, x: np.zeros(x.shape[:-1]),
                         lambda t, x: np.zeros(x.shape[:-1]),
                         lambda t, x: np.zeros(x.shape))


def momenta_with_zero_components():
    rng = np.random.default_rng(11)
    p = rng.normal(scale=0.6, size=(40, 3))
    p[::3, 0] = 0.0
    p[1::4, 1:] = 0.0
    p[5] = 0.0
    return p


def assert_bitwise_equal_states(xa, pa, xb, pb):
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(np.signbit(pa), np.signbit(pb))


class TestZeroFieldShortcut:
    """A ZeroField push skips the RK4 stages but matches them bitwise."""

    @pytest.mark.parametrize("dt", [0.5, -0.37])
    @pytest.mark.parametrize("batched", [True, False])
    def test_push_bitwise_equal_to_rk4(self, dt, batched):
        p = momenta_with_zero_components()
        x = np.random.default_rng(12).uniform(-3, 3, p.shape)
        rows = [slice(None)] if batched else [1, 5, 6, 7]
        for row in rows:
            state = PhaseState(x=x[row], p=p[row], t=0.25)
            fast = push(state, dt, ZeroField())
            ref = push(state, dt, zero_analytic_field())
            assert fast.p.shape == ref.p.shape == p[row].shape
            assert fast.t == ref.t
            assert_bitwise_equal_states(fast.x, fast.p, ref.x, ref.p)

    @pytest.mark.parametrize("batched", [True, False])
    def test_backward_trace_bitwise_equal_to_rk4(self, batched):
        p = momenta_with_zero_components()
        x = np.random.default_rng(13).uniform(-3, 3, p.shape)
        rows = [slice(None)] if batched else [0, 5, 9]
        for row in rows:
            # 1.3 = 2 * 0.5 + 0.3: full steps and a shorter last one
            fast = backward_trace(1.3, x[row], p[row], ZeroField(), 0.5)
            ref = backward_trace(1.3, x[row], p[row], zero_analytic_field(), 0.5)
            assert_bitwise_equal_states(*fast, *ref)


class TestFlowJacobian:
    def test_identity_at_zero_time(self):
        jac = flow_jacobian(0.0, np.zeros(3), np.ones(3), ZeroField(), 0.1)
        np.testing.assert_array_equal(jac, np.eye(6))

    def test_free_flow_analytic(self):
        # X(0) = x - t phat, P(0) = p: d(X,P)/d(x,p) = [[I, -t dphat/dp], [0, I]]
        p = np.array([0.3, -0.2, 0.5])
        t = 4.0
        jac = flow_jacobian(t, np.ones(3), p, ZeroField(), dt=1.0)
        gamma = np.sqrt(1 + p @ p)
        phat = p / gamma
        dphat = (np.eye(3) - np.outer(phat, phat)) / gamma
        np.testing.assert_allclose(jac[:3, :3], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(jac[:3, 3:], -t * dphat, rtol=1e-12)
        np.testing.assert_allclose(jac[3:, :3], np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(jac[3:, 3:], np.eye(3), atol=1e-12)

    def test_vs_finite_differences(self):
        fld = gaussian_field(amp=0.05)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 3)
            p = rng.uniform(-0.5, 0.5, 3)
            t = rng.uniform(1.0, 3.0)
            jac = flow_jacobian(t, x, p, fld, dt=0.05)
            eps = 1e-6
            for j in range(6):
                d = np.zeros(6)
                d[j] = eps
                xp, pp = backward_trace(t, x + d[:3], p + d[3:], fld, 0.05)
                xm, pm = backward_trace(t, x - d[:3], p - d[3:], fld, 0.05)
                col = np.concatenate([xp - xm, pp - pm]) / (2 * eps)
                np.testing.assert_allclose(jac[:, j], col, atol=2e-5)

    def test_batched(self):
        fld = gaussian_field()
        x = np.zeros((4, 3)) + 0.1
        p = np.zeros((4, 3)) + 0.2
        jac = flow_jacobian(1.0, x, p, fld, dt=0.25)
        assert jac.shape == (4, 6, 6)
        single = flow_jacobian(1.0, x[0], p[0], fld, dt=0.25)
        np.testing.assert_allclose(jac[2], single, rtol=1e-13)


class TestAnalyticField:
    def test_whole_line_by_default(self):
        fld = gaussian_field()
        assert fld.covers(-1e6) and fld.covers(1e6)

    def test_covers_with_tolerance(self):
        fld = AnalyticField(lambda t, x: np.zeros(x.shape[:-1]), t_range=(0.0, 1.0))
        assert fld.covers(0.0) and fld.covers(1.0 + 5e-10) and fld.covers(-5e-10)
        assert not fld.covers(1.0 + 1e-8) and not fld.covers(-1e-8)

    def test_raises_outside_t_range(self):
        fld = gaussian_field()
        fld.t_range = (0.0, 1.0)
        x = np.zeros((2, 3))
        for t in (-0.5, 1.5):
            with pytest.raises(OutOfHistoryError):
                fld.phi(t, x)
            with pytest.raises(OutOfHistoryError):
                fld.first_derivs(t, x)
        assert fld.phi(1.0, x).shape == (2,)

    def test_phi_only_source(self):
        fld = AnalyticField(lambda t, x: t + x[..., 0])
        np.testing.assert_array_equal(fld.phi(2.0, np.ones((3, 3))), [3.0] * 3)


def reference_push(state, dt, field):
    """push's general path with its four RK4 stages written out."""
    x, p, t = state.x, state.p, state.t

    def rhs(s, xs, ps):
        return rel_velocity(ps), force(s, xs, ps, field)

    k1x, k1p = rhs(t, x, p)
    k2x, k2p = rhs(t + dt / 2, x + dt / 2 * k1x, p + dt / 2 * k1p)
    k3x, k3p = rhs(t + dt / 2, x + dt / 2 * k2x, p + dt / 2 * k2p)
    k4x, k4p = rhs(t + dt, x + dt * k3x, p + dt * k3p)
    xn = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
    pn = p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return PhaseState(x=xn, p=pn, t=t + dt)


def reference_flow_jacobian(t, x, p, field, dt):
    """flow_jacobian with its own written-out RK4 step."""
    jac = np.broadcast_to(np.eye(6), x.shape[:-1] + (6, 6)).copy()
    s = t

    def rhs(time, xx, pp, jj):
        dx = rel_velocity(pp)
        dp = force(time, xx, pp, field)
        return dx, dp, _flow_matrix(time, xx, pp, field) @ jj

    for step in _backward_steps(t, dt):
        k1 = rhs(s, x, p, jac)
        k2 = rhs(s + step / 2, x + step / 2 * k1[0], p + step / 2 * k1[1],
                 jac + step / 2 * k1[2])
        k3 = rhs(s + step / 2, x + step / 2 * k2[0], p + step / 2 * k2[1],
                 jac + step / 2 * k2[2])
        k4 = rhs(s + step, x + step * k3[0], p + step * k3[1], jac + step * k3[2])
        x = x + step / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + step / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        jac = jac + step / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        s += step
    return jac


class TestSharedRk4Step:
    """push and flow_jacobian share one RK4 step, bitwise equal to the
    written-out stages."""

    @pytest.mark.parametrize("dt", [0.3, -0.17])
    @pytest.mark.parametrize("batched", [True, False])
    def test_push(self, dt, batched):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.5, 1.5, (30, 3))
        p = rng.normal(scale=0.6, size=(30, 3))
        fld = gaussian_field(amp=0.1)
        rows = [slice(None)] if batched else [0, 7, 19]
        for row in rows:
            state = PhaseState(x=x[row], p=p[row], t=0.4)
            out = push(state, dt, fld)
            ref = reference_push(state, dt, fld)
            assert out.x.shape == ref.x.shape == x[row].shape
            assert out.t == ref.t
            assert_bitwise_equal_states(out.x, out.p, ref.x, ref.p)

    @pytest.mark.parametrize("t", [1.3, 2.0])
    @pytest.mark.parametrize("batched", [True, False])
    def test_flow_jacobian(self, t, batched):
        rng = np.random.default_rng(22)
        x = rng.uniform(-1, 1, (6, 3))
        p = rng.normal(scale=0.5, size=(6, 3))
        fld = gaussian_field(amp=0.05)
        rows = [slice(None)] if batched else [2, 5]
        for row in rows:
            jac = flow_jacobian(t, x[row], p[row], fld, 0.25)
            ref = reference_flow_jacobian(t, x[row], p[row], fld, 0.25)
            assert jac.shape == ref.shape == x[row].shape[:-1] + (6, 6)
            np.testing.assert_array_equal(jac, ref)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dt", [0.25, -0.3, 1e-300])
    def test_in_place_sum(self, dt):
        # stage slopes cut from the special rows (signed zeros, infinities,
        # NaN, subnormals, huge values) and random rows: the in-place sum
        # gives a + dt/6 (s1 + 2 s2 + 2 s3 + s4), and each stage reads
        # a + step k of the stage before it
        y = (batches((40, 3), seed=1)[3], batches((40, 3), seed=2)[-1])
        slopes = [(batches((40, 3), seed=3 + j)[j],
                   batches((40, 3), seed=9 + j)[-2 - j]) for j in range(4)]
        seen, live = [], []

        def rhs(s, *ys):
            j = len(seen)
            seen.append((s, ys))
            # from the third stage on, the last stage's slopes are freed
            # before this one runs (the first stage's become the sum)
            assert j < 2 or all(ref() is None for ref in live[j - 1])
            out = tuple(k.copy() for k in slopes[j])
            live.append([weakref.ref(k) for k in out])
            return out

        got = _rk4(0.5, y, dt, rhs)
        ref = tuple(a + dt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                    for a, s1, s2, s3, s4 in zip(y, *slopes))
        for g, r in zip(got, ref):
            assert_same_bits(g, r)
        steps = (0.0, dt / 2, dt / 2, dt)
        assert [s for s, _ in seen] == [0.5 + h for h in steps]
        for j in range(1, 4):
            for a, k, ys in zip(y, slopes[j - 1], seen[j][1]):
                assert_same_bits(ys, a + steps[j] * k)


# ---------------------------------------------------------------------------
# Length-3 reductions as ordered columns
# ---------------------------------------------------------------------------

SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
           1e300, -1e300, 1e-300, -1e-300, 0.7, -1.3]


def special_rows(seed=0):
    """Every row of three SPECIAL values (14^3 of them), in a shuffled order."""
    rows = np.array(list(itertools.product(SPECIAL, repeat=3)))
    return rows[np.random.default_rng(seed).permutation(len(rows))]


def batches(shape, seed=0):
    """Arrays of the given shape (..., 3) cut from the special rows, plus
    random rows with zero and -0.0 components."""
    rows = special_rows(seed)
    rng = np.random.default_rng(seed + 100)
    smooth = rng.normal(scale=0.8, size=(600, 3))
    smooth[::4, 0] = 0.0
    smooth[1::5, 1:] = -0.0
    out = []
    for source in (rows, smooth):
        m = int(np.prod(shape[:-1]))
        if shape == (3,):
            out.extend(source[::37])
        elif m == 0:
            out.append(source[:0].reshape(shape))
        else:
            out.extend(source[k:k + m].reshape(shape)
                       for k in range(0, len(source) - m + 1, m))
    return out


def assert_same_bits(a, b):
    """Equal values, NaN in the same places, and the same sign on every
    number; the sign of a NaN is left to numpy's loops, and no output shows
    it ('%.17g' prints nan)."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)  # NaN equals NaN here
    num = ~np.isnan(a)
    np.testing.assert_array_equal(np.signbit(a[num]), np.signbit(b[num]))


def reference_rel_velocity(p):
    """rel_velocity with its np.sum reduction, kept as reference."""
    p = np.asarray(p, dtype=float)
    return p / np.sqrt(1.0 + np.sum(p * p, axis=-1, keepdims=True))


def reference_force(state, field):
    """force with its np.sum reductions, kept as reference."""
    p = state.p
    gamma = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    phat = p / gamma[..., None]
    dt_phi, grad = field.first_derivs(state.t, state.x)
    s_phi = dt_phi + np.sum(phat * grad, axis=-1)
    return -s_phi[..., None] * p - grad / gamma[..., None]


BATCH_SHAPES = [(3,), (50, 3), (0, 3), (4, 7, 3)]


class TestColumnReductions:
    """rel_velocity and force sum over the length-3 axis by columns, in
    np.sum's order, so they keep the reduction's bits, signed zeros and
    non-finite values included."""

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_rel_velocity(self, shape):
        cases = batches(shape)
        assert cases
        with np.errstate(all="ignore"):
            for p in cases:
                assert_same_bits(rel_velocity(p), reference_rel_velocity(p))

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_force(self, shape):
        cases = batches(shape)
        grads = batches(shape, seed=1)
        dts = [g[..., 1] for g in batches(shape, seed=2)]
        assert len(cases) == len(grads) == len(dts)
        with np.errstate(all="ignore"):
            for p, grad, dt_phi in zip(cases, grads, dts):
                fld = AnalyticField(lambda t, x: np.zeros(x.shape[:-1]),
                                    lambda t, x, v=dt_phi: v,
                                    lambda t, x, g=grad: g)
                state = PhaseState(x=np.zeros(shape), p=p, t=0.5)
                assert_same_bits(force(state.t, state.x, state.p, fld),
                                 reference_force(state, fld))

    def test_force_of_negative_zero_products(self):
        # phat . grad is a sum of three -0.0: np.sum gives +0.0, and with
        # dt phi = -0.0 the sign of S phi, and so of the force, depends on it
        p = np.array([[-0.5, -0.5, -0.5]])
        grad = np.zeros((1, 3))
        fld = AnalyticField(lambda t, x: np.zeros(x.shape[:-1]),
                            lambda t, x: np.array([-0.0]), lambda t, x: grad)
        state = PhaseState(x=np.zeros((1, 3)), p=p, t=0.0)
        got = force(state.t, state.x, state.p, fld)
        assert_same_bits(got, reference_force(state, fld))
        assert not np.signbit(got).any()
