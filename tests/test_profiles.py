import numpy as np
import pytest

from vnsim.profiles import (BumpProfile, InitialData, NORM_ORDERS, _squared_norm,
                            initial_norm, make_bump, validate_membership)
from tests.oracles import assert_same_bits


def fd_gradient(prof, y, eps=1e-6):
    g = np.zeros(prof.dim)
    for j in range(prof.dim):
        d = np.zeros(prof.dim)
        d[j] = eps
        g[j] = (prof.value(y + d) - prof.value(y - d)) / (2 * eps)
    return g


class TestBumpEvaluation:
    def setup_method(self):
        self.prof = make_bump([0.2, -0.1, 0.3], 1.5, 2.0, 3)
        self.rng = np.random.default_rng(42)

    def test_center_value(self):
        assert self.prof.value(np.array([0.2, -0.1, 0.3])) == pytest.approx(2.0)

    def test_zero_outside_support(self):
        pts = self.rng.uniform(-5, 5, size=(200, 3))
        far = pts[np.linalg.norm(pts - self.prof.center, axis=1) >= 1.5]
        assert np.all(self.prof.value(far) == 0.0)
        assert np.all(self.prof.gradient(far) == 0.0)
        assert np.all(self.prof.hessian(far) == 0.0)

    def test_boundary_continuity(self):
        # C^3 profile: value, gradient, hessian, third derivative all -> 0
        eps = 1e-4
        y = self.prof.center + np.array([1.5 - eps, 0, 0])
        assert self.prof.value(y) < 1e-10
        assert np.abs(self.prof.gradient(y)).max() < 1e-6
        assert np.abs(self.prof.hessian(y)).max() < 1e-3
        assert np.abs(self.prof.third_derivative(y)).max() < 1.0

    def test_gradient_vs_fd(self):
        for _ in range(20):
            y = self.prof.center + self.rng.uniform(-1.2, 1.2, 3)
            if abs(np.linalg.norm(y - self.prof.center) - 1.5) < 0.01:
                continue
            np.testing.assert_allclose(self.prof.gradient(y), fd_gradient(self.prof, y),
                                       rtol=1e-5, atol=1e-7)

    def test_hessian_vs_fd_gradient(self):
        eps = 1e-6
        for _ in range(10):
            y = self.prof.center + self.rng.uniform(-0.9, 0.9, 3)
            h = self.prof.hessian(y)
            for j in range(3):
                d = np.zeros(3)
                d[j] = eps
                col = (self.prof.gradient(y + d) - self.prof.gradient(y - d)) / (2 * eps)
                np.testing.assert_allclose(h[:, j], col, rtol=1e-4, atol=1e-6)

    def test_laplacian_is_hessian_trace(self):
        for _ in range(10):
            y = self.prof.center + self.rng.uniform(-1.0, 1.0, 3)
            assert self.prof.laplacian(y) == pytest.approx(
                np.trace(self.prof.hessian(y)), abs=1e-12)

    def test_third_derivative_vs_fd_hessian(self):
        eps = 1e-6
        y = self.prof.center + np.array([0.3, -0.4, 0.2])
        t3 = self.prof.third_derivative(y)
        for j in range(3):
            d = np.zeros(3)
            d[j] = eps
            slab = (self.prof.hessian(y + d) - self.prof.hessian(y - d)) / (2 * eps)
            np.testing.assert_allclose(t3[:, :, j], slab, rtol=1e-4, atol=1e-5)

    def test_batched_evaluation(self):
        pts = self.rng.uniform(-1, 1, size=(4, 5, 3)) + self.prof.center
        vals = self.prof.value(pts)
        assert vals.shape == (4, 5)
        assert self.prof.gradient(pts).shape == (4, 5, 3)
        assert self.prof.hessian(pts).shape == (4, 5, 3, 3)


def reference_radial_factors(prof, y, orders):
    """_radial_factors with |z|^2 as np.sum(z * z, axis=-1), kept as
    reference."""
    z = np.asarray(y, dtype=float) - prof.center
    s = np.sum(z * z, axis=-1) / prof.radius**2
    inside = s < 1.0
    one_ms = np.where(inside, 1.0 - s, 0.0)
    out = {}
    for j in orders:
        coeff = prof.amplitude * (-1.0) ** j
        for i in range(j):
            coeff *= prof._m - i
        if coeff == 0.0:
            out[j] = np.zeros_like(s)
        else:
            with np.errstate(divide="ignore"):
                out[j] = np.where(inside, coeff * one_ms ** (prof._m - j), 0.0)
    return z, out


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, np.inf, -np.inf,
           np.nan, -np.nan, 1e300, -1e300, 1e-160, 0.3, -0.45]


class TestSquaredNormAgainstSum:
    """|z|^2 column by column has np.sum(z * z, axis=-1)'s bits, also on
    signed zeros, subnormals, infinities, NaN and squares that overflow."""

    @pytest.mark.parametrize("dim", [3, 6])
    def test_squared_norm_and_radial_factors(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.choice(np.array(SPECIAL), (4000, dim))
        # points inside the ball, where the factors read every bit of s
        pts[:1000] = rng.uniform(-0.6, 0.6, (1000, dim))
        pts[1000:1100, 1:] = 0.0
        prof = make_bump(np.zeros(dim), 1.0, 0.02, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.sum(pts * pts, axis=-1)
            assert_same_bits(_squared_norm(pts), ref)
            assert np.isnan(ref).any() and np.isinf(ref).any()
            assert_same_bits(_squared_norm(pts[7]), ref[7])  # one point
            orders = (0, 1, 2, 3)
            z, got = prof._radial_factors(pts, orders)
            z_ref, want = reference_radial_factors(prof, pts, orders)
        assert_same_bits(z, z_ref)
        assert np.count_nonzero(want[0]) > 900
        for j in orders:
            assert_same_bits(got[j], want[j])


class TestSupNorms:
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_sup_norms_vs_sampling(self, k):
        prof = make_bump([0.0, 0.0, 0.0], 1.0, 1.0, k)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(20000, 3))
        pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
        sups = prof.derivative_sup_norms(3)
        assert sups[0] == pytest.approx(1.0)
        brute_g = np.linalg.norm(prof.gradient(pts), axis=-1).max()
        assert brute_g <= sups[1] + 1e-12
        assert brute_g >= 0.95 * sups[1]
        brute_h = np.linalg.norm(prof.hessian(pts), axis=(-2, -1)).max()
        assert brute_h <= sups[2] + 1e-12
        assert brute_h >= 0.9 * sups[2]
        # the radial samples hold every order's critical radii
        brute_t = np.linalg.norm(prof.third_derivative(pts).reshape(len(pts), -1),
                                 axis=-1).max()
        assert brute_t <= sups[3] * (1 + 1e-12)
        assert brute_t >= 0.9 * sups[3]
        # nor do dense radial samples of any order's norm
        norms = prof._tensor_norms_at_radius(np.linspace(0.0, 1.0, 200001), 3)
        assert np.all(norms.max(axis=1) <= sups * (1 + 1e-12))

    def test_order_exceeding_smoothness(self):
        prof = make_bump([0.0] * 3, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            prof.derivative_sup_norms(3)

    def test_six_dimensional(self):
        prof = make_bump([0.0] * 6, 1.0, 0.5, 1)
        sups = prof.derivative_sup_norms(1)
        assert sups[0] == pytest.approx(0.5)
        assert sups[1] > 0


class TestMakeBump:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            make_bump([0, 0, 0], -1.0, 1.0, 2)

    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            make_bump([0, 0, 0], 1.0, -0.5, 2)

    def test_bad_smoothness(self):
        with pytest.raises(ValueError):
            make_bump([0, 0, 0], 1.0, 1.0, 0)


def small_data(amp=0.01, R=1.0):
    return InitialData(
        f_in=make_bump([0.0] * 6, R, amp, 2),
        phi0_in=make_bump([0.0] * 3, R, amp, 3),
        phi1_in=make_bump([0.0] * 3, R, amp, 2),
        support_radius_R=R,
    )


class TestInitialData:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            InitialData(f_in=make_bump([0.0] * 3, 1, 1, 2),
                        phi0_in=make_bump([0.0] * 3, 1, 1, 3),
                        phi1_in=make_bump([0.0] * 3, 1, 1, 2),
                        support_radius_R=1.0)

    def test_f_value_broadcast(self):
        data = small_data()
        x = np.zeros((5, 3))
        p = np.zeros(3)
        assert data.f_value(x, p).shape == (5,)
        assert data.f_value(np.zeros(3), np.zeros(3)) == pytest.approx(0.01)

    def test_norm_scales_linearly(self):
        n1 = initial_norm(small_data(0.01), 0.01)
        n2 = initial_norm(small_data(0.02), 0.01)
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_norm_spacing_too_coarse(self):
        with pytest.raises(ValueError):
            initial_norm(small_data(), 0.5)

    def test_norm_with_tolerance(self):
        total, tol = initial_norm(small_data(), 0.01, with_tolerance=True)
        assert total > 0 and 0 <= tol < total

    def test_norm_orders_contract(self):
        assert NORM_ORDERS == {"f_in": 1, "phi0_in": 3, "phi1_in": 2}


class TestMembership:
    def test_admissible(self):
        report = validate_membership(small_data(0.01))
        assert report.all_ok
        assert report.norm_value <= 1.0

    def test_support_violation(self):
        data = InitialData(
            f_in=make_bump([2.0] + [0.0] * 5, 1.0, 0.01, 2),
            phi0_in=make_bump([0.0] * 3, 1.0, 0.01, 3),
            phi1_in=make_bump([0.0] * 3, 1.0, 0.01, 2),
            support_radius_R=1.0)
        report = validate_membership(data)
        assert not report.f_support_ok
        assert not report.all_ok

    def test_regularity_violation(self):
        data = InitialData(
            f_in=make_bump([0.0] * 6, 1.0, 0.01, 2),
            phi0_in=make_bump([0.0] * 3, 1.0, 0.01, 2),  # needs C^3
            phi1_in=make_bump([0.0] * 3, 1.0, 0.01, 2),
            support_radius_R=1.0)
        report = validate_membership(data)
        assert not report.regularity_ok

    def test_norm_violation(self):
        report = validate_membership(small_data(5.0))
        assert not report.norm_ok
