import numpy as np
import pytest

from vnsim.errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from vnsim.profiles import InitialData, make_bump
from vnsim.wavefield import (CallableSource, FieldGrid, GridFieldHistory,
                             SourceHistory, data_term_dt_phi, discrete_energy,
                             fdtd_step, field_derivatives,
                             kirchhoff_homogeneous, make_field_grid,
                             retarded_potential, unit_sphere_quadrature)


def wave_data(amp=0.01, R=1.0, k0=3, k1=2):
    return InitialData(
        f_in=make_bump([0.0] * 6, R, 0.0, 2),
        phi0_in=make_bump([0.0] * 3, R, amp, k0),
        phi1_in=make_bump([0.0] * 3, R, amp, k1),
        support_radius_R=R,
    )


def grid_from_function(fn, h=0.5, dt=0.2, n_half=6, t=1.0):
    """FieldGrid whose three levels sample fn(t, x) at t-dt, t, t+dt."""
    g = FieldGrid(h=h, dt=dt, n_half=n_half, t=t,
                  phi_m=np.zeros(1), phi_0=np.zeros(1), phi_p=np.zeros(1),
                  mu=np.zeros(1))
    ax = g.node_axis()
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1)
    g.phi_m = fn(t - dt, pts)
    g.phi_0 = fn(t, pts)
    g.phi_p = fn(t + dt, pts)
    g.mu = np.zeros_like(g.phi_0)
    return g


class TestGridBasics:
    def test_cfl_rejected(self):
        with pytest.raises(ConfigError):
            make_field_grid(wave_data(), h=0.5, dt=0.5)

    def test_node_at_origin(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        assert 0.0 in g.node_axis()
        assert g.phi_0[g.n_half, g.n_half, g.n_half] == pytest.approx(0.01)

    def test_taylor_start(self):
        data = wave_data()
        dt = 0.1
        g = make_field_grid(data, h=0.5, dt=dt)
        x = np.zeros(3)
        expect_p = (data.phi0_in.value(x) + dt * data.phi1_in.value(x)
                    + 0.5 * dt**2 * data.phi0_in.laplacian(x))
        assert g.phi_p[g.n_half, g.n_half, g.n_half] == pytest.approx(float(expect_p))

    def test_ensure_extent_preserves_values(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        before = g.phi_0.copy()
        nh = g.n_half
        g.ensure_extent(8.0)
        off = g.n_half - nh
        np.testing.assert_array_equal(
            g.phi_0[off:off + before.shape[0], off:off + before.shape[0],
                    off:off + before.shape[0]], before)
        assert np.all(g.phi_0[:off] == 0.0)


class TestFdtdStep:
    def test_energy_conserved_homogeneous(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        zero = np.zeros_like(g.phi_0)
        fdtd_step(g, zero)
        e0 = discrete_energy(g)
        for _ in range(10):
            fdtd_step(g, zero)
        assert discrete_energy(g) == pytest.approx(e0, rel=1e-12)

    def test_boundary_activation_raises(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=0.5)
        zero = np.zeros_like(g.phi_0)
        with pytest.raises(DomainTooSmallError):
            for _ in range(40):
                fdtd_step(g, zero)

    def test_shape_mismatch(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        with pytest.raises(DomainTooSmallError):
            fdtd_step(g, np.zeros((3, 3, 3)))

    def test_sponge_only_acts_outside(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        zero = np.zeros_like(g.phi_0)
        g2 = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        fdtd_step(g, zero)
        fdtd_step(g2, zero, sponge_radius=2.0)
        c = g.n_half
        np.testing.assert_array_equal(g.phi_p[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3],
                                      g2.phi_p[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3])


class TestFieldDerivatives:
    def test_exact_on_quadratics(self):
        def fn(t, x):
            return (0.3 * t**2 + 0.5 * t - 1.0 + x[..., 0] * 2.0
                    + 0.25 * x[..., 1]**2 + 0.1 * x[..., 0] * x[..., 2]
                    + 0.7 * t * x[..., 1])

        g = grid_from_function(fn)
        probes = np.array([[0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [1.1, 0.9, -1.3]])
        dt_phi, grad, dt2, dt_grad, hess = field_derivatives(g, probes)
        t = g.t
        np.testing.assert_allclose(dt_phi, 0.6 * t + 0.5 + 0.7 * probes[:, 1],
                                   rtol=1e-12)
        np.testing.assert_allclose(dt2, [0.6] * 3, rtol=1e-12)
        expect_grad = np.stack([
            2.0 + 0.1 * probes[:, 2],
            0.5 * probes[:, 1] + 0.7 * t,
            0.1 * probes[:, 0]], axis=-1)
        np.testing.assert_allclose(grad, expect_grad, atol=1e-12)
        np.testing.assert_allclose(dt_grad, np.tile([0.0, 0.7, 0.0], (3, 1)),
                                   atol=1e-12)
        expect_hess = np.array([[0.0, 0.0, 0.1], [0.0, 0.5, 0.0], [0.1, 0.0, 0.0]])
        for i in range(3):
            np.testing.assert_allclose(hess[i], expect_hess, atol=1e-12)

    def test_boundary_probe_rejected(self):
        g = grid_from_function(lambda t, x: x[..., 0])
        with pytest.raises(ValueError):
            field_derivatives(g, np.array([g.x_max, 0.0, 0.0]))


class TestSphereQuadrature:
    def test_weights_sum(self):
        _, w = unit_sphere_quadrature()
        assert w.sum() == pytest.approx(4 * np.pi, rel=1e-12)

    def test_second_moment(self):
        dirs, w = unit_sphere_quadrature()
        for i in range(3):
            assert np.sum(w * dirs[:, i]**2) == pytest.approx(4 * np.pi / 3, rel=1e-10)


class TestKirchhoff:
    def test_t_zero_reduces_to_datum(self):
        data = wave_data()
        x = np.array([0.2, 0.1, -0.3])
        assert kirchhoff_homogeneous(0.0, x, data) == pytest.approx(
            float(data.phi0_in.value(x)))

    def test_strong_huygens(self):
        # in 3D the solution vanishes once the light cone passes the support
        data = wave_data()
        assert kirchhoff_homogeneous(5.0, np.zeros(3), data) == pytest.approx(0.0, abs=1e-15)

    def test_fdtd_agreement_coarse(self):
        data = wave_data(amp=0.01, R=2.0, k0=4, k1=4)
        h, dt, t_end = 0.25, 0.125, 1.0
        g = make_field_grid(data, h, dt, pad=3.0)
        for _ in range(int(round(t_end / dt))):
            fdtd_step(g, np.zeros_like(g.phi_0))
        hist = GridFieldHistory()
        hist.append(g.t, g.phi_0, g.h, g.n_half)
        probes = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [-1.0, 0.5, 0.5]])
        exact = np.array([kirchhoff_homogeneous(t_end, x, data) for x in probes])
        num = hist.phi(t_end, probes)
        assert np.abs(num - exact).max() <= 0.05 * np.abs(exact).max()

    def test_dt_phi_data_term_vs_fd(self):
        data = wave_data()
        x = np.array([0.2, -0.1, 0.3])
        t, eps = 0.7, 1e-5
        fd = (kirchhoff_homogeneous(t + eps, x, data)
              - kirchhoff_homogeneous(t - eps, x, data)) / (2 * eps)
        assert data_term_dt_phi(t, x, data) == pytest.approx(fd, abs=1e-9)

    def test_dt_phi_kinetic_term_scales_with_f(self):
        base = wave_data()
        withf = InitialData(
            f_in=make_bump([0.0] * 6, 1.0, 0.02, 2),
            phi0_in=base.phi0_in, phi1_in=base.phi1_in, support_radius_R=1.0)
        withf2 = InitialData(
            f_in=make_bump([0.0] * 6, 1.0, 0.04, 2),
            phi0_in=base.phi0_in, phi1_in=base.phi1_in, support_radius_R=1.0)
        t, x = 0.7, np.zeros(3)
        d1 = data_term_dt_phi(t, x, withf) - data_term_dt_phi(t, x, base)
        d2 = data_term_dt_phi(t, x, withf2) - data_term_dt_phi(t, x, base)
        assert d1 < 0  # attractive: matter pulls dt phi down
        assert d2 == pytest.approx(2 * d1, rel=1e-10)


class TestRetardedPotential:
    def test_static_ball_closed_form(self):
        src = CallableSource(
            lambda s, y: (np.sum(y * y, axis=-1) <= 1.0).astype(float))
        val = retarded_potential(1.0, np.zeros(3), src, shell_width=0.05)
        assert val == pytest.approx(-0.5, rel=1e-10)

    def test_zero_time(self):
        src = CallableSource(lambda s, y: np.ones(y.shape[:-1]))
        assert retarded_potential(0.0, np.zeros(3), src, 0.05) == 0.0

    def test_history_coverage_required(self):
        hist = SourceHistory()
        hist.append(0.5, np.zeros((5, 5, 5)), 1.0, 2)
        with pytest.raises(OutOfHistoryError):
            retarded_potential(1.0, np.zeros(3), hist, 0.1)


class TestGridFieldHistory:
    def test_linear_time_interpolation(self):
        hist = GridFieldHistory()
        shape = (9, 9, 9)
        hist.append(0.0, np.zeros(shape), 0.5, 4)
        hist.append(1.0, np.ones(shape), 0.5, 4)
        x = np.array([0.1, -0.2, 0.3])
        assert hist.phi(0.25, x) == pytest.approx(0.25)
        dt_phi, _ = hist.first_derivs(0.25, x)
        assert dt_phi == pytest.approx(1.0)

    def test_zero_outside_grid(self):
        hist = GridFieldHistory()
        hist.append(0.0, np.ones((9, 9, 9)), 0.5, 4)
        assert hist.phi(0.0, np.array([10.0, 0.0, 0.0])) == 0.0

    def test_out_of_range_raises(self):
        hist = GridFieldHistory()
        hist.append(0.0, np.zeros((9, 9, 9)), 0.5, 4)
        with pytest.raises(OutOfHistoryError):
            hist.phi(2.0, np.zeros(3))

    def test_ring_window(self):
        hist = GridFieldHistory(max_levels=3)
        for k in range(6):
            hist.append(float(k), np.full((5, 5, 5), float(k)), 1.0, 2)
        assert hist.t_min == 3.0 and hist.t_max == 5.0
        with pytest.raises(OutOfHistoryError):
            hist.phi(1.0, np.zeros(3))

    def test_derivatives_match_field_derivatives(self):
        def fn(t, x):
            return x[..., 0]**2 + 0.3 * x[..., 1] * x[..., 2] + t * x[..., 0]

        g = grid_from_function(fn, t=1.0, dt=0.2)
        hist = GridFieldHistory()
        hist.append(g.t, g.phi_0, g.h, g.n_half)
        hist.append(g.t + g.dt, g.phi_p, g.h, g.n_half)
        x = np.array([0.4, -0.3, 0.2])
        _, grad = hist.first_derivs(1.0, x)
        np.testing.assert_allclose(grad, [2 * 0.4 + 1.0, 0.3 * 0.2, 0.3 * (-0.3)],
                                   atol=1e-12)
        _, hess = hist.second_derivs(1.0, x)
        np.testing.assert_allclose(hess, [[2, 0, 0], [0, 0, 0.3], [0, 0.3, 0]],
                                   atol=1e-12)


def gather(arr, idx):
    return arr[idx[..., 0], idx[..., 1], idx[..., 2]]


def reference_sample(phi, h, n_half, pts, stencil=None):
    """The stencil-then-interpolate sampler the level store replaced.

    Kept as the reference for the one-pass sampler.  It clips cells with
    lower corner index 1 to 2, so compare only two cells inside the grid.
    `stencil` is a list of (offset_vector, coefficient) applied at the nodes
    before interpolation; None means the plain value.
    """
    n = phi.shape[0]
    u = pts / h + n_half
    i0 = np.floor(u).astype(int)
    frac = u - i0
    pad = 2
    valid = np.all((i0 >= pad - 1) & (i0 <= n - pad - 1), axis=-1)
    i0c = np.clip(i0, pad, n - 1 - pad)
    offs = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    out = np.zeros(pts.shape[:-1])
    for off in offs:
        wc = np.ones(pts.shape[:-1])
        for ax in range(3):
            wc *= frac[..., ax] if off[ax] else 1.0 - frac[..., ax]
        idx = i0c + off
        if stencil is None:
            vals = gather(phi, idx)
        else:
            vals = sum(coef * gather(phi, idx + np.asarray(o)) for o, coef in stencil)
        out += wc * vals
    return np.where(valid, out, 0.0)


E3 = np.eye(3, dtype=int)
REF_GRAD = [[(E3[k], 0.5), (-E3[k], -0.5)] for k in range(3)]


def ref_hess_stencil(k, j):
    if k == j:
        return [(E3[k], 1.0), (np.zeros(3, int), -2.0), (-E3[k], 1.0)]
    return [(E3[k] + E3[j], 0.25), (E3[k] - E3[j], -0.25),
            (-E3[k] + E3[j], -0.25), (-E3[k] - E3[j], 0.25)]


class TestLevelStoreAgainstReference:
    # levels at t = 0, 0.5 share a geometry; the grid grows before t = 1
    TIMES = (0.0, 0.5, 1.0)
    N_HALF = (8, 8, 10)
    H = 0.5

    def make_levels(self, dtype):
        rng = np.random.default_rng(7)
        return [rng.standard_normal((2 * nh + 1,) * 3).astype(dtype)
                for nh in self.N_HALF]

    def reference(self, levels, t, x, stencil=None, order=0):
        """Lerp in t of the reference sampler on the bracketing levels."""
        k = min(int(np.searchsorted(self.TIMES, t, side="right")) - 1, 1)
        a = (t - self.TIMES[k]) / (self.TIMES[k + 1] - self.TIMES[k])
        v0, v1 = (reference_sample(levels[i], self.H, self.N_HALF[i], x, stencil)
                  / self.H**order for i in (k, k + 1))
        return (1.0 - a) * v0 + a * v1, (v1 - v0) / (self.TIMES[k + 1] - self.TIMES[k])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5, 0.7, 1.0])
    def test_phi_and_derivatives(self, dtype, t):
        levels = self.make_levels(dtype)
        hist, src = GridFieldHistory(dtype=dtype), SourceHistory(dtype=dtype)
        for store in (hist, src):
            for tk, lv, nh in zip(self.TIMES, levels, self.N_HALF):
                store.append(tk, lv, self.H, nh)
        # two cells inside the smaller level, where the reference is exact
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (400, 3))
        # values of order 1 combine at most 4 terms per node, then divide by h^2
        atol = 64 * np.finfo(dtype).eps / self.H**2

        phi, dt_phi = self.reference(levels, t, x)
        np.testing.assert_allclose(hist.phi(t, x), phi, rtol=0, atol=atol)
        np.testing.assert_allclose(src.density(t, x), phi, rtol=0, atol=atol)
        got_dt, got_grad = hist.first_derivs(t, x)
        np.testing.assert_allclose(got_dt, dt_phi, rtol=0, atol=atol / self.H**2)
        got_dt_grad, got_hess = hist.second_derivs(t, x)
        for k in range(3):
            grad, dt_grad = self.reference(levels, t, x, REF_GRAD[k], order=1)
            np.testing.assert_allclose(got_grad[:, k], grad, rtol=0, atol=atol)
            np.testing.assert_allclose(got_dt_grad[:, k], dt_grad, rtol=0,
                                       atol=atol / self.H**2)
            for j in range(3):
                hess, _ = self.reference(levels, t, x, ref_hess_stencil(k, j), order=2)
                np.testing.assert_allclose(got_hess[:, k, j], hess, rtol=0, atol=atol)


class TestSamplerEdges:
    def test_linear_field_exact_in_edge_cells_zero_outside(self):
        # phi = 1 + x + 2y - 3z on n = 21 nodes; the valid cells are those
        # whose +-1 neighbours exist: lower corner index 1 .. n - 3
        h, n_half = 0.5, 10
        ax = (np.arange(21) - n_half) * h
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
        hist = GridFieldHistory()
        hist.append(0.0, 1.0 + xx + 2.0 * yy - 3.0 * zz, h, n_half)
        for axis in range(3):
            u = np.full((6, 3), 10.25)
            u[:, axis] = [1.0, 1.5, 18.5, 18.99, 0.5, 19.5]
            x = (u - n_half) * h
            exact = 1.0 + x[:, 0] + 2.0 * x[:, 1] - 3.0 * x[:, 2]
            np.testing.assert_allclose(hist.phi(0.0, x[:4]), exact[:4],
                                       rtol=0, atol=1e-12)
            _, grad = hist.first_derivs(0.0, x[:4])
            np.testing.assert_allclose(grad, np.tile([1.0, 2.0, -3.0], (4, 1)),
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(hist.phi(0.0, x[4:]), 0.0)
