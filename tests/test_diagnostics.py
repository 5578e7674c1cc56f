import numpy as np
import pytest

from vnsim.characteristics import ZeroField
from vnsim.diagnostics import (ConeWeight, check_fsc, dispersion_check,
                               fit_decay, free_flow_dispersion_ratio,
                               grid_derivative_maps, jacobian_bound,
                               max_momentum_spread, measure_K, measure_L,
                               momentum_spread, momentum_support,
                               semilag_profile, sup_mu)
from vnsim.profiles import InitialData, make_bump
from vnsim.vlasov_pic import ParticleEnsemble
from tests.test_wavefield import grid_from_function


def make_ensemble(x, p, w):
    x = np.asarray(x, float).reshape(-1, 3)
    p = np.asarray(p, float).reshape(-1, 3)
    w = np.asarray(w, float).ravel()
    return ParticleEnsemble(x=x, p=p, w=w, x0=x.copy(), p0=p.copy(),
                            w0=w.copy(), phi0_at_x0=np.zeros(len(w)),
                            cell_volume=1.0)


class TestConeWeight:
    def test_formula(self):
        w = ConeWeight(R=1.0, a=-1.0, b=-1.0)
        assert w(2.0, 1.5) == pytest.approx(1.0 / (5.5 * 2.5))

    def test_positive_inside_cone(self):
        w = ConeWeight(R=1.0, a=-0.6, b=-0.6)
        t = np.linspace(0, 10, 50)
        assert np.all(w(t, t + 1.0) > 0)  # |x| = R + t edge included


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.linspace(0, 100, 200)
        fit = fit_decay(list(zip(t, (1 + t)**-3)), (5, 100))
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_series(self):
        t = np.linspace(0, 50, 100)
        fit = fit_decay(list(zip(t, np.full_like(t, 2.7))), (1, 50))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_slope(self):
        t = np.linspace(0, 100, 400)
        v = 5 * (1 + t)**-2 * (1 + 0.01 * np.sin(t))
        fit = fit_decay(list(zip(t, v)), (10, 100))
        assert fit.slope == pytest.approx(-2.0, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay([(10.0, 1.0), (40.0, 0.1)], (10, 40))

    def test_nonpositive_values(self):
        t = np.linspace(10, 50, 20)
        with pytest.raises(ValueError):
            fit_decay(list(zip(t, np.zeros_like(t))), (10, 50))

    def test_window_too_narrow(self):
        t = np.linspace(10, 20, 20)
        with pytest.raises(ValueError):
            fit_decay(list(zip(t, 1 / t)), (10, 20))


class TestMeasureKL:
    def test_zero_field(self):
        g = grid_from_function(lambda t, x: np.zeros(x.shape[:-1]))
        probes = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, -0.5]])
        np.testing.assert_array_equal(measure_K(g, probes), np.zeros(2))
        np.testing.assert_array_equal(measure_L(g, probes), np.zeros(2))

    def test_unit_time_derivative(self):
        g = grid_from_function(lambda t, x: t * np.ones(x.shape[:-1]))
        assert float(measure_K(g, np.zeros(3))) == pytest.approx(1.0)

    def test_time_plus_space(self):
        g = grid_from_function(lambda t, x: t + x[..., 0])
        assert float(measure_K(g, np.zeros(3))) == pytest.approx(2.0)

    def test_l_time_squared(self):
        g = grid_from_function(lambda t, x: t**2 * np.ones(x.shape[:-1]))
        assert float(measure_L(g, np.zeros(3))) == pytest.approx(2.0)

    def test_l_space_squared(self):
        g = grid_from_function(lambda t, x: x[..., 0]**2)
        assert float(measure_L(g, np.zeros(3))) == pytest.approx(2.0)

    def test_grid_maps_match_pointwise(self):
        g = grid_from_function(
            lambda t, x: 0.1 * t * x[..., 0] + 0.2 * x[..., 1]**2 + 0.3 * t**2)
        K, L, r = grid_derivative_maps(g)
        # probe an interior node: axis index 4 -> coordinate (4-6)*0.5 = -1.0
        probe = np.array([-1.0, -1.0, -1.0])
        k_probe = float(measure_K(g, probe))
        l_probe = float(measure_L(g, probe))
        sel = np.isclose(r, np.sqrt(3.0))
        assert np.any(sel)
        assert np.isclose(K[sel], k_probe).any()
        assert np.isclose(L[sel], l_probe).any()

    def test_grid_maps_equal_pointwise_at_every_node(self):
        rng = np.random.default_rng(5)
        g = grid_from_function(lambda t, x: rng.standard_normal(x.shape[:-1]))
        K, L, _ = grid_derivative_maps(g)
        n = g.n_nodes
        # maps cover nodes 2 .. n-3; probes must keep a further cell inside
        K = K.reshape((n - 4,) * 3)[:-1, :-1, :-1]
        L = L.reshape((n - 4,) * 3)[:-1, :-1, :-1]
        ax = g.node_axis()[2:-3]
        nodes = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        np.testing.assert_allclose(K, measure_K(g, nodes), rtol=1e-12)
        np.testing.assert_allclose(L, measure_L(g, nodes), rtol=1e-12)

    def test_sup_mu(self):
        g = grid_from_function(lambda t, x: np.zeros(x.shape[:-1]))
        g.mu = np.zeros_like(g.phi_0)
        assert sup_mu(g) == 0.0
        g.mu[3, 4, 5] = 2.5
        assert sup_mu(g) == 2.5


class TestSupportMeasures:
    def test_empty(self):
        ens = make_ensemble(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert momentum_support(ens) == 0.0
        assert max_momentum_spread(ens, 1.0) == 0.0

    def test_momentum_support_value(self):
        ens = make_ensemble([[0, 0, 0], [1, 0, 0]],
                            [[0.3, 0, 0], [0, -0.5, 0]], [1.0, 1.0])
        assert momentum_support(ens) == pytest.approx(0.5)

    def test_zero_weight_ignored(self):
        ens = make_ensemble([[0, 0, 0], [0, 0, 0]],
                            [[0.3, 0, 0], [5.0, 0, 0]], [1.0, 0.0])
        assert momentum_support(ens) == pytest.approx(0.3)

    def test_single_particle_spread_zero(self):
        ens = make_ensemble([[0, 0, 0]], [[0.3, 0, 0]], [1.0])
        assert momentum_spread(ens, [0, 0, 0], 1.0) == 0.0

    def test_spread_box_volume(self):
        ens = make_ensemble([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]],
                            [[0, 0, 0], [0.2, 0.1, 0.3], [0.1, 0.4, 0.1]],
                            [1.0, 1.0, 1.0])
        vol = momentum_spread(ens, [0, 0, 0], 1.0)
        assert vol == pytest.approx(0.2 * 0.4 * 0.3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.4, 0.4, (20, 3))
        p = rng.uniform(-1, 1, (20, 3))
        w = np.ones(20)
        ens = make_ensemble(x, p, w)
        perm = rng.permutation(20)
        ens2 = make_ensemble(x[perm], p[perm], w[perm])
        assert momentum_spread(ens, [0, 0, 0], 1.0) == pytest.approx(
            momentum_spread(ens2, [0, 0, 0], 1.0))

    def test_monotone_under_addition(self):
        x = [[0, 0, 0], [0.1, 0, 0]]
        p = [[0, 0, 0], [0.4, 0.4, 0.4]]
        base = momentum_spread(make_ensemble(x, p, [1, 1]), [0, 0, 0], 1.0)
        inside = momentum_spread(
            make_ensemble(x + [[0, 0.1, 0]], p + [[0.2, 0.2, 0.2]], [1, 1, 1]),
            [0, 0, 0], 1.0)
        outside = momentum_spread(
            make_ensemble(x + [[0, 0.1, 0]], p + [[0.9, 0.2, 0.2]], [1, 1, 1]),
            [0, 0, 0], 1.0)
        assert inside == pytest.approx(base)
        assert outside >= base

    def test_max_spread_over_cells(self):
        ens = make_ensemble([[0, 0, 0], [0.1, 0, 0], [3.0, 0, 0], [3.1, 0, 0]],
                            [[0, 0, 0], [0.1, 0.1, 0.1],
                             [0, 0, 0], [0.5, 0.5, 0.5]],
                            [1, 1, 1, 1])
        assert max_momentum_spread(ens, 1.0) == pytest.approx(0.5**3)


class TestFsc:
    def test_zero_field_satisfied(self):
        rep = check_fsc([(1.0, 0.5, 0.0)], [(1.0, 0.5, 0.0)], 0.6, 1.0, 1.0)
        assert rep.satisfied and rep.worst_k_margin == 0.0

    def test_boundary_margin_inclusive(self):
        beta, eta, R = 0.6, 0.3, 1.0
        t, xn = 2.0, 0.5
        wk = (1 + R + t + xn)**-beta * (1 + R + t - xn)**-beta
        rep = check_fsc([(t, xn, eta * wk)], [], beta, eta, R)
        assert rep.worst_k_margin == pytest.approx(1.0)
        assert rep.satisfied

    def test_violation_reported(self):
        beta, eta, R = 0.6, 0.3, 1.0
        t, xn = 2.0, 0.5
        wk = (1 + R + t + xn)**-beta * (1 + R + t - xn)**-beta
        rep = check_fsc([(t, xn, 2 * eta * wk)], [], beta, eta, R)
        assert not rep.satisfied
        assert rep.worst_k_margin == pytest.approx(2.0)
        assert rep.first_violation == (t, xn)

    def test_monotone_in_scaling(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(4, 10, 20)
        samples = [(float(t), float(xn), float(v)) for t, xn, v in
                   zip(ts, rng.uniform(0, 4, 20), rng.uniform(0, 0.01, 20))]
        rep1 = check_fsc(samples, samples, 0.6, 1.0, 1.0)
        scaled = [(t, xn, 3 * v) for t, xn, v in samples]
        rep2 = check_fsc(scaled, scaled, 0.6, 1.0, 1.0)
        assert rep2.worst_k_margin == pytest.approx(3 * rep1.worst_k_margin)
        assert rep1.satisfied or not rep2.satisfied

    def test_beta_range(self):
        with pytest.raises(ValueError):
            check_fsc([], [], 0.8, 1.0, 1.0)
        with pytest.raises(ValueError):
            check_fsc([], [], 0.5, 1.0, 1.0)


class TestDispersion:
    def test_free_flow_exact(self):
        p1 = np.array([0.3, 0.0, 0.0])
        p2 = np.array([0.6, 0.0, 0.0])
        ratio = dispersion_check(ZeroField(), [(np.zeros(3), p1, p2, 5.0)], dt=5.0)
        assert ratio == pytest.approx(free_flow_dispersion_ratio(p1, p2), rel=1e-12)

    def test_small_time_rejected(self):
        with pytest.raises(ValueError):
            dispersion_check(ZeroField(),
                             [(np.zeros(3), np.ones(3), np.zeros(3), 0.5)], 0.1)


class TestJacobianBound:
    def test_identity_at_zero(self):
        rep = jacobian_bound(ZeroField(), [(np.zeros(3), np.ones(3), 0.0)], 0.1)
        assert rep.max_abs == pytest.approx(1.0)
        assert rep.max_abs_x_block == pytest.approx(1.0)

    def test_free_flow_growth_in_p_block_only(self):
        p = np.array([0.3, 0.1, -0.2])
        rep = jacobian_bound(ZeroField(), [(np.zeros(3), p, 50.0)], dt=10.0)
        gamma = np.sqrt(1 + p @ p)
        phat = p / gamma
        dphat = (np.eye(3) - np.outer(phat, phat)) / gamma
        assert rep.max_abs == pytest.approx(50.0 * np.abs(dphat).max(), rel=1e-10)
        assert rep.max_abs_x_block == pytest.approx(1.0)


class TestSemilag:
    def test_free_transport_scaling(self):
        data = InitialData(
            f_in=make_bump([0.0] * 6, 1.0, 0.02, 2),
            phi0_in=make_bump([0.0] * 3, 1.0, 0.0, 3),
            phi1_in=make_bump([0.0] * 3, 1.0, 0.0, 2),
            support_radius_R=1.0)
        zf = ZeroField()
        _, mu1, sp1 = semilag_profile(20.0, zf, data, dt=20.0)
        _, mu2, sp2 = semilag_profile(40.0, zf, data, dt=40.0)
        assert mu1.max() / mu2.max() == pytest.approx(8.0, rel=0.3)
        assert sp1.max() / sp2.max() == pytest.approx(8.0, rel=0.3)
