import numpy as np
import pytest

from vnsim import wavefield
from vnsim.characteristics import ZeroField
from vnsim.diagnostics import (cone_maxima, fit_decay,
                               fsc_raw_margins, fsc_verdict,
                               grid_derivative_maps, max_momentum_spread,
                               measure_KL, momentum_support,
                               semilag_profile, sup_mu)
from vnsim.profiles import InitialData, make_bump
from vnsim.vlasov_pic import ParticleEnsemble
from vnsim.wavefield import GRAD, HESS, NOW, TIME_D1, TIME_D2, VALUE, difference
from tests.oracles import (assert_same_bits, dispersion_check,
                           free_flow_dispersion_ratio, jacobian_bound)
from tests.test_characteristics import special_rows
from tests.test_wavefield import grid_from_function


def make_ensemble(x, p, w):
    x = np.asarray(x, float).reshape(-1, 3)
    p = np.asarray(p, float).reshape(-1, 3)
    w = np.asarray(w, float).ravel()
    return ParticleEnsemble(x=x, p=p, w=w, w0=w.copy(),
                            phi0_at_x0=np.zeros(len(w)))


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
        assert measure_KL(g) == (0.0, 0.0)

    def test_unit_time_derivative(self):
        g = grid_from_function(lambda t, x: t * np.ones(x.shape[:-1]))
        assert measure_KL(g)[0] == pytest.approx(1.0)

    def test_time_plus_space(self):
        g = grid_from_function(lambda t, x: t + x[..., 0])
        assert measure_KL(g)[0] == pytest.approx(2.0)

    def test_l_time_squared(self):
        g = grid_from_function(lambda t, x: t**2 * np.ones(x.shape[:-1]))
        assert measure_KL(g)[1] == pytest.approx(2.0)

    def test_l_space_squared(self):
        g = grid_from_function(lambda t, x: x[..., 0]**2)
        assert measure_KL(g)[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("n_half", [3, 6])
    def test_equals_the_maps_origin_entry(self, n_half):
        # n_half = 3: the smallest cube a coupled config may have (R + pad
        # > 2 h), whose interior is the nodes 2 .. 4
        rng = np.random.default_rng(5)
        g = grid_from_function(lambda t, x: rng.standard_normal(x.shape[:-1]),
                               n_half=n_half)
        K, L, r = grid_derivative_maps(g)
        k, l = measure_KL(g)
        assert type(k) is float and type(l) is float
        assert np.count_nonzero(r == 0.0) == 1
        assert_same_bits(np.array([k, l]), np.array([K[r == 0.0][0], L[r == 0.0][0]]))

    def test_sup_mu(self):
        g = grid_from_function(lambda t, x: np.zeros(x.shape[:-1]))
        g.mu = np.zeros_like(g.phi_0)
        assert sup_mu(g) == 0.0
        g.mu[3, 4, 5] = 2.5
        assert sup_mu(g) == 2.5


def reference_maps(grid, max_radius=None):
    """The full-interior maps that the ball-bounded ones replaced."""
    n = grid.n_nodes
    levels = (grid.phi_m, grid.phi_0, grid.phi_p)

    def on_nodes(k, space):
        def shifted(off):
            i, j, l = off
            return levels[k + 1][2 + i:n - 2 + i, 2 + j:n - 2 + j, 2 + l:n - 2 + l]
        return space.combine(shifted)

    def d(time, space=VALUE):
        return difference(time, space, on_nodes, grid.dt, grid.h)

    acc = np.zeros((n - 4,) * 3)
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
    ax = grid.node_axis()[2:-2]
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    r = np.broadcast_to(np.sqrt(xx**2 + yy**2 + zz**2), K.shape)
    if max_radius is not None:
        sel = r <= max_radius
        return K[sel], L[sel], r[sel]
    return K.ravel(), L.ravel(), r.ravel()


class TestGridMapsAgainstReference:
    # h = 0.3, n = 23: interior nodes 2 .. 20 reach |x| = 2.7 on the axes
    # and 2.7 * sqrt(3) in the corners
    @pytest.mark.parametrize("max_radius", [
        None, -1.0, 0.0, 0.29, 0.3, 1.0, 2.55, 2.7, 3.0, 4.6, 4.7, 100.0, np.inf])
    def test_bitwise_equal(self, max_radius):
        rng = np.random.default_rng(9)
        g = grid_from_function(lambda t, x: rng.standard_normal(x.shape[:-1]),
                               h=0.3, dt=0.15, n_half=11)
        got = grid_derivative_maps(g, max_radius=max_radius)
        want = reference_maps(g, max_radius=max_radius)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        if max_radius is not None and max_radius >= 0:
            assert got[0].size > 0


def reference_ball_maps(grid, max_radius=None):
    """The ball-bounded maps in whole-sub-cube passes that the slab loop
    replaced."""
    n = grid.n_nodes
    lo, hi = 2, n - 2
    if max_radius is not None:
        reach = int(min(np.floor(max_radius / grid.h), n)) + 1
        lo = max(lo, grid.n_half - reach)
        hi = max(lo, min(hi, grid.n_half + reach + 1))
    levels = (grid.phi_m, grid.phi_0, grid.phi_p)

    def on_nodes(k, space):
        def shifted(off):
            i, j, l = off
            return levels[k + 1][lo + i:hi + i, lo + j:hi + j, lo + l:hi + l]
        return space.combine(shifted)

    def d(time, space=VALUE):
        return difference(time, space, on_nodes, grid.dt, grid.h)

    acc = np.zeros((hi - lo,) * 3)
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
    ax = grid.node_axis()[lo:hi]
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    r = np.broadcast_to(np.sqrt(xx**2 + yy**2 + zz**2), K.shape)
    if max_radius is not None:
        sel = r <= max_radius
        return K[sel], L[sel], r[sel]
    return K.ravel(), L.ravel(), r.ravel()


def random_grid():
    """h = 0.3, n = 23: the full interior has 19 x-planes of 19**2 nodes."""
    rng = np.random.default_rng(9)
    return grid_from_function(lambda t, x: rng.standard_normal(x.shape[:-1]),
                              h=0.3, dt=0.15, n_half=11)


class TestGridMapsSlabs:
    # SLAB_NODES = 1 gives one plane per slab on every sub-cube, 3 * 19**2
    # three planes of the full interior and a partial last slab.
    SLAB_NODES = [1, 3 * 19**2, None]

    @pytest.mark.parametrize("slab_nodes", SLAB_NODES)
    @pytest.mark.parametrize("max_radius", [-1.0, 0.0, 0.3, 3.0, np.inf, None])
    def test_bitwise_equal_to_whole_sub_cube(self, monkeypatch, slab_nodes,
                                             max_radius):
        if slab_nodes is not None:
            monkeypatch.setattr(wavefield, "SLAB_NODES", slab_nodes)
        g = random_grid()
        got = grid_derivative_maps(g, max_radius=max_radius)
        want = reference_ball_maps(g, max_radius=max_radius)
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.ndim == 1
            np.testing.assert_array_equal(a, b)
        assert (got[0].size == 0) == (max_radius is not None and max_radius < 0)

    @pytest.mark.parametrize("slab_nodes", SLAB_NODES)
    @pytest.mark.parametrize("max_radius", [-1.0, 0.3, 3.0, None])
    @pytest.mark.parametrize("width", [1, 4])
    def test_planes_concatenate_to_whole_ball(self, monkeypatch, slab_nodes,
                                              max_radius, width):
        # plane ranges of `width` that cover the cube and reach past both
        # ends; grid_derivative_maps clamps them to the ball's sub-cube
        if slab_nodes is not None:
            monkeypatch.setattr(wavefield, "SLAB_NODES", slab_nodes)
        g = random_grid()
        parts = [grid_derivative_maps(g, max_radius=max_radius, planes=(a, a + width))
                 for a in range(-2, g.n_nodes + 2, width)]
        want = grid_derivative_maps(g, max_radius=max_radius)
        for col, b in zip(zip(*parts), want):
            np.testing.assert_array_equal(np.concatenate(col), b)

    @pytest.mark.parametrize("slab_nodes", SLAB_NODES)
    # R + t: no interior node, one, and many
    @pytest.mark.parametrize("cone_radius", [-1.0, 0.0, 0.3, 3.0, np.inf])
    @pytest.mark.parametrize("nan", [False, True])
    def test_cone_maxima_equal_whole_ball(self, monkeypatch, slab_nodes,
                                          cone_radius, nan):
        if slab_nodes is not None:
            monkeypatch.setattr(wavefield, "SLAB_NODES", slab_nodes)
        g = random_grid()
        if nan:
            # beside the origin, on the plane after the origin's when slabs
            # are single planes; the stencils carry it into the K and L of
            # the origin and its neighbours, so every maximum is NaN
            g.phi_0[12, 11, 11] = np.nan
        R, beta = 1.0, 0.6
        t = cone_radius - R
        got = cone_maxima(g, t, R, beta)
        K, L, r = grid_derivative_maps(g, max_radius=R + t)
        if cone_radius < 0:
            assert got is None and K.size == 0
            return
        want = (K.max(), *fsc_raw_margins(K, L, r, t, R, beta))
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got).all() == nan


def reference_max_spread(ens, cell_size):
    """max_momentum_spread as a Python loop over the sorted hash segments."""
    live = ens.w > 0.0
    if np.count_nonzero(live) < 2:
        return 0.0
    x = ens.x[live]
    p = ens.p[live]
    keys = np.floor(x / cell_size).astype(np.int64)
    flat = (keys[:, 0] * 73856093) ^ (keys[:, 1] * 19349663) ^ (keys[:, 2] * 83492791)
    order = np.argsort(flat, kind="stable")
    flat, p = flat[order], p[order]
    bounds = np.nonzero(np.diff(flat))[0] + 1
    best = 0.0
    for lo, hi in zip(np.concatenate([[0], bounds]),
                      np.concatenate([bounds, [flat.size]])):
        if hi - lo >= 2:
            seg = p[lo:hi]
            best = max(best, float(np.prod(seg.max(axis=0) - seg.min(axis=0))))
    return best


def reference_momentum_support(ens):
    """momentum_support as np.linalg.norm over the live rows, kept as reference."""
    live = ens.w > 0.0
    if not np.any(live):
        return 0.0
    return float(np.linalg.norm(ens.p[live], axis=-1).max())


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

    # the spread tests below keep their particles in the cell [0, 1)^3,
    # unless they say otherwise
    def test_single_particle_spread_zero(self):
        ens = make_ensemble([[0, 0, 0]], [[0.3, 0, 0]], [1.0])
        assert max_momentum_spread(ens, 1.0) == 0.0

    def test_spread_box_volume(self):
        ens = make_ensemble([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]],
                            [[0, 0, 0], [0.2, 0.1, 0.3], [0.1, 0.4, 0.1]],
                            [1.0, 1.0, 1.0])
        vol = max_momentum_spread(ens, 1.0)
        assert vol == pytest.approx(0.2 * 0.4 * 0.3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.4, 0.4, (20, 3))  # 8 cells
        p = rng.uniform(-1, 1, (20, 3))
        w = np.ones(20)
        ens = make_ensemble(x, p, w)
        perm = rng.permutation(20)
        ens2 = make_ensemble(x[perm], p[perm], w[perm])
        assert max_momentum_spread(ens, 1.0) == max_momentum_spread(ens2, 1.0)

    def test_monotone_under_addition(self):
        x = [[0, 0, 0], [0.1, 0, 0]]
        p = [[0, 0, 0], [0.4, 0.4, 0.4]]
        base = max_momentum_spread(make_ensemble(x, p, [1, 1]), 1.0)
        inside = max_momentum_spread(
            make_ensemble(x + [[0, 0.1, 0]], p + [[0.2, 0.2, 0.2]], [1, 1, 1]), 1.0)
        outside = max_momentum_spread(
            make_ensemble(x + [[0, 0.1, 0]], p + [[0.9, 0.2, 0.2]], [1, 1, 1]), 1.0)
        assert inside == pytest.approx(base)
        assert outside >= base

    def test_max_spread_over_cells(self):
        ens = make_ensemble([[0, 0, 0], [0.1, 0, 0], [3.0, 0, 0], [3.1, 0, 0]],
                            [[0, 0, 0], [0.1, 0.1, 0.1],
                             [0, 0, 0], [0.5, 0.5, 0.5]],
                            [1, 1, 1, 1])
        assert max_momentum_spread(ens, 1.0) == pytest.approx(0.5**3)

    @pytest.mark.parametrize("cell_size", [0.25, 1.0])
    def test_max_spread_equals_segment_loop(self, cell_size):
        # hundreds of occupied cells, with one-particle cells and zero weights
        rng = np.random.default_rng(31)
        x = rng.normal(scale=2.0, size=(3000, 3))
        p = rng.normal(scale=0.5, size=(3000, 3))
        w = (rng.uniform(size=3000) > 0.1).astype(float)
        ens = make_ensemble(x, p, w)
        ref = reference_max_spread(ens, cell_size)
        assert ref > 0.0
        assert max_momentum_spread(ens, cell_size) == ref

    @pytest.mark.parametrize("cell_size", [0.25, 1.0])
    def test_max_spread_all_live_equals_segment_loop(self, cell_size):
        # every weight positive: the spread reads the ensemble's own arrays
        rng = np.random.default_rng(32)
        x = rng.normal(scale=2.0, size=(3000, 3))
        p = rng.normal(scale=0.5, size=(3000, 3))
        ens = make_ensemble(x, p, rng.uniform(0.5, 2.0, 3000))
        ref = reference_max_spread(ens, cell_size)
        assert ref > 0.0 and ref != 1.0
        assert max_momentum_spread(ens, cell_size) == ref
        assert np.array_equal(ens.x, x) and np.array_equal(ens.p, p)

    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_momentum_support_equals_norm(self, zero_weights):
        # the squares sum by columns; rows of signed zeros, infinities,
        # subnormals and 1e+-300, with and without the rows that hold NaN
        rows = special_rows()
        rng = np.random.default_rng(33)
        for p in (rows, rows[~np.isnan(rows).any(axis=1)],
                  rows[(np.abs(rows) < 1e300).all(axis=1)],
                  rng.normal(scale=0.5, size=(500, 3))):
            w = np.ones(len(p))
            if zero_weights:
                w[rng.uniform(size=len(p)) < 0.3] = 0.0
            ens = make_ensemble(np.zeros(p.shape), p, w)
            with np.errstate(over="ignore"):
                ref = reference_momentum_support(ens)
                got = momentum_support(ens)
            assert got == ref or (np.isnan(got) and np.isnan(ref))
        # one particle at a time, so that every row's norm is compared
        for row in rng.normal(scale=0.5, size=(200, 3)):
            ens = make_ensemble(np.zeros(3), row, [1.0])
            assert momentum_support(ens) == reference_momentum_support(ens)

    @pytest.mark.xfail(strict=True, reason="cells are grouped by a hash of "
                       "their indices, and cells (-3, -1, 3) and (-3, 1, -3) "
                       "share one")
    def test_max_spread_distinct_cells_with_one_hash(self):
        ens = make_ensemble([[-2.5, -0.5, 3.5], [-2.5, 1.5, -2.5]],
                            [[0, 0, 0], [1, 1, 1]], [1, 1])
        assert max_momentum_spread(ens, 1.0) == 0.0


class TestFsc:
    BETA, R = 0.6, 1.0

    def bound_k(self, t, xn):
        """w_K: the K bound of the decay hypothesis per unit eta."""
        return (1 + self.R + t + xn)**-self.BETA * (1 + self.R + t - xn)**-self.BETA

    def test_weight_formula(self):
        # beta = 1 at t = 2, |x| = 1.5: w_K = 1 / (5.5 * 2.5), w_L = w_K / 2.5
        k_raw, l_raw = fsc_raw_margins(np.ones(1), np.ones(1), np.array([1.5]),
                                       2.0, self.R, 1.0)
        assert k_raw == pytest.approx(5.5 * 2.5)
        assert l_raw == pytest.approx(5.5 * 2.5 * 2.5)

    def test_positive_up_to_the_cone_edge(self):
        for t in np.linspace(0, 10, 50):  # |x| = R + t edge included
            raw = fsc_raw_margins(np.ones(1), np.ones(1), np.array([self.R + t]),
                                  t, self.R, self.BETA)
            assert min(raw) > 0

    def test_zero_field_satisfied(self):
        zero = np.zeros(3)
        k_raw, l_raw = fsc_raw_margins(zero, zero, np.array([0.0, 0.5, 2.0]),
                                       1.0, self.R, self.BETA)
        assert (k_raw, l_raw) == (0.0, 0.0)
        ts = np.array([0.0, 1.0, 2.0])
        eta, bad = fsc_verdict(ts, np.zeros(3), np.zeros(3), 1.0, 2.0)
        assert eta == 1.0 and bad.size == 0
        # calibrating on all-zero margins falls back to eta = 1
        eta, bad = fsc_verdict(ts, np.zeros(3), np.zeros(3), 0.0, 2.0)
        assert eta == 1.0 and bad.size == 0

    def test_boundary_margin_inclusive(self):
        eta, t, xn = 0.3, 2.0, 0.5
        k = np.array([eta * self.bound_k(t, xn)])
        k_raw, _ = fsc_raw_margins(k, np.zeros(1), np.array([xn]), t, self.R, self.BETA)
        assert k_raw == pytest.approx(eta)
        _, bad = fsc_verdict([t], [k_raw], [0.0], eta, 2.0)
        assert bad.size == 0
        _, bad = fsc_verdict([t], [eta * (1 + 1e-8)], [0.0], eta, 2.0)
        assert bad.size == 1

    def test_violation_reported(self):
        eta, xn = 0.3, 0.5
        ts = [1.0, 2.0, 3.0]
        factors = [0.5, 2.0, 3.0]   # K over eta * w_K at each time
        k_raw = [fsc_raw_margins(np.array([f * eta * self.bound_k(t, xn)]),
                                 np.zeros(1), np.array([xn]), t, self.R, self.BETA)[0]
                 for t, f in zip(ts, factors)]
        assert k_raw[1] == pytest.approx(2.0 * eta)
        _, bad = fsc_verdict(ts, k_raw, np.zeros(3), eta, 2.0)
        assert bad[0] == 2.0 and bad.size == 2
        # calibrated on t <= 2, eta is the largest early margin: no violation
        # before t = 3
        eta_cal, bad = fsc_verdict(ts, k_raw, np.zeros(3), 0.0, 2.0)
        assert eta_cal == k_raw[1] and list(bad) == [3.0]

    def test_l_margin_carries_one_more_power(self):
        eta, t, xn = 0.3, 2.0, 0.5
        l_val = np.array([eta * self.bound_k(t, xn) / (1 + self.R + t - xn)])
        _, l_raw = fsc_raw_margins(np.zeros(1), l_val, np.array([xn]), t,
                                   self.R, self.BETA)
        assert l_raw == pytest.approx(eta)

    def test_monotone_in_scaling(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(4, 10, 20)
        r = rng.uniform(0, 4, 20)
        vals = rng.uniform(0, 0.01, (20, 20))
        raw1 = np.array([fsc_raw_margins(v, v, r, t, self.R, self.BETA)
                         for t, v in zip(ts, vals)])
        raw3 = np.array([fsc_raw_margins(3 * v, 3 * v, r, t, self.R, self.BETA)
                         for t, v in zip(ts, vals)])
        np.testing.assert_allclose(raw3, 3 * raw1, rtol=1e-14)
        eta = 1.5 * raw1.max()
        _, bad1 = fsc_verdict(ts, raw1[:, 0], raw1[:, 1], eta, 2.0)
        _, bad3 = fsc_verdict(ts, raw3[:, 0], raw3[:, 1], eta, 2.0)
        assert bad1.size == 0 and bad3.size > 0
        assert set(bad1) <= set(bad3)


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
