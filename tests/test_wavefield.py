import itertools

import numpy as np
import pytest

from vnsim import wavefield
from vnsim.characteristics import ZeroField
from vnsim.errors import ConfigError, DomainTooSmallError, OutOfHistoryError
from vnsim.profiles import InitialData, make_bump
from vnsim.wavefield import (FieldGrid, GridFieldHistory,
                             _laplacian, discrete_energy,
                             fdtd_step, field_derivatives, make_field_grid,
                             retarded_potential, unit_sphere_quadrature)
from tests.oracles import (AnalyticField, assert_same_bits,
                           kirchhoff_homogeneous)


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
        levels = {name: getattr(g, name).copy() for name in ("phi_0", "phi_p")}
        nh = g.n_half
        g.ensure_extent(8.0)
        off = g.n_half - nh
        for name, before in levels.items():
            grown = getattr(g, name)
            np.testing.assert_array_equal(
                grown[off:off + before.shape[0], off:off + before.shape[0],
                      off:off + before.shape[0]], before)
            assert np.all(grown[:off] == 0.0)

    def test_failed_growth_leaves_grid_unchanged(self, monkeypatch):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        g.mu = np.ones_like(g.phi_0)
        names = ("phi_m", "phi_0", "phi_p", "mu")
        before = {name: getattr(g, name) for name in names}
        n_half = g.n_half
        real_zeros = np.zeros
        calls = []

        def second_fails(shape, *args, **kwargs):
            calls.append(shape)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", second_fails)
        with pytest.raises(MemoryError):
            g.ensure_extent(8.0)
        monkeypatch.undo()
        assert len(calls) == 2
        assert g.n_half == n_half
        for name in names:
            assert getattr(g, name) is before[name]
            assert getattr(g, name).shape == (2 * n_half + 1,) * 3

    def test_growth_allocates_and_copies_only_the_read_levels(self, monkeypatch):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        before = {name: getattr(g, name) for name in ("phi_m", "mu")}
        real_zeros = np.zeros
        calls = []

        def counting(shape, *args, **kwargs):
            calls.append(shape)
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", counting)
        g.ensure_extent(8.0)
        monkeypatch.undo()
        assert calls == [(g.n_nodes,) * 3] * 2
        # the step writes phi_m and mu before anything reads them, so a
        # growth drops them
        for name in before:
            assert getattr(g, name) is None

    def test_growth_drops_mu_without_levels(self):
        # a free grid's mu would otherwise keep the old cube's indices
        g = FieldGrid.at_start(1.0, 0.5, 0.25, 0.0)
        g.mu, g.mu_origin = np.ones((2, 2, 2)), (1, 1, 1)
        g.ensure_extent(4.0)
        assert g.mu is None and g.phi_0 is None and g.n_half == 10


class TestFdtdStep:
    def test_energy_conserved_homogeneous(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        assert g.mu.size == 0  # no source: +0.0 everywhere
        fdtd_step(g)
        e0 = discrete_energy(g)
        for _ in range(10):
            fdtd_step(g)
        assert discrete_energy(g) == pytest.approx(e0, rel=1e-12)

    def test_boundary_activation_raises(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=0.5)
        with pytest.raises(DomainTooSmallError):
            for _ in range(40):
                fdtd_step(g)

    @pytest.mark.parametrize("shape, origin", [((3, 3, 3), (11, 0, 0)),
                                               ((3, 3, 3), (0, -1, 0)),
                                               ((14, 1, 1), (0, 0, 0)),
                                               ((13, 13), (0, 0, 0))])
    def test_source_box_outside_the_cube_raises(self, shape, origin):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25)
        assert g.n_nodes == 13
        g.mu, g.mu_origin = np.zeros(shape), origin
        levels = (g.phi_m, g.phi_0, g.phi_p)
        with pytest.raises(ValueError, match="does not fit"):
            fdtd_step(g)
        assert all(a is b for a, b in zip((g.phi_m, g.phi_0, g.phi_p), levels))
        assert g.t == 0.0

    def test_sponge_only_acts_outside(self):
        g = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        g2 = make_field_grid(wave_data(), h=0.5, dt=0.25, pad=6.0)
        fdtd_step(g)
        fdtd_step(g2, sponge_radius=2.0)
        c = g.n_half
        np.testing.assert_array_equal(g.phi_p[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3],
                                      g2.phi_p[c - 2:c + 3, c - 2:c + 3, c - 2:c + 3])


def reference_laplacian(phi, h):
    """The shifted-slice Laplacian that the flat-offset one replaced."""
    lap = np.zeros_like(phi)
    lap[1:-1, 1:-1, 1:-1] = (
        phi[2:, 1:-1, 1:-1] + phi[:-2, 1:-1, 1:-1]
        + phi[1:-1, 2:, 1:-1] + phi[1:-1, :-2, 1:-1]
        + phi[1:-1, 1:-1, 2:] + phi[1:-1, 1:-1, :-2]
        - 6.0 * phi[1:-1, 1:-1, 1:-1]
    ) / h**2
    return lap


def reference_fdtd_step(grid, mu, sponge_radius=None):
    """The leapfrog step with full-size temporaries that fdtd_step replaced."""
    new = 2.0 * grid.phi_p - grid.phi_0 + grid.dt**2 * (
        reference_laplacian(grid.phi_p, grid.h) - mu
    )
    if sponge_radius is not None:
        ax = grid.node_axis()
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(xx**2 + yy**2 + zz**2)
        sigma = 0.25 * np.clip((r - sponge_radius) / 3.0, 0.0, 1.0) ** 2
        new *= 1.0 - sigma
    edge = max(np.abs(new[:2]).max(initial=0), np.abs(new[-2:]).max(initial=0),
               np.abs(new[:, :2]).max(initial=0), np.abs(new[:, -2:]).max(initial=0),
               np.abs(new[:, :, :2]).max(initial=0), np.abs(new[:, :, -2:]).max(initial=0))
    scale = float(np.abs(new).max())
    if scale > 0.0 and edge > 1e-4 * scale:
        raise DomainTooSmallError("field reached within 2 cells of the boundary")
    grid.phi_m, grid.phi_0, grid.phi_p = grid.phi_0, grid.phi_p, new
    grid.mu = mu
    grid.t += grid.dt
    return grid


def copy_grid(g):
    return FieldGrid(h=g.h, dt=g.dt, n_half=g.n_half, t=g.t, phi_m=g.phi_m.copy(),
                     phi_0=g.phi_0.copy(), phi_p=g.phi_p.copy(), mu=g.mu.copy(),
                     mu_origin=g.mu_origin)


def step_with(grid, mu, sponge_radius=None):
    """fdtd_step with the cube `mu` as the grid's source, the box at origin 0."""
    grid.mu, grid.mu_origin = mu, (0, 0, 0)
    return fdtd_step(grid, sponge_radius=sponge_radius)


def steps_through_sponge_shell(n_half, sponge):
    """Three steps of fdtd_step and reference_fdtd_step from one rough field
    that fills |x| < 3.5, across the sponge shell 1.5 < r < 4.5, and stays
    off the two edge cells (h = 0.5); both must agree bitwise."""
    rng = np.random.default_rng(4)
    h, dt = 0.5, 0.25
    ax = (np.arange(2 * n_half + 1) - n_half) * h
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    inside = np.sqrt(xx**2 + yy**2 + zz**2) < 3.5
    shape = xx.shape
    g = FieldGrid(h=h, dt=dt, n_half=n_half, t=0.0,
                  phi_m=np.zeros(shape), phi_0=rng.standard_normal(shape) * inside,
                  phi_p=rng.standard_normal(shape) * inside, mu=np.zeros(shape))
    ref = copy_grid(g)
    for _ in range(3):
        mu = rng.standard_normal(shape) * inside
        kept = (g.phi_0, g.phi_p)
        saved = tuple(a.copy() for a in kept)
        step_with(g, mu, sponge)
        reference_fdtd_step(ref, mu, sponge_radius=sponge)
        np.testing.assert_array_equal(g.phi_p, ref.phi_p)
        np.testing.assert_array_equal(np.signbit(g.phi_p), np.signbit(ref.phi_p))
        np.testing.assert_array_equal(g.phi_0, ref.phi_0)
        # the stored levels are never written in place
        for a, b in zip(kept, saved):
            np.testing.assert_array_equal(a, b)
    assert g.t == ref.t


def boundary_outcomes():
    """{d: raised} for a unit point d cells from each face, after checking
    that fdtd_step and reference_fdtd_step raise at the same edges.

    A point d cells from a face spreads to d - 1 in one step; the check
    fires when the field is within 2 cells of the boundary.
    """
    h, dt, n_half = 0.5, 0.25, 6
    n = 2 * n_half + 1
    raised = {}
    for axis in range(3):
        for d in range(5):
            for index in (d, n - 1 - d):
                g = FieldGrid(h=h, dt=dt, n_half=n_half, t=0.0,
                              phi_m=np.zeros((n,) * 3), phi_0=np.zeros((n,) * 3),
                              phi_p=np.zeros((n,) * 3), mu=np.zeros((n,) * 3))
                node = [n_half] * 3
                node[axis] = index
                g.phi_p[tuple(node)] = 1.0
                outcome = []
                for step_fn, grid in ((step_with, g), (reference_fdtd_step,
                                                       copy_grid(g))):
                    try:
                        step_fn(grid, np.zeros((n,) * 3), sponge_radius=1.0)
                        outcome.append(False)
                    except DomainTooSmallError:
                        outcome.append(True)
                assert outcome[0] == outcome[1], (axis, index)
                raised[d] = outcome[0]
    return raised


class TestFdtdAgainstReference:
    def test_laplacian_bitwise_with_boundary_values(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 9, 24):
            phi = rng.standard_normal((n, n, n))
            for h in (0.5, 0.3):
                np.testing.assert_array_equal(_laplacian(phi, h),
                                              reference_laplacian(phi, h))

    @pytest.mark.parametrize("sponge", [None, 1.5])
    def test_steps_bitwise_through_sponge_shell(self, sponge):
        steps_through_sponge_shell(13, sponge)

    def test_boundary_error_at_the_same_edges(self):
        assert boundary_outcomes() == {0: True, 1: True, 2: True, 3: False, 4: False}


# SLAB_NODES as one x-plane per slab, as three (n = 25 leaves a partial last
# slab of one plane) and the default
SLAB_PLANES = [1, 3, None]


def patch_slabs(monkeypatch, planes, n):
    if planes is not None:
        monkeypatch.setattr(wavefield, "SLAB_NODES", planes * n * n)


class TestFdtdSlabs:
    def test_laplacian_plane_ranges_bitwise(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4, 9):
            phi = rng.standard_normal((n, n, n))
            ref = reference_laplacian(phi, 0.3)
            for a in range(n):
                for b in range(a + 1, n + 1):
                    out = np.full((b - a, n, n), np.nan)
                    got = _laplacian(phi, 0.3, (a, b), out)
                    assert got is out
                    np.testing.assert_array_equal(got, ref[a:b])
                    np.testing.assert_array_equal(np.signbit(got),
                                                  np.signbit(ref[a:b]))

    @pytest.mark.parametrize("planes", SLAB_PLANES)
    @pytest.mark.parametrize("sponge", [None, 1.5])
    def test_steps_bitwise_through_sponge_shell(self, monkeypatch, planes, sponge):
        patch_slabs(monkeypatch, planes, 25)
        steps_through_sponge_shell(12, sponge)

    @pytest.mark.parametrize("planes", SLAB_PLANES)
    def test_boundary_error_at_the_same_edges(self, monkeypatch, planes):
        patch_slabs(monkeypatch, planes, 13)
        assert boundary_outcomes() == {0: True, 1: True, 2: True, 3: False, 4: False}

    @pytest.mark.parametrize("planes", SLAB_PLANES)
    def test_nan_level_is_left_to_the_nan_check(self, monkeypatch, planes):
        # a NaN makes the scale NaN, so a field at the edge raises no
        # DomainTooSmallError: the run's NaN check reports it instead
        patch_slabs(monkeypatch, planes, 13)
        n = 13
        g = FieldGrid(h=0.5, dt=0.25, n_half=6, t=0.0, phi_m=np.zeros((n,) * 3),
                      phi_0=np.zeros((n,) * 3), phi_p=np.zeros((n,) * 3),
                      mu=np.zeros((n,) * 3))
        g.phi_p[6, 6, 1] = 1.0
        mu = np.zeros((n,) * 3)
        mu[6, 6, 6] = np.nan
        ref = copy_grid(g)
        step_with(g, mu, 1.0)
        reference_fdtd_step(ref, mu, sponge_radius=1.0)
        assert np.isnan(g.phi_p[6, 6, 6])
        np.testing.assert_array_equal(g.phi_p, ref.phi_p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.parametrize("node", [(6, 6, 6), (6, 0, 6), (6, 6, 12)],
                             ids=["centre", "y-face", "z-face"])
    def test_non_finite_level_raises_as_the_reference(self, value, node):
        # a field at the z = 1 plane, and a source value that puts a NaN,
        # an infinity or a huge finite value into the new level at `node`:
        # only a finite level can raise, and then as the reference does
        n = 13
        g = FieldGrid(h=0.5, dt=0.25, n_half=6, t=0.0, phi_m=np.zeros((n,) * 3),
                      phi_0=np.zeros((n,) * 3), phi_p=np.zeros((n,) * 3),
                      mu=np.zeros((n,) * 3))
        g.phi_p[6, 6, 1] = 1.0
        mu = np.zeros((n,) * 3)
        mu[node] = value
        outcomes = []
        for step_fn, grid in ((step_with, g), (reference_fdtd_step, copy_grid(g))):
            try:
                step_fn(grid, mu, sponge_radius=1.0)
                outcomes.append(False)
            except DomainTooSmallError:
                outcomes.append(True)
        assert outcomes == [np.isfinite(value) and node != (6, 6, 6)] * 2

    def test_slabs_cover_the_planes_in_order(self, monkeypatch):
        monkeypatch.setattr(wavefield, "SLAB_NODES", 3 * 49)
        assert list(wavefield._slabs(2, 9, 49)) == [(2, 5), (5, 8), (8, 9)]
        # a plane larger than SLAB_NODES still makes one-plane slabs
        assert list(wavefield._slabs(0, 2, 1000)) == [(0, 1), (1, 2)]


class TestFieldDerivatives:
    # nodes 2 .. 10, 3 .. 7 and 4 .. 9 of the 13-node cube: its whole
    # interior on x, and the origin (node 6) with nodes off every axis
    BOX = ((2, 3, 4), (9, 5, 6))

    def test_exact_on_quadratics_at_every_node(self):
        def fn(t, x):
            return (0.3 * t**2 + 0.5 * t - 1.0 + x[..., 0] * 2.0
                    + 0.25 * x[..., 1]**2 + 0.1 * x[..., 0] * x[..., 2]
                    + 0.7 * t * x[..., 1])

        g = grid_from_function(fn)
        first, shape = self.BOX
        x, y, z = np.meshgrid(*((np.arange(m) + f - g.n_half) * g.h
                                for f, m in zip(first, shape)), indexing="ij")
        t = g.t
        dt_phi = 0.6 * t + 0.5 + 0.7 * y
        grad = np.sqrt((2.0 + 0.1 * z)**2 + (0.5 * y + 0.7 * t)**2 + (0.1 * x)**2)
        # |dt2 phi| + |dt grad phi| + max |hess entries| = 0.6 + 0.7 + 0.5
        K, L = field_derivatives(g, first, shape)
        assert K.shape == L.shape == shape
        np.testing.assert_allclose(K, np.abs(dt_phi) + grad, rtol=1e-12)
        np.testing.assert_allclose(L, np.full(shape, 1.8), rtol=1e-12)


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
            fdtd_step(g)
        hist = GridFieldHistory()
        hist.append(g.t, g.phi_0, g.h, g.n_half)
        probes = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [-1.0, 0.5, 0.5]])
        exact = np.array([kirchhoff_homogeneous(t_end, x, data) for x in probes])
        num = hist.phi(t_end, probes)
        assert np.abs(num - exact).max() <= 0.05 * np.abs(exact).max()


class TestRetardedPotential:
    def test_static_ball_closed_form(self):
        src = AnalyticField(
            lambda s, y: (np.sum(y * y, axis=-1) <= 1.0).astype(float))
        val = retarded_potential(1.0, np.zeros(3), src, shell_width=0.05)
        assert val == pytest.approx(-0.5, rel=1e-10)

    def test_zero_time(self):
        src = AnalyticField(lambda s, y: np.ones(y.shape[:-1]))
        assert retarded_potential(0.0, np.zeros(3), src, 0.05) == 0.0

    def test_reads_level_store(self):
        # mu = 1 on a cube that holds the unit ball, at t = 0 and t = 1
        hist = GridFieldHistory()
        for t in (0.0, 1.0):
            hist.append(t, np.ones((17, 17, 17)), 0.5, 8)
        val = retarded_potential(1.0, np.zeros(3), hist, shell_width=0.05)
        assert val == pytest.approx(-0.5, rel=1e-10)

    def test_history_coverage_required(self):
        hist = GridFieldHistory()
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


class TestDerivativeBound:
    """derivative_bound(t0, t1) is at least |dt phi| + |grad phi| as
    first_derivs returns them, at any point and any time in [t0, t1]."""

    TIMES = (0.0, 0.5, 1.0, 1.5)
    N_HALF = (8, 8, 10, 10)  # the grid grows between t = 0.5 and t = 1
    H = 0.5

    def history(self, dtype, count=4):
        rng = np.random.default_rng(7)
        hist = GridFieldHistory(dtype=dtype)
        for k in range(count):
            nh = self.N_HALF[k]
            # later levels are larger, so the first bracket's bound is too
            # small for the later ones
            hist.append(self.TIMES[k],
                        (1 + 2 * k) * rng.standard_normal((2 * nh + 1,) * 3),
                        self.H, nh)
        return hist

    def points(self, n_half, seed=3):
        """Random points over the smaller cube and beyond, and nodes."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-(n_half + 2) * self.H, (n_half + 2) * self.H, (3000, 3))
        x[:1000] = self.H * rng.integers(-n_half, n_half + 1, (1000, 3))
        return x

    @staticmethod
    def sampled(hist, t, x):
        dt_phi, grad = hist.first_derivs(t, x)
        return np.abs(dt_phi) + np.linalg.norm(grad, axis=-1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("t0, t1", [(0.0, 0.5), (0.1, 0.3), (0.5, 1.0),
                                        (0.75, 1.25), (0.0, 1.5), (1.5, 1.5)])
    def test_bound_holds_at_points_and_bracket_times(self, dtype, t0, t1):
        hist = self.history(dtype)
        bound = hist.derivative_bound(t0, t1)
        assert bound == hist.derivative_bound(t1, t0)
        # the ends, inner times and every level time in [t0, t1]
        times = {t0, t1, *np.linspace(t0, t1, 5)[1:-1],
                 *(tk for tk in self.TIMES if t0 <= tk <= t1)}
        x = self.points(max(self.N_HALF))
        top = max(self.sampled(hist, t, x).max() for t in times)
        assert top <= bound < 3 * top

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_level(self, dtype):
        hist = self.history(dtype, count=1)
        x = self.points(self.N_HALF[0])
        top = self.sampled(hist, 0.0, x).max()
        assert top <= hist.derivative_bound(0.0, 0.0) < 3 * top

    def test_a_nan_node_gives_no_finite_bound(self):
        hist = self.history(np.float32, count=3)
        hist._levels[1][0][0, 5, 5] = np.nan
        assert np.isnan(hist.derivative_bound(0.0, 0.25))
        assert np.isnan(hist.derivative_bound(0.75, 1.0))

    def test_large_phi_gives_no_finite_bound(self):
        hist = GridFieldHistory()
        hist.append(0.0, np.full((9, 9, 9), GridFieldHistory.PHI_CAP), 0.5, 4)
        hist.append(1.0, np.zeros((9, 9, 9)), 0.5, 4)
        assert hist.derivative_bound(0.0, 1.0) == np.inf

    def test_other_views(self):
        assert ZeroField().derivative_bound(0.0, 5.0) == 0.0
        assert GridFieldHistory().derivative_bound(0.0, 1.0) == np.inf
        fld = AnalyticField(lambda t, x: 0 * x[..., 0])
        assert fld.derivative_bound(0.0, 1.0) == np.inf


def reference_node_maxima(phi, h):
    """(max |grad| over the nodes 1 .. n - 2, max |phi|) of a level from
    hand-written central differences of the whole float64-cast level, the
    factor 0.5 taken after the root."""
    s = phi.astype(float)
    gx = s[2:, 1:-1, 1:-1] - s[:-2, 1:-1, 1:-1]
    gy = s[1:-1, 2:, 1:-1] - s[1:-1, :-2, 1:-1]
    gz = s[1:-1, 1:-1, 2:] - s[1:-1, 1:-1, :-2]
    g2 = (gx * gx + gy * gy + gz * gz).max()
    return float(0.5 * np.sqrt(g2) / h), float(np.abs(phi).max())


class TestNodeMaxima:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
    @pytest.mark.parametrize("planes", [1, 4, None])  # x-planes per slab
    def test_bits_equal_the_hand_written_differences(self, monkeypatch, dtype,
                                                     scale, planes):
        # 15 planes: 4 per slab leaves a partial last slab, and 1 makes
        # slabs of an end plane alone, which hold no gradient node
        n_half, h = 7, 1 / 3
        if planes is not None:
            monkeypatch.setattr(wavefield, "SLAB_NODES", planes * (2 * n_half + 1) ** 2)
        hist = GridFieldHistory(dtype=dtype)
        for k, level in enumerate(random_levels(np.float64, 3, n_half, seed=21)):
            hist.append(0.5 * k, scale * level, h, n_half)
        for k in range(3):
            assert hist._node_maxima(k) == reference_node_maxima(hist._levels[k][0], h)


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
        hist = GridFieldHistory(dtype=dtype)
        for tk, lv, nh in zip(self.TIMES, levels, self.N_HALF):
            hist.append(tk, lv, self.H, nh)
        # two cells inside the smaller level, where the reference is exact
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (400, 3))
        # values of order 1 combine at most 4 terms per node, then divide by h^2
        atol = 64 * np.finfo(dtype).eps / self.H**2

        phi, dt_phi = self.reference(levels, t, x)
        np.testing.assert_allclose(hist.phi(t, x), phi, rtol=0, atol=atol)
        got_dt, got_grad = hist.first_derivs(t, x)
        np.testing.assert_allclose(got_dt, dt_phi, rtol=0, atol=atol / self.H**2)
        for k in range(3):
            grad, _ = self.reference(levels, t, x, REF_GRAD[k], order=1)
            np.testing.assert_allclose(got_grad[:, k], grad, rtol=0, atol=atol)


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


def reference_sample_levels(columns, h, n_half, x):
    """The per-corner sampler the box table joined: each of the 8 corners
    combines every (level, stencil) column from its own gathers of the full
    level."""
    x = np.asarray(x, dtype=float)
    n = columns[0][0].shape[0]
    u = x.reshape(-1, 3) / h + n_half
    i0 = np.floor(u).astype(np.intp)
    frac = u - i0
    valid = np.all((i0 >= 1) & (i0 <= n - 3), axis=-1)
    i0[~valid] = 1
    low = ((i0[:, 0] - 1) * n + i0[:, 1] - 1) * n + i0[:, 2] - 1
    weights = [(1.0 - frac[:, ax], frac[:, ax]) for ax in range(3)]
    strides = np.array([n * n, n, 1])
    out = np.zeros((len(columns), low.size))
    for corner in itertools.product((0, 1), repeat=3):
        w = weights[0][corner[0]] * weights[1][corner[1]] * weights[2][corner[2]]
        start = np.add(corner, 1) @ strides
        for (level, stencil), acc in zip(columns, out):
            flat = np.ravel(level)
            acc += w * stencil.combine(
                lambda off: flat[start + off @ strides:].take(low))
    out[..., ~valid] = 0.0
    return out.reshape(out.shape[:1] + x.shape[:-1])


def every(levels, stencils):
    """The columns of every stencil on every level, level-major."""
    return list(itertools.product(levels, stencils))


STENCIL_SETS = {
    "value": (wavefield.VALUE,),
    "first": (wavefield.VALUE, *wavefield.GRAD),
    "second": (*wavefield.GRAD, *wavefield.HESS.values()),
}
N_HALF = 6  # 13 nodes a side; sampled cells have lower corner 1 .. 10


def random_levels(dtype, count=2, n_half=N_HALF, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((2 * n_half + 1,) * 3).astype(dtype)
            for _ in range(count)]


def points_in_cells(cells, count, seed=11, h=0.5):
    """`count` points spread over the cells with lower corner 4 .. 3 + cells
    on each axis, plus exact node and face positions; their corner box
    holds (cells + 1)**3 nodes."""
    rng = np.random.default_rng(seed)
    u = 4 + rng.uniform(0.0, cells, (count, 3))
    u[: count // 4] = np.round(u[: count // 4])  # nodes, faces, edges
    u = np.minimum(u, 4 + cells - 1e-9)  # keep the top face in the last cell
    return (u - N_HALF) * h


def points_with_outside(count, seed=13, h=0.5):
    """Points over the whole cube and beyond: many lie in cells without
    neighbours or off the grid, and are sampled as 0."""
    edges = [[0.5, 5, 5], [5, 11.5, 5], [5, 5, 10.99], [1e3, -1e3, 5]]
    u = np.random.default_rng(seed).uniform(-3.0, 2 * N_HALF + 4.0, (count, 3))
    u[:4] = np.array(edges)[:count]
    return (u - N_HALF) * h


class TestSampleLevelsAgainstReference:
    """The box table and the chunked per-corner gather give the reference
    sampler's bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stencils", STENCIL_SETS)
    @pytest.mark.parametrize("n_levels", [1, 2])
    @pytest.mark.parametrize("points", [
        points_in_cells(2, 27),      # a 27-node box, 27 points: the table
        points_in_cells(2, 26),      # 26 points: the per-corner gather
        points_in_cells(4, 400),     # a 125-node box: the table
        points_in_cells(9, 300),     # a 1000-node box: the gather
        points_with_outside(500),    # the whole cube: the gather
        points_with_outside(3000),   # the table, with zeroed points
        np.zeros((0, 3)),
        np.array([0.1, -0.2, 0.3]),  # one point, no point axis
    ], ids=["table-27", "gather-26", "table-125", "gather-1000",
            "gather-outside", "table-outside", "none", "single"])
    def test_bits_equal_the_reference(self, dtype, stencils, n_levels, points):
        levels = random_levels(dtype, n_levels)
        st = STENCIL_SETS[stencils]
        ref = reference_sample_levels(every(levels, st), 0.5, N_HALF, points)
        got = wavefield.sample_levels(every(levels, st), 0.5, N_HALF, points)
        assert_same_bits(got, ref)

    def test_table_rule_sides(self):
        # the fixtures above fall on the intended side of the rule: a box
        # of (cells + 1)**3 corner nodes against the point count
        for cells, count, table in [(2, 27, True), (2, 26, False),
                                    (4, 400, True), (9, 300, False)]:
            u = points_in_cells(cells, count) / 0.5 + N_HALF
            i0 = np.floor(u).astype(int)
            box = np.prod(i0.max(axis=0) + 2 - i0.min(axis=0))
            assert box == (cells + 1) ** 3
            assert (box <= count) == table

    def test_points_outside_are_zero(self):
        levels = random_levels(np.float64)
        x = points_with_outside(3000)
        got = wavefield.sample_levels(every(levels, STENCIL_SETS["first"]),
                                      0.5, N_HALF, x)
        i0 = np.floor(x / 0.5 + N_HALF)
        outside = np.any((i0 < 1) | (i0 > 2 * N_HALF - 2), axis=-1)
        assert outside.sum() > 100 and (~outside).sum() > 100
        assert np.all(got[..., outside] == 0.0)
        assert not np.any(np.signbit(got[..., outside]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("points", [500, 3000], ids=["gather", "table"])
    def test_non_finite_points_sample_zero(self, points):
        # no cast of a NaN, an infinity or a cell beyond intp: under
        # -W error such a cast's RuntimeWarning fails the test
        levels = random_levels(np.float64, 2)
        st = STENCIL_SETS["second"]
        x = points_with_outside(points)
        bad = [np.nan, np.inf, -np.inf, 1e300]
        rows = np.arange(5, 5 + 4 * len(bad) * 3, 3)
        for k, row in enumerate(rows):
            x[row, k % 3] = bad[k % len(bad)]
        x[rows[-1]] = np.nan
        ref = reference_sample_levels(every(levels, st), 0.5, N_HALF,
                                      np.delete(x, rows, axis=0))
        got = wavefield.sample_levels(every(levels, st), 0.5, N_HALF, x)
        assert_same_bits(np.delete(got, rows, axis=-1), ref)
        assert_same_bits(got[..., rows], np.zeros(got.shape[:-1] + (len(rows),)))
        # and with no point inside
        got = wavefield.sample_levels(every(levels, st), 0.5, N_HALF, x[rows])
        assert_same_bits(got, np.zeros(got.shape))

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("stencils", ["first", "second"])
    def test_chunk_edges(self, monkeypatch, chunk, extra, stencils):
        st = STENCIL_SETS[stencils]
        levels = random_levels(np.float32)
        width = len(levels) * len(st)
        if chunk is None:
            chunk = wavefield.SLAB_NODES // (2 * width)
        else:
            monkeypatch.setattr(wavefield, "SLAB_NODES", 2 * width * chunk)
        # chunk +- 1 points, and 50 points in a 27-node box (the table) to
        # give the small chunks a full and a partial last chunk there too
        for x in (points_with_outside(chunk + extra), points_in_cells(2, 50)):
            ref = reference_sample_levels(every(levels, st), 0.5, N_HALF, x)
            got = wavefield.sample_levels(every(levels, st), 0.5, N_HALF, x)
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_history_with_two_geometries(self, monkeypatch, dtype, t):
        # t = 0, 0.5 share a geometry and are sampled together; the cube
        # grows before t = 1, so that pair is sampled level by level
        levels = (random_levels(dtype, 2, 6, seed=1)
                  + random_levels(dtype, 1, 8, seed=2))
        hist = GridFieldHistory(dtype=dtype)
        for tk, lv, nh in zip((0.0, 0.5, 1.0), levels, (6, 6, 8)):
            hist.append(tk, lv, 0.5, nh)
        clustered = points_in_cells(3, 200)
        spread = np.random.default_rng(4).uniform(-3.5, 3.5, (60, 3))

        def read(x):
            return hist.phi(t, x), *hist.first_derivs(t, x)

        for x in (clustered, spread):
            got = read(x)
            with monkeypatch.context() as m:
                m.setattr(wavefield, "sample_levels", reference_sample_levels)
                ref = read(x)
            for g, r in zip(got, ref):
                assert_same_bits(np.asarray(g), np.asarray(r))


def points_in_edge_cells(count, seed=17, h=0.5):
    """Points in the first and the last valid cell of each axis (lower
    corner 1 and 2 * N_HALF - 2), mixed per axis, so their corner box is
    the whole cube less one face per axis and the sampler gathers per
    corner for any count below (2 * N_HALF)**3."""
    rng = np.random.default_rng(seed)
    cell = rng.choice([1, 2 * N_HALF - 2], size=(count, 3))
    u = cell + rng.uniform(0.0, 1.0, (count, 3))
    u[:3] = [[1, 1, 1], [2 * N_HALF - 2] * 3, [1, 2 * N_HALF - 2, 1.5]]
    return (u - N_HALF) * h


# widths (levels x stencils) 1, 8 and 30: a history's phi, a bracket's
# first_derivs, and every stencil up to the Hessian on three levels, wider
# than any run's gather
CORNER_WIDTHS = {
    1: (1, STENCIL_SETS["value"]),
    8: (2, STENCIL_SETS["first"]),
    30: (3, (wavefield.VALUE, *wavefield.GRAD, *wavefield.HESS.values())),
}


class TestCornerGatherAgainstReference:
    """The per-corner path (a points' box larger than the point count)
    gathers each stencil term once for all 8 corners and still gives the
    reference sampler's bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", CORNER_WIDTHS)
    @pytest.mark.parametrize("chunk", [1, 3, 7, None])
    def test_edge_cells_and_chunks(self, monkeypatch, dtype, width, chunk):
        n_levels, st = CORNER_WIDTHS[width]
        if chunk is not None:  # 10 points: a partial last chunk for 3 and 7
            monkeypatch.setattr(wavefield, "SLAB_NODES", 2 * width * chunk)
        levels = random_levels(dtype, n_levels)
        for x in (points_in_edge_cells(10), points_in_edge_cells(200, seed=3)):
            u = x / 0.5 + N_HALF
            i0 = np.floor(u).astype(int)
            assert np.prod(i0.max(axis=0) + 2 - i0.min(axis=0)) > len(x)
            ref = reference_sample_levels(every(levels, st), 0.5, N_HALF, x)
            got = wavefield.sample_levels(every(levels, st), 0.5, N_HALF, x)
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_field_derivatives_on_the_corner_path(self, dtype):
        levels = random_levels(dtype, 3, n_half=8, seed=9)
        x = np.random.default_rng(2).uniform(-2.9, 2.9, (300, 3))
        st = CORNER_WIDTHS[30][1]
        assert_same_bits(wavefield.sample_levels(every(levels, st), 0.5, 8, x),
                         reference_sample_levels(every(levels, st), 0.5, 8, x))


def full_width(hist, t, x, stencils):
    """Every stencil sampled on both levels of t's bracket, each divided by
    its level's h**order, and their blend (1 - a) s0 + a s1: the history's
    reads before they gathered only what the weight a uses."""
    k0, k1, a = hist._bracket(t)
    ends = []
    for k in (k0, k1):
        f, h, n_half = hist._levels[k]
        cols = wavefield.sample_levels(every((f,), stencils), h, n_half, x)
        ends.append([c / h**st.order for c, st in zip(cols, stencils)])
    blend = [(1.0 - a) * s0 + a * s1 for s0, s1 in zip(*ends)]
    return ends, blend, hist._times[k1] - hist._times[k0]


def growth_history(dtype):
    """Levels at t = 0, 0.5 of one geometry and at t = 1 on a grown cube."""
    levels = random_levels(dtype, 2, 6, seed=1) + random_levels(dtype, 1, 8, seed=2)
    hist = GridFieldHistory(dtype=dtype)
    for tk, lv, nh in zip((0.0, 0.5, 1.0), levels, (6, 6, 8)):
        hist.append(tk, lv, 0.5, nh)
    return hist


def two_level_history(dtype):
    hist = GridFieldHistory(dtype=dtype)
    for tk, lv in zip((0.25, 0.5), random_levels(dtype, 2, seed=3)):
        hist.append(tk, lv, 0.5, N_HALF)
    return hist


class TestNarrowGather:
    """At a bracket's end times (a == 0 or 1) the history gathers only the
    columns the weight uses, and its reads keep the full-width bits."""

    CASES = [  # (history, t, a): a == 0 at a bracket's start, 1 at its end
        (two_level_history, 0.25, 0.0), (two_level_history, 0.5, 1.0),
        (growth_history, 0.0, 0.0),
        (growth_history, 0.5, 0.0),   # the bracket across the growth
        (growth_history, 1.0, 1.0),
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("points", [
        points_in_cells(3, 200),        # inside: the table
        points_in_edge_cells(40),       # next to the edge: the corner gather
        points_with_outside(300),       # on and off the grid
        np.array([0.1, -0.2, 0.3]),     # one point, no point axis
    ], ids=["inside", "edge", "outside", "single"])
    def test_end_times_keep_the_full_width_bits(self, dtype, case, points):
        make, t, a = self.CASES[case]
        hist = make(dtype)
        assert hist._bracket(t)[2] == a
        (v0, v1), blend, tau = full_width(hist, t, points,
                                          (wavefield.VALUE, *wavefield.GRAD))
        assert_same_bits(hist.phi(t, points), blend[0])
        dt_phi, grad = hist.first_derivs(t, points)
        assert_same_bits(dt_phi, (v1[0] - v0[0]) / tau)
        assert_same_bits(grad, np.stack(blend[1:], axis=-1))

    @pytest.mark.parametrize("t, widths", [
        (0.25, [1, 5]),   # a == 0
        (0.5, [1, 5]),    # a == 1
        (0.375, [2, 8]),  # inside the bracket: both levels throughout
    ])
    def test_columns_gathered(self, monkeypatch, t, widths):
        # one call per read, as both levels share a geometry: phi reads
        # VALUE where the weight is, first_derivs VALUE on both levels and
        # GRAD where the weight is
        hist = two_level_history(np.float64)
        got = []
        sample = wavefield.sample_levels
        monkeypatch.setattr(wavefield, "sample_levels",
                            lambda cols, *a: got.append(len(cols)) or sample(cols, *a))
        x = points_in_cells(3, 50)
        hist.phi(t, x)
        hist.first_derivs(t, x)
        assert got == widths

    def test_bracket_across_growth_samples_each_level_apart(self, monkeypatch):
        hist = growth_history(np.float64)
        calls = []
        sample = wavefield.sample_levels
        monkeypatch.setattr(wavefield, "sample_levels",
                            lambda cols, h, n_half, x: calls.append((len(cols), n_half))
                            or sample(cols, h, n_half, x))
        hist.first_derivs(0.5, points_in_cells(3, 50))  # a == 0 across it
        assert calls == [(4, 6), (1, 8)]
        calls.clear()
        hist.first_derivs(1.0, points_in_cells(3, 50))  # a == 1
        assert calls == [(1, 6), (4, 8)]


# the columns a push's view gathers at the weight a of its later level:
# first_derivs at a = 0, 1/2 and 1, and phi at a = 1 (the weight law)
V, G = wavefield.VALUE, wavefield.GRAD
VIEW_COLUMNS = {
    "a=0": lambda l0, l1: [(l0, V), (l1, V)] + [(l0, g) for g in G],
    "a=1/2": lambda l0, l1: [(l0, V), (l1, V)] + [(l, g) for l in (l0, l1) for g in G],
    "a=1": lambda l0, l1: [(l0, V), (l1, V)] + [(l1, g) for g in G],
    "phi": lambda l0, l1: [(l1, V)],
}
# a node box inside the nodes 1 .. 11 of N_HALF's cube: nodes 3 .. 8, 2 .. 9
# and 4 .. 8; its cells have lower corner first .. first + shape - 2
BOX = ((3, 2, 4), (6, 8, 5))


def points_in_box(count, first=BOX[0], shape=BOX[1], seed=19, h=0.5):
    """`count` points in the box's cells, the first ones on its nodes and in
    its edge cells (a coordinate on the first node, or just below the last)."""
    rng = np.random.default_rng(seed)
    first, shape = np.array(first), np.array(shape)
    u = first + rng.uniform(0.0, 1.0, (count, 3)) * (shape - 1)
    u[: count // 4] = np.round(u[: count // 4])
    u[: count // 8] = rng.choice([0.0, 1.0], (count // 8, 3)) * (shape - 1)
    u[: count // 8] += first
    u = np.minimum(u, first + shape - 1 - 1e-9)  # keep the top face inside
    return (u - N_HALF) * h


def shared_tables(columns, box=BOX):
    return (*box, [wavefield.box_table([c], *box) for c in columns])


class TestSharedTables:
    """Tables that a view builds once on its box give every bit of the
    per-call paths, and a call whose points leave the box takes them."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cols", VIEW_COLUMNS)
    @pytest.mark.parametrize("box", [BOX, ((1, 1, 1), (11, 11, 11))],
                             ids=["inner", "whole"])
    def test_points_in_the_box_read_the_tables(self, monkeypatch, dtype, cols, box):
        levels = random_levels(dtype)
        columns = VIEW_COLUMNS[cols](*levels)
        shared = shared_tables(columns, box)
        for x in (points_in_box(300, *box), points_in_box(5, *box, seed=2),
                  points_in_box(1, *box)[0]):
            ref = reference_sample_levels(columns, 0.5, N_HALF, x)
            assert_same_bits(wavefield.sample_levels(columns, 0.5, N_HALF, x), ref)
            with monkeypatch.context() as m:  # no table of its own
                m.setattr(wavefield, "box_table", None)
                got = wavefield.sample_levels(columns, 0.5, N_HALF, x, shared)
            assert_same_bits(got, ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cols", VIEW_COLUMNS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 4.0, 1.3],
                             ids=["nan", "inf", "-inf", "1e300", "off-grid",
                                  "off-box"])
    def test_a_point_outside_the_box_takes_the_per_call_path(self, dtype, cols, bad):
        # 1.3 lies on the grid but past the box's last cell on every axis
        levels = random_levels(dtype)
        columns = VIEW_COLUMNS[cols](*levels)
        shared = shared_tables(columns)
        for count in (300, 20):  # the per-call table and the direct gather
            x = points_in_box(count)
            x[count // 2, count % 3] = bad
            got = wavefield.sample_levels(columns, 0.5, N_HALF, x, shared)
            assert_same_bits(got, wavefield.sample_levels(columns, 0.5, N_HALF, x))
            assert_same_bits(np.delete(got, count // 2, axis=-1),
                             reference_sample_levels(
                                 columns, 0.5, N_HALF, np.delete(x, count // 2, axis=0)))
        assert_same_bits(wavefield.sample_levels(columns, 0.5, N_HALF, x[:0], shared),
                         np.zeros((len(columns), 0)))

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_chunk_edges(self, monkeypatch, chunk):
        levels = random_levels(np.float32)
        columns = VIEW_COLUMNS["a=1/2"](*levels)
        if chunk is not None:  # a table's chunk is SLAB_NODES // width points
            monkeypatch.setattr(wavefield, "SLAB_NODES", len(columns) * chunk)
        x = points_in_box(50)
        assert_same_bits(
            wavefield.sample_levels(columns, 0.5, N_HALF, x, shared_tables(columns)),
            reference_sample_levels(columns, 0.5, N_HALF, x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_view_builds_each_table_once(self, monkeypatch, dtype):
        levels = random_levels(dtype)
        grid = FieldGrid(h=0.5, dt=0.25, n_half=N_HALF, t=0.0, phi_0=levels[0],
                         phi_p=levels[1])
        x = points_in_box(200)
        times = (0.0, 0.125, 0.125, 0.25)  # the RK4 stages, then phi
        plain = grid.view()
        ref = [plain.first_derivs(t, x) for t in times] + [plain.phi(0.25, x)]
        builds = []
        table = wavefield.box_table
        monkeypatch.setattr(wavefield, "box_table",
                            lambda cols, *box: builds.append((cols, box))
                            or table(cols, *box))
        view = grid.view(BOX)
        got = [view.first_derivs(t, x) for t in times] + [view.phi(0.25, x)]
        for g, r in zip(got, ref):
            for a, b in zip(g, r) if isinstance(g, tuple) else [(g, r)]:
                assert_same_bits(a, b)
        assert len(builds) == wavefield.VIEW_TABLES
        assert all(len(cols) == 1 and box == BOX for cols, box in builds)
        assert len({(id(c[0][0]), c[0][1]) for c, _ in builds}) == len(builds)


@pytest.mark.parametrize("h", [0.25, 0.3, 0.5, 1 / 3])
def test_node_axis_is_exactly_antisymmetric(h):
    # fdtd_step builds the sponge factor on one quarter and mirrors it
    for n_half in (1, 2, 6, 12, 66):
        g = FieldGrid(h=h, dt=h / 2, n_half=n_half, t=0.0, phi_m=np.zeros(1),
                      phi_0=np.zeros(1), phi_p=np.zeros(1), mu=np.zeros(1))
        ax = g.node_axis()
        np.testing.assert_array_equal(ax[::-1], -ax)  # the centre is 0.0
        assert ax[n_half] == 0.0 and not np.signbit(ax[n_half])


def sponge_radii(n_half, h):
    """No sponge; radius 0; a 3-wide shell that crosses the plane x = 0
    inside the cube; and a radius beyond the cube's corner."""
    return [None, 0.0, 0.4 * n_half * h, 2.0 * n_half * h]


class TestMirroredSponge:
    """fdtd_step walks mirrored slab pairs and builds the sponge factor on
    the rows y >= 0 of one of them; the new level keeps the bits of the
    full-size reference step, on every cube size and slab width."""

    @pytest.mark.parametrize("n_half", [1, 2, 6, 12])
    @pytest.mark.parametrize("planes", [1, 3, None])
    def test_bitwise_with_the_reference(self, monkeypatch, n_half, planes):
        h, dt = 0.3, 0.15
        n = 2 * n_half + 1
        patch_slabs(monkeypatch, planes, n)
        rng = np.random.default_rng(n_half)
        for sponge in sponge_radii(n_half, h):
            g = FieldGrid(h=h, dt=dt, n_half=n_half, t=0.0,
                          phi_m=np.zeros((n,) * 3),
                          phi_0=rng.standard_normal((n,) * 3),
                          phi_p=rng.standard_normal((n,) * 3),
                          mu=np.zeros((n,) * 3))
            ref = copy_grid(g)
            for _ in range(2):
                # a NaN at a corner node keeps the field's edge values from
                # raising DomainTooSmallError, so every node is compared
                mu = rng.standard_normal((n,) * 3)
                mu[0, 0, 0] = np.nan
                step_with(g, mu, sponge)
                reference_fdtd_step(ref, mu, sponge_radius=sponge)
                np.testing.assert_array_equal(g.phi_p, ref.phi_p)
                np.testing.assert_array_equal(np.signbit(g.phi_p),
                                              np.signbit(ref.phi_p))
                assert np.isnan(g.phi_p).sum() == 1


class TestLevelReuse:
    """fdtd_step writes the new level into the buffer of the phi_m that falls
    out when the grid holds its only reference, and subtracts the grid's
    source on its box; the new level keeps the bits of the reference step
    with the source embedded in a cube of +0.0."""

    N_HALF, H, DT = 6, 0.5, 0.25
    SHAPE = (2 * N_HALF + 1,) * 3
    BOX = (slice(4, 7), slice(5, 9), slice(6, 8))
    # a box in both slabs of a mirrored pair, one off the centre on every
    # axis, one node; each stays 3 nodes off the faces, so no step raises
    BOXES = [BOX, (slice(5, 9), slice(3, 5), slice(7, 10)), (slice(6, 7),) * 3]

    def grid(self, rng, nan=False):
        # a checkerboard of +0.0 and -0.0 (the Laplacian of its +0.0 nodes is
        # -0.0) around random values on the planes 5 .. 7; phi_m is garbage
        zeros = np.where(np.indices(self.SHAPE).sum(axis=0) % 2, -0.0, 0.0)
        phi_0, phi_p = zeros.copy(), zeros.copy()
        middle = (slice(5, 8),) * 3
        phi_0[middle] = rng.standard_normal((3, 3, 3))
        phi_p[middle] = rng.standard_normal((3, 3, 3))
        if nan:
            phi_p[6, 6, 6] = np.nan
        return FieldGrid(h=self.H, dt=self.DT, n_half=self.N_HALF, t=0.0,
                         phi_m=rng.standard_normal(self.SHAPE), phi_0=phi_0,
                         phi_p=phi_p, mu=np.zeros((0, 0, 0)))

    def set_source(self, g, rng, box=BOX, nan=False):
        """Random values, one -0.0 and maybe a NaN as g's source on `box`;
        returns the cube of +0.0 that embeds them."""
        mu = rng.standard_normal(tuple(b.stop - b.start for b in box))
        mu[0, 0, 0] = -0.0
        if nan:
            mu[-1, -1, -1] = np.nan
        g.mu, g.mu_origin = mu, tuple(b.start for b in box)
        assert g.source_box() == box
        cube = np.zeros(self.SHAPE)
        cube[box] = mu
        return cube

    @pytest.mark.parametrize("nan", [None, "level", "source"])
    @pytest.mark.parametrize("sponge", [None, 1.0])
    @pytest.mark.parametrize("box", range(3))
    @pytest.mark.parametrize("planes", [1, None])
    def test_reused_buffer_bitwise_with_box_source(self, monkeypatch, nan,
                                                   sponge, box, planes):
        patch_slabs(monkeypatch, planes, self.SHAPE[0])
        rng = np.random.default_rng(21)
        g = self.grid(rng, nan == "level")
        ref = copy_grid(g)
        for _ in range(2):
            buffer = id(g.phi_m)
            cube = self.set_source(g, rng, self.BOXES[box], nan == "source")
            fdtd_step(g, sponge_radius=sponge)
            reference_fdtd_step(ref, cube, sponge_radius=sponge)
            assert id(g.phi_p) == buffer  # the level was written into phi_m's buffer
            assert_same_bits(g.phi_p, ref.phi_p)
            assert_same_bits(g.phi_0, ref.phi_0)
            assert g.phi_p_finite() == (nan is None)
        assert np.isnan(g.phi_p).any() == (nan is not None)

    def test_held_level_is_not_written(self):
        rng = np.random.default_rng(23)
        g = self.grid(rng)
        old = g.phi_m
        saved = old.copy()
        self.set_source(g, rng)
        fdtd_step(g)
        assert g.phi_p is not old
        assert_same_bits(old, saved)

    def test_float64_history_levels_keep_their_bits(self):
        # a float64 history holds the grid's own levels, not copies; a run's
        # history is float32, so the steps of a coupled run are driven by
        # hand: a growth, a source box and `advance`, whose `keep` appends
        # every 2nd level.  Two steps on, each held level is phi_m, whose
        # buffer fdtd_step must then not reuse.
        rng = np.random.default_rng(25)
        g = make_field_grid(wave_data(), self.H, self.DT, pad=2.0)
        hist = GridFieldHistory(dtype=np.float64, stride=2)
        g.keep(hist)
        kept = [(g.phi_0, g.phi_0.copy())]
        for _ in range(8):
            g.ensure_extent(1.0 + g.t + g.dt + 2.0)
            g.mu, g.mu_origin = rng.standard_normal((3, 3, 3)), (g.n_half - 1,) * 3
            g.advance(1.0, hist)
            if len(hist._levels) > len(kept):
                kept.append((g.phi_0, g.phi_0.copy()))
        assert g.n_half > 6  # the first step grew the cube
        assert len(kept) == len(hist._levels) == 5
        for (level, copy), (stored, *_) in zip(kept, hist._levels):
            assert level is stored
            assert_same_bits(level, copy)
