import tracemalloc

import numpy as np
import pytest

from vnsim import characteristics, diagnostics, vlasov_pic, wavefield
from vnsim.characteristics import ZeroField, rel_velocity
from vnsim.errors import ConfigError, DomainTooSmallError
from vnsim.profiles import InitialData, _squared_norm, make_bump
from vnsim.vlasov_pic import (deposit_mu, evaluate_f, init_coupled_state,
                              sample_particles, step, update_weights,
                              ParticleEnsemble)
from vnsim.wavefield import FieldGrid, GridFieldHistory, make_field_grid
from tests.oracles import assert_same_bits


def small_data(f_amp=0.02, phi_amp=0.01, R=1.0):
    return InitialData(
        f_in=make_bump([0.0] * 6, R, f_amp, 2),
        phi0_in=make_bump([0.0] * 3, R, phi_amp, 3),
        phi1_in=make_bump([0.0] * 3, R, phi_amp, 2),
        support_radius_R=R,
    )


def ball_bump_integral(amp, radius, k, dim):
    """int A (1-|y|^2/r^2)^(k+1) dy over the dim-ball, by radial quadrature."""
    m = k + 1
    r = np.linspace(0.0, radius, 20001)
    surf = {3: 4 * np.pi, 6: np.pi**3}[dim]  # |S^{d-1}| r^{d-1} integral below
    integrand = amp * (1 - (r / radius)**2)**m * r**(dim - 1)
    return surf * np.trapezoid(integrand, r)


class TestSampling:
    def test_lattice_inside_support(self):
        data = small_data()
        ens = sample_particles(data, 8)
        z = np.concatenate([ens.x, ens.p], axis=-1)
        assert np.all(np.linalg.norm(z, axis=-1) < 1.0)
        assert np.all(ens.w > 0)
        assert ens.n > 0

    def test_total_mass_converges(self):
        data = small_data()
        exact = ball_bump_integral(0.02, 1.0, 2, 6)
        masses = [sample_particles(data, n).w.sum() for n in (8, 16)]
        errs = [abs(m - exact) / exact for m in masses]
        assert errs[1] < errs[0]
        assert errs[1] < 0.05

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            sample_particles(small_data(), 2)

    def test_deterministic(self):
        a = sample_particles(small_data(), 6)
        b = sample_particles(small_data(), 6)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.w, b.w)

    def test_empty_distribution(self):
        ens = sample_particles(small_data(f_amp=0.0), 6)
        assert ens.n == 0 and ens.w.size == 0


def reference_sample_particles(data, n_per_dim, chunk=2**22):
    """The sampler that evaluated f_in on the whole lattice, kept as reference."""
    prof = data.f_in
    r = prof.radius
    s = 2.0 * r / n_per_dim
    centers = -r + (np.arange(n_per_dim) + 0.5) * s
    xs, ps, ws = [], [], []
    grid3 = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    pgrid = grid3 + prof.center[3:6]
    chunk_size = max(1, chunk // pgrid.shape[0])
    for i0 in range(0, grid3.shape[0], chunk_size):
        xc = grid3[i0:i0 + chunk_size] + prof.center[0:3]
        xx = np.repeat(xc, pgrid.shape[0], axis=0)
        pp = np.tile(pgrid, (xc.shape[0], 1))
        f = data.f_value(xx, pp)
        keep = f > 0.0
        if np.any(keep):
            xs.append(xx[keep])
            ps.append(pp[keep])
            ws.append(f[keep])
    if xs:
        x = np.concatenate(xs)
        p = np.concatenate(ps)
        w = np.concatenate(ws) * s**6
    else:
        x = np.zeros((0, 3))
        p = np.zeros((0, 3))
        w = np.zeros(0)
    return ParticleEnsemble(
        x=x.copy(), p=p.copy(), w=w.copy(), w0=w.copy(),
        phi0_at_x0=data.phi0_in.value(x),
    )


def off_centre_data(f_amp=0.02):
    return InitialData(
        f_in=make_bump([0.3, -0.2, 0.1, 0.15, -0.05, 0.2], 0.7, f_amp, 2),
        phi0_in=make_bump([0.0] * 3, 1.0, 0.01, 3),
        phi1_in=make_bump([0.0] * 3, 1.0, 0.01, 2),
        support_radius_R=1.0,
    )


class TestSamplingAgainstReference:
    """The ball filter keeps exactly the old sampler's particles, in order.

    In units of (r/n)^2 a cell's squared offset is a sum of six odd (n even)
    or even (n odd) squares, which is never within 1 of n^2; so no lattice
    puts a cell within rounding distance of the sphere, and the filter's
    1e-9 slack only guards the (x + c) - c rounding inside f_value.

    The sampler returns x, p and w; a coupled run's `init_coupled_state`
    adds the weight law's w0 and phi0_at_x0, which the reference's equal.
    """

    FIELDS = ("x", "p", "w")
    WEIGHT_LAW = ("w0", "phi0_at_x0")

    def assert_same(self, got, ref, fields=FIELDS):
        for name in fields:
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("n_per_dim", [4, 5, 8])
    @pytest.mark.parametrize("make", [small_data, off_centre_data])
    def test_bitwise_equal(self, n_per_dim, make):
        data = make()
        ref = reference_sample_particles(data, n_per_dim)
        assert ref.n > 0
        got = sample_particles(data, n_per_dim)
        self.assert_same(got, ref)
        assert got.w0 is got.phi0_at_x0 is None
        # many chunks, each holding a few x cells
        self.assert_same(sample_particles(data, n_per_dim, chunk=2**10), ref)
        ens = init_coupled_state(data, n_per_dim, h=0.5, dt=0.25, pad=5.0,
                                 keep_history=False).ensemble
        self.assert_same(ens, ref, self.FIELDS + self.WEIGHT_LAW)

    def test_empty_distribution(self):
        data = off_centre_data(f_amp=0.0)
        ref = reference_sample_particles(data, 5)
        assert ref.n == 0
        self.assert_same(sample_particles(data, 5), ref)
        ens = init_coupled_state(data, 5, h=0.5, dt=0.25, pad=5.0,
                                 keep_history=False).ensemble
        self.assert_same(ens, ref, self.FIELDS + self.WEIGHT_LAW)

    @pytest.mark.parametrize("make", [small_data, off_centre_data])
    def test_coupled_init_adds_the_weight_law_bitwise(self, make):
        # w0 and phi0_in at x0 of a coupled run, and nothing of them in a
        # free one
        data = make()
        ref = reference_sample_particles(data, 6)
        ens = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=5.0,
                                 keep_history=False).ensemble
        for name in self.FIELDS + self.WEIGHT_LAW:
            assert_same_bits(getattr(ens, name), getattr(ref, name))
        assert ens.w0 is not ens.w
        free = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=5.0,
                                  coupling=False).ensemble
        self.assert_same(free, ref)
        assert free.w0 is free.phi0_at_x0 is None


def reference_deposit(ens, grid):
    """The deposit that scaled the whole grid by 1/h^3, kept as reference."""
    n = grid.n_nodes
    mu = np.zeros((n, n, n))
    gamma = np.sqrt(1.0 + np.sum(ens.p**2, axis=-1))
    q = ens.w / gamma
    u = ens.x / grid.h + grid.n_half
    i0 = np.floor(u).astype(int)
    if np.any(i0 < 0) or np.any(i0 + 1 > n - 1):
        raise DomainTooSmallError("particle outside deposition grid")
    frac = u - i0
    flat = mu.ravel()
    for ox in (0, 1):
        wx = frac[:, 0] if ox else 1.0 - frac[:, 0]
        for oy in (0, 1):
            wy = frac[:, 1] if oy else 1.0 - frac[:, 1]
            for oz in (0, 1):
                wz = frac[:, 2] if oz else 1.0 - frac[:, 2]
                idx = ((i0[:, 0] + ox) * n + i0[:, 1] + oy) * n + i0[:, 2] + oz
                np.add.at(flat, idx, q * wx * wy * wz)
    mu /= grid.h**3
    return mu


def reference_deposit_mu(ens, grid):
    """deposit_mu as it read whole-ensemble columns into the whole cube,
    kept as reference: (the cube, the box of the nodes it touched)."""
    n = grid.n_nodes
    if ens.n == 0:
        return np.zeros((n, n, n)), (slice(0, 0),) * 3
    q = ens.w / np.sqrt(1.0 + _squared_norm(ens.p))
    i0, frac = [], []
    for col in ens.x.T:
        u = col / grid.h + grid.n_half
        f = np.floor(u)
        i0.append(f.astype(int))
        frac.append(u - f)
    box = tuple(slice(i.min(), i.max() + 2) for i in i0)
    if any(b.start < 0 or b.stop > n for b in box):
        raise DomainTooSmallError("particle outside deposition grid")
    mu = np.zeros((n, n, n))
    base = (i0[0] * n + i0[1]) * n + i0[2]
    wx, wy, wz = ((1.0 - f, f) for f in frac)
    flat = mu.ravel()
    for ox in (0, 1):
        qx = q * wx[ox]
        for oy in (0, 1):
            qxy = qx * wy[oy]
            for oz in (0, 1):
                np.add.at(flat, base + ((ox * n + oy) * n + oz), qxy * wz[oz])
    mu[box] /= grid.h**3
    return mu, box


def embedded(grid):
    """The grid's source on its whole cube: its box at its origin, +0.0
    elsewhere."""
    cube = np.zeros((grid.n_nodes,) * 3)
    cube[grid.source_box()] = grid.mu
    return cube


def ensemble_at(x, rng):
    x = np.asarray(x, float)
    p = rng.uniform(-0.5, 0.5, x.shape)
    w = rng.uniform(0.5, 2.0, len(x))
    return ParticleEnsemble(x=x, p=p, w=w, w0=w.copy(),
                            phi0_at_x0=np.zeros(len(x)))


class TestDepositAgainstReference:
    H, N_HALF = 0.25, 7  # n = 15 nodes, cells 0 .. 13; x <-> u is exact

    def grid(self):
        zero = np.zeros((2 * self.N_HALF + 1,) * 3)
        return FieldGrid(h=self.H, dt=0.15, n_half=self.N_HALF, t=0.0,
                         phi_m=zero, phi_0=zero, phi_p=zero, mu=zero)

    def test_bitwise_in_first_and_last_cells(self):
        rng = np.random.default_rng(2)
        grid = self.grid()
        # cell coordinates u in [0, 1) and [13, 14) on every axis, plus the
        # clouds of one corner only and of the whole box
        for lo, hi in ((0.0, 1.0), (13.0, 14.0), (0.0, 14.0), (6.0, 6.5)):
            u = rng.uniform(lo, hi, (50, 3))
            u[0] = lo
            x = (u - self.N_HALF) * self.H
            ens = ensemble_at(x, rng)
            assert deposit_mu(ens, grid) is grid.mu
            np.testing.assert_array_equal(embedded(grid),
                                          reference_deposit(ens, grid))

    def test_outside_error_at_the_same_edges(self):
        rng = np.random.default_rng(3)
        grid = self.grid()
        for axis in range(3):
            for u_edge, raises in ((-0.01, True), (0.0, False), (13.99, False),
                                   (14.0, True)):
                u = np.full((3, 3), 7.25)
                u[1, axis] = u_edge
                ens = ensemble_at((u - self.N_HALF) * self.H, rng)
                for fn in (deposit_mu, reference_deposit):
                    before = grid.mu
                    if raises:
                        with pytest.raises(DomainTooSmallError):
                            fn(ens, grid)
                        assert grid.mu is before
                    else:
                        fn(ens, grid)


class TestDepositSequence:
    """Each deposit on one grid, embedded at its origin, and sup_mu have the
    bits of a deposit on a new grid, as the box moves and empties."""

    H, N_HALF = 0.25, 7  # n = 15 nodes, cells 0 .. 13

    def grid(self):
        return FieldGrid(h=self.H, dt=0.15, n_half=self.N_HALF, t=0.0,
                         phi_m=np.zeros(1), phi_0=np.zeros(1), phi_p=np.zeros(1),
                         mu=np.zeros(1))

    def test_moved_box_and_empty_ensemble(self):
        rng = np.random.default_rng(8)
        grid = self.grid()
        # cell ranges whose boxes move apart, none, and the whole grid
        for cells in [(1.0, 4.0), (9.0, 13.0), (5.0, 6.0), None, (0.0, 14.0), None]:
            if cells is None:
                ens = ensemble_at(np.zeros((0, 3)), rng)
            else:
                u = rng.uniform(*cells, (40, 3))
                ens = ensemble_at((u - self.N_HALF) * self.H, rng)
            got = deposit_mu(ens, grid)
            assert got is grid.mu
            fresh = self.grid()
            deposit_mu(ens, fresh)
            assert grid.mu_origin == fresh.mu_origin
            assert_same_bits(got, fresh.mu)
            assert_same_bits(embedded(grid), reference_deposit_mu(ens, self.grid())[0])
            np.testing.assert_array_equal(embedded(grid), reference_deposit(ens, self.grid()))
            assert (got.size == 0) == (cells is None)
            sup, sup_ref = diagnostics.sup_mu(grid), diagnostics.sup_mu(fresh)
            assert sup.hex() == sup_ref.hex()
            assert (sup == 0.0) == (cells is None)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_raises_before_any_cast(self, value):
        # min and max carry the value to the box, which raises before a
        # cast could warn "invalid value encountered in cast"
        rng = np.random.default_rng(9)
        grid = self.grid()
        before = grid.mu
        ens = ensemble_at(rng.uniform(-0.5, 0.5, (40, 3)), rng)
        ens.x[17, 1] = value
        with pytest.raises(FloatingPointError, match="NaN or infinite"):
            deposit_mu(ens, grid)
        assert grid.mu is before


class TestDeposit:
    def test_mass_conservation(self):
        data = small_data()
        ens = sample_particles(data, 8)
        grid = make_field_grid(data, h=0.5, dt=0.25, pad=2.0)
        mu = deposit_mu(ens, grid)
        # the integral of mu is the ensemble's sum of w / gamma
        gamma = np.sqrt(1.0 + np.sum(ens.p**2, axis=-1))
        assert mu.sum() * grid.h**3 == pytest.approx(np.sum(ens.w / gamma), rel=1e-12)

    def test_single_particle_at_node(self):
        data = small_data()
        grid = make_field_grid(data, h=0.5, dt=0.25, pad=2.0)
        ens = ParticleEnsemble(
            x=np.array([[0.0, 0.0, 0.0]]), p=np.zeros((1, 3)),
            w=np.array([2.0]), w0=np.array([2.0]), phi0_at_x0=np.zeros(1))
        mu = deposit_mu(ens, grid)
        c = grid.n_half
        assert mu.shape == (2, 2, 2) and grid.mu_origin == (c, c, c)
        assert embedded(grid)[c, c, c] == pytest.approx(2.0 / grid.h**3)
        assert mu.sum() == pytest.approx(2.0 / grid.h**3)

    def test_particle_outside_grid(self):
        data = small_data()
        grid = make_field_grid(data, h=0.5, dt=0.25, pad=1.0)
        ens = ParticleEnsemble(
            x=np.array([[50.0, 0.0, 0.0]]), p=np.zeros((1, 3)),
            w=np.ones(1), w0=np.ones(1), phi0_at_x0=np.zeros(1))
        with pytest.raises(DomainTooSmallError):
            deposit_mu(ens, grid)

    def test_taylor_start_subtracts_the_box_source_bitwise(self):
        # the levels as they were made from mu on the whole cube
        data, h, dt = small_data(), 0.5, 0.25
        ens = sample_particles(data, 6)
        grid = make_field_grid(data, h, dt, pad=2.0,
                               source=lambda g: deposit_mu(ens, g))
        assert 0 < grid.mu.size < grid.n_nodes ** 3
        ax = grid.node_axis()
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        phi0, phi1 = data.phi0_in.value(pts), data.phi1_in.value(pts)
        acc = 0.5 * dt**2 * (data.phi0_in.laplacian(pts) - embedded(grid))
        assert_same_bits(grid.phi_m, phi0 - dt * phi1 + acc)
        assert_same_bits(grid.phi_p, phi0 + dt * phi1 + acc)

    def test_nonnegative(self):
        data = small_data()
        ens = sample_particles(data, 8)
        grid = make_field_grid(data, h=0.5, dt=0.25, pad=2.0)
        assert np.all(deposit_mu(ens, grid) >= 0.0)


class TestWeights:
    def test_zero_field_keeps_weights(self):
        ens = sample_particles(small_data(), 6)
        w_before = ens.w.copy()
        # with phi identically zero everywhere the exponent is -4 phi0(x0)
        data = small_data(phi_amp=0.0)
        ens2 = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=2.0,
                                  keep_history=False).ensemble
        update_weights(ens2, ZeroField(), 1.0)
        np.testing.assert_allclose(ens2.w, ens2.w0, rtol=1e-15)
        assert w_before.shape == ens.w.shape

    def test_weights_positive(self):
        data = small_data()
        state = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=5.0)
        for _ in range(8):
            step(state)
        assert np.all(state.ensemble.w > 0)


class TestCoupledLoop:
    def test_free_transport_straight_lines(self):
        data = small_data()
        state = init_coupled_state(data, 6, h=0.5, dt=0.5, pad=2.0,
                                   coupling=False, keep_history=False)
        x0 = state.ensemble.x.copy()
        p0 = state.ensemble.p.copy()
        for _ in range(6):
            step(state, deposit=False)
        t = state.t
        np.testing.assert_allclose(state.ensemble.x, x0 + t * rel_velocity(p0),
                                   rtol=1e-12)
        np.testing.assert_allclose(state.ensemble.p, p0, rtol=1e-15)

    def test_only_the_coupled_start_checks_cfl_and_holds_levels(self):
        # dt = h violates the CFL bound of the leapfrog, which a free run
        # never takes; its grid holds mu alone, also with keep_history
        data = small_data()
        with pytest.raises(ConfigError, match="CFL"):
            init_coupled_state(data, 4, h=0.5, dt=0.5, pad=2.0)
        state = init_coupled_state(data, 4, h=0.5, dt=0.5, pad=2.0,
                                   coupling=False, keep_history=True)
        g = state.grid
        assert g.phi_m is g.phi_0 is g.phi_p is state.hist_full is None
        assert g.n_nodes == 13 and g.mu.max() > 0.0
        g.source_box()  # fits the cube
        for _ in range(3):
            step(state)
        assert g.phi_m is g.phi_0 is g.phi_p is None
        assert g.n_nodes > 13 and g.mu.max() > 0.0
        g.source_box()

    def test_grid_time_tracks_state(self):
        data = small_data()
        state = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=5.0)
        for _ in range(4):
            step(state)
        assert state.grid.t == pytest.approx(state.t)
        assert state.grid.view().t_max == pytest.approx(state.t + state.grid.dt)

    def test_spatial_support_within_cone(self):
        data = small_data()
        state = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=5.0)
        for _ in range(12):
            step(state)
        r = np.linalg.norm(state.ensemble.x, axis=-1)
        assert r.max() <= 1.0 + state.t  # |x| <= R + t (velocities subluminal)

    def test_levels_share_the_cube_after_every_growth(self):
        # h = 0.25, pad = 3: the cube grows at steps 1 and 11, and the step
        # replaces the phi_m and mu that the growth dropped
        state = init_coupled_state(small_data(), 4, h=0.25, dt=0.125, pad=3.0)
        grows = 0
        for _ in range(12):
            n_half = state.grid.n_half
            step(state)
            g = state.grid
            grows += g.n_half != n_half
            shapes = {a.shape for a in (g.phi_m, g.phi_0, g.phi_p)}
            assert shapes == {(g.n_nodes,) * 3}
            box = g.source_box()  # fits the cube, and is smaller
            assert 0 < g.mu.size < g.n_nodes ** 3 and box[0].start > 0
        assert grows == 2

    def test_zero_amplitude_run_stays_zero(self):
        data = small_data(f_amp=0.0, phi_amp=0.0)
        state = init_coupled_state(data, 6, h=0.5, dt=0.25, pad=2.0)
        for _ in range(4):
            step(state)
        assert np.all(state.grid.phi_0 == 0.0)
        assert np.all(state.grid.mu == 0.0)


# chunk sizes at the edges of N particles or points
CHUNK_EDGES = {"1": lambda n: 1, "7": lambda n: 7, "N-1": lambda n: n - 1,
               "N": lambda n: n, "N+1": lambda n: n + 1}


class TestStepTables:
    """A coupled step's view builds each (level, stencil) table on the box
    of its particles' reach at most once, and its bits are those of a step
    without tables."""

    @staticmethod
    def run(monkeypatch, n_per_dim, h, dt, pad, steps=2, tables=True):
        """(state, per step: the view's box and its table builds)."""
        if not tables:
            monkeypatch.setattr(vlasov_pic, "_push_box", lambda *a: None)
        state = init_coupled_state(small_data(), n_per_dim, h=h, dt=dt, pad=pad,
                                   keep_history=False)
        builds, views = [], []
        table, view = wavefield.box_table, FieldGrid.view
        monkeypatch.setattr(wavefield, "box_table",
                            lambda cols, *box: builds.append((cols, box))
                            or table(cols, *box))
        monkeypatch.setattr(FieldGrid, "view",
                            lambda self, box=None: views.append(box) or view(self, box))
        made = []
        for _ in range(steps):
            builds.clear()
            step(state)
            made.append((views[-1], list(builds)))
        return state, made

    def test_coupled_push_lattice_builds_each_table_once(self, monkeypatch):
        state, made = self.run(monkeypatch, 10, 0.5, 0.25, 5.0)
        for box, builds in made:
            assert box is not None
            assert 0 < wavefield.VIEW_TABLES * np.prod(box[1]) <= state.ensemble.n
            # every build is one column on the step's box, none twice
            assert all(len(cols) == 1 and b == box for cols, b in builds)
            keys = {(id(cols[0][0]), cols[0][1]) for cols, _ in builds}
            assert len(keys) == len(builds) == wavefield.VIEW_TABLES

    def test_coupled_fine_lattice_builds_none(self, monkeypatch):
        # its 4^6 lattice is too sparse for its box: the view gets none,
        # and every gather takes a per-call path
        _, made = self.run(monkeypatch, 4, 0.25, 0.125, 3.0)
        assert [box for box, _ in made] == [None, None]

    def test_tables_keep_every_bit(self, monkeypatch):
        with monkeypatch.context() as m:
            got, _ = self.run(m, 10, 0.5, 0.25, 5.0, steps=3)
        ref, made = self.run(monkeypatch, 10, 0.5, 0.25, 5.0, steps=3, tables=False)
        assert all(box is None for box, _ in made)
        for name in ("x", "p", "w"):
            assert_same_bits(getattr(got.ensemble, name), getattr(ref.ensemble, name))
        for name in ("phi_m", "phi_0", "phi_p", "mu"):
            assert_same_bits(getattr(got.grid, name), getattr(ref.grid, name))

    def test_box_holds_every_stage(self, monkeypatch):
        # the stage positions and the pushed x of a step lie in its box
        state = init_coupled_state(small_data(), 10, h=0.5, dt=0.25, pad=5.0,
                                   keep_history=False)
        g = state.grid
        first, shape = np.array(vlasov_pic._push_box(state.ensemble.x, g, g.dt))
        h, n_half = g.h, g.n_half  # a growth after the push changes n_half
        seen = []
        sample = wavefield.sample_levels
        monkeypatch.setattr(wavefield, "sample_levels",
                            lambda cols, h, n_half, x, *a: seen.append(x)
                            or sample(cols, h, n_half, x, *a))
        step(state)
        cells = np.floor(np.concatenate(seen) / h + n_half)
        assert len(seen) == 5 * -(-state.ensemble.n // vlasov_pic.PUSH_CHUNK)
        assert np.all(cells.min(axis=0) >= first)
        assert np.all(cells.max(axis=0) + 2 <= first + shape)

    @pytest.mark.parametrize("x, why", [
        (np.zeros((0, 3)), "empty"),
        (np.array([[0.0, np.nan, 0.0]]), "NaN"),
        (np.array([[np.inf, 0.0, 0.0]]), "inf"),
        (np.array([[0.0, 0.0, 1e300]]), "off the grid"),
        (np.zeros((7, 3)), "8 x 27 nodes > 7 particles"),
    ])
    def test_no_box(self, x, why):
        g = FieldGrid(h=0.5, dt=0.25, n_half=10, t=0.0)
        assert vlasov_pic._push_box(x, g, g.dt) is None, why

    def test_box_is_clipped_to_the_sampled_nodes(self):
        g = FieldGrid(h=0.5, dt=0.25, n_half=10, t=0.0)  # nodes 0 .. 20
        x = np.zeros((10_000, 3))
        x[0, 0], x[1, 0], x[2, 1] = -g.x_max, g.x_max, 0.3
        first, shape = vlasov_pic._push_box(x, g, g.dt)
        # x: the whole cube less one node a side; y: the cells of 0 - 0.25
        # and 0.3 + 0.25 (9 and 11), a node below and a corner and a node
        # above; z: the cells 9 and 10
        assert first == (1, 8, 8) and shape == (19, 6, 5)


class TestParticleChunks:
    """Pushing, re-weighing and tracing in chunks gives the unchunked bits."""

    @staticmethod
    def coupled_run(keep_history=False):
        # h = 0.25, pad = 3: the cube grows in the first step, so the second
        # pushes on the grown levels
        state = init_coupled_state(small_data(), 4, h=0.25, dt=0.125, pad=3.0,
                                   keep_history=keep_history)
        n_half = state.grid.n_half
        for _ in range(2):
            step(state)
        assert state.grid.n_half > n_half
        return state

    @pytest.fixture(scope="class")
    def unchunked(self):
        return self.coupled_run(keep_history=True)

    @pytest.mark.parametrize("edge", CHUNK_EDGES)
    def test_step(self, monkeypatch, unchunked, edge):
        n = unchunked.ensemble.n
        chunk = CHUNK_EDGES[edge](n)
        monkeypatch.setattr(vlasov_pic, "PUSH_CHUNK", chunk)
        calls = []
        push = characteristics.push
        monkeypatch.setattr(characteristics, "push",
                            lambda *a: calls.append(1) or push(*a))
        ens = self.coupled_run().ensemble
        assert len(calls) == 2 * -(-n // chunk)
        for name in ("x", "p", "w"):
            assert_same_bits(getattr(ens, name), getattr(unchunked.ensemble, name))

    def test_push_chunks_keep_every_bit(self, monkeypatch):
        # coupled_push's lattice (76k particles): 2^15 pushes it in 3
        # chunks, 2^13 in 10, 2^11 in 38; two steps, so the second pushes
        # on levels the first made
        runs = []
        for chunk in (1 << 13, 1 << 11, 1 << 15):
            monkeypatch.setattr(vlasov_pic, "PUSH_CHUNK", chunk)
            state = init_coupled_state(small_data(), 10, h=0.5, dt=0.25, pad=5.0,
                                       keep_history=False)
            for _ in range(2):
                step(state)
            runs.append(state)
        ref, *others = runs
        assert ref.ensemble.n > 2 * (1 << 15)
        for state in others:
            for name in ("x", "p", "w"):
                assert_same_bits(getattr(state.ensemble, name),
                                 getattr(ref.ensemble, name))
            for name in ("phi_m", "phi_0", "phi_p", "mu"):
                assert_same_bits(getattr(state.grid, name), getattr(ref.grid, name))
            assert state.grid.mu_origin == ref.grid.mu_origin

    @pytest.mark.parametrize("edge", CHUNK_EDGES)
    def test_evaluate_f(self, monkeypatch, unchunked, edge):
        # 24 points inside the support and 24 outside it, so that some
        # chunks hold no point where f > 0
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-0.5, 0.5, (24, 3)),
                            rng.uniform(2.0, 2.5, (24, 3))])
        p = rng.uniform(-0.5, 0.5, (48, 3))
        args = (unchunked.t, x, p, unchunked.hist_full, unchunked.data,
                unchunked.grid.dt)
        ref = evaluate_f(*args)
        assert np.any(ref > 0.0) and np.any(ref[24:] == 0.0)
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", CHUNK_EDGES[edge](len(x)))
        assert_same_bits(evaluate_f(*args), ref)

    @pytest.mark.parametrize("edge", CHUNK_EDGES)
    def test_deposit(self, monkeypatch, edge):
        # 300 clouds over 2 x 2 x 2 cells: each node sums about 100 of them,
        # so a change in any node's order of adds would show in its bits
        rng = np.random.default_rng(12)
        ens = ensemble_at((rng.uniform(6.0, 8.0, (300, 3)) - 7) * 0.25, rng)
        ref, ref_box = reference_deposit_mu(ens, FieldGrid.at_start(1.0, 0.25, 0.15, 0.75))
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", CHUNK_EDGES[edge](ens.n))
        grid = FieldGrid.at_start(1.0, 0.25, 0.15, 0.75)
        mu = deposit_mu(ens, grid)
        assert grid.source_box() == ref_box
        assert_same_bits(embedded(grid), ref)
        # a particle of the last chunk outside the grid raises before mu
        # changes
        ens.x[-1, 2] = 5.0
        with pytest.raises(DomainTooSmallError):
            deposit_mu(ens, grid)
        assert grid.mu is mu
        assert_same_bits(embedded(grid), ref)

    @pytest.mark.parametrize("edge", CHUNK_EDGES)
    @pytest.mark.parametrize("make", [small_data, off_centre_data])
    def test_sampler(self, monkeypatch, edge, make):
        data, n_per_dim = make(), 5
        ref = reference_sample_particles(data, n_per_dim)
        # the candidates: every (x cell, p cell) pair in the lattice ball
        r = data.f_in.radius
        centers = -r + (np.arange(n_per_dim) + 0.5) * (2.0 * r / n_per_dim)
        z2 = np.add.outer(np.add.outer(centers**2, centers**2), centers**2).ravel()
        candidates = np.count_nonzero(np.add.outer(z2, z2) < r**2 * (1 + 1e-9))
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK",
                            CHUNK_EDGES[edge](candidates))
        for chunk in (2**22, 2**10):  # one pair mask, and one per 8 x cells
            got = sample_particles(data, n_per_dim, chunk=chunk)
            for name in TestSamplingAgainstReference.FIELDS:
                assert_same_bits(getattr(got, name), getattr(ref, name))
        # a coupled init builds phi0_in at x0 on chunks of the same size
        got = init_coupled_state(data, n_per_dim, h=0.5, dt=0.25, pad=5.0,
                                 keep_history=False).ensemble
        for name in TestSamplingAgainstReference.WEIGHT_LAW:
            assert_same_bits(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("edge", CHUNK_EDGES)
    def test_free_displacement(self, monkeypatch, edge):
        state = init_coupled_state(small_data(), 5, h=0.5, dt=0.25, pad=2.0,
                                   coupling=False)
        ref = characteristics.free_displacement(state.ensemble.p, 0.25)
        # the free step adds into x in place
        x = state.ensemble.x.copy()
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK",
                            CHUNK_EDGES[edge](state.ensemble.n))
        step(state)
        assert_same_bits(state.free_disp, ref)
        assert_same_bits(state.ensemble.x, x + ref)

    def test_deposit_holds_seven_floats_per_particle(self, monkeypatch):
        # above the live ensemble: the cell index, 2 fractions, q wx of both
        # x corners, q wx wy and 1 - wy, about 7 floats per particle, and
        # the box of at most 13^3 nodes; whole columns reach 17
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", 512)
        ens = sample_particles(small_data(), 8)
        grid = FieldGrid.at_start(1.0, 0.5, 0.25, 2.0)
        tracemalloc.start()
        try:
            deposit_mu(ens, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.n > 16 * 512
        assert peak <= 9 * 8 * ens.n

    def test_deposit_of_given_charges_holds_five_floats_per_particle(
            self, monkeypatch):
        # a free run passes its charges w/gamma, computed once: the deposit
        # then holds the cell index, 3 fractions and q wx wy of one corner
        # pair, with the bits of a deposit that computes the charges itself
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", 512)
        ens = sample_particles(small_data(), 8)
        grid = FieldGrid.at_start(1.0, 0.5, 0.25, 2.0)
        q = vlasov_pic._charge(ens)
        assert_same_bits(q, ens.w / np.sqrt(1.0 + np.sum(ens.p**2, axis=-1)))
        ref = deposit_mu(ens, grid).copy()
        tracemalloc.start()
        try:
            got = deposit_mu(ens, grid, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_bits(got, ref)
        assert ens.n > 16 * 512
        assert peak <= 5.5 * 8 * ens.n

    def test_spread_holds_four_integers_per_particle(self):
        # 8^3 cells for 23k particles: the cell pass holds the float index,
        # a column at a time, and its int64 copy, then the per-cell maxima
        # and minima; no sort order and no sorted copy (a sort of the hash
        # held 4)
        ens = sample_particles(small_data(), 8)
        tracemalloc.start()
        try:
            diagnostics.max_momentum_spread(ens, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * ens.n

    def test_sparse_spread_holds_four_and_a_half_integers_per_particle(self):
        # 200^3 cells for 23k particles: the index is compacted in place to
        # the occupied cells (the sort's order, the sorted index and a mask
        # besides it), and then holds their maxima and minima; np.unique
        # with its inverse held 7
        ens = sample_particles(small_data(), 8)
        tracemalloc.start()
        try:
            diagnostics.max_momentum_spread(ens, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * ens.n

    def test_growth_step_holds_three_level_cubes_and_the_box(self, monkeypatch):
        # a growth step makes all it holds of the field: the grown phi_0 and
        # phi_p, the source box and the new level (the growth dropped
        # phi_m), besides one chunk of push arrays and one plane of the
        # FDTD scratch; a source on the whole cube made it four cubes
        monkeypatch.setattr(wavefield, "SLAB_NODES", 1)
        state = init_coupled_state(small_data(), 4, h=0.25, dt=0.125, pad=3.0,
                                   keep_history=False)
        n_half = state.grid.n_half
        tracemalloc.start()
        try:
            step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = state.grid
        cube, push = 8 * g.n_nodes ** 3, 70 * 8 * state.ensemble.n
        assert g.n_half > n_half and 0 < 8 * g.mu.nbytes < cube
        assert push < cube / 2  # a fourth cube would not fit in the margin
        assert peak <= 3 * cube + g.mu.nbytes + push

    def test_sampler_candidates_in_chunks(self, monkeypatch):
        # with a small pair mask, the peak is the kept pieces, 8 floats per
        # particle, and the joined x: about 11 floats, against 22 when f_in
        # and phi0_in read every candidate at once
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", 512)
        data = small_data()
        tracemalloc.start()
        try:
            ens = sample_particles(data, 8, chunk=2**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.n > 16 * 512
        assert peak <= 13 * 8 * ens.n

    def test_step_holds_one_chunk_of_push_arrays(self, monkeypatch):
        # traced peak of one coupled step per particle: the new x, p and w
        # and the deposit; a whole-ensemble push reaches about 57 floats
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", 512)
        monkeypatch.setattr(vlasov_pic, "PUSH_CHUNK", 512)
        state = init_coupled_state(small_data(), 7, h=0.5, dt=0.25, pad=5.0)
        step(state)  # the first step also makes the grid's reused buffers
        tracemalloc.start()
        try:
            step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.ensemble.n > 16 * 512
        assert peak < 30 * 8 * state.ensemble.n


class TestEvaluateF:
    def test_initial_time_exact(self):
        data = small_data()
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (50, 3))
        p = rng.uniform(-1, 1, (50, 3))
        np.testing.assert_array_equal(evaluate_f(0.0, x, p, ZeroField(), data, 0.1),
                                      data.f_value(x, p))

    def test_free_transport_translates(self):
        data = small_data()
        t = 3.0
        rng = np.random.default_rng(6)
        p = rng.uniform(-0.6, 0.6, (40, 3))
        x = rng.uniform(-0.5, 0.5, (40, 3)) + t * rel_velocity(p)
        f = evaluate_f(t, x, p, ZeroField(), data, dt=t)
        expect = data.f_value(x - t * rel_velocity(p), p)
        np.testing.assert_allclose(f, expect, rtol=1e-12)

    def test_nonnegative_and_zero_outside_cone(self):
        data = small_data()
        t = 2.0
        x = np.array([[1.0 + t + 0.6, 0.0, 0.0], [0.0, -(1.0 + t + 1.0), 0.0]])
        p = np.zeros((2, 3)) + 0.3
        f = evaluate_f(t, x, p, ZeroField(), data, dt=t)
        np.testing.assert_array_equal(f, np.zeros(2))

    def test_consistency_with_deposit(self):
        # ensemble deposit approximates the semi-Lagrangian density
        data = small_data()
        state = init_coupled_state(data, 12, h=0.5, dt=0.25, pad=5.0,
                                   keep_history=True, history_stride=1)
        for _ in range(8):  # t = 2
            step(state)
        t = state.t
        from vnsim.diagnostics import semilag_profile
        # one radius: the probe at the origin
        mu_sl = semilag_profile(t, state.hist_full, data, state.grid.dt,
                                n_radii=1, n_p=14)[1][0]
        c = state.grid.n_half
        mu_dep = embedded(state.grid)[c, c, c]
        assert mu_dep == pytest.approx(mu_sl, rel=0.25)


def reference_f_along_characteristics(t, x, p, hist, data, dt):
    """evaluate_f without the drop rule: every point is traced to s = 0 in
    one batch, and f_in times the weight factor read at all of them."""
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(p, dtype=float))
    if t == 0.0:
        return data.f_value(x, p)
    x0, p0 = characteristics.backward_trace(t, x, p, hist, dt)
    f0 = data.f_value(x0, p0)
    if not np.any(f0 > 0.0):
        return f0
    return f0 * np.exp(4.0 * (hist.phi(t, x) - hist.phi(0.0, x0)))


DATA = {"centred": small_data, "off-centre": off_centre_data}


def in_support(data, count, seed):
    """`count` random phase points inside f_in's support ball."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 6))
    z *= (0.999 * rng.uniform(0, 1, (count, 1)) ** (1 / 6)
          / np.linalg.norm(z, axis=-1, keepdims=True))
    z = data.f_in.center + data.f_in.radius * z
    return z[:, :3], z[:, 3:]


def trace_points(t, hist, data, dt, seed=21):
    """Points at time t: the forward images of 200 points of f_in's support,
    which land in or near it, and 2000 random ones in the light cone."""
    x, p = in_support(data, 200, seed)
    state = characteristics.PhaseState(x=x, p=p, t=0.0)
    while state.t < t - 1e-9:
        state = characteristics.push(state, min(dt, t - state.t), hist)
    rng = np.random.default_rng(seed + 1)
    reach = data.support_radius_R + t
    return (np.concatenate([state.x, rng.uniform(-reach, reach, (2000, 3))]),
            np.concatenate([state.p, rng.uniform(-2.0, 2.0, (2000, 3))]))


class TestSupportDrop:
    """evaluate_f traces only the points whose characteristic may reach
    f_in's support, with the bits of the unpruned reference."""

    @pytest.fixture(scope="class")
    def histories(self):
        """float32 histories with stride 1, 2 and 4 of one run to t = 2."""
        state = init_coupled_state(small_data(), 4, h=0.5, dt=0.25, pad=5.0,
                                   keep_history=True, history_stride=1)
        while state.t < 2.0 - 1e-9:
            step(state)
        full = state.hist_full
        out = {}
        for stride in (1, 2, 4):
            hist = GridFieldHistory(dtype=np.float32, stride=stride)
            for k in range(0, len(full._times), stride):
                hist.append(full._times[k], *full._levels[k])
            out[stride] = hist
        return out

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("data", DATA)
    @pytest.mark.parametrize("dt", [0.25, 0.3])  # 2 = 6 * 0.3 + 0.2
    def test_evaluate_f_bits(self, histories, stride, data, dt):
        hist, data = histories[stride], DATA[data]()
        x, p = trace_points(2.0, hist, data, dt)
        ref = reference_f_along_characteristics(2.0, x, p, hist, data, dt)
        assert np.count_nonzero(ref > 0.0) > 100
        assert_same_bits(evaluate_f(2.0, x, p, hist, data, dt), ref)

    def test_small_chunks(self, monkeypatch, histories):
        data = off_centre_data()
        x, p = trace_points(2.0, histories[4], data, 0.25)
        ref = reference_f_along_characteristics(2.0, x, p, histories[4], data, 0.25)
        monkeypatch.setattr(vlasov_pic, "PARTICLE_CHUNK", 7)
        assert_same_bits(evaluate_f(2.0, x, p, histories[4], data, 0.25), ref)

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("data", DATA)
    def test_semilag_profile_bits(self, monkeypatch, histories, stride, data):
        args = (2.0, histories[stride], DATA[data](), 0.25)
        got = diagnostics.semilag_profile(*args, n_radii=8, n_p=8)
        monkeypatch.setattr(diagnostics, "evaluate_f",
                            reference_f_along_characteristics)
        ref = diagnostics.semilag_profile(*args, n_radii=8, n_p=8)
        assert np.any(ref[1] > 0.0)
        for a, b in zip(got, ref):
            assert_same_bits(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_level_drops_nothing(self, histories):
        hist = GridFieldHistory(dtype=np.float32)
        for t, (level, h, n_half) in zip(histories[4]._times,
                                          histories[4]._levels):
            hist.append(t, level.copy(), h, n_half)
        n_half = hist._levels[-1][2]
        hist._levels[-1][0][n_half, n_half, n_half] = np.nan
        data = small_data()
        x, p = trace_points(2.0, histories[4], data, 0.25)
        # no NaN foot is cast to a cell index, so nothing warns
        ref = reference_f_along_characteristics(2.0, x, p, hist, data, 0.25)
        got = evaluate_f(2.0, x, p, hist, data, 0.25)
        # points near the origin at t = 2, whose weight factor is NaN, read
        # NaN also where f_in's +0.0 is the factor's other side
        assert np.isnan(ref).any() and np.any(ref > 0.0)
        assert_same_bits(got, ref)

    def test_strong_field_and_large_momenta(self):
        # phi = 0.2 x: the force grows with |p| here, so a rule that bounds
        # the momentum's change without the factor 1 + |P| drops feet inside
        hist = GridFieldHistory()
        ax = (np.arange(25) - 12) * 0.5
        level = np.broadcast_to(0.2 * ax[:, None, None], (25, 25, 25))
        hist.append(0.0, level, 0.5, 12)
        hist.append(2.0, level, 0.5, 12)
        data = InitialData(f_in=make_bump([0, 0, 0, 1.5, 0, 0], 0.5, 0.02, 2),
                           phi0_in=make_bump([0.0] * 3, 1.0, 0.0, 3),
                           phi1_in=make_bump([0.0] * 3, 1.0, 0.0, 2),
                           support_radius_R=1.0)
        x, p = trace_points(2.0, hist, data, 0.25)
        ref = reference_f_along_characteristics(2.0, x, p, hist, data, 0.25)
        assert np.count_nonzero(ref > 0.0) > 100
        assert_same_bits(evaluate_f(2.0, x, p, hist, data, 0.25), ref)

    def test_feet_within_rounding_of_the_support_edge(self):
        # far from the origin and over 4000 steps the traced foot and the
        # free-flight formula part by far more than the 1e-9 margin on r^2
        data = InitialData(f_in=make_bump([1e6, 0, 0, 0.2, 0, 0], 1.0, 0.02, 2),
                           phi0_in=make_bump([0.0] * 3, 1.0, 0.0, 3),
                           phi1_in=make_bump([0.0] * 3, 1.0, 0.0, 2),
                           support_radius_R=1.0)
        rng = np.random.default_rng(8)
        d = rng.standard_normal((4000, 6))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        z = data.f_in.center + d * (1.0 + rng.uniform(-1e-6, 1e-6, (4000, 1)))
        t, dt = 100.0, 0.025
        p = z[:, 3:]
        x = z[:, :3] + t * rel_velocity(p)
        ref = reference_f_along_characteristics(t, x, p, ZeroField(), data, dt)
        assert np.any(ref > 0.0)
        assert_same_bits(evaluate_f(t, x, p, ZeroField(), data, dt), ref)

    def test_drop_rule_chunks_split_no_point(self, histories):
        # the drop rule tests MISS_CHUNK points at a time: the batch holds a
        # chunk boundary, and each half lies within one chunk
        data, hist = off_centre_data(), histories[4]
        x, p = (np.concatenate(a) for a in zip(
            *(trace_points(2.0, hist, data, 0.25, seed=s) for s in (21, 23))))
        assert len(x) > characteristics.MISS_CHUNK
        support = (data.f_in.center, data.f_in.radius)

        def trace(xs, ps, **kw):
            return characteristics.backward_trace(2.0, xs, ps, hist, 0.25, **kw)

        xk, pk, kept = trace(x, p, support=support)
        half = 2300  # each half holds forward images of the support
        x1, p1, k1 = trace(x[:half], p[:half], support=support)
        x2, p2, k2 = trace(x[half:], p[half:], support=support)
        assert 0 < len(k1) < half and 0 < len(k2) < len(x) - half
        np.testing.assert_array_equal(kept, np.concatenate([k1, k2 + half]))
        assert_same_bits(xk, np.concatenate([x1, x2]))
        assert_same_bits(pk, np.concatenate([p1, p2]))
        xb, pb = trace(x, p)
        assert_same_bits(xk, xb[kept])
        assert_same_bits(pk, pb[kept])

    def test_every_step_pushes_an_empty_batch(self, monkeypatch, histories):
        sizes = []
        push = characteristics.push
        monkeypatch.setattr(characteristics, "push",
                            lambda s, *a: sizes.append(len(s.x)) or push(s, *a))
        x = np.full((50, 3), 3.0)  # no characteristic from here reaches f_in
        f = evaluate_f(2.0, x, np.zeros((50, 3)), histories[1], small_data(), 0.25)
        assert_same_bits(f, np.zeros(50))
        assert sizes == [0] * 8
