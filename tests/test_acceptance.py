"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Two expensive session fixtures back most criteria: a free-transport run to
t = 80 and a coupled small-amplitude run to t = 40 (the latter dominates the
suite runtime at around ten minutes).
"""

import math

import numpy as np
import pytest

import vnsim.cli as cli
import vnsim.diagnostics as diag
from vnsim.characteristics import AnalyticField, ZeroField
from vnsim.profiles import InitialData, make_bump
from vnsim.vlasov_pic import evaluate_f, init_coupled_state, step
from vnsim.wavefield import (GridFieldHistory, fdtd_step,
                             kirchhoff_homogeneous, make_field_grid,
                             retarded_potential)

C_HAT = 2.0 / np.sqrt(5.0)  # support cone speed for R = 1


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def standard_data(f_amp=0.02, phi_amp=0.01):
    return InitialData(
        f_in=make_bump([0.0] * 6, 1.0, f_amp, 2),
        phi0_in=make_bump([0.0] * 3, 1.0, phi_amp, 3),
        phi1_in=make_bump([0.0] * 3, 1.0, phi_amp, 2),
        support_radius_R=1.0,
    )


# ---------------------------------------------------------------------------
# Session fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def free_run():
    """Free transport (field coupling off) to t = 80, semi-Lagrangian series."""
    data = standard_data()
    zf = ZeroField()
    series = {"t": [], "sup_mu": [], "spread": []}
    for t in np.arange(4.0, 80.0 + 1e-9, 2.0):
        _, mu, sp = diag.semilag_profile(t, zf, data, dt=float(t))
        series["t"].append(float(t))
        series["sup_mu"].append(float(mu.max()))
        series["spread"].append(float(sp.max()))
    return {"data": data, "series": series}


@pytest.fixture(scope="session")
def coupled_run():
    """Coupled small-amplitude run to t = 40 with strided field history."""
    data = standard_data()
    h, dt, t_end = 0.5, 0.25, 40.0
    state = init_coupled_state(data, n_per_dim=10, h=h, dt=dt, pad=5.0,
                               keep_history=True, history_stride=4,
                               history_dtype=np.float32)
    series = {"t": [], "sup_mu_sl": [], "spread_sl": [], "k_origin": [],
              "l_origin": [], "p_max": [], "x_max": []}
    n_steps = int(round(t_end / dt))
    for k in range(1, n_steps + 1):
        step(state)
        if k % 8 == 0:  # record every 2 time units
            t = state.t
            _, mu, sp = diag.semilag_profile(t, state.hist_full, data, dt)
            series["t"].append(t)
            series["sup_mu_sl"].append(float(mu.max()))
            series["spread_sl"].append(float(sp.max()))
            k, l = diag.measure_KL(state.grid, np.zeros(3))
            series["k_origin"].append(float(k))
            series["l_origin"].append(float(l))
            series["p_max"].append(diag.momentum_support(state.ensemble))
            series["x_max"].append(
                float(np.linalg.norm(state.ensemble.x, axis=-1).max()))
    return {"data": data, "state": state, "series": series, "h": h, "dt": dt}


def fit(series, yname, window):
    return diag.fit_decay(list(zip(series["t"], series[yname])), window)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

class TestCriterion1WaveOracle:
    def test_fdtd_vs_sphere_means(self):
        data = InitialData(
            f_in=make_bump([0.0] * 6, 1.0, 0.0, 2),
            phi0_in=make_bump([0.0] * 3, 2.0, 0.01, 4),
            phi1_in=make_bump([0.0] * 3, 2.0, 0.01, 4),
            support_radius_R=2.0)
        rng = np.random.default_rng(0)
        cand = np.array([[i, j, k] for i in range(-4, 5) for j in range(-4, 5)
                         for k in range(-4, 5)]) * 0.5
        cand = cand[np.linalg.norm(cand, axis=1) <= 2.0]
        probes = cand[rng.choice(len(cand), 20, replace=False)]
        t_end = 1.0
        exact = np.array([kirchhoff_homogeneous(t_end, x, data) for x in probes])
        errs = []
        for h in (0.5, 0.25, 0.125):
            dt = h / 2
            grid = make_field_grid(data, h, dt, pad=3.0)
            for _ in range(int(round(t_end / dt))):
                fdtd_step(grid)
            hist = GridFieldHistory()
            hist.append(grid.t, grid.phi_0, grid.h, grid.n_half)
            errs.append(np.abs(hist.phi(t_end, probes) - exact).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        rel = errs[-1] / np.abs(exact).max()
        ok = all(1.7 <= p <= 2.3 for p in orders) and rel <= 0.01
        report(1, ok, f"orders {orders[0]:.2f}, {orders[1]:.2f} "
                      f"(need 2.0+-0.3); rel error {rel:.4f} (need <= 0.01)")


class TestCriterion2RetardedIntegral:
    def test_static_ball_center(self):
        src = AnalyticField(
            lambda s, y: (np.sum(y * y, axis=-1) <= 1.0).astype(float))
        val = retarded_potential(1.0, np.zeros(3), src, shell_width=0.05)
        rel = abs(val + 0.5) / 0.5
        report(2, rel <= 0.01, f"center value {val:.6f} vs -1/2, rel {rel:.2e}")


class TestCriterion3FinitePropagation:
    def test_outside_cone(self, coupled_run):
        state = coupled_run["state"]
        data = coupled_run["data"]
        h, dt = coupled_run["h"], coupled_run["dt"]
        t = state.t
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(30, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        radii = 1.0 + t + h + rng.uniform(0.05, 3.0, 30)
        x = dirs * radii[:, None]
        p = rng.uniform(-1.5, 1.5, (30, 3))
        f = evaluate_f(t, x, p, state.hist_full, data, dt)
        ax = state.grid.node_axis()
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(xx**2 + yy**2 + zz**2)
        mu = np.zeros(r.shape)
        mu[state.grid.source_box()] = state.grid.mu
        mu_out = mu[r > 1.0 + t + h]
        ok = np.all(f == 0.0) and np.all(np.abs(mu_out) < 1e-14)
        report(3, ok, f"max f outside cone {np.abs(f).max():.1e}, "
                      f"max mu outside cone {np.abs(mu_out).max():.1e}")


class TestCriterion4SourceDecay:
    def test_free_transport_slope(self, free_run):
        f = fit(free_run["series"], "sup_mu", (10, 80))
        ok = abs(f.slope + 3.0) <= 0.3
        report(4, ok, f"free-transport sup-mu slope {f.slope:.3f} (need -3.0+-0.3)")

    def test_weak_coupling_slope(self, coupled_run):
        f = fit(coupled_run["series"], "sup_mu_sl", (10, 40))
        ok = f.slope <= -2.5
        report(4, ok, f"weak-coupling sup-mu slope {f.slope:.3f} (need <= -2.5)")


class TestCriterion5KDecay:
    def test_k_at_origin(self, coupled_run):
        f = fit(coupled_run["series"], "k_origin", (10, 40))
        ok = f.slope <= -1.6
        report(5, ok, f"K(t, 0) slope {f.slope:.3f} (need <= -1.6, predicted -2)")


class TestCriterion6LDecayInformational:
    def test_l_at_origin(self, coupled_run):
        f = fit(coupled_run["series"], "l_origin", (10, 40))
        # informational only: grid second derivatives are noise-limited
        report(6, f.slope < 0.0,
               f"L(t, 0) slope {f.slope:.3f} vs -2.75 predicted at fixed x "
               f"(informational: gated on decay only, not on the exponent)")


class TestCriterion7Support:
    def test_momentum_and_spatial_support(self, coupled_run):
        s = coupled_run["series"]
        h = coupled_run["h"]
        p_ok = all(p <= 2.0 for p in s["p_max"])
        x_ok = all(xm <= 1.0 + C_HAT * t + h
                   for t, xm in zip(s["t"], s["x_max"]))
        report(7, p_ok and x_ok,
               f"max momentum {max(s['p_max']):.4f} (need <= 2); spatial "
               f"support within R + t*2/sqrt(5) + h at all {len(s['t'])} records")


class TestCriterion8SpreadDecay:
    def test_free_transport_spread(self, free_run):
        f = fit(free_run["series"], "spread", (10, 80))
        ok = abs(f.slope + 3.0) <= 0.4
        report(8, ok, f"momentum-spread slope {f.slope:.3f} (need -3.0+-0.4)")


class TestCriterion9Characteristics:
    def test_jacobian_vs_finite_differences(self):
        from vnsim.characteristics import (AnalyticField, backward_trace,
                                           flow_jacobian)
        w = 0.8
        amp = 0.03

        def phi(t, x):
            return amp * np.sin(w * t) * np.exp(-np.sum(x * x, axis=-1))

        fld = AnalyticField(
            phi,
            lambda t, x: amp * w * np.cos(w * t) * np.exp(-np.sum(x * x, axis=-1)),
            lambda t, x: -2.0 * x * phi(t, x)[..., None])
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            p = rng.uniform(-1, 1, 3)
            t = rng.uniform(0.5, 4.0)
            jac = flow_jacobian(t, x, p, fld, dt=0.05)
            jfd = np.zeros((6, 6))
            eps = 1e-6
            for j in range(6):
                d = np.zeros(6)
                d[j] = eps
                xp, pp = backward_trace(t, x + d[:3], p + d[3:], fld, 0.05)
                xm, pm = backward_trace(t, x - d[:3], p - d[3:], fld, 0.05)
                jfd[:, j] = np.concatenate([xp - xm, pp - pm]) / (2 * eps)
            worst = max(worst, np.abs(jac - jfd).max() / np.abs(jfd).max())
        report("9a", worst <= 1e-3,
               f"flow Jacobian vs FD, worst relative error {worst:.2e} (need <= 1e-3)")

    def test_dispersion_on_coupled_run(self, coupled_run):
        state = coupled_run["state"]
        dt = coupled_run["dt"]
        rng = np.random.default_rng(23)
        worst = np.inf
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 3)
            p1 = rng.uniform(-0.6, 0.6, 3)
            p2 = rng.uniform(-0.6, 0.6, 3)
            t = float(rng.uniform(10.0, 20.0))
            ratio = diag.dispersion_check(state.hist_full, [(x, p1, p2, t)], dt)
            free = diag.free_flow_dispersion_ratio(p1, p2)
            worst = min(worst, ratio / free)
        report("9b", worst >= 0.5,
               f"dispersion ratio >= {worst:.3f} of free-flow value (need >= 0.5)")


class TestCriterion10WeightLaw:
    def test_initial_time_exact(self, coupled_run):
        state = coupled_run["state"]
        data = coupled_run["data"]
        rng = np.random.default_rng(29)
        x = rng.uniform(-1, 1, (200, 3))
        p = rng.uniform(-1, 1, (200, 3))
        f0 = evaluate_f(0.0, x, p, state.hist_full, data, coupled_run["dt"])
        exact = np.all(f0 == data.f_value(x, p))

        # sup bound at later times from the exponential weight law
        phi_max = max(float(np.abs(lvl).max())
                      for lvl, _, _ in state.hist_full._levels)
        bound = data.f_in.amplitude * np.exp(
            4.0 * (phi_max + data.phi0_in.amplitude))
        worst = 0.0
        for t in (5.0, 20.0, 40.0):
            # sample momenta from the adaptive box around the free-streaming
            # center so the evaluated values are actually nonzero
            for r in np.linspace(0.0, 1.0 + C_HAT * t, 8):
                xp = np.array([r, 0.0, 0.0])
                lo, hi = diag._p_box(t, xp, data)
                pg, _ = diag._p_grid(lo, hi, 6)
                xs = np.broadcast_to(xp, pg.shape).copy()
                f = evaluate_f(t, xs, pg, state.hist_full, data,
                               coupled_run["dt"])
                worst = max(worst, float(f.max()))
        ok = exact and worst <= bound
        report(10, ok, f"f(0) exact: {exact}; sup f {worst:.4f} <= "
                       f"exp-weight bound {bound:.4f}")


class TestCriterion11Determinism:
    CONF = """
R = 1
h = 0.5
dt = 0.25
t_end = 3
n_per_dim = 6
record_interval = 0.5
pad = 5
semilag = 0
checkpoint_interval = 1
"""

    def test_rerun_and_resume_bitwise(self, tmp_path):
        out = tmp_path / "det.csv"
        conf = tmp_path / "det.conf"
        conf.write_text(self.CONF + f"output = {out}\n")
        assert cli.main(["run", str(conf)]) == 0
        ref = out.read_bytes()
        assert cli.main(["run", str(conf)]) == 0
        rerun_ok = out.read_bytes() == ref

        # capture the first (mid-run) checkpoint, then resume from it
        saved = []
        orig = cli.save_checkpoint

        def capture(path, c, s, r):
            orig(path, c, s, r)
            if not saved:
                import shutil
                shutil.copy(path, str(tmp_path / "mid.npz"))
                saved.append(True)

        cli.save_checkpoint = capture
        try:
            cli.main(["run", str(conf)])
        finally:
            cli.save_checkpoint = orig
        assert cli.main(["resume", str(tmp_path / "mid.npz")]) == 0
        resume_ok = out.read_bytes() == ref
        report(11, rerun_ok and resume_ok,
               f"rerun bitwise: {rerun_ok}; checkpoint-resume bitwise: {resume_ok}")
