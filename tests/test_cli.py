import dataclasses
import errno
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vnsim.cli import (SimConfig, build_initial_data, config_hash,
                       estimate_memory_mb, load_checkpoint, main, parse_config,
                       run_scenario, save_checkpoint, sweep)
from vnsim.characteristics import PhaseState, ZeroField, push
from vnsim.errors import ConfigError
from vnsim.vlasov_pic import init_coupled_state, step

ROOT = Path(__file__).resolve().parents[1]
BASE = """
R = 1
h = 0.5
dt = 0.25
t_end = 2
n_per_dim = 6
record_interval = 0.5
pad = 5
semilag = 0
"""


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config("h = 0.5\ndt = 0.25\n")
        assert cfg.R == 1.0
        assert cfg.beta == 0.6
        assert cfg.coupling is True

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nh = 0.5  # inline\ndt = 0.2\n")
        assert cfg.h == 0.5

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("h = 0.5\nspacing = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("h = 0.5\nh = 0.25\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("h = tiny\n")

    def test_cfl_violation(self):
        with pytest.raises(ConfigError, match="CFL"):
            parse_config("h = 0.5\ndt = 0.5\ncoupling = 1\n")

    def test_cfl_not_required_without_coupling(self):
        cfg = parse_config("h = 0.5\ndt = 0.5\ncoupling = 0\n")
        assert cfg.dt == 0.5

    def test_beta_range_names_interval(self):
        with pytest.raises(ConfigError, match=r"\(1/2, 3/4\)"):
            parse_config("beta = 0.8\n")

    def test_record_interval_multiple_of_dt(self):
        with pytest.raises(ConfigError, match="record_interval"):
            parse_config("dt = 0.25\nrecord_interval = 0.3\n")

    def test_memory_budget(self):
        with pytest.raises(ConfigError, match="memory"):
            parse_config("h = 0.1\ndt = 0.05\nt_end = 100\nmemory_budget_mb = 10\n")

    def test_estimate_positive(self):
        assert estimate_memory_mb(SimConfig()) > 0

    def test_free_run_that_fits_validates(self):
        # free_stream's config: `perfbench/run.py --workload free_stream`
        # measures a peak RSS of at most 65.1 MiB, and the floor adds 5 % for
        # other builds; charging each particle the 79 floats of a coupled
        # push estimated 194 MiB
        text = ("coupling = 0\nh = 1\ndt = 0.5\nn_per_dim = 12\nt_end = 10\n"
                "record_interval = 2\nmemory_budget_mb = 150\n")
        cfg = parse_config(text)
        assert 68.4 < estimate_memory_mb(cfg) < cfg.memory_budget_mb

    @pytest.mark.parametrize("float32", [0, 1])
    def test_estimate_counts_history_levels_at_their_own_size(self, float32):
        base = "h = 0.5\ndt = 0.25\npad = 3\nt_end = 12\nhistory_stride = 4\nsemilag = 0\n"
        with_history = parse_config(base + f"keep_history = 1\nhistory_float32 = {float32}\n")
        without = parse_config(base + "keep_history = 0\n")
        # levels at t = 0, 1, ..., 12 on the cube of half-width R + t + pad + 1
        nodes = sum((2 * int(np.ceil((1 + t + 3 + 1) / 0.5)) + 1) ** 3 for t in range(13))
        extra = estimate_memory_mb(with_history) - estimate_memory_mb(without)
        assert extra == pytest.approx(nodes * (4 if float32 else 8) / 2**20)


def text_value(field):
    """A config-file value for a SimConfig field, and what it parses to."""
    if field.type == "str":
        return "named.csv", "named.csv"
    if field.type == "bool":
        return ("1", True) if field.default else ("0", False)
    if field.type == "tuple":
        vals = tuple(0.125 * (i + 1) for i in range(len(field.default)))
        return ",".join(repr(v) for v in vals), vals
    return repr(field.default), field.default


class TestSchema:
    FIELDS = [f for f in dataclasses.fields(SimConfig) if f.name != "config_text"]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_every_field_parses_from_text(self, field):
        text, expected = text_value(field)
        cfg = parse_config(f"{field.name} = {text}\n")
        value = getattr(cfg, field.name)
        assert value == expected
        assert type(value).__name__ == field.type

    def test_tuple_length_from_default(self):
        with pytest.raises(ConfigError, match="expected 3"):
            parse_config("phi0_center = 0,0\n")

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_retired_threads_key_loads(self, threads):
        cfg = parse_config(f"threads = {threads}\n")
        assert not hasattr(cfg, "threads")
        assert f"threads = {threads}" in cfg.config_text

    def test_retired_threads_key_keeps_hash(self):
        # the hash this config had while threads was a SimConfig field
        cfg = parse_config("h = 0.5\ndt = 0.25\nthreads = 1\n")
        assert config_hash(cfg) == "f083aa545c8f8f3f"


class TestConfigHash:
    @pytest.mark.parametrize("text", [
        "", BASE, "h = 0.5\ndt = 0.25\nthreads = 1\n",
        (ROOT / "tools" / "semilag_history.conf").read_text(),
        (ROOT / "tools" / "fine_growth.conf").read_text()])
    def test_is_hashlib_sha256(self, text):
        cfg = parse_config(text)
        assert config_hash(cfg) == hashlib.sha256(
            cfg.config_text.encode()).hexdigest()[:16]

    @pytest.mark.skipif(
        not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
        reason="no built-in sha256: config_hash takes hashlib's")
    def test_run_loads_no_openssl(self, tmp_path):
        # hashlib maps OpenSSL's libcrypto, 3.5 MiB resident; the run
        # traces the *_sl columns and writes checkpoints
        conf = write_conf(tmp_path, BASE.replace("n_per_dim = 6", "n_per_dim = 4")
                          .replace("semilag = 0", "semilag = 1")
                          + "keep_history = 1\nhistory_stride = 2\n"
                          "checkpoint_interval = 1\noutput = run.csv\n")
        script = ("import sys\nfrom vnsim.cli import main\n"
                  f"assert main(['run', {conf!r}]) == 0\n"
                  "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
        assert (tmp_path / "run.csv.ckpt.npz").exists()

    def test_stable_under_reordering(self):
        a = parse_config("h = 0.5\ndt = 0.25\n")
        b = parse_config("dt = 0.25\nh = 0.5\n")
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = parse_config("h = 0.5\ndt = 0.25\n")
        b = parse_config("h = 0.5\ndt = 0.2\n")
        assert config_hash(a) != config_hash(b)


class TestRunScenario:
    def test_zero_amplitude_all_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        cfg = parse_config(BASE + f"delta = 0\noutput = {out}\n")
        assert run_scenario(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        for line in lines[2:]:
            vals = [float(v) for v in line.split(",")]
            assert all(v == 0.0 for v in vals[1:])

    def test_small_run_and_formats(self, tmp_path):
        out = tmp_path / "small.csv"
        cfg = parse_config(BASE + f"output = {out}\n")
        assert run_scenario(cfg) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "t" and "sup_mu" in header
        # 17 significant digits round-trip
        for v in lines[3].split(","):
            assert float(v) == float(repr(float(v)))
        summary = (tmp_path / "small.csv.summary").read_text()
        assert "config_hash" in summary and "status = ok" in summary

    @pytest.mark.parametrize("extra, unmeasured", [
        ("keep_history = 0\n", True),
        ("keep_history = 1\nhistory_stride = 2\n", False),
        ("coupling = 0\n", False)])
    def test_summary_says_when_sl_columns_are_not_measured(self, tmp_path,
                                                            extra, unmeasured):
        # a coupled run traces the *_sl columns only through stored levels;
        # without them it writes 0 after t = 0, so the summary says why
        out = tmp_path / "sl.csv"
        cfg = parse_config(BASE.replace("n_per_dim = 6", "n_per_dim = 5")
                           .replace("semilag = 0", "semilag = 1")
                           + extra + f"output = {out}\n")
        assert run_scenario(cfg) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        sl = rows[1:, [2, 5]]  # sup_mu_sl and spread_sl after t = 0
        assert np.all(sl == 0.0) == unmeasured
        line = "sl_columns = not measured (coupled runs need keep_history = 1)"
        assert (line in (tmp_path / "sl.csv.summary").read_text()) == unmeasured

    def test_rerun_bitwise_identical(self, tmp_path):
        out = tmp_path / "det.csv"
        cfg = parse_config(BASE + f"output = {out}\n")
        run_scenario(cfg)
        first = out.read_bytes()
        run_scenario(cfg)
        assert out.read_bytes() == first

    def test_semilag_history_matches_the_pinned_csv(self, tmp_path, monkeypatch):
        # late-time *_sl columns, traced through a float32 history of every
        # 4th level, against the CSV this config wrote before backward traces
        # dropped the points that miss f's support
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.conf").write_text(
            (root / "tools" / "semilag_history.conf").read_text())
        assert main(["run", "run.conf"]) == 0
        got = (tmp_path / "semilag_history.csv").read_text().splitlines()
        pinned = (root / "tests" / "data" / "semilag_history.csv").read_text()
        pinned = pinned.splitlines()
        assert got[:2] == pinned[:2] and len(got) == len(pinned) == 9
        np.testing.assert_allclose(
            np.loadtxt(got[2:], delimiter=","),
            np.loadtxt(pinned[2:], delimiter=","), rtol=1e-7, atol=0)


class TestCheckpointResume:
    def test_resume_reproduces_series(self, tmp_path):
        out = tmp_path / "full.csv"
        text = BASE + f"output = {out}\ncheckpoint_interval = 1\n"
        cfg = parse_config(text)
        run_scenario(cfg)
        ref = out.read_bytes()

        # recreate the mid-run checkpoint by running the first half only
        import vnsim.cli as cli
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
            run_scenario(parse_config(text))
        finally:
            cli.save_checkpoint = orig

        cfg2, state, rows = load_checkpoint(str(tmp_path / "mid.npz"))
        assert state.t == pytest.approx(1.0)
        assert run_scenario(cfg2, state=state, rows=rows) == 0
        assert out.read_bytes() == ref

    def test_checkpoint_embeds_config(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = parse_config(BASE + f"output = {out}\ncheckpoint_interval = 1\n")
        run_scenario(cfg)
        cfg2, _, _ = load_checkpoint(cfg.ckpt_path)
        assert config_hash(cfg2) == config_hash(cfg)

    def test_checkpoint_path_without_npz_suffix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf = write_conf(tmp_path, BASE + "output = run.csv\n"
                          "checkpoint_path = my.ckpt\ncheckpoint_interval = 0.75\n")
        assert main(["run", conf]) == 0
        assert (tmp_path / "my.ckpt").exists()
        assert not (tmp_path / "my.ckpt.npz").exists()
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        # the last checkpoint is at t = 1.5, so the resume runs two steps
        assert main(["resume", "my.ckpt"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref


    def test_failed_checkpoint_write_keeps_the_last_one(self, tmp_path,
                                                        monkeypatch):
        # a write that fails midway (a full disk) leaves the checkpoint
        # before it whole: the run exits 3 and that checkpoint resumes
        monkeypatch.chdir(tmp_path)
        conf = write_conf(tmp_path, BASE + "output = run.csv\n"
                          "checkpoint_interval = 0.75\n")
        assert main(["run", conf]) == 0
        full = (tmp_path / "run.csv").read_bytes()
        for name in ("run.csv", "run.csv.summary", "run.csv.ckpt.npz"):
            (tmp_path / name).unlink()
        savez, calls = np.savez, []

        def fail_on_second(fh, **arrays):
            calls.append(fh.name)
            if len(calls) == 1:
                return savez(fh, **arrays)
            fh.write(b"PK\x03\x04 half a checkpoint")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", fail_on_second)
        assert main(["run", conf]) == 3
        monkeypatch.setattr(np, "savez", savez)
        assert len(calls) == 2
        summary = (tmp_path / "run.csv.summary").read_text()
        assert "status = aborted" in summary
        assert "note = checkpoint: [Errno 28] No space left on device" in summary
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.conf", "run.csv", "run.csv.ckpt.npz", "run.csv.summary"]
        _, state, _ = load_checkpoint("run.csv.ckpt.npz")
        assert state.t == 0.75
        assert main(["resume", "run.csv.ckpt.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == full

    def test_resume_after_domain_growth_is_bitwise(self, tmp_path):
        # the cube grows at step 1; the resumed run must push through the
        # same levels as the uninterrupted one, on the grown cube
        cfg = parse_config("h = 0.25\ndt = 0.125\npad = 3\nn_per_dim = 4\n"
                           f"semilag = 0\noutput = {tmp_path / 'g.csv'}\n")

        def fresh():
            return init_coupled_state(build_initial_data(cfg), cfg.n_per_dim,
                                      cfg.h, cfg.dt, pad=cfg.pad)

        full, resumed = fresh(), fresh()
        n_half = full.grid.n_half
        step(full)
        step(resumed)
        assert full.grid.n_half > n_half
        save_checkpoint(cfg.ckpt_path, cfg, resumed, [])
        _, resumed, _ = load_checkpoint(cfg.ckpt_path)
        for _ in range(4):
            step(full)
            step(resumed)
            assert np.array_equal(full.ensemble.x, resumed.ensemble.x)
            assert np.array_equal(full.ensemble.w, resumed.ensemble.w)
            assert np.array_equal(full.grid.phi_p, resumed.grid.phi_p)


    def test_old_format_checkpoint_resumes_bitwise(self, tmp_path, monkeypatch):
        # earlier versions also wrote t, ens_x0, ens_p0 and cell_volume,
        # which no run reads
        monkeypatch.chdir(tmp_path)
        conf = write_conf(tmp_path, BASE + "output = run.csv\n"
                          "checkpoint_interval = 0.75\n")
        assert main(["run", conf]) == 0
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        with np.load("run.csv.ckpt.npz") as z:
            arrays = dict(z)
        arrays.update(t=arrays["grid_meta"][3:], ens_x0=arrays["ens_x"] + 1.0,
                      ens_p0=arrays["ens_p"] - 1.0, cell_volume=np.array([0.5]))
        with open("old.npz", "wb") as fh:
            np.savez(fh, **arrays)
        assert main(["resume", "old.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref

    FREE = (BASE.replace("pad = 5", "pad = 0").replace("t_end = 2", "t_end = 2.5")
            .replace("semilag = 0", "semilag = 1")
            + "coupling = 0\noutput = run.csv\ncheckpoint_interval = 1\n")

    def test_free_transport_resumes_bitwise_after_growth(self, tmp_path, monkeypatch):
        # pad = 0: the cube grows at t = 0.25 and 1.75; the last checkpoint,
        # at t = 2, holds mu on the grown cube and no field levels, which
        # free transport never has
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_conf(tmp_path, self.FREE)]) == 0
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        with np.load("run.csv.ckpt.npz") as z:
            assert not {"phi_m", "phi_0", "phi_p"} & set(z.files)
        _, state, _ = load_checkpoint("run.csv.ckpt.npz")
        assert state.t == 2.0 and state.grid.n_half == 8
        state.grid.source_box()  # mu fits the grown cube
        assert 0 < state.grid.mu.size < 17 ** 3
        assert state.grid.phi_m is state.grid.phi_0 is state.grid.phi_p is None
        assert main(["resume", "run.csv.ckpt.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref

    def test_free_checkpoint_with_field_levels_resumes_bitwise(self, tmp_path,
                                                              monkeypatch):
        # earlier versions also wrote phi_m (on the t = 0 cube), phi_0 and
        # phi_p for free runs; load_checkpoint does not read them
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_conf(tmp_path, self.FREE)]) == 0
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        with np.load("run.csv.ckpt.npz") as z:
            arrays = dict(z)
        rng = np.random.default_rng(0)
        shape = arrays["mu"].shape
        arrays.update(phi_m=rng.standard_normal((5, 5, 5)),
                      phi_0=rng.standard_normal(shape),
                      phi_p=rng.standard_normal(shape))
        with open("old.npz", "wb") as fh:
            np.savez(fh, **arrays)
        _, state, _ = load_checkpoint("old.npz")
        assert state.grid.phi_m is state.grid.phi_0 is state.grid.phi_p is None
        assert main(["resume", "old.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref

    def test_free_checkpoint_with_weight_law_arrays_resumes_bitwise(
            self, tmp_path, monkeypatch):
        # earlier versions also wrote w0 and phi0_in at x0 (ens_w0,
        # ens_phi0) for free runs, which never run the weight law
        monkeypatch.chdir(tmp_path)
        assert main(["run", write_conf(tmp_path, self.FREE)]) == 0
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        with np.load("run.csv.ckpt.npz") as z:
            arrays = dict(z)
        assert not {"ens_w0", "ens_phi0"} & set(arrays)
        arrays.update(ens_w0=arrays["ens_w"].copy(),
                      ens_phi0=np.random.default_rng(1).standard_normal(
                          len(arrays["ens_w"])))
        with open("old.npz", "wb") as fh:
            np.savez(fh, **arrays)
        _, state, _ = load_checkpoint("old.npz")
        assert state.ensemble.w0 is state.ensemble.phi0_at_x0 is None
        assert main(["resume", "old.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref

    def test_free_constants_are_rebuilt_after_resume_and_never_saved(
            self, tmp_path):
        # the charges w/gamma, p_max and the step of x are computed once per
        # run, not checkpointed, and a resumed run rebuilds them bitwise
        import vnsim.cli as cli
        cfg = parse_config(self.FREE.replace("output = run.csv",
                                             f"output = {tmp_path / 'f.csv'}"))
        state = init_coupled_state(build_initial_data(cfg), cfg.n_per_dim,
                                   cfg.h, cfg.dt, pad=cfg.pad, coupling=False,
                                   keep_history=False)
        assert state.free_q is not None
        assert state.free_disp is state.free_p_max is None
        row = cli._record_row(state, cfg)
        q, p_max = state.free_q, state.free_p_max
        assert p_max == row["p_max"] > 0.0
        for _ in range(4):
            step(state)
            assert state.free_q is q and cli._record_row(state, cfg)["p_max"] == p_max
        disp = state.free_disp
        save_checkpoint(cfg.ckpt_path, cfg, state, [])
        with np.load(cfg.ckpt_path) as z:
            saved = [z[name] for name in z.files]
        # no saved array is any of the constants
        assert not any(a.shape == q.shape and np.array_equal(a, q) for a in saved)
        assert not any(a.shape == disp.shape and np.array_equal(a, disp)
                       for a in saved)
        assert not any(a.size == 1 and a.ravel()[0] == p_max for a in saved)
        _, resumed, _ = load_checkpoint(cfg.ckpt_path)
        assert resumed.free_q is resumed.free_p_max is resumed.free_disp is None
        step(resumed)
        step(state)
        assert cli._record_row(resumed, cfg)["p_max"] == p_max
        for got, want in ((resumed.free_q, q), (resumed.free_disp, disp),
                          (resumed.ensemble.x, state.ensemble.x),
                          (resumed.grid.mu, state.grid.mu)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_free_step_is_the_zero_field_push_through_growth_and_resume(
            self, tmp_path):
        # a free step adds the displacement built at the run's first step;
        # pad = 0 grows the cube every 1 / dt = 4 steps, and the resumed
        # state builds the displacement again from the checkpoint's momenta
        cfg = parse_config("coupling = 0\nh = 0.5\ndt = 0.25\npad = 0\n"
                           f"n_per_dim = 5\noutput = {tmp_path / 'f.csv'}\n")
        state = init_coupled_state(build_initial_data(cfg), cfg.n_per_dim,
                                   cfg.h, cfg.dt, pad=cfg.pad, coupling=False,
                                   keep_history=False)
        # a copy: the free step adds into x in place
        ref = PhaseState(x=state.ensemble.x.copy(), p=state.ensemble.p, t=0.0)
        grows = 0
        for k in range(24):
            if k == 10:
                save_checkpoint(cfg.ckpt_path, cfg, state, [])
                with np.load(cfg.ckpt_path) as z:
                    assert set(z.files) == {
                        "config_text", "config_hash", "rows", "ens_x", "ens_p",
                        "ens_w", "grid_meta", "mu", "mu_origin"}
                _, state, _ = load_checkpoint(cfg.ckpt_path)
                assert state.free_disp is None
            n_half = state.grid.n_half
            step(state, deposit=k % 3 == 0)
            grows += state.grid.n_half != n_half
            ref = push(ref, cfg.dt, ZeroField())
            assert state.t == ref.t
            for got, want in ((state.ensemble.x, ref.x), (state.ensemble.p, ref.p)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        assert state.free_disp.shape == state.ensemble.x.shape
        assert grows >= 4

    def test_coupled_checkpoint_keys(self, tmp_path, monkeypatch):
        # the free run's keys plus the weight law's w0 and phi0_in at x0 and
        # the three field levels, and no other
        monkeypatch.chdir(tmp_path)
        conf = write_conf(tmp_path, BASE + "output = run.csv\ncheckpoint_interval = 1\n")
        assert main(["run", conf]) == 0
        with np.load("run.csv.ckpt.npz") as z:
            assert set(z.files) == {
                "config_text", "config_hash", "rows", "ens_x", "ens_p", "ens_w",
                "ens_w0", "ens_phi0", "grid_meta", "phi_m", "phi_0", "phi_p", "mu",
                "mu_origin"}
            # the source's box, which is smaller than a level
            assert z["mu_origin"].shape == (3,) and z["mu"].ndim == 3
            assert 0 < z["mu"].size < z["phi_0"].size

    @pytest.mark.parametrize("coupling", [1, 0])
    def test_checkpoint_with_mu_on_the_cube_resumes_bitwise(self, tmp_path,
                                                            monkeypatch, coupling):
        # earlier versions wrote mu on the whole cube and no mu_origin
        monkeypatch.chdir(tmp_path)
        # the last checkpoint is at t = 1.5 (coupled) or 2, so the resume steps
        text = (BASE + "output = run.csv\ncheckpoint_interval = 0.75\n"
                if coupling else self.FREE)
        assert main(["run", write_conf(tmp_path, text)]) == 0
        ref = (tmp_path / "run.csv").read_bytes()
        (tmp_path / "run.csv").unlink()
        with np.load("run.csv.ckpt.npz") as z:
            arrays = dict(z)
        n = 2 * int(arrays["grid_meta"][2]) + 1
        cube = np.zeros((n, n, n))
        cube[tuple(slice(o, o + m) for o, m in
                   zip(arrays.pop("mu_origin"), arrays["mu"].shape))] = arrays["mu"]
        assert cube.any() and arrays["mu"].size < cube.size
        arrays["mu"] = cube
        with open("old.npz", "wb") as fh:
            np.savez(fh, **arrays)
        _, state, _ = load_checkpoint("old.npz")
        assert state.grid.mu_origin == (0, 0, 0) and state.grid.mu.shape == (n, n, n)
        assert main(["resume", "old.npz"]) == 0
        assert (tmp_path / "run.csv").read_bytes() == ref

    @pytest.mark.parametrize("kind", ["csv", "cut", "empty", "npy", "no_mu",
                                      "no_level", "mu_outside", "mu_2d"])
    def test_resume_of_a_broken_file_exits_two(self, tmp_path, monkeypatch,
                                              capsys, kind):
        monkeypatch.chdir(tmp_path)
        conf = write_conf(tmp_path, BASE.replace("t_end = 2", "t_end = 0.5")
                          + "output = run.csv\ncheckpoint_interval = 0.5\n")
        assert main(["run", conf]) == 0
        ckpt = (tmp_path / "run.csv.ckpt.npz").read_bytes()
        bad = tmp_path / "bad"
        if kind == "csv":
            bad.write_bytes((tmp_path / "run.csv").read_bytes())
        elif kind == "cut":
            bad.write_bytes(ckpt[:300])
        elif kind == "empty":
            bad.write_bytes(b"")
        elif kind == "npy":
            with open(bad, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:  # a coupled checkpoint without mu or phi_p, or whose mu does
            # not fit the cube at its origin
            drop = {"no_mu": "mu", "no_level": "phi_p"}.get(kind)
            with np.load("run.csv.ckpt.npz") as z:
                arrays = {k: v for k, v in z.items() if k != drop}
            if kind == "mu_outside":
                arrays["mu_origin"] = arrays["mu_origin"] + arrays["phi_p"].shape[0] // 2
            elif kind == "mu_2d":
                arrays["mu"] = arrays["mu"][0]
            with open(bad, "wb") as fh:
                np.savez(fh, **arrays)
        capsys.readouterr()
        assert main(["resume", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not a vnsim checkpoint" in err and "Traceback" not in err


class TestSweep:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "sw.csv"
        cfg = parse_config(BASE.replace("t_end = 2", "t_end = 1")
                           + f"output = {out}\n")
        table = sweep(cfg, [0.0, 1.0])
        assert len(table) == 2
        assert table[0]["delta"] == 0.0
        assert table[0]["exit"] == 0
        assert table[0]["p_bound_ok"]
        assert table[1]["p_max"] > 0


class TestSweepResume:
    def test_member_checkpoint_resumes_to_member_csv(self, tmp_path):
        out = tmp_path / "base.csv"
        conf = write_conf(tmp_path, BASE + f"delta = 0.5\noutput = {out}\n"
                          "checkpoint_interval = 0.75\n")
        assert main(["sweep", conf, "--delta", "1"]) == 0
        member = tmp_path / "base.csv.delta1.csv"
        ref = member.read_bytes()
        member.unlink()
        # the last checkpoint is at t = 1.5, so the resume runs two steps
        assert main(["resume", str(member) + ".ckpt.npz"]) == 0
        assert member.read_bytes() == ref
        assert not out.exists()


    def test_every_member_keeps_its_own_checkpoint(self, tmp_path):
        out = tmp_path / "base.csv"
        shared = tmp_path / "shared.ckpt.npz"
        conf = write_conf(tmp_path, BASE + f"output = {out}\n"
                          f"checkpoint_path = {shared}\ncheckpoint_interval = 0.75\n")
        assert main(["sweep", conf, "--delta", "0.5,1"]) == 0
        assert not shared.exists()
        for d in ("0.5", "1"):
            member = tmp_path / f"base.csv.delta{d}.csv"
            ref = member.read_bytes()
            member.unlink()
            assert main(["resume", str(member) + ".ckpt.npz"]) == 0
            assert member.read_bytes() == ref


class TestNanAbort:
    def test_nan_in_field_aborts_with_checkpoint(self, tmp_path, monkeypatch, capsys):
        import vnsim.cli as cli
        out = tmp_path / "nan.csv"
        cfg = parse_config(BASE + f"output = {out}\n")
        calls = []
        real_step = cli.step

        def poisoned(state, **kwargs):
            real_step(state, **kwargs)
            calls.append(state.t)
            if len(calls) == 3:
                grid = state.grid
                # a new array: stored levels are never written in place
                grid.phi_p = grid.phi_p.copy()
                grid.phi_p[grid.n_half, grid.n_half, grid.n_half] = np.nan
            return state

        monkeypatch.setattr(cli, "step", poisoned)
        assert run_scenario(cfg) == 3
        summary = (tmp_path / "nan.csv.summary").read_text()
        assert "status = aborted" in summary and "NaN detected at t=0.75" in summary
        assert capsys.readouterr().err == (
            f"aborted: NaN detected at t=0.75; last state saved to {cfg.ckpt_path}\n")
        _, state, rows = load_checkpoint(cfg.ckpt_path)
        assert state.t == 0.75
        assert np.isnan(state.grid.phi_p).any()
        # the rows recorded before the abort: t = 0 and t = 0.5
        assert len(rows) == 2
        assert out.read_text().splitlines()[2:] == rows

    @pytest.mark.parametrize("coupling", [1, 0])
    def test_nan_abort_whose_checkpoint_fails_writes_the_rows(
            self, tmp_path, monkeypatch, capsys, coupling):
        # the NaN abort's checkpoint cannot be written (a full disk): the
        # run still exits 3 with the rows and an aborted summary whose note
        # names both, and leaves no checkpoint and no .tmp file
        import vnsim.cli as cli
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(BASE + f"coupling = {coupling}\noutput = nan.csv\n")
        calls = []
        real_step = cli.step

        def poisoned(state, **kwargs):
            real_step(state, **kwargs)
            calls.append(state.t)
            if len(calls) == 3:
                x = state.ensemble.x.copy()
                x[0, 0] = np.nan
                state.ensemble.x = x
            return state

        def full_disk(fh, **arrays):
            fh.write(b"PK\x03\x04 half a checkpoint")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "step", poisoned)
        monkeypatch.setattr(np, "savez", full_disk)
        assert run_scenario(cfg) == 3
        note = ("NaN detected at t=0.75; "
                "checkpoint: [Errno 28] No space left on device")
        assert capsys.readouterr().err == f"aborted: {note}\n"
        summary = (tmp_path / "nan.csv.summary").read_text()
        assert "status = aborted" in summary and f"note = {note}" in summary
        # the rows recorded before the abort: t = 0 and t = 0.5
        rows = (tmp_path / "nan.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.5]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "nan.csv", "nan.csv.summary"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coupling", [1, 0])
    def test_nan_position_aborts_in_the_deposit_without_checkpoint(
            self, tmp_path, monkeypatch, capsys, coupling):
        # a NaN position reaches the step's deposit before the run's NaN
        # check, which raises before any cast could warn: exit 3 as "NaN
        # detected", and no checkpoint of the half-done step
        import vnsim.cli as cli
        out = tmp_path / "dep.csv"
        cfg = parse_config(BASE + f"coupling = {coupling}\noutput = {out}\n"
                           "checkpoint_interval = 0.5\n")
        calls, saved = [], []
        real_step, real_save = cli.step, cli.save_checkpoint

        def poisoned(state, **kwargs):
            calls.append(state.t)
            if len(calls) == 4:  # a record step, so a free run deposits
                x = state.ensemble.x.copy()
                x[0] = np.nan
                state.ensemble.x = x
            return real_step(state, **kwargs)

        def spy(path, cfg, state, rows):
            saved.append(state.t)
            real_save(path, cfg, state, rows)

        monkeypatch.setattr(cli, "step", poisoned)
        monkeypatch.setattr(cli, "save_checkpoint", spy)
        assert run_scenario(cfg) == 3
        note = "NaN detected: a particle coordinate is NaN or infinite"
        assert capsys.readouterr().err == f"aborted: {note}\n"
        assert f"note = {note}" in (tmp_path / "dep.csv.summary").read_text()
        assert saved == [0.5]
        _, state, rows = load_checkpoint(cfg.ckpt_path)
        assert state.t == 0.5 and len(rows) == 2

    @pytest.mark.parametrize("name, at_step", [("p", 1), ("w", 1), ("x", 1),
                                               ("x", 3)])
    def test_free_run_checks_all_once_then_x(self, tmp_path, monkeypatch,
                                             name, at_step):
        # without coupling only x changes after set-up, so p and w are
        # checked by the first step's check and x by every one
        import vnsim.cli as cli
        out = tmp_path / "free.csv"
        cfg = parse_config(BASE + f"coupling = 0\noutput = {out}\n")
        calls = []
        real_step = cli.step

        def poisoned(state, **kwargs):
            real_step(state, **kwargs)
            calls.append(state.t)
            if len(calls) == at_step:
                ens = state.ensemble
                bad = getattr(ens, name).copy()
                bad[0] = np.nan
                setattr(ens, name, bad)
            return state

        monkeypatch.setattr(cli, "step", poisoned)
        assert run_scenario(cfg) == 3
        summary = (tmp_path / "free.csv.summary").read_text()
        assert f"NaN detected at t={0.25 * at_step}" in summary


class TestMemoryErrorAbort:
    def test_failed_growth_exits_three_without_traceback(self, tmp_path, monkeypatch,
                                                          capsys):
        import vnsim.cli as cli
        from vnsim.wavefield import FieldGrid
        # the cube grows at t = 0.25 and again at t = 1.75; the second
        # growth fails
        out = tmp_path / "oom.csv"
        conf = write_conf(tmp_path, "h = 0.5\ndt = 0.25\nn_per_dim = 4\npad = 2\n"
                          "semilag = 0\nt_end = 3\nrecord_interval = 0.5\n"
                          f"checkpoint_interval = 0.5\noutput = {out}\n")
        real_grow = FieldGrid.ensure_extent

        grows = []

        def failing(grid, x_needed):
            if x_needed > grid.x_max:
                grows.append(grid.t)
                if len(grows) == 2:
                    raise MemoryError("Unable to allocate the grown levels")
            real_grow(grid, x_needed)

        saved = []
        real_save = cli.save_checkpoint

        def spy(path, cfg, state, rows):
            saved.append(state.t)
            real_save(path, cfg, state, rows)

        monkeypatch.setattr(FieldGrid, "ensure_extent", failing)
        monkeypatch.setattr(cli, "save_checkpoint", spy)
        assert main(["run", conf]) == 3
        assert capsys.readouterr().err == (
            "aborted: out of memory: Unable to allocate the grown levels\n")
        summary = (tmp_path / "oom.csv.summary").read_text()
        assert "status = aborted" in summary
        assert "note = out of memory: Unable to allocate the grown levels" in summary
        assert grows == [0.0, 1.5]
        # rows at t = 0, 0.5, 1, 1.5; no checkpoint after the failed step
        assert len(out.read_text().splitlines()[2:]) == 4
        assert saved == [0.5, 1.0, 1.5]
        _, state, rows = load_checkpoint(str(out) + ".ckpt.npz")
        assert state.t == 1.5 and len(rows) == 4


class TestDomainAbort:
    def test_abort_note_on_stderr_and_files_unchanged(self, tmp_path, capsys):
        # validate accepts this config, but the field reaches the boundary
        # at t = 1, before the first record after t = 0
        out = tmp_path / "dom.csv"
        conf = write_conf(tmp_path, "h = 0.5\ndt = 0.125\npad = 1\ndelta = 0.5\n"
                          f"n_per_dim = 6\noutput = {out}\n")
        assert main(["validate", conf]) == 0
        capsys.readouterr()
        assert main(["run", conf]) == 3
        note = "domain: field reached within 2 cells of the boundary (t=1.000)"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"aborted: {note}\n"
        summary = (tmp_path / "dom.csv.summary").read_text().splitlines()
        assert summary[1:4] == ["status = aborted", f"note = {note}", "t_final = 0"]
        # semilag = 1 and keep_history = 0 are the defaults
        assert summary[-2:] == [
            "fsc_satisfied = 1",
            "sl_columns = not measured (coupled runs need keep_history = 1)"]
        assert len(summary) == 8
        csv = out.read_text().splitlines()
        assert csv[0] == summary[0].replace("config_hash = ", "# config_hash=")
        assert len(csv) == 3 and csv[2].startswith("0,")


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        conf = write_conf(tmp_path, BASE + f"output = {out}\n")
        assert main(["run", conf]) == 0

    def test_config_error_exit_two(self, tmp_path):
        conf = write_conf(tmp_path, "beta = 0.9\n")
        assert main(["run", conf]) == 2

    @pytest.mark.parametrize("extra, code", [
        ("record_interval = 0.5\nt_end = 2\n", 2),
        ("record_interval = 1\nt_end = 2.5\n", 2),
        ("record_interval = 1\nt_end = 2\n", 0),
    ])
    def test_semilag_record_times_on_stored_levels(self, tmp_path, extra, code):
        # levels are kept every history_stride * dt = 1; a record between
        # them cannot be traced back
        out = tmp_path / "sl.csv"
        conf = write_conf(tmp_path, "h = 0.5\ndt = 0.25\nn_per_dim = 4\npad = 5\n"
                          "coupling = 1\nsemilag = 1\nkeep_history = 1\n"
                          f"{extra}output = {out}\n")
        assert main(["run", conf]) == code

    @pytest.mark.parametrize("t_end, code", [("1.1", 2), ("1.0", 0)])
    def test_t_end_multiple_of_dt(self, tmp_path, t_end, code):
        # dt = 0.25: t_end = 1.1 would stop at t = 1
        out = tmp_path / "te.csv"
        conf = write_conf(tmp_path, BASE.replace("t_end = 2", f"t_end = {t_end}")
                          + f"output = {out}\n")
        assert main(["run", conf]) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("extra, code", [
        ("f_k = 0", 2),
        ("phi0_k = 0", 2),
        ("f_radius = 0", 2),
        ("f_amplitude = -1", 2),
        ("coupling = 0\nsemilag = 1\nsemilag_radii = 0", 2),
        ("coupling = 0\nsemilag = 1\nsemilag_np = 0", 2),
        ("pad = -3", 2),
        ("pad = -0.5", 2),
        ("coupling = 0\npad = -3", 2),
        ("coupling = 1\npad = 0", 2),
        # f's support lies outside the t = 0 cube
        ("pad = 2\nf_center = 6,0,0,0,0,0", 3),
    ])
    def test_bad_data_exits_without_traceback(self, tmp_path, extra, code):
        keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
        base = [line for line in BASE.splitlines()
                if line.partition("=")[0].strip() not in keys]
        out = tmp_path / "bad.csv"
        conf = write_conf(tmp_path, "\n".join(base) + f"\n{extra}\noutput = {out}\n")
        assert main(["run", conf]) == code
        if out.exists():
            assert "nan" not in out.read_text()

    def test_free_transport_needs_no_margin(self, tmp_path):
        # no field derivatives are taken, so the cube may end at R
        out = tmp_path / "free.csv"
        conf = write_conf(tmp_path, BASE.replace("pad = 5", "pad = 0")
                          + f"coupling = 0\noutput = {out}\n")
        assert main(["run", conf]) == 0

    def test_missing_file_exit_two(self):
        assert main(["run", "/nonexistent/x.conf"]) == 2

    def test_validate(self, tmp_path, capsys):
        conf = write_conf(tmp_path, BASE)
        assert main(["validate", conf]) == 0
        out = capsys.readouterr().out
        assert "admissible" in out and "config_hash" in out

    def test_module_entry_point_loads_cli_once(self, tmp_path):
        # `python -m vnsim` imports vnsim.cli once; running `-m vnsim.cli`
        # would execute a second copy after the package import, with a
        # RuntimeWarning that -W error turns into a failure
        conf = write_conf(tmp_path, BASE)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vnsim",
             "validate", conf], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "admissible = 1" in out.stdout and out.stderr == ""

    def test_build_initial_data_scales_with_delta(self):
        cfg = parse_config("delta = 0.5\n")
        data = build_initial_data(cfg)
        assert data.f_in.amplitude == pytest.approx(0.5 * cfg.f_amplitude)
