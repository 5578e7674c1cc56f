import numpy as np
import pytest

from vnsim.cli import (SimConfig, build_initial_data, config_hash,
                       estimate_memory_mb, load_checkpoint, main, parse_config,
                       run_scenario, sweep)
from vnsim.errors import ConfigError

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


class TestConfigHash:
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

    def test_rerun_bitwise_identical(self, tmp_path):
        out = tmp_path / "det.csv"
        cfg = parse_config(BASE + f"output = {out}\n")
        run_scenario(cfg)
        first = out.read_bytes()
        run_scenario(cfg)
        assert out.read_bytes() == first


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

    def test_missing_file_exit_two(self):
        assert main(["run", "/nonexistent/x.conf"]) == 2

    def test_validate(self, tmp_path, capsys):
        conf = write_conf(tmp_path, BASE)
        assert main(["validate", conf]) == 0
        out = capsys.readouterr().out
        assert "admissible" in out and "config_hash" in out

    def test_build_initial_data_scales_with_delta(self):
        cfg = parse_config("delta = 0.5\n")
        data = build_initial_data(cfg)
        assert data.f_in.amplitude == pytest.approx(0.5 * cfg.f_amplitude)
