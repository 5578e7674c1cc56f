"""The output comparison tool on two directories that differ in one byte."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"

CSV = b"# config_hash=abc\nt,sup_mu\n0,0.5\n1,0.25\n2,0.125\n"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(path, csv, summary=b"status = ok\n"):
    path.mkdir()
    (path / "out.csv").write_bytes(csv)
    (path / "out.csv.summary").write_bytes(summary)
    return path


def test_identical_directories(tool, tmp_path):
    a = write_outputs(tmp_path / "a", CSV)
    b = write_outputs(tmp_path / "b", CSV)
    assert tool.compare_dirs(a, b, ["out.csv", "out.csv.summary"]) == []


def test_one_byte_reports_first_differing_row(tool, tmp_path):
    a = write_outputs(tmp_path / "a", CSV)
    b = write_outputs(tmp_path / "b", CSV.replace(b"0.25", b"0.26"))
    problems = tool.compare_dirs(a, b, ["out.csv", "out.csv.summary"])
    assert len(problems) == 1
    assert problems[0].startswith("out.csv: first difference at line 4")
    assert "b'1,0.25'" in problems[0] and "b'1,0.26'" in problems[0]


def test_missing_and_shorter_files(tool, tmp_path):
    a = write_outputs(tmp_path / "a", CSV)
    b = write_outputs(tmp_path / "b", CSV[:-len(b"2,0.125\n")])
    (b / "out.csv.summary").unlink()
    problems = tool.compare_dirs(a, b, ["out.csv", "out.csv.summary"])
    assert problems[0].startswith("out.csv: first difference at line 5")
    assert problems[1].startswith("out.csv.summary: missing in")
    assert tool.first_difference(b"x\n", b"x") is not None


def test_config_keeps_its_keys_but_the_output_paths(tool):
    text = ("h = 1\noutput = /elsewhere/run.csv  # a comment\n"
            "summary = s.txt\n# output = kept comment\ncheckpoint_path=c.npz\n")
    assert tool.in_workdir(text, "out.csv") == (
        "h = 1\n# output = kept comment\noutput = out.csv\n")


def test_config_flag_runs_beside_the_workloads(tool, tmp_path, capsys):
    # a tree compared with itself, on one small free-transport config only
    conf = tmp_path / "free.conf"
    conf.write_text("coupling = 0\nh = 1\ndt = 0.5\nn_per_dim = 4\nt_end = 1\n"
                    "record_interval = 0.5\nsemilag = 0\n"
                    f"output = {tmp_path / 'not_here.csv'}\n")
    root = TOOL.parents[1]
    assert tool.main(["--parent", str(root), "--seeds", "",
                      "--config", str(conf)]) == 0
    assert capsys.readouterr().out == f"{conf}: identical\n"
    assert not (tmp_path / "not_here.csv").exists()
