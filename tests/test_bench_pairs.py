"""The pair tool's summary: medians, wins and bound checks on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent, change):
    """Synthetic runs: one metrics dict per pair and side."""
    return ([{"side": "parent", "metrics": m} for m in parent]
            + [{"side": "change", "metrics": m} for m in change])


def test_medians_wins_and_bounds(tool):
    parent = [{"run_s": 1.0, "rate": 100.0, "peak_rss_mb": 200.0, "extra": 1.0},
              {"run_s": 1.2, "rate": 90.0, "peak_rss_mb": 200.0, "extra": 3.0},
              {"run_s": 1.1, "rate": 95.0, "peak_rss_mb": 200.0, "extra": 2.0}]
    # run_s 20 % slower (inside 0.25), rate 30 % lower (outside 0.25),
    # peak 6 % higher (outside 0.05)
    change = [{"run_s": 1.32, "rate": 66.5, "peak_rss_mb": 212.0, "extra": 0.0},
              {"run_s": 1.2, "rate": 63.0, "peak_rss_mb": 212.0, "extra": 0.0},
              {"run_s": 1.44, "rate": 70.0, "peak_rss_mb": 212.0, "extra": 0.0}]
    out = tool._summarise(runs(parent, change), END_TO_END)
    assert out["run_s"]["parent"]["median"] == pytest.approx(1.1)
    assert out["run_s"]["change"]["median"] == pytest.approx(1.32)
    assert out["run_s"]["change_wins"] == 0
    assert out["run_s"]["within_bound"] is True
    assert out["rate"]["within_bound"] is False
    assert out["peak_rss_mb"]["within_bound"] is False
    # a metric that BENCHMARK.json does not list gets no win count or bound
    assert set(out["extra"]) == {"parent", "change"}
    assert tool._breaches(out) == ["rate", "peak_rss_mb"]


def test_improvements_are_within_bound(tool):
    parent = [{"run_s": 2.0, "rate": 50.0, "peak_rss_mb": 250.0}] * 3
    change = [{"run_s": 1.0, "rate": 100.0, "peak_rss_mb": 205.0}] * 3
    out = tool._summarise(runs(parent, change), END_TO_END)
    assert all(out[m["name"]]["within_bound"] for m in END_TO_END)
    assert all(out[m["name"]]["change_wins"] == 3 for m in END_TO_END)
    assert tool._breaches(out) == []


STAT = """cpu  100 5 30 4000 20 2 3 40 0 0
cpu0 50 2 15 2000 10 1 2 20 0 0
cpu1 50 3 15 2000 10 1 1 20 0 0
intr 12345
"""


def test_cpu_ticks_of_proc_stat(tool):
    before = tool.cpu_ticks(STAT)
    assert before == {"busy": 140, "steal": 40, "idle": 4020}
    after = tool.cpu_ticks(STAT.replace("cpu  100 5 30 4000 20 2 3 40",
                                        "cpu  160 5 50 4100 20 2 3 60"))
    over = tool.ticks_over(before, after)
    assert over == {"busy": 80, "steal": 20, "idle": 100, "steal_share": 0.2}
    # a kernel without the steal column, and a missing reading
    assert tool.cpu_ticks("cpu 1 2 3 4\n")["steal"] == 0
    assert tool.ticks_over(None, after) is None
    with pytest.raises(ValueError):
        tool.cpu_ticks("cpu0 1 2 3 4\n")
