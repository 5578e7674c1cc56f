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


def test_gain_shown_needs_nine_tenths_of_pairs_and_the_spread(tool):
    # parent run_s 1.0 .. 1.9: median 1.45, q3 - q1 = 0.45; rate likewise
    parent = [{"run_s": 1.0 + 0.1 * k, "rate": 100.0 + 10 * k,
               "peak_rss_mb": 50.0} for k in range(10)]

    def summary(run_s, rate, peak):
        change = [{"run_s": a, "rate": b, "peak_rss_mb": c}
                  for a, b, c in zip(run_s, rate, peak)]
        return tool._summarise(runs(parent, change), END_TO_END)

    # 9 of 10 pairs won by 0.5 (lower) and 60 (higher), one pair lost;
    # the medians beat the parent's by 0.5 and 50, more than its spread
    out = summary([p["run_s"] - 0.5 for p in parent[:9]] + [2.0],
                  [p["rate"] + 60 for p in parent[:9]] + [100.0],
                  [49.0] * 10)
    assert out["run_s"]["change_wins"] == 9 and out["run_s"]["gain_shown"]
    assert out["rate"]["change_wins"] == 9 and out["rate"]["gain_shown"]
    # a parent spread of 0 needs only the wins and a better median
    assert out["peak_rss_mb"]["gain_shown"]
    # 8 of 10 won: no gain, however large
    out = summary([p["run_s"] - 5 for p in parent[:8]] + [9.0, 9.0],
                  [p["rate"] for p in parent[:8]] + [0.0, 0.0],
                  [50.0] * 10)
    assert out["run_s"]["change_wins"] == 8 and not out["run_s"]["gain_shown"]
    # ties count for neither side: no pair won, no gain
    assert out["rate"]["change_wins"] == 0 and not out["rate"]["gain_shown"]
    assert out["peak_rss_mb"]["change_wins"] == 0
    assert not out["peak_rss_mb"]["gain_shown"]
    # every pair won by 0.4, less than the parent's spread of 0.45
    out = summary([p["run_s"] - 0.4 for p in parent],
                  [p["rate"] + 40 for p in parent], [51.0] * 10)
    assert out["run_s"]["change_wins"] == 10
    assert not out["run_s"]["gain_shown"] and not out["rate"]["gain_shown"]
    assert not out["peak_rss_mb"]["gain_shown"]


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
