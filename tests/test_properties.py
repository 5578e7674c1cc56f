"""Property test of the CLI contract over small valid configs: every run
ends with exit 0, 2 or 3; a coupled run that ends with 0 reads K at the
origin no larger than K over the cone ball, which holds the origin; a rerun
writes the same bytes; a resume from a mid-run checkpoint, which rebuilds
the state a run keeps outside the checkpoint, writes the same bytes as the
run it interrupted."""

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import vnsim.cli as cli  # noqa: E402
from vnsim import wavefield  # noqa: E402


@st.composite
def small_configs(draw):
    """(config text, coupled semilag with history) of a run of a few steps.

    Free runs go on to t = 4, and at pad 0 or 1 their cube grows every few
    steps; delta = 0 leaves no particles at all.  f's support ball may be
    smaller than R and off the origin (inside the ball of radius R), so
    the backward traces drop points near its edge.
    """
    h = draw(st.sampled_from([0.5, 1.0]))
    dt = h / draw(st.sampled_from([2, 4]))  # inside the CFL bound h / sqrt(3)
    coupling, semilag, keep_history = (draw(st.booleans()) for _ in range(3))
    stride = draw(st.integers(1, 2))
    # coupled semi-Lagrangian columns trace back through the levels kept
    # every `stride` steps, so records and t_end fall on those levels
    every = stride if coupling and semilag and keep_history else 1
    t_max = 1.5 if coupling else 4.0
    n_steps = every * draw(st.integers(-(-2 // every), int(t_max / dt) // every))
    f_radius = draw(st.sampled_from([1.0, 0.8, 0.5, 0.3]))
    direction = np.array(draw(st.lists(st.integers(-3, 3), min_size=6,
                                       max_size=6)), dtype=float)
    reach = 0.999 * (1.0 - f_radius) * draw(st.sampled_from([1.0, 0.5]))
    f_center = reach * direction / max(np.linalg.norm(direction), 1.0)
    lines = {
        "f_center": ",".join(repr(float(c)) for c in f_center),
        "f_radius": f_radius,
        "h": h, "dt": dt, "t_end": n_steps * dt,
        "n_per_dim": draw(st.integers(4, 6)),
        # R + pad > 2 h with coupling
        "pad": draw(st.sampled_from([2, 3, 5] if coupling else [0, 1, 3])),
        "delta": draw(st.sampled_from([1.0, 0.5, 2.0, 0.25, 4.0, 0.0])),
        "coupling": int(coupling), "semilag": int(semilag),
        "semilag_radii": draw(st.integers(1, 3)),
        "semilag_np": draw(st.integers(2, 4)),
        "keep_history": int(keep_history), "history_stride": stride,
        "history_float32": int(draw(st.booleans())),
        "record_interval": every * draw(st.integers(1, n_steps // every)) * dt,
        "checkpoint_interval": draw(st.integers(1, n_steps - 1)) * dt,
        "output": "run.csv",
    }
    text = "".join(f"{key} = {val}\n" for key, val in lines.items())
    return text, coupling and semilag and keep_history


def outputs(work: Path) -> tuple:
    return tuple((work / name).read_bytes() if (work / name).exists() else None
                 for name in ("run.csv", "run.csv.summary"))


def run_keeping_first_checkpoint(work: Path, keep: Path) -> int:
    """`vnsim run`, with a copy of the first checkpoint it writes at `keep`."""
    orig = cli.save_checkpoint

    def save(path, *args):
        orig(path, *args)
        if not keep.exists():
            shutil.copy(path, keep)

    cli.save_checkpoint = save
    try:
        return cli.main(["run", str(work / "run.conf")])
    finally:
        cli.save_checkpoint = orig


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(small_configs())
def test_runs_end_cleanly_and_reproduce(case):
    text, history_traces = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "run.conf").write_text(text)
        old_cwd = Path.cwd()
        os.chdir(work)
        try:
            code = cli.main(["run", "run.conf"])
            assert code in (0, 2, 3)
            if code == 2:  # rejected by validate: nothing to compare
                return
            first = outputs(work)
            if code == 0 and "coupling = 1\n" in text:
                header, *rows = first[0].decode().splitlines()[1:]
                cols = header.split(",")
                k_origin, k_cone = cols.index("k_origin"), cols.index("k_cone")
                assert rows
                for row in rows:
                    vals = [float(v) for v in row.split(",")]
                    assert vals[k_cone] >= vals[k_origin], row
            mid = work / "mid.ckpt.npz"
            assert run_keeping_first_checkpoint(work, mid) == code
            assert outputs(work) == first
            if code != 0 or not mid.exists():
                return
            for name in ("run.csv", "run.csv.summary"):
                (work / name).unlink()
            resumed = cli.main(["resume", str(mid)])
            if history_traces:
                # the full field history is not in the checkpoint
                assert resumed == 2
            else:
                assert resumed == 0
                assert outputs(work) == first
        finally:
            os.chdir(old_cwd)



@st.composite
def boxes_and_points(draw):
    """(columns, h, n_half, box, x): a node box within the sampled nodes
    1 .. n - 2, and points of which all, most or none lie in its cells,
    some on its nodes or NaN, infinite, huge or off the grid."""
    n_half = draw(st.integers(2, 6))
    n = 2 * n_half + 1
    first = np.array([draw(st.integers(1, n - 3)) for _ in range(3)])
    shape = np.array([draw(st.integers(2, n - 1 - f)) for f in first])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    l0, l1 = (rng.standard_normal((n,) * 3).astype(dtype) for _ in range(2))
    V, G = wavefield.VALUE, wavefield.GRAD
    columns = draw(st.sampled_from([
        [(l0, V), (l1, V)] + [(l0, g) for g in G],                     # a = 0
        [(l0, V), (l1, V)] + [(lv, g) for lv in (l0, l1) for g in G],  # a = 1/2
        [(l0, V), (l1, V)] + [(l1, g) for g in G],                     # a = 1
        [(l1, V)],                                                     # phi
    ]))
    count = draw(st.integers(0, 60))
    u = first + rng.uniform(0.0, 1.0, (count, 3)) * (shape - 1)
    on_node = rng.uniform(size=(count, 3)) < 0.2
    u[on_node] = np.floor(u[on_node])
    outside = rng.uniform(size=(count, 3)) < draw(st.sampled_from([0.0, 0.05, 1.0]))
    u[outside] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1.5, 0.5, n - 1.5,
                             first[0] - 0.5, n + 2.0], outside.sum())
    h = draw(st.sampled_from([0.5, 0.25, 1 / 3]))
    box = (tuple(first.tolist()), tuple(shape.tolist()))
    return columns, h, n_half, box, (u - n_half) * h


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(boxes_and_points())
def test_shared_tables_keep_the_per_call_bits(case):
    """A call that may gather the rows of tables built on a box gives the
    bits of a call without them, wherever its points lie."""
    columns, h, n_half, box, x = case
    shared = (*box, [wavefield.box_table([c], *box) for c in columns])
    got = wavefield.sample_levels(columns, h, n_half, x, shared)
    ref = wavefield.sample_levels(columns, h, n_half, x)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
