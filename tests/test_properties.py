"""Property test of the CLI contract over small valid configs: every run
ends with exit 0, 2 or 3; a coupled run that ends with 0 reads K at the
origin no larger than K over the cone ball, which holds the origin; a rerun
writes the same bytes; a resume from a mid-run checkpoint, which rebuilds
the state a run keeps outside the checkpoint, writes the same bytes as the
run it interrupted.  Below it, properties of single layers against their
references: shared gather tables keep the per-call bits, the ensemble
spread's cell pass gives the hash segments' spread, and the chunked box
deposit gives the whole-cube deposit's bits."""

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import vnsim.cli as cli  # noqa: E402
from vnsim import vlasov_pic, wavefield  # noqa: E402
from vnsim.diagnostics import max_momentum_spread  # noqa: E402
from vnsim.vlasov_pic import ParticleEnsemble, deposit_mu  # noqa: E402
from vnsim.wavefield import FieldGrid  # noqa: E402
from tests.oracles import assert_same_bits  # noqa: E402
from tests.test_diagnostics import make_ensemble, reference_max_spread  # noqa: E402
from tests.test_vlasov_pic import embedded, reference_deposit_mu  # noqa: E402


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


@st.composite
def spread_ensembles(draw):
    """(ensemble, cell size): particles in one cell, one to a cell, in the
    two cells of one hash that the strict xfail names, in a sparse cloud
    whose cell box holds more cells than particles, or far from the origin
    (|x| / cell size up to about 1e15, either sign); some weights zero."""
    c = draw(st.sampled_from([0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 120))
    layout = draw(st.sampled_from(["one cell", "one each", "one hash", "sparse", "far"]))
    if layout == "one cell":
        keys = rng.integers(-4, 4, 3) + np.zeros((n, 3))
    elif layout == "one each":
        keys = np.arange(n)[:, None] * np.array([1, -2, 3]) + rng.integers(-4, 4, 3)
    elif layout == "one hash":
        keys = np.array([[-3, -1, 3], [-3, 1, -3]])[rng.integers(0, 2, n)]
    elif layout == "sparse":
        keys = rng.integers(-60, 60, (n, 3))
    else:
        centre = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(0, 15, 3)
        keys = np.floor(centre + rng.normal(size=(n, 3)) * draw(
            st.sampled_from([1.0, 100.0, 1e14])))
    x = (keys + rng.uniform(0.0, 1.0, (n, 3))) * c
    p = np.round(rng.normal(scale=0.5, size=(n, 3)), draw(st.integers(1, 8)))
    w = rng.uniform(0.5, 2.0, n)
    w[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return make_ensemble(x, p, w), c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spread_ensembles())
def test_spread_equals_segment_loop(case):
    """The cell pass gives the hash segments' max spread, whichever way
    `_cells` numbers the cells."""
    ens, cell_size = case
    assert max_momentum_spread(ens, cell_size) == reference_max_spread(ens, cell_size)


@st.composite
def deposit_cases(draw):
    """(ensemble, grid, chunk): particles anywhere in the grid's cells, some
    on cell faces and some in its last cell, signed and zero weights, and
    PARTICLE_CHUNK of 1, 7, N - 1, N or N + 1."""
    h = draw(st.sampled_from([0.25, 0.5]))
    grid = FieldGrid.at_start(1.0, h, h / 2, draw(st.sampled_from([0.5, 1.0])))
    n_cells = grid.n_nodes - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 80))
    u = rng.uniform(0.0, n_cells, (n, 3))
    face = rng.uniform(size=(n, 3)) < draw(st.sampled_from([0.0, 0.3]))
    u[face] = np.floor(u[face])
    last = rng.uniform(size=(n, 3)) < draw(st.sampled_from([0.0, 0.2]))
    u[last] = n_cells - 1 + np.floor(rng.uniform(0.0, 2.0, last.sum())) * 0.5
    w = rng.uniform(-1.0, 2.0, n)
    w[rng.uniform(size=n) < 0.2] = 0.0
    ens = ParticleEnsemble(x=(u - grid.n_half) * h,
                           p=rng.uniform(-0.5, 0.5, (n, 3)), w=w)
    chunk = draw(st.sampled_from([1, 7, n - 1, n, n + 1]))
    return ens, grid, max(chunk, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(deposit_cases(), st.booleans())
def test_deposit_equals_whole_cube_reference(case, given_q):
    """The chunked box deposit, with its charges given or computed, has
    the bits of the whole-cube reference, sign bits included."""
    ens, grid, chunk = case
    ref, ref_box = reference_deposit_mu(ens, grid)
    saved = vlasov_pic.PARTICLE_CHUNK
    vlasov_pic.PARTICLE_CHUNK = chunk
    try:
        deposit_mu(ens, grid, q=vlasov_pic._charge(ens) if given_q else None)
    finally:
        vlasov_pic.PARTICLE_CHUNK = saved
    assert grid.source_box() == ref_box
    assert_same_bits(embedded(grid), ref)
