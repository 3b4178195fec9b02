"""Cube-sweep maximal functions against brute-force and gather-based
references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from sparsedom import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    ParameterError,
    apply_restricted,
    avg_p,
    hl_maximal,
    make_kernel,
    oscillation,
    sharp_truncated,
)
from sparsedom import maximal, operators
from sparsedom.grid import _power_sat
from sparsedom.inputs import INPUT_KINDS, make_input
from sparsedom.maximal import _power_average_sweep
from sparsedom.operators import RestrictedTransform


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def all_cubes(grid, sides=None):
    """Every lattice cube of the given sides (default: all) that meets the
    window."""
    n = grid.cells_per_side
    for m in sides or range(1, n + 1):
        anchors = range(1 - m, n)
        if grid.dim == 1:
            for a in anchors:
                yield Cube((a,), m)
        else:
            for a0 in anchors:
                for a1 in anchors:
                    yield Cube((a0, a1), m)


def loop_hl(f, s, sides=None):
    grid = f.grid
    out = np.zeros(grid.shape)
    for q in all_cubes(grid, sides):
        val = avg_p(f, q, s)
        clip = q.window_clip(grid)
        if clip is None:
            continue
        sl = tuple(slice(lo, hi) for lo, hi in clip)
        np.maximum(out[sl], val, out=out[sl])
    return out


def loop_truncated(kernel, f, alpha):
    grid = f.grid
    full = apply_restricted(kernel, f).values
    out = np.zeros(grid.shape)
    for q in all_cubes(grid):
        clip = q.window_clip(grid)
        if clip is None:
            continue
        shift = (alpha - 1) // 2 * q.side
        dil = Cube(tuple(a - shift for a in q.anchor), alpha * q.side)
        inner = apply_restricted(kernel, f, source=CellSet.from_cube(grid, dil)).values
        trunc = full - inner
        sl = tuple(slice(lo, hi) for lo, hi in clip)
        vals = trunc[sl]
        np.maximum(out[sl], oscillation(vals), out=out[sl])
    return out


# ---------------------------------------------------------------------------
# strong maximal function

def test_frozen_single_spike_values():
    # f = indicator of cell 4 on 8 unit cells; best cube through cell 7 is
    # [4, 8), giving average 1/4 and quadratic average 1/2
    grid = Grid(1, 8, phys_side=8.0)
    f = GridFunction(grid, (np.arange(8) == 4).astype(float))
    m1 = hl_maximal(f, 1.0)
    m2 = hl_maximal(f, 2.0)
    assert m1.values[7] == pytest.approx(0.25, abs=1e-13)
    assert m2.values[7] == pytest.approx(0.5, abs=1e-13)
    assert m1.values[4] == pytest.approx(1.0, abs=1e-13)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0]))
@settings(max_examples=10, deadline=None)
def test_hl_matches_loop_1d(seed, s):
    grid = Grid(1, 16)
    f = GridFunction(grid, np.abs(rng(seed).normal(size=grid.shape)))
    got = hl_maximal(f, s).values
    want = loop_hl(f, s)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_hl_matches_loop_2d():
    grid = Grid(2, 8)
    f = GridFunction(grid, np.abs(rng(5).normal(size=grid.shape)))
    got = hl_maximal(f, 1.0).values
    want = loop_hl(f, 1.0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_hl_matches_loop_with_policy():
    # the engine itself, on an input that vanishes off a box and at a
    # fractional exponent, against the loop over every lattice cube
    grid = Grid(1, 16)
    vals = np.abs(rng(9).normal(size=grid.shape))
    vals[:2] = vals[14:] = 0.0
    f = GridFunction(grid, vals)
    for s in (0.5, 1.0):
        np.testing.assert_allclose(_power_average_sweep(f, s), loop_hl(f, s),
                                   atol=1e-12)


def test_hl_dominates_abs():
    grid = Grid(1, 32)
    f = GridFunction(grid, rng(2).normal(size=grid.shape))
    out = hl_maximal(f, 1.0)
    assert np.all(out.values >= np.abs(f.values) - 1e-14)


def test_hl_homogeneity():
    grid = Grid(1, 16)
    vals = rng(3).normal(size=grid.shape)
    a = hl_maximal(GridFunction(grid, vals), 2.0).values
    b = hl_maximal(GridFunction(grid, -2.5 * vals), 2.0).values
    np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_hl_sublinearity(seed):
    grid = Grid(1, 16)
    g = rng(seed)
    u = GridFunction(grid, g.normal(size=grid.shape))
    v = GridFunction(grid, g.normal(size=grid.shape))
    w = GridFunction(grid, u.values + v.values)
    for s in (1.0, 2.0):
        lhs = hl_maximal(w, s).values
        rhs = hl_maximal(u, s).values + hl_maximal(v, s).values
        assert np.all(lhs <= rhs + 1e-12)


def test_hl_monotone_in_exponent():
    grid = Grid(1, 16)
    f = GridFunction(grid, rng(4).normal(size=grid.shape))
    m1 = hl_maximal(f, 1.0).values
    m2 = hl_maximal(f, 2.0).values
    m4 = hl_maximal(f, 4.0).values
    assert np.all(m1 <= m2 + 1e-12) and np.all(m2 <= m4 + 1e-12)


def test_hl_monotone_in_sweep():
    # restricting f to a box can only lower the sweep
    for grid in (Grid(1, 16), Grid(2, 8)):
        vals = np.abs(rng(6).normal(size=grid.shape))
        inside = np.zeros(grid.shape)
        box = (slice(3, 11),) if grid.dim == 1 else (slice(1, 6),) * 2
        inside[box] = vals[box]
        small = _power_average_sweep(GridFunction(grid, inside), 1.0)
        full = _power_average_sweep(GridFunction(grid, vals), 1.0)
        assert np.all(small <= full + 1e-14)
        assert np.any(small < full)


def test_weak_type_product_stable_under_refinement():
    # lambda * |{M f > lambda}| should track ||f||_1 for a spike, and stay
    # put when the same physical function is re-gridded twice as fine
    products = []
    for n in (64, 128):
        grid = Grid(1, n, phys_side=1.0)
        vals = np.zeros(n)
        vals[n // 2: n // 2 + n // 64] = 1.0  # fixed physical support 1/64
        m = hl_maximal(GridFunction(grid, vals), 1.0).values
        lam = 0.125
        products.append(lam * float((m > lam).sum()) * grid.cell_measure)
    assert products[1] == pytest.approx(products[0], rel=0.2)


def test_hl_rejects_nonpositive_exponent():
    with pytest.raises(ParameterError):
        hl_maximal(GridFunction(Grid(1, 8), np.ones(8)), s=0.0)


@pytest.mark.parametrize("s", [float("inf"), float("nan")])
def test_hl_rejects_a_non_finite_exponent(s):
    # s = inf gave all ones
    with pytest.raises(ParameterError):
        hl_maximal(GridFunction(Grid(1, 8), np.ones(8)), s=s)


# ---------------------------------------------------------------------------
# oscillation helper

def test_oscillation_real_and_complex():
    assert oscillation(np.array([1.0, 4.0, -2.0])) == 6.0
    assert oscillation(np.array([3.0])) == 0.0
    vals = np.array([1 + 0j, -1 + 0j, 1j])
    assert oscillation(vals) == pytest.approx(2.0, abs=1e-14)


def pairwise_diameter(vals):
    """Every pairwise distance, 200 rows at a time."""
    return max(float(np.abs(vals[i:i + 200, None] - vals).max())
               for i in range(0, vals.size, 200))


def test_oscillation_complex_subsets_beyond_cap():
    g = rng(0)
    vals = g.normal(size=5000) + 1j * g.normal(size=5000)
    assert oscillation(vals) == pairwise_diameter(vals)


def test_oscillation_keeps_a_far_pair_no_sample_holds():
    # a 64-value sample of 5000 missed indices 1 and 2 and read 0.0
    vals = np.zeros(5000, dtype=complex)
    vals[1], vals[2] = 5.0, -5.0
    assert oscillation(vals) == pairwise_diameter(vals) == 10.0


def test_oscillation_on_a_circle_keeps_every_point():
    # every point is a directional extreme's neighbour: all are candidates
    vals = np.exp(2j * np.pi * np.arange(5000) / 5000)
    assert maximal._diameter_candidates(vals).size == vals.size
    assert oscillation(vals) == pairwise_diameter(vals)


@pytest.mark.parametrize("shape", ["ring", "sliver", "ties", "far", "constant"])
def test_oscillation_is_the_pairwise_diameter_above_4096_values(shape):
    g = rng(3)
    k = 6000
    vals = {
        "ring": lambda: (g.random(k) + 0.25) * np.exp(2j * np.pi * g.random(k)),
        # a thin rotated strip: the directions across it are narrower than
        # the bracket's slack, and only those along it may pick candidates
        "sliver": lambda: (3 * g.random(k) + 1e-3j * g.random(k)) * np.exp(0.7j),
        "ties": lambda: np.round(4 * g.normal(size=k)) + 1j * np.round(4 * g.normal(size=k)),
        # a small spread far from 0, where the ulps of |z| dominate
        "far": lambda: 1e6 + 1e-6 * (g.normal(size=k) + 1j * g.normal(size=k)),
        "constant": lambda: np.full(k, 2.0 - 1.0j),
    }[shape]()
    kept = maximal._diameter_candidates(vals)
    assert kept.size <= (1 if shape == "constant" else 100)
    assert oscillation(vals) == pairwise_diameter(vals)


@pytest.mark.parametrize("shape", ["ring", "circle"])
def test_oscillation_above_4096_values_stays_in_the_build_estimate(shape):
    # sparse._build_bytes counts, for a level cube of more than 4096 cells,
    # a pairwise block of at most 2**21 differences and eight words a
    # cell; on a circle every value is a candidate
    g = rng(5)
    angles = np.exp(2j * np.pi * g.random((192, 192)))
    z = angles if shape == "circle" else (g.random(angles.shape) + 0.25) * angles
    cube = z[::2, ::2]      # strided, as a node's level cube is
    tracemalloc.start()
    try:
        got = oscillation(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pairwise_diameter(cube.ravel())
    assert peak <= 24 * 2**21 + 64 * cube.size


@pytest.mark.parametrize("size", [2, 3, 511, 512, 513, 4096])
def test_oscillation_up_to_4096_values_takes_every_pair(size):
    g = rng(size)
    vals = g.normal(size=size) + 1j * g.normal(size=size)
    want = max(float(np.abs(vals[i:i + 512, None] - vals[None, :]).max())
               for i in range(0, size, 512))
    assert np.float64(oscillation(vals)).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# truncated sweeps

def test_sharp_matches_loop_1d():
    grid = Grid(1, 16)
    f = GridFunction(grid, rng(7).normal(size=grid.shape))
    k = make_kernel("hilbert")
    got = sharp_truncated(k, f, alpha=3).values
    want = loop_truncated(k, f, 3)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_sharp_matches_loop_2d():
    grid = Grid(2, 8)
    f = GridFunction(grid, rng(10).normal(size=grid.shape))
    k = make_kernel("riesz2d")
    got = sharp_truncated(k, f, alpha=3).values
    want = loop_truncated(k, f, 3)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_sharp_complex_matches_loop():
    grid = Grid(1, 8)
    g = rng(12)
    f = GridFunction(grid, g.normal(size=grid.shape) + 1j * g.normal(size=grid.shape))
    k = make_kernel("hilbert")
    got = sharp_truncated(k, f, alpha=3).values
    want = loop_truncated(k, f, 3)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_sharp_zero_kernel_vanishes():
    grid = Grid(1, 16)
    f = GridFunction(grid, rng(1).normal(size=grid.shape))
    out = sharp_truncated(make_kernel("zero"), f, alpha=3)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_sharp_rejects_even_dilation():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(8))
    with pytest.raises(ParameterError):
        sharp_truncated(make_kernel("hilbert"), f, alpha=2)


@pytest.mark.parametrize("alpha", [3.0, 3.5, True, "3"])
def test_sharp_rejects_a_dilation_that_is_no_int(alpha):
    # 3.0 failed deep in the sweep, 3.5 passed the odd check and True ran
    # as alpha = 1
    f = GridFunction(Grid(1, 8), np.ones(8))
    with pytest.raises(ParameterError):
        sharp_truncated(make_kernel("hilbert"), f, alpha=alpha)


# ---------------------------------------------------------------------------
# gather-based references
#
# The sweeps once gathered every truncated transform through apply_box, one
# query per (cell, cube), and every power average by fancy indexing over the
# full anchor range.  That code is kept here as the reference.  The sweep
# engines do the same floating-point operations in the same order, so the
# maximal functions must equal it bitwise.


def _anchor_range(n, m):
    return np.arange(1 - m, n)


def _propagate_max(vals, m, grid):
    if grid.dim == 1:
        return sliding_window_view(vals, m).max(axis=-1)
    tmp = sliding_window_view(vals, m, axis=0).max(axis=-1)
    return sliding_window_view(tmp, m, axis=1).max(axis=-1)


def reference_box_avgs(f, s, m):
    grid = f.grid
    n = grid.cells_per_side
    a = _anchor_range(n, m)
    lo = np.clip(a, 0, n)
    hi = np.clip(a + m, 0, n)
    sat = _power_sat(f, s)
    if grid.dim == 1:
        sums = sat[hi] - sat[lo]
    else:
        sums = (sat[hi[:, None], hi[None, :]] - sat[lo[:, None], hi[None, :]]
                - sat[hi[:, None], lo[None, :]] + sat[lo[:, None], lo[None, :]])
    # in 2D the inclusion-exclusion sums can come out as tiny negatives,
    # whose s-th root is nan; the sweep clamps them at 0 the same way
    sums = np.maximum(sums, 0.0)
    integrals = sums * grid.cell_measure
    return (integrals / (m * grid.cell_width) ** grid.dim) ** (1.0 / s)


def reference_hl(f, s):
    grid = f.grid
    out = np.full(grid.shape, -np.inf)
    for m in range(1, grid.cells_per_side + 1):
        np.maximum(out, _propagate_max(reference_box_avgs(f, s, m), m, grid), out=out)
    return out


def _osc_stat(rows_vals, valid, cell_axes):
    if np.iscomplexobj(rows_vals):
        lead = rows_vals.shape[: rows_vals.ndim - len(cell_axes)]
        k = int(np.prod(rows_vals.shape[len(lead):]))
        return np.array([
            oscillation(rv[vm])
            for rv, vm in zip(rows_vals.reshape(-1, k), valid.reshape(-1, k))
        ]).reshape(lead)
    hi = np.where(valid, rows_vals, -np.inf).max(axis=cell_axes)
    lo = np.where(valid, rows_vals, np.inf).min(axis=cell_axes)
    return hi - lo


def reference_stat_1d(rt, t_full, m, alpha, n):
    a = _anchor_range(n, m)
    shift = (alpha - 1) // 2 * m
    cells = a[:, None] + np.arange(m)[None, :]
    valid = (cells >= 0) & (cells < n)
    rows = np.clip(cells, 0, n - 1)
    inner = rt.apply_box(rows, ((a[:, None] - shift, a[:, None] - shift + alpha * m),))
    return _osc_stat(t_full[rows] - inner, valid, (-1,))


def reference_stat_2d(rt, t_full, m, alpha, n):
    a = _anchor_range(n, m)
    off = np.arange(m)
    shift = (alpha - 1) // 2 * m
    big = len(a)
    stat = np.empty((big, big))
    chunk = max(1, (1 << 22) // max(1, big * m * m))
    for i0 in range(0, big, chunk):
        a0 = a[i0:i0 + chunk][:, None, None, None]
        a1 = a[None, :, None, None]
        c0 = a0 + off[None, None, :, None]
        c1 = a1 + off[None, None, None, :]
        valid = (c0 >= 0) & (c0 < n) & (c1 >= 0) & (c1 < n)
        rows = np.clip(c0, 0, n - 1) * n + np.clip(c1, 0, n - 1)
        bounds = ((a0 - shift, a0 - shift + alpha * m),
                  (a1 - shift, a1 - shift + alpha * m))
        inner = rt.apply_box(rows, bounds)
        stat[i0:i0 + chunk] = _osc_stat(t_full[rows] - inner, valid, (-2, -1))
    return stat


def reference_sharp(kernel, f, alpha, clipped_only=False):
    """The maximal function, or with ``clipped_only`` its max over the
    cubes whose dilate reaches past the window (its low bound at or below
    0, or its high bound at or above n) on every axis (0 elsewhere)."""
    grid = f.grid
    n = grid.cells_per_side
    rt = RestrictedTransform(kernel, f)
    t_full = rt.full().ravel()
    stat_fn = reference_stat_1d if grid.dim == 1 else reference_stat_2d
    out = np.full(grid.shape, -np.inf)
    for m in range(1, n + 1):
        stat = stat_fn(rt, t_full, m, alpha, n)
        if clipped_only:
            a = _anchor_range(n, m)
            shift = (alpha - 1) // 2 * m
            clipped = (a - shift <= 0) | (a - shift + alpha * m >= n)
            stat = np.where(clipped if grid.dim == 1 else clipped[:, None] & clipped[None, :],
                            stat, 0.0)
        np.maximum(out, _propagate_max(stat, m, grid), out=out)
    return out


def table_pass(kernel, f, alpha):
    """The clipped cubes' part of the maximal function, from the table pass
    alone."""
    grid = f.grid
    rt = RestrictedTransform(kernel, f)
    table = np.zeros((maximal._doubling_levels(grid.cells_per_side),) * grid.dim + grid.shape)
    maximal._clipped_oscillations(rt, rt.full(), (alpha - 1) // 2, table)
    return maximal._push_down(table)


# inputs on a box against the window's first corner, which the corner
# cubes there contain; even so, on these grids other cubes decide the
# maximal function at most cells, so the table pass is compared alone too
CORNER_KINDS = ("corner", "corner-complex")


def corner_input(grid, kind, seed):
    g = rng(seed)
    box = (slice(0, grid.cells_per_side // 4 + 1),) * grid.dim
    vals = np.zeros(grid.shape, dtype=complex if kind == "corner-complex" else float)
    vals[box] = g.normal(size=vals[box].shape)
    if kind == "corner-complex":
        vals[box] += 1j * g.normal(size=vals[box].shape)
    return GridFunction(grid, vals)


def assert_matches_reference(kernel, f, alpha):
    got = sharp_truncated(kernel, f, alpha=alpha).values
    want = reference_sharp(kernel, f, alpha)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if not f.is_complex:
        # the table pass alone, which the maximal function may not show
        assert np.array_equal(table_pass(kernel, f, alpha),
                              reference_sharp(kernel, f, alpha, clipped_only=True))
    for s in (1.0, 2.0):
        got = hl_maximal(f, s).values
        want = reference_hl(f, s)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [1, 3, 5, 7])
@pytest.mark.parametrize("kind", INPUT_KINDS + CORNER_KINDS)
@pytest.mark.parametrize("kernel", ["hilbert", "holder", "dini_stress", "zero"])
def test_1d_maximal_functions_match_gather_reference(kernel, kind, alpha):
    if kind in CORNER_KINDS:
        grid = Grid(1, 32)
        f = corner_input(grid, kind, seed=11)
    else:
        grid = Grid(1, 64)
        f = make_input(grid, kind, seed=11)
    assert_matches_reference(make_kernel(kernel, grid), f, alpha)


def test_1d_maximal_functions_match_gather_reference_at_256():
    grid = Grid(1, 256)
    assert_matches_reference(make_kernel("dini_stress", grid),
                             make_input(grid, "spikes", seed=5), 3)


def test_1d_complex_maximal_functions_match_gather_reference():
    grid = Grid(1, 32)
    g = rng(17)
    vals = np.zeros(32, dtype=complex)
    vals[8:24] = g.normal(size=16) + 1j * g.normal(size=16)
    assert_matches_reference(make_kernel("hilbert"), GridFunction(grid, vals), 3)


@pytest.mark.parametrize("alpha", [3, 5])
@pytest.mark.parametrize("n,kind", [
    pytest.param(8, "random", id="8"),
    pytest.param(16, "random", id="16"),
    *(pytest.param(8, kind, id=f"8-{kind}") for kind in CORNER_KINDS),
])
def test_2d_maximal_functions_match_gather_reference(n, kind, alpha):
    grid = Grid(2, n)
    f = corner_input(grid, kind, seed=7) if kind in CORNER_KINDS else make_input(grid, kind, seed=7)
    assert_matches_reference(make_kernel("riesz2d", grid), f, alpha)


@pytest.mark.parametrize("grid,name", [(Grid(1, 32), "hilbert"), (Grid(2, 8), "riesz2d")])
def test_sweep_blocks_split_alike(monkeypatch, grid, name):
    # blocks of one anchor row at a time give the same sums as whole runs
    k, f = make_kernel(name, grid), make_input(grid, "random", seed=3)
    want = sharp_truncated(k, f, alpha=3).values
    monkeypatch.setattr(maximal, "_BLOCK_CELLS", 1)
    assert np.array_equal(sharp_truncated(k, f, alpha=3).values, want)


@pytest.mark.parametrize("grid,name", [(Grid(1, 32), "hilbert"), (Grid(2, 8), "riesz2d")])
def test_table_pass_chunks_split_alike(monkeypatch, grid, name):
    # chunks of one column of the first axis, and batches of one side,
    # give the same table pass as whole chunks
    k, f = make_kernel(name, grid), make_input(grid, "random", seed=3)
    want = table_pass(k, f, 3)
    corner_sums, chunks = maximal._corner_sums, []

    def record(*args):
        chunks.append(1)
        return corner_sums(*args)

    monkeypatch.setattr(maximal, "_corner_sums", record)
    monkeypatch.setattr(maximal, "_BLOCK_CELLS", 1)
    assert np.array_equal(table_pass(k, f, 3), want)
    # one chunk per column that some clipped cube has free, per corner type
    assert len(chunks) > grid.cells_per_side


@pytest.mark.parametrize("grid,name", [(Grid(1, 32), "hilbert"), (Grid(2, 8), "riesz2d")])
def test_clipped_cubes_skip_the_block_path(monkeypatch, grid, name):
    # for real values, a block is read only if on some axis its anchors'
    # dilates have both bounds free; complex values have no extremes to
    # tabulate, so every block is read
    n, shift = grid.cells_per_side, 1
    truncated, free_blocks = maximal._truncated, []

    def record(rt, outer, block, side, shift):
        free_blocks.append(any(shift * side < b and b + k - 1 < n - (shift + 1) * side
                               for b, k in block))
        return truncated(rt, outer, block, side, shift)

    monkeypatch.setattr(maximal, "_truncated", record)
    k, f = make_kernel(name, grid), make_input(grid, "random", seed=3)
    sharp_truncated(k, f, alpha=2 * shift + 1)
    assert free_blocks and all(free_blocks)
    free_blocks.clear()
    sharp_truncated(k, GridFunction(grid, f.values * (1 + 1j)), alpha=2 * shift + 1)
    assert not all(free_blocks)


@pytest.mark.parametrize("grid,name,bound", [
    # reading every cube in blocks peaked at 1.21 MB and 24.8 MB; the table
    # pass may add two arrays of the table's n^d (n + 1)^d cells in 1D, and
    # 1.2 MB in 2D, where the table is chunked
    pytest.param(Grid(1, 256), "dini_stress", 1.21e6 + 2 * 256 * 257 * 8, id="1d-256"),
    pytest.param(Grid(2, 32), "riesz2d", 26e6, id="2d-32"),
])
def test_sharp_truncated_memory_peak(grid, name, bound):
    k, f = make_kernel(name, grid), make_input(grid, "spikes", seed=5)
    tracemalloc.start()
    try:
        sharp_truncated(k, f, alpha=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("n", [64, 128, 256])
def test_power_average_sweep_estimate_bounds_its_peak(n):
    # the doubling table is 1.5, 8 and 40.5 MiB, and a batch of at most
    # 8192 cubes adds 1.5 MiB (2.8, 9.3 and 42.2 MiB traced here); the
    # estimate holds the peak, and no more than a seventh above it
    grid = Grid(2, n)
    f = make_input(grid, "random", seed=7)
    tracemalloc.start()
    try:
        hl_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.875 * maximal._sweep_bytes(grid) <= peak <= maximal._sweep_bytes(grid)


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 8), Grid(2, 16)],
                         ids=["1d-64", "2d-8", "2d-16"])
def test_power_average_sweep_batches_hold_the_cap(monkeypatch, grid):
    # a cap of 32 cubes cuts every side of these grids into runs of anchors
    # of the first axis (one row, 2n - 1 cubes, where a row is wider); the
    # maximal function is the same to the bit, as painting takes maxima
    f = make_input(grid, "spikes", seed=5)
    want = maximal._power_average_sweep(f, 1.0)
    paint, batches = maximal._paint, []

    def recorded(table, cover, vals):
        batches.append(vals.size)
        return paint(table, cover, vals)

    monkeypatch.setattr(maximal, "_paint", recorded)
    monkeypatch.setattr(maximal, "_BLOCK_CELLS", 32 << 8)
    got = maximal._power_average_sweep(f, 1.0)
    n = grid.cells_per_side
    assert got.tobytes() == want.tobytes()
    assert max(batches) <= max(32, (2 * n - 1) ** (grid.dim - 1))
    assert sum(batches) == sum((n + m - 1) ** grid.dim for m in range(1, n + 1))


def test_hl_maximal_refused_before_anything_window_sized(monkeypatch):
    # 2D n = 1024 takes a 968 MiB doubling table, here refused with 512 MiB
    # of physical memory; nothing of the window's 8 MiB is allocated first
    grid = Grid(2, 1024)
    f = GridFunction(grid, np.ones(grid.shape))
    monkeypatch.setattr(operators, "_physical_memory", lambda: 2**29)
    monkeypatch.setattr(operators, "_resident_memory", lambda: 0)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="power-average sweep of a 2D grid with "
                           "1024 cells per side needs about 985.5 MiB, more than the "
                           "512.0 MiB"):
            hl_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n_cells


def test_2d_complex_maximal_functions_match_gather_reference():
    grid = Grid(2, 8)
    g = rng(19)
    vals = np.zeros((8, 8), dtype=complex)
    vals[2:7, 1:5] = g.normal(size=(5, 4)) + 1j * g.normal(size=(5, 4))
    assert_matches_reference(make_kernel("riesz2d"), GridFunction(grid, vals), 3)


def test_2d_power_maximal_has_no_nan_where_f_vanishes():
    # f is zero off its support box, where the 2D inclusion-exclusion sums
    # of |f|**2 round to tiny negatives; their square root used to be nan
    f = make_input(Grid(2, 16), "random", seed=7)
    got = hl_maximal(f, 2.0).values
    assert not np.isnan(got).any()
    assert np.all(got >= 0.0)
