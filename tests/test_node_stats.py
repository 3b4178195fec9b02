"""Node statistics against a gather-based reference.

The node sweeps read truncated transforms as strided views of the prefix
table (1D) and read the outer transform once per node (2D).  The
reference below gathers every value through ``apply_box``, one query per
(cell, box).  Both do the same floating-point operations in the same
order, so every returned array must be bitwise equal, on every node the
pipeline visits.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from sparsedom import (
    Cube,
    Grid,
    GridFunction,
    ParameterError,
    PipelineConfig,
    RestrictedTransform,
    build_sparse_domination,
    make_kernel,
)
from sparsedom import sparse
from sparsedom.inputs import INPUT_KINDS, make_input
from sparsedom.maximal import oscillation


# ---------------------------------------------------------------------------
# gather-based reference


def _ms_1d(f, qlo, qhi, qs, s):
    grid = f.grid
    n = grid.cells_per_side
    (qs_lo, qs_hi), = qs.bounds()
    sat = f.power_sat(s)
    ms = np.zeros(qhi - qlo)
    for side in range(1, qs.side // 2 + qs.side % 2 + 1):
        a = np.arange(qlo - side + 1, qhi)
        lo = np.clip(np.maximum(a, qs_lo), 0, n)
        hi = np.maximum(lo, np.clip(np.minimum(a + side, qs_hi), 0, n))
        avgs = ((sat[hi] - sat[lo]) * grid.cell_measure
                / (side * grid.cell_width)) ** (1.0 / s)
        np.maximum(ms, sliding_window_view(avgs, side).max(axis=-1), out=ms)
    return ms


def reference_stats_1d(rt, f, cube, qs, s):
    n = f.grid.cells_per_side
    (qlo, qhi), = cube.window_clip(f.grid)
    m = cube.side
    (qs_lo, qs_hi), = qs.bounds()
    outer = rt.apply_box(np.arange(n), ((qs_lo, qs_hi),))
    osc = np.zeros(qhi - qlo)
    shift = (qs.side // cube.side - 1) // 2
    for side in range(1, max(1, (m + 1) // 2) + 1):
        a = np.arange(qlo - side + 1, qhi)
        cellmat = a[:, None] + np.arange(side)[None, :]
        valid = (cellmat >= 0) & (cellmat < n)
        rows = np.clip(cellmat, 0, n - 1)
        t_on = rt.apply_box(rows, ((qs_lo, qs_hi),))
        in_lo = np.maximum(a - shift * side, qs_lo)[:, None]
        in_hi = np.minimum(a + (shift + 1) * side, qs_hi)[:, None]
        trunc = t_on - rt.apply_box(rows, ((in_lo, in_hi),))
        if np.iscomplexobj(trunc):
            stat = np.array([oscillation(tv[vm])
                             for tv, vm in zip(trunc, valid)])
        else:
            stat = (np.where(valid, trunc, -np.inf).max(axis=1)
                    - np.where(valid, trunc, np.inf).min(axis=1))
        np.maximum(osc, sliding_window_view(stat, side).max(axis=-1), out=osc)
    return outer, _ms_1d(f, qlo, qhi, qs, s), osc


def reference_stats_2d(rt, f, cube, qs, s):
    grid = f.grid
    n = grid.cells_per_side
    (q0l, q0h), (q1l, q1h) = cube.window_clip(grid)
    w0, w1 = q0h - q0l, q1h - q1l
    m = cube.side
    box = qs.bounds()
    (b0l, b0h), (b1l, b1h) = box
    outer = rt.apply_box(np.arange(n * n), box).reshape(grid.shape)

    sat = f.power_sat(s)
    ms = np.zeros((w0, w1))
    for side in range(1, qs.side // 2 + qs.side % 2 + 1):
        a0 = np.arange(q0l - side + 1, q0h)
        a1 = np.arange(q1l - side + 1, q1h)
        lo0 = np.clip(np.maximum(a0, b0l), 0, n)
        hi0 = np.maximum(lo0, np.clip(np.minimum(a0 + side, b0h), 0, n))
        lo1 = np.clip(np.maximum(a1, b1l), 0, n)
        hi1 = np.maximum(lo1, np.clip(np.minimum(a1 + side, b1h), 0, n))
        sums = (sat[hi0[:, None], hi1[None, :]] - sat[lo0[:, None], hi1[None, :]]
                - sat[hi0[:, None], lo1[None, :]] + sat[lo0[:, None], lo1[None, :]])
        avgs = (sums * grid.cell_measure / (side * grid.cell_width) ** 2) ** (1.0 / s)
        tmp = sliding_window_view(avgs, side, axis=0).max(axis=-1)
        np.maximum(ms, sliding_window_view(tmp, side, axis=1).max(axis=-1), out=ms)

    osc = np.zeros((w0, w1))
    shift = (qs.side // cube.side - 1) // 2
    for side in range(1, max(1, (m + 1) // 2) + 1):
        a0 = np.arange(q0l - side + 1, q0h)[:, None, None, None]
        a1 = np.arange(q1l - side + 1, q1h)[None, :, None, None]
        c0 = a0 + np.arange(side)[None, None, :, None]
        c1 = a1 + np.arange(side)[None, None, None, :]
        valid = (c0 >= 0) & (c0 < n) & (c1 >= 0) & (c1 < n)
        rows = np.clip(c0, 0, n - 1) * n + np.clip(c1, 0, n - 1)
        t_on = rt.apply_box(rows, box)
        inner = ((np.maximum(a0 - shift * side, b0l),
                  np.minimum(a0 + (shift + 1) * side, b0h)),
                 (np.maximum(a1 - shift * side, b1l),
                  np.minimum(a1 + (shift + 1) * side, b1h)))
        trunc = t_on - rt.apply_box(rows, inner)
        if np.iscomplexobj(trunc):
            k = side * side
            stat = np.array([
                oscillation(tv[vm])
                for tv, vm in zip(trunc.reshape(-1, k), valid.reshape(-1, k))
            ]).reshape(trunc.shape[:2])
        else:
            stat = (np.where(valid, trunc, -np.inf).max(axis=(2, 3))
                    - np.where(valid, trunc, np.inf).min(axis=(2, 3)))
        tmp = sliding_window_view(stat, side, axis=0).max(axis=-1)
        np.maximum(osc, sliding_window_view(tmp, side, axis=1).max(axis=-1), out=osc)
    return outer, ms.ravel(), osc.ravel()


# ---------------------------------------------------------------------------
# pipeline runs that compare every visited node


def compare_every_node(monkeypatch, kernel, f, cfg):
    """Run the pipeline with each node's statistics checked against the
    reference; return the node cubes seen."""
    fast = sparse._node_stats
    reference = reference_stats_1d if f.grid.dim == 1 else reference_stats_2d
    seen = []

    def checked(rt, f_, cube, qs, s):
        got = fast(rt, f_, cube, qs, s)
        want = reference(rt, f_, cube, qs, s)
        for label, g, w in zip(("outer", "ms", "osc"), got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w), (cube, label)
        seen.append(cube)
        return got

    monkeypatch.setattr(sparse, "_node_stats", checked)
    build_sparse_domination(kernel, f, cfg)
    assert seen
    return seen


MODES = {
    "quantile": dict(mode="quantile"),
    "fixed": dict(mode="fixed", c_fixed=1.5, a_fixed=1.0),
}


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("alpha", [3, 5])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("kernel", ["hilbert", "holder", "dini_stress", "zero"])
def test_1d_node_stats_match_reference(monkeypatch, kernel, kind, alpha, mode,
                                       seed):
    grid = Grid(1, 64)
    f = make_input(grid, kind, seed=seed)
    compare_every_node(monkeypatch, make_kernel(kernel, grid), f,
                       PipelineConfig(alpha=alpha, **MODES[mode]))


@pytest.mark.parametrize("alpha", [3, 7])
def test_1d_ring_cubes_outside_window_match_reference(monkeypatch, alpha):
    # a small off-centre support makes several rings of cover cubes, most
    # of them sticking out of the window on one side
    grid = Grid(1, 128)
    f = make_input(grid, "random", seed=3, support=Cube((100,), 8))
    seen = compare_every_node(monkeypatch, make_kernel("hilbert", grid), f,
                              PipelineConfig(alpha=alpha))
    assert any(c.anchor[0] < 0 for c in seen)
    assert any(c.anchor[0] + c.side > 128 for c in seen)


def test_1d_complex_input_matches_reference(monkeypatch):
    grid = Grid(1, 64)
    g = np.random.Generator(np.random.Philox(23))
    vals = np.zeros(64, dtype=complex)
    vals[16:48] = g.normal(size=32) + 1j * g.normal(size=32)
    compare_every_node(monkeypatch, make_kernel("hilbert"),
                       GridFunction(grid, vals), PipelineConfig(alpha=3))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_2d_node_stats_match_reference(monkeypatch, kind, mode):
    grid = Grid(2, 16)
    f = make_input(grid, kind, seed=5)
    compare_every_node(monkeypatch, make_kernel("riesz2d", grid), f,
                       PipelineConfig(alpha=3, **MODES[mode]))


def test_2d_complex_input_and_ring_cubes_match_reference(monkeypatch):
    grid = Grid(2, 16)
    g = np.random.Generator(np.random.Philox(29))
    vals = np.zeros((16, 16), dtype=complex)
    vals[10:14, 2:6] = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
    seen = compare_every_node(monkeypatch, make_kernel("riesz2d", grid),
                              GridFunction(grid, vals), PipelineConfig(alpha=5))
    assert any(min(c.anchor) < 0 for c in seen)


# ---------------------------------------------------------------------------
# strided windows of the prefix table


def _box_windows(rt, row, row_step, lo, lo_step, hi, hi_step, count, side):
    """apply_box at targets row + row_step i + j for the boxes
    [lo + lo_step i, hi + hi_step i)."""
    i = np.arange(count)[:, None]
    rows = row + row_step * i + np.arange(side)[None, :]
    return rt.apply_box(rows, ((lo + lo_step * i, hi + hi_step * i),))


@pytest.mark.parametrize("complex_values", [False, True])
def test_prefix_windows_match_apply_box(complex_values):
    n = 32
    grid = Grid(1, n)
    g = np.random.Generator(np.random.Philox(4))
    vals = g.normal(size=n) + (1j * g.normal(size=n) if complex_values else 0)
    rt = RestrictedTransform(make_kernel("hilbert", grid), GridFunction(grid, vals))
    cases = [
        # (row, row_step, count, side), (lo, lo_step), (hi, hi_step)
        ((0, 1, 20, 13), (2, 1), (9, 1)),       # box moves with its cells
        ((0, 0, 7, 5), (0, 1), (n, 0)),         # cells pinned to the left edge
        ((n - 6, 0, 9, 6), (3, 1), (n, 0)),     # cells pinned to the right edge
        ((4, 1, 10, 8), (0, 0), (5, 1)),        # lower bound pinned at column 0
        ((0, 1, 1, n), (0, 0), (n, 0)),         # the whole window: T(f)
        ((10, 1, 5, 3), (7, 0), (7, 0)),        # empty boxes
    ]
    for (row, row_step, count, side), (lo, lo_step), (hi, hi_step) in cases:
        got = (rt.prefix_windows(row, row_step, hi, hi_step, count, side)
               - rt.prefix_windows(row, row_step, lo, lo_step, count, side))
        want = _box_windows(rt, row, row_step, lo, lo_step, hi, hi_step,
                            count, side)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(rt.prefix_windows(0, 1, n, 0, 1, n)[0]
                          - rt.prefix_windows(0, 1, 0, 0, 1, n)[0], rt.full())


def test_prefix_windows_are_read_only_views():
    grid = Grid(1, 16)
    rt = RestrictedTransform(make_kernel("hilbert", grid),
                             make_input(grid, "random", seed=1))
    view = rt.prefix_windows(2, 1, 3, 1, 4, 5)
    assert not view.flags.writeable and not view.flags.owndata
    with pytest.raises(ValueError):
        view[0, 0] = 1.0


@pytest.mark.parametrize("args", [
    (-1, 1, 0, 1, 4, 4),        # first row above the table
    (0, 1, 0, 1, 10, 8),        # last window runs past row n - 1
    (0, 0, 14, 1, 4, 4),        # column runs past n
    (0, 1, -1, 0, 4, 4),        # negative column
    (0, 2, 0, 1, 2, 4),         # steps are 0 or 1
    (0, 1, 0, -1, 2, 4),
    (0, 1, 0, 1, 0, 4),         # no windows
    (0, 1, 0, 1, 4, 0),         # empty windows
])
def test_prefix_windows_reject_views_off_the_table(args):
    rt = RestrictedTransform(make_kernel("hilbert"),
                             make_input(Grid(1, 16), "random", seed=1))
    with pytest.raises(ParameterError):
        rt.prefix_windows(*args)


def test_prefix_windows_are_1d_only():
    rt = RestrictedTransform(make_kernel("riesz2d"),
                             make_input(Grid(2, 4), "random", seed=1))
    with pytest.raises(ParameterError):
        rt.prefix_windows(0, 1, 0, 1, 1, 1)
