"""Node statistics against a brute-force dyadic reference.

The builder reads its two node statistics on the cubes its stopping time
can select below the node: dyadic halves while the side is even, single
cells below an odd side.  It does so in one vectorized pass per level.
The reference below walks those cubes one by one and computes every
truncated transform by ``apply_restricted``, from the cube's window
cells as targets to its dilate's as sources, one call per cube.  A cover
cube's dilate holds the support of f, so the builder reads its transform
off T f on the window, and the reference reads it off ``apply_restricted``
over the whole window.

Each comparison runs on both paths of the builder's transform.  On the
direct path (the same kernels with ``translation_invariant=False``) the
builder and the reference do the same floating-point operations in the
same order, so every returned array must be bitwise equal, on every node
the pipeline visits.  On the FFT path (the catalog kernels as they are)
the transforms are FFT products, so each array must agree to 1e-12 of its
largest magnitude, or of the node average where that is larger: where the
true values cancel (a single-cell node whose two neighbours balance) the
FFT reads rounding at the scale of the node's sums, not 0.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from sparsedom import (
    Cube,
    Grid,
    GridFunction,
    ParameterError,
    PipelineConfig,
    apply_restricted,
    avg_p,
    build_sparse_domination,
    dilate,
    dyadic_children,
    hl_maximal,
    make_kernel,
)
from sparsedom import maximal, operators, sparse
from sparsedom.grid import _power_sat
from sparsedom.inputs import INPUT_KINDS, make_input
from sparsedom.maximal import oscillation
from sparsedom.operators import RestrictedTransform


# ---------------------------------------------------------------------------
# brute-force dyadic reference


def selectable_cubes(grid, cube):
    """Every cube the stopping time can select below ``cube`` that meets the
    window, level by level: (side, cubes in row-major order)."""
    levels = []
    current = [cube]
    while current[0].side > 1:
        nxt = []
        for q in current:
            if q.side % 2 == 0:
                nxt += dyadic_children(q)
            else:
                nxt += [Cube(tuple(q.anchor[d] + o[d] for d in range(grid.dim)), 1)
                        for o in itertools.product(range(q.side), repeat=grid.dim)]
        current = sorted((q for q in nxt if q.window_clip(grid) is not None),
                         key=lambda q: q.anchor)
        levels.append((current[0].side, current))
    return levels


def box_sum(sat, bounds):
    """The prefix-table difference over clipped bounds, in the builder's
    corner order."""
    n = sat.shape[0] - 1
    (lo0, hi0), *rest = [(min(max(lo, 0), n), min(max(hi, 0), n))
                         for lo, hi in bounds]
    if not rest:
        return sat[hi0] - sat[lo0]
    (lo1, hi1), = rest
    return sat[hi0, hi1] - sat[lo0, hi1] - sat[hi0, lo1] + sat[lo0, lo1]


def reference_stats(kernel, f, cube, qs, s, outer=None):
    """The node statistics of ``cube`` with dilate ``qs``; ``outer`` is
    T(f char_{qs}) on the window where the caller has it."""
    grid = f.grid
    alpha = qs.side // cube.side
    clip = cube.window_clip(grid)
    sl = tuple(slice(lo, hi) for lo, hi in clip)
    shape = tuple(hi - lo for lo, hi in clip)
    if outer is None:
        outer = apply_restricted(kernel, f, targets=cube, source=qs).values
    sat = _power_sat(f, s)
    ms = np.zeros(shape)
    osc = np.zeros(shape)
    for p, cubes in selectable_cubes(grid, cube):
        dilates = [Cube(tuple(a - (alpha - 1) // 2 * p for a in q.anchor),
                        alpha * p) for q in cubes]
        sums = np.maximum(np.array([box_sum(sat, d.bounds()) for d in dilates]),
                          0.0)
        avgs = (sums * grid.cell_measure
                / (alpha * p * grid.cell_width) ** grid.dim) ** (1.0 / s)
        for q, d, avg in zip(cubes, dilates, avgs):
            q_sl = tuple(slice(lo, hi) for lo, hi in q.window_clip(grid))
            inner = apply_restricted(kernel, f, targets=q, source=d).values
            stat = oscillation((outer[q_sl] - inner[q_sl]).ravel())
            local = tuple(slice(a.start - lo, a.stop - lo)
                          for a, (lo, _) in zip(q_sl, clip))
            np.maximum(ms[local], avg, out=ms[local])
            np.maximum(osc[local], stat, out=osc[local])
    return outer[sl], ms.ravel(), osc.ravel()


# ---------------------------------------------------------------------------
# pipeline runs that compare every visited node


def own_cells(grid, cube, box):
    """The slices of a node's window cells in its batch's box."""
    return tuple(slice(lo - a - b, hi - a - b)
                 for (lo, hi), a, (b, _) in zip(cube.window_clip(grid), cube.anchor, box))


def own_rows(got, grid, cubes, box):
    """Each node's rows of a batch's statistics (:func:`sparse._node_stats`)
    on its own window cells: the transform box-shaped, the maximal functions
    flattened; the cells of the box outside the window must be flagged, and
    the maximal functions -inf there."""
    outer, ms, osc, outside = got
    shape = tuple(hi - lo for lo, hi in box)
    assert outer.shape == (len(cubes), *shape)
    assert ms.shape == osc.shape == (len(cubes), math.prod(shape))
    for i, cube in enumerate(cubes):
        own = own_cells(grid, cube, box)
        mine = np.ones(shape, dtype=bool)
        mine[own] = False
        assert np.array_equal(mine, np.zeros(shape, dtype=bool) if outside is None
                              else outside[i]), cube
        stats = [s[i].reshape(shape) for s in (ms, osc)]
        for stat in stats:
            assert np.all(stat[mine] == -np.inf), cube
        yield outer[i][own], *(stat[own].ravel() for stat in stats)


def compare_every_node(monkeypatch, kernel, f, cfg):
    """Run the pipeline on each path of its transform with each node's
    statistics checked against the reference; return the node cubes
    seen."""
    fast = sparse._node_stats
    side_levels = sparse._side_levels
    seen = []
    # the reference samples each lattice once, not once per cube
    monkeypatch.setattr(operators, "_offset_lattice",
                        functools.lru_cache(operators._offset_lattice))
    for path in ("direct", "fft"):
        if path == "direct":
            run_kernel = dataclasses.replace(kernel, translation_invariant=False)
        else:
            run_kernel = kernel
        cover = sparse.partition_cover(f.grid, sparse.support_box(f), cfg.alpha)
        whole = apply_restricted(run_kernel, f).values

        def on_path(rt, f_, sat, roots, s):
            assert (rt._lat is None) == (path == "direct")
            assert rt.alpha == cfg.alpha and s == cfg.s
            return side_levels(rt, f_, sat, roots, s)

        def checked(levels, grid, cubes, box):
            assert box == sparse._batch_box(grid, cubes)
            got = fast(levels, grid, cubes, box)
            # one row of each stack per node of the batch, cut to its cells
            for cube, mine in zip(cubes, own_rows(got, grid, cubes, box), strict=True):
                qs = dilate(cube, cfg.alpha)
                want = reference_stats(run_kernel, f, cube, qs, cfg.s,
                                       whole if cube in cover else None)
                for label, g, w in zip(("outer", "ms", "osc"), mine, want, strict=True):
                    where = (path, cube, label)
                    assert g.dtype == w.dtype and g.shape == w.shape, where
                    if path == "direct":
                        assert np.array_equal(g, w), where
                    else:
                        scale = max(np.abs(w).max(), avg_p(f, qs, cfg.s))
                        assert np.abs(g - w).max() <= 1e-12 * scale, where
                seen.append(cube)
            return got

        monkeypatch.setattr(sparse, "_side_levels", on_path)
        monkeypatch.setattr(sparse, "_node_stats", checked)
        before = len(seen)
        build_sparse_domination(run_kernel, f, cfg)
        assert len(seen) > before
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


@pytest.mark.parametrize("dim,n,name", [(1, 64, "hilbert"), (2, 16, "riesz2d")])
def test_side_levels_are_read_only_and_node_stacks_copy_them(monkeypatch, dim, n, name):
    grid = Grid(dim, n)
    f = make_input(grid, "random", seed=5)
    node_stats = sparse._node_stats
    seen = []

    def checked(levels, grid_, cubes, box):
        got = node_stats(levels, grid_, cubes, box)
        assert levels.transforms.shape[0] == len(levels.sides)
        assert levels.maxima.shape[0] == len(levels.sides) - 1
        assert not levels.transforms.flags.writeable
        assert not levels.maxima.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            levels.transforms[...] = 0.0
        # each node's rows are the bits of the side's data on its cells,
        # copied out of it
        assert not np.shares_memory(got[0], levels.transforms)
        at = levels.sides.index(cubes[0].side)
        for cube, (outer, ms, _) in zip(cubes, own_rows(got, grid_, cubes, box)):
            on = sparse._box_slices(cube.window_clip(grid_), levels.origin)
            assert outer.tobytes() == levels.transforms[at][on].tobytes()
            if cube.side > 1:
                assert ms.tobytes() == levels.maxima[at][on].ravel().tobytes()
            seen.append(cube.side)
        return got

    monkeypatch.setattr(sparse, "_node_stats", checked)
    build_sparse_domination(make_kernel(name, grid), f)
    # nodes below the cover cubes read the same data
    assert min(seen) < max(seen)


def assert_side_data_is_each_cubes_own(kernel, f, cfg):
    """Each cover side's level data, on each of its cover cubes' window
    cells, bit for bit the data of that cube alone; return the sides."""
    grid = f.grid
    cover = sparse.partition_cover(grid, sparse.support_box(f), cfg.alpha)
    rt = operators.LatticeTransform(kernel, f, cfg.alpha)
    sat = _power_sat(f, cfg.s)
    sides = []
    for side, group in itertools.groupby(cover, key=lambda c: c.side):
        group = list(group)
        shared = sparse._side_levels(rt, f, sat, group, cfg.s)
        for cube in group:
            own = sparse._side_levels(rt, f, sat, [cube], cfg.s)
            if own is None:
                continue
            on = sparse._box_slices(cube.window_clip(grid), shared.origin)
            assert own.sides == shared.sides
            for mine, theirs in ((own.transforms, shared.transforms),
                                 (own.maxima, shared.maxima)):
                for i, values in enumerate(mine):
                    got = theirs[i][on]
                    assert got.dtype == values.dtype and got.shape == values.shape
                    assert got.tobytes() == values.tobytes(), (cube, own.sides[i])
        sides.append(side)
    return sides


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim,n,name,s", [(1, 64, "hilbert", 4), (2, 16, "riesz2d", 4)])
def test_multi_ring_covers_match_reference(monkeypatch, dim, n, name, s,
                                           complex_values):
    # a support box of side s <= n/4 off the centre: the cover has the box
    # and its first ring (side s), then rings of side 3s (and 9s in 1D),
    # whose levels end in odd cubes and their odd leaves
    grid = Grid(dim, n)
    g = np.random.Generator(np.random.Philox(1))
    vals = np.zeros(grid.shape, dtype=complex if complex_values else float)
    box = (slice(n // 8, n // 8 + s),) * dim
    vals[box] = g.random(vals[box].shape) + 0.25
    if complex_values:
        vals[box] = vals[box] * np.exp(2j * np.pi * g.random(vals[box].shape))
    f = GridFunction(grid, vals)
    k = make_kernel(name, grid)
    cfg = PipelineConfig(alpha=3)
    assert sparse.support_box(f).side == s
    assert assert_side_data_is_each_cubes_own(k, f, cfg)[:2] == [s, 3 * s]
    seen = compare_every_node(monkeypatch, k, f, cfg)
    assert {s, 3 * s} <= {c.side for c in seen}
    assert build_sparse_domination(k, f, cfg).ledger.flag_counts.get("odd_leaf", 0) > 0


@pytest.mark.parametrize("dim,n,name,where,complex_values", [
    (1, 256, "hilbert", "centred", False),
    (1, 256, "dini_stress", "centred", False),
    (1, 256, "hilbert", "corner", True),
    (1, 256, "dini_stress", "corner", False),
    (2, 32, "riesz2d", "centred", True),
    (2, 32, "riesz2d", "corner", False),
])
@pytest.mark.parametrize("lattice", [True, False])
def test_cover_transforms_from_the_window_match_each_cubes_own(dim, n, name, where,
                                                                complex_values, lattice):
    # every cover cube R holds the support of f in alpha R, so its level-0
    # transform, a box of T f on the window, is T(f char_{R+}): within the
    # FFT rounding of the verifier's delta form (both FFTs) of the cube's
    # own dilate_transforms, and without a lattice bit for bit
    # apply_restricted over the window
    grid = Grid(dim, n)
    g = np.random.Generator(np.random.Philox(3))
    if where == "centred":
        vals = make_input(grid, "random", seed=5).values
    else:
        vals = np.zeros(grid.shape)
        vals[(slice(0, 4),) * dim] = g.random((4,) * dim) + 0.25
    if complex_values:
        vals = vals * np.exp(2j * np.pi * g.random(grid.shape))
    f = GridFunction(grid, vals)
    kernel = make_kernel(name, grid)
    lat = operators._offset_lattice(kernel, grid)
    if not lattice:
        kernel = dataclasses.replace(kernel, translation_invariant=False)
    cover = sparse.partition_cover(grid, sparse.support_box(f), 3)
    rt = operators.LatticeTransform(kernel, f, 3)
    whole = apply_restricted(kernel, f).values
    checked = []
    for side, group in itertools.groupby(cover, key=lambda c: c.side):
        group = list(group)
        levels = sparse._side_levels(rt, f, _power_sat(f, 1.0), group, 1.0)
        points = max(2 * n, 4 * side) ** dim
        delta = (2 * 16 * np.finfo(float).eps * math.log2(points) * np.abs(lat).sum()
                 * grid.cell_measure * np.abs(vals).max())
        for cube in group:
            clip = cube.window_clip(grid)
            if clip is None:
                continue
            got = levels.transforms[0][sparse._box_slices(clip, levels.origin)]
            own = rt.dilate_transforms(cube.anchor, (1,) * dim, side,
                                       np.empty([hi - lo for lo, hi in clip], vals.dtype))
            assert got.dtype == own.dtype and got.shape == own.shape
            assert np.abs(got - own).max() <= delta, (cube, np.abs(got - own).max(), delta)
            if not lattice:
                assert got.tobytes() == whole[sparse._box_slices(clip)].tobytes()
            checked.append(side)
    assert len(checked) > 2
    if where == "corner":
        # the ring sides outgrow the window
        assert max(checked) > n


def test_level_runs_match_the_diff_form():
    for lo, hi in itertools.combinations(range(-3, 20), 2):
        cells = np.arange(lo, hi)
        for anchor in range(-9, 8):
            for p in (1, 2, 3, 4, 8):
                idx = (cells - anchor) // p
                starts = np.flatnonzero(np.diff(idx, prepend=idx[0] - 1))
                first, got_starts, got_counts = sparse._level_runs(lo, hi, anchor, p)
                assert first == anchor + int(idx[0]) * p
                assert np.array_equal(got_starts, starts)
                assert np.array_equal(got_counts, np.diff(starts, append=idx.size))


@pytest.mark.parametrize("dim,n,name", [(1, 256, "hilbert"), (2, 32, "riesz2d")])
def test_only_cover_cubes_call_the_transform(monkeypatch, dim, n, name):
    grid = Grid(dim, n)
    f = make_input(grid, "random", seed=7)
    cfg = PipelineConfig(alpha=3)
    cover = sparse.partition_cover(grid, sparse.support_box(f), cfg.alpha)
    with_transform = [r for r in cover if r.window_clip(grid) is not None
                      and avg_p(f, dilate(r, cfg.alpha), cfg.s) > 0]
    calls, windows = [], []
    dilate_transforms = operators.LatticeTransform.dilate_transforms
    full = operators.LatticeTransform.full

    def counted(self, start, count, side, **kwargs):
        calls.append(side)
        return dilate_transforms(self, start, count, side, **kwargs)

    def counted_full(self):
        windows.append(self)
        return full(self)

    monkeypatch.setattr(operators.LatticeTransform, "dilate_transforms", counted)
    monkeypatch.setattr(operators.LatticeTransform, "full", counted_full)
    res = build_sparse_domination(make_kernel(name, grid), f, cfg)
    assert len(with_transform) > 1 and len(res.records) > 2 * len(cover)
    # for each side of the cover cubes with a transform one window
    # transform, which it reads its own transforms off, and one call for
    # each of its levels
    sides = {r.side for r in with_transform}
    assert len(windows) == len(sides)
    assert sorted(calls) == sorted(p for side in sides for p in sparse._levels(side))


def test_builder_sweeps_no_lattice_cube(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cube sweep ran")

    # the engines, and the per-side helpers their bodies call, so that a
    # caller holding its own reference to an engine is caught too
    for name in ("_power_average_sweep", "_oscillation_sweep", "_anchor_runs",
                 "_truncated", "_window_oscillation", "_clipped_oscillations",
                 "_clipped_runs", "_double", "_grow", "_expand", "_side_groups",
                 "_side_blocks", "_cover", "_paint", "_paint_blocks", "_push_down"):
        monkeypatch.setattr(maximal, name, refuse)
    for grid, kname in ((Grid(1, 128), "hilbert"), (Grid(2, 16), "riesz2d")):
        f = make_input(grid, "random", seed=13)
        res = build_sparse_domination(make_kernel(kname, grid), f)
        assert len(res.records) > 1
        with pytest.raises(AssertionError):
            hl_maximal(f)


# ---------------------------------------------------------------------------
# strided windows of the prefix table


def _box_windows(rt, rows, row_steps, lo, hi, counts, side):
    """apply_box at the targets ``row + row_step i + j`` per axis, for the
    boxes ``[lo + lo_step i, hi + hi_step i)`` per axis, with lo and hi
    given per axis as (column, step); shape ``counts + (side,) * dim``."""
    dim = len(rows)
    n = rt.grid.cells_per_side

    def along(d, v):
        return np.reshape(v, (1,) * d + (-1,) + (1,) * (2 * dim - d - 1))

    cells = [along(d, r + st * np.arange(k)) + along(dim + d, np.arange(side))
             for d, (r, st, k) in enumerate(zip(rows, row_steps, counts))]
    flat = sum(c * n ** (dim - 1 - d) for d, c in enumerate(cells))
    bounds = tuple((along(d, c0 + s0 * np.arange(k)), along(d, c1 + s1 * np.arange(k)))
                   for d, ((c0, s0), (c1, s1), k) in enumerate(zip(lo, hi, counts)))
    return rt.apply_box(flat, bounds)


def _view_windows(rt, rows, row_steps, lo, hi, counts, side):
    """The same from the corner views, summed as apply_box sums them."""
    def corner(*pick):
        return rt.prefix_windows(rows, row_steps, [c for c, _ in pick],
                                 [s for _, s in pick], counts, side)

    if len(rows) == 1:
        return corner(hi[0]) - corner(lo[0])
    return (corner(hi[0], hi[1]) - corner(lo[0], hi[1])
            - corner(hi[0], lo[1]) + corner(lo[0], lo[1]))


def _random_values(grid, complex_values, seed=4):
    g = np.random.Generator(np.random.Philox(seed))
    vals = g.normal(size=grid.shape)
    return vals + (1j * g.normal(size=grid.shape) if complex_values else 0)


@pytest.mark.parametrize("complex_values", [False, True])
def test_prefix_windows_match_apply_box(complex_values):
    n = 32
    grid = Grid(1, n)
    rt = RestrictedTransform(make_kernel("hilbert", grid),
                             GridFunction(grid, _random_values(grid, complex_values)))
    cases = [
        # (row, row_step, count, side), (lo, lo_step), (hi, hi_step)
        ((0, 1, 20, 13), (2, 1), (9, 1)),       # box moves with its cells
        ((0, 0, 7, 5), (0, 1), (n, 0)),         # cells pinned to the left edge
        ((n - 6, 0, 9, 6), (3, 1), (n, 0)),     # cells pinned to the right edge
        ((4, 1, 10, 8), (0, 0), (5, 1)),        # lower bound pinned at column 0
        ((0, 1, 1, n), (0, 0), (n, 0)),         # the whole window: T(f)
        ((10, 1, 5, 3), (7, 0), (7, 0)),        # empty boxes
    ]
    for (row, row_step, count, side), lo, hi in cases:
        args = ((row,), (row_step,), (lo,), (hi,), (count,), side)
        got, want = _view_windows(rt, *args), _box_windows(rt, *args)
        assert got.shape == (count, side)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(_view_windows(rt, (0,), (1,), ((0, 0),), ((n, 0),), (1,), n)[0],
                          rt.full())


@pytest.mark.parametrize("complex_values", [False, True])
def test_prefix_windows_match_apply_box_2d(complex_values):
    n = 8
    grid = Grid(2, n)
    rt = RestrictedTransform(make_kernel("riesz2d", grid),
                             GridFunction(grid, _random_values(grid, complex_values)))
    cases = [
        # per axis (row, row_step, count), per axis (lo, lo_step) and
        # (hi, hi_step), side
        (((0, 1, 3), (2, 0, 4)), ((1, 1), (0, 0)), ((5, 1), (n, 0)), 3),
        (((5, 0, 4), (0, 1, 6)), ((0, 1), (1, 1)), ((4, 1), (3, 1)), 3),
        (((0, 0, 2), (6, 0, 3)), ((0, 0), (2, 1)), ((3, 1), (n, 0)), 2),
        (((1, 1, 6), (1, 1, 6)), ((0, 1), (0, 1)), ((2, 1), (2, 1)), 1),
        (((2, 1, 3), (0, 0, 2)), ((4, 0), (3, 1)), ((4, 0), (7, 1)), 4),  # empty
    ]
    for axes, lo, hi, side in cases:
        rows, row_steps, counts = zip(*axes)
        args = (rows, row_steps, lo, hi, counts, side)
        got, want = _view_windows(rt, *args), _box_windows(rt, *args)
        assert got.shape == counts + (side, side)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    whole = _view_windows(rt, (0, 0), (1, 1), ((0, 0),) * 2, ((n, 0),) * 2, (1, 1), n)
    assert np.array_equal(whole[0, 0], rt.full())


def test_prefix_windows_are_read_only_views():
    for grid, name in ((Grid(1, 16), "hilbert"), (Grid(2, 8), "riesz2d")):
        rt = RestrictedTransform(make_kernel(name, grid),
                                 make_input(grid, "random", seed=1))
        dim = grid.dim
        view = rt.prefix_windows((2,) * dim, (1,) * dim, (3,) * dim, (1,) * dim,
                                 (4,) * dim, 3)
        assert view.shape == (4,) * dim + (3,) * dim
        assert not view.flags.writeable and not view.flags.owndata
        with pytest.raises(ValueError):
            view[(0,) * 2 * dim] = 1.0


@pytest.mark.parametrize("args", [
    ((-1,), (1,), (0,), (1,), (4,), 4),        # first row above the table
    ((0,), (1,), (0,), (1,), (10,), 8),        # last window runs past row n - 1
    ((0,), (0,), (14,), (1,), (4,), 4),        # column runs past n
    ((0,), (1,), (-1,), (0,), (4,), 4),        # negative column
    ((0,), (2,), (0,), (1,), (2,), 4),         # steps are 0 or 1
    ((0,), (1,), (0,), (-1,), (2,), 4),
    ((0,), (1,), (0,), (1,), (0,), 4),         # no windows
    ((0,), (1,), (0,), (1,), (4,), 0),         # empty windows
    ((0, 0), (1, 1), (0, 0), (1, 1), (1, 1), 1),  # two axes on a 1D table
])
def test_prefix_windows_reject_views_off_the_table(args):
    rt = RestrictedTransform(make_kernel("hilbert"),
                             make_input(Grid(1, 16), "random", seed=1))
    with pytest.raises(ParameterError):
        rt.prefix_windows(*args)


@pytest.mark.parametrize("args", [
    ((0, -1), (1, 1), (0, 0), (1, 1), (2, 2), 2),   # second axis above the table
    ((0, 3), (1, 1), (0, 0), (1, 1), (2, 5), 2),    # second axis runs past row n - 1
    ((0, 0), (1, 0), (0, 7), (1, 1), (2, 3), 2),    # second axis column past n
    ((0, 0), (1, 0), (0, 0), (1, 2), (2, 2), 2),    # second axis steps 0 or 1
    ((0, 0), (1, 1), (0, 0), (1, 1), (2, 0), 2),    # no windows on the second axis
    ((0,), (1,), (0,), (1,), (2,), 2),              # one axis on a 2D table
])
def test_prefix_windows_reject_2d_views_off_the_table(args):
    rt = RestrictedTransform(make_kernel("riesz2d"),
                             make_input(Grid(2, 8), "random", seed=1))
    with pytest.raises(ParameterError):
        rt.prefix_windows(*args)
