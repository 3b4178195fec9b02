"""Exceptional sets, stopping time, cover, and the sparse pipeline."""

import dataclasses
import gc
import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom import (
    AlignmentError,
    CellSet,
    Cube,
    DensityError,
    Grid,
    GridFunction,
    Kernel,
    ParameterError,
    PipelineConfig,
    apply_restricted,
    avg_p,
    build_sparse_domination,
    check_domination,
    constant_from_records,
    dilate,
    hl_maximal,
    local_cz_decomposition,
    make_kernel,
    partition_cover,
    support_box,
)
from sparsedom import operators, sparse
from sparsedom.cli import family_from_dict, family_to_json
from sparsedom.grid import _power_sat
from sparsedom.inputs import INPUT_KINDS, make_input
from sparsedom.maximal import oscillation
from sparsedom.operators import LatticeTransform


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def supported_noise(grid, seed, lo, hi):
    vals = np.zeros(grid.shape)
    sl = tuple(slice(lo, hi) for _ in range(grid.dim))
    vals[sl] = rng(seed).normal(size=vals[sl].shape)
    return GridFunction(grid, vals)


def cube_minus_cubes(grid, cube, holes):
    """The cells of ``cube`` that no cube of ``holes`` covers."""
    mask = np.ones((cube.side,) * grid.dim, dtype=bool)
    for hole in holes:
        mask &= ~CellSet.from_cube(grid, hole).mask_on(cube)
    return CellSet(grid, cube, mask)


def intersects(a, b):
    """Whether the cell sets ``a`` and ``b`` share a cell."""
    return bool((a.mask_on(b.box) & b.mask).any())


def sparse_sum(family):
    out = np.zeros(family.grid.shape)
    for e in family.entries:
        clip = e.cube.window_clip(family.grid)
        if clip is None:
            continue
        sl = tuple(slice(lo, hi) for lo, hi in clip)
        out[sl] += e.coefficient
    return out


def on_dilate(f, cube, alpha):
    """f char_{alpha cube}.  The builder reads a cover cube R's transform
    off T f, which is T(f char_{alpha R}) because every cover cube has
    support(f) inside alpha R.  This function has its support inside
    alpha cube, and it equals f on alpha P for every P inside the cube, so
    no statistic below the cube changes."""
    vals = np.zeros_like(f.values)
    clip = dilate(cube, alpha).window_clip(f.grid)
    if clip is not None:
        on = tuple(slice(lo, hi) for lo, hi in clip)
        vals[on] = f.values[on]
    return GridFunction(f.grid, vals)


def builder_transform(kernel, f, config):
    """The transform the pipeline builds for this kernel and grid."""
    return LatticeTransform(kernel, f, config.alpha)


def node_exceptional(kernel, f, cube, root=None, **config):
    """Exceptional set of one node with a nonzero average and window cells,
    as the pipeline computes it: a batch of one node, read from the level
    data of ``root``, the cube it grows from (by default itself), built on
    f char_{alpha root}."""
    cfg = PipelineConfig(**config)
    root = root or cube
    g = on_dilate(f, root, cfg.alpha)
    rt = builder_transform(kernel, g, cfg)
    avg = avg_p(g, dilate(cube, cfg.alpha), cfg.s)
    assert avg > 0 and cube.window_clip(f.grid) is not None
    levels = sparse._side_levels(rt, g, _power_sat(g, cfg.s), [root], cfg.s)
    exc = sparse._exceptional(levels, f.grid, [cube], sparse._batch_box(f.grid, [cube]),
                              np.array([avg]), cfg)
    tau_t, tau_ms, tau_osc = exc.thresholds[:, 0].tolist()
    return SimpleNamespace(
        omega=CellSet(f.grid, cube, exc.omega[0]), avg=avg, tau_t=tau_t,
        tau_ms=tau_ms, tau_osc=tau_osc, c_ratio=tau_ms / avg,
        allowed_per_stat=cube.cell_count // (3 * 2 ** (f.grid.dim + 2)),
        exceed_counts=tuple(exc.exceed_counts[:, 0].tolist()),
        transform=exc.transform[0])


def root_of(cover, cube):
    """The cover cube a node cube grows from: the cubes of a cover tile."""
    return next(r for r in cover if r.contains(cube))


def local_family(kernel, f, root, config=PipelineConfig()):
    """Entries and records of the recursion tree the pipeline grows from
    one root cube, built on f char_{alpha root} (as :func:`on_dilate`)."""
    g = on_dilate(f, root, config.alpha)
    rt = builder_transform(kernel, g, config)
    return sparse._side_pass(rt, g, _power_sat(g, config.s), [root], config)


def witness_canvas(family):
    dim = family.grid.dim
    boxes = [e.witness.box for e in family.entries]
    lo = [min(b.anchor[d] for b in boxes) for d in range(dim)]
    hi = [max(b.anchor[d] + b.side for b in boxes) for d in range(dim)]
    canvas = np.zeros([h - l for h, l in zip(hi, lo)], dtype=int)
    for e in family.entries:
        b = e.witness.box
        sl = tuple(slice(b.anchor[d] - lo[d], b.anchor[d] - lo[d] + b.side)
                   for d in range(dim))
        canvas[sl] += e.witness.mask.astype(int)
    return canvas


# ---------------------------------------------------------------------------
# transform backend

def test_builder_picks_fft_where_the_kernel_has_a_lattice():
    for grid, names in ((Grid(1, 32), ("hilbert", "holder", "dini_stress", "zero")),
                        (Grid(2, 8), ("riesz2d", "zero"))):
        f = make_input(grid, "random", seed=2)
        for name in names:
            k = make_kernel(name, grid)
            n = grid.cells_per_side
            assert builder_transform(k, f, PipelineConfig())._lat is not None
            # the flag alone decides: a window whose center differences
            # round off the lattice has one too, a kernel without it none
            inexact = Grid(grid.dim, n, 0.1)
            g = GridFunction(inexact, f.values)
            assert builder_transform(k, g, PipelineConfig())._lat is not None
            plain = dataclasses.replace(k, translation_invariant=False)
            assert builder_transform(plain, f, PipelineConfig())._lat is None


def _no_table(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the prefix table was built")

    monkeypatch.setattr(operators.RestrictedTransform, "__init__", refuse)


def test_builder_never_builds_the_table(monkeypatch):
    _no_table(monkeypatch)
    for grid, name in ((Grid(1, 64), "hilbert"), (Grid(2, 16), "riesz2d")):
        k = dataclasses.replace(make_kernel(name, grid), translation_invariant=False)
        f = make_input(grid, "random", seed=3)
        g = rng(grid.dim)
        z = GridFunction(grid, g.normal(size=grid.shape) + 1j * g.normal(size=grid.shape))
        for vals in (f, z):
            res = build_sparse_domination(k, vals)
            assert len(res.records) > 1 and res.family.constant > 0
    with pytest.raises(AssertionError, match="prefix table"):
        operators.RestrictedTransform(make_kernel("hilbert"), f)


def test_builder_memory_is_linear_without_a_lattice():
    # hilbert without the flag at 1D N = 1024: the table and its product
    # would take 16.8 MB
    grid = Grid(1, 1024)
    k = dataclasses.replace(make_kernel("hilbert"), translation_invariant=False)
    f = make_input(grid, "random", seed=7)
    tracemalloc.start()
    try:
        build_sparse_domination(k, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < operators._table_bytes(grid, False, True)


@pytest.mark.parametrize("reader", ["build", "hl_maximal"])
def test_no_power_table_outlives_its_reader(reader):
    # the prefix table of |f|**s, 8 (n + 1)**dim bytes, is built by the
    # call that reads it: once the result is gone, nothing the call
    # allocated stays reachable, from f or anywhere else
    grid = Grid(2, 128)
    k = make_kernel("riesz2d", grid)
    values = make_input(grid, "random", seed=7).values
    call = {"build": lambda f: build_sparse_domination(k, f, PipelineConfig(s=2.0)),
            "hl_maximal": lambda f: hl_maximal(f, 2.0)}[reader]
    # a first call of its own, for what numpy and the package set up once
    call(GridFunction(grid, values))
    f = GridFunction(grid, values)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(f)
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 8 * (grid.cells_per_side + 1) ** grid.dim
    assert vars(f).keys() == {"grid", "values"}


def _modulated(grid):
    """A kernel that is no convolution: the Hilbert or first Riesz kernel
    times 1 + sin(2 pi x_1) / 2, which depends on x and not only on x - y."""
    def fn(x, y):
        u = x - y
        weight = 1.0 + 0.5 * np.sin(2.0 * np.pi * x[..., 0])
        if grid.dim == 1:
            return weight / u[..., 0]
        return weight * u[..., 0] / ((u * u).sum(axis=-1)) ** 1.5

    return Kernel(f"modulated{grid.dim}d", grid.dim, fn)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 16)])
def test_non_convolution_kernel_end_to_end(monkeypatch, dim, n):
    grid = Grid(dim, n)
    k = _modulated(grid)
    assert operators._offset_lattice(k, grid) is None
    transforms = []
    stats = sparse._node_stats

    def recorded(levels, grid_, cubes, box):
        out = stats(levels, grid_, cubes, box)
        # each node's transform on its window cells, cut from the batch's box
        for cube, t in zip(cubes, out[0], strict=True):
            own = tuple(slice(lo - a - b, hi - a - b) for (lo, hi), a, (b, _)
                        in zip(cube.window_clip(grid_), cube.anchor, box))
            transforms.append((cube, dilate(cube, PipelineConfig().alpha), t[own]))
        return out

    monkeypatch.setattr(sparse, "_node_stats", recorded)
    for kind in ("random", "spikes"):
        f = make_input(grid, kind, seed=17)
        transforms.clear()
        res = build_sparse_domination(k, f)
        assert check_domination(k, f, res.family).passed
        assert len(transforms) > 1
        for cube, qs, got in transforms:
            want = apply_restricted(k, f, targets=cube, source=qs).values
            clip = cube.window_clip(grid)
            assert np.array_equal(got, want[tuple(slice(lo, hi) for lo, hi in clip)])


# ---------------------------------------------------------------------------
# exceptional sets

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_quantile_measure_bound(seed):
    grid = Grid(1, 64)
    f = GridFunction(grid, rng(seed).normal(size=grid.shape))
    k = make_kernel("hilbert")
    g = rng(seed + 1)
    side = int(2 ** g.integers(2, 6))
    anchor = int(g.integers(-side // 2, 64 - side // 2))
    exc = node_exceptional(k, f, Cube((anchor,), side), alpha=3)
    assert exc.omega.count * 2 ** (grid.dim + 2) <= side**grid.dim
    assert exc.omega.count_in(Cube((anchor,), side)) == exc.omega.count


def test_quantile_thresholds_are_attained_values():
    grid = Grid(1, 32)
    f = supported_noise(grid, 3, 4, 28)
    exc = node_exceptional(make_kernel("hilbert"), f, Cube((8,), 16), alpha=3)
    assert exc.avg > 0
    assert exc.tau_t in np.abs(exc.transform) and exc.c_ratio > 0
    for cnt in exc.exceed_counts:
        assert cnt <= exc.allowed_per_stat


def test_single_cell_node_self_certifies():
    grid = Grid(1, 16)
    f = supported_noise(grid, 1, 0, 16)
    k = make_kernel("hilbert")
    exc = node_exceptional(k, f, Cube((5,), 1), alpha=3)
    assert exc.omega.count == 0
    _, (rec,) = local_family(k, f, Cube((5,), 1), PipelineConfig(alpha=3))
    assert rec.a_effective == abs(exc.transform[0]) / exc.avg


def test_zero_average_node():
    grid = Grid(1, 32)
    f = supported_noise(grid, 2, 0, 4)
    (entry,), (rec,) = local_family(make_kernel("hilbert"), f, Cube((24,), 2))
    assert "zero_average" in rec.flags
    assert rec.omega_count == 0 and rec.avg == 0.0 and not rec.edges
    assert entry.witness.count == 2


def test_out_of_window_node():
    grid = Grid(1, 32)
    f = supported_noise(grid, 2, 0, 32)
    _, (rec,) = local_family(make_kernel("hilbert"), f, Cube((-64,), 8))
    assert "outside_window" in rec.flags and rec.omega_count == 0


def test_fixed_mode_flags_violation():
    grid = Grid(1, 64)
    f = supported_noise(grid, 5, 0, 64)
    k = make_kernel("hilbert")
    _, (tight, *_) = local_family(k, f, Cube((0,), 64), PipelineConfig(
        alpha=3, mode="fixed", c_fixed=1e-6, a_fixed=1e-6))
    assert "measure_violation" in tight.flags
    _, (loose,) = local_family(k, f, Cube((0,), 64), PipelineConfig(
        alpha=3, mode="fixed", c_fixed=1e6, a_fixed=1e6))
    assert loose.omega_count == 0 and "measure_violation" not in loose.flags


def test_exceptional_set_validation():
    grid = Grid(1, 16)
    f = GridFunction(grid, np.ones(16))
    k = make_kernel("hilbert")
    with pytest.raises(ParameterError):
        node_exceptional(k, f, Cube((0,), 4), alpha=2)
    with pytest.raises(ParameterError):
        node_exceptional(k, f, Cube((0,), 4), mode="fixed")  # no c, a
    with pytest.raises(ParameterError):
        node_exceptional(k, f, Cube((0,), 4), mode="nope")


@pytest.mark.parametrize("s", [float("inf"), float("nan"), 0.0, -1.0])
def test_pipeline_rejects_a_non_finite_or_non_positive_exponent(s):
    # an infinite s made NaN power sums, and a certificate built on them
    with pytest.raises(ParameterError):
        PipelineConfig(s=s)


# ---------------------------------------------------------------------------
# stopping time

def test_cz_frozen_example():
    # two exceptional cells {4, 5} in an 8-cell cube, threshold 1/4:
    # the right half [4, 8) has density 1/2 and is the maximal selection
    grid = Grid(1, 8)
    omega = CellSet(grid, grid.window_cube(), np.isin(np.arange(8), [4, 5]))
    got = local_cz_decomposition(grid, Cube((0,), 8), omega)
    assert got == [Cube((4,), 4)]


def test_cz_rejects_dense_root():
    grid = Grid(1, 8)
    omega = CellSet(grid, grid.window_cube(), np.arange(8) < 3)  # density 3/8 > 1/4
    with pytest.raises(DensityError):
        local_cz_decomposition(grid, Cube((0,), 8), omega)


def test_cz_rejects_odd_side():
    grid = Grid(1, 16)
    omega = CellSet(grid, grid.window_cube(), np.zeros(16, dtype=bool))
    with pytest.raises(AlignmentError):
        local_cz_decomposition(grid, Cube((0,), 6), omega)


def test_cz_empty_omega_selects_nothing():
    grid = Grid(1, 16)
    empty = CellSet(grid, grid.window_cube(), np.zeros(16, dtype=bool))
    assert local_cz_decomposition(grid, Cube((0,), 16), empty) == []


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cz_invariants_random(seed):
    g = rng(seed)
    dim = int(g.integers(1, 3))
    grid = Grid(dim, 32)
    side = int(2 ** g.integers(1, 6))
    anchor = tuple(int(g.integers(0, 32 - side + 1)) for _ in range(dim))
    q = Cube(anchor, side)
    allowed = q.cell_count // 2 ** (dim + 2)
    mask = np.zeros(grid.shape, dtype=bool)
    cells_in_q = np.argwhere(CellSet.from_cube(grid, q).window_mask())
    if allowed > 0 and len(cells_in_q) > 0:
        take = g.choice(len(cells_in_q), size=int(g.integers(0, allowed + 1)),
                        replace=False)
        mask[tuple(cells_in_q[take].T)] = True
    omega = CellSet(grid, grid.window_cube(), mask)
    picked = local_cz_decomposition(grid, q, omega)

    lam_num, lam_den = 1, 2 ** (dim + 1)
    covered = np.zeros(grid.shape, dtype=bool)
    total_cells = 0
    for p in picked:
        assert q.contains(p)
        cnt = omega.count_in(p)
        # sandwich in exact integers: lam |P| < |P cap omega| <= 2**dim lam |P|
        assert cnt * lam_den > p.cell_count * lam_num
        assert cnt * lam_den <= p.cell_count * lam_num * 2**dim
        total_cells += p.cell_count
        sl = tuple(slice(a, a + p.side) for a in p.anchor)
        assert not covered[sl].any()  # pairwise disjoint
        covered[sl] = True
    assert not (mask & ~covered).any()  # omega fully covered
    assert 2 * total_cells <= q.cell_count


# ---------------------------------------------------------------------------
# cover

def test_cover_frozen_1d_example():
    grid = Grid(1, 16)
    got = partition_cover(grid, Cube((0,), 8), 3)
    assert got == [Cube((0,), 8), Cube((-8,), 8), Cube((8,), 8)]


def test_cover_2d_ring_count():
    grid = Grid(2, 16)
    got = partition_cover(grid, Cube((4, 4), 8), 3)
    assert len(got) == 9  # core + 8 ring cubes
    assert got[0] == Cube((4, 4), 8)


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5]))
@settings(max_examples=40, deadline=None)
def test_cover_support_containment_and_tiling(seed, alpha):
    g = rng(seed)
    dim = int(g.integers(1, 3))
    grid = Grid(dim, 64)
    side = int(2 ** g.integers(0, 7))
    anchor = tuple(int(g.integers(0, 64 - side + 1)) for _ in range(dim))
    supp = Cube(anchor, side)
    cover = partition_cover(grid, supp, alpha)

    for q in cover:
        assert dilate(q, alpha).contains(supp)

    # ring-by-ring exact tiling: disjoint interiors, counts add up
    core = supp
    i = 1
    while i < len(cover):
        ring = cover[i:i + 3**dim - 1]
        i += 3**dim - 1
        big = dilate(core, 3)
        seen = {}
        for q in ring:
            assert q.side == core.side
            assert big.contains(q)
            for other in seen.values():
                assert q.clip(other) is None
            assert q.clip(core) is None
            seen[q.anchor] = q
        total = sum(q.cell_count for q in ring) + core.cell_count
        assert total == big.cell_count
        core = big
    assert core.contains(grid.window_cube())


def test_cover_validation():
    grid = Grid(1, 16)
    with pytest.raises(ParameterError):
        partition_cover(grid, Cube((0,), 8), 4)
    with pytest.raises(AlignmentError):
        partition_cover(grid, Cube((0,), 6), 3)
    with pytest.raises(ParameterError):
        partition_cover(grid, Cube((12,), 8), 3)  # sticks out of window


def test_support_box_basic():
    grid = Grid(1, 32)
    vals = np.zeros(32)
    vals[5] = 1.0
    vals[11] = -2.0
    box = support_box(GridFunction(grid, vals))
    assert box.side == 8 and box.contains(Cube((5,), 7))
    assert Cube((0,), 32).contains(box)
    assert support_box(GridFunction(grid, np.zeros(32))) is None


def test_support_box_near_edge_stays_inside():
    grid = Grid(1, 32)
    vals = np.zeros(32)
    vals[29] = 1.0
    vals[31] = 1.0
    box = support_box(GridFunction(grid, vals))
    assert Cube((0,), 32).contains(box)
    assert box.contains(Cube((29,), 3))


# ---------------------------------------------------------------------------
# local family

def test_local_family_witnesses_partition_root():
    grid = Grid(1, 64)
    f = supported_noise(grid, 7, 8, 56)
    k = make_kernel("hilbert")
    root = Cube((16,), 32)
    entries, records = local_family(k, f, root)
    total = sum(e.witness.count for e in entries)
    assert total == root.cell_count
    for e in entries:
        assert e.witness.count_in(e.base_cube) == e.witness.count
        assert 2 * e.witness.count >= e.base_cube.cell_count
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            assert not intersects(a.witness, b.witness)


def test_local_family_depth_halving():
    grid = Grid(1, 64)
    f = supported_noise(grid, 11, 0, 64)
    root = Cube((0,), 64)
    entries, _ = local_family(make_kernel("hilbert"), f, root)
    by_depth = {}
    for e in entries:
        by_depth.setdefault(e.depth, 0)
        by_depth[e.depth] += e.base_cube.cell_count
    for d, cells in by_depth.items():
        assert cells <= root.cell_count // 2**d


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_local_family_certifies_local_domination(seed):
    # the core chain inequality: on the root's window cells the transform
    # of f restricted to the dilated root is bounded by the certified
    # constant times the stacked coefficients
    grid = Grid(1, 64)
    f = supported_noise(grid, seed, 8, 56)
    k = make_kernel("hilbert")
    root = Cube((16,), 32)
    entries, records = local_family(k, f, root)
    c = constant_from_records(records)
    t_loc = apply_restricted(k, f, source=CellSet.from_cube(grid, dilate(root, 3)))
    stack = np.zeros(grid.shape)
    for e in entries:
        clip = e.base_cube.window_clip(grid)
        if clip is None:
            continue
        sl = tuple(slice(lo, hi) for lo, hi in clip)
        stack[sl] += e.coefficient
    clip = root.window_clip(grid)
    sl = tuple(slice(lo, hi) for lo, hi in clip)
    assert np.all(np.abs(t_loc.values[sl]) <= c * stack[sl] + 1e-10)


def test_local_family_odd_ring_side_flags_and_still_dominates():
    # support box (0,) of side 4: its side-12 ring forces an odd split at
    # side 3
    grid = Grid(1, 64)
    f = supported_noise(grid, 3, 0, 4)
    k = make_kernel("hilbert")
    assert support_box(f) == Cube((0,), 4)
    cfg = PipelineConfig(alpha=3)
    res = build_sparse_domination(k, f, cfg)
    assert res.ledger.flag_counts.get("odd_leaf", 0) > 0
    tf = np.abs(apply_restricted(k, f).values)
    assert np.all(tf <= res.family.constant * sparse_sum(res.family) + 1e-10)


@pytest.mark.parametrize("dim,n,name,side", [(1, 64, "hilbert", 4), (2, 16, "riesz2d", 2)])
def test_builder_keeps_node_sets_on_node_cubes(monkeypatch, dim, n, name, side):
    # a support in the window's corner makes ring cubes outside the window,
    # odd ring sides and children whose dilates miss the support; no node
    # may hold a window-shaped set, and the family stays the same
    grid = Grid(dim, n)
    f = supported_noise(grid, 3, 0, side)
    k = make_kernel(name, grid)
    want = build_sparse_domination(k, f)

    def window_shaped(*args):
        raise AssertionError("a node made a window-shaped set")

    monkeypatch.setattr(CellSet, "window_mask", window_shaped)
    got = build_sparse_domination(k, f)
    assert {"odd_leaf", "zero_average", "outside_window"} <= set(got.ledger.flag_counts)
    monkeypatch.undo()
    assert family_to_json(got.family) == family_to_json(want.family)


# ---------------------------------------------------------------------------
# chain inequality

def analytic_edge_check(kernel, f, cfg):
    """(valid edges, failures) of the source paper's chain step on every
    edge of the built family.

    The analytic edge bound is 2 a_Q + c_Q a_P in units of the parent
    average, where a = max(tau_t, tau_osc) / avg and c = tau_ms / avg come
    from the node statistics.  It holds on an edge whose child P has a
    window cell outside the parent's exceptional set and outside the
    child's transform-exceed set, and it must bound the exact edge
    coefficient there; a node sweep that drops a cube the proof needs
    lowers a threshold and breaks it.
    """
    res = build_sparse_domination(kernel, f, cfg)
    grid = f.grid
    cover = partition_cover(grid, support_box(f), cfg.alpha)
    nodes = {}

    def node(q):
        if q not in nodes:
            # a child with a zero average has no statistics, and a = 0
            exc, t_exceed, a = None, np.zeros(grid.shape, dtype=bool), 0.0
            if avg_p(f, dilate(q, cfg.alpha), cfg.s) > 0:
                exc = node_exceptional(kernel, f, q, root_of(cover, q),
                                       **dataclasses.asdict(cfg))
                sl = tuple(slice(lo, hi) for lo, hi in q.window_clip(grid))
                t_exceed[sl] = np.abs(exc.transform) > exc.tau_t
                a = max(exc.tau_t, exc.tau_osc) / exc.avg
            nodes[q] = exc, t_exceed, a
        return nodes[q]

    valid, failures = 0, []
    for rec in res.records:
        if not rec.edges:
            continue
        exc, _, a_q = node(rec.cube)
        for edge in rec.edges:
            child = edge["child"]
            _, child_t_exceed, a_p = node(child)
            good = (CellSet.from_cube(grid, child).window_mask()
                    & ~exc.omega.window_mask() & ~child_t_exceed)
            if exc.avg == 0 or not good.any():
                continue
            valid += 1
            analytic = 2.0 * a_q + exc.c_ratio * a_p
            kappa = edge["coefficient"]
            if analytic < kappa - 1e-9 * max(1.0, kappa):
                failures.append((rec.cube, child, analytic, kappa))
    return valid, failures


@pytest.mark.parametrize("kname,dim,n", [
    ("hilbert", 1, 128),
    ("holder", 1, 128),
    ("dini_stress", 1, 128),
    ("riesz2d", 2, 16),
])
def test_analytic_chain_bound_dominates_exact_edges(kname, dim, n):
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    valid = 0
    for kind in INPUT_KINDS:
        for alpha in (3, 5):
            got, failures = analytic_edge_check(
                k, make_input(grid, kind, seed=13), PipelineConfig(alpha=alpha))
            assert not failures, (kind, alpha, failures[:3])
            valid += got
    assert valid > 0


# ---------------------------------------------------------------------------
# coefficients against the verifier's independent path

MODES = {
    "quantile": dict(mode="quantile"),
    "fixed": dict(mode="fixed", c_fixed=1.5, a_fixed=1.0),
}


def coefficient_cases(dim, complex_values):
    """Inputs of every kind on a 1D (hilbert, N = 64) or 2D (riesz2d,
    n = 16) grid, with a random phase when complex."""
    grid = Grid(dim, 64 if dim == 1 else 16)
    k = make_kernel("hilbert" if dim == 1 else "riesz2d", grid)
    for seed, kind in enumerate(INPUT_KINDS):
        f = make_input(grid, kind, seed=seed + 3)
        if complex_values:
            phase = np.exp(2j * np.pi * rng(seed).random(grid.shape))
            f = GridFunction(grid, f.values * phase)
        yield k, f


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_coefficients_match_direct_transforms(dim, complex_values, mode):
    # node: max |T(f char_{Q+})| on the witness / avg_Q; edge: max over the
    # child P of |T(f char_{Q+}) - T(f char_{P+})| / avg_Q; both recomputed
    # by direct summation, not from the prefix table.  They are compared
    # times avg_Q: in 2D a cube where f vanishes can get a rounding-level
    # average, and table rounding over it is not a relative error.
    cfg = PipelineConfig(alpha=3, **MODES[mode])
    n_edges = 0
    for k, f in coefficient_cases(dim, complex_values):
        res = build_sparse_domination(k, f, cfg)
        grid = f.grid
        for entry, rec in zip(res.family.entries, res.records):
            assert entry.base_cube == rec.cube
            outer = apply_restricted(k, f, source=dilate(rec.cube, 3)).values
            witness = entry.witness.window_mask()
            want = np.abs(outer[witness]).max() if witness.any() else 0.0
            if rec.avg == 0:
                assert rec.a_effective == 0.0 and not rec.edges
                continue
            assert np.isclose(rec.a_effective * rec.avg, want, rtol=1e-9,
                              atol=1e-12), rec.cube
            for edge in rec.edges:
                child = edge["child"]
                inner = apply_restricted(k, f, source=dilate(child, 3)).values
                on_child = CellSet.from_cube(grid, child).window_mask()
                want = np.abs(outer - inner)[on_child].max()
                assert np.isclose(edge["coefficient"] * rec.avg, want,
                                  rtol=1e-9, atol=1e-12), (rec.cube, child)
                n_edges += 1
    assert n_edges > 0


def _cube_dict(cube):
    return {"anchor": list(cube.anchor), "side": cube.side}


@pytest.mark.parametrize("kname,dim,n", [
    ("hilbert", 1, 64), ("zero", 1, 64), ("riesz2d", 2, 16)])
def test_constant_source_is_first_largest_term(kname, dim, n):
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    seen = set()
    for mode in sorted(MODES):
        for kind in INPUT_KINDS:
            res = build_sparse_domination(k, make_input(grid, kind, seed=13),
                                          PipelineConfig(alpha=3, **MODES[mode]))
            terms = []
            for rec in res.records:
                terms.append((rec.a_effective, rec, None))
                terms += [(e["coefficient"], rec, e["child"]) for e in rec.edges]
            # argmax returns the first of equal maxima
            value, rec, child = terms[int(np.argmax([t[0] for t in terms]))]
            assert value == res.family.constant
            want = {"cube": _cube_dict(rec.cube), "depth": rec.depth,
                    "term": "node" if child is None else "edge",
                    "child": None if child is None else _cube_dict(child)}
            assert res.ledger.constant_source == want
            assert dataclasses.asdict(res.ledger)["constant_source"] == want
            seen.add(want["term"])
    # the zero kernel ties every term at 0 and picks the first node
    assert seen == ({"node"} if kname == "zero" else {"node", "edge"})
    zero = build_sparse_domination(k, GridFunction(grid, np.zeros(grid.shape)))
    assert zero.ledger.constant_source is None


@pytest.mark.parametrize("kname,dim,n", [("hilbert", 1, 64), ("riesz2d", 2, 16)])
def test_records_carry_exceed_counts_and_ledger_sums_them(kname, dim, n):
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    for mode in sorted(MODES):
        cfg = PipelineConfig(alpha=3, **MODES[mode])
        for kind in INPUT_KINDS:
            f = make_input(grid, kind, seed=13)
            res = build_sparse_domination(k, f, cfg)
            cover = partition_cover(grid, support_box(f), cfg.alpha)
            sums = {}
            for rec in res.records:
                # each node counts as in a batch of its own
                if rec.avg > 0 and rec.cube.window_clip(grid) is not None:
                    exc = node_exceptional(k, f, rec.cube, root_of(cover, rec.cube),
                                           **dataclasses.asdict(cfg))
                    assert rec.exceed_counts == exc.exceed_counts
                else:
                    assert rec.exceed_counts == (0, 0, 0)
                # the exceptional set is the union of the three cuts
                assert max(rec.exceed_counts) <= rec.omega_count
                assert rec.omega_count <= sum(rec.exceed_counts)
                acc = sums.setdefault(rec.depth, [0, 0, 0])
                sums[rec.depth] = [a + b for a, b in zip(acc, rec.exceed_counts)]
            got = [d["exceed_counts"] for d in dataclasses.asdict(res.ledger)["per_depth"]]
            assert got == [sums[d] for d in sorted(sums)]
            assert any(sum(c) for c in got)


# ---------------------------------------------------------------------------
# full pipeline

@pytest.mark.parametrize("kname,dim,n,alpha", [
    ("hilbert", 1, 64, 3),
    ("hilbert", 1, 64, 5),
    ("holder", 1, 64, 3),
    ("dini_stress", 1, 64, 3),
    ("riesz2d", 2, 16, 3),
])
def test_pipeline_domination_and_sparsity(kname, dim, n, alpha):
    grid = Grid(dim, n)
    k = make_kernel(kname, grid) if kname != "hilbert" else make_kernel("hilbert")
    f = supported_noise(grid, 19, n // 4, 3 * n // 4)
    res = build_sparse_domination(k, f, PipelineConfig(alpha=alpha))
    fam = res.family
    assert fam.eta == pytest.approx(1.0 / (2 * alpha**dim))
    tf = np.abs(apply_restricted(k, f).values)
    assert np.all(tf <= fam.constant * sparse_sum(fam) + 1e-10)
    assert witness_canvas(fam).max() <= 1
    for e in fam.entries:
        assert e.witness.count >= fam.eta * e.cube.cell_count - 1e-9


def test_pipeline_complex_input():
    grid = Grid(1, 64)
    g = rng(23)
    vals = np.zeros(64, dtype=complex)
    vals[16:48] = g.normal(size=32) + 1j * g.normal(size=32)
    f = GridFunction(grid, vals)
    k = make_kernel("hilbert")
    res = build_sparse_domination(k, f, PipelineConfig(alpha=3))
    tf = np.abs(apply_restricted(k, f).values)
    assert np.all(tf <= res.family.constant * sparse_sum(res.family) + 1e-10)


def test_pipeline_zero_input():
    grid = Grid(1, 32)
    res = build_sparse_domination(make_kernel("hilbert"),
                                  GridFunction(grid, np.zeros(grid.shape)))
    assert len(res.family.entries) == 1
    assert res.family.constant == 0.0
    assert res.family.entries[0].coefficient == 0.0
    assert res.family.entries[0].flags == ("zero_input",)


def test_pipeline_deterministic():
    grid = Grid(1, 64)
    k = make_kernel("hilbert")
    runs = []
    for _ in range(2):
        f = supported_noise(grid, 31, 16, 48)
        res = build_sparse_domination(k, f, PipelineConfig(alpha=3))
        runs.append(res)
    a, b = runs
    assert a.family.constant == b.family.constant
    assert len(a.family.entries) == len(b.family.entries)
    for ea, eb in zip(a.family.entries, b.family.entries):
        assert ea.cube == eb.cube and ea.coefficient == eb.coefficient
        assert np.array_equal(ea.witness.mask, eb.witness.mask)


def test_pipeline_depth_cap_still_dominates_with_flag():
    grid = Grid(1, 64)
    f = supported_noise(grid, 37, 16, 48)
    k = make_kernel("hilbert")
    res = build_sparse_domination(k, f, PipelineConfig(alpha=3, max_depth=0))
    assert res.ledger.flag_counts.get("depth_capped", 0) > 0
    tf = np.abs(apply_restricted(k, f).values)
    assert np.all(tf <= res.family.constant * sparse_sum(res.family) + 1e-10)


def test_pipeline_fixed_mode_flags_but_continues():
    grid = Grid(1, 64)
    f = supported_noise(grid, 41, 16, 48)
    k = make_kernel("hilbert")
    res = build_sparse_domination(
        k, f, PipelineConfig(alpha=3, mode="fixed", c_fixed=0.5, a_fixed=0.2))
    assert res.ledger.flag_counts.get("measure_violation", 0) > 0
    tf = np.abs(apply_restricted(k, f).values)
    assert np.all(tf <= res.family.constant * sparse_sum(res.family) + 1e-10)


def test_pipeline_constant_stable_under_refinement():
    k = make_kernel("hilbert")
    base = rng(43).normal(size=32)
    consts = []
    for reps, n in [(1, 64), (2, 128)]:
        grid = Grid(1, n)
        vals = np.zeros(n)
        vals[n // 4: n // 4 + 32 * reps] = np.repeat(base, reps)
        res = build_sparse_domination(k, GridFunction(grid, vals),
                                      PipelineConfig(alpha=3))
        consts.append(res.family.constant)
    assert consts[1] <= 2 * consts[0] and consts[0] <= 2 * consts[1]


def test_pipeline_dim_mismatch():
    grid = Grid(2, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ParameterError):
        build_sparse_domination(make_kernel("hilbert"), f)


def test_witness_runs_round_trip():
    grid = Grid(1, 32)
    f = supported_noise(grid, 47, 4, 28)
    res = build_sparse_domination(make_kernel("hilbert"), f, PipelineConfig(alpha=3))
    back = family_from_dict(json.loads(family_to_json(res.family)))
    assert len(back.entries) == len(res.family.entries)
    for a, e in zip(back.entries, res.family.entries):
        assert a.witness.box == e.witness.box
        assert np.array_equal(a.witness.mask, e.witness.mask)


def test_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(alpha=4)
    with pytest.raises(ParameterError):
        PipelineConfig(alpha=2)
    with pytest.raises(ParameterError):
        PipelineConfig(alpha=1)
    with pytest.raises(ParameterError):
        PipelineConfig(mode="nope")
    with pytest.raises(ParameterError):
        PipelineConfig(s=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(mode="fixed")
    with pytest.raises(ParameterError):
        PipelineConfig(mode="fixed", c_fixed=-1.0, a_fixed=1.0)
    with pytest.raises(ParameterError):
        PipelineConfig(mode="fixed", c_fixed=1.0, a_fixed=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(max_depth=-1)


# ---------------------------------------------------------------------------
# the depth-first recursion the node pass replaced, as a reference
#
# One node at a time: its statistics are slices of the side's level data,
# its thresholds one order statistic each, its stopping time a stack of one
# cube, and its edges are read after its children returned their
# transforms.  The node pass must give every record and entry bit for bit.


@dataclasses.dataclass(frozen=True)
class ExceptionalSet:
    omega: CellSet
    avg: float
    tau_t: float
    tau_ms: float
    tau_osc: float
    c_ratio: float
    exceed_counts: tuple[int, int, int]
    flags: tuple[str, ...]
    transform: np.ndarray | None


def reference_node_stats(levels, grid, cube):
    clip = cube.window_clip(grid)
    on = sparse._box_slices(clip, levels.origin)
    at = levels.sides.index(cube.side)
    t_on = levels.transforms[at][on]
    osc = np.zeros(t_on.shape)
    if cube.side == 1:
        return t_on, np.zeros(osc.size), osc.ravel()
    for i, p in enumerate(levels.sides[at + 1:], at + 1):
        if p == 1:
            break
        starts, counts = [], []
        for (lo, hi), a in zip(clip, cube.anchor):
            _, b, c = sparse._level_runs(lo, hi, a, p)
            starts.append(b)
            counts.append(c)
        trunc = t_on - levels.transforms[i][on]
        if np.iscomplexobj(trunc):
            bounds = [list(zip(b, np.append(b[1:], trunc.shape[d])))
                      for d, b in enumerate(starts)]
            stat = np.array([
                oscillation(trunc[tuple(slice(b0, b1) for b0, b1 in block)])
                for block in itertools.product(*bounds)
            ]).reshape([len(b) for b in starts])
        else:
            top, bottom = trunc, trunc
            for d, b in enumerate(starts):
                top = np.maximum.reduceat(top, b, axis=d)
                bottom = np.minimum.reduceat(bottom, b, axis=d)
            stat = top - bottom
        for d, c in enumerate(counts):
            stat = np.repeat(stat, c, axis=d)
        np.maximum(osc, stat, out=osc)
    return t_on, levels.maxima[at][on].ravel(), osc.ravel()


def reference_threshold(vals, k):
    idx = k if k < vals.size else 0
    return float(np.partition(vals, vals.size - 1 - idx)[vals.size - 1 - idx])


def reference_exceptional(levels, f, cube, cfg):
    grid = f.grid
    avg = avg_p(f, dilate(cube, cfg.alpha), cfg.s)
    allowed = cube.cell_count // (3 * 2 ** (grid.dim + 2))
    omega = CellSet(grid, cube, np.zeros((cube.side,) * grid.dim, dtype=bool))
    clip = cube.window_clip(grid)
    flags = [name for name, skip in (("zero_average", avg == 0.0),
                                     ("outside_window", clip is None)) if skip]
    if flags:
        return ExceptionalSet(omega, avg, 0.0, 0.0, 0.0, 0.0, (0, 0, 0), tuple(flags), None)
    outer, ms_vals, osc_vals = reference_node_stats(levels, grid, cube)
    t_vals = np.abs(outer).ravel()
    if cfg.mode == "quantile":
        tau_t = reference_threshold(t_vals, allowed)
        tau_ms = reference_threshold(ms_vals, allowed)
        tau_osc = reference_threshold(osc_vals, allowed)
    else:
        tau_ms = cfg.c_fixed * avg
        tau_t = cfg.a_fixed * avg
        tau_osc = cfg.a_fixed * avg
    ex_t, ex_ms, ex_osc = t_vals > tau_t, ms_vals > tau_ms, osc_vals > tau_osc
    union = ex_t | ex_ms | ex_osc
    if cfg.mode == "fixed" and int(union.sum()) * 2 ** (grid.dim + 2) > cube.cell_count:
        flags.append("measure_violation")
    omega.mask[sparse._box_slices(clip, cube.anchor)] = union.reshape(outer.shape)
    return ExceptionalSet(omega, avg, tau_t, tau_ms, tau_osc, tau_ms / avg,
                          (int(ex_t.sum()), int(ex_ms.sum()), int(ex_osc.sum())),
                          tuple(flags), outer)


def reference_build_node(levels, f, q, depth, cfg, entries, records):
    grid = f.grid
    exc = reference_exceptional(levels, f, q, cfg)
    flags = list(exc.flags)
    children = []
    if exc.omega.count:
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            flags.append("depth_capped")
        else:
            _, cells, sides, (st_flags,) = sparse._stopping_time(exc.omega.mask[None])
            children = [Cube(tuple(a), side) for a, side
                        in zip((cells + q.anchor).tolist(), sides.tolist())]
            flags.extend(st_flags)
    witness = cube_minus_cubes(grid, q, children)
    if cfg.mode == "quantile":
        cells = q.cell_count
        selected = sum(c.cell_count for c in children)
        assert exc.omega.count * 2 ** (grid.dim + 2) <= cells
        assert 2 * selected <= cells and 2 * witness.count >= cells
    if intersects(witness, exc.omega):
        flags.append("witness_overlaps_exceptional")
    a_eff = 0.0
    if exc.transform is not None:
        clip = q.window_clip(grid)
        in_witness = witness.mask[sparse._box_slices(clip, q.anchor)]
        if in_witness.any():
            a_eff = float(np.abs(exc.transform[in_witness]).max()) / exc.avg
    entries.append(sparse.SparseEntry(cube=dilate(q, cfg.alpha), witness=witness,
                                      coefficient=exc.avg, base_cube=q, depth=depth,
                                      flags=tuple(flags)))
    record = sparse.NodeRecord(cube=q, depth=depth, avg=exc.avg, c_ratio=exc.c_ratio,
                               a_effective=a_eff, omega_count=exc.omega.count,
                               exceed_counts=exc.exceed_counts, flags=tuple(flags))
    records.append(record)
    for child in children:
        inner = reference_build_node(levels, f, child, depth + 1, cfg, entries, records)
        sl = sparse._box_slices(child.window_clip(grid), [lo for lo, _ in clip])
        resid = exc.transform[sl] if inner is None else exc.transform[sl] - inner
        record.edges.append({"child": child,
                             "coefficient": float(np.abs(resid).max()) / exc.avg})
    return exc.transform


def reference_build(kernel, f, cfg):
    """Entries and records of the recursion, cover cube by cover cube."""
    grid = f.grid
    cover = partition_cover(grid, support_box(f), cfg.alpha)
    rt = builder_transform(kernel, f, cfg)
    sat = _power_sat(f, cfg.s)
    entries, records = [], []
    for _, roots in itertools.groupby(cover, key=lambda c: c.side):
        roots = list(roots)
        levels = sparse._side_levels(
            rt, f, sat, [r for r in roots if avg_p(f, dilate(r, cfg.alpha), cfg.s) != 0.0],
            cfg.s)
        for root in roots:
            reference_build_node(levels, f, root, 0, cfg, entries, records)
    return entries, records


def assert_same_as_reference(kernel, f, cfg):
    """The node pass's records and entries are the recursion's, bit for
    bit; return the records."""
    want_entries, want_records = reference_build(kernel, f, cfg)
    res = build_sparse_domination(kernel, f, cfg)
    assert [repr(r) for r in res.records] == [repr(r) for r in want_records]
    assert len(res.family.entries) == len(want_entries)
    for got, want in zip(res.family.entries, want_entries):
        assert (got.cube, got.base_cube, got.depth, got.flags, got.witness.box) == (
            want.cube, want.base_cube, want.depth, want.flags, want.witness.box)
        assert got.coefficient.hex() == want.coefficient.hex()
        assert got.witness.mask.tobytes() == want.witness.mask.tobytes()
    return res.records


@pytest.mark.parametrize("max_depth", [None, 0, 1])
@pytest.mark.parametrize("kname,dim,n", [
    ("hilbert", 1, 64), ("holder", 1, 64), ("dini_stress", 1, 64), ("zero", 1, 64),
    ("riesz2d", 2, 16), ("zero", 2, 16)])
def test_node_pass_matches_the_recursion(kname, dim, n, max_depth):
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    seen = set()
    for kind in INPUT_KINDS:
        f = make_input(grid, kind, seed=13)
        for alpha in (3, 5):
            for mode in sorted(MODES):
                cfg = PipelineConfig(alpha=alpha, max_depth=max_depth, **MODES[mode])
                for rec in assert_same_as_reference(k, f, cfg):
                    seen.update(rec.flags)
    if max_depth == 0 and kname != "zero":
        assert "depth_capped" in seen


@pytest.mark.parametrize("dim,n,name", [(1, 64, "hilbert"), (2, 16, "riesz2d")])
def test_node_pass_matches_the_recursion_on_complex_input(dim, n, name):
    grid = Grid(dim, n)
    g = rng(23)
    vals = np.zeros(grid.shape, dtype=complex)
    box = (slice(n // 4, 3 * n // 4),) * dim
    vals[box] = g.normal(size=vals[box].shape) + 1j * g.normal(size=vals[box].shape)
    for cfg in (PipelineConfig(alpha=3), PipelineConfig(alpha=5, **MODES["fixed"])):
        assert len(assert_same_as_reference(make_kernel(name, grid),
                                            GridFunction(grid, vals), cfg)) > 1


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim,n,name,s", [(1, 128, "hilbert", 8), (1, 64, "hilbert", 4),
                                          (2, 16, "riesz2d", 4)])
def test_node_pass_matches_the_recursion_on_ring_cubes(dim, n, name, s, complex_values):
    # a small off-centre support: rings of cover cubes outside the window,
    # odd ring sides and their odd leaves
    grid = Grid(dim, n)
    g = rng(3)
    vals = np.zeros(grid.shape, dtype=complex if complex_values else float)
    box = (slice(n - 3 * s // 2, n - s // 2),) * dim if n == 128 else (
        slice(n // 8, n // 8 + s),) * dim
    vals[box] = g.random(vals[box].shape) + 0.25
    if complex_values:
        vals[box] = vals[box] * np.exp(2j * np.pi * g.random(vals[box].shape))
    f = GridFunction(grid, vals)
    flags = set()
    for alpha in (3, 5, 7):
        records = assert_same_as_reference(make_kernel(name, grid), f,
                                           PipelineConfig(alpha=alpha))
        assert any(min(r.cube.anchor) < 0 for r in records)
        for rec in records:
            flags.update(rec.flags)
    assert {"outside_window", "zero_average"} & flags


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 16)])
def test_node_pass_matches_the_recursion_without_a_lattice(dim, n):
    grid = Grid(dim, n)
    for kind in ("random", "spikes"):
        assert_same_as_reference(_modulated(grid), make_input(grid, kind, seed=17),
                                 PipelineConfig(alpha=3))


# ---------------------------------------------------------------------------
# batches of the node pass

def _corner_cell():
    grid = Grid(2, 64)
    vals = np.zeros(grid.shape)
    vals[0, 0] = 1.0
    return GridFunction(grid, vals)


def _complex_ring_input():
    grid = Grid(2, 16)
    g = rng(29)
    vals = np.zeros((16, 16), dtype=complex)
    vals[10:14, 2:6] = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
    return GridFunction(grid, vals)


BATCH_CASES = {
    "riesz2d-64-random": ("riesz2d", lambda: make_input(Grid(2, 64), "random", seed=1), {}),
    "hilbert-128-off-centre-a3": ("hilbert", lambda: make_input(
        Grid(1, 128), "random", seed=3, support=Cube((100,), 8)), {"alpha": 3}),
    "hilbert-128-off-centre-a7": ("hilbert", lambda: make_input(
        Grid(1, 128), "random", seed=3, support=Cube((100,), 8)), {"alpha": 7}),
    # a ring cube of side 32 with one window cell, no more than the one
    # cell its quantile thresholds may leave above them
    "hilbert-128-one-cell-ring": ("hilbert", lambda: make_input(
        Grid(1, 128), "random", seed=3, support=Cube((95,), 32)), {}),
    "riesz2d-64-corner-cell": ("riesz2d", _corner_cell, {}),
    "riesz2d-16-complex": ("riesz2d", _complex_ring_input, {"alpha": 5}),
    "riesz2d-64-random-fixed": ("riesz2d", lambda: make_input(Grid(2, 64), "random", seed=1),
                                MODES["fixed"]),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_size_does_not_change_a_build(monkeypatch, case):
    # with room for one cube cell per batch every node is a batch of its
    # own, on its own window cells; the default batches share a box, and
    # mask each node's cells outside the window; a complex level cube's
    # diameter is taken over the node's window cells either way
    name, make_f, config = BATCH_CASES[case]
    f = make_f()
    k = make_kernel(name, f.grid)
    cfg = PipelineConfig(**config)
    diameters = []

    def counted(values):
        if values.size:
            diameters.append(values.size)
        return oscillation(values)

    monkeypatch.setattr(sparse, "oscillation", counted)
    batched = build_sparse_domination(k, f, cfg)
    batched_diameters = sorted(diameters)
    diameters.clear()
    node_batch, sizes = sparse._node_batch, []

    def recorded(levels, grid_, nodes, *args):
        sizes.append(len(nodes))
        return node_batch(levels, grid_, nodes, *args)

    monkeypatch.setattr(sparse, "_SLAB_CELLS", 1)
    monkeypatch.setattr(sparse, "_node_batch", recorded)
    alone = build_sparse_domination(k, f, cfg)
    assert set(sizes) == {1} and len(sizes) > 1
    assert sorted(diameters) == batched_diameters
    assert bool(diameters) == f.is_complex
    assert family_to_json(alone.family) == family_to_json(batched.family)
    assert [repr(r) for r in alone.records] == [repr(r) for r in batched.records]
    assert repr(alone.ledger) == repr(batched.ledger)


def test_ring_cubes_of_the_half_window_support_grow_as_one_batch(monkeypatch):
    # 2D riesz2d n = 64, random f on the centred half window: the support
    # box and the eight ring cubes around it, all of side 32, grow depth 0
    # as one batch on the whole cube, and the ring cubes' cells outside the
    # window are masked
    grid = Grid(2, 64)
    f = make_input(grid, "random", seed=1)
    node_batch, node_stats, batches, outside = sparse._node_batch, sparse._node_stats, [], []

    def recorded(levels, grid_, nodes, avg, depth, *args):
        batches.append((depth, [node.cube for node in nodes]))
        return node_batch(levels, grid_, nodes, avg, depth, *args)

    def masked(levels, grid_, cubes, box):
        got = node_stats(levels, grid_, cubes, box)
        outside.append((box, None if got[3] is None else got[3].reshape(len(cubes), -1).sum(1)))
        return got

    monkeypatch.setattr(sparse, "_node_batch", recorded)
    monkeypatch.setattr(sparse, "_node_stats", masked)
    build_sparse_domination(make_kernel("riesz2d", grid), f)
    cover = partition_cover(grid, support_box(f), 3)
    assert len(cover) == 9 and {c.side for c in cover} == {32}
    assert [cubes for depth, cubes in batches if depth == 0] == [cover]
    box, counts = outside[0]
    # the support box has no cell outside the window, a side ring cube
    # half of its cells, a corner ring cube three quarters
    assert box == ((0, 32), (0, 32))
    assert sorted(counts.tolist()) == [0] + [512] * 4 + [768] * 4
