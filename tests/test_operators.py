"""Kernel application, transposition, and kernel statistics."""

import dataclasses
import itertools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    Kernel,
    NumericError,
    ParameterError,
    apply_restricted,
    check_domination,
    dilate,
    dini_profile,
    hormander_constant,
    make_kernel,
    transpose_kernel,
)
from sparsedom import operators, sparse, verify
from sparsedom.inputs import make_input
from sparsedom.maximal import sharp_truncated
from sparsedom.operators import LatticeTransform, RestrictedTransform


def loop_transform(kernel, f, target_mask, source_mask):
    """Reference evaluation by explicit double loop over cells."""
    grid = f.grid
    h = grid.cell_width
    out = np.zeros(grid.shape, dtype=f.values.dtype)
    targets = np.argwhere(target_mask)
    sources = np.argwhere(source_mask)
    for t in targets:
        acc = 0.0
        for s in sources:
            if np.array_equal(t, s):
                continue
            xc = (t + 0.5) * h
            yc = (s + 0.5) * h
            acc += kernel.fn(xc.reshape(1, -1), yc.reshape(1, -1))[0] * f.values[tuple(s)]
        out[tuple(t)] = acc * grid.cell_measure
    return out


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# restricted application

def test_single_source_cell_value():
    # h = 1, source center 0.5, target center 3.5: kernel 1/(3.5 - 0.5) = 1/3
    grid = Grid(1, 4, phys_side=4.0)
    f = GridFunction(grid, np.array([1.0, 0.0, 0.0, 0.0]))
    out = apply_restricted(make_kernel("hilbert"), f)
    assert out.values[3] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert out.values[0] == 0.0  # diagonal skipped


def test_matches_loop_oracle_1d():
    grid = Grid(1, 16, phys_side=2.0)
    g = rng(7)
    f = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("hilbert")
    tm = np.ones(grid.shape, dtype=bool)
    sm = np.zeros(grid.shape, dtype=bool)
    sm[3:11] = True
    got = apply_restricted(k, f, source=CellSet(grid, grid.window_cube(), sm))
    want = loop_transform(k, f, tm, sm)
    np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_matches_loop_oracle_2d():
    grid = Grid(2, 4, phys_side=1.0)
    g = rng(11)
    f = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("riesz2d")
    sm = g.random(grid.shape) < 0.5
    got = apply_restricted(k, f, source=CellSet(grid, grid.window_cube(), sm))
    want = loop_transform(k, f, np.ones(grid.shape, bool), sm)
    np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_target_restriction_zero_off_targets():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    t = Cube((2,), 3)
    out = apply_restricted(make_kernel("hilbert"), f, targets=t)
    assert np.all(out.values[:2] == 0.0)
    assert np.all(out.values[5:] == 0.0)
    assert np.any(out.values[2:5] != 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_source_additivity(seed):
    grid = Grid(1, 16)
    g = rng(seed)
    f = GridFunction(grid, g.normal(size=grid.shape))
    split = g.random(grid.shape) < 0.5
    k = make_kernel("hilbert")
    part_a = apply_restricted(k, f, source=CellSet(grid, grid.window_cube(), split))
    part_b = apply_restricted(k, f, source=CellSet(grid, grid.window_cube(), ~split))
    whole = apply_restricted(k, f)
    np.testing.assert_allclose(part_a.values + part_b.values, whole.values, atol=1e-12)


def test_empty_source_and_empty_targets():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    k = make_kernel("hilbert")
    empty = CellSet(grid, grid.window_cube(), np.zeros(grid.shape, dtype=bool))
    assert np.all(apply_restricted(k, f, source=empty).values == 0.0)
    assert np.all(apply_restricted(k, f, targets=empty).values == 0.0)


def test_out_of_window_source_cube_contributes_nothing():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    out = apply_restricted(make_kernel("hilbert"), f, source=Cube((-16,), 8))
    assert np.all(out.values == 0.0)


def test_nonfinite_kernel_names_offending_pair():
    grid = Grid(1, 4, phys_side=4.0)
    f = GridFunction(grid, np.ones(grid.shape))
    bad = Kernel("bad", 1, lambda x, y: 1.0 / (x[..., 0] - y[..., 0] - 1.0))
    with pytest.raises(NumericError, match="x=.*y="):
        apply_restricted(bad, f)


def test_dim_mismatch_rejected():
    grid = Grid(2, 4)
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ParameterError):
        apply_restricted(make_kernel("hilbert"), f)


def test_complex_input_passes_through():
    grid = Grid(1, 8)
    g = rng(3)
    f = GridFunction(grid, g.normal(size=grid.shape) + 1j * g.normal(size=grid.shape))
    out = apply_restricted(make_kernel("hilbert"), f)
    re = apply_restricted(make_kernel("hilbert"), GridFunction(grid, f.values.real))
    im = apply_restricted(make_kernel("hilbert"), GridFunction(grid, f.values.imag))
    np.testing.assert_allclose(out.values, re.values + 1j * im.values, atol=1e-12)


@pytest.mark.parametrize("dim,n,kname", [(1, 16384, "hilbert"), (2, 64, "riesz2d")])
def test_restricted_sums_of_whole_groups_repeat_the_full_sums(dim, n, kname):
    # BLAS may round a target's sum with the targets sharing its product;
    # a group re-summed alone has the bits it has in the window's sum
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    f = GridFunction(grid, rng(4).normal(size=grid.shape))
    full = apply_restricted(k, f).values.ravel()
    cells = CellSet.from_cube(grid, grid.window_cube()).window_cells()
    g = operators._SUM_GROUP
    for seed in range(3):
        groups = np.unique(rng(seed).integers(0, grid.n_cells // g, 37))
        rows = (groups[:, None] * g + np.arange(g)).ravel()
        sums = operators._restricted_sums(k, grid, cells[rows], cells,
                                          f.values[tuple(cells.T)])
        assert np.array_equal(sums, full[rows])


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim,n,kname", [(1, 64, "hilbert"), (2, 16, "riesz2d")])
def test_restricted_sums_over_a_box_equal_the_gathered_cells(dim, n, kname,
                                                             complex_values):
    # a box's block is sliced from the pair view, any other cell list's
    # gathered from it; over the same cells the two sum alike, bit for bit:
    # the window, the centred half, a corner, one cell and no cell
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    lat = operators._offset_lattice(k, grid)
    g = rng(5)
    vals = g.normal(size=grid.shape)
    if complex_values:
        vals = vals + 1j * g.normal(size=grid.shape)
    targets = np.argwhere(np.ones(grid.shape, dtype=bool))
    boxes = [((0, n),) * dim, ((n // 4, 3 * n // 4),) * dim,
             ((n - 3, n),) + ((0, 5),) * (dim - 1), ((7, 8),) * dim, ((2, 2),) * dim]
    for box in boxes:
        lo, hi = np.transpose(box)
        cells = np.array(list(itertools.product(*map(range, lo, hi))),
                         dtype=np.intp).reshape(-1, dim)
        src = vals[tuple(cells.T)]
        for kernel, weights in ((k, lat), (_dense(k), None)):
            got = operators._restricted_sums(kernel, grid, targets, box, src, weights)
            want = operators._restricted_sums(kernel, grid, targets, cells, src, weights)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), box
        if src.size == 0:
            assert got.tobytes() == np.zeros_like(got).tobytes()


@pytest.mark.parametrize("dim,n,kname", [(1, 64, "hilbert"), (2, 16, "riesz2d")])
def test_restricted_sums_of_a_tail_repeat_the_full_sums(dim, n, kname):
    # the targets past the last whole group are summed as a group padded
    # with zero rows: a call on the first k cells of the window has the
    # bits of the window's sums, for every k
    grid = Grid(dim, n)
    k = make_kernel(kname, grid)
    f = GridFunction(grid, rng(6).normal(size=grid.shape))
    full = apply_restricted(k, f).values.ravel()
    cells = np.argwhere(np.ones(grid.shape, dtype=bool))
    for count in range(1, 4 * operators._SUM_GROUP):
        sums = operators._restricted_sums(k, grid, cells[:count], ((0, n),) * dim,
                                          f.values.ravel())
        assert sums.tobytes() == full[:count].tobytes(), count


# ---------------------------------------------------------------------------
# transpose

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_transpose_pairing_identity(seed):
    # sum_x g(x) (Tf)(x) h == sum_y f(y) (T*g)(y) h for any f, g
    grid = Grid(1, 16)
    g = rng(seed)
    f = GridFunction(grid, g.normal(size=grid.shape))
    w = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("hilbert")
    lhs = np.sum(w.values * apply_restricted(k, f).values)
    rhs = np.sum(f.values * apply_restricted(transpose_kernel(k), w).values)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_transpose_of_antisymmetric_kernel_flips_sign():
    grid = Grid(1, 8)
    f = GridFunction(grid, rng(1).normal(size=grid.shape))
    k = make_kernel("hilbert")
    a = apply_restricted(k, f).values
    b = apply_restricted(transpose_kernel(k), f).values
    np.testing.assert_allclose(a, -b, atol=1e-13)


def test_transpose_drops_declared_regularity():
    kt = transpose_kernel(make_kernel("hilbert"))
    assert kt.modulus is None and kt.hormander_r is None


# ---------------------------------------------------------------------------
# prefix-sum transform

def test_restricted_transform_agrees_with_direct_path():
    grid = Grid(1, 32)
    g = rng(21)
    f = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("hilbert")
    rt = RestrictedTransform(k, f)
    np.testing.assert_allclose(rt.full(), apply_restricted(k, f).values, atol=1e-10)
    for _ in range(12):
        lo = int(g.integers(0, 28))
        hi = int(g.integers(lo + 1, 33))
        box = Cube((lo,), hi - lo)
        direct = apply_restricted(k, f, source=box).values
        rows = np.arange(grid.n_cells)
        got = rt.apply_box(rows, ((lo, hi),))
        np.testing.assert_allclose(got, direct, atol=1e-10)


def test_restricted_transform_agrees_2d():
    grid = Grid(2, 8)
    g = rng(22)
    f = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("riesz2d")
    rt = RestrictedTransform(k, f)
    np.testing.assert_allclose(rt.full(), apply_restricted(k, f).values, atol=1e-10)
    box = Cube((1, 3), 4)
    direct = apply_restricted(k, f, source=box).values
    cells = np.argwhere(np.ones(grid.shape, bool))
    rows = cells[:, 0] * grid.cells_per_side + cells[:, 1]
    got = rt.apply_box(rows, ((1, 5), (3, 7))).reshape(grid.shape)
    np.testing.assert_allclose(got, direct, atol=1e-10)


def test_restricted_transform_clips_out_of_window_bounds():
    grid = Grid(1, 8)
    f = GridFunction(grid, rng(5).normal(size=grid.shape))
    k = make_kernel("hilbert")
    rt = RestrictedTransform(k, f)
    rows = np.arange(grid.n_cells)
    np.testing.assert_allclose(rt.apply_box(rows, ((-50, 50),)), rt.full(), atol=0)
    assert np.all(rt.apply_box(rows, ((-50, -10),)) == 0.0)


def test_restricted_transform_complex_values():
    grid = Grid(1, 8)
    g = rng(9)
    f = GridFunction(grid, g.normal(size=grid.shape) * np.exp(1j * g.random(grid.shape)))
    rt = RestrictedTransform(make_kernel("hilbert"), f)
    direct = apply_restricted(make_kernel("hilbert"), f).values
    np.testing.assert_allclose(rt.full(), direct, atol=1e-12)


# ---------------------------------------------------------------------------
# Dini statistic

def test_dini_closed_form_linear():
    # integral of t/t over (0,1) is exactly 1
    assert dini_profile(lambda t: t)["value"] == pytest.approx(1.0, rel=0.01)


def test_dini_closed_form_sqrt():
    # integral of sqrt(t)/t over (0,1) is exactly 2
    assert dini_profile(np.sqrt)["value"] == pytest.approx(2.0, rel=0.01)


def test_dini_divergent_single_log_flagged():
    val = dini_profile(lambda t: 1.0 / (1.0 + np.log(1.0 / t)))["value"]
    assert math.isinf(val)


def test_dini_constant_flagged_divergent():
    assert math.isinf(dini_profile(lambda t: np.ones_like(np.asarray(t)))["value"])


def test_dini_square_log_converges():
    prof = dini_profile(lambda t: 1.0 / (1.0 + np.log(1.0 / t)) ** 2)
    assert not prof["divergent"]
    assert 0.9 < prof["value"] < 1.1  # exact antiderivative gives 1


def test_dini_of_catalog_kernels():
    grid = Grid(1, 64)
    hilb = make_kernel("hilbert")
    assert dini_profile(hilb.modulus)["value"] == pytest.approx(2.0, rel=0.01)
    assert math.isfinite(dini_profile(make_kernel("dini_stress", grid).modulus)["value"])
    hold = make_kernel("holder", grid, delta=0.5)
    want = 2.0 * (3.0 + 2.0 * np.pi)
    assert dini_profile(hold.modulus)["value"] == pytest.approx(want, rel=0.01)


# ---------------------------------------------------------------------------
# declared moduli dominate sampled oscillations

def _modulus_holds_1d(kernel, u_values, ts):
    for u in u_values:
        for t in ts:
            for sign in (1.0, -1.0):
                x = np.array([[u]])
                xp = np.array([[u + sign * t * abs(u)]])
                y = np.array([[0.0]])
                diff = abs(kernel.fn(x, y) - kernel.fn(xp, y))[0]
                bound = kernel.modulus(np.array([t]))[0] / abs(u)
                assert diff <= bound * (1 + 1e-9), (u, t, sign, diff, bound)


def test_hilbert_modulus_dominates():
    us = np.concatenate([np.geomspace(1e-6, 4.0, 40), -np.geomspace(1e-6, 4.0, 40)])
    _modulus_holds_1d(make_kernel("hilbert"), us, [0.5, 0.25, 0.1, 0.01])


def test_holder_modulus_dominates():
    grid = Grid(1, 64)
    k = make_kernel("holder", grid, delta=0.5)
    us = np.concatenate([np.geomspace(1e-6, 2.0, 40), -np.geomspace(1e-6, 2.0, 40)])
    _modulus_holds_1d(k, us, [0.5, 0.25, 0.1, 0.01, 0.001])


def test_dini_stress_modulus_dominates():
    grid = Grid(1, 64)
    k = make_kernel("dini_stress", grid)
    us = np.concatenate([np.geomspace(1e-6, 2.0, 40), -np.geomspace(1e-6, 2.0, 40)])
    _modulus_holds_1d(k, us, [0.5, 0.25, 0.1, 0.01, 0.001])


def _dini_stress_every_offset(scale):
    """The dini_stress kernel with its pattern taken at every offset."""
    def fn(x, y):
        u = x[..., 0] - y[..., 0]
        with np.errstate(divide="ignore"):
            a = np.log(scale / np.abs(u))
        return (1.0 + 0.5 * operators._log_wiggle(a)) / u
    return fn


@pytest.mark.parametrize("phys_side", [1.0, 0.1, math.pi])
def test_dini_stress_pattern_per_distinct_offset_is_bitwise_the_same(phys_side):
    # the catalog kernel takes its pattern once per distinct |u|; on every
    # lattice and on a dense block of cell pairs (the diagonal's NaN
    # included) it is bit for bit the pattern taken at every offset
    for n in (16, 64, 256, 1024):
        grid = Grid(1, n, phys_side=phys_side)
        k = make_kernel("dini_stress", grid)
        every = dataclasses.replace(k, fn=_dini_stress_every_offset(4.0 * phys_side))
        assert (operators._offset_lattice(k, grid).tobytes()
                == operators._offset_lattice(every, grid).tobytes()), n
    x = ((np.arange(256) + 0.5) * (phys_side / 256)).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = k.fn(x[:, None], x[None, :]), every.fn(x[:, None], x[None, :])
    assert got.shape == (256, 256) and got.tobytes() == want.tobytes()


def test_riesz2d_modulus_dominates():
    k = make_kernel("riesz2d")
    dirs = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 9)[:-1]]
    for rho in np.geomspace(1e-4, 2.0, 12):
        for d in dirs:
            for e in dirs:
                for t in (0.5, 0.2, 0.05):
                    x = (rho * d).reshape(1, 2)
                    xp = (rho * d + t * rho * e).reshape(1, 2)
                    y = np.zeros((1, 2))
                    diff = abs(k.fn(x, y) - k.fn(xp, y))[0]
                    bound = k.modulus(np.array([t]))[0] / rho**2
                    assert diff <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# integral smoothness statistic

def test_hormander_zero_for_x_independent_kernel(monkeypatch):
    monkeypatch.setattr(operators, "_HORMANDER_K_MAX", 6)
    grid = Grid(1, 16)
    k = Kernel("y_only", 1, lambda x, y: np.sin(y[..., 0]) + 0.0 * x[..., 0])
    est = hormander_constant(k, 2.0, grid)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_hormander_nondecreasing_in_exponent(monkeypatch):
    monkeypatch.setattr(operators, "_HORMANDER_K_MAX", 8)
    grid = Grid(1, 16)
    k = make_kernel("hilbert")
    v1 = hormander_constant(k, 1.0, grid).value
    v2 = hormander_constant(k, 2.0, grid).value
    vinf = hormander_constant(k, math.inf, grid).value
    assert v1 <= v2 * (1 + 1e-12) <= vinf * (1 + 1e-12)
    assert vinf > 0


def test_hormander_tail_small_for_smooth_kernel():
    grid = Grid(1, 16)
    est = hormander_constant(make_kernel("hilbert"), math.inf, grid)
    assert est.k_max == 16
    assert est.tail < 1e-3 * est.value


def test_hormander_scale_stability(monkeypatch):
    monkeypatch.setattr(operators, "_HORMANDER_K_MAX", 10)
    k = make_kernel("hilbert")
    a = hormander_constant(k, math.inf, Grid(1, 16)).value
    b = hormander_constant(k, math.inf, Grid(1, 32)).value
    assert abs(a - b) <= 0.5 * max(a, b)


def test_hormander_coarsening_kicks_in(monkeypatch):
    monkeypatch.setattr(operators, "_HORMANDER_K_MAX", 14)
    grid = Grid(1, 16)
    monkeypatch.setattr(operators, "_ANNULUS_CELL_CAP", 256)
    est = hormander_constant(make_kernel("hilbert"), 2.0, grid)
    assert est.coarsened
    monkeypatch.setattr(operators, "_ANNULUS_CELL_CAP", 2**18)
    fine = hormander_constant(make_kernel("hilbert"), 2.0, grid)
    assert est.value == pytest.approx(fine.value, rel=0.05)


def test_hormander_2d_runs(monkeypatch):
    monkeypatch.setattr(operators, "_HORMANDER_K_MAX", 4)
    grid = Grid(2, 16)
    est = hormander_constant(make_kernel("riesz2d"), math.inf, grid)
    assert est.value > 0 and math.isfinite(est.value) and est.k_max == 4


def test_hormander_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        hormander_constant(make_kernel("hilbert"), 0.5, Grid(1, 16))


# ---------------------------------------------------------------------------
# catalog

def test_catalog_rejects_unknown_and_leftover_params():
    with pytest.raises(ParameterError):
        make_kernel("nope")
    with pytest.raises(ParameterError):
        make_kernel("hilbert", frobnicate=3)
    with pytest.raises(ParameterError):
        make_kernel("holder", delta=1.5)


def test_zero_kernel_gives_zero_transform():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    out = apply_restricted(make_kernel("zero"), f)
    assert np.all(out.values == 0.0)


def test_riesz2d_dimension():
    assert make_kernel("riesz2d").dim == 2
    assert make_kernel("hilbert").dim == 1


# ---------------------------------------------------------------------------
# difference-lattice sampling of translation-invariant kernels

EXACT_SIDES = (1.0, 3.0)
INEXACT_SIDES = (0.1, math.pi)
LATTICE_CASES = (
    [(1, n, k) for n in (64, 256) for k in ("hilbert", "holder", "dini_stress", "zero")]
    + [(2, n, k) for n in (8, 16) for k in ("riesz2d", "zero")]
)


def _dense(kernel):
    return dataclasses.replace(kernel, translation_invariant=False)


def _counting(kernel):
    """The kernel with an ``fn`` that records how many values it returned."""
    seen = []

    def fn(x, y):
        out = kernel.fn(x, y)
        seen.append(np.size(out))
        return out

    return dataclasses.replace(kernel, fn=fn), seen


def _odd_cells(grid, g, box):
    """A random non-box cell set inside ``box``, which may leave the window."""
    return CellSet(grid, box, g.random((box.side,) * grid.dim) < 0.6)


def test_catalog_kernels_declare_translation_invariance():
    grid = Grid(1, 16)
    for name in ("hilbert", "holder", "dini_stress", "riesz2d", "zero"):
        k = make_kernel(name, grid)
        assert k.translation_invariant
        assert transpose_kernel(k).translation_invariant
    assert not Kernel("plain", 1, lambda x, y: x[..., 0]).translation_invariant


def _center_rounding_bound(grid, kernel, modulus):
    """Per cell pair, how far the lattice value may sit from the kernel at
    the cell centers, when the center differences round off the lattice.

    A center ``(i + 0.5) h`` rounds by at most eps/2 of ``n h``, the
    difference of two centers by eps/2 of its own size, and the lattice
    offset ``(i - j) h`` by as much, so per axis the two offsets differ by
    at most ``2 eps n h`` (asserted on the grid's own centers).  Their
    relative gap ``t`` is at most ``sqrt(dim) 2 eps n`` over the offset in
    cells, below 1/2, so the kernel's declared modulus bounds the change of
    K by ``omega(t) / |k h|**dim``; each evaluation of K rounds by a few
    units in the last place on top, allowed as ``4 eps |K|``.
    """
    n, h, dim = grid.cells_per_side, grid.cell_width, grid.dim
    eps = np.finfo(float).eps
    i = np.arange(n)
    centers = (i + 0.5) * h
    gap = np.abs((centers[:, None] - centers[None, :]) - (i[:, None] - i[None, :]) * h).max()
    assert 0 < gap <= 2 * eps * n * h
    cells = np.argwhere(np.ones(grid.shape, dtype=bool))
    dense = operators._kernel_block(kernel, grid, None, cells, cells)
    dist = np.linalg.norm((cells[:, None, :] - cells[None, :, :]) * h, axis=-1)
    far = dist > 0
    t = np.where(far, np.sqrt(dim) * gap / np.where(far, dist, 1.0), 0.0)
    assert t.max() <= 0.5
    bound = np.where(far, modulus(t) / np.where(far, dist, 1.0) ** dim, 0.0)
    return bound + 4 * eps * np.abs(dense), dense, cells


@pytest.mark.parametrize("phys_side", EXACT_SIDES + INEXACT_SIDES)
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("dim,n,name", LATTICE_CASES)
def test_lattice_matches_dense_bitwise(dim, n, name, transpose, phys_side):
    grid = Grid(dim, n, phys_side)
    k = make_kernel(name, grid)
    # the transpose reads the negated offsets, with the same modulus
    modulus = k.modulus
    if transpose:
        k = transpose_kernel(k)
    # the flag alone decides: the lattice is sampled on every grid
    lat = operators._offset_lattice(k, grid)
    assert lat is not None
    g = rng(n + dim)
    f = GridFunction(grid, g.normal(size=grid.shape))
    lat_rt, dense_rt = RestrictedTransform(k, f), RestrictedTransform(_dense(k), f)
    if phys_side in INEXACT_SIDES:
        # the lattice values sit within the center rounding of the dense
        # ones, and every transform within that bound summed over |f|
        # h**dim, plus the rounding of two sums of N terms each
        bound, dense, cells = _center_rounding_bound(grid, _dense(k), modulus)
        got = operators._kernel_block(k, grid, operators._lattice_weights(lat, grid),
                                      cells, cells)
        assert np.all(np.abs(got - dense) <= bound)
        eps, N = np.finfo(float).eps, grid.n_cells
        slack = ((bound + 4 * N * eps * np.abs(dense)) @ np.abs(f.values.ravel())
                 * grid.cell_measure).reshape(grid.shape)
        assert np.all(np.abs(lat_rt.full() - dense_rt.full()) <= slack)
        assert np.all(np.abs(apply_restricted(k, f).values
                             - apply_restricted(_dense(k), f).values) <= slack)
        return
    assert np.array_equal(lat_rt.full(), dense_rt.full())
    rows = np.arange(grid.n_cells)
    for _ in range(4):
        lo = g.integers(-n // 2, n, size=dim)
        hi = lo + g.integers(1, n + 1, size=dim)
        bounds = tuple(zip(lo, hi))
        assert np.array_equal(lat_rt.apply_box(rows, bounds),
                              dense_rt.apply_box(rows, bounds))
    # non-box targets and sources; the source box sticks out of the window
    targets = _odd_cells(grid, g, Cube((n // 4,) * dim, n // 2))
    source = _odd_cells(grid, g, Cube((-n // 4,) * dim, n))
    for t, s in ((None, None), (targets, source), (None, source), (targets, None)):
        assert np.array_equal(apply_restricted(k, f, targets=t, source=s).values,
                              apply_restricted(_dense(k), f, targets=t, source=s).values)


@pytest.mark.parametrize("dim,n,name", [(1, 64, "hilbert"), (2, 8, "riesz2d")])
def test_lattice_matches_dense_bitwise_complex(dim, n, name):
    grid = Grid(dim, n)
    k = make_kernel(name, grid)
    g = rng(12)
    f = GridFunction(grid, g.normal(size=grid.shape) + 1j * g.normal(size=grid.shape))
    assert np.array_equal(RestrictedTransform(k, f).full(),
                          RestrictedTransform(_dense(k), f).full())
    assert np.array_equal(apply_restricted(k, f).values,
                          apply_restricted(_dense(k), f).values)


def test_complex_direct_sums_are_the_sums_of_the_parts():
    # a complex f goes through the real kernel block as its two parts, so
    # the block is never copied to complex
    grid = Grid(2, 32)
    k = make_kernel("riesz2d", grid)
    g = rng(21)
    re, im = g.normal(size=grid.shape), g.normal(size=grid.shape)
    peaks = []
    for vals in (re, re + 1j * im):
        tracemalloc.start()
        try:
            got = apply_restricted(k, GridFunction(grid, vals)).values
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(got.real, apply_restricted(k, GridFunction(grid, re)).values)
    assert np.array_equal(got.imag, apply_restricted(k, GridFunction(grid, im)).values)
    # the 8 MB pair block once, not again as 16 MB of complex
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("dim,n,name", LATTICE_CASES)
def test_lattice_sampling_equals_direct_kernel_values(dim, n, name):
    grid = Grid(dim, n, 3.0)
    k = make_kernel(name, grid)
    cells = np.argwhere(np.ones(grid.shape, dtype=bool))
    pts = (cells + 0.5) * grid.cell_width
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = k.fn(pts[:, None, :], pts[None, :, :])
    np.fill_diagonal(direct, 0.0)
    lat = operators._offset_lattice(k, grid)
    assert lat.shape == (2 * n - 1,) * dim
    got = operators._kernel_block(k, grid, operators._lattice_weights(lat, grid),
                                  cells, cells)
    assert np.array_equal(got, direct)


def _dilate_transforms(fft, start, count, side):
    """``fft.dilate_transforms`` into a new array of the block's window
    clip, as the builder passes one."""
    n = fft.grid.cells_per_side
    shape = [max(0, min(a + side * c, n) - max(a, 0)) for a, c in zip(start, count)]
    return fft.dilate_transforms(start, count, side, np.empty(shape, fft._values.dtype))


@pytest.mark.parametrize("dim,n,name", [(1, 256, "dini_stress"), (2, 16, "riesz2d")])
def test_lattice_never_evaluates_all_pairs(dim, n, name):
    grid = Grid(dim, n)
    k, seen = _counting(make_kernel(name, grid))
    f = GridFunction(grid, rng(4).normal(size=grid.shape))
    RestrictedTransform(k, f)
    apply_restricted(k, f)
    apply_restricted(transpose_kernel(k), f, source=Cube((1,) * dim, n // 2))
    fft = LatticeTransform(k, f, 3)
    for side in (n, n // 2, 1):
        _dilate_transforms(fft, (0,) * dim, (n // side,) * dim, side)
    # one lattice per use: the table, the direct transform, its transpose,
    # the FFT transform over all its calls
    assert seen == [(2 * n - 1) ** dim] * 4
    # a window whose center differences round off the lattice samples it
    # too; only a kernel without the flag is evaluated at every pair
    inexact = Grid(dim, n, 0.1)
    k, seen = _counting(make_kernel(name, inexact))
    RestrictedTransform(k, GridFunction(inexact, f.values))
    assert seen == [(2 * n - 1) ** dim]
    k, seen = _counting(_dense(make_kernel(name, grid)))
    RestrictedTransform(k, f)
    assert seen == [n ** (2 * dim)]


@pytest.mark.parametrize("dim", [1, 2])
def test_invariant_kernel_nonfinite_off_diagonal_names_real_pair(dim):
    # infinite at the offset of one cell along the first axis
    grid = Grid(dim, 4, phys_side=4.0)
    bad = Kernel("bad_offset", dim,
                 lambda x, y: 1.0 / (np.abs(x - y).sum(axis=-1) - 1.0) ** 2,
                 translation_invariant=True)
    f = GridFunction(grid, np.ones(grid.shape))
    for call in (lambda: RestrictedTransform(bad, f),
                 lambda: LatticeTransform(bad, f, 3),
                 lambda: apply_restricted(bad, f),
                 lambda: apply_restricted(bad, f, source=Cube((2,) * dim, 2))):
        with pytest.raises(NumericError, match="x=.*y=") as err:
            call()
        xs, ys = re.search(r"x=\((.*)\), y=\((.*)\)", str(err.value)).groups()
        x, y = (np.array([float(v) for v in re.findall(r"\d+\.\d+", c)]) for c in (xs, ys))
        assert x.shape == y.shape == (dim,)
        assert np.abs(x - y).sum() == 1.0                   # a pair at offset 1
        assert np.all((x > 0) & (x < 4) & (y > 0) & (y < 4))  # both cell centers


def _one_shot_lattice(kernel, grid):
    """The lattice from one call of ``fn`` on every offset at once."""
    n, dim = grid.cells_per_side, grid.dim
    axis = np.arange(-(n - 1), n) * grid.cell_width
    x = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lat = np.asarray(kernel.fn(x, np.zeros_like(x)), dtype=np.float64)
    lat[(n - 1,) * dim] = 0.0
    return lat


@pytest.mark.parametrize("phys_side", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("dim,n,name", [(1, 256, k) for k in ("hilbert", "holder", "dini_stress",
                                                            "zero")]
                         + [(2, 64, k) for k in ("riesz2d", "zero")])
def test_slabbed_lattice_equals_one_shot_values(monkeypatch, dim, n, name, phys_side):
    # slabs of 381 offsets: in 1D two uneven ones, in 2D 43 of three rows
    # of 127 offsets (the last of one row)
    grid = Grid(dim, n, phys_side)
    k, seen = _counting(make_kernel(name, grid))
    want = _one_shot_lattice(k, grid)
    monkeypatch.setattr(operators, "_SLAB_CELLS", 381)
    seen.clear()
    got = operators._offset_lattice(k, grid)
    assert len(seen) == (2 if dim == 1 else 43) and sum(seen) == want.size
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_nonfinite_offset_in_a_later_slab_names_the_same_pair(monkeypatch, dim, n):
    # NaN at two offsets past the first slab: the first in C order names
    # the pair, in slabs as in one call
    grid = Grid(dim, n, float(n))                   # h = 1
    late = [(n // 2 + 7, -3)[:dim], (n // 2 + 12, 5)[:dim]]

    def fn(x, y):
        u = x - y
        with np.errstate(divide="ignore"):
            out = 1.0 / np.abs(u).sum(axis=-1)
        for k in late:
            out[np.all(u == k, axis=-1)] = np.nan
        return out

    kernel = Kernel("late_nan", dim, fn, translation_invariant=True)
    k = np.array(late[0])
    x = tuple(float(v) + 0.5 for v in np.maximum(k, 0))
    y = tuple(float(v) + 0.5 for v in np.maximum(-k, 0))
    want = f"kernel 'late_nan' evaluated non-finite at x={x}, y={y}"
    for slab in (operators._SLAB_CELLS, 381):
        monkeypatch.setattr(operators, "_SLAB_CELLS", slab)
        with pytest.raises(NumericError) as err:
            operators._offset_lattice(kernel, grid)
        assert str(err.value) == want


def test_undeclared_kernels_keep_their_results():
    grid = Grid(1, 16, phys_side=2.0)
    f = GridFunction(grid, rng(8).normal(size=grid.shape))
    y_only = Kernel("y_only", 1, lambda x, y: np.sin(y[..., 0]) + 0.0 * x[..., 0])
    assert operators._offset_lattice(y_only, grid) is None
    want = loop_transform(y_only, f, np.ones(16, bool), np.ones(16, bool))
    np.testing.assert_allclose(apply_restricted(y_only, f).values, want, atol=1e-12)
    np.testing.assert_allclose(RestrictedTransform(y_only, f).full(), want, atol=1e-12)
    bad = Kernel("bad", 1, lambda x, y: 1.0 / (x[..., 0] - y[..., 0] - 1.0))
    with pytest.raises(NumericError, match="x=.*y="):
        RestrictedTransform(bad, GridFunction(Grid(1, 4, phys_side=4.0), np.ones(4)))


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim,n,name", [(1, 64, "hilbert"), (2, 16, "riesz2d")])
def test_batched_dilate_transforms_equal_single_cube_calls(dim, n, name,
                                                           complex_values):
    # a cover cube's level blocks hand their nodes these values, so the
    # builder's output does not depend on whether a cube's transform came
    # alone or in a block
    grid = Grid(dim, n)
    g = rng(37)
    vals = g.normal(size=grid.shape)
    if complex_values:
        vals = vals + 1j * g.normal(size=grid.shape)
    fft = LatticeTransform(make_kernel(name, grid), GridFunction(grid, vals), 3)
    for side, start in ((1, 0), (2, 0), (3, -2), (4, -2), (6, -5), (8, 4)):
        count = (n - start + side - 1) // side
        block = _dilate_transforms(fft, (start,) * dim, (count,) * dim, side)
        origin = (max(start, 0),) * dim
        for k in itertools.product(range(count), repeat=dim):
            cube = Cube(tuple(start + side * i for i in k), side)
            one = _dilate_transforms(fft, cube.anchor, (1,) * dim, side)
            got = block[sparse._box_slices(cube.window_clip(grid), origin)]
            assert got.dtype == one.dtype and got.tobytes() == one.tobytes(), cube


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("where", ["centred", "corner"])
@pytest.mark.parametrize("dim,n,name", [(1, 256, "hilbert"), (2, 32, "riesz2d")])
def test_zero_source_cubes_are_skipped(monkeypatch, dim, n, name, where, complex_values):
    # a cube whose dilate meets no nonzero value of f is summed neither
    # directly nor by FFT: it gets +0.0, bit for bit, and every other cube
    # the bits of a call of its own, on sides summed directly and by FFT
    grid = Grid(dim, n)
    g = rng(41)
    vals = np.zeros(grid.shape)
    box = ((slice(n // 4, 3 * n // 4),) if where == "centred" else (slice(0, n // 8),)) * dim
    vals[box] = g.random(vals[box].shape) + 0.25
    if complex_values:
        vals = vals * np.exp(2j * np.pi * g.random(grid.shape))
    fft = LatticeTransform(make_kernel(name, grid), GridFunction(grid, vals), 3)
    methods = set()
    for method in ("_convolved", "_summed"):
        def recorded(self, segment, src, side, _call=getattr(LatticeTransform, method),
                     _name=method):
            # every source handed on holds a nonzero value
            assert src.reshape(-1, (3 * side) ** dim).any(axis=1).all()
            methods.add(_name)
            return _call(self, segment, src, side)

        monkeypatch.setattr(LatticeTransform, method, recorded)
    skipped = 0
    for side, start in ((1, 0), (2, 0), (4, -2), (8, 4), (n // 4, 0), (n // 2, -n // 2)):
        count = (n - start + side - 1) // side
        block = _dilate_transforms(fft, (start,) * dim, (count,) * dim, side)
        origin = (max(start, 0),) * dim
        for kk in itertools.product(range(count), repeat=dim):
            cube = Cube(tuple(start + side * i for i in kk), side)
            clip = cube.window_clip(grid)
            if clip is None:
                continue
            got = block[sparse._box_slices(clip, origin)]
            if not vals[sparse._box_slices(dilate(cube, 3).window_clip(grid))].any():
                skipped += 1
                assert got.tobytes() == np.zeros_like(got).tobytes(), cube
                continue
            one = _dilate_transforms(fft, cube.anchor, (1,) * dim, side)
            assert got.dtype == one.dtype and got.tobytes() == one.tobytes(), cube
            # and it was summed: the direct sum over its dilate, to rounding
            want = apply_restricted(fft.kernel, GridFunction(grid, vals), targets=cube,
                                    source=dilate(cube, 3)).values[sparse._box_slices(clip)]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), cube
    assert skipped > 0 and methods == {"_convolved", "_summed"}


# ---------------------------------------------------------------------------
# memory preflight

def test_table_estimate_counts_table_and_product():
    # the table and the lattice with its reversed copy, or without a
    # lattice the dense weights
    for grid, name in ((Grid(1, 32), "hilbert"), (Grid(2, 8), "riesz2d")):
        k = make_kernel(name, grid)
        rt = RestrictedTransform(k, GridFunction(grid, np.ones(grid.shape)))
        lattice = 2 * operators._offset_lattice(k, grid).nbytes
        product = 8 * grid.n_cells**2
        assert operators._table_bytes(grid, False, False) == rt._sat.nbytes + lattice
        assert operators._table_bytes(grid, True, False) == 2 * rt._sat.nbytes + lattice
        assert operators._table_bytes(grid, False, True) == rt._sat.nbytes + product
        assert operators._table_bytes(grid, True, True) == 2 * (rt._sat.nbytes + product)
    # 2D n = 128: about 2.2 GB with a lattice, 4.3 GB without
    assert operators._table_bytes(Grid(2, 128), False, False) == (
        128**2 * 129**2 * 8 + 2 * 255**2 * 8)
    assert operators._table_bytes(Grid(2, 128), False, True) == (
        128**2 * 129**2 * 8 + 128**4 * 8)


def test_table_estimate_counts_dense_weights_only_without_a_lattice(monkeypatch):
    # 1D N = 1024 with physical memory at 1.5 times the table: the dense
    # weights (8 MB more) refused a lattice kernel's sweep, which never
    # builds them
    def untouchable(x, y):
        pytest.fail("the kernel must not be evaluated for a refused table")

    grid = Grid(1, 1024)
    f = make_input(grid, "random", seed=7)
    # on top of 64 MiB held (every check counts what the process holds)
    monkeypatch.setattr(operators, "_resident_memory", lambda: 2**26)
    monkeypatch.setattr(operators, "_physical_memory",
                        lambda: 2**26 + 3 * 1024 * 1025 * 8 // 2)
    assert sharp_truncated(make_kernel("hilbert", grid), f).values.shape == grid.shape
    dense = Kernel("untouchable", 1, untouchable)
    with pytest.raises(ParameterError, match="transform table.*16.0 MiB on top of the 64.0 MiB"):
        sharp_truncated(dense, f)


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim,n,name", [(1, 1024, "hilbert"), (2, 32, "riesz2d")])
def test_table_build_holds_only_the_table(dim, n, name, complex_values):
    # K h**dim f is written into the table and summed there, so the build
    # holds no product of n**(2 dim) entries (8 MB real here) beside it
    grid = Grid(dim, n)
    vals = rng(5).normal(size=grid.shape)
    if complex_values:
        vals = vals * (1 + 1j)
    k = make_kernel(name, grid)
    lat = operators._offset_lattice(k, grid)
    tracemalloc.start()
    try:
        rt = RestrictedTransform(k, GridFunction(grid, vals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lattice, its reversed copy, and 1 MiB for numpy's ufunc buffers
    assert peak <= rt._sat.nbytes + 2 * lat.nbytes + 2**20


def test_table_refused_before_allocation(monkeypatch):
    def untouchable(x, y):
        pytest.fail("the kernel must not be evaluated for a refused table")

    monkeypatch.setattr(operators, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(operators, "_resident_memory", lambda: 0)
    grid = Grid(1, 1024)
    k = Kernel("untouchable", 1, untouchable, translation_invariant=True)
    with pytest.raises(ParameterError, match="needs about 8.0 MiB, more than the 1.0 MiB"):
        RestrictedTransform(k, GridFunction(grid, np.ones(grid.shape)))
    # small tables still build; an unknown memory size checks nothing
    RestrictedTransform(make_kernel("hilbert"), GridFunction(Grid(1, 64), np.ones(64)))
    monkeypatch.setattr(operators, "_physical_memory", lambda: None)
    RestrictedTransform(make_kernel("hilbert"), GridFunction(grid, np.ones(grid.shape)))


def test_lattice_run_estimate_counts_padding_batch_lattice_and_pairs():
    # the build's estimate, 1D N = 64 at alpha 3, nodes of side N: the
    # lattice, a slab of 6 arrays of 2**16 points (more than one cube's
    # 4 * 32 of the first level), a cover side's 7 kept transforms (itself
    # and levels 32 .. 1) and 6 running maxima (sides 64 .. 2) on N cells,
    # the prefix table of |f|**s; the verifier's arrays are its own
    # estimate's
    def build_bytes(grid, side, is_complex=False, kernel=make_kernel("hilbert")):
        f = GridFunction(grid, np.ones(grid.shape, complex if is_complex else float))
        return sparse._build_bytes(kernel, f, 3, side)

    want = (127 + 6 * 2**16 + (7 + 6) * 64 + 65) * 8
    assert build_bytes(Grid(1, 64), 64) == want
    complex_want = 127 * 8 + 6 * 2**16 * 16 + 7 * 64 * 16 + 6 * 64 * 8 + 65 * 8
    assert build_bytes(Grid(1, 64), 64, True) == complex_want
    # nodes of side 81 (a far ring of the cover): one cube is still below
    # the slab; it keeps 2 transforms (itself and single cells) and 1
    # running maximum on at most the N window cells
    wide = (127 + 6 * 2**16 + (2 + 1) * 64 + 65) * 8
    assert build_bytes(Grid(1, 64), 81) == wide
    # without a lattice, a block of 2**22 pairs of its direct sums instead
    assert build_bytes(Grid(1, 64), 64, kernel=_dense(make_kernel("hilbert"))) == (
        want + (2**22 - 127) * 8)
    # 1D N = 16384, nodes of side N: the node pass's batch, 2**16 cells but
    # no more than the 3 cover cubes' 49152, at 2 transforms and 8 words a
    # cell, outgrows the slab; 15 transforms and 14 maxima
    assert build_bytes(Grid(1, 16384), 16384) == (
        (32767 + 16385 + 29 * 16384) * 8 + 80 * 49152)
    # 2D n = 128, nodes of side n: the first level's slab, 6 arrays of
    # (4 * 64)**2 = 2**16 points, is below the node pass's batch of 2**16
    # cells at 10 words a cell; about 8 MB
    riesz = make_kernel("riesz2d")
    big = build_bytes(Grid(2, 128), 128, kernel=riesz)
    assert big == (255**2 + (8 + 7) * 128**2 + 129**2) * 8 + 80 * 2**16
    assert big < operators._table_bytes(Grid(2, 128), False, True) / 250
    # at 2D n = 2048 the first level's slab, 6 arrays of (4 * 512)**2
    # points, outgrows the batch, next to 11 transforms and 10 maxima
    assert build_bytes(Grid(2, 2048), 1024, kernel=riesz) == (
        (4095**2 + 6 * 2048**2 + 21 * 2048**2 + 2049**2) * 8)
    # a complex f at 2D n = 128, nodes of side 64: the batch of 36864
    # cells (the 9 cover cubes) at 2 complex transforms and 8 words a
    # cell, and the pairwise block of an oscillation on a level cube of
    # 32**2 cells, 512 rows of complex differences and their moduli
    assert build_bytes(Grid(2, 128), 64, True, riesz) == (
        (255**2 + 129**2 + 6 * 128**2) * 8 + 7 * 128**2 * 16
        + 96 * 192**2 + 24 * 512 * 32**2)
    # a complex f at 2D n = 512, nodes of side 256: level cubes of 128**2
    # cells, above 4096, so the pairwise block is at its cap of 2**21
    # differences, next to eight words a cell for the copy of the cube's
    # values, its projections and the candidates they keep
    assert build_bytes(Grid(2, 512), 256, True, riesz) == (
        (1023**2 + 513**2) * 8 + (9 * 16 + 8 * 8) * 512**2
        + 96 * 2**16 + 24 * 2**21 + 64 * 128**2)
    # one cell in the corner of 2D n = 1024: the ring sides are odd (up to
    # 729), so a side keeps 2 transforms and 1 maximum and its levels are
    # single cells; the window transform, the kernel segment and 3 arrays
    # of 2048**2 points, is the largest phase
    assert build_bytes(Grid(2, 1024), 729, kernel=riesz) == (
        (2047**2 + 1025**2) * 8 + (8 + 3 * 8) * 2048**2)
    # the domination check's: the lattice, the stack and bound throughout,
    # then the larger phase: its FFT, 3 arrays of 2n points per axis at the
    # entry size (rfftn half-spectra for a real input) and the window values
    # it returns, or the re-sum with those values and their moduli, its
    # reversed lattice copy, its block of all N**2 pairs (real also for a
    # complex input, whose parts it multiplies in turn), and f on the
    # sources with the targets' rows, cells and sums, 8 * dim + 8 + 2 times
    # the entry size a cell; in 1D the re-sum is the larger phase
    assert verify._domination_bytes(Grid(1, 64), False) == (
        127 * 8 + 16 * 64 + 127 * 8 + 64 * 64 * 8 + 48 * 64)
    assert verify._domination_bytes(Grid(1, 64), True) == (
        127 * 8 + 16 * 64 + 127 * 8 + 64 * 64 * 8 + 72 * 64)
    # at 2D n = 128 the re-sum's block of 256 rows, 2**22 pairs
    assert verify._domination_bytes(Grid(2, 128), False) == (
        255**2 * 8 + 16 * 128**2 + 255**2 * 8 + 2**22 * 8 + 56 * 128**2)
    # at 2D n = 1024 the FFT's 3 arrays of 2048**2 points are the larger
    # phase for a complex input, its re-sum for a real one
    assert verify._domination_bytes(Grid(2, 1024), True) == (
        2047**2 * 8 + 16 * 1024**2 + 3 * 16 * 2048**2 + 16 * 1024**2)
    assert verify._domination_bytes(Grid(2, 1024), False) == (
        2047**2 * 8 + 16 * 1024**2 + 2047**2 * 8 + 2**22 * 8 + 56 * 1024**2)
    # at 2D n = 2048 a whole group of 4 rows against all 2**22 cells
    assert verify._domination_bytes(Grid(2, 2048), False) == (
        4095**2 * 8 + 16 * 2048**2 + 4095**2 * 8 + 4 * 2048**2 * 8 + 56 * 2048**2)
    # a node of side n, the largest call, stays inside the slab term
    grid = Grid(2, 16)
    f = GridFunction(grid, rng(2).normal(size=grid.shape))
    fft = LatticeTransform(make_kernel("riesz2d", grid), f, 5)
    tracemalloc.start()
    try:
        _dilate_transforms(fft, (0, 0), (1, 1), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (6 * 16) ** 2 * 8


def _traced_peak(call):
    """``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_run_estimate_holds_for_a_corner_support(monkeypatch):
    # one cell at the origin: the cover's last ring cubes have side 81,
    # wider than the window, and the build pads f and runs FFTs for them;
    # each phase stays inside its own estimate
    grid = Grid(2, 64)
    vals = np.zeros(grid.shape)
    vals[0, 0] = 1.0
    f = GridFunction(grid, vals)
    k = make_kernel("riesz2d", grid)
    side = max(c.side for c in sparse.partition_cover(grid, sparse.support_box(f), 3))
    assert side == 81
    res, build_peak = _traced_peak(lambda: sparse.build_sparse_domination(k, f))
    assert build_peak <= sparse._build_bytes(k, f, 3, side)
    report, check_peak = _traced_peak(lambda: check_domination(k, f, res.family))
    assert report.passed and check_peak <= verify._domination_bytes(grid, f.is_complex)
    # spikes on the default support: the nine cover cubes grow as one
    # batch on their box, the whole cube, and the largest batch of the node
    # pass, 13 nodes of side 8, comes at depth 1 (as large as any later, in
    # nodes); the build stays inside its estimate
    f = make_input(grid, "spikes", seed=15)
    node_batch, batches = sparse._node_batch, []

    def recorded(levels, grid_, nodes, *args):
        batches.append((len(nodes), args[1], nodes[0].cube.side))
        return node_batch(levels, grid_, nodes, *args)

    monkeypatch.setattr(sparse, "_node_batch", recorded)
    side = max(c.side for c in sparse.partition_cover(grid, sparse.support_box(f), 3))
    _, build_peak = _traced_peak(lambda: sparse.build_sparse_domination(k, f))
    assert (9, 0, 32) in batches
    assert max(nodes for nodes, _, _ in batches) == 13 and (13, 1, 8) in batches
    assert build_peak <= sparse._build_bytes(k, f, 3, side)


def test_domination_estimate_is_tight_for_a_real_input():
    # 2D riesz2d, random f: the check holds its FFT's arrays and its
    # re-sum's at different times, and its estimate counts only the larger
    # of the two phases on top of what it holds throughout; the traced peak
    # (57 and 144 MiB for a real f at n = 512 and 1024) stays at or below
    # the estimate (66 and 168 MiB), within 1.3 times it for a real f.  A
    # complex f with the same values takes the complex FFT and re-sums its
    # two parts, and stays at or below its own estimate
    for n in (512, 1024):
        grid = Grid(2, n)
        k = make_kernel("riesz2d", grid)
        f = make_input(grid, "random", seed=7)
        fam = sparse.build_sparse_domination(k, f).family
        report, peak = _traced_peak(lambda: check_domination(k, f, fam))
        need = verify._domination_bytes(grid, False)
        assert report.passed and peak <= need <= 1.3 * peak, (n, peak, need)
        g = GridFunction(grid, f.values * (1 + 0j))
        report, peak = _traced_peak(lambda: check_domination(k, g, fam))
        assert report.passed and peak <= verify._domination_bytes(grid, True), (n, peak)


@pytest.mark.parametrize("dim,n,name", [(1, 4096, "hilbert"), (2, 64, "riesz2d"),
                                        (2, 128, "riesz2d")])
def test_lattice_run_estimate_holds_for_the_kept_levels(monkeypatch, dim, n, name):
    # the default support and its ring of cover cubes share a side, and
    # hold a transform per level, and a running maximum for every side
    # above one, on the window cells they meet while their nodes recurse;
    # the build and the check, traced apart, stay inside their estimates
    grid = Grid(dim, n)
    f = make_input(grid, "random", seed=7)
    k = make_kernel(name, grid)
    side = max(c.side for c in sparse.partition_cover(grid, sparse.support_box(f), 3))
    levels = len(list(sparse._levels(side)))
    kept_term = (2 * levels + 1) * min(3 * side, n) ** dim * 8
    side_levels = sparse._side_levels
    kept = []

    def counted(*args):
        data = side_levels(*args)
        kept.append(data.transforms.nbytes + data.maxima.nbytes)
        return data

    monkeypatch.setattr(sparse, "_side_levels", counted)
    res, build_peak = _traced_peak(lambda: sparse.build_sparse_domination(k, f))
    assert max(r.depth for r in res.records) > 1
    assert len(kept) == 1 and max(kept) <= kept_term
    assert build_peak <= sparse._build_bytes(k, f, 3, side)
    report, check_peak = _traced_peak(lambda: check_domination(k, f, res.family))
    assert report.passed and check_peak <= verify._domination_bytes(grid, f.is_complex)


def test_lattice_run_estimate_holds_for_complex_node_batches(monkeypatch):
    # a random phase on 2D riesz2d n = 128: the nodes of side 64 take the
    # diameters of their level cubes' complex values, pairwise in blocks of
    # 512 rows against up to 32**2 values; traced through each batch of the
    # node pass, and over the whole build, the build stays inside its
    # estimate
    grid = Grid(2, 128)
    vals = make_input(grid, "random", seed=7).values
    f = GridFunction(grid, vals * np.exp(2j * np.pi * rng(7).random(grid.shape)))
    k = make_kernel("riesz2d", grid)
    side = max(c.side for c in sparse.partition_cover(grid, sparse.support_box(f), 3))
    assert side == 64
    node_batch, peaks = sparse._node_batch, []

    def traced(*args):
        tracemalloc.reset_peak()
        out = node_batch(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(sparse, "_node_batch", traced)
    _, build_peak = _traced_peak(lambda: sparse.build_sparse_domination(k, f))
    need = sparse._build_bytes(k, f, 3, side)
    # the blocks of the first level's diameters alone are 12.6 MB
    assert max(peaks) > 24 * 512 * 32**2
    assert max(peaks) <= need and build_peak <= need


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="resident memory is read on Linux only")
def test_resident_memory_is_current_not_peak(monkeypatch):
    before = operators._resident_memory()
    # 64 MiB, every page touched: above glibc's largest mmap threshold
    # (32 MiB), so fresh pages even after larger blocks were freed
    block = np.ones(2**23)
    held = operators._resident_memory()
    del block
    after = operators._resident_memory()
    assert held - before >= 2**24
    assert held - after >= 2**24                  # a peak would not fall
    # where the platform says nothing, nothing is counted
    def no_file(*args, **kwargs):
        raise OSError("no such file")

    monkeypatch.setattr("builtins.open", no_file)
    assert operators._resident_memory() == 0


def test_build_refused_before_sampling(monkeypatch):
    def untouchable(x, y):
        pytest.fail("the kernel must not be evaluated for a refused run")

    grid = Grid(1, 1024)
    f = GridFunction(grid, np.ones(grid.shape))
    k = Kernel("untouchable", 1, untouchable, translation_invariant=True)
    # the support is the window, so the cover is the window alone
    need = sparse._build_bytes(k, f, 3, 1024)
    monkeypatch.setattr(operators, "_resident_memory", lambda: 2**20)
    # what the process holds counts: one byte short refuses
    monkeypatch.setattr(operators, "_physical_memory", lambda: need + 2**20 - 1)
    with pytest.raises(ParameterError, match=r"the build on a 1D grid with 1024 cells "
                       r"per side needs about 3\.\d MiB on top of the 1\.0 MiB this "
                       r"process holds, more than the 4\.\d MiB of physical memory"):
        sparse.build_sparse_domination(k, f)
    monkeypatch.setattr(operators, "_physical_memory", lambda: need + 2**20)
    sparse.build_sparse_domination(make_kernel("hilbert"), f)
    # an unknown memory size checks nothing
    monkeypatch.setattr(operators, "_physical_memory", lambda: None)
    sparse.build_sparse_domination(make_kernel("hilbert"), f)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="resident memory is read on Linux only")
def test_refusals_name_every_size_in_a_unit_it_fills(monkeypatch):
    # a small refusal read "needs about 0.0 GiB, more than the 0.0 GiB":
    # 1D N = 1024, physical memory at 12.6 MB, the table 8.0 MiB
    grid = Grid(1, 1024)
    f = make_input(grid, "random", seed=7)
    monkeypatch.setattr(operators, "_physical_memory", lambda: 12_600_000)
    with pytest.raises(ParameterError) as err:
        sharp_truncated(make_kernel("hilbert", grid), f)
    sizes = re.findall(r"(\d+\.\d) (B|KiB|MiB|GiB|TiB)\b", str(err.value))
    assert "needs about 8.0 MiB on top of the" in str(err.value)
    assert "this process holds, more than the 12.0 MiB of physical memory" in str(err.value)
    assert len(sizes) == 3 and all(float(v) >= 1 for v, _ in sizes)
    assert [operators._size(b) for b in (0, 1023, 1024, 1536 * 2**20, 2**30, 2**52)] == [
        "0.0 B", "1023.0 B", "1.0 KiB", "1.5 GiB", "1.0 GiB", "4096.0 TiB"]


def test_lattice_transform_sums_directly_without_a_lattice():
    # the flag alone decides, also on a window of length 0.1
    fft = LatticeTransform(make_kernel("hilbert"),
                           GridFunction(Grid(1, 16, phys_side=0.1), np.ones(16)), 3)
    assert fft._lat is not None
    # without it each cube is the direct sum over its dilate, bit for bit,
    # for real and complex f, in 1D and in 2D
    for grid, name in ((Grid(1, 16), "hilbert"), (Grid(2, 8), "riesz2d")):
        k = _dense(make_kernel(name, grid))
        g = rng(3)
        n, dim = grid.cells_per_side, grid.dim
        for vals in (g.normal(size=grid.shape),
                     g.normal(size=grid.shape) + 1j * g.normal(size=grid.shape)):
            f = GridFunction(grid, vals)
            direct = LatticeTransform(k, f, 3)
            assert direct._lat is None
            # cubes of side 2 from -2 to n + 2 per axis: some stick out
            got = _dilate_transforms(direct, (-2,) * dim, (n // 2 + 2,) * dim, 2)
            assert got.dtype == vals.dtype and got.shape == grid.shape
            for a in itertools.product(range(-2, n + 2, 2), repeat=dim):
                cube = Cube(a, 2)
                want = apply_restricted(k, f, targets=cube, source=dilate(cube, 3)).values
                sl = tuple(slice(max(v, 0), v + 2) for v in a)
                assert np.array_equal(got[sl], want[sl])
    with pytest.raises(ParameterError, match="dim"):
        LatticeTransform(make_kernel("riesz2d"), GridFunction(Grid(1, 16), np.ones(16)), 3)


# ---------------------------------------------------------------------------
# FFT transforms against the prefix table

GATE_GRIDS = ([(1, 512, k) for k in ("hilbert", "holder", "dini_stress", "zero")]
              + [(2, 32, k) for k in ("riesz2d", "zero")])


def _gate_nodes(n, dim):
    """Node cubes: the window, inside it, sticking out on either side, an
    odd-split side (levels 6, 3, then single cells) and one wider than the
    window, as a far ring of the cover makes."""
    sides_anchors = [(n, 0), (n // 2, n // 4), (n // 4, -n // 8),
                     (n // 4, n - n // 8), (12, n // 2 - 5), (3 * n // 2, -n // 2)]
    return [Cube((a,) * dim, m) for m, a in sides_anchors]


def _table_dilate_transforms(table, start, count, side, shift):
    """``dilate_transforms`` from the prefix table: one ``apply_box`` with
    each window cell of the block's box against its own cube's dilate."""
    grid = table.grid
    n, dim = grid.cells_per_side, grid.dim
    cells, bounds = [], []
    for d, (a, c) in enumerate(zip(start, count)):
        x = np.arange(max(a, 0), min(a + side * c, n))
        lo = a + ((x - a) // side - shift) * side
        shape = (1,) * d + (-1,) + (1,) * (dim - 1 - d)
        cells.append(x)
        bounds.append((lo.reshape(shape), (lo + (2 * shift + 1) * side).reshape(shape)))
    rows = np.arange(grid.n_cells).reshape(grid.shape)[np.ix_(*cells)]
    return table.apply_box(rows, tuple(bounds))


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("alpha", [3, 5])
@pytest.mark.parametrize("dim,n,name", GATE_GRIDS)
def test_fft_dilate_transforms_match_table(dim, n, name, alpha, complex_values):
    grid = Grid(dim, n)
    g = rng(31 + n)
    vals = g.normal(size=grid.shape)
    if complex_values:
        vals = vals + 1j * g.normal(size=grid.shape)
    f = GridFunction(grid, vals)
    k = make_kernel(name, grid)
    nodes = _gate_nodes(n, dim)
    fft = LatticeTransform(k, f, alpha)
    table = RestrictedTransform(k, f)
    shift = (alpha - 1) // 2
    sides = set()
    for q in nodes:
        clip = q.window_clip(grid)
        # the node's own dilate, then every level of cubes the stopping time
        # can select below it, as the builder asks for them
        blocks = [(q.anchor, (1,) * dim, q.side)]
        for p in sparse._levels(q.side):
            first = [(lo - a) // p for (lo, _), a in zip(clip, q.anchor)]
            last = [(hi - 1 - a) // p for (_, hi), a in zip(clip, q.anchor)]
            blocks.append(([a + p * b for a, b in zip(q.anchor, first)],
                           [b - a + 1 for a, b in zip(first, last)], p))
        for start, count, side in blocks:
            got = _dilate_transforms(fft, start, count, side)
            want = _table_dilate_transforms(table, start, count, side, shift)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.shape == tuple(hi - lo for lo, hi in clip)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (q, side)
            sides.add(side)
    assert {1, 3, 6, n // 2, 3 * n // 2} <= sides
