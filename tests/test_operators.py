"""Kernel application, transposition, and kernel statistics."""

import math

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
    RestrictedTransform,
    apply_restricted,
    dini_constant,
    dini_profile,
    hormander_constant,
    make_kernel,
    transpose_kernel,
)


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
    got = apply_restricted(k, f, source=CellSet.from_window_mask(grid, sm))
    want = loop_transform(k, f, tm, sm)
    np.testing.assert_allclose(got.values, want, atol=1e-12)


def test_matches_loop_oracle_2d():
    grid = Grid(2, 4, phys_side=1.0)
    g = rng(11)
    f = GridFunction(grid, g.normal(size=grid.shape))
    k = make_kernel("riesz2d")
    sm = g.random(grid.shape) < 0.5
    got = apply_restricted(k, f, source=CellSet.from_window_mask(grid, sm))
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
    part_a = apply_restricted(k, f, source=CellSet.from_window_mask(grid, split))
    part_b = apply_restricted(k, f, source=CellSet.from_window_mask(grid, ~split))
    whole = apply_restricted(k, f)
    np.testing.assert_allclose(part_a.values + part_b.values, whole.values, atol=1e-12)


def test_empty_source_and_empty_targets():
    grid = Grid(1, 8)
    f = GridFunction(grid, np.ones(grid.shape))
    k = make_kernel("hilbert")
    assert np.all(apply_restricted(k, f, source=CellSet.empty(grid)).values == 0.0)
    assert np.all(apply_restricted(k, f, targets=CellSet.empty(grid)).values == 0.0)


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
    rows = rt.row_index(cells)
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
    assert dini_constant(lambda t: t) == pytest.approx(1.0, rel=0.01)


def test_dini_closed_form_sqrt():
    # integral of sqrt(t)/t over (0,1) is exactly 2
    assert dini_constant(np.sqrt) == pytest.approx(2.0, rel=0.01)


def test_dini_divergent_single_log_flagged():
    val = dini_constant(lambda t: 1.0 / (1.0 + np.log(1.0 / t)))
    assert math.isinf(val)


def test_dini_constant_flagged_divergent():
    assert math.isinf(dini_constant(lambda t: np.ones_like(np.asarray(t))))


def test_dini_square_log_converges():
    prof = dini_profile(lambda t: 1.0 / (1.0 + np.log(1.0 / t)) ** 2)
    assert not prof["divergent"]
    assert 0.9 < prof["value"] < 1.1  # exact antiderivative gives 1


def test_dini_of_catalog_kernels():
    grid = Grid(1, 64)
    assert dini_constant(make_kernel("hilbert").modulus) == pytest.approx(2.0, rel=0.01)
    assert math.isfinite(dini_constant(make_kernel("dini_stress", grid).modulus))
    hold = make_kernel("holder", grid, delta=0.5)
    assert dini_constant(hold.modulus) == pytest.approx(2.0 * (3.0 + 2.0 * np.pi), rel=0.01)


def test_dini_rejects_bad_cutoff():
    with pytest.raises(ParameterError):
        dini_profile(lambda t: t, t_min=2.0)


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

def test_hormander_zero_for_x_independent_kernel():
    grid = Grid(1, 16)
    k = Kernel("y_only", 1, lambda x, y: np.sin(y[..., 0]) + 0.0 * x[..., 0])
    est = hormander_constant(k, 2.0, grid, k_max=6)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_hormander_nondecreasing_in_exponent():
    grid = Grid(1, 16)
    k = make_kernel("hilbert")
    v1 = hormander_constant(k, 1.0, grid, k_max=8).value
    v2 = hormander_constant(k, 2.0, grid, k_max=8).value
    vinf = hormander_constant(k, math.inf, grid, k_max=8).value
    assert v1 <= v2 * (1 + 1e-12) <= vinf * (1 + 1e-12)
    assert vinf > 0


def test_hormander_tail_small_for_smooth_kernel():
    grid = Grid(1, 16)
    est = hormander_constant(make_kernel("hilbert"), math.inf, grid, k_max=16)
    assert est.tail < 1e-3 * est.value


def test_hormander_scale_stability():
    k = make_kernel("hilbert")
    a = hormander_constant(k, math.inf, Grid(1, 16), k_max=10).value
    b = hormander_constant(k, math.inf, Grid(1, 32), k_max=10).value
    assert abs(a - b) <= 0.5 * max(a, b)


def test_hormander_coarsening_kicks_in():
    grid = Grid(1, 16)
    est = hormander_constant(make_kernel("hilbert"), 2.0, grid, k_max=14, cell_cap=256)
    assert est.coarsened
    fine = hormander_constant(make_kernel("hilbert"), 2.0, grid, k_max=14, cell_cap=2**18)
    assert est.value == pytest.approx(fine.value, rel=0.05)


def test_hormander_2d_runs():
    grid = Grid(2, 16)
    est = hormander_constant(make_kernel("riesz2d"), math.inf, grid, k_max=4)
    assert est.value > 0 and math.isfinite(est.value)


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
