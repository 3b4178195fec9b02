"""Geometry layer: cubes, integrals, averages, gauges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedom import (
    AlignmentError,
    CellSet,
    Cube,
    Grid,
    GridFunction,
    LeafCubeError,
    ParameterError,
    ValidationError,
    YoungFunction,
    avg_p,
    cube_integral,
    dilate,
    dyadic_children,
    orlicz_avg,
)
from sparsedom.inputs import make_input


def grid1d(n=8, length=None):
    return Grid(1, n, float(length if length is not None else n))


def grid2d(n=8, length=None):
    return Grid(2, n, float(length if length is not None else n))


# ---------------------------------------------------------------------------
# construction and validation

def test_grid_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        Grid(3, 8, 1.0)
    with pytest.raises(ParameterError):
        Grid(1, 12, 1.0)
    with pytest.raises(ParameterError):
        Grid(1, 8, 0.0)


def test_cell_width():
    g = Grid(1, 8, 2.0)
    assert g.cell_width == 0.25
    assert g.cell_measure == 0.25


def test_cube_rejects_zero_side():
    with pytest.raises(ParameterError):
        Cube((0,), 0)


# ---------------------------------------------------------------------------
# dilation

def test_dilate_example():
    q = dilate(Cube((4,), 2), 3)
    assert q == Cube((2,), 6)


def test_dilate_even_factor_rejected():
    with pytest.raises(AlignmentError):
        dilate(Cube((4,), 2), 2)


def test_dilate_identity():
    q = Cube((3, -1), 5)
    assert dilate(q, 1) == q


def test_dilate_2d():
    q = dilate(Cube((0, 4), 2), 5)
    assert q == Cube((-4, 0), 10)


@given(
    anchor=st.integers(-32, 32),
    side=st.integers(1, 16),
    a=st.sampled_from([1, 3, 5, 7]),
    b=st.sampled_from([1, 3, 5]),
)
@settings(max_examples=200, deadline=None)
def test_dilate_composition(anchor, side, a, b):
    q = Cube((anchor,), side)
    assert dilate(dilate(q, a), b) == dilate(q, a * b), f"failed for {q}, {a}, {b}"


def test_dilate_preserves_containment():
    inner, outer = Cube((3,), 2), Cube((0,), 8)
    assert outer.contains(inner)
    assert dilate(outer, 3).contains(dilate(inner, 3))


# ---------------------------------------------------------------------------
# children

def test_dyadic_children_1d():
    assert dyadic_children(Cube((4,), 4)) == [Cube((4,), 2), Cube((6,), 2)]


def test_dyadic_children_2d_count():
    kids = dyadic_children(Cube((0, 0), 4))
    assert len(kids) == 4
    assert Cube((2, 2), 2) in kids


def test_single_cell_has_no_children():
    with pytest.raises(LeafCubeError):
        dyadic_children(Cube((0,), 1))


def test_odd_side_split_rejected():
    with pytest.raises(AlignmentError):
        dyadic_children(Cube((0,), 3))


# ---------------------------------------------------------------------------
# integrals and averages

def test_cube_integral_constant():
    g = grid1d(8)
    f = GridFunction(g, np.full(8, 2.0))
    assert cube_integral(f, Cube((2,), 4), 1.0) == pytest.approx(8.0)


def test_cube_integral_power():
    g = grid1d(4)
    f = GridFunction(g, np.array([1.0, 2.0, 3.0, 4.0]))
    assert cube_integral(f, Cube((0,), 4), 2.0) == pytest.approx(30.0)


def test_avg_p_examples():
    g = grid1d(4)
    f = GridFunction(g, np.array([0.0, 0.0, 3.0, 0.0]))
    q = Cube((0,), 4)
    assert avg_p(f, q, 1.0) == pytest.approx(0.75)
    assert avg_p(f, q, 2.0) == pytest.approx(1.5)


def test_integral_outside_window_is_zero():
    g = grid1d(4)
    f = GridFunction(g, np.ones(4))
    assert cube_integral(f, Cube((-4,), 4), 1.0) == 0.0
    # straddling cube: window part integrates, full measure normalizes
    assert avg_p(f, Cube((-2,), 4), 1.0) == pytest.approx(0.5)


def test_children_additivity_exact_on_dyadic_values():
    # dyadic-rational cell values make every prefix sum exact in binary
    g = grid1d(16)
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.integers(0, 64, size=16).astype(np.float64) / 8.0)
    q = Cube((4,), 8)
    total = sum(cube_integral(f, c, 1.0) for c in dyadic_children(q))
    assert total == cube_integral(f, q, 1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_children_additivity_random(seed):
    g = grid2d(8)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=(8, 8)))
    q = Cube((2, 2), 4)
    total = sum(cube_integral(f, c, 1.0) for c in dyadic_children(q))
    ref = cube_integral(f, q, 1.0)
    assert total == pytest.approx(ref, abs=1e-12, rel=1e-12)


@given(
    seed=st.integers(0, 10_000),
    p=st.floats(0.5, 4.0),
    q=st.floats(0.5, 4.0),
)
@settings(max_examples=100, deadline=None)
def test_avg_p_holder_monotone(seed, p, q):
    p, q = min(p, q), max(p, q)
    g = grid1d(16)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=16))
    cube = Cube((int(rng.integers(-4, 12)),), int(rng.integers(1, 9)))
    lo, hi = avg_p(f, cube, p), avg_p(f, cube, q)
    assert lo <= hi * (1 + 1e-12), f"avg_{p} > avg_{q} on {cube}"


def test_avg_p_holder_monotone_on_a_small_cell_after_large_ones():
    # a case the Hypothesis search above once found: as a difference of
    # prefix sums, the p = 4 average of this cell lost its last ten digits
    g = grid1d(16)
    f = GridFunction(g, np.random.default_rng(1152).normal(size=16))
    cube = Cube((6,), 1)
    assert avg_p(f, cube, 1.0) <= avg_p(f, cube, 4.0) * (1 + 1e-12)


def test_2d_avg_is_nonnegative_real_where_f_vanishes():
    # the inclusion-exclusion sum over this cube rounds below zero unclamped,
    # and its square root was a complex number
    f = make_input(Grid(2, 16), "random", seed=7)
    cube = Cube((6, 12), 2)
    for p in (1.0, 2.0):
        got = avg_p(f, cube, p)
        assert isinstance(got, float) and got >= 0.0
    assert cube_integral(f, cube, 2.0) >= 0.0


def test_avg_rejects_nonpositive_exponent():
    g = grid1d(4)
    f = GridFunction(g, np.ones(4))
    with pytest.raises(ParameterError):
        avg_p(f, Cube((0,), 2), 0.0)


@pytest.mark.parametrize("p", [math.inf, 0.0, math.nan, -1.0])
def test_norm_rejects_an_exponent_that_is_not_finite_and_positive(p):
    # the sum of |f|**inf is inf, and its 1/inf-th power 1, whatever max|f|
    f = make_input(Grid(1, 64, 1.0), "random", seed=1)
    assert np.abs(f.values).max() > 1.0
    with pytest.raises(ParameterError, match="finite and positive"):
        f.norm_lp(p)


# ---------------------------------------------------------------------------
# cell sets

def test_cellset_extends_beyond_window():
    g = grid1d(8)
    s = CellSet.from_cube(g, Cube((-4,), 8))
    assert s.count == 8
    assert s.window_mask().sum() == 4
    assert s.count_in(Cube((-4,), 4)) == 4


def test_cube_minus_cubes():
    # a cube with holes cut through the holes' masks on it
    g = grid1d(8)
    w = CellSet.from_cube(g, Cube((0,), 8))
    for hole in (Cube((2,), 2), Cube((6,), 1), Cube((7,), 4)):
        w.mask &= ~CellSet.from_cube(g, hole).mask_on(w.box)
    assert w.mask.tolist() == [True, True, False, False, True, True, False, False]
    assert w.count == 4
    assert w.count_in(Cube((2,), 2)) == 0
    assert w.count_in(Cube((0,), 8)) == w.count


def test_cellset_disjointness():
    g = grid1d(8)
    a = CellSet.from_cube(g, Cube((0,), 3))
    b = CellSet.from_cube(g, Cube((3,), 2))
    c = CellSet.from_cube(g, Cube((2,), 2))
    # two sets share a cell where one's mask on the other's box meets it
    assert not (a.mask_on(b.box) & b.mask).any()
    assert (a.mask_on(c.box) & c.mask).any()
    assert (c.mask_on(a.box) & a.mask).any()


# ---------------------------------------------------------------------------
# gauge averages

def test_orlicz_zero_function():
    g = grid1d(8)
    f = GridFunction(g, np.zeros(g.shape))
    assert orlicz_avg(f, Cube((0,), 4), YoungFunction.power(2.0)) == 0.0


def test_orlicz_power_matches_avg():
    g = grid1d(16)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=16))
    q = Cube((2,), 8)
    for p in (1.0, 2.0, 3.0):
        lux = orlicz_avg(f, q, YoungFunction.power(p))
        ref = avg_p(f, q, p)
        assert lux == pytest.approx(ref, rel=1e-9), f"p={p}"


def test_orlicz_straddling_cube_matches_avg():
    g = grid1d(8)
    f = GridFunction(g, np.arange(1.0, 9.0))
    q = Cube((-3,), 8)
    assert orlicz_avg(f, q, YoungFunction.power(2.0)) == pytest.approx(
        avg_p(f, q, 2.0), rel=1e-9
    )


def test_orlicz_gauge_exceeding_one_at_one():
    # phi(1) > 1 forces the bracket to grow before bisection
    g = grid1d(4)
    f = GridFunction(g, np.full(4, 1.0))
    phi = YoungFunction(fn=lambda t: 50.0 * np.asarray(t) ** 2, name="steep")
    lux = orlicz_avg(f, Cube((0,), 4), phi)
    # closed form: (1/lam)^2 * 50 = 1  =>  lam = sqrt(50)
    assert lux == pytest.approx(np.sqrt(50.0), rel=1e-9)


def test_nonconvex_gauge_rejected():
    with pytest.raises(ValidationError):
        YoungFunction(fn=lambda t: np.sqrt(np.asarray(t)), name="sqrt")


def test_gauge_must_vanish_at_zero():
    with pytest.raises(ValidationError):
        YoungFunction(fn=lambda t: np.asarray(t) + 1.0, name="affine")
