"""Checks for the verification layer: sparsity audits, domination audits,
norm ratios, weak-threshold profiles, and the testing-condition probe.

Oracle values for the single-cube ratio and the weak profile are computed
here by direct summation, independent of the prefix-sum machinery.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from sparsedom import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    NumericError,
    ParameterError,
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    UndefinedRatioError,
    apply_restricted,
    audit_coefficients,
    build_sparse_domination,
    check_domination,
    check_sparsity,
    make_kernel,
    sharp_vs_maximal,
    sparse_lp_ratio,
    sparse_operator,
    t1_testing_probe,
    transpose_kernel,
    wq_profile,
)
from sparsedom import cli, operators, verify
from sparsedom.inputs import INPUT_KINDS, make_input
from sparsedom.operators import _offset_lattice, _stratified_indices


def supported_noise(grid, seed, lo=4, hi=12):
    """Nonnegative noise supported on the central half of the window."""
    gen = np.random.Generator(np.random.Philox(seed))
    vals = np.zeros(grid.shape)
    sl = tuple(slice(lo, hi) for _ in range(grid.dim))
    vals[sl] = gen.random(vals[sl].shape) + 0.25
    return GridFunction(grid, vals)


def indicator(grid, cube):
    return GridFunction(grid, CellSet.from_cube(grid, cube).window_mask().astype(float))


def zero_input(grid):
    return GridFunction(grid, np.zeros(grid.shape))


def one_cube_family(grid, cube, coefficient=1.0, eta=1.0):
    entry = SparseEntry(cube=cube, witness=CellSet.from_cube(grid, cube),
                        coefficient=coefficient, base_cube=cube, depth=0)
    return SparseFamily(grid, eta=eta, entries=[entry], constant=1.0,
                        meta={"s": 1.0})


# ---------------------------------------------------------------------------
# sparsity audit

def test_check_sparsity_accepts_pipeline_output():
    grid = Grid(1, 64)
    f = supported_noise(grid, 3, 16, 48)
    res = build_sparse_domination(make_kernel("hilbert", grid), f)
    rep = check_sparsity(res.family)
    assert rep.passed
    assert rep.min_ratio >= res.family.eta
    assert rep.max_overlap == 1
    assert rep.n_entries == len(res.family.entries)


def test_check_sparsity_empty_family_passes():
    grid = Grid(1, 8)
    rep = check_sparsity(SparseFamily(grid, eta=0.5, entries=[], constant=0.0))
    assert rep.passed and rep.min_ratio == 1.0 and rep.max_overlap == 0


def test_check_sparsity_detects_overlap():
    grid = Grid(1, 16)
    cube = Cube((4,), 4)
    fam = one_cube_family(grid, cube)
    fam.entries.append(fam.entries[0])
    rep = check_sparsity(fam)
    assert not rep.passed
    assert rep.max_overlap == 2
    kinds = {f["kind"] for f in rep.failures}
    assert "overlap" in kinds
    # overlap location must be a cell both witnesses hold
    cell = next(f for f in rep.failures if f["kind"] == "overlap")["cell"]
    assert cube.contains(Cube(tuple(cell), 1))


def test_check_sparsity_detects_thin_witness():
    grid = Grid(1, 16)
    cube = Cube((4,), 8)
    mask = np.zeros(8, dtype=bool)
    mask[0] = True
    entry = SparseEntry(cube=cube, witness=CellSet(grid, cube, mask),
                        coefficient=1.0, base_cube=cube, depth=0)
    fam = SparseFamily(grid, eta=0.5, entries=[entry], constant=1.0)
    rep = check_sparsity(fam)
    assert not rep.passed
    assert rep.min_ratio == pytest.approx(1 / 8)
    assert any(f.get("kind") == "ratio" for f in rep.failures)


def test_check_sparsity_detects_witness_outside_its_cube():
    # a witness moved off its cube keeps its count, so the ratio and the
    # disjointness checks alone still passed it
    grid = Grid(1, 64)
    res = build_sparse_domination(make_kernel("hilbert"), supported_noise(grid, 3, 16, 48))
    fam = res.family
    assert check_sparsity(fam).passed
    last = fam.entries[-1]
    moved = CellSet(grid, Cube((10**4,), last.witness.box.side), last.witness.mask)
    fam.entries[-1] = dataclasses.replace(last, witness=moved)
    rep = check_sparsity(fam)
    assert not rep.passed
    assert rep.max_overlap == 1 and rep.min_ratio >= fam.eta
    assert rep.failures == [{"entry": len(fam.entries) - 1, "kind": "outside_cube"}]


def test_check_sparsity_counts_offwindow_cells():
    # witness box sticking out of the window: geometric count in the
    # denominator, painted cells still tracked without index errors
    grid = Grid(1, 16)
    cube = Cube((-4,), 8)
    fam = one_cube_family(grid, cube)
    rep = check_sparsity(fam)
    assert rep.passed and rep.min_ratio == 1.0


def test_sparsity_report_is_json_ready():
    grid = Grid(1, 16)
    fam = one_cube_family(grid, Cube((4,), 4))
    fam.entries.append(fam.entries[0])
    json.dumps(dataclasses.asdict(check_sparsity(fam)))


# ---------------------------------------------------------------------------
# sparse averaging operator and norm ratios

def test_sparse_operator_single_cube_is_exact():
    grid = Grid(1, 16)
    cube = Cube((4,), 4)
    f = indicator(grid, cube)
    out = sparse_operator(one_cube_family(grid, cube), f, r=1.0)
    assert np.array_equal(out.values, f.values)


def test_sparse_operator_sums_nested_cubes():
    grid = Grid(1, 16)
    inner, outer = Cube((4,), 2), Cube((4,), 4)
    f = indicator(grid, inner)
    fam = one_cube_family(grid, outer)
    fam.entries.append(SparseEntry(cube=inner,
                                   witness=CellSet.from_cube(grid, inner),
                                   coefficient=0.0, base_cube=inner, depth=1))
    out = sparse_operator(fam, f, r=1.0)
    # outer average 1/2 everywhere on outer, inner adds its average 1
    assert out.values[4] == pytest.approx(0.5 + 1.0)
    assert out.values[6] == pytest.approx(0.5)
    assert out.values[2] == 0.0


def test_sparse_lp_ratio_single_cube_indicator_is_one():
    grid = Grid(2, 16)
    cube = Cube((4, 4), 8)
    f = indicator(grid, cube)
    ratio = sparse_lp_ratio(one_cube_family(grid, cube), f, r=1.0, p=2.0)
    assert ratio == pytest.approx(1.0, abs=1e-14)


def test_sparse_lp_ratio_zero_input_raises():
    grid = Grid(1, 8)
    fam = one_cube_family(grid, Cube((0,), 4))
    with pytest.raises(UndefinedRatioError):
        sparse_lp_ratio(fam, zero_input(grid))


def test_sparse_lp_ratio_rejects_bad_exponent():
    grid = Grid(1, 8)
    fam = one_cube_family(grid, Cube((0,), 4))
    f = indicator(grid, Cube((0,), 4))
    with pytest.raises(ParameterError):
        sparse_lp_ratio(fam, f, r=1.0, p=0.5)
    # no finite norm to divide by: ||f||_inf is no limit of the sums
    for p in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            sparse_lp_ratio(fam, f, r=1.0, p=p)


def test_audit_coefficients_tight_on_pipeline_output():
    grid = Grid(1, 64)
    f = supported_noise(grid, 11, 16, 48)
    res = build_sparse_domination(make_kernel("hilbert", grid), f,
                                  PipelineConfig(s=1.5))
    assert audit_coefficients(res.family, f) <= 1e-12


def test_audit_coefficients_sees_tampering():
    grid = Grid(1, 16)
    cube = Cube((4,), 4)
    f = indicator(grid, cube)
    fam = one_cube_family(grid, cube, coefficient=2.0)
    assert audit_coefficients(fam, f) == pytest.approx(1.0)


def test_audit_coefficients_reports_a_nan_gap_as_infinite():
    # max(worst, nan) keeps worst, which once hid a NaN coefficient
    grid = Grid(1, 16)
    cube = Cube((4,), 4)
    f = indicator(grid, cube)
    fam = one_cube_family(grid, cube, coefficient=np.nan)
    fam.entries.insert(0, one_cube_family(grid, cube).entries[0])
    assert audit_coefficients(fam, f) == np.inf


# ---------------------------------------------------------------------------
# domination audit

def test_check_domination_accepts_pipeline_output():
    grid = Grid(1, 64)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 5, 16, 48)
    res = build_sparse_domination(kernel, f)
    rep = check_domination(kernel, f, res.family)
    assert rep.passed
    assert rep.n_failures == 0
    assert rep.worst_margin <= rep.tol
    assert rep.n_checked == grid.n_cells


def test_check_domination_fails_when_constant_shrunk():
    grid = Grid(1, 64)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 5, 16, 48)
    res = build_sparse_domination(kernel, f)
    rep = check_domination(kernel, f, dataclasses.replace(
        res.family, constant=res.family.constant * 1e-3))
    assert not rep.passed
    assert rep.n_failures > 0
    assert rep.failures, "failure locations must be reported"
    loc = rep.failures[0]
    assert loc["transform"] > loc["bound"] + rep.tol


def test_check_domination_flags_uncovered_mass():
    # nonzero transform against an all-zero stack must name the cell
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = indicator(grid, Cube((4,), 4))
    cube = Cube((4,), 4)
    fam = one_cube_family(grid, cube, coefficient=0.0)
    rep = check_domination(kernel, f, fam)
    assert not rep.passed
    assert rep.failures[0]["bound"] == 0.0
    assert rep.failures[0]["transform"] > 1e-10
    assert rep.c_min == 0.0
    json.dumps(dataclasses.asdict(rep))


def test_check_domination_bounds_an_empty_stack_by_zero_for_any_constant():
    # inf * 0 is NaN, which once let the uncovered cells through
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = indicator(grid, Cube((4,), 4))
    fam = one_cube_family(grid, Cube((4,), 4))
    tf = np.abs(apply_restricted(kernel, f).values)
    uncovered = (tf > 1e-10) & ((np.arange(16) < 4) | (np.arange(16) >= 8))
    rep = check_domination(kernel, f, dataclasses.replace(fam, constant=np.inf))
    assert not rep.passed
    assert rep.n_failures == uncovered.sum() > 0
    assert all(fl["bound"] == 0.0 for fl in rep.failures)
    assert [fl["cell"] for fl in rep.failures] == [
        [int(i)] for i in np.flatnonzero(uncovered)[:10]]


def test_check_domination_counts_nan_margins_out_of_bound():
    grid = Grid(1, 16)
    f = indicator(grid, Cube((4,), 4))
    for kernel in (make_kernel("hilbert", grid),
                   dataclasses.replace(make_kernel("hilbert", grid),
                                       translation_invariant=False)):
        nan_coefficient = one_cube_family(grid, Cube((-8,), 32), coefficient=np.nan)
        for fam in (nan_coefficient, dataclasses.replace(
                one_cube_family(grid, Cube((-8,), 32)), constant=np.nan)):
            rep = check_domination(kernel, f, fam)
            assert not rep.passed
            assert rep.n_failures == grid.n_cells


@pytest.mark.parametrize("kname,dim,n", [("hilbert", 1, 64), ("riesz2d", 2, 16)])
def test_check_domination_c_min_matches_brute_force(kname, dim, n):
    # the largest |T f| / stacked coefficient over the cells with a positive
    # stack, stacked and divided cell by cell
    grid = Grid(dim, n)
    kernel = make_kernel(kname, grid)
    f = supported_noise(grid, 5, n // 4, 3 * n // 4)
    fam = build_sparse_domination(kernel, f).family
    tf = np.abs(apply_restricted(kernel, f).values)
    want = 0.0
    for cell in np.ndindex(grid.shape):
        stack = sum(e.coefficient for e in fam.entries if e.cube.contains(Cube(cell, 1)))
        if stack > 0:
            want = max(want, tf[cell] / stack)
    rep = check_domination(kernel, f, fam)
    assert rep.c_min == want
    assert 0.0 < rep.c_min <= rep.constant
    assert dataclasses.asdict(rep)["c_min"] == want


def direct_domination(kernel, f, family, constant, tol=1e-10):
    """The domination report from the direct sum on every cell."""
    tf = np.abs(apply_restricted(kernel, f).values)
    stack = np.zeros(f.grid.shape)
    for e in family.entries:
        clip = e.cube.window_clip(f.grid)
        if clip is not None:
            stack[tuple(slice(lo, hi) for lo, hi in clip)] += e.coefficient
    bound = np.where(stack != 0, constant * stack, 0.0)
    margin = tf - bound
    bad = ~(margin <= tol)
    pos = stack > 0
    return {
        "passed": not bad.any(),
        "constant": constant,
        "c_min": float((tf[pos] / stack[pos]).max()) if pos.any() else 0.0,
        "tol": tol,
        "n_checked": tf.size,
        "n_failures": int(bad.sum()),
        "worst_margin": float(margin.max()),
        "failures": [{"cell": [int(v) for v in cell],
                      "transform": float(tf[tuple(cell)]),
                      "bound": float(bound[tuple(cell)])}
                     for cell in np.argwhere(bad)[:10]],
    }


def complex_input(grid, kind, seed):
    f = make_input(grid, kind, seed=seed)
    phase = np.exp(1j * np.arange(grid.n_cells).reshape(grid.shape))
    return GridFunction(grid, f.values * phase)


@pytest.mark.parametrize("kname,dim,n", [
    ("hilbert", 1, 512), ("holder", 1, 512), ("dini_stress", 1, 512),
    ("zero", 1, 512), ("riesz2d", 2, 32), ("zero", 2, 32)])
@pytest.mark.parametrize("is_complex", [False, True])
def test_verifier_fft_matches_direct_sum(kname, dim, n, is_complex):
    grid = Grid(dim, n)
    kernel = make_kernel(kname, grid)
    f = (complex_input if is_complex else make_input)(grid, "random", seed=3)
    fast = verify._lattice_transform(_offset_lattice(kernel, grid), f)
    direct = apply_restricted(kernel, f).values
    assert fast.shape == grid.shape
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("kname,dim,n", [
    ("hilbert", 1, 256), ("holder", 1, 128), ("dini_stress", 1, 128),
    ("zero", 1, 64), ("riesz2d", 2, 16), ("riesz2d", 2, 32), ("zero", 2, 16)])
def test_check_domination_report_equals_direct_sum(kname, dim, n):
    # quantile and fixed-mode families, at their own constant and at
    # constants small enough that many cells fail; every field must be
    # exactly what the direct sum on every cell gives
    grid = Grid(dim, n)
    kernel = make_kernel(kname, grid)
    modes = (PipelineConfig(),
             PipelineConfig(mode="fixed", c_fixed=1.5, a_fixed=1.0))
    inputs = [make_input(grid, kind, seed=11) for kind in INPUT_KINDS]
    inputs.append(complex_input(grid, "random", 11))
    failing = 0
    for f in inputs:
        for cfg in modes:
            fam = build_sparse_domination(kernel, f, cfg).family
            for scale in (1.0, 0.3, 0.02):
                c = fam.constant * scale
                want = direct_domination(kernel, f, fam, c)
                scaled = dataclasses.replace(fam, constant=c)
                assert dataclasses.asdict(check_domination(kernel, f, scaled)) == want
                failing += not want["passed"]
    if kname != "zero":
        assert failing > 0


@pytest.mark.parametrize("kname,dim,n", [("hilbert", 1, 256), ("riesz2d", 2, 32)])
@pytest.mark.parametrize("support", ["corner", "one cell", "none"])
def test_check_domination_equals_direct_sum_off_the_centre(kname, dim, n, support):
    # the direct sums read f on the box of its nonzero cells only: a box
    # in a corner, a single cell, and no cell at all (f = 0, where every
    # re-summed value is +0.0); every field is what the direct sum on every
    # cell gives, at the family's constant and at ones that make cells fail
    grid = Grid(dim, n)
    kernel = make_kernel(kname, grid)
    gen = np.random.Generator(np.random.Philox(23))
    vals = np.zeros(grid.shape)
    if support == "corner":
        box = (slice(n - n // 8, n),) + (slice(0, n // 8),) * (dim - 1)
        vals[box] = gen.random(vals[box].shape) + 0.25
    elif support == "one cell":
        vals[(n // 3,) * dim] = 1.5
    for f in (GridFunction(grid, vals), GridFunction(grid, vals * np.exp(0.7j))):
        fam = build_sparse_domination(kernel, f).family
        for scale in (1.0, 0.3, 0.02):
            c = fam.constant * scale
            want = direct_domination(kernel, f, fam, c)
            scaled = dataclasses.replace(fam, constant=c)
            assert dataclasses.asdict(check_domination(kernel, f, scaled)) == want
            if support == "none":
                assert want["passed"] and want["worst_margin"] == 0.0
            elif scale == 0.02:
                assert not want["passed"]


def test_check_domination_exact_at_the_tolerance():
    # a constant that puts one cell's margin at the tolerance, where the
    # FFT and the direct sum disagree on whether it fails; the cell sets
    # neither the largest margin nor the largest ratio, and no sampled cell
    # shares its group of direct sums
    grid = Grid(1, 1024)
    kernel = make_kernel("hilbert", grid)
    f = make_input(grid, "random", seed=5)
    fam = build_sparse_domination(kernel, f).family
    tf = np.abs(apply_restricted(kernel, f).values)
    fast = np.abs(verify._lattice_transform(_offset_lattice(kernel, grid), f))
    stack = verify._paint_coefficients(fam, [e.coefficient for e in fam.entries])
    ratio = np.where(stack > 0, tf / np.where(stack > 0, stack, 1.0), 0.0)
    g = operators._SUM_GROUP
    sampled = set((_stratified_indices(grid.n_cells, 64) // g).tolist())
    order = np.argsort(ratio)
    cell = next(int(x) for x in order[len(order) // 2:]
                if fast[x] != tf[x] and x // g not in sampled)
    tol = 1e-10
    c0 = (tf[cell] - tol) / stack[cell]
    for step in range(-64, 65):
        c = c0 + step * np.spacing(c0)
        if (tf[cell] - c * stack[cell] > tol) != (fast[cell] - c * stack[cell] > tol):
            break
    else:
        pytest.fail("no constant splits the FFT from the direct sum")
    want = direct_domination(kernel, f, fam, c, tol)
    scaled = dataclasses.replace(fam, constant=c)
    assert dataclasses.asdict(check_domination(kernel, f, scaled, tol=tol)) == want


def test_check_domination_exact_when_sums_round_by_group(monkeypatch):
    # a BLAS whose rounding moves with the rows that share a product: the
    # verifier re-sums whole groups, so it still reads the window's bits
    exact = operators._block_sums

    def by_group(block, f_src):
        out = exact(block, f_src)
        g = operators._SUM_GROUP
        for i in range(0, len(block), g):
            out[i:i + g] *= 1 + 2.0**-48 * (np.abs(block[i:i + g]).sum() % 1)
        return out

    monkeypatch.setattr(operators, "_block_sums", by_group)
    for kname, dim, n in (("hilbert", 1, 256), ("riesz2d", 2, 32)):
        grid = Grid(dim, n)
        kernel = make_kernel(kname, grid)
        f = make_input(grid, "random", seed=9)
        fam = build_sparse_domination(kernel, f).family
        for scale in (1.0, 0.3):
            c = fam.constant * scale
            want = direct_domination(kernel, f, fam, c)
            scaled = dataclasses.replace(fam, constant=c)
            assert dataclasses.asdict(check_domination(kernel, f, scaled)) == want


def off_by(monkeypatch, cell, amount):
    """Make the verifier's FFT wrong by ``amount`` at one flat cell index."""
    exact = verify._lattice_transform

    def wrong(lat, f):
        out = exact(lat, f)
        out.flat[cell] += amount
        return out

    monkeypatch.setattr(verify, "_lattice_transform", wrong)


@pytest.mark.parametrize("where", ["anywhere", "sampled"])
def test_check_domination_raises_when_fft_is_off(monkeypatch, where):
    grid = Grid(1, 256)
    kernel = make_kernel("hilbert", grid)
    f = make_input(grid, "random", seed=2)
    fam = build_sparse_domination(kernel, f).family
    assert check_domination(kernel, f, fam).passed
    scale = np.abs(apply_restricted(kernel, f).values).max()
    if where == "anywhere":
        # a large error makes its cell the worst margin, which is re-summed
        off_by(monkeypatch, 3, 10 * scale)
    else:
        # a small one that decides nothing is caught by the fixed sample
        off_by(monkeypatch, int(_stratified_indices(grid.n_cells, 64)[7]), 1e-9 * scale)
    with pytest.raises(NumericError, match="off the direct sum"):
        check_domination(kernel, f, fam)


def test_cli_exits_three_when_fft_is_off(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": 1, "cells_per_side": 64},
                               "kernel": {"name": "hilbert"},
                               "input": {"kind": "random", "seed": 7}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    off_by(monkeypatch, 10, 1.0)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the verifier's FFT of T f is off the direct sum")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# weak-threshold profile

def test_wq_profile_matches_direct_count():
    grid = Grid(1, 32)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 7, 4, 28)
    cube = Cube((8,), 8)
    prof = wq_profile(kernel, f, cube, q=1.0, lambdas=(0.25, 0.5))
    tf = apply_restricted(kernel, f, targets=cube, source=cube).values
    mag = np.sort(np.abs(tf[8:16]))[::-1]
    avg = f.values[8:16].mean()
    assert prof["psi"][0] == pytest.approx(mag[int(np.ceil(0.25 * 8)) - 1] / avg)
    assert prof["psi"][1] == pytest.approx(mag[int(np.ceil(0.5 * 8)) - 1] / avg)
    assert not prof["degenerate"]


def test_wq_profile_nonincreasing_in_level():
    grid = Grid(1, 64)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 13, 8, 56)
    prof = wq_profile(kernel, f, Cube((16,), 16))
    # default levels descend from 1/2 to 1/256, so psi cannot drop:
    # fewer cells need to exceed the threshold at smaller levels
    psi = prof["psi"]
    assert all(a <= b + 1e-15 for a, b in zip(psi, psi[1:]))
    assert all(np.isfinite(v) for v in psi)


def test_wq_profile_single_cell_cube_vanishes():
    # only source inside the cube is the target itself, which the
    # discretization excludes, so the restricted transform is zero
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 1, 0, 16)
    prof = wq_profile(kernel, f, Cube((5,), 1))
    assert prof["psi"] == [0.0] * 8
    assert not prof["degenerate"]


def test_wq_profile_zero_average_degenerate():
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = indicator(grid, Cube((0,), 2))
    prof = wq_profile(kernel, f, Cube((8,), 4))
    assert prof["degenerate"] and prof["psi"] == [0.0] * 8


def test_wq_profile_rejects_bad_levels():
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 1, 0, 16)
    for bad in (0.0, 1.5, -0.25):
        with pytest.raises(ParameterError):
            wq_profile(kernel, f, Cube((4,), 4), lambdas=(bad,))


def test_wq_profile_level_count_beyond_window_is_zero():
    # cube straddles the edge: geometric cell count exceeds the window
    # cells available, so deep levels run out of values and report zero
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 9, 0, 16)
    prof = wq_profile(kernel, f, Cube((-8,), 16), lambdas=(1.0, 0.5))
    assert prof["psi"][0] == 0.0
    assert prof["psi"][1] >= 0.0


# ---------------------------------------------------------------------------
# testing-condition probe

def test_t1_probe_deterministic_and_bounded():
    grid = Grid(1, 32)
    kernel = make_kernel("hilbert", grid)
    a = t1_testing_probe(kernel, grid, Cube((8,), 16), seed=42)
    b = t1_testing_probe(kernel, grid, Cube((8,), 16), seed=42)
    assert a.value == b.value
    assert [s["stat"] for s in a.samples] == [s["stat"] for s in b.samples]
    assert a.value >= max(s["stat"] for s in a.samples)
    labels = {s["subset"] for s in a.samples}
    assert {"empty", "full"} <= labels
    empty = next(s for s in a.samples if s["subset"] == "empty")
    assert empty["stat"] == 0.0 and empty["cells"] == 0


def test_t1_probe_full_subset_matches_direct():
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    cube = Cube((4,), 8)
    probe = t1_testing_probe(kernel, grid, cube, seed=0)
    full = next(s for s in probe.samples if s["subset"] == "full")
    ind = indicator(grid, cube)
    vals = apply_restricted(transpose_kernel(kernel), ind, targets=cube).values
    direct = np.sum(np.abs(vals[4:12])) * grid.cell_measure / cube.measure(grid)
    assert full["stat"] == pytest.approx(direct, rel=1e-12)
    assert full["cells"] == 8


def probe_one_transform_per_indicator(kernel, grid, cube, seed,
                                      probs=(0.125, 0.25, 0.5, 0.75), draws=2):
    """The probe's statistics with one direct transposed transform per
    sampled indicator, drawn in the probe's order."""
    base = CellSet.from_cube(grid, cube).window_mask()
    gen = np.random.Generator(np.random.Philox(seed))
    masks = [np.zeros(grid.shape, dtype=bool), base]
    masks += [(gen.random(grid.shape) < prob) & base
              for prob in probs for _ in range(draws)]
    targets = CellSet(grid, grid.window_cube(), base)
    stats = []
    for mask in masks:
        vals = apply_restricted(transpose_kernel(kernel),
                                GridFunction(grid, mask.astype(float)),
                                targets=targets).values
        stats.append(float(np.sum(np.abs(vals[base])) * grid.cell_measure
                           / cube.measure(grid)))
    return stats


@pytest.mark.parametrize("dim,n,name", [(1, 64, "hilbert"), (1, 128, "dini_stress"),
                                        (2, 16, "riesz2d")])
def test_t1_probe_matches_one_transform_per_indicator(dim, n, name):
    grid = Grid(dim, n)
    kernel = make_kernel(name, grid)
    for cube in (grid.window_cube(), Cube((n // 4,) * dim, n // 2),
                 Cube((-3,) * dim, 8)):
        for seed in (0, 7):
            got = [s["stat"] for s in t1_testing_probe(kernel, grid, cube, seed).samples]
            want = probe_one_transform_per_indicator(kernel, grid, cube, seed)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_t1_probe_samples_the_lattice_once():
    grid = Grid(1, 64)
    kernel = make_kernel("dini_stress", grid)
    seen = []

    def fn(x, y):
        out = kernel.fn(x, y)
        seen.append(np.size(out))
        return out

    t1_testing_probe(dataclasses.replace(kernel, fn=fn), grid, seed=4)
    # one lattice for all ten indicators
    assert seen == [127]


def test_t1_probe_seed_changes_random_subsets():
    grid = Grid(2, 8)
    kernel = make_kernel("riesz2d", grid)
    a = t1_testing_probe(kernel, grid, seed=1)
    b = t1_testing_probe(kernel, grid, seed=2)
    counts_a = [s["cells"] for s in a.samples if s["subset"].startswith("p=")]
    counts_b = [s["cells"] for s in b.samples if s["subset"].startswith("p=")]
    assert counts_a != counts_b


def test_t1_probe_zero_kernel_gives_zero():
    grid = Grid(1, 16)
    probe = t1_testing_probe(make_kernel("zero", grid), grid, seed=3)
    assert probe.value == 0.0


def test_t1_probe_offwindow_cube_rejected():
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    with pytest.raises(ParameterError):
        t1_testing_probe(kernel, grid, Cube((32,), 4), seed=0)


# ---------------------------------------------------------------------------
# maximal-function comparison

def test_sharp_vs_maximal_finite_positive():
    grid = Grid(1, 64)
    kernel = make_kernel("hilbert", grid)
    f = supported_noise(grid, 17, 16, 48)
    ratio = sharp_vs_maximal(kernel, f)
    assert np.isfinite(ratio) and ratio > 0


def test_sharp_vs_maximal_zero_input_raises():
    grid = Grid(1, 16)
    kernel = make_kernel("hilbert", grid)
    with pytest.raises(UndefinedRatioError):
        sharp_vs_maximal(kernel, zero_input(grid))


def test_sharp_vs_maximal_zero_kernel_is_zero():
    grid = Grid(1, 16)
    f = indicator(grid, Cube((4,), 4))
    assert sharp_vs_maximal(make_kernel("zero", grid), f) == 0.0
