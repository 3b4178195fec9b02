"""Numerical checks on sparse families and domination certificates.

Everything here re-derives its quantities from raw inputs instead of
trusting what the construction stored: sparsity is checked by painting
witnesses on an integer canvas, domination by recomputing the transform
on every window cell, coefficients by re-averaging.  The checks return
small report objects with a ``passed`` flag and enough detail to locate
a failure; they never repair anything.

The domination check has its own transform, shared with no builder
code: for a kernel with a difference lattice, one FFT convolution over
the whole window, with every cell whose value can decide the report
re-summed directly; for any other kernel, the direct sum on every cell.
Either direct sum reads f only on the box of its nonzero cells, as
:func:`sparsedom.operators.apply_restricted` does, off which every term is
an exact 0.  The coefficient audit and the norm ratio re-average every
entry; the CLI takes each exponent's averages once for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, UndefinedRatioError
from .grid import CellSet, Cube, Grid, GridFunction, _box_slices, avg_p
from .maximal import hl_maximal, sharp_truncated
from .operators import (
    _PAIR_CHUNK,
    _SUM_GROUP,
    Kernel,
    _check_dims,
    _live_sources,
    _offset_lattice,
    _refuse_beyond_memory,
    _restricted_sums,
    _stratified_indices,
    _support_bounds,
    apply_restricted,
    transpose_kernel,
)
from .sparse import SparseFamily

__all__ = [
    "SparsityReport",
    "DominationReport",
    "ProbeResult",
    "check_sparsity",
    "check_domination",
    "sparse_operator",
    "audit_coefficients",
    "sparse_lp_ratio",
    "wq_profile",
    "t1_testing_probe",
    "sharp_vs_maximal",
]


@dataclass
class SparsityReport:
    passed: bool
    eta_required: float
    min_ratio: float
    max_overlap: int
    n_entries: int
    failures: list = field(default_factory=list)


@dataclass
class DominationReport:
    """Outcome of :func:`check_domination`.  ``c_min`` is the smallest
    constant under which the stacked coefficients dominate ``|T f|`` on the
    cells where the stack is positive, so ``constant / c_min`` measures
    how loose the certificate is."""

    passed: bool
    constant: float
    c_min: float
    tol: float
    n_checked: int
    n_failures: int
    worst_margin: float
    failures: list = field(default_factory=list)


@dataclass
class ProbeResult:
    value: float
    samples: list


def check_sparsity(family: SparseFamily, eta: float | None = None) -> SparsityReport:
    """Witness disjointness, containment and witness-to-cube measure ratios.

    Paints every witness cell (window or not) onto one integer canvas;
    any cell painted twice breaks disjointness.  Each witness must lie in
    its dilated cube and hold at least ``eta`` (default: the family's
    declared value) of the cube's full geometric cell count.  A canvas
    larger than physical memory raises ParameterError before it is
    allocated.
    """
    eta = family.eta if eta is None else eta
    entries = family.entries
    if not entries:
        return SparsityReport(True, eta, 1.0, 0, 0)
    dim = family.grid.dim
    los = [min(e.witness.box.anchor[d] for e in entries) for d in range(dim)]
    his = [max(e.witness.box.anchor[d] + e.witness.box.side for e in entries)
           for d in range(dim)]
    shape = [h - l for h, l in zip(his, los)]
    _refuse_beyond_memory(f"the sparsity canvas of {shape} cells",
                          4 * math.prod(shape))
    canvas = np.zeros(shape, dtype=np.int32)
    failures = []
    min_ratio = math.inf
    for i, e in enumerate(entries):
        canvas[_box_slices(e.witness.box.bounds(), los)] += e.witness.mask
        ratio = e.witness.count / e.cube.cell_count
        min_ratio = min(min_ratio, ratio)
        if ratio < eta - 1e-12:
            failures.append({"entry": i, "kind": "ratio", "ratio": ratio})
        if not (e.cube.contains(e.witness.box)
                or e.witness.count_in(e.cube) == e.witness.count):
            failures.append({"entry": i, "kind": "outside_cube"})
    max_overlap = int(canvas.max())
    if max_overlap > 1:
        spot = np.argwhere(canvas == max_overlap)[0]
        failures.append({"kind": "overlap",
                         "cell": [int(v + l) for v, l in zip(spot, los)],
                         "count": max_overlap})
    return SparsityReport(not failures, eta, float(min_ratio), max_overlap,
                          len(entries), failures)


def _paint_coefficients(family: SparseFamily, coeffs) -> np.ndarray:
    out = np.zeros(family.grid.shape)
    for e, c in zip(family.entries, coeffs):
        clip = e.cube.window_clip(family.grid)
        if clip is not None:
            out[_box_slices(clip)] += c
    return out


def sparse_operator(family: SparseFamily, f: GridFunction,
                    r: float = 1.0) -> GridFunction:
    """The sparse averaging operator: at each window cell, the sum of
    r-power averages of ``f`` over the family cubes containing it.

    Averages are recomputed from ``f``; stored coefficients are not used.
    """
    return GridFunction(family.grid,
                        _paint_coefficients(family, _entry_averages(family, f, r)))


def _entry_averages(family: SparseFamily, f: GridFunction, r: float) -> list:
    """The r-power average of ``f`` over every entry's cube, in entry order."""
    return [avg_p(f, e.cube, r) for e in family.entries]


def _build_exponent(family: SparseFamily) -> float:
    """The exponent s the family states it was built with, 1 where it
    states none."""
    return float(family.meta.get("s", 1.0))


def audit_coefficients(family: SparseFamily, f: GridFunction) -> float:
    """Largest absolute gap between stored coefficients and freshly
    recomputed s-power averages of ``f``, s the family's build exponent (1
    where it states none); inf where a gap is NaN."""
    return _coefficient_gap(family, _entry_averages(family, f, _build_exponent(family)))


def _coefficient_gap(family: SparseFamily, averages: list) -> float:
    """``audit_coefficients`` given the s-power ``averages`` of the entries."""
    gaps = [abs(e.coefficient - a) for e, a in zip(family.entries, averages)]
    # max would drop a NaN
    return math.inf if any(map(math.isnan, gaps)) else max(gaps, default=0.0)


def _lattice_transform(lat: np.ndarray, f: GridFunction) -> np.ndarray:
    """``T f`` on every window cell from one circular FFT convolution.

    The lattice, scaled by ``h**dim``, and ``f`` are laid out on ``2n``
    points per axis.  Window offsets satisfy ``|k| <= n - 1``, so no two
    of them wrap onto one point and the circular convolution equals the
    linear one on the window.
    """
    grid = f.grid
    n, dim = grid.cells_per_side, grid.dim
    shape, axes = (2 * n,) * dim, tuple(range(dim))
    fft, ifft = ((np.fft.fftn, np.fft.ifftn) if f.is_complex
                 else (np.fft.rfftn, np.fft.irfftn))
    k = np.arange(-(n - 1), n) % (2 * n)
    seg = np.zeros(shape)
    seg[np.ix_(*[k] * dim)] = lat
    seg *= grid.cell_measure
    spec = fft(seg, shape, axes)
    del seg
    spec *= fft(f.values, shape, axes)
    return ifft(spec, shape, axes)[(slice(0, n),) * dim].copy()


def _decisive_cells(tf: np.ndarray, stack: np.ndarray, bound: np.ndarray,
                    tol: float, delta: float) -> np.ndarray:
    """Flat indices of the cells whose exact ``|T f|`` can set a field of
    the domination report, given ``tf`` within ``delta`` of it on every
    cell and the report's ``bound``: a fixed sample of 64 cells; every cell
    whose margin or ratio can still be the largest; every cell whose margin is within ``delta`` of
    ``tol``; and the first 10 cells out of bound beyond doubt.  The
    windows of the largest margin and ratio are a few ulps wider, for the
    rounding of the margins and ratios themselves.
    """
    sample = _stratified_indices(tf.size, 64)
    if delta == 0:
        # the kernel or f vanishes, so every FFT value is an exact 0
        return sample
    tf, stack = tf.ravel(), stack.ravel()
    margin = tf - bound.ravel()
    top = margin.max()
    picks = [
        sample,
        np.flatnonzero(margin >= top - 2 * delta - 4 * np.spacing(abs(top))),
        np.flatnonzero(np.abs(margin - tol) <= delta),
        np.flatnonzero(margin > tol + delta)[:10],
    ]
    pos = np.flatnonzero(stack > 0)
    if pos.size:
        ratio = tf[pos] / stack[pos]
        slack = delta / stack[pos]
        floor = (ratio - slack).max()
        picks.append(pos[ratio + slack >= floor - 4 * np.spacing(ratio.max())])
    return np.unique(np.concatenate(picks))


def _domination_bytes(grid: Grid, is_complex: bool) -> int:
    """Bytes :func:`check_domination` allocates at its peak for a kernel
    with a lattice, for any support of f.  It holds the lattice and the
    painted stack and bound throughout; on top, the larger of its two
    phases.  First the FFT over the window: three arrays of ``(2n)**dim``
    points at the entry size (``rfftn`` half-spectra for a real input)
    and the window values of ``T f`` it returns.  Then, with those values
    and their moduli, the direct re-sum: its reversed lattice copy, its
    block of whole groups of ``_SUM_GROUP`` targets against every source
    (real also for a complex input), and f on the sources with the
    targets' rows, cells and sums, at most every cell each; the sources
    are the box of f's nonzero cells, at most the window."""
    n, dim, cells = grid.cells_per_side, grid.dim, grid.n_cells
    item = 16 if is_complex else 8
    lattice = (2 * n - 1) ** dim * 8
    pair_rows = min(cells, max(1, _PAIR_CHUNK // cells // _SUM_GROUP) * _SUM_GROUP)
    fft = 3 * item * (2 * n) ** dim + item * cells
    resum = lattice + pair_rows * cells * 8 + (8 * dim + 16 + 3 * item) * cells
    return lattice + 16 * cells + max(fft, resum)


def _window_magnitudes(kernel: Kernel, f: GridFunction, lat: np.ndarray,
                       stack: np.ndarray, bound: np.ndarray,
                       tol: float) -> np.ndarray:
    """``|T f|`` on the window for :func:`check_domination`: exact wherever
    it can decide the report, from the FFT elsewhere.

    The FFT is trusted to ``delta = 16 log2(P) (eps ||K h**dim||_1
    max|f| + P 2**-1074)`` with ``P = (2n)**dim`` points, the second term
    for rounding at the subnormal spacing, which the first underflows
    below; delta is 0 where K or f vanishes.  Every cell of
    ``_decisive_cells`` is re-summed directly in whole groups of
    ``_restricted_sums``, from the sources ``apply_restricted`` takes on
    the window, the box of f's nonzero cells, so its value is bit for bit
    that of ``apply_restricted``; a direct value that differs from the
    FFT by more than ``delta`` raises NumericError.
    """
    grid = f.grid
    fast = _lattice_transform(lat, f).ravel()
    tf = np.abs(fast)
    points = (2 * grid.cells_per_side) ** grid.dim
    weight, top = float(np.abs(lat).sum()), float(np.abs(f.values).max())
    delta = (16 * np.finfo(np.float64).eps * math.log2(points) * weight
             * grid.cell_measure * top
             + 16 * math.log2(points) * points * 2.0**-1074) if weight and top else 0.0
    picked = _decisive_cells(tf, stack, bound, tol, delta)
    g = _SUM_GROUP
    rows = (np.unique(picked // g)[:, None] * g + np.arange(g)).ravel()
    rows = rows[rows < tf.size]
    targets = np.stack(np.unravel_index(rows, grid.shape), axis=1)
    sources, f_src = _live_sources(grid, f.values, grid.window_cube(),
                                   _support_bounds(f.values))
    direct = _restricted_sums(kernel, grid, targets, sources, f_src, lat)
    dev = np.abs(direct - fast[rows])
    worst = int(np.argmax(dev))
    if not dev[worst] <= delta:
        raise NumericError(
            f"the verifier's FFT of T f is off the direct sum by "
            f"{dev[worst]:.3e} at cell {tuple(int(v) for v in targets[worst])}, "
            f"beyond its rounding bound {delta:.3e}")
    tf[rows] = np.abs(direct)
    return tf.reshape(grid.shape)


def check_domination(kernel: Kernel, f: GridFunction, family: SparseFamily,
                     tol: float = 1e-10) -> DominationReport:
    """Pointwise check ``|T f| <= constant * (stacked coefficients)`` on
    every window cell, using the family's stored constant and coefficients.

    A cell with zero stacked coefficient is bounded by 0, whatever the
    constant, so one with transform magnitude above the tolerance is a
    failure with its location reported, as is a cell with a NaN margin.
    The report's ``c_min`` is the largest ratio ``|T f| / stack`` over the cells with a
    positive stack (0 when there are none).

    For a kernel with a difference lattice ``|T f|`` comes from one FFT
    over the window, and every cell that can set ``c_min``,
    ``worst_margin``, ``n_failures`` or ``failures`` is re-summed
    directly, so the report is exactly that of the direct sum on every
    cell, which any other kernel gets.  An FFT value off the direct sum
    beyond its rounding bound raises NumericError.  Where the FFT and the
    re-sum, on top of what the process holds, would exceed physical
    memory, ParameterError is raised before the kernel is sampled.
    """
    grid = f.grid
    _check_dims(kernel, grid)
    if kernel.translation_invariant:
        _refuse_beyond_memory(
            f"the domination check of a {grid.dim}D grid with "
            f"{grid.cells_per_side} cells per side",
            _domination_bytes(grid, f.is_complex))
    stack = _paint_coefficients(family, [e.coefficient for e in family.entries])
    # constant * stack, but 0 where the stack is, also for an infinite constant
    bound = np.multiply(family.constant, stack, out=np.zeros_like(stack), where=stack != 0)
    lat = _offset_lattice(kernel, grid)
    if lat is None:
        tf = np.abs(apply_restricted(kernel, f).values)
    else:
        tf = _window_magnitudes(kernel, f, lat, stack, bound, tol)
    margin = tf - bound
    bad = ~(margin <= tol)          # NaN too
    pos = stack > 0
    c_min = float((tf[pos] / stack[pos]).max()) if pos.any() else 0.0
    failures = []
    for cell in np.argwhere(bad)[:10]:
        idx = tuple(int(v) for v in cell)
        failures.append({"cell": list(idx), "transform": float(tf[idx]),
                         "bound": float(bound[idx])})
    return DominationReport(
        passed=not bad.any(),
        constant=family.constant,
        c_min=c_min,
        tol=tol,
        n_checked=int(tf.size),
        n_failures=int(bad.sum()),
        worst_margin=float(margin.max()),
        failures=failures,
    )


def sparse_lp_ratio(family: SparseFamily, f: GridFunction, r: float = 1.0,
                    p: float = 2.0) -> float:
    """Operator-to-input norm ratio ``||A_{S,r} f||_p / ||f||_p``, for a
    finite ``p >= 1``."""
    return _norm_ratio(family, f, _entry_averages(family, f, r), p)


def _norm_ratio(family: SparseFamily, f: GridFunction, averages: list,
                p: float) -> float:
    """``sparse_lp_ratio`` given the r-power ``averages`` of the entries."""
    if not (p >= 1):
        raise ParameterError(f"norm exponent p must be >= 1, got {p}")
    denom = f.norm_lp(p)
    if denom == 0.0:
        raise UndefinedRatioError("input function vanishes; ratio undefined")
    painted = _paint_coefficients(family, averages)
    return GridFunction(family.grid, painted).norm_lp(p) / denom


def wq_profile(kernel: Kernel, f: GridFunction, cube: Cube, q: float = 1.0,
               lambdas: tuple = tuple(2.0**-j for j in range(1, 9))) -> dict:
    """Weak-threshold profile of the restricted transform on one cube.

    For each level fraction ``lam``, psi(lam) is the
    ``ceil(lam * cells(Q))``-th largest value of ``|T(f char_Q)|`` over
    the window cells of Q, in units of the q-average of f on Q.  Zero
    average yields an all-zero profile flagged degenerate; level counts
    beyond the available window cells yield zero.
    """
    grid = f.grid
    for lam in lambdas:
        if not (0 < lam <= 1):
            raise ParameterError(f"level fractions must lie in (0, 1], got {lam}")
    avg = avg_p(f, cube, q)
    clip = cube.window_clip(grid)
    if avg == 0.0 or clip is None:
        return {"lambdas": list(lambdas), "psi": [0.0] * len(lambdas),
                "avg": avg, "degenerate": True}
    tf = apply_restricted(kernel, f, targets=cube, source=cube)
    tvals = np.abs(tf.values[_box_slices(clip)]).ravel()
    svals = np.sort(tvals)[::-1]
    psi = []
    for lam in lambdas:
        k = math.ceil(lam * cube.cell_count)
        psi.append(float(svals[k - 1]) / avg if k <= svals.size else 0.0)
    return {"lambdas": list(lambdas), "psi": psi, "avg": avg, "degenerate": False}


def t1_testing_probe(kernel: Kernel, grid: Grid, cube: Cube | None = None,
                     seed: int = 0,
                     probs: tuple = (0.125, 0.25, 0.5, 0.75),
                     draws_per_prob: int = 2) -> ProbeResult:
    """Testing-condition probe: averages of the transposed transform of
    random indicator functions.

    Samples subsets E of the cube's window cells (each cell kept with the
    given inclusion probability; the empty and full subsets are always
    included), applies the transposed kernel to each indicator, and
    reports the largest cube-normalized average magnitude.  The kernel
    block on the cube's window cells is gathered once and multiplied by
    all indicator columns at once.  Sampling uses a counter-based
    generator, so one seed always yields one answer.
    """
    _check_dims(kernel, grid)
    cube = cube if cube is not None else grid.window_cube()
    base = CellSet.from_cube(grid, cube).window_mask()
    if not base.any():
        raise ParameterError(f"cube {cube} has no window cells to probe")
    kt = transpose_kernel(kernel)
    gen = np.random.Generator(np.random.Philox(seed))
    masks = [("empty", np.zeros(grid.shape, dtype=bool)), ("full", base)]
    for prob in probs:
        for d in range(draws_per_prob):
            pick = (gen.random(grid.shape) < prob) & base
            masks.append((f"p={prob}#{d}", pick))
    # every indicator vanishes off the cube, so the cube's cells are the
    # sources as well as the targets
    cells = np.argwhere(base)
    cols = np.stack([mask[base] for _, mask in masks], axis=1).astype(np.float64)
    sums = np.abs(_restricted_sums(kt, grid, cells, cube.window_clip(grid), cols)).sum(axis=0)
    samples = []
    best = 0.0
    for (label, mask), total in zip(masks, sums):
        stat = float(total * grid.cell_measure / cube.measure(grid))
        samples.append({"subset": label, "cells": int(mask.sum()), "stat": stat})
        best = max(best, stat)
    return ProbeResult(value=best, samples=samples)


def sharp_vs_maximal(kernel: Kernel, f: GridFunction, rp: float = 1.0,
                     alpha: int = 3) -> float:
    """Largest cell ratio of the truncated-oscillation maximal function to
    the rp-power maximal function.

    Cells where the denominator vanishes are skipped if the numerator is
    negligible there; a substantial numerator over a vanishing denominator,
    or no usable cell at all, raises UndefinedRatioError.
    """
    num = sharp_truncated(kernel, f, alpha=alpha).values
    den = hl_maximal(f, rp).values
    usable = den > 0
    if np.any(~usable & (num > 1e-10)):
        cell = np.argwhere(~usable & (num > 1e-10))[0]
        raise UndefinedRatioError(
            f"oscillation maximal is {num[tuple(cell)]:.3e} where the power "
            f"maximal vanishes at cell {tuple(int(v) for v in cell)}")
    if not usable.any():
        raise UndefinedRatioError("power maximal function vanishes everywhere")
    return float((num[usable] / den[usable]).max())
