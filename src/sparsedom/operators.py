"""Kernel operators on grid functions.

A kernel is a pointwise formula ``K(x, y)`` on physical coordinates,
together with an optional declared smoothness modulus ``omega`` and an
optional integral-smoothness exponent.  The discrete operator is

    T(f char_S)(x) = sum over source cells y != x of K(x_c, y_c) f(y) h**dim

with cell centers ``x_c, y_c``; the diagonal cell ``y = x`` is always
skipped.  ``RestrictedTransform`` precomputes per-target prefix sums, read
in two ways: ``apply_box`` gathers one table difference per (target, box)
query, and in 1D ``prefix_windows`` hands out strided views of the table,
so that a sweep reads whole families of truncated transforms with no
per-query gather and no copy of the table.  The two cube-sweep engines
of :mod:`sparsedom.maximal`, which the construction in
:mod:`sparsedom.sparse` and the maximal functions share, read it in both
ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .grid import CellSet, Cube, Grid, GridFunction

__all__ = [
    "Kernel",
    "RestrictedTransform",
    "apply_restricted",
    "transpose_kernel",
    "dini_constant",
    "dini_profile",
    "HormanderEstimate",
    "hormander_constant",
    "make_kernel",
    "kernel_names",
]


@dataclass(frozen=True)
class Kernel:
    """Pointwise kernel with optional declared regularity.

    ``fn(x, y)`` takes broadcastable arrays of shape ``(..., dim)`` and
    returns the kernel values.  ``modulus`` is a declared upper modulus:
    ``|K(x,y) - K(x',y)| <= modulus(t) / |x-y|**dim`` whenever
    ``t = |x-x'| / |x-y| <= 1/2`` and the points stay within the working
    scale of the kernel.  ``hormander_r`` records the exponent for which
    the kernel is advertised to satisfy the integral smoothness condition
    (``math.inf`` for the classical sup-form).
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    modulus: Callable[[np.ndarray], np.ndarray] | None = None
    hormander_r: float | None = None

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(x, y)


def transpose_kernel(kernel: Kernel) -> Kernel:
    """Swapped-argument kernel ``K*(x, y) = K(y, x)``.

    The declared modulus is dropped: regularity in the second argument is
    a separate property and is not implied.
    """
    return Kernel(
        name=kernel.name + ".transpose",
        dim=kernel.dim,
        fn=lambda x, y, _f=kernel.fn: _f(y, x),
        modulus=None,
        hormander_r=None,
    )


# ---------------------------------------------------------------------------
# direct restricted application

def _cell_center_coords(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Physical centers for integer cell coordinates of shape (k, dim)."""
    return (np.asarray(cells, dtype=np.float64) + 0.5) * grid.cell_width


def _check_finite_pairs(block: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                        kernel_name: str) -> None:
    bad = ~np.isfinite(block)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericError(
            f"kernel {kernel_name!r} evaluated non-finite at x={tuple(xs[i])}, "
            f"y={tuple(ys[j])}"
        )


def apply_restricted(kernel: Kernel, f: GridFunction,
                     targets: CellSet | Cube | None = None,
                     source: CellSet | Cube | None = None) -> GridFunction:
    """Apply the operator with source restricted to a cell set.

    Returns a grid function that is zero off the target cells.  Targets
    and sources outside the window are ignored (f vanishes there and no
    output cells exist there).
    """
    grid = f.grid
    if kernel.dim != grid.dim:
        raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
    if targets is None:
        targets = grid.window_cube()
    if source is None:
        source = grid.window_cube()
    if isinstance(targets, Cube):
        targets = CellSet.from_cube(grid, targets)
    if isinstance(source, Cube):
        source = CellSet.from_cube(grid, source)

    t_cells = targets.window_cells()
    s_cells = source.window_cells()
    out = np.zeros(grid.shape, dtype=np.complex128 if f.is_complex else np.float64)
    if len(t_cells) == 0 or len(s_cells) == 0:
        return GridFunction(grid, out)

    t_pts = _cell_center_coords(grid, t_cells)
    s_pts = _cell_center_coords(grid, s_cells)
    f_src = f.values[tuple(s_cells.T)]

    # chunk targets so the pair block stays modest
    chunk = max(1, (1 << 22) // max(1, len(s_cells)))
    results = np.empty(len(t_cells), dtype=out.dtype)
    for start in range(0, len(t_cells), chunk):
        sl = slice(start, min(start + chunk, len(t_cells)))
        with np.errstate(divide="ignore", invalid="ignore"):
            block = np.asarray(kernel.fn(t_pts[sl, None, :], s_pts[None, :, :]),
                               dtype=np.float64)
        same = np.all(t_cells[sl, None, :] == s_cells[None, :, :], axis=-1)
        block = np.where(same, 0.0, block)
        _check_finite_pairs(block, t_pts[sl], s_pts, kernel.name)
        results[sl] = block @ f_src
    results *= grid.cell_measure
    out[tuple(t_cells.T)] = results
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# prefix-sum accelerated transform

class RestrictedTransform:
    """Box-restricted applications of one kernel to one function.

    Precomputes the dense weight matrix ``K(x_c, y_c) h**dim`` (diagonal
    zeroed) and per-target prefix sums ``S`` of its product with ``f``, so
    that ``T(f char_B)(x)`` for any axis-aligned box ``B`` is a difference
    of table entries.  ``apply_box`` gathers those entries per query, at
    O(1) each.  In 1D, ``prefix_windows`` returns a read-only strided view
    of ``S`` whose rows follow a box that moves with its anchor; the 1D
    oscillation sweep of :mod:`sparsedom.maximal` reads all of its
    truncated transforms through such views, so it does no per-query
    gathers; its scratch is one (anchors x side) array of differences at a
    time, never a copy of the table.  Table memory is quadratic in the
    cell count; intended for desk-scale grids.
    """

    def __init__(self, kernel: Kernel, f: GridFunction):
        grid = f.grid
        if kernel.dim != grid.dim:
            raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
        self.kernel = kernel
        self.f = f
        self.grid = grid
        n = grid.cells_per_side
        cells = np.argwhere(np.ones(grid.shape, dtype=bool))
        pts = _cell_center_coords(grid, cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.asarray(kernel.fn(pts[:, None, :], pts[None, :, :]), dtype=np.float64)
        np.fill_diagonal(w, 0.0)
        _check_finite_pairs(w, pts, pts, kernel.name)
        w *= grid.cell_measure
        wf = w * f.values.ravel()[None, :]
        if grid.dim == 1:
            sat = np.zeros((n, n + 1), dtype=wf.dtype)
            np.cumsum(wf, axis=1, out=sat[:, 1:])
        else:
            sat = np.zeros((n * n, n + 1, n + 1), dtype=wf.dtype)
            sat[:, 1:, 1:] = wf.reshape(n * n, n, n).cumsum(axis=1).cumsum(axis=2)
        self._sat = sat
        self._n = n

    def row_index(self, cells: np.ndarray) -> np.ndarray:
        """Flat target indices for integer cell coordinates (k, dim)."""
        cells = np.asarray(cells)
        if self.grid.dim == 1:
            return cells.reshape(-1)
        return cells[..., 0] * self._n + cells[..., 1]

    def full(self) -> np.ndarray:
        """T(f) at every window cell, window-shaped array."""
        if self.grid.dim == 1:
            return self._sat[:, -1].copy()
        return self._sat[:, -1, -1].reshape(self.grid.shape).copy()

    def prefix_windows(self, row: int, row_step: int, col: int,
                       col_step: int, count: int, side: int) -> np.ndarray:
        """Read-only strided view of the 1D prefix table, with no copy.

        ``V[i, j] = S[row + row_step i + j, col + col_step i]`` for ``i <
        count`` and ``j < side``, where ``S[x, c] = T(f char_[0, c))(x)``.
        Each step is 0 or 1, so the difference of two such views with
        columns ``lo`` and ``hi`` is ``T(f char_[lo, hi))`` for a whole
        family of boxes at once: row ``i`` holds one box, moving with ``i``
        or not, at ``side`` consecutive targets that move with ``i`` or
        not.  Raises ParameterError when the view would leave the table.
        """
        n = self._n
        if self.grid.dim != 1:
            raise ParameterError("prefix_windows reads the 1D table only")
        if not (row_step in (0, 1) and col_step in (0, 1) and count >= 1
                and side >= 1 and 0 <= row and 0 <= col
                and row + row_step * (count - 1) + side <= n
                and col + col_step * (count - 1) <= n):
            raise ParameterError(
                f"windows ({row}+{row_step}i+j, {col}+{col_step}i) for "
                f"i < {count}, j < {side} leave the {n} x {n + 1} table")
        rs, cs = self._sat.strides
        view = np.ndarray((count, side), self._sat.dtype, buffer=self._sat,
                          offset=row * rs + col * cs,
                          strides=(row_step * rs + col_step * cs, rs))
        view.flags.writeable = False
        return view

    def apply_box(self, rows: np.ndarray, bounds) -> np.ndarray:
        """``T(f char_B)`` at flat target indices ``rows``.

        ``bounds`` holds per-axis half-open integer bounds, already
        intersected with whatever region the caller restricts to; they are
        clipped to the window here.  Bound arrays broadcast against
        ``rows``.
        """
        n = self._n
        if self.grid.dim == 1:
            (lo, hi), = bounds
            lo = np.clip(lo, 0, n)
            hi = np.clip(hi, 0, n)
            hi = np.maximum(lo, hi)
            return self._sat[rows, hi] - self._sat[rows, lo]
        (lo0, hi0), (lo1, hi1) = bounds
        lo0 = np.clip(lo0, 0, n); hi0 = np.maximum(lo0, np.clip(hi0, 0, n))
        lo1 = np.clip(lo1, 0, n); hi1 = np.maximum(lo1, np.clip(hi1, 0, n))
        s = self._sat
        return (s[rows, hi0, hi1] - s[rows, lo0, hi1]
                - s[rows, hi0, lo1] + s[rows, lo0, lo1])


# ---------------------------------------------------------------------------
# kernel statistics

def dini_profile(omega: Callable[[np.ndarray], np.ndarray], n_nodes: int = 4096,
                 t_min: float = 2.0**-40) -> dict:
    """Midpoint quadrature of ``integral_0^1 omega(t) dt / t`` in log scale.

    Returns value, node count, and a divergence flag.  Divergence is
    detected by cutoff growth: if shrinking the lower cutoff from
    ``sqrt(t_min)`` to ``t_min`` grows the integral by more than 10%, the
    tail is treated as non-summable and the value reported as inf.
    """
    if not (0 < t_min < 1):
        raise ParameterError(f"t_min must be in (0, 1), got {t_min}")
    s_max = -math.log(t_min)
    edges = np.linspace(0.0, s_max, n_nodes + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.asarray(omega(np.exp(-mids)), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise NumericError("modulus evaluated non-finite inside (0, 1)")
    ds = s_max / n_nodes
    contrib = vals * ds
    total = float(contrib.sum())
    half = float(contrib[mids <= s_max / 2].sum())
    divergent = total > 1e-12 and (total - half) > 0.1 * half
    return {
        "value": math.inf if divergent else total,
        "raw_value": total,
        "nodes": n_nodes,
        "t_min": t_min,
        "cutoff_growth": (total - half) / half if half > 0 else 0.0,
        "divergent": divergent,
    }


def dini_constant(omega: Callable[[np.ndarray], np.ndarray], n_nodes: int = 4096,
                  t_min: float = 2.0**-40) -> float:
    return dini_profile(omega, n_nodes=n_nodes, t_min=t_min)["value"]


@dataclass(frozen=True)
class HormanderEstimate:
    value: float
    tail: float
    k_max: int
    n_cubes: int
    coarsened: bool


def _stratified_indices(n: int, k: int) -> np.ndarray:
    """k evenly spread indices out of range(n), deterministic."""
    if n <= k:
        return np.arange(n)
    return np.unique(((np.arange(k) + 0.5) * n / k).astype(int))


def _annulus_centers(grid: Grid, outer: Cube, inner: Cube,
                     cell_cap: int) -> tuple[np.ndarray, float, bool]:
    """Cell or supercell centers tiling ``outer minus inner`` exactly.

    Coarsens to aligned supercells when the annulus exceeds ``cell_cap``
    cells; returns (centers, per-sample measure, coarsened flag).
    """
    dim = grid.dim
    count = outer.cell_count - inner.cell_count
    c = 1
    max_c = inner.side // (outer.side // inner.side)  # keeps lattices aligned
    while count // (c**dim) > cell_cap and 2 * c <= max(1, max_c):
        c *= 2
    axes = []
    for a in outer.anchor:
        axes.append(a + c * np.arange(outer.side // c) + c / 2.0)
    if dim == 1:
        coords = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        coords = np.stack([g0.ravel(), g1.ravel()], axis=-1)
    inside_inner = np.ones(len(coords), dtype=bool)
    for d in range(dim):
        lo, hi = inner.anchor[d], inner.anchor[d] + inner.side
        inside_inner &= (coords[:, d] > lo) & (coords[:, d] < hi)
    centers = coords[~inside_inner] * grid.cell_width
    return centers, (c * grid.cell_width) ** dim, c > 1


def _even_dilate(cube: Cube, factor: int) -> Cube:
    """Concentric dilation by a power-of-two factor (even side required)."""
    shift = cube.side * (factor - 1) // 2
    return Cube(tuple(a - shift for a in cube.anchor), cube.side * factor)


def hormander_constant(kernel: Kernel, r: float, grid: Grid, k_max: int = 16,
                       cell_cap: int = 2**14) -> HormanderEstimate:
    """Empirical integral-smoothness constant over a deterministic sample.

    For sampled cubes Q and cell pairs x, x' in the concentric half cube,
    sums ``|2^k Q|^(1/r') * ||K(x,.) - K(x',.)||_{L^r(annulus k)}`` over
    k = 1..k_max and reports the maximum, together with the last annulus
    term of the maximizing sum as a truncation tail estimate.

    Annuli live in physical space and may extend far beyond the window;
    beyond ``cell_cap`` cells they are integrated on an aligned supercell
    lattice (midpoint rule), which is recorded in the ``coarsened`` flag.
    Sampled sides start at 4 so the half cube stays lattice-anchored.
    """
    if not (r >= 1):
        raise ParameterError(f"exponent r must be >= 1, got {r}")
    n = grid.cells_per_side
    sides = [s for s in (4 << i for i in range(32)) if s <= max(4, n // 4)]
    best_total = 0.0
    best_tail = 0.0
    coarsened = False
    n_cubes = 0
    for s in sides:
        anchor_positions = sorted({max(0, min(n - s, round((i + 0.5) * n / 4) - s // 2))
                                   for i in range(4)})
        cubes = ([Cube((a,), s) for a in anchor_positions] if grid.dim == 1 else
                 [Cube((a0, a1), s) for a0 in anchor_positions for a1 in anchor_positions])
        for q in cubes:
            n_cubes += 1
            half = Cube(tuple(a + s // 4 for a in q.anchor), s // 2)
            half_cells = np.argwhere(np.ones((half.side,) * grid.dim, dtype=bool))
            half_cells = half_cells + np.asarray(half.anchor)
            pick = _stratified_indices(len(half_cells), 64)
            pts = _cell_center_coords(grid, half_cells[pick])
            if len(pts) < 2:
                continue
            totals = None
            last_term = None
            for k in range(1, k_max + 1):
                outer = _even_dilate(q, 2**k)
                inner = _even_dilate(q, 2 ** (k - 1)) if k > 1 else q
                centers, meas, coarse = _annulus_centers(grid, outer, inner, cell_cap)
                coarsened = coarsened or coarse
                with np.errstate(divide="ignore", invalid="ignore"):
                    rows = np.asarray(kernel.fn(pts[:, None, :], centers[None, :, :]),
                                      dtype=np.float64)
                if not np.all(np.isfinite(rows)):
                    raise NumericError(
                        f"kernel {kernel.name!r} non-finite on annulus k={k} of {q}")
                i_idx, j_idx = np.triu_indices(len(pts), k=1)
                outer_measure = outer.measure(grid)
                if math.isinf(r):
                    norms = np.abs(rows[i_idx] - rows[j_idx]).max(axis=1)
                    terms = outer_measure * norms
                else:
                    diffs = np.abs(rows[i_idx] - rows[j_idx]) ** r
                    norms = (diffs.sum(axis=1) * meas) ** (1.0 / r)
                    terms = outer_measure ** (1.0 - 1.0 / r) * norms
                totals = terms if totals is None else totals + terms
                last_term = terms
            idx = int(np.argmax(totals))
            if totals[idx] > best_total:
                best_total = float(totals[idx])
                best_tail = float(last_term[idx])
    return HormanderEstimate(value=best_total, tail=best_tail, k_max=k_max,
                             n_cubes=n_cubes, coarsened=coarsened)


# ---------------------------------------------------------------------------
# kernel catalog

def _hilbert_fn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 / (x[..., 0] - y[..., 0])


def _make_holder_fn(delta: float, scale: float):
    def fn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x[..., 0] - y[..., 0]
        pattern = 1.0 + 0.5 * np.sin(2.0 * np.pi * (np.abs(u) / scale) ** delta)
        return pattern / u
    return fn


def _log_wiggle(a: np.ndarray, k_terms: int = 40) -> np.ndarray:
    """Slowly oscillating sum with modulus ~ (1 + log(1/t))**-2 in its argument."""
    # one scratch array for every term: three fresh temporaries per term
    # made the kernel's cost depend on how the allocator's heap was left
    out = np.zeros_like(a, dtype=np.float64)
    term = np.empty_like(out)
    for k in range(1, k_terms + 1):
        np.multiply(2.0**k, a, out=term)
        np.sin(term, out=term)
        term /= k**3
        out += term
    return out


def _make_dini_stress_fn(scale: float):
    def fn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x[..., 0] - y[..., 0]
        with np.errstate(divide="ignore"):
            a = np.log(scale / np.abs(u))
        pattern = 1.0 + 0.5 * _log_wiggle(a)
        return pattern / u
    return fn


def _riesz2d_fn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    u0 = x[..., 0] - y[..., 0]
    u1 = x[..., 1] - y[..., 1]
    rr = u0 * u0 + u1 * u1
    return u0 / rr**1.5


def make_kernel(name: str, grid: Grid | None = None, **params) -> Kernel:
    """Construct a catalog kernel by name.

    Names: ``hilbert`` (1D, modulus 2t), ``holder`` (1D sign-pattern with
    modulus proportional to t**delta), ``dini_stress`` (1D, modulus
    proportional to (1 + log(1/t))**-2, summable but slower than any
    power), ``riesz2d`` (first-coordinate degree -2 kernel), ``zero``.
    The declared moduli are derived upper bounds, valid within the
    working scale ``ref_scale`` (default: four window lengths).
    """
    scale = float(params.pop("ref_scale", 4.0 * (grid.phys_side if grid else 1.0)))
    if name == "hilbert":
        k = Kernel("hilbert", 1, _hilbert_fn,
                   modulus=lambda t: 2.0 * np.asarray(t, dtype=np.float64),
                   hormander_r=math.inf)
    elif name == "holder":
        delta = float(params.pop("delta", 0.5))
        if not (0 < delta <= 1):
            raise ParameterError(f"holder delta must lie in (0, 1], got {delta}")
        k = Kernel(f"holder[{delta}]", 1, _make_holder_fn(delta, scale),
                   modulus=lambda t, d=delta: (3.0 + 2.0 * np.pi)
                   * np.asarray(t, dtype=np.float64) ** d,
                   hormander_r=math.inf)
    elif name == "dini_stress":
        k = Kernel("dini_stress", 1, _make_dini_stress_fn(scale),
                   modulus=lambda t: 8.0 / (1.0 + np.log(1.0 / np.clip(t, 1e-300, 1.0))) ** 2,
                   hormander_r=math.inf)
    elif name == "riesz2d":
        k = Kernel("riesz2d", 2, _riesz2d_fn,
                   modulus=lambda t: 40.0 * np.asarray(t, dtype=np.float64),
                   hormander_r=math.inf)
    elif name == "zero":
        dim = int(params.pop("dim", grid.dim if grid else 1))
        k = Kernel("zero", dim, lambda x, y: np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape),
                   modulus=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
                   hormander_r=math.inf)
    else:
        raise ParameterError(f"unknown kernel name {name!r}")
    if params:
        raise ParameterError(f"unused kernel parameters for {name!r}: {sorted(params)}")
    return k


def kernel_names() -> list[str]:
    return ["hilbert", "holder", "dini_stress", "riesz2d", "zero"]
