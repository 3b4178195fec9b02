"""Local maximal functions as sweeps over lattice cubes.

``hl_maximal`` and ``sharp_truncated`` are the cube maximal functions of
the package: at every window cell, the largest statistic over every
lattice cube of side 1..n that contains it, not just dyadic ones.  Each
runs one sweep engine, which visits every cube meeting the window, side
by side, and gives each cell the largest statistic over the cubes
containing it (a sliding max over anchors).

* ``_power_average_sweep``: the s-power average of ``f`` over the cube,
  normalized by the full cube measure also for cubes sticking out of the
  window (f reads as zero there).  One body serves both dimensions.
* ``_oscillation_sweep``: the oscillation, across the window cells of the
  cube P, of the transform of ``f`` minus the transform of ``f``
  restricted to the dilate of P.  It has two bodies.  The 1D one reads the
  truncated transforms as strided views of the prefix table
  (``RestrictedTransform.prefix_windows``), with no gather per query;
  gathering them one query per (cell, cube) made the full 1D sweep several
  times slower.  The 2D one gathers them through ``apply_box`` in chunks,
  since the strided reader exists for the 1D table only.

Both engines read the dense prefix table, so ``sharp_truncated`` holds
memory quadratic in the cell count.  The sparse construction does not
sweep: it reads its two node statistics on the dyadic cubes below each
node only, in one pass per level (:func:`sparsedom.sparse._node_stats`),
from FFT transforms where the kernel has a difference lattice; it shares
``oscillation`` with the engines here.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .grid import GridFunction, _sat_box_sums
from .operators import Kernel, RestrictedTransform, _stratified_indices

__all__ = [
    "hl_maximal",
    "sharp_truncated",
    "oscillation",
]


def _max_over_cubes(vals: np.ndarray, side: int) -> np.ndarray:
    """Cell-wise max over the anchors whose side-``side`` cube covers the
    cell, for ``vals`` indexed by anchor from ``side - 1`` cells before
    the first cell on every axis."""
    for axis in range(vals.ndim):
        vals = sliding_window_view(vals, side, axis=axis).max(axis=-1)
    return vals


def _power_average_sweep(f: GridFunction, s: float) -> np.ndarray:
    """Power-average maximal function of ``f`` over every lattice cube
    meeting the window."""
    grid = f.grid
    n, dim = grid.cells_per_side, grid.dim
    sat = f.power_sat(s)
    # the anchors of each axis, broadcast to an outer grid
    shapes = [(-1,) + (1,) * (dim - 1 - d) for d in range(dim)]
    out = np.zeros(grid.shape)
    for side in range(1, n + 1):
        a = np.arange(1 - side, n)
        lo, hi = np.maximum(a, 0), np.minimum(a + side, n)
        sums = _sat_box_sums(sat, [lo.reshape(sh) for sh in shapes],
                             [hi.reshape(sh) for sh in shapes])
        avgs = (sums * grid.cell_measure
                / (side * grid.cell_width) ** dim) ** (1.0 / s)
        np.maximum(out, _max_over_cubes(avgs, side), out=out)
    return out


def _row_oscillation(x: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """``oscillation(x[i, lo[i]:hi[i]])`` for every row of a C-contiguous
    2D array, each slice non-empty."""
    if np.iscomplexobj(x):
        return np.array([oscillation(r[l:h]) for r, l, h in zip(x, lo, hi)])
    # one reduceat over the flat rows: even segments are the slices, odd
    # ones span the gaps between them
    base = np.arange(len(x)) * x.shape[1]
    idx = np.empty(2 * len(x), dtype=np.intp)
    idx[0::2] = base + lo
    idx[1::2] = base + hi
    idx = idx[:-1] if idx[-1] == x.size else idx
    flat = x.ravel()
    return (np.maximum.reduceat(flat, idx)[::2]
            - np.minimum.reduceat(flat, idx)[::2])


def _oscillation_sweep_1d(rt: RestrictedTransform, outer: np.ndarray,
                          shift: int) -> np.ndarray:
    n = rt.grid.cells_per_side

    # The anchor-a window of each side truncates the source to [a + d_lo,
    # a + d_hi), and each bound reads prefix-table column clip(a + d, 0, n),
    # as apply_box clips it.  Cut the anchors where a clip starts or stops
    # binding and where windows start or stop sticking out of the grid.  On
    # each piece every bound column is constant or moves one per anchor, so
    # the windows of S[., lo(a)] and S[., hi(a)] are strided views of the
    # table.  A window that sticks out reads the side cells at that edge of
    # the grid instead, of which the cells in [a, a + side) are its own.
    # Sides are at most n, so no window is wider than the grid.
    def bound(c: int, row: int, step: int, k: int, side: int) -> np.ndarray:
        return rt.prefix_windows(row, step, min(max(c, 0), n),
                                 int(0 <= c <= n), k, side)

    osc = np.zeros(n)
    for side in range(1, n + 1):
        a0 = 1 - side
        d_lo, d_hi = -shift * side, (shift + 1) * side
        cuts = sorted({a0, n} | {c for c in (0, n - side + 1, -d_lo,
                                             n - d_lo + 1, -d_hi, n - d_hi + 1)
                                 if a0 < c < n})
        t_on = sliding_window_view(outer, side)
        stat = np.empty(n - a0)
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            k = p1 - p0
            step = int(0 <= p0 <= n - side)
            row = min(max(p0, 0), n - side)
            trunc = (bound(p0 + d_hi, row, step, k, side)
                     - bound(p0 + d_lo, row, step, k, side))
            # t_on - (S[hi] - S[lo]), rows broadcast when the cells stay put
            np.subtract(t_on[row:row + (k if step else 1)], trunc, out=trunc)
            a = np.arange(p0, p1)
            first = row + step * np.arange(k)     # cell of column 0, per anchor
            stat[p0 - a0:p1 - a0] = _row_oscillation(
                trunc, np.maximum(a, 0) - first, np.minimum(a + side, n) - first)
        np.maximum(osc, sliding_window_view(stat, side).max(axis=-1), out=osc)
    return osc


def _oscillation_sweep_2d(rt: RestrictedTransform, outer: np.ndarray,
                          shift: int) -> np.ndarray:
    n = rt.grid.cells_per_side

    # the transform on the cells that cubes of any side reach: n - 1 past
    # the window on each side of each axis, clipped to the window
    e = np.clip(np.arange(1 - n, 2 * n - 1), 0, n - 1)
    reach = outer[np.ix_(e, e)]

    osc = np.zeros((n, n))
    for side in range(1, n + 1):
        a = np.arange(1 - side, n)
        off = np.arange(side)
        big = len(a)
        t_on_all = sliding_window_view(reach, (side, side))[
            n - side:n - side + big, n - side:n - side + big]
        stat = np.empty((big, big))
        chunk = max(1, (1 << 21) // max(1, big * side * side))
        for i in range(0, big, chunk):
            a0b = a[i:i + chunk][:, None, None, None]
            a1b = a[None, :, None, None]
            c0 = a0b + off[None, None, :, None]
            c1 = a1b + off[None, None, None, :]
            valid = (c0 >= 0) & (c0 < n) & (c1 >= 0) & (c1 < n)
            rows = np.clip(c0, 0, n - 1) * n + np.clip(c1, 0, n - 1)
            t_on = t_on_all[i:i + chunk]
            bounds = ((a0b - shift * side, a0b + (shift + 1) * side),
                      (a1b - shift * side, a1b + (shift + 1) * side))
            trunc = t_on - rt.apply_box(rows, bounds)
            if np.iscomplexobj(trunc):
                k = side * side
                stat[i:i + chunk] = np.array([
                    oscillation(tv[vm])
                    for tv, vm in zip(trunc.reshape(-1, k), valid.reshape(-1, k))
                ]).reshape(trunc.shape[:2])
            else:
                stat[i:i + chunk] = (
                    np.where(valid, trunc, -np.inf).max(axis=(2, 3))
                    - np.where(valid, trunc, np.inf).min(axis=(2, 3)))
        np.maximum(osc, _max_over_cubes(stat, side), out=osc)
    return osc


def _oscillation_sweep(rt: RestrictedTransform, shift: int) -> np.ndarray:
    """Truncated-oscillation maximal function on the window.

    A side-m cube P anchored at a truncates the source to the window minus
    ``[a - shift m, a + (shift + 1) m)`` per axis, the dilate of P by
    ``2 shift + 1``.
    """
    body = _oscillation_sweep_1d if rt.grid.dim == 1 else _oscillation_sweep_2d
    return body(rt, rt.full(), shift)


def hl_maximal(f: GridFunction, s: float = 1.0) -> GridFunction:
    """Cube maximal function of the s-power average.

    At each cell: the max over lattice cubes containing the cell of
    ``avg_p(f, cube, s)``.  Averages of cubes sticking out of the window
    keep the full-cube normalization (the function is zero outside).
    """
    if not (s > 0):
        raise ParameterError(f"power average exponent must be positive, got {s}")
    return GridFunction(f.grid, _power_average_sweep(f, s))


def oscillation(values: np.ndarray, exact_cap: int = 4096) -> float:
    """Diameter of a value set: max - min for real data, max pairwise
    distance for complex data.

    The complex diameter is exact up to ``exact_cap`` values; beyond that
    a deterministic 64-element stratified subset is used, which can only
    under-report.
    """
    v = np.asarray(values).ravel()
    if v.size <= 1:
        return 0.0
    if not np.iscomplexobj(v):
        return float(v.max() - v.min())
    if v.size > exact_cap:
        v = v[_stratified_indices(v.size, 64)]
    best = 0.0
    for start in range(0, v.size, 512):
        block = v[start:start + 512]
        best = max(best, float(np.abs(block[:, None] - v[None, :]).max()))
    return best


def sharp_truncated(kernel: Kernel, f: GridFunction,
                    alpha: int = 3) -> GridFunction:
    """Oscillation maximal function of the dilated-truncation transform.

    At each cell: the max over lattice cubes Q containing it of the
    oscillation, across the window cells of Q, of the transform applied
    to ``f`` with the alpha-dilation of Q removed from the source.
    """
    if alpha < 1 or alpha % 2 == 0:
        raise ParameterError(f"dilation factor must be odd and >= 1, got {alpha}")
    return GridFunction(f.grid, _oscillation_sweep(RestrictedTransform(kernel, f),
                                                   (alpha - 1) // 2))
