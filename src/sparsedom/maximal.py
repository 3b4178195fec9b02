"""Local maximal functions as sweeps over lattice cubes.

The two sweep engines here are the only cube sweeps in the package.  The
construction in :mod:`sparsedom.sparse` runs them on every node with the
dilated node cube Q+ as the source box; ``hl_maximal`` and
``sharp_truncated`` run them with the window as the source box and sides
1..n, so that they visit every lattice cube meeting the window, not just
dyadic ones.  An engine takes a cell range, a source box containing it
(both as per-axis half-open bounds inside the window) and a list of
sides.  For each side it visits every cube of that side meeting the cell
range, computes one statistic of ``f`` restricted to the source box, and
gives each cell of the range the largest statistic over the visited
cubes containing it.

* ``_power_average_sweep``: the s-power average over the cube, normalized
  by the full cube measure also for cubes sticking out of the window (f
  reads as zero there).  One body serves both dimensions.
* ``_oscillation_sweep``: the oscillation, across the window cells of the
  cube P, of the transform of ``f`` restricted to the source box minus
  the transform restricted to the source box and the dilate of P.  It has
  two bodies.  The 1D one reads the truncated transforms as strided views
  of the prefix table (``RestrictedTransform.prefix_windows``), with no
  gather per query; gathering them one query per (cell, cube) made 1D
  node statistics several times slower.  The 2D one gathers them through
  ``apply_box`` in chunks, since the strided reader exists for the 1D
  table only.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .grid import GridFunction
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


def _power_average_sweep(f: GridFunction, s: float, cells, box,
                         sides) -> np.ndarray:
    """Power-average maximal function of ``f char_box`` on the cells."""
    grid = f.grid
    dim, cm, hw = grid.dim, grid.cell_measure, grid.cell_width
    sat = f.power_sat(s)
    # inclusion-exclusion over the corners, all-hi first: S[hi] - S[lo] in
    # 1D, S[hi, hi] - S[lo, hi] - S[hi, lo] + S[lo, lo] in 2D; axis d of a
    # corner reads lo when bit d is set
    corners = [([c >> d & 1 for d in range(dim)], bin(c).count("1") % 2)
               for c in range(1, 2**dim)]
    out = np.zeros(tuple(hi - lo for lo, hi in cells))
    for side in sides:
        lo, hi = [], []
        for d, ((c_lo, c_hi), (b_lo, b_hi)) in enumerate(zip(cells, box)):
            # every cube meets a cell of the range, which lies in the box, so
            # b_lo <= lo < hi <= b_hi: no clip to the window, no empty boxes
            a = np.arange(c_lo - side + 1, c_hi)
            lo_d = np.maximum(a, b_lo)
            hi_d = np.minimum(a + side, b_hi)
            shape = (-1,) + (1,) * (dim - 1 - d)    # broadcast to an outer grid
            lo.append(lo_d.reshape(shape))
            hi.append(hi_d.reshape(shape))
        sums = sat[tuple(hi)]
        for bits, odd in corners:
            term = sat[tuple(lo[d] if b else hi[d] for d, b in enumerate(bits))]
            sums = sums - term if odd else sums + term
        # rounding leaves tiny negatives where |f|**s vanishes; their
        # s-th root would be nan
        np.maximum(sums, 0.0, out=sums)
        avgs = (sums * cm / (side * hw) ** dim) ** (1.0 / s)
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


def _oscillation_sweep_1d(rt: RestrictedTransform, outer: np.ndarray, cells,
                          box, sides, shift: int) -> np.ndarray:
    n = rt.grid.cells_per_side
    (qlo, qhi), = cells
    (c_lo, c_hi), = box

    # The anchor-a window of each side truncates the box to [a + d_lo,
    # a + d_hi), and each bound reads prefix-table column clip(a + d, c_lo,
    # c_hi), the box bounds, as apply_box clips them.  Cut the anchors where
    # a clip starts or stops binding and where windows start or stop
    # sticking out of the grid.  On each piece every bound column is
    # constant or moves one per anchor, so the windows of S[., lo(a)] and
    # S[., hi(a)] are strided views of the table.  A window that sticks out
    # reads the side cells at that edge of the grid instead, of which the
    # cells in [a, a + side) are its own.  Sides are at most n, so no
    # window is wider than the grid.
    def bound(c: int, row: int, step: int, k: int, side: int) -> np.ndarray:
        return rt.prefix_windows(row, step, min(max(c, c_lo), c_hi),
                                 int(c_lo <= c <= c_hi), k, side)

    osc = np.zeros(qhi - qlo)
    for side in sides:
        a0 = qlo - side + 1
        d_lo, d_hi = -shift * side, (shift + 1) * side
        cuts = sorted({a0, qhi} | {c for c in (0, n - side + 1, c_lo - d_lo,
                                               c_hi - d_lo + 1, c_lo - d_hi,
                                               c_hi - d_hi + 1)
                                   if a0 < c < qhi})
        t_on = sliding_window_view(outer, side)
        stat = np.empty(qhi - a0)
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


def _oscillation_sweep_2d(rt: RestrictedTransform, outer: np.ndarray, cells,
                          box, sides, shift: int) -> np.ndarray:
    n = rt.grid.cells_per_side
    (q0l, q0h), (q1l, q1h) = cells
    (b0l, b0h), (b1l, b1h) = box

    # the outer transform on the cells that side-`big` cubes reach: big - 1
    # past the cell range on each side of each axis, clipped to the window
    big = max(sides)
    e0 = np.clip(np.arange(q0l - big + 1, q0h + big - 1), 0, n - 1)
    e1 = np.clip(np.arange(q1l - big + 1, q1h + big - 1), 0, n - 1)
    reach = outer[np.ix_(e0, e1)]

    osc = np.zeros((q0h - q0l, q1h - q1l))
    for side in sides:
        a0 = np.arange(q0l - side + 1, q0h)
        a1 = np.arange(q1l - side + 1, q1h)
        off = np.arange(side)
        big0, big1 = len(a0), len(a1)
        t_on_all = sliding_window_view(reach, (side, side))[
            big - side:big - side + big0, big - side:big - side + big1]
        stat = np.empty((big0, big1))
        chunk = max(1, (1 << 21) // max(1, big1 * side * side))
        for i in range(0, big0, chunk):
            a0b = a0[i:i + chunk][:, None, None, None]
            a1b = a1[None, :, None, None]
            c0 = a0b + off[None, None, :, None]
            c1 = a1b + off[None, None, None, :]
            valid = (c0 >= 0) & (c0 < n) & (c1 >= 0) & (c1 < n)
            rows = np.clip(c0, 0, n - 1) * n + np.clip(c1, 0, n - 1)
            t_on = t_on_all[i:i + chunk]
            bounds = ((np.maximum(a0b - shift * side, b0l),
                       np.minimum(a0b + (shift + 1) * side, b0h)),
                      (np.maximum(a1b - shift * side, b1l),
                       np.minimum(a1b + (shift + 1) * side, b1h)))
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


def _oscillation_sweep(rt: RestrictedTransform, outer: np.ndarray, cells, box,
                       sides, shift: int) -> np.ndarray:
    """Truncated-oscillation maximal function on the cells.

    ``outer`` holds ``T(f char_box)`` on every window cell, window-shaped.
    A side-m cube P anchored at a truncates the source to the box minus
    ``[a - shift m, a + (shift + 1) m)`` per axis, the dilate of P by
    ``2 shift + 1``.
    """
    body = _oscillation_sweep_1d if rt.grid.dim == 1 else _oscillation_sweep_2d
    return body(rt, outer, cells, box, sides, shift)


def hl_maximal(f: GridFunction, s: float = 1.0) -> GridFunction:
    """Cube maximal function of the s-power average.

    At each cell: the max over lattice cubes containing the cell of
    ``avg_p(f, cube, s)``.  Averages of cubes sticking out of the window
    keep the full-cube normalization (the function is zero outside).
    """
    if not (s > 0):
        raise ParameterError(f"power average exponent must be positive, got {s}")
    grid = f.grid
    window = grid.window_cube().bounds()
    return GridFunction(grid, _power_average_sweep(
        f, s, window, window, range(1, grid.cells_per_side + 1)))


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
    grid = f.grid
    rt = RestrictedTransform(kernel, f)
    window = grid.window_cube().bounds()
    return GridFunction(grid, _oscillation_sweep(
        rt, rt.full(), window, window, range(1, grid.cells_per_side + 1),
        (alpha - 1) // 2))
