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
  restricted to the dilate of P.  One body serves both dimensions too.
  For real values, the corner cubes (those sticking out of the window on
  every axis, most cubes of a large grid) come from one running max and
  min per corner of the window (``_corner_oscillations``), shared by every
  side.  Per side, every other cube, and for complex values every cube, is
  read a block at a time: the anchors of each axis are cut into runs, and
  each block, a product of runs, is a set of strided views of the prefix
  table (``RestrictedTransform.prefix_windows``), with no gather per query
  and no copy of the table.

``sharp_truncated`` is the only user of that table, so it alone holds
memory quadratic in the cell count.  The sparse construction does not
sweep: it reads its two node statistics on the dyadic cubes below each
node only, in one pass per level (:func:`sparsedom.sparse._node_stats`),
and shares ``oscillation`` with the engines here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, _corner_sums, _sat_box_sums
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
        # sliding_window_view(vals, side, axis=axis), built directly: the
        # checks of the numpy helper cost more than the max at small sides
        vals = np.ascontiguousarray(vals)
        shape = list(vals.shape)
        shape[axis] -= side - 1
        vals = np.ndarray((*shape, side), vals.dtype, buffer=vals,
                          strides=(*vals.strides, vals.strides[axis])).max(axis=-1)
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


# cells per block of cubes that the oscillation sweep reads at once
_BLOCK_CELLS = 1 << 21


def _anchor_runs(n: int, side: int, shift: int) -> list[tuple[int, int]]:
    """Cut the anchors of one axis into runs, as (first anchor, count), on
    which the table windows of ``_truncated`` are strided views.

    Cuts go where a bound column starts or stops clipping and where the
    windows start or stop sticking out of the grid.  They depend on n, the
    side and the shift only, so every axis has the same runs.
    """
    a0, d_lo, d_hi = 1 - side, -shift * side, (shift + 1) * side
    cuts = sorted({a0, n} | {c for c in (0, n - side + 1, -d_lo, n - d_lo + 1,
                                         -d_hi, n - d_hi + 1)
                             if a0 < c < n})
    return [(p0, p1 - p0) for p0, p1 in zip(cuts[:-1], cuts[1:])]


def _truncated(rt: RestrictedTransform, outer: np.ndarray, block, side: int,
               shift: int) -> np.ndarray:
    """``T f - T(f char_{P+})`` on the table rows of every cube P of a block,
    shape ``counts + (side,) * dim``, for anchors given per axis as (first
    anchor, count) within one of ``_anchor_runs``.

    The cube anchored at a truncates the source to ``[a - shift side, a +
    (shift + 1) side)`` per axis, and each bound c reads prefix-table
    column ``clip(c, 0, n)``, as ``apply_box`` clips it.  Its table rows are its cells ``[a, a
    + side)`` or, where those stick out of the grid, the side cells at that
    edge, of which the ones in ``[a, a + side)`` are its own; sides are at
    most n, so no window is wider than the grid.  Within a run every row
    and column is constant or moves one per anchor, so each corner of the
    boxes is a strided view of the table, with no gather, and so is T f
    on the same rows, read from ``outer``, its C-contiguous window array.
    """
    n = rt.grid.cells_per_side
    rows, steps, counts, lo, hi = [], [], [], [], []
    for a, k in block:
        rows.append(min(max(a, 0), n - side))
        steps.append(int(0 <= a <= n - side))
        counts.append(k)
        c = a - shift * side
        lo.append((min(max(c, 0), n), int(0 <= c <= n)))
        c += (2 * shift + 1) * side
        hi.append((min(max(c, 0), n), int(0 <= c <= n)))

    def read(corner):
        cols, col_steps = zip(*corner)
        return rt.prefix_windows(rows, steps, cols, col_steps, counts, side)

    box = _corner_sums(read, lo, hi)
    strides = outer.strides
    t_on = np.ndarray((*counts, *(side,) * len(block)), outer.dtype, buffer=outer,
                      offset=sum(r * st for r, st in zip(rows, strides)),
                      strides=(*(s * st for s, st in zip(steps, strides)), *strides))
    return np.subtract(t_on, box, out=box)


def _window_oscillation(vals: np.ndarray, lo, hi) -> np.ndarray:
    """``oscillation`` over the own cells of each anchor's cube, for values
    of shape ``anchors + (side,) * dim`` whose own cells on axis d are
    ``lo[d][i]:hi[d][i]`` at anchor index i there, taken in row-major
    order."""
    dim = len(lo)
    lead = vals.shape[:dim]
    if vals.dtype.kind == "c":
        own = [[slice(*b) for b in zip(l.tolist(), h.tolist())] for l, h in zip(lo, hi)]
        return np.array([oscillation(vals[i + c])
                         for i, c in zip(itertools.product(*map(range, lead)),
                                         itertools.product(*own))]
                        ).reshape(lead)
    # one flat reduceat per cell axis, the last first, over the values in
    # row-major order: even segments are the own cells, odd ones span the
    # gaps between them
    big = small = vals.ravel()
    for d in reversed(range(dim)):
        rows = vals.shape[:dim + d]
        at = (1,) * d + (-1,) + (1,) * (len(rows) - d - 1)
        base = np.arange(0, big.size, vals.shape[dim + d]).reshape(rows)
        idx = np.empty(2 * base.size, dtype=np.intp)
        idx[0::2] = (base + lo[d].reshape(at)).ravel()
        idx[1::2] = (base + hi[d].reshape(at)).ravel()
        idx = idx[:-1] if idx[-1] == big.size else idx
        big = np.maximum.reduceat(big, idx)[::2]
        small = np.minimum.reduceat(small, idx)[::2]
    return (big - small).reshape(lead)


def _running(op, vals: np.ndarray, axis: int) -> None:
    """``op.accumulate`` along ``axis``, in place, as one ``op`` per slab
    across the other axes: numpy's accumulate runs one element at a time."""
    vals = np.moveaxis(vals, axis, 0)
    for i in range(1, len(vals)):
        op(vals[i - 1, ...], vals[i, ...], out=vals[i, ...])


def _corner_oscillations(rt: RestrictedTransform, outer: np.ndarray,
                         shift: int) -> np.ndarray:
    """Cell-wise max of the truncated oscillation over the corner cubes of
    every side, the cubes that stick out of the window on every axis, for
    real values.

    Where a side-m cube sticks out low on an axis, its dilate's lower bound
    clips to column 0 and its own cells are a prefix of the window; where
    it sticks out high, the upper bound clips to column n and its cells
    are a suffix.  Counted from that edge inward, its last own cell l and
    its free bound column ``min(l + 1 + shift m, n)`` (from column n down
    where it sticks out high) fix the cube.  So per corner of the window
    (low or high on each axis), ``G = T f - box`` at every free column is
    one table-shaped array for every side, and its running max and min
    along the cell axes, from that corner inward, hold the oscillation of
    every corner cube there: one gather per side.  The boxes are summed by
    ``_corner_sums`` in ``_truncated``'s order, so the values are those of
    the block path bit for bit.  ``G`` is built in even chunks of the first
    axis' columns, at most ``_BLOCK_CELLS // 2`` cells each, since it and
    its running max live together.
    """
    n, dim = rt.grid.cells_per_side, rt.grid.dim
    osc = np.zeros(rt.grid.shape)
    slab = n**dim * (n + 1) ** (dim - 1)    # cells per column of the first axis
    chunks = -(-(n + 1) * slab // max(1, _BLOCK_CELLS // 2))
    width = -(-(n + 1) // chunks)

    def read(corner):
        # cells first, as in the table, so that the sums and the running
        # max and min go along whole rows of columns
        cols, col_steps, counts = zip(*corner)
        return rt.prefix_windows((0,) * dim, (0,) * dim, cols, col_steps, counts,
                                 n).transpose(*range(dim, 2 * dim), *range(dim))

    def along(v, d):
        return v.reshape((1,) * d + (-1,) + (1,) * (dim - 1 - d))

    cells = np.arange(n - 1)
    for edges in itertools.product((False, True), repeat=dim):   # True: high
        inward = tuple(slice(None, None, -1) if e else slice(None) for e in edges)
        # per last own cell, the largest oscillation of a corner cube
        best = np.zeros((len(cells),) * dim)
        for k0 in range(0, n + 1, width):
            free = [(k0, 1, min(width, n + 1 - k0))] + [(0, 1, n + 1)] * (dim - 1)
            g = _corner_sums(read, [f if e else (0, 0, 1) for f, e in zip(free, edges)],
                             [(n, 0, 1) if e else f for f, e in zip(free, edges)])
            g = np.subtract(outer.reshape(outer.shape + (1,) * dim), g, out=g)[inward]
            spread = g.copy()
            for d in range(dim):
                _running(np.maximum, spread, d)
                _running(np.minimum, g, d)
            np.subtract(spread, g, out=spread)
            del g
            for m in range(2, n + 1):
                c = np.minimum(cells[:m - 1] + (1 + shift * m), n)
                # the last cells whose first-axis column is in the chunk, a
                # run: the columns rise with them (fall from n, if high)
                i0, i1 = (np.searchsorted(c, (n - k0 - width, n - k0), side="right")
                          if edges[0] else np.searchsorted(c, (k0, k0 + width)))
                if i0 == i1:
                    continue
                cols = [n - c if e else c for e in edges]
                cols[0] = cols[0][i0:i1] - k0
                vals = spread[(along(cells[i0:i1], 0),
                               *(along(cells[:m - 1], d) for d in range(1, dim)),
                               *(along(col, d) for d, col in enumerate(cols)))]
                at = best[(slice(i0, i1),) + (slice(m - 1),) * (dim - 1)]
                np.maximum(at, vals, out=at)
            del spread         # before the next chunk's two arrays come
        # a corner cube covers the cells up to its last own cell on each axis
        for d in range(dim):
            _running(np.maximum, best[(slice(None),) * d + (slice(None, None, -1),)], d)
        at = osc[inward][(slice(n - 1),) * dim]
        np.maximum(at, best, out=at)
    return osc


def _oscillation_sweep(rt: RestrictedTransform, shift: int) -> np.ndarray:
    """Truncated-oscillation maximal function on the window.

    A side-m cube P anchored at a truncates the source to the window minus
    ``[a - shift m, a + (shift + 1) m)`` per axis, the dilate of P by
    ``2 shift + 1``.  For real values the corner cubes of every side come
    first, from ``_corner_oscillations``.  Per side, the anchors are a
    product of per-axis runs (``_anchor_runs``), the runs of the first axis
    split so that no block holds more than ``_BLOCK_CELLS`` cells; each
    block left, which for real values is every block with an anchor inside
    the window on some axis, is read as strided views of the table
    (``_truncated``).  A complex value set has no running diameter, so for
    complex values the corner blocks are read too.
    """
    grid = rt.grid
    n, dim = grid.cells_per_side, grid.dim
    outer = rt.full()
    real = outer.dtype.kind != "c"
    osc = _corner_oscillations(rt, outer, shift) if real else np.zeros(grid.shape)
    for side in range(1, n + 1):
        a = np.arange(1 - side, n)
        # each anchor's own cells, counted from the first of its table rows
        # (its cells, or the side cells at the edge its cells stick out of)
        own_lo, own_hi = np.maximum(a - (n - side), 0), np.minimum(a, 0) + side
        # skipped corner anchors keep 0, below every oscillation
        stat = np.zeros((len(a),) * dim)
        runs = _anchor_runs(n, side, shift)
        per = max(1, _BLOCK_CELLS // (len(a) ** (dim - 1) * side**dim))
        split = [(b + c, min(per, k - c)) for b, k in runs for c in range(0, k, per)]
        for block in itertools.product(split, *[runs] * (dim - 1)):
            if real and all(b + k <= 0 or b > n - side for b, k in block):
                continue
            at = tuple(slice(b + side - 1, b + side - 1 + k) for b, k in block)
            stat[at] = _window_oscillation(_truncated(rt, outer, block, side, shift),
                                           [own_lo[i] for i in at],
                                           [own_hi[i] for i in at])
        np.maximum(osc, _max_over_cubes(stat, side), out=osc)
    return osc


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
