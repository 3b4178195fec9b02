"""Local maximal functions as sweeps over lattice cubes.

``hl_maximal`` and ``sharp_truncated`` are the cube maximal functions of
the package: at every window cell, the largest statistic over every
lattice cube of side 1..n that contains it, not just dyadic ones.  Each
runs one sweep engine, which visits every cube meeting the window, and
paints each cube's statistic onto its own cells through one reverse
doubling table: the value goes to the 2^dim corners of the cube's
doubling cover on its level (``_paint``), and one push-down at the end
gives each cell the max over the cubes containing it (``_push_down``).
That is O(2^dim) per cube and O(n^dim log^dim n) in all.

* ``_power_average_sweep``: the s-power average of ``f`` over the cube,
  normalized by the full cube measure also for cubes sticking out of the
  window (f reads as zero there), for a batch of cubes at a time (a run of
  sides, or of anchors of one side).  One body serves both dimensions.
* ``_oscillation_sweep``: the oscillation, across the window cells of the
  cube P, of the transform of ``f`` minus the transform of ``f``
  restricted to the dilate of P.  One body serves both dimensions too.
  For real values, every cube whose dilate is clipped on every axis (its
  low bound at column 0 or its high bound at column n), most cubes of a
  large grid, is read from one table pass per corner type
  (``_clipped_oscillations``): the transform minus the box sums at every
  free column, with doubling levels of its max and min along the first
  cell axis, so that each cube reads one entry per end there (and, in 2D,
  its own cells along the second axis).  Every other cube, and for
  complex values every cube, is read a block at a time: the anchors of
  each axis are cut into runs, and each block, a product of runs, is a
  set of strided views of the prefix table
  (``RestrictedTransform.prefix_windows``), with no gather per query and
  no copy of the table.

``sharp_truncated`` is the only user of that table, so it alone holds
memory quadratic in the cell count.  The sparse construction does not
sweep: it reads its two node statistics on the dyadic cubes below each
node only, in one pass per level (:func:`sparsedom.sparse._node_stats`),
and shares ``oscillation`` with the engines here.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridFunction, _corner_sums, _power_sat, _sat_box_sums
from .operators import Kernel, RestrictedTransform, _refuse_beyond_memory

__all__ = [
    "hl_maximal",
    "sharp_truncated",
    "oscillation",
]


# cells per block of cubes that the oscillation sweep reads at once; the
# table pass and the batches of cubes are sized from it too
_BLOCK_CELLS = 1 << 21


def _doubling_levels(n: int) -> int:
    """Doubling levels of an axis of n cells: 2^k <= n for k < levels."""
    return n.bit_length()


def _cover(lo, hi, n: int):
    """The doubling cover of boxes of cells ``[lo, hi)``, given per axis as
    integer arrays of one shape: the flat index of each box's level tuple
    k, where 2^k_d is the largest power of two within its length on axis
    d, and the flat cell indices of its 2^dim corners, the first cells of
    the 2^k-sided boxes flush with each of its ends, which cover it."""
    level, corners = 0, [0]
    for l, h in zip(lo, hi):
        k = np.frexp(h - l)[1].astype(np.intp) - 1
        level = level * _doubling_levels(n) + k
        ends = (l, h - np.left_shift(1, k))
        corners = [c * n + x for c in corners for x in ends]
    return level, corners


def _paint(table: np.ndarray, cover, vals: np.ndarray) -> None:
    """Give each box of ``cover`` (``_cover``) its value in the reverse
    doubling table: the max of every value at each corner's entry on the
    box's level.  ``_push_down`` then gives every cell the max over the
    boxes containing it."""
    level, corners = cover
    flat, cells = table.reshape(-1), table[(0,) * (table.ndim // 2)].size
    for c in corners:
        np.maximum.at(flat, level * cells + c, vals)


def _push_down(table: np.ndarray) -> np.ndarray:
    """Cell values of a reverse doubling table, shape ``(levels,) * dim +
    (n,) * dim``: the entry at level k and cell x covers the cells [x, x +
    2^k) per axis, so each level hands its entries down to its two halves
    one axis at a time, in place."""
    dim = table.ndim // 2
    for _ in range(dim):
        # the level axis first, its cell axis next
        v = np.moveaxis(table, dim, 1)
        for k in range(len(v) - 1, 0, -1):
            h = 1 << (k - 1)
            np.maximum(v[k - 1], v[k], out=v[k - 1])
            np.maximum(v[k - 1, h:], v[k, :-h], out=v[k - 1, h:])
        table = table[0]
    return table


def _side_groups(cubes: np.ndarray, cap: int):
    """Cut the sides, indexed 0.. with ``cubes`` cubes each, into runs of
    consecutive sides, as (first, stop), with at most ``cap`` cubes per
    run unless one side has more; runs without a cube are left out."""
    ends = np.cumsum(cubes)
    j0 = 0
    while j0 < len(ends):
        before = ends[j0] - cubes[j0]
        j1 = max(j0 + 1, int(np.searchsorted(ends, before + cap, side="right")))
        if ends[j1 - 1] > before:
            yield j0, j1
        j0 = j1


def _expand(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The anchors of runs given as (first anchor, count), run by run in
    row-major order."""
    first, count = first.ravel(), count.ravel()
    start = np.cumsum(count) - count
    return np.repeat(first - start, count) + np.arange(count.sum())


def _grow(anchors: list, group: np.ndarray, first: np.ndarray, count: np.ndarray):
    """Add an axis to tuples of anchors, given per axis with each tuple's
    group: the tuple of group g becomes one tuple per anchor of the runs
    ``(first[g], count[g])``, arrays of shape (groups, runs), in order."""
    count = count[group]
    per = count.sum(axis=1)
    return ([np.repeat(a, per) for a in anchors] + [_expand(first[group], count)],
            np.repeat(group, per))


def _sweep_bytes(grid: Grid) -> int:
    """Bytes ``_power_average_sweep`` allocates at its peak: the reverse
    doubling table, the prefix table of ``|f|**s`` and the powers it sums,
    and 24 words per cube of its largest batch (anchors, bounds, averages,
    cover corners), ``_BLOCK_CELLS >> 8`` or one row of the largest side,
    ``(2n - 1)**(dim - 1)`` cubes."""
    n, dim = grid.cells_per_side, grid.dim
    return 8 * (_doubling_levels(n) ** dim * n**dim + 2 * (n + 1) ** dim
                + 24 * max((2 * n - 1) ** (dim - 1), _BLOCK_CELLS >> 8))


def _power_average_sweep(f: GridFunction, s: float) -> np.ndarray:
    """Power-average maximal function of ``f`` over every lattice cube
    meeting the window, the averages of a batch of cubes at a time: of a
    run of sides, cut along the anchors of the first axis so that a batch
    holds at most ``_BLOCK_CELLS >> 8`` cubes (or one row of one side)."""
    grid = f.grid
    n, dim = grid.cells_per_side, grid.dim
    _refuse_beyond_memory(f"the power-average sweep of a {dim}D grid with "
                          f"{n} cells per side", _sweep_bytes(grid))
    sat = _power_sat(f, s)
    table = np.zeros((_doubling_levels(n),) * dim + grid.shape)
    sides = np.arange(1, n + 1)[:, None]
    # up to 8192 cubes a batch: four times the table pass's, as no
    # transform table shares the memory, and a batch costs about 0.1 ms
    cap = max(1, _BLOCK_CELLS >> 8)
    for j0, j1 in _side_groups((n + sides[:, 0] - 1) ** dim, cap):
        m = sides[j0:j1]
        # the most anchors a side of the run has per axis; a side with more
        # cubes than the cap, alone in its run, is cut into runs of anchors
        # of the first axis
        rows = n + j1 - 1
        if (n + j0) ** dim > cap:
            rows = max(1, cap // rows ** (dim - 1))
        # each side's measure in Python floats, as one side at a time had it
        measure = np.array([(m_ * grid.cell_width) ** dim for m_ in range(j0 + 1, j1 + 1)])
        first, count = 1 - m, n + m - 1
        for r0 in range(0, n + j1 - 1, rows):
            anchors, side = _grow([], np.arange(j1 - j0), first + r0,
                                  np.minimum(count - r0, rows))
            for _ in range(dim - 1):
                anchors, side = _grow(anchors, side, first, count)
            lo = [np.maximum(a, 0) for a in anchors]
            cube_side = m[side, 0]
            hi = [np.minimum(a + cube_side, n) for a in anchors]
            avgs = (_sat_box_sums(sat, lo, hi) * grid.cell_measure
                    / measure[side]) ** (1.0 / s)
            _paint(table, _cover(lo, hi, n), avgs)
    return _push_down(table)


def _anchor_runs(n: int, side: int, shift: int) -> list[tuple[int, int]]:
    """Cut the anchors of one axis into runs, as (first anchor, count), on
    which the table windows of ``_truncated`` are strided views.

    Cuts go where a bound column starts or stops clipping (at column 0 or
    n) and where the windows start or stop sticking out of the grid, so in
    each run each bound is clipped at every anchor or at none.  They
    depend on n, the side and the shift only, so every axis has the same
    runs.
    """
    a0, d_lo, d_hi = 1 - side, -shift * side, (shift + 1) * side
    cuts = sorted({a0, n} | {c for c in (0, n - side + 1, 1 - d_lo, n - d_lo,
                                         1 - d_hi, n - d_hi)
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
        lo.append((min(max(c, 0), n), int(0 < c < n)))
        c += (2 * shift + 1) * side
        hi.append((min(max(c, 0), n), int(0 < c < n)))

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


def _clipped_runs(n: int, shift: int, high: bool, lengths, cols):
    """The anchors on one axis, per side m = 1..n, of the side-m cubes
    whose dilate is clipped there at column 0 or, with ``high``, only at
    column n; whose own cells there number ``lengths[0]`` to ``lengths[1]
    - 1``; and whose free bound column (the high one, clipped at n, or with
    ``high`` the low one) is in ``[cols[0], cols[1])``.  Three runs per
    side, for the cubes sticking out low, inside the window and sticking
    out high: first anchors and counts, arrays of shape (n, 3)."""
    m = np.arange(1, n + 1)[:, None]
    (w0, w1), (c0, c1) = lengths, cols
    if high:
        first = np.maximum(np.maximum(shift * m + 1, n - (shift + 1) * m), c0 + shift * m)
        last = np.minimum(n - 1, c1 - 1 + shift * m)
    else:
        first = np.maximum(1 - m, c0 - (shift + 1) * m)
        last = np.minimum(shift * m, n - 1)
        if c1 <= n:
            last = np.minimum(last, c1 - 1 - (shift + 1) * m)
    # own cells: a + m sticking out low, m inside, n - a sticking out high
    inside = (w0 <= m) & (m < w1)
    first = np.maximum(first, np.hstack([w0 - m, np.where(inside, 0, n),
                                         np.maximum(n - w1 + 1, n - m + 1)]))
    last = np.minimum(last, np.hstack([np.minimum(w1 - 1 - m, -1), n - m,
                                       np.full_like(m, n - w0)]))
    return first, np.maximum(last - first + 1, 0)


def _double(op, vals: np.ndarray, h: int) -> None:
    """One doubling step along the first axis of a C-contiguous array, in
    place: ``vals[x] = op(vals[x], vals[x + h])`` for every x with ``2 h``
    cells from x to the axis' end.  Each input is read ahead of the output
    in the same layout, so numpy needs no copy."""
    last = max(len(vals) - 2 * h + 1, 0)
    op(vals[:last], vals[h:h + last], out=vals[:last])


def _clipped_oscillations(rt: RestrictedTransform, outer: np.ndarray, shift: int,
                          table: np.ndarray) -> None:
    """Paint into ``table`` (``_paint``) the truncated oscillation of every
    cube whose dilate is clipped on every axis, for real values.

    Where a cube's dilate is clipped at column 0 on an axis, its box there
    is ``[0, c)`` for its free column ``c = min(a + (shift + 1) m, n)``;
    where it is clipped at column n only, the box is ``[c, n)`` for ``c = a
    - shift m``.  Either way its own cells lie within the box.  So per
    corner type (low or high on each axis), ``G = T f - box`` at every free
    column is one table-shaped array for every side, summed by
    ``_corner_sums`` in ``_truncated``'s order, so bit for bit the values
    of the block path.  Doubling levels of its max and min along the first
    cell axis, built in place one after the other, give a cube whose own
    cells number 2^k to 2^(k+1) - 1 there its extremes over them from the
    level-k entries at its two ends, at its free columns.  Along the other
    cell axes each own cell is read (one ``reduceat`` per end): levels
    nested over every axis would cost a pass over ``G`` per level tuple,
    which in 2D is far more than the cubes read.

    ``G`` is cells first and built in even chunks of the first axis'
    columns, its rows cut to those the chunk's boxes can hold; it and its
    max levels stay within ``_BLOCK_CELLS // 4`` cells.  Per level, the
    cubes are generated from their runs of anchors per axis
    (``_clipped_runs``) a batch of sides at a time, at most as many reads
    per end as ``_BLOCK_CELLS >> 10`` cubes of side n make.
    """
    n, dim = rt.grid.cells_per_side, rt.grid.dim
    slab = n**dim * (n + 1) ** (dim - 1)    # cells per column of the first axis
    chunks = -(-(n + 1) * slab // max(1, _BLOCK_CELLS // 8))
    width = -(-(n + 1) // chunks)
    cap = max(1, _BLOCK_CELLS >> 10) * n ** (dim - 1)
    sides = np.arange(1, n + 1)

    def read(corner):
        # cells first, as in the table, so that the doubling steps go along
        # whole rows of columns
        cols, col_steps, counts = zip(*corner)
        return rt.prefix_windows((0,) * dim, (0,) * dim, cols, col_steps, counts,
                                 n).transpose(*range(dim, 2 * dim), *range(dim))

    for edges in itertools.product((False, True), repeat=dim):   # True: high
        rest = [_clipped_runs(n, shift, e, (1, n + 1), (0, n + 1)) for e in edges[1:]]
        for c0 in range(0, n + 1, width):
            c1 = min(c0 + width, n + 1)
            runs = [_clipped_runs(n, shift, edges[0], (1 << k, 2 << k), (c0, c1))
                    for k in range(_doubling_levels(n))]
            if not any(count.any() for _, count in runs):
                continue
            # the rows a box of the chunk can hold: below its last column,
            # or from its first one if high
            r0, r1 = (c0, n) if edges[0] else (0, c1 - 1)
            free = [(c0, 1, c1 - c0)] + [(0, 1, n + 1)] * (dim - 1)
            g = _corner_sums(lambda corner: read(corner)[r0:r1],
                             [f if e else (0, 0, 1) for f, e in zip(free, edges)],
                             [(n, 0, 1) if e else f for f, e in zip(free, edges)])
            g = np.subtract(outer[r0:r1].reshape(g.shape[:dim] + (1,) * dim), g, out=g)
            # rows by (cells past the first axis, columns), flat
            small = g.reshape(r1 - r0, -1)
            big = small.copy()
            cols = g[(0,) * dim].size
            for k, run in enumerate(runs):
                if k:
                    _double(np.maximum, big, 1 << (k - 1))
                    _double(np.minimum, small, 1 << (k - 1))
                per = [run, *rest]
                reads = np.prod([count.sum(axis=1) for _, count in per], axis=0)
                for j0, j1 in _side_groups(reads * sides ** (dim - 1), cap):
                    anchors, side = [], np.arange(j1 - j0)
                    for first, count in per:
                        anchors, side = _grow(anchors, side, first[j0:j1], count[j0:j1])
                    m = sides[j0 + side]
                    lo = [np.maximum(a, 0) for a in anchors]
                    hi = [np.minimum(a + m, n) for a in anchors]
                    at = 0
                    for d, (a, e) in enumerate(zip(anchors, edges)):
                        c = a - shift * m if e else np.minimum(a + (shift + 1) * m, n)
                        at = at * g.shape[dim + d] + (c - c0 if d == 0 else c)
                    ends = (lo[0] - r0, hi[0] - r0 - (1 << k))
                    if dim > 1:
                        # each own cell past the first axis, cube by cube
                        cells, cube = [], np.arange(len(m))
                        for l, h in zip(lo[1:], hi[1:]):
                            cells, cube = _grow(cells, cube, l[:, None], (h - l)[:, None])
                        seg = np.flatnonzero(np.diff(cube, prepend=-1))
                        at = at[cube] + np.ravel_multi_index(cells, (n,) * (dim - 1)) * cols
                        ends = [x[cube] for x in ends]
                    tops, bottoms = [], []
                    for x in ends:
                        i = x * small.shape[1] + at
                        tops.append(big.ravel()[i])
                        bottoms.append(small.ravel()[i])
                    if dim > 1:
                        tops = [np.maximum.reduceat(t, seg) for t in tops]
                        bottoms = [np.minimum.reduceat(b, seg) for b in bottoms]
                    vals = np.maximum(*tops)
                    vals -= np.minimum(*bottoms)
                    _paint(table, _cover(lo, hi, n), vals)
            del g, small, big        # before the next chunk's arrays come


def _oscillation_sweep(rt: RestrictedTransform, shift: int) -> np.ndarray:
    """Truncated-oscillation maximal function on the window.

    A side-m cube P anchored at a truncates the source to the window minus
    ``[a - shift m, a + (shift + 1) m)`` per axis, the dilate of P by
    ``2 shift + 1``.  For real values the table pass
    (``_clipped_oscillations``) reads every cube whose dilate is clipped on
    every axis, which takes in every cube of a side above ``(n - 2) / (2
    shift + 1)``.  The other cubes, and for complex values (which have no
    extremes to tabulate) every cube, are read per side a block at a time:
    the anchors are a product of per-axis runs (``_anchor_runs``), the runs
    of the first axis split so that no block holds more than
    ``_BLOCK_CELLS`` cells, and each block is a set of strided views of the
    table (``_truncated``), at O(m^dim) per cube.  Each oscillation is
    painted onto its cube's own cells (``_paint``), and one push-down at
    the end reads the cells off.
    """
    grid = rt.grid
    n, dim = grid.cells_per_side, grid.dim
    outer = rt.full()
    real = outer.dtype.kind != "c"
    table = np.zeros((_doubling_levels(n),) * dim + grid.shape)
    if real:
        _clipped_oscillations(rt, outer, shift, table)
    # for real values, only the sides with an anchor whose dilate has both
    # bounds free on an axis, shift side < a < n - (shift + 1) side
    for side in range(1, (n - 2) // (2 * shift + 1) + 1 if real else n + 1):
        a = np.arange(1 - side, n)
        # each anchor's own cells, counted from the first of its table rows
        # (its cells, or the side cells at the edge its cells stick out of)
        own_lo, own_hi = np.maximum(a - (n - side), 0), np.minimum(a, 0) + side
        stat = np.zeros((len(a),) * dim)
        read = np.zeros(stat.shape, dtype=bool)
        runs = _anchor_runs(n, side, shift)
        per = max(1, _BLOCK_CELLS // (len(a) ** (dim - 1) * side**dim))
        split = [(b + c, min(per, k - c)) for b, k in runs for c in range(0, k, per)]
        for block in itertools.product(split, *[runs] * (dim - 1)):
            if real and all(b <= shift * side or b >= n - (shift + 1) * side
                            for b, _ in block):
                continue
            at = tuple(slice(b + side - 1, b + side - 1 + k) for b, k in block)
            stat[at] = _window_oscillation(_truncated(rt, outer, block, side, shift),
                                           [own_lo[i] for i in at],
                                           [own_hi[i] for i in at])
            read[at] = True
        cells = [np.broadcast_to(x.reshape((-1,) + (1,) * (dim - 1 - d)), stat.shape)[read]
                 for x in (np.maximum(a, 0), np.minimum(a + side, n)) for d in range(dim)]
        _paint(table, _cover(cells[:dim], cells[dim:], n), stat[read])
    return _push_down(table)


def hl_maximal(f: GridFunction, s: float = 1.0) -> GridFunction:
    """Cube maximal function of the s-power average.

    At each cell: the max over lattice cubes containing the cell of
    ``avg_p(f, cube, s)``.  Averages of cubes sticking out of the window
    keep the full-cube normalization (the function is zero outside).
    A sweep beyond physical memory is refused up front (ParameterError).
    """
    if not (0 < s < math.inf):
        raise ParameterError(f"power average exponent must be finite and positive, got {s}")
    return GridFunction(f.grid, _power_average_sweep(f, s))


def _diameter_candidates(v: np.ndarray) -> np.ndarray:
    """The complex values that can end a diameter of the set ``v``.

    Along the 16 directions pi j / 16, the widths w_j = max - min of
    Re(z e^{-i pi j / 16}) bracket the diameter D: the direction of a
    farthest pair a - b is within pi / 32 of one of them, whose width is at
    least D cos(pi / 32), so w <= D <= w / cos(pi / 32), w the largest
    width, and only a direction of width at least w cos(pi / 32) can be
    that one.  Every value lies in the disc of radius D about b, so along
    it a is within D (1 - cos(pi / 32)) <= w (1 / cos(pi / 32) - 1) of the
    largest projection, and b of the smallest.  The values kept are those
    within that slack of an end of such a direction, the slack and the
    widths widened by a few ulps of max |z| for the rounding of the
    projections, which keeps every pair that rounds to the diameter.  A
    value compared with nan is kept, so a set that is not finite keeps them
    all; a set of one repeated value keeps one.
    """
    if not (v != v[0]).any():
        return v[:1]
    turns = [(math.cos(math.pi * j / 16), math.sin(math.pi * j / 16)) for j in range(16)]
    ends = []
    for c, s in turns:
        proj = c * v.real + s * v.imag
        ends.append((proj.max(), proj.min()))
    width = max(top - bottom for top, bottom in ends)
    ulps = 64 * np.finfo(float).eps * np.abs(v).max()
    near = math.cos(math.pi / 32)
    slack = width * (1 / near - 1) + ulps
    inner = np.ones(v.size, dtype=bool)
    for (c, s), (top, bottom) in zip(turns, ends):
        if not top - bottom < width * near - ulps:
            proj = c * v.real + s * v.imag
            inner &= (proj < top - slack) & (proj > bottom + slack)
    return v[~inner]


def oscillation(values: np.ndarray) -> float:
    """Diameter of a value set: max - min for real data, max pairwise
    distance for complex data.

    The complex diameter is the max of ``|a - b|`` over every pair, taken
    in blocks of at most 2^21 differences; above 4096 values, over the
    pairs of :func:`_diameter_candidates` only, which hold every pair that
    attains it, so the value is the same.
    """
    v = np.asarray(values).ravel()
    if v.size <= 1:
        return 0.0
    if not np.iscomplexobj(v):
        return float(v.max() - v.min())
    if v.size > 4096:
        v = _diameter_candidates(v)
    rows = min(512, max(1, (1 << 21) // v.size))
    best = 0.0
    for start in range(0, v.size, rows):
        block = v[start:start + rows]
        best = max(best, float(np.abs(block[:, None] - v[None, :]).max()))
    return best


def sharp_truncated(kernel: Kernel, f: GridFunction,
                    alpha: int = 3) -> GridFunction:
    """Oscillation maximal function of the dilated-truncation transform.

    At each cell: the max over lattice cubes Q containing it of the
    oscillation, across the window cells of Q, of the transform applied
    to ``f`` with the alpha-dilation of Q removed from the source.
    """
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Integral)
            or alpha < 1 or alpha % 2 == 0):
        raise ParameterError(f"dilation factor must be an odd int >= 1, got {alpha!r}")
    return GridFunction(f.grid, _oscillation_sweep(RestrictedTransform(kernel, f),
                                                   (alpha - 1) // 2))
