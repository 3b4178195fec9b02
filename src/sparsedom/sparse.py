"""Sparse cube families that dominate a kernel transform pointwise.

The construction is local-to-global.  For one node cube Q with dilation
Q+ = alpha Q, the node statistics on the window cells of Q are

* the transform of ``f`` restricted to Q+,
* a dyadic power-average maximal function: at a cell, the largest
  s-power average of ``f`` over P+ among the cubes P below Q that hold it
  and that the stopping time can select,
* a dyadic oscillation maximal function: over the same cubes, the largest
  oscillation on P of ``T(f char_{Q+}) - T(f char_{P+})``.

These are the only cubes the source paper's chain step reads the two
statistics on, and they are dyadic subcubes of the cover cube R the node
grows from (or single cells of it), so their transforms and averages
depend only on the cube, not on the node that asks.  The cover cubes of
one side (the support box and its first ring, then each further ring)
share a lattice, and so do their levels, so :func:`_side_levels` computes
these once per cover side, over the window cells the side's cover cubes
meet: their own transforms as a box of T f from one FFT over the window
(``LatticeTransform.full``; every cover cube R has ``support(f) subset
alpha R``, so T(f char_{R+}) is T f there), one
``dilate_transforms(start, count, side)`` call of
:class:`~sparsedom.operators.LatticeTransform` per level, and the power
averages of every level cube as differences of the build's prefix table
of ``|f|**s``, folded into one running maximum per side.
Every node below reads boxes of these: its power-average statistic is a
box of its side's running maximum, and :func:`_node_stats` takes the
oscillations in one pass per level above single cells, O(m log m) cells
per node of side m in 1D.  The power averages only cut the exceptional
set, while every coefficient is an :func:`avg_p`, a direct sum.

Memory stays linear in the cell count for every kernel: a cover side
keeps two arrays on its window cells, the transforms of the side and of
each level and the running maxima of every side above one, freed when the
pass below its cover cubes is done.  For a kernel with a difference
lattice (every catalog kernel: those that declare translation invariance)
the window transform is one FFT of ``2n`` points per axis, and a level
call sums the small levels directly and the others by batched FFTs,
O(m log m) per level in 1D, in slabs of bounded size, and each cube of a
call gets the same bits as from a call of its own; for any other kernel
both sum directly through the kernel, the window as ``apply_restricted``
does and a level cube by cube.

Cells where any statistic exceeds its threshold form the exceptional set.
In quantile mode the thresholds are chosen as order statistics, so the
exceptional set provably occupies at most ``1 / 2**(dim+2)`` of Q's cells;
in fixed mode the caller supplies threshold ratios and violations are
flagged but not fatal.  A dyadic stopping time selects the maximal
subcubes where the exceptional set has density above ``1 / 2**(dim+1)``,
so each carries at most half its measure of it; the node keeps the
complement as its witness, and the subcubes are nodes of the next depth.
The exceptional set and the witness are cell sets boxed by the node cube,
so a node's bookkeeping costs O(m**dim) cells, not a window-shaped array.

The trees below the cover cubes of one side grow a depth at a time
(:func:`_side_pass`).  The nodes of a depth with a nonzero average and
window cells are grouped by side, and each group is grown in batches of
at most ``_SLAB_CELLS`` cube cells (or one node) by :func:`_node_batch`.
A batch reads every node on one box, the union of its nodes' window cells
as offsets from each anchor, so cover cubes that stick out of the window
in different ways share a batch; a node's cells of the box outside the
window are masked out of its thresholds, exceptional set and node
coefficient (a one-node batch's box is its own window cells).  A batch's
statistics are boxes of the level data stacked along a first axis, its
thresholds one ``np.partition`` per statistic, its stopping time one scan
of the stacked masks a level of subcubes at a time by reshape-sums, and
its witnesses, invariants and coefficients reductions over the stack.
Each node's path of child indices from its cover cube puts the records
and entries in the depth-first preorder of the recursion, each node's
edges in the order the stopping time selects its children.

Every coefficient is read from the level data, in units of the node
average: a node's is the largest ``|T(f char_{Q+})|`` on its witness, an
edge's the largest ``|T(f char_{Q+}) - T(f char_{P+})|`` on the child P
(whose transform counts as 0 where its average is 0).  An average is 0
only where f vanishes on the node's dilate; one that underflows to 0 over
a nonzero f raises NumericError (:func:`_skipped_node`).
Telescoping along the tree bounds ``|T f|`` on every witness by the
largest coefficient times the sparse sum; that constant is checked
verbatim by :func:`sparsedom.verify.check_domination`.

Globalization covers the window by the support box plus rings of
congruent cubes around it; every cover cube R satisfies
``support(f) subset alpha R``, so the local bound on R already controls
the full transform there, and R's own transform is read off T f.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, DensityError, NumericError, ParameterError
from .grid import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    _box_slices,
    _levels,
    _power_sat,
    _sat_box_sums,
    avg_p,
    dilate,
)
from .maximal import oscillation
from .operators import (_PAIR_CHUNK, _SLAB_CELLS, _SUM_GROUP, Kernel, LatticeTransform,
                        _check_dims, _refuse_beyond_memory, _support_bounds)

__all__ = [
    "PipelineConfig",
    "SparseEntry",
    "SparseFamily",
    "NodeRecord",
    "ConstantLedger",
    "DominationResult",
    "local_cz_decomposition",
    "partition_cover",
    "build_sparse_domination",
    "support_box",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the sparse construction.

    ``mode`` picks how exceptional thresholds arise: ``"quantile"``
    derives them per node from order statistics (measure bound holds by
    construction), ``"fixed"`` uses the given ``c_fixed`` and ``a_fixed``
    multiples of the node average and flags measure violations.
    ``max_depth`` caps recursion depth per cover cube; capped nodes keep
    their whole cube as witness, exceptional cells included.
    """

    alpha: int = 3
    s: float = 1.0
    mode: str = "quantile"
    c_fixed: float | None = None
    a_fixed: float | None = None
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 3 or self.alpha % 2 == 0:
            raise ParameterError(f"alpha must be odd and >= 3, got {self.alpha}")
        if not (0 < self.s < math.inf):
            raise ParameterError(f"average exponent s must be finite and positive, got {self.s}")
        if self.mode not in ("quantile", "fixed"):
            raise ParameterError(f"mode must be 'quantile' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            if self.c_fixed is None or self.a_fixed is None:
                raise ParameterError("fixed mode needs c_fixed and a_fixed")
            if self.c_fixed <= 0 or self.a_fixed <= 0:
                raise ParameterError("fixed thresholds must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {self.max_depth}")

    def eta(self, dim: int) -> float:
        """The share of its cube's cells every witness of the family holds,
        ``1 / (2 alpha**dim)``."""
        return 1.0 / (2.0 * self.alpha**dim)


@dataclass(frozen=True)
class SparseEntry:
    """One member of the sparse family: dilated cube, witness, coefficient."""

    cube: Cube
    witness: CellSet
    coefficient: float
    base_cube: Cube
    depth: int
    flags: tuple[str, ...] = ()


@dataclass
class SparseFamily:
    grid: Grid
    eta: float
    entries: list[SparseEntry]
    constant: float
    meta: dict = field(default_factory=dict)


@dataclass
class NodeRecord:
    """One node of the recursion.  ``exceed_counts`` holds how many of its
    window cells each statistic (transform, power average, oscillation)
    made exceptional."""

    cube: Cube
    depth: int
    avg: float
    c_ratio: float
    a_effective: float
    omega_count: int
    exceed_counts: tuple[int, int, int]
    flags: tuple[str, ...]
    edges: list[dict] = field(default_factory=list)


@dataclass
class ConstantLedger:
    """How the final constant was assembled, node by node.

    ``per_depth`` aggregates the nodes of each depth; its
    ``exceed_counts`` sums their cells made exceptional by the transform,
    the power average and the oscillation, in that order.
    ``constant_source`` names the first node or edge term, in record order,
    that attains the constant; it is None for zero input."""

    mode: str
    alpha: int
    s: float
    eta: float
    final_c: float
    n_nodes: int
    n_edges: int
    max_depth_seen: int
    flag_counts: dict
    per_depth: list[dict]
    constant_source: dict | None


@dataclass
class DominationResult:
    family: SparseFamily
    ledger: ConstantLedger
    records: list[NodeRecord]


# ---------------------------------------------------------------------------
# node statistics

def _level_runs(lo: int, hi: int, anchor: int, p: int):
    """The cells ``lo <= x < hi`` of one axis cut by the cubes of side ``p``
    anchored at ``anchor + p k``: the anchor of the first cube meeting them,
    and where each cube's run of those cells starts (counted from ``lo``)
    and how many cells it holds."""
    first = anchor + (lo - anchor) // p * p
    cubes = first + p * np.arange((hi - 1 - first) // p + 1)
    starts = np.maximum(cubes, lo) - lo
    return first, starts, np.minimum(cubes + p, hi) - lo - starts


@functools.lru_cache(maxsize=4096)
def _node_runs(offset: int, length: int, p: int):
    """Where the cubes of side ``p`` anchored at a node's anchor start their
    runs of the cells of a batch's box on one axis, counted from the first
    of them, and how many cells each holds, for a box that starts
    ``offset`` cells past the anchor and holds ``length``; read-only, and
    cached, since the batches of a build repeat a few of these."""
    _, starts, counts = _level_runs(offset, offset + length, 0, p)
    starts.flags.writeable = counts.flags.writeable = False
    return starts, counts


class _SideLevels(NamedTuple):
    """What the cover cubes of one side compute once for every node below
    them.

    The cover cubes of a side share a lattice, and so do their levels, so
    a level cube's data depend only on the cube, not on the cover cube or
    the node that asks.  ``sides`` lists the cover side and then its
    levels (:func:`_levels`).  ``transforms[i]`` holds T(f char_{P+}) on the
    window cells of the box the cover cubes meet, box-shaped from the cell
    ``origin``, each cell taking the transform of the cube P of side
    ``sides[i]`` that holds it; ``transforms[0]`` is T f, which is that on
    the cells of every cover cube.  ``maxima[i]``, for every side but the
    last, holds at each of those cells the largest s-power average of f
    over P+ (normalized by its full measure) among the level cubes P below
    a cube of side ``sides[i]`` that hold the cell.  Both arrays are
    read-only: a batch of nodes copies its statistics out of them.
    """

    origin: tuple[int, ...]
    sides: tuple[int, ...]
    transforms: np.ndarray
    maxima: np.ndarray


def _side_levels(rt: LatticeTransform, f: GridFunction, sat: np.ndarray,
                 cubes: list[Cube], s: float) -> _SideLevels | None:
    """The level data of cover cubes of one side, or None where none of
    them has window cells; the builder passes those with a nonzero average.

    Each node below a cover cube R is a dyadic subcube of R (or a single
    cell of it), so its side is R's or one of R's levels, and the cubes the
    stopping time can select below it are level cubes of R.  Every cover
    cube has ``support(f) subset alpha R`` (:func:`partition_cover`), so
    T(f char_{R+}) is T f, and the side's own transforms are a box of one
    window transform (``LatticeTransform.full``).  One
    ``dilate_transforms`` call per level, over the window cells of the
    cubes with a transform, gives every other transform these nodes read;
    the power averages of each level's cubes, as differences of ``sat``,
    the prefix table of ``|f|**s``, are spread to their cells and folded
    into the running maxima ``MS_q = max(averages of level p, MS_p)``, p
    the first level below q.
    """
    grid = f.grid
    n, dim = grid.cells_per_side, grid.dim
    alpha = rt.alpha
    shift = (alpha - 1) // 2
    clips = [clip for clip in (c.window_clip(grid) for c in cubes) if clip is not None]
    if not clips:
        return None
    box = [(min(c[d][0] for c in clips), max(c[d][1] for c in clips))
           for d in range(dim)]
    sides = (cubes[0].side, *_levels(cubes[0].side))
    # before the level data, so that the FFT's arrays and theirs do not meet
    window = rt.full()
    shape = tuple(hi - lo for lo, hi in box)
    transforms = np.empty((len(sides),) + shape, f.values.dtype)
    maxima = np.empty((len(sides) - 1,) + shape)
    transforms[0] = window[_box_slices(box)]
    del window
    for i, p in enumerate(sides[1:], 1):
        # per axis: the anchor of the first cube of side p meeting the box,
        # the number of cubes, the cells each holds, and the bounds of
        # their dilates, shaped to broadcast
        first, count, runs, lo, hi = [], [], [], [], []
        for d, ((c_lo, c_hi), a) in enumerate(zip(box, cubes[0].anchor)):
            anchor, starts, cells = _level_runs(c_lo, c_hi, a, p)
            plo = anchor + (np.arange(starts.size) - shift) * p
            along = (1,) * d + (-1,) + (1,) * (dim - 1 - d)
            first.append(anchor)
            count.append(starts.size)
            runs.append(cells)
            lo.append(np.clip(plo, 0, n).reshape(along))
            hi.append(np.clip(plo + alpha * p, 0, n).reshape(along))
        rt.dilate_transforms(first, count, p, out=transforms[i])
        sums = _sat_box_sums(sat, lo, hi)
        avgs = (sums * grid.cell_measure
                / (alpha * p * grid.cell_width) ** dim) ** (1.0 / s)
        maxima[i - 1] = _repeat(avgs, runs)
    # from the finest level up: each side's maxima take its first level's
    for i in range(len(maxima) - 2, -1, -1):
        np.maximum(maxima[i], maxima[i + 1], out=maxima[i])
    transforms.flags.writeable = False
    maxima.flags.writeable = False
    return _SideLevels(tuple(lo for lo, _ in box), sides, transforms, maxima)


def _batch_box(grid: Grid, cubes: list[Cube]) -> tuple[tuple[int, int], ...]:
    """The box of a batch of node cubes of one side, each with window
    cells: per axis, the offsets from a cube's anchor where the union of
    their window cells starts and ends."""
    n, side = grid.cells_per_side, cubes[0].side
    return tuple((max(0, -max(a)), min(side, n - min(a)))
                 for a in zip(*(c.anchor for c in cubes)))


def _box_cells(levels: _SideLevels, grid: Grid, cubes: list[Cube], box):
    """Flat indices into one level of a side's level data (``transforms``
    or ``maxima`` of :class:`_SideLevels`) of the cells of a batch of
    cubes on their box (:func:`_batch_box`), box-shaped per cube and
    stacked along a first axis, and where those cells lie outside the
    window (None where none does).

    A cell outside the window takes the index of the window cell nearest it
    on each axis.  That cell lies in every cube that holds the first and
    meets the window, so on a level cube of the node the copies change no
    maximum or minimum over its window cells."""
    n, dim, k = grid.cells_per_side, len(box), len(cubes)
    # the level box is C-contiguous: a cell's index steps by these per axis
    steps = [math.prod(levels.transforms.shape[2 + d:]) for d in range(dim)]
    anchors = np.array([c.anchor for c in cubes])
    cells, inside = 0, True
    for d, ((lo, hi), o, step) in enumerate(zip(box, levels.origin, steps)):
        x = (anchors[:, d, None] + np.arange(lo, hi)).reshape(
            (k,) + (1,) * d + (-1,) + (1,) * (dim - 1 - d))
        if x.min() < 0 or x.max() >= n:
            inside = inside & (x >= 0) & (x < n)
            x = np.clip(x, 0, n - 1)
        cells = cells + (x - o) * step
    return cells, None if inside is True else ~np.broadcast_to(inside, cells.shape)


def _node_stats(levels: _SideLevels, grid: Grid, cubes: list[Cube], box):
    """On the cells of a batch of node cubes of one side on their box
    (:func:`_batch_box`), stacked along a first axis: T(f char_{Q+})
    (signed, box-shaped), and, flattened per node, the two dyadic maximal
    functions of f char_{Q+}, -inf outside the window; and where the box's
    cells lie outside the window (None where none does).  On a cell outside
    the window the transform is a copy of a window cell's
    (:func:`_box_cells`).

    At a cell x, each is the largest over the cubes P the stopping time can
    select below Q with x in P (one per level of :func:`_levels`) of the
    s-power average of f over P+ (normalized by the full measure of P+),
    and of the oscillation over P's window cells of
    ``T(f char_{Q+}) - T(f char_{P+})``.  Since P+ lies in Q+, f char_{Q+}
    is f on P+.  The level cubes tile Q, so a cell takes its cube's value
    on each level; the averages are boxes of the side's running maximum,
    and a single cell, the last level, has no oscillation.  The nodes'
    level cubes cut the box alike, so each level's oscillations are one
    ``reduceat`` per axis over the stack (and for complex values a
    diameter per level cube over each node's window cells).
    """
    q, k = cubes[0], len(cubes)
    shape = tuple(hi - lo for lo, hi in box)
    cells, outside = _box_cells(levels, grid, cubes, box)
    at = levels.sides.index(q.side)
    t_on = levels.transforms[at].take(cells)
    osc = np.zeros(t_on.shape)
    if q.side == 1:
        return t_on, np.zeros((k, osc[0].size)), osc.reshape(k, -1), outside
    if t_on.dtype.kind == "c":
        # each node's window cells on each axis, counted from the box's start
        own = [[(max(0, -a) - lo, min(q.side, grid.cells_per_side - a) - lo)
                for a, (lo, _) in zip(c.anchor, box)] for c in cubes]
    for i, p in enumerate(levels.sides[at + 1:], at + 1):
        if p == 1:
            break
        # per axis: where each of a node's level cubes starts its run of
        # the box's cells, and the run's length
        runs, counts = zip(*(_node_runs(lo, hi - lo, p) for lo, hi in box))
        trunc = levels.transforms[i].take(cells)
        np.subtract(t_on, trunc, out=trunc)
        if trunc.dtype.kind == "c":
            bounds = [list(zip(b, np.append(b[1:], shape[d]))) for d, b in enumerate(runs)]
            stat = np.array([
                oscillation(node[tuple(slice(max(b0, o0), min(b1, o1))
                                       for (b0, b1), (o0, o1) in zip(block, mine))])
                for node, mine in zip(trunc, own) for block in itertools.product(*bounds)
            ]).reshape((k, *(len(b) for b in runs)))
        else:
            top, bottom = trunc, trunc
            for d, b in enumerate(runs, 1):
                top = np.maximum.reduceat(top, b, axis=d)
                bottom = np.minimum.reduceat(bottom, b, axis=d)
            stat = top - bottom
        np.maximum(osc, _repeat(stat, counts), out=osc)
    ms = levels.maxima[at].take(cells)
    if outside is not None:
        ms[outside] = osc[outside] = -np.inf
    return t_on, ms.reshape(k, -1), osc.reshape(k, -1), outside


def _repeat(vals: np.ndarray, counts) -> np.ndarray:
    """Per-cube values spread over the cubes' runs of cells on each of the
    last ``len(counts)`` axes."""
    for d, c in enumerate(counts, vals.ndim - len(counts)):
        vals = np.repeat(vals, c, axis=d)
    return vals


def _order_threshold(vals: np.ndarray, k: int) -> np.ndarray:
    """The (k+1)-th largest value of each row of a 2D array with non-empty
    rows; the max when k is out of range.

    Strictly exceeding a row's threshold is then possible for at most k of
    its cells.
    """
    size = vals.shape[1]
    at = size - 1 - (k if k < size else 0)
    return np.partition(vals, at, axis=1)[:, at]


class _Exceptional(NamedTuple):
    """The exceptional sets of a batch of nodes (:func:`_node_stats`) and
    what cut them: ``transform`` T(f char_{Q+}) on their box, box-shaped,
    and ``magnitude`` its modulus flattened per node, -inf outside the
    window; the ``thresholds`` and the ``exceed_counts``, the cells each
    statistic (transform, power average, oscillation) made exceptional,
    each of shape (3, k); ``omega``, each node's exceptional cells on its
    cube's own cells."""

    transform: np.ndarray
    magnitude: np.ndarray
    thresholds: np.ndarray
    exceed_counts: np.ndarray
    omega: np.ndarray


def _exceptional(levels: _SideLevels, grid: Grid, cubes: list[Cube], box,
                 avg: np.ndarray, cfg: PipelineConfig) -> _Exceptional:
    """Exceptional cells of a batch of node cubes on their box (as for
    :func:`_node_stats`) whose averages ``avg`` are not 0.

    A window cell of a cube is exceptional when its transform value, dyadic
    power-average maximal value, or dyadic oscillation maximal value (all
    computed from ``f`` restricted to the alpha dilation, see
    :func:`_node_stats`) strictly exceeds the corresponding threshold.  In
    quantile mode the thresholds are per-statistic order statistics sized
    so the exceptional set covers at most ``1/2**(dim+2)`` of the cube's
    cells, taken over each node's window cells alone; in fixed mode they
    are ``c_fixed`` (power average) and ``a_fixed`` (transform and
    oscillation) times the node average.  The
    thresholds only cut the exceptional set; no coefficient is read from
    them.  ``levels`` are those of the cover cubes the nodes grow from.
    """
    q, k = cubes[0], len(cubes)
    t_on, ms, osc, outside = _node_stats(levels, grid, cubes, box)
    magnitude = np.abs(t_on).reshape(k, -1)
    if outside is not None:
        outside = outside.reshape(k, -1)
        magnitude[outside] = -np.inf
    stats = (magnitude, ms, osc)
    if cfg.mode == "quantile":
        allowed = q.cell_count // (3 * 2 ** (grid.dim + 2))
        thresholds = np.array([_order_threshold(v, allowed) for v in stats])
        if outside is not None:
            # a node with at most ``allowed`` window cells takes their max
            few = outside.shape[1] - outside.sum(axis=1) <= allowed
            if few.any():
                thresholds[:, few] = [v[few].max(axis=1) for v in stats]
    else:
        thresholds = np.array([cfg.a_fixed * avg, cfg.c_fixed * avg, cfg.a_fixed * avg])
    exceed = [v > tau[:, None] for v, tau in zip(stats, thresholds)]
    omega = np.zeros((k,) + (q.side,) * grid.dim, dtype=bool)
    omega[(slice(None), *_box_slices(box))] = (
        (exceed[0] | exceed[1] | exceed[2]).reshape(t_on.shape))
    return _Exceptional(t_on, magnitude, thresholds,
                        np.array([e.sum(axis=1) for e in exceed]), omega)


# ---------------------------------------------------------------------------
# stopping time

def _density_exceeds(count, cells: int, dim: int):
    """Whether ``count`` of ``cells`` cells exceed the density
    ``1/2**(dim+1)``, in exact integer arithmetic; counts may be an
    array."""
    return count * 2 ** (dim + 1) > cells


def _stopping_time(masks: np.ndarray):
    """Maximal dyadic subcubes of each of k cubes of side m where the
    exceptional cells, ``masks[i]`` on cube i's own cells (shape ``(k,) +
    (m,) * dim``), have density above ``1/2**(dim+1)``.

    Returns (owner, anchors, sides, flags): for each selected cube the index
    of its cube, its anchor relative to that cube and its side, and per
    cube the list of its flags.  A start cube already above the threshold
    is not selected; its children are scanned instead and the event
    flagged.  Odd sides above one cannot be halved: the residual exceptional
    cells of such a cube are selected as single-cell cubes, and the cube
    flagged.

    The cubes are scanned a level at a time: the counts of the masks in
    every cube of a level are reshape-sums of them, a cube is selected where
    its parent was scanned and its count is dense, and scanned where it is
    positive but not dense.  The selections come out by cube and, within a
    cube, in the order of a depth-first scan that takes the children in
    lexicographic order (Z order), each odd cube's cells in row-major order.
    """
    k, m, dim = masks.shape[0], masks.shape[1], masks.ndim - 1
    # the cubes below the side's odd part have it as side; counts[j] holds
    # those of the 2**j cubes per axis of level j, side m / 2**j
    odd = m // (m & -m)
    levels = (m // odd).bit_length() - 1
    counts = [_tile_sums(masks, odd)]
    while len(counts) <= levels:
        counts.append(_tile_sums(counts[-1], 2))
    counts.reverse()

    flags = [[] for _ in range(k)]
    # each level, or the odd cubes' cells, adds a pick: (side, the indices
    # of the cube and of the picked cubes per axis); the first is empty
    picks = [(m, (np.zeros(0, dtype=np.intp),) * (1 + dim))]
    scanned = counts[0] > 0
    if levels or m == 1:
        for i in (scanned & _density_exceeds(counts[0], m**dim, dim)).reshape(k).nonzero()[0]:
            flags[i].append("density_violation")
    for j in range(1, levels + 1):
        scanned = _repeat(scanned, (2,) * dim) & (counts[j] > 0)
        chosen = scanned & _density_exceeds(counts[j], (m >> j) ** dim, dim)
        picks.append((m >> j, chosen.nonzero()))
        scanned ^= chosen
        if not scanned.any():
            break
    if odd > 1 and scanned.any():
        for i, n in enumerate(scanned.reshape(k, -1).sum(axis=1).tolist()):
            flags[i] += ["odd_leaf"] * n
        picks.append((1, (_repeat(scanned, (odd,) * dim) & masks).nonzero()))

    sides = np.concatenate([np.full(len(at[0]), side) for side, at in picks])
    owner = np.concatenate([at[0] for _, at in picks])
    cells = np.stack([np.concatenate([at[d] * side for side, at in picks])
                      for d in range(1, 1 + dim)], axis=1)
    # the depth-first order within a cube: Z order of the odd cube holding
    # the anchor (the bits of its indices interleaved, axis 0 the more
    # significant), then row-major order inside it
    odd_cube, inside = np.divmod(cells, odd)
    bits = odd_cube[:, None, :] >> np.arange(levels - 1, -1, -1)[:, None] & 1
    key = bits.reshape(len(cells), levels * dim) @ (1 << np.arange(levels * dim - 1, -1, -1))
    key = ((owner * 2 ** (levels * dim) + key) * odd**dim
           + np.ravel_multi_index(inside.T, (odd,) * dim))
    order = np.argsort(key, kind="stable")
    return owner[order], cells[order], sides[order], flags


def _tile_sums(a: np.ndarray, r: int) -> np.ndarray:
    """Sums of a stack of square arrays (the first axis) over their blocks
    of r entries per axis."""
    blocks = (a.shape[1] // r, r) * (a.ndim - 1)
    return a.reshape(a.shape[:1] + blocks).sum(axis=tuple(range(2, 2 * a.ndim, 2)))


def local_cz_decomposition(grid: Grid, cube: Cube, omega: CellSet) -> list[Cube]:
    """Dyadic stopping-time cover of an exceptional set inside a cube.

    Returns the maximal dyadic subcubes P of ``cube`` whose share of
    ``omega`` strictly exceeds ``1/2**(dim+1)``, compared in exact integer
    arithmetic.  Their union covers ``omega`` inside the cube, each P holds
    at most half its cells of ``omega``, and the total cell count is at
    most half the cube's.  The cube side must be a power of two, and the
    cube itself must not already exceed the threshold.  ``omega`` may be
    boxed anywhere; only its cells inside the cube count.
    """
    if cube.side & (cube.side - 1):
        raise AlignmentError(f"cube side must be a power of two, got {cube.side}")
    mask = omega.mask_on(cube)
    if _density_exceeds(int(mask.sum()), cube.cell_count, grid.dim):
        raise DensityError(
            f"exceptional set occupies more than the threshold share of {cube}")
    _, cells, sides, _ = _stopping_time(mask[None])
    return [Cube(tuple(a), side)
            for a, side in zip((cells + cube.anchor).tolist(), sides.tolist())]


# ---------------------------------------------------------------------------
# the node pass, a depth at a time

def _check_invariants(cubes: list[Cube], omega_count: np.ndarray, selected: np.ndarray,
                      witness_count: np.ndarray, dim: int) -> None:
    """The source paper's counting invariants of a batch of quantile-mode
    nodes of one side, in integer arithmetic: the exceptional set holds at
    most ``1/2**(dim+2)`` of the cube, the ``selected`` children at most
    half, and the witness at least half.  The first node that breaks one
    names the first it breaks."""
    cells = cubes[0].cell_count
    if (omega_count.max() * 2 ** (dim + 2) <= cells and 2 * selected.max() <= cells
            and 2 * witness_count.min() >= cells):
        return
    for q, omega, children, witness in zip(cubes, omega_count.tolist(),
                                           selected.tolist(), witness_count.tolist()):
        for bad, what in (
                (omega * 2 ** (dim + 2) > cells,
                 f"exceptional set holds {omega}, more than 1/2**{dim + 2}"),
                (2 * children > cells, f"children hold {children}, more than half"),
                (2 * witness < cells, f"witness holds {witness}, less than half")):
            if bad:
                raise NumericError(f"node {q}: {what} of its {cells} cells")


class _Node(NamedTuple):
    """A node of the pass: its cube, the indices of the children that lead
    to it from its cover cube (a cover cube's index among those of its
    side, then one child index per depth), the record of its parent (None
    for a cover cube), whose edge to it it fills, and its dilate, built
    once for its average and its entry."""

    cube: Cube
    path: tuple[int, ...]
    parent: NodeRecord | None
    plus: Cube


def _skipped_node(levels: _SideLevels | None, f: GridFunction, node: _Node,
                  avg: float, depth: int, cfg: PipelineConfig):
    """The entry and record of a node with a zero average or no window
    cells: no exceptional set, its whole cube as witness, and an edge from
    its parent that counts its transform as 0.  An average of 0 is a zero
    average only where f vanishes on the window cells of the node's dilate;
    one that underflowed to 0 over a nonzero f raises NumericError."""
    q, grid = node.cube, f.grid
    if avg == 0.0:
        plus = node.plus.window_clip(grid)
        if plus is not None and f.values[_box_slices(plus)].any():
            raise NumericError(f"the s = {cfg.s} average of f over the dilate of node {q} "
                               "underflows to 0, though f does not vanish there")
    clip = q.window_clip(grid)
    flags = tuple(name for name, skip in (("zero_average", avg == 0.0),
                                          ("outside_window", clip is None)) if skip)
    if node.parent is not None:
        # a child holds an exceptional cell, so it has window cells
        parent = levels.transforms[levels.sides.index(node.parent.cube.side)]
        node.parent.edges[node.path[-1]] = {
            "child": q,
            "coefficient": float(np.abs(parent[_box_slices(clip, levels.origin)]).max())
                           / node.parent.avg}
    return (SparseEntry(cube=node.plus, witness=CellSet.from_cube(grid, q),
                        coefficient=avg, base_cube=q, depth=depth, flags=flags),
            NodeRecord(cube=q, depth=depth, avg=avg, c_ratio=0.0, a_effective=0.0,
                       omega_count=0, exceed_counts=(0, 0, 0), flags=flags))


def _node_batch(levels: _SideLevels, grid: Grid, nodes: list[_Node],
                avg: list[float], depth: int, cfg: PipelineConfig, done: list):
    """Grow a batch of nodes of one side and depth, each with window cells,
    with averages ``avg``, none 0, on their box (:func:`_batch_box`):
    append (path, entry, record) of each to ``done``, fill each node's edge
    from its parent, and return the children.

    The exceptional sets, stopping time, witnesses (the cube minus the
    selected children), invariants, node coefficients (the largest
    ``|T(f char_{Q+})|`` on the witness) and edge coefficients (the largest
    ``|T(f char_{Q+}) - T(f char_{P+})|`` on the child P, both read from
    the level data) of the whole batch are array operations over it."""
    cubes = [node.cube for node in nodes]
    q, k, dim = cubes[0], len(nodes), grid.dim
    avg = np.array(avg)
    box = _batch_box(grid, cubes)
    exc = _exceptional(levels, grid, cubes, box, avg, cfg)
    axes = tuple(range(1, dim + 1))
    omega_count = exc.omega.sum(axis=axes)
    flags = [[] for _ in nodes]
    if cfg.mode == "fixed":
        for i in np.flatnonzero(omega_count * 2 ** (dim + 2) > q.cell_count):
            flags[i].append("measure_violation")
    grow = omega_count.nonzero()[0]
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        for i in grow:
            flags[i].append("depth_capped")
        grow = grow[:0]
    owner, cells, sides = np.zeros(0, np.intp), np.zeros((0, dim), np.intp), np.zeros(0, np.intp)
    if grow.size:
        owner, cells, sides, grown_flags = _stopping_time(exc.omega[grow])
        owner = grow[owner]
        for i, more in zip(grow.tolist(), grown_flags):
            flags[i] += more

    witness = np.ones(exc.omega.shape, dtype=bool)
    for p in set(sides.tolist()):
        # the children of side p, as blocks of p cells per axis
        of_side = sides == p
        blocks = witness.reshape((k,) + (q.side // p, p) * dim)
        blocks[(owner[of_side], *(x for d in range(dim)
                                  for x in (cells[of_side, d] // p, slice(None))))] = False
    if cfg.mode == "quantile":
        selected = np.bincount(owner, sides**dim, k).astype(np.int64)
        _check_invariants(cubes, omega_count, selected, witness.sum(axis=axes), dim)
    overlaps = (exc.omega & witness).any(axis=axes)
    # a node without witness cells in the window gets 0
    in_witness = witness[(slice(None), *_box_slices(box))].reshape(k, -1)
    a_eff = np.where(in_witness, exc.magnitude, 0.0).max(axis=1) / avg
    if depth:
        # T(f char_{Q+}) of each node's parent, minus its own, on its box,
        # where a cell outside the window copies a window cell's difference
        parents = [node.parent for node in nodes]
        at = np.array([levels.sides.index(p.cube.side) for p in parents])
        resid = levels.transforms.take(_box_cells(levels, grid, cubes, box)[0]
                                       + (at * levels.transforms[0].size).reshape(
                                           (k,) + (1,) * dim))
        np.subtract(resid, exc.transform, out=resid)
        edge = (np.abs(resid).reshape(k, -1).max(axis=1)
                / np.array([p.avg for p in parents])).tolist()

    children = [Cube(tuple(a), side) for a, side in zip(
        (cells + np.array([c.anchor for c in cubes])[owner]).tolist(), sides.tolist())]
    first = np.searchsorted(owner, np.arange(k + 1)).tolist()
    records = []
    for i, (node, a, c_ratio, a_e, count, exceeded, overlap) in enumerate(zip(
            nodes, avg.tolist(), (exc.thresholds[1] / avg).tolist(), a_eff.tolist(),
            omega_count.tolist(), exc.exceed_counts.T.tolist(), overlaps.tolist())):
        if overlap:
            flags[i].append("witness_overlaps_exceptional")
        entry = SparseEntry(cube=node.plus, witness=CellSet(grid, node.cube, witness[i]),
                            coefficient=a, base_cube=node.cube, depth=depth,
                            flags=tuple(flags[i]))
        record = NodeRecord(cube=node.cube, depth=depth, avg=a, c_ratio=c_ratio,
                            a_effective=a_e, omega_count=count,
                            exceed_counts=tuple(exceeded), flags=tuple(flags[i]),
                            edges=[None] * (first[i + 1] - first[i]))
        records.append(record)
        done.append((node.path, entry, record))
        if depth:
            node.parent.edges[node.path[-1]] = {"child": node.cube, "coefficient": edge[i]}
    return [_Node(child, nodes[i].path + (j - first[i],), records[i], dilate(child, cfg.alpha))
            for j, (child, i) in enumerate(zip(children, owner.tolist()))]


def _side_pass(rt: LatticeTransform, f: GridFunction, sat: np.ndarray, roots: list[Cube],
               cfg: PipelineConfig) -> tuple[list[SparseEntry], list[NodeRecord]]:
    """The entries and records of the recursion trees below the cover cubes
    of one side, ``roots``, reading every node's statistics from the level
    data of those with a nonzero average (:func:`_side_levels`), in
    depth-first preorder (each node's children in stopping-time order).

    The trees grow a depth at a time.  Each node's coefficient is an
    :func:`avg_p`, a direct sum; the nodes of one depth with a nonzero
    average and window cells are grouped by side, and each group is grown
    in batches of at most ``_SLAB_CELLS`` cube cells (or one node) by
    :func:`_node_batch`.  A node's path of child indices from its root
    gives the preorder.
    """
    grid = f.grid
    frontier = [_Node(root, (i,), None, dilate(root, cfg.alpha)) for i, root in enumerate(roots)]
    averages = [avg_p(f, node.plus, cfg.s) for node in frontier]
    levels = _side_levels(rt, f, sat, [r for r, a in zip(roots, averages) if a != 0.0],
                          cfg.s)
    done: list = []
    depth = 0
    while frontier:
        groups: dict = {}
        for node, avg in zip(frontier, averages):
            q = node.cube
            clip = q.window_clip(grid)
            if avg == 0.0 or clip is None:
                entry, record = _skipped_node(levels, f, node, avg, depth, cfg)
                done.append((node.path, entry, record))
                continue
            group = groups.setdefault(q.side, ([], []))
            group[0].append(node)
            group[1].append(avg)
        frontier = []
        for side, (nodes, avgs) in groups.items():
            per = max(1, _SLAB_CELLS // side**grid.dim)
            for j in range(0, len(nodes), per):
                frontier += _node_batch(levels, grid, nodes[j:j + per], avgs[j:j + per],
                                        depth, cfg, done)
        averages = [avg_p(f, node.plus, cfg.s) for node in frontier]
        depth += 1
    done.sort(key=lambda item: item[0])
    return [entry for _, entry, _ in done], [record for _, _, record in done]


def constant_from_records(records: list[NodeRecord]) -> float:
    """The certified constant of a recursion forest: the largest node or
    edge coefficient."""
    best = 0.0
    for rec in records:
        best = max(best, rec.a_effective)
        for e in rec.edges:
            best = max(best, e["coefficient"])
    return best


def _cube_dict(cube: Cube) -> dict:
    return {"anchor": list(cube.anchor), "side": cube.side}


# ---------------------------------------------------------------------------
# globalization

def partition_cover(grid: Grid, support: Cube, alpha: int) -> list[Cube]:
    """Cover of the window adapted to a support box.

    Starts from the support box and adds rings: the k-th ring is the
    3-fold dilate of the previous core minus the core, tiled by
    ``3**dim - 1`` congruent cubes, until the core contains the window.
    Every returned cube R satisfies ``support subset alpha R``, so local
    domination on R controls the full transform of a function supported
    in the box.  Ring cubes may lie partly or fully outside the window;
    they are kept so the tiling stays exact.
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ParameterError(f"alpha must be odd and >= 3, got {alpha}")
    if support.side & (support.side - 1):
        raise AlignmentError(
            f"support box side must be a power of two, got {support.side}")
    if not grid.window_cube().contains(support):
        raise ParameterError(f"support box {support} must lie inside the window")
    cover = [support]
    core = support
    while not core.contains(grid.window_cube()):
        s = core.side
        for off in itertools.product((-s, 0, s), repeat=grid.dim):
            if any(off):
                cover.append(Cube(tuple(a + o for a, o in zip(core.anchor, off)), s))
        core = dilate(core, 3)
    return cover


def support_box(f: GridFunction) -> Cube | None:
    """Smallest power-of-two-side cube inside the window holding every
    nonzero cell, or None when f vanishes identically."""
    bounds = _support_bounds(f.values)
    if bounds is None:
        return None
    lo, hi = np.transpose(bounds)
    side = 1 << int(np.ceil(np.log2(max(1, int((hi - lo).max())))))
    n = f.grid.cells_per_side
    anchor = tuple(int(min(l, n - side)) for l in lo)
    return Cube(anchor, side)


def _build_bytes(kernel: Kernel, f: GridFunction, alpha: int, max_side: int) -> int:
    """Bytes :func:`build_sparse_domination` allocates at its peak, kernel
    temporaries aside, for node cubes of side at most ``max_side`` (about
    n for the rings of an off-centre support, up to about 2n near a
    corner): the lattice (without one, a block of direct sums,
    ``_PAIR_CHUNK`` pairs or one group of targets); the prefix table of
    ``|f|**s``; and the larger of what a cover side holds one after the
    other.  First its window transform, one FFT of ``2n`` points per axis:
    the real kernel segment and three arrays at the entry size (``rfftn``
    half-spectra for real f).  Then its level data on the cells its cubes'
    core of three sides per axis meets, a transform for the side and each
    level and a real running maximum for each side above one, with the
    largest of the window transform it copies, what computes the levels and
    what reads them: the largest ``dilate_transforms`` slab, of the first
    level below the side, ``(alpha + 1)`` times that level's side in FFT
    points per axis or ``_SLAB_CELLS``, at six arrays (the box of f, the
    padded sources, their spectrum, the segment's, the inverse, the cubes'
    cells); or the largest batch of the node pass, ``_SLAB_CELLS`` cells or
    one node's but no more than the side's 3**dim cover cubes hold, at two
    transform-sized arrays (the stacked transforms and a level's
    truncations, or the parents' transforms) and eight words per cell (flat
    indices, maxima, oscillations and their spread, magnitudes, a partition
    copy, the masks), and for complex f the pairwise block of
    ``maximal.oscillation`` on the largest level cube (512 rows, or as many
    as the cube has cells, of complex differences and their moduli, at
    most 2^21) and, above 4096 cells, eight words a cell for the copy of
    its values, their projections and the candidates they keep."""
    n, dim = f.grid.cells_per_side, f.grid.dim
    item = 16 if f.is_complex else 8
    levels = list(_levels(max_side))
    kernel_bytes = ((2 * n - 1) ** dim if kernel.translation_invariant
                    else max(_PAIR_CHUNK, _SUM_GROUP * n**dim)) * 8
    window = (8 + 3 * item) * (2 * n) ** dim if kernel.translation_invariant else 0
    first = levels[0] if levels else 0
    slab = 6 * max(((alpha + 1) * first) ** dim, _SLAB_CELLS) * item
    batch = (2 * item + 64) * min(max(max_side**dim, _SLAB_CELLS), (3 * max_side) ** dim)
    if f.is_complex:
        cells = first**dim
        batch += 24 * min(cells, 512) * min(cells, 4096) + (64 * cells if cells > 4096 else 0)
    kept = ((len(levels) + 1) * item + len(levels) * 8) * min(3 * max_side, n) ** dim
    return (kernel_bytes + (n + 1) ** dim * 8
            + max(window, kept + max(n**dim * item, slab, batch)))


def build_sparse_domination(kernel: Kernel, f: GridFunction,
                            config: PipelineConfig | None = None) -> DominationResult:
    """Full pipeline: cover the window, grow the trees per cover side, assemble
    the family and its certified constant.

    The constant is the maximum of all node coefficients (the largest
    ``|T(f char_{Q+})|`` on the node's witness) and all edge coefficients
    (the largest ``|T(f char_{Q+}) - T(f char_{P+})|`` on the child P),
    each in units of the node average; by the chain telescoping it
    certifies ``|T f| <= constant * (sparse averaging operator)`` on every
    window cell.  The ledger's ``constant_source`` names the node and the
    term that set it.
    """
    cfg = config or PipelineConfig()
    grid = f.grid
    _check_dims(kernel, grid)
    eta = cfg.eta(grid.dim)
    supp = support_box(f)
    if supp is None:
        window = grid.window_cube()
        entry = SparseEntry(cube=dilate(window, cfg.alpha),
                            witness=CellSet.from_cube(grid, window),
                            coefficient=0.0, base_cube=window, depth=0,
                            flags=("zero_input",))
        family = SparseFamily(grid, eta, [entry], 0.0,
                              meta=_family_meta(kernel, cfg, None, ["zero_input"]))
        ledger = ConstantLedger(cfg.mode, cfg.alpha, cfg.s, eta, 0.0, 1, 0, 0,
                                {"zero_input": 1}, [], None)
        return DominationResult(family, ledger, [])

    cover = partition_cover(grid, supp, cfg.alpha)
    # children are smaller than their parents, so the roots are the largest;
    # refused before the kernel is sampled
    _refuse_beyond_memory(
        f"the build on a {grid.dim}D grid with {grid.cells_per_side} cells per side",
        _build_bytes(kernel, f, cfg.alpha, max(c.side for c in cover)))
    rt = LatticeTransform(kernel, f, cfg.alpha)
    # every side reads this table, and it goes with the build
    sat = _power_sat(f, cfg.s)
    entries: list[SparseEntry] = []
    records: list[NodeRecord] = []
    # the cover cubes of one side come in a run and share their level data
    for _, roots in itertools.groupby(cover, key=lambda c: c.side):
        side_entries, side_records = _side_pass(rt, f, sat, list(roots), cfg)
        entries += side_entries
        records += side_records

    final_c = constant_from_records(records)
    source = None
    n_edges = 0
    flag_counts: Counter = Counter()
    depth_agg: dict[int, dict] = {}
    for rec in records:
        n_edges += len(rec.edges)
        for fl in rec.flags:
            flag_counts[fl] += 1
        agg = depth_agg.setdefault(rec.depth, {
            "depth": rec.depth, "nodes": 0, "max_a": 0.0, "max_c": 0.0,
            "max_edge": 0.0, "exceed_counts": [0, 0, 0]})
        agg["nodes"] += 1
        agg["exceed_counts"] = [a + b for a, b in zip(agg["exceed_counts"],
                                                      rec.exceed_counts)]
        agg["max_a"] = max(agg["max_a"], rec.a_effective)
        agg["max_c"] = max(agg["max_c"], rec.c_ratio)
        if rec.edges:
            agg["max_edge"] = max(agg["max_edge"],
                                  max(e["coefficient"] for e in rec.edges))
        # the first term in record order that attains the constant
        for value, child in ([(rec.a_effective, None)]
                             + [(e["coefficient"], e["child"]) for e in rec.edges]):
            if source is None and value == final_c:
                source = {"cube": _cube_dict(rec.cube), "depth": rec.depth,
                          "term": "node" if child is None else "edge",
                          "child": None if child is None else _cube_dict(child)}

    ledger = ConstantLedger(
        mode=cfg.mode, alpha=cfg.alpha, s=cfg.s, eta=eta, final_c=final_c,
        n_nodes=len(records), n_edges=n_edges,
        max_depth_seen=max((r.depth for r in records), default=0),
        flag_counts=dict(flag_counts),
        per_depth=[depth_agg[d] for d in sorted(depth_agg)],
        constant_source=source,
    )
    family = SparseFamily(grid, eta, entries, final_c,
                          meta=_family_meta(kernel, cfg, supp, sorted(flag_counts)))
    return DominationResult(family, ledger, records)


def _family_meta(kernel: Kernel, cfg: PipelineConfig, supp: Cube | None,
                 flags) -> dict:
    return {
        "kernel": kernel.name,
        "alpha": cfg.alpha,
        "s": cfg.s,
        "mode": cfg.mode,
        "support_anchor": None if supp is None else list(supp.anchor),
        "support_side": None if supp is None else supp.side,
        "flags": list(flags),
    }
