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
these once per cover side: one ``dilate_transforms(start, count, side)``
call of :class:`~sparsedom.operators.LatticeTransform` for the side and
one per level, over the window cells the side's cover cubes meet, and the
power averages of every level cube as differences of the prefix table
``GridFunction.power_sat``, folded into one running maximum per side.
Every node below reads slices of these: its power-average statistic is a
slice of its side's running maximum, and :func:`_node_stats` takes the
oscillations in one pass per level above single cells, O(m log m) cells
per node of side m in 1D.  The power averages only cut the exceptional
set, while every coefficient is an :func:`avg_p`, a direct sum.

Memory stays linear in the cell count for every kernel: a cover side
keeps two arrays on its window cells, the transforms of the side and of
each level and the running maxima of every side above one, freed when its
last cover cube is done.  For a kernel with a difference lattice (every
catalog kernel: those that declare translation invariance) a call sums
the small levels directly and the others by batched FFTs, O(m log m) per
level in 1D, in slabs of bounded size, and each cube of a call gets the
same bits as from a call of its own; for any other kernel it sums each
cube of the level directly through the kernel.

Cells where any statistic exceeds its threshold form the exceptional set.
In quantile mode the thresholds are chosen as order statistics, so the
exceptional set provably occupies at most ``1 / 2**(dim+2)`` of Q's cells;
in fixed mode the caller supplies threshold ratios and violations are
flagged but not fatal.  A dyadic stopping time selects the maximal
subcubes where the exceptional set has density above ``1 / 2**(dim+1)``,
so each carries at most half its measure of it; the node keeps the
complement as its witness and recurses into the subcubes.  It scans a
level of subcubes at a time, counting the exceptional cells of every cube
of a level by one reshape-sum of the node's mask.  The exceptional
set and the witness are cell sets boxed by the node cube, so a node's
bookkeeping costs O(m**dim) cells, not a window-shaped array.

Every coefficient is read from the transforms the nodes already hold, in
units of the node average: a node's is the largest ``|T(f char_{Q+})|``
on its witness, an edge's the largest ``|T(f char_{Q+}) - T(f char_{P+})|``
on the child P (whose transform counts as 0 where its average is 0).
Telescoping along the tree bounds ``|T f|`` on every witness by the
largest coefficient times the sparse sum; that constant is checked
verbatim by :func:`sparsedom.verify.check_domination`.

Globalization covers the window by the support box plus rings of
congruent cubes around it; every cover cube R satisfies
``support(f) subset alpha R``, so the local bound on R already controls
the full transform there.
"""

from __future__ import annotations

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
    _sat_box_sums,
    avg_p,
    dilate,
)
from .maximal import oscillation
from .operators import (_PAIR_CHUNK, _SLAB_CELLS, _SUM_GROUP, Kernel, LatticeTransform,
                        _refuse_beyond_memory)

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
class ExceptionalSet:
    """Exceptional cells of one node, with the thresholds that cut them, and
    ``T(f char_{Q+})`` on the node's window cells, box-shaped (None on a
    node skipped for a zero average or no window cells)."""

    omega: CellSet
    avg: float
    tau_t: float
    tau_ms: float
    tau_osc: float
    c_ratio: float
    allowed_per_stat: int
    exceed_counts: tuple[int, int, int]
    flags: tuple[str, ...]
    transform: np.ndarray | None


@dataclass(frozen=True)
class SparseEntry:
    """One member of the sparse family: dilated cube, witness, coefficient."""

    cube: Cube
    witness: CellSet
    coefficient: float
    base_cube: Cube
    depth: int
    flags: tuple[str, ...] = ()

    def witness_runs(self) -> list[tuple[int, int]]:
        """Row-major (start, length) runs of the witness mask over its box."""
        flat = self.witness.mask.ravel()
        edges = np.flatnonzero(np.diff(flat.astype(np.int8)))
        starts = np.concatenate(([0], edges + 1))
        ends = np.concatenate((edges + 1, [flat.size]))
        return [(int(a), int(b - a)) for a, b in zip(starts, ends) if flat[a]]


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


class _SideLevels(NamedTuple):
    """What the cover cubes of one side compute once for every node below
    them.

    The cover cubes of a side share a lattice, and so do their levels, so
    a level cube's data depend only on the cube, not on the cover cube or
    the node that asks.  ``sides`` lists the cover side and then its
    levels (:func:`_levels`).  ``transforms[i]`` holds T(f char_{P+}) on the
    window cells of the box the cover cubes meet, box-shaped from the cell
    ``origin``, each cell taking the transform of the cube P of side
    ``sides[i]`` that holds it.  ``maxima[i]``, for every side but the
    last, holds at each of those cells the largest s-power average of f
    over P+ (normalized by its full measure) among the level cubes P below
    a cube of side ``sides[i]`` that hold the cell.  Both arrays are
    read-only: a node's statistics are views into them.
    """

    origin: tuple[int, ...]
    sides: tuple[int, ...]
    transforms: np.ndarray
    maxima: np.ndarray


def _side_levels(rt: LatticeTransform, f: GridFunction, cubes: list[Cube],
                 s: float) -> _SideLevels | None:
    """The level data of cover cubes of one side, or None where none of
    them has a transform (a zero average or no window cells).

    Each node below a cover cube R is a dyadic subcube of R (or a single
    cell of it), so its side is R's or one of R's levels, and the cubes the
    stopping time can select below it are level cubes of R.  One
    ``dilate_transforms`` call for the side and one per level, over the
    window cells of the cubes with a transform, give every transform these
    nodes read; the power averages of each level's cubes, as differences of
    the prefix table ``GridFunction.power_sat``, are spread to their cells
    and folded into the running maxima ``MS_q = max(averages of level p,
    MS_p)``, p the first level below q.
    """
    grid = f.grid
    n, dim = grid.cells_per_side, grid.dim
    alpha = rt.alpha
    shift = (alpha - 1) // 2
    clips = [clip for clip, cube in ((c.window_clip(grid), c) for c in cubes)
             if clip is not None and avg_p(f, dilate(cube, alpha), s) != 0.0]
    if not clips:
        return None
    box = [(min(c[d][0] for c in clips), max(c[d][1] for c in clips))
           for d in range(dim)]
    sides = (cubes[0].side, *_levels(cubes[0].side))
    sat = f.power_sat(s)
    shape = tuple(hi - lo for lo, hi in box)
    transforms = np.empty((len(sides),) + shape, f.values.dtype)
    maxima = np.empty((len(sides) - 1,) + shape)
    for i, p in enumerate(sides):
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
        if i:
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


def _node_stats(levels: _SideLevels, grid: Grid, cube: Cube):
    """On the node's window cells, box-shaped: T(f char_{Q+}) (signed) and
    the two dyadic maximal functions of f char_{Q+}.

    At a cell x, each is the largest over the cubes P the stopping time can
    select below Q with x in P (one per level of :func:`_levels`) of the
    s-power average of f over P+ (normalized by the full measure of P+),
    and of the oscillation over P's window cells of
    ``T(f char_{Q+}) - T(f char_{P+})``.  Since P+ lies in Q+, f char_{Q+}
    is f on P+.  The level cubes tile Q, so a cell takes its cube's value
    on each level; the averages are a slice of the side's running maximum,
    and a single cell, the last level, has no oscillation.
    """
    clip = cube.window_clip(grid)
    on = _box_slices(clip, levels.origin)
    at = levels.sides.index(cube.side)
    t_on = levels.transforms[at][on]
    osc = np.zeros(t_on.shape)
    if cube.side == 1:
        return t_on, np.zeros(osc.size), osc.ravel()
    for i, p in enumerate(levels.sides[at + 1:], at + 1):
        if p == 1:
            break
        # per axis: where each of the node's level cubes starts its run of
        # the node's window cells, and the run's length
        starts, counts = [], []
        for (lo, hi), a in zip(clip, cube.anchor):
            _, b, c = _level_runs(lo, hi, a, p)
            starts.append(b)
            counts.append(c)
        trunc = t_on - levels.transforms[i][on]
        if np.iscomplexobj(trunc):
            bounds = [list(zip(b, np.append(b[1:], trunc.shape[d])))
                      for d, b in enumerate(starts)]
            stat = np.array([
                oscillation(trunc[tuple(slice(b0, b1) for b0, b1 in block)])
                for block in itertools.product(*bounds)
            ]).reshape([len(b) for b in starts])
        else:
            top, bottom = trunc, trunc
            for d, b in enumerate(starts):
                top = np.maximum.reduceat(top, b, axis=d)
                bottom = np.minimum.reduceat(bottom, b, axis=d)
            stat = top - bottom
        np.maximum(osc, _repeat(stat, counts), out=osc)
    return t_on, levels.maxima[at][on].ravel(), osc.ravel()


def _repeat(vals: np.ndarray, counts) -> np.ndarray:
    """Per-cube values spread over the cubes' runs of cells on every axis."""
    for d, c in enumerate(counts):
        vals = np.repeat(vals, c, axis=d)
    return vals


def _order_threshold(vals: np.ndarray, k: int) -> float:
    """The (k+1)-th largest value of a non-empty array; the max when k is
    out of range.

    Strictly exceeding the returned threshold is then possible for at
    most k cells.
    """
    idx = k if k < vals.size else 0
    return float(np.partition(vals, vals.size - 1 - idx)[vals.size - 1 - idx])


def _exceptional(levels: _SideLevels | None, f: GridFunction,
                 cube: Cube, cfg: PipelineConfig) -> ExceptionalSet:
    """Exceptional cells of one node cube.

    A window cell of ``cube`` is exceptional when its transform value,
    dyadic power-average maximal value, or dyadic oscillation maximal value
    (all computed from ``f`` restricted to the alpha dilation, see
    :func:`_node_stats`) strictly exceeds the corresponding threshold.  In
    quantile mode the thresholds are per-statistic order statistics sized so the
    exceptional set covers at most ``1/2**(dim+2)`` of the cube's cells;
    in fixed mode they are ``c_fixed`` (power average) and ``a_fixed``
    (transform and oscillation) times the node average.  The thresholds
    only cut the exceptional set; no coefficient is read from them.
    ``levels`` are those of the cover cube the node grows from, None only
    where that cube has no transform.
    """
    grid = f.grid
    avg = avg_p(f, dilate(cube, cfg.alpha), cfg.s)
    allowed = cube.cell_count // (3 * 2 ** (grid.dim + 2))
    omega = CellSet.empty(grid, cube)
    clip = cube.window_clip(grid)
    flags = [name for name, skip in (("zero_average", avg == 0.0),
                                     ("outside_window", clip is None)) if skip]
    if flags:
        return ExceptionalSet(omega, avg, 0.0, 0.0, 0.0, 0.0, allowed,
                              (0, 0, 0), tuple(flags), None)

    outer, ms_vals, osc_vals = _node_stats(levels, grid, cube)
    t_vals = np.abs(outer).ravel()
    if cfg.mode == "quantile":
        tau_t = _order_threshold(t_vals, allowed)
        tau_ms = _order_threshold(ms_vals, allowed)
        tau_osc = _order_threshold(osc_vals, allowed)
    else:
        tau_ms = cfg.c_fixed * avg
        tau_t = cfg.a_fixed * avg
        tau_osc = cfg.a_fixed * avg
    ex_t = t_vals > tau_t
    ex_ms = ms_vals > tau_ms
    ex_osc = osc_vals > tau_osc
    union = ex_t | ex_ms | ex_osc
    if cfg.mode == "fixed" and int(union.sum()) * 2 ** (grid.dim + 2) > cube.cell_count:
        flags.append("measure_violation")

    omega.mask[_box_slices(clip, cube.anchor)] = union.reshape(outer.shape)
    return ExceptionalSet(
        omega=omega,
        avg=avg,
        tau_t=tau_t,
        tau_ms=tau_ms,
        tau_osc=tau_osc,
        c_ratio=tau_ms / avg,
        allowed_per_stat=allowed,
        exceed_counts=(int(ex_t.sum()), int(ex_ms.sum()), int(ex_osc.sum())),
        flags=tuple(flags),
        transform=outer,
    )


# ---------------------------------------------------------------------------
# stopping time

def _density_exceeds(count, cells: int, dim: int):
    """Whether ``count`` of ``cells`` cells exceed the density
    ``1/2**(dim+1)``, in exact integer arithmetic; counts may be an
    array."""
    return count * 2 ** (dim + 1) > cells


def _stopping_time(cube: Cube, mask: np.ndarray):
    """Maximal dyadic subcubes of ``cube`` where the exceptional cells,
    ``mask`` on the cube's own cells, have density above ``1/2**(dim+1)``.

    Returns (selected cubes, flags).  A start cube already above the
    threshold is not selected; its children are scanned instead and the
    event flagged.  Odd sides above one cannot be halved: the residual
    exceptional cells of such a cube are selected as single-cell cubes,
    and the cube flagged.

    The cubes are scanned a level at a time: the counts of the mask in
    every cube of a level are reshape-sums of it, a cube is selected where
    its parent was scanned and its count is dense, and scanned where it is
    positive but not dense.  The selections come out in the order of a
    depth-first scan that takes the children in lexicographic order (Z
    order), each odd cube's cells in row-major order.
    """
    dim, m = cube.dim, cube.side
    # the cubes below the side's odd part have it as side; counts[k] holds
    # those of the 2**k cubes per axis of level k, side m / 2**k
    odd = m // (m & -m)
    levels = (m // odd).bit_length() - 1
    counts = [_tile_sums(mask, odd)]
    while len(counts) <= levels:
        counts.append(_tile_sums(counts[-1], 2))
    counts.reverse()
    if counts[0].sum() == 0:
        return [], []
    if m == 1:
        return [], ["density_violation"]

    flags = []
    # each level, or the odd cubes' cells, adds a pick: (side, anchors
    # relative to the cube, shape (k, dim))
    picks = []
    scanned = np.ones((1,) * dim, dtype=bool)
    if levels and _density_exceeds(int(counts[0].sum()), m**dim, dim):
        flags.append("density_violation")
    for k in range(1, levels + 1):
        scanned = _repeat(scanned, (2,) * dim)
        positive = scanned & (counts[k] > 0)
        chosen = positive & _density_exceeds(counts[k], (m >> k) ** dim, dim)
        picks.append((m >> k, np.argwhere(chosen) * (m >> k)))
        scanned = positive & ~chosen
        if not scanned.any():
            break
    if odd > 1 and scanned.any():
        flags.extend(["odd_leaf"] * int(scanned.sum()))
        picks.append((1, np.argwhere(_repeat(scanned, (odd,) * dim) & mask)))

    sides = np.concatenate([np.full(len(a), side) for side, a in picks])
    cells = np.concatenate([a for _, a in picks])
    # the depth-first order: Z order of the odd cube holding the anchor (the
    # bits of its indices interleaved, axis 0 the more significant), then
    # row-major order inside it
    odd_cube, inside = np.divmod(cells, odd)
    bits = odd_cube[:, None, :] >> np.arange(levels - 1, -1, -1)[:, None] & 1
    key = bits.reshape(len(cells), -1) @ (1 << np.arange(levels * dim - 1, -1, -1))
    key = key * odd**dim + np.ravel_multi_index(inside.T, (odd,) * dim)
    order = np.argsort(key, kind="stable")
    anchors = (cells[order] + cube.anchor).tolist()
    return [Cube(tuple(a), int(side)) for a, side in zip(anchors, sides[order])], flags


def _tile_sums(a: np.ndarray, r: int) -> np.ndarray:
    """Sums of a square array over its blocks of r entries per axis."""
    return a.reshape((a.shape[0] // r, r) * a.ndim).sum(axis=tuple(range(1, 2 * a.ndim, 2)))


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
    return _stopping_time(cube, mask)[0]


# ---------------------------------------------------------------------------
# recursion

def _check_invariants(q: Cube, omega_count: int, children: list[Cube],
                      witness: CellSet, dim: int) -> None:
    """The source paper's counting invariants of one quantile-mode node,
    in integer arithmetic: the exceptional set holds at most
    ``1/2**(dim+2)`` of the cube, the selected children at most half, and
    the witness at least half."""
    cells = q.cell_count
    selected = sum(c.cell_count for c in children)
    for broken, what in (
            (omega_count * 2 ** (dim + 2) > cells,
             f"exceptional set holds {omega_count}, more than 1/2**{dim + 2}"),
            (2 * selected > cells, f"children hold {selected}, more than half"),
            (2 * witness.count < cells,
             f"witness holds {witness.count}, less than half")):
        if broken:
            raise NumericError(f"node {q}: {what} of its {cells} cells")


def _build_node(levels: _SideLevels | None, f: GridFunction,
                q: Cube, depth: int, cfg: PipelineConfig,
                entries: list[SparseEntry],
                records: list[NodeRecord]) -> np.ndarray | None:
    """Grow the recursion tree below ``q``, reading every node's
    statistics from ``levels``, those of the cover cube it grows from;
    return ``T(f char_{Q+})`` on its window cells, or None where it is
    taken as 0."""
    grid = f.grid
    exc = _exceptional(levels, f, q, cfg)
    flags = list(exc.flags)
    children: list[Cube] = []
    if not exc.omega.is_empty():
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            flags.append("depth_capped")
        else:
            # the node's exceptional set is boxed by its cube
            children, st_flags = _stopping_time(q, exc.omega.mask)
            flags.extend(st_flags)
    witness = CellSet.cube_minus_cubes(grid, q, children)
    if cfg.mode == "quantile":
        _check_invariants(q, exc.omega.count, children, witness, grid.dim)

    if witness.intersects(exc.omega):
        flags.append("witness_overlaps_exceptional")
    a_eff = 0.0
    if exc.transform is not None:
        clip = q.window_clip(grid)
        in_witness = witness.mask[_box_slices(clip, q.anchor)]
        if in_witness.any():
            a_eff = float(np.abs(exc.transform[in_witness]).max()) / exc.avg

    entry = SparseEntry(cube=dilate(q, cfg.alpha), witness=witness,
                        coefficient=exc.avg, base_cube=q, depth=depth,
                        flags=tuple(flags))
    entries.append(entry)
    record = NodeRecord(cube=q, depth=depth, avg=exc.avg, c_ratio=exc.c_ratio,
                        a_effective=a_eff, omega_count=exc.omega.count,
                        exceed_counts=exc.exceed_counts, flags=tuple(flags))
    records.append(record)

    # a child holds an exceptional cell, so it has window cells, and a node
    # with children has its transform
    for child in children:
        inner = _build_node(levels, f, child, depth + 1, cfg, entries, records)
        sl = _box_slices(child.window_clip(grid), [lo for lo, _ in clip])
        resid = exc.transform[sl] if inner is None else exc.transform[sl] - inner
        record.edges.append({"child": child,
                             "coefficient": float(np.abs(resid).max()) / exc.avg})
    return exc.transform


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
    nz = np.argwhere(np.abs(f.values) > 0)
    if len(nz) == 0:
        return None
    lo = nz.min(axis=0)
    hi = nz.max(axis=0) + 1
    side = 1 << int(np.ceil(np.log2(max(1, int((hi - lo).max())))))
    n = f.grid.cells_per_side
    anchor = tuple(int(min(l, n - side)) for l in lo)
    return Cube(anchor, side)


def _build_bytes(kernel: Kernel, f: GridFunction, alpha: int, max_side: int) -> int:
    """Bytes :func:`build_sparse_domination` allocates at its peak, kernel
    temporaries aside, for node cubes of side at most ``max_side`` (about
    2n for the rings of an off-centre support): the lattice (without one,
    a block of direct sums, ``_PAIR_CHUNK`` pairs or one group of targets);
    the largest ``dilate_transforms`` slab, ``(alpha + 1) max_side`` FFT
    points per axis or ``_SLAB_CELLS``, at six arrays (the box of f, the
    padded sources, their spectrum, the segment's, the inverse, the cubes'
    cells); one cover side's level data on the cells its cubes' core of
    three sides per axis meets, a transform for the side and each level and
    a real running maximum for each side above one; the prefix table of
    ``|f|**s``."""
    n, dim = f.grid.cells_per_side, f.grid.dim
    item = 16 if f.is_complex else 8
    levels = len(list(_levels(max_side)))
    kernel_bytes = ((2 * n - 1) ** dim if kernel.translation_invariant
                    else max(_PAIR_CHUNK, _SUM_GROUP * n**dim)) * 8
    return (kernel_bytes + 6 * max(((alpha + 1) * max_side) ** dim, _SLAB_CELLS) * item
            + ((levels + 1) * item + levels * 8) * min(3 * max_side, n) ** dim
            + (n + 1) ** dim * 8)


def build_sparse_domination(kernel: Kernel, f: GridFunction,
                            config: PipelineConfig | None = None) -> DominationResult:
    """Full pipeline: cover the window, recurse per cover cube, assemble
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
    if kernel.dim != grid.dim:
        raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
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
    entries: list[SparseEntry] = []
    records: list[NodeRecord] = []
    # the cover cubes of one side come in a run and share their level data
    for _, roots in itertools.groupby(cover, key=lambda c: c.side):
        roots = list(roots)
        levels = _side_levels(rt, f, roots, cfg.s)
        for root in roots:
            _build_node(levels, f, root, 0, cfg, entries, records)
        del levels

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
