"""Sparse cube families that dominate a kernel transform pointwise.

The construction is local-to-global.  For one node cube Q with dilation
Q+ = alpha Q, the node statistics on the window cells of Q are

* the transform of ``f`` restricted to Q+,
* a truncated power-average maximal function of ``f char_{Q+}``,
* a truncated oscillation maximal function of the same restriction.

Cells where any statistic exceeds its threshold form the exceptional set.
In quantile mode the thresholds are chosen as order statistics, so the
exceptional set provably occupies at most ``1 / 2**(dim+2)`` of Q's cells;
in fixed mode the caller supplies threshold ratios and violations are
flagged but not fatal.  A dyadic stopping time covers the exceptional set
by subcubes carrying at most half their measure of it; the node keeps the
complement as its witness and recurses into the subcubes.  Every edge of
the recursion tree gets a certified coefficient bounding the transform of
``f`` restricted to the parent dilation minus the child dilation, either
through the threshold algebra or by direct evaluation, whichever is
smaller.  The final constant is the maximum over node and edge
coefficients, and the pointwise domination it certifies is checked
verbatim by :func:`sparsedom.verify.check_domination`.

Globalization covers the window by the support box plus rings of
congruent cubes around it; every cover cube R satisfies
``support(f) subset alpha R``, so the local bound on R already controls
the full transform there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AlignmentError,
    DensityError,
    ParameterError,
)
from .grid import CellSet, Cube, Grid, GridFunction, avg_p, dilate, dyadic_children
from .maximal import oscillation
from .operators import Kernel, RestrictedTransform

__all__ = [
    "PipelineConfig",
    "ExceptionalSet",
    "SparseEntry",
    "SparseFamily",
    "NodeRecord",
    "ConstantLedger",
    "DominationResult",
    "exceptional_set",
    "local_cz_decomposition",
    "local_sparse_family",
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
    their whole cube as witness and fall back to pointwise transform
    bounds.
    """

    alpha: int = 3
    s: float = 1.0
    mode: str = "quantile"
    c_fixed: float | None = None
    a_fixed: float | None = None
    max_depth: int | None = None
    support: Cube | None = None
    exact_cap: int = 4096

    def __post_init__(self) -> None:
        if self.alpha < 3 or self.alpha % 2 == 0:
            raise ParameterError(f"alpha must be odd and >= 3, got {self.alpha}")
        if not (self.s > 0):
            raise ParameterError(f"average exponent s must be positive, got {self.s}")
        if self.mode not in ("quantile", "fixed"):
            raise ParameterError(f"mode must be 'quantile' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            if self.c_fixed is None or self.a_fixed is None:
                raise ParameterError("fixed mode needs c_fixed and a_fixed")
            if self.c_fixed <= 0 or self.a_fixed <= 0:
                raise ParameterError("fixed thresholds must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True)
class ExceptionalSet:
    """Exceptional cells of one node, with the thresholds that cut them."""

    cube: Cube
    omega: CellSet
    avg: float
    tau_t: float
    tau_ms: float
    tau_osc: float
    c_ratio: float
    a_ratio: float
    max_t_ratio: float
    allowed_per_stat: int
    exceed_counts: tuple[int, int, int]
    flags: tuple[str, ...]
    t_exceed: CellSet


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
        if flat.size == 0:
            return []
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


class NodeInfo(NamedTuple):
    a_ratio: float
    avg: float
    t_exceed: CellSet


@dataclass
class NodeRecord:
    cube: Cube
    depth: int
    avg: float
    c_ratio: float
    a_ratio: float
    a_effective: float
    max_t_ratio: float
    omega_count: int
    witness_count: int
    flags: tuple[str, ...]
    edges: list[dict] = field(default_factory=list)


@dataclass
class ConstantLedger:
    """How the final constant was assembled, node by node."""

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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "alpha": self.alpha,
            "s": self.s,
            "eta": self.eta,
            "final_c": self.final_c,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "max_depth_seen": self.max_depth_seen,
            "flag_counts": dict(sorted(self.flag_counts.items())),
            "per_depth": self.per_depth,
        }


@dataclass
class DominationResult:
    family: SparseFamily
    ledger: ConstantLedger
    records: list[NodeRecord]


# ---------------------------------------------------------------------------
# node statistics

def _node_stats_1d(rt: RestrictedTransform, f: GridFunction, cube: Cube,
                   qs: Cube, s: float, exact_cap: int):
    grid = f.grid
    n = grid.cells_per_side
    (qlo, qhi), = cube.window_clip(grid)
    w = qhi - qlo
    m = cube.side
    cells = np.arange(qlo, qhi)
    (qs_lo, qs_hi), = qs.bounds()

    outer = rt.apply_box(np.arange(n), ((qs_lo, qs_hi),))   # T(f char_{Q+})
    t_vals = np.abs(outer[qlo:qhi])

    sat = f.power_sat(s)
    cm = grid.cell_measure
    hw = grid.cell_width
    ms = np.zeros(w)
    for side in range(1, qs.side // 2 + qs.side % 2 + 1):
        a = np.arange(qlo - side + 1, qhi)
        lo = np.clip(np.maximum(a, qs_lo), 0, n)
        hi = np.clip(np.minimum(a + side, qs_hi), 0, n)
        hi = np.maximum(lo, hi)
        avgs = ((sat[hi] - sat[lo]) * cm / (side * hw)) ** (1.0 / s)
        np.maximum(ms, sliding_window_view(avgs, side).max(axis=-1), out=ms)

    # The anchor-a window of each side truncates Q+ to [a + d_lo, a + d_hi),
    # and each bound reads prefix-table column clip(a + d, c_lo, c_hi), the
    # bounds of Q+ clipped to the window as apply_box clips them.  Cut the
    # anchors where a clip starts or stops binding and where windows start
    # or stop sticking out of the grid.  On each piece every bound column is
    # constant or moves one per anchor, so the windows of S[., lo(a)] and
    # S[., hi(a)] are strided views of the table.  A window that sticks out
    # reads the side cells at that edge of the grid instead, of which the
    # cells in [a, a + side) are its own.  Cover cubes have sides under 2n,
    # so no window is wider than the grid.
    c_lo, c_hi = (int(c) for c in np.clip((qs_lo, qs_hi), 0, n))

    def bound(c: int, row: int, step: int, k: int, side: int) -> np.ndarray:
        return rt.prefix_windows(row, step, min(max(c, c_lo), c_hi),
                                 int(c_lo <= c <= c_hi), k, side)

    osc = np.zeros(w)
    shift = (qs.side // cube.side - 1) // 2
    for side in range(1, max(1, (m + 1) // 2) + 1):
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
                trunc, np.maximum(a, 0) - first,
                np.minimum(a + side, n) - first, exact_cap)
        np.maximum(osc, sliding_window_view(stat, side).max(axis=-1), out=osc)
    return cells[:, None], t_vals, ms, osc


def _row_oscillation(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     exact_cap: int) -> np.ndarray:
    """``oscillation(x[i, lo[i]:hi[i]])`` for every row of a C-contiguous
    2D array, each slice non-empty."""
    if np.iscomplexobj(x):
        return np.array([oscillation(r[l:h], exact_cap)
                         for r, l, h in zip(x, lo, hi)])
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


def _node_stats_2d(rt: RestrictedTransform, f: GridFunction, cube: Cube,
                   qs: Cube, s: float, exact_cap: int):
    grid = f.grid
    n = grid.cells_per_side
    (q0l, q0h), (q1l, q1h) = cube.window_clip(grid)
    w0, w1 = q0h - q0l, q1h - q1l
    m = cube.side
    g0, g1 = np.meshgrid(np.arange(q0l, q0h), np.arange(q1l, q1h), indexing="ij")
    cells = np.stack([g0.ravel(), g1.ravel()], axis=-1)
    (b0l, b0h), (b1l, b1h) = qs.bounds()

    # T(f char_{Q+}) once per node on the cells that side-`big` oscillation
    # cubes reach: big - 1 past the node on each side of each axis
    big = max(1, (m + 1) // 2)
    e0 = np.clip(np.arange(q0l - big + 1, q0h + big - 1), 0, n - 1)
    e1 = np.clip(np.arange(q1l - big + 1, q1h + big - 1), 0, n - 1)
    outer = rt.apply_box(e0[:, None] * n + e1[None, :], ((b0l, b0h), (b1l, b1h)))

    t_vals = np.abs(outer[big - 1:big - 1 + w0, big - 1:big - 1 + w1]).ravel()

    sat = f.power_sat(s)
    cm = grid.cell_measure
    hw = grid.cell_width
    ms = np.zeros((w0, w1))
    for side in range(1, qs.side // 2 + qs.side % 2 + 1):
        a0 = np.arange(q0l - side + 1, q0h)
        a1 = np.arange(q1l - side + 1, q1h)
        lo0 = np.clip(np.maximum(a0, b0l), 0, n)
        hi0 = np.maximum(lo0, np.clip(np.minimum(a0 + side, b0h), 0, n))
        lo1 = np.clip(np.maximum(a1, b1l), 0, n)
        hi1 = np.maximum(lo1, np.clip(np.minimum(a1 + side, b1h), 0, n))
        sums = (sat[hi0[:, None], hi1[None, :]] - sat[lo0[:, None], hi1[None, :]]
                - sat[hi0[:, None], lo1[None, :]] + sat[lo0[:, None], lo1[None, :]])
        avgs = (sums * cm / (side * hw) ** 2) ** (1.0 / s)
        tmp = sliding_window_view(avgs, side, axis=0).max(axis=-1)
        np.maximum(ms, sliding_window_view(tmp, side, axis=1).max(axis=-1), out=ms)

    osc = np.zeros((w0, w1))
    shift = (qs.side // cube.side - 1) // 2
    for side in range(1, big + 1):
        a0 = np.arange(q0l - side + 1, q0h)
        a1 = np.arange(q1l - side + 1, q1h)
        off = np.arange(side)
        big0, big1 = len(a0), len(a1)
        t_on_all = sliding_window_view(outer, (side, side))[
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
                    oscillation(tv[vm], exact_cap)
                    for tv, vm in zip(trunc.reshape(-1, k), valid.reshape(-1, k))
                ]).reshape(trunc.shape[:2])
            else:
                stat[i:i + chunk] = (
                    np.where(valid, trunc, -np.inf).max(axis=(2, 3))
                    - np.where(valid, trunc, np.inf).min(axis=(2, 3)))
        tmp = sliding_window_view(stat, side, axis=0).max(axis=-1)
        np.maximum(osc, sliding_window_view(tmp, side, axis=1).max(axis=-1), out=osc)
    return cells, t_vals, ms.ravel(), osc.ravel()


def _order_threshold(vals: np.ndarray, k: int) -> float:
    """The (k+1)-th largest value; the max when k is out of range.

    Strictly exceeding the returned threshold is then possible for at
    most k cells.
    """
    if vals.size == 0:
        return 0.0
    idx = k if k < vals.size else 0
    return float(np.partition(vals, vals.size - 1 - idx)[vals.size - 1 - idx])


def _exceptional(rt: RestrictedTransform, f: GridFunction, cube: Cube,
                 alpha: int, s: float, mode: str, c_fixed, a_fixed,
                 exact_cap: int) -> ExceptionalSet:
    grid = f.grid
    qs = dilate(cube, alpha)
    avg = avg_p(f, qs, s)
    flags: list[str] = []
    clip = cube.window_clip(grid)
    empty = CellSet.empty(grid)
    if clip is None or avg == 0.0:
        if avg == 0.0:
            flags.append("zero_average")
        if clip is None:
            flags.append("outside_window")
        return ExceptionalSet(cube, empty, avg, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                              cube.cell_count // (3 * 2 ** (grid.dim + 2)),
                              (0, 0, 0), tuple(flags), empty)

    stats = (_node_stats_1d if grid.dim == 1 else _node_stats_2d)(
        rt, f, cube, qs, s, exact_cap)
    cells, t_vals, ms_vals, osc_vals = stats
    allowed = cube.cell_count // (3 * 2 ** (grid.dim + 2))
    if mode == "quantile":
        tau_t = _order_threshold(t_vals, allowed)
        tau_ms = _order_threshold(ms_vals, allowed)
        tau_osc = _order_threshold(osc_vals, allowed)
    else:
        tau_ms = c_fixed * avg
        tau_t = a_fixed * avg
        tau_osc = a_fixed * avg
    ex_t = t_vals > tau_t
    ex_ms = ms_vals > tau_ms
    ex_osc = osc_vals > tau_osc
    union = ex_t | ex_ms | ex_osc
    if mode == "fixed" and int(union.sum()) * 2 ** (grid.dim + 2) > cube.cell_count:
        flags.append("measure_violation")

    omega_mask = np.zeros(grid.shape, dtype=bool)
    omega_mask[tuple(cells[union].T)] = True
    t_mask = np.zeros(grid.shape, dtype=bool)
    t_mask[tuple(cells[ex_t].T)] = True
    c_ratio = tau_ms / avg
    a_ratio = max(tau_t, tau_osc) / avg
    return ExceptionalSet(
        cube=cube,
        omega=CellSet.from_window_mask(grid, omega_mask),
        avg=avg,
        tau_t=tau_t,
        tau_ms=tau_ms,
        tau_osc=tau_osc,
        c_ratio=c_ratio,
        a_ratio=a_ratio,
        max_t_ratio=float(t_vals.max()) / avg,
        allowed_per_stat=allowed,
        exceed_counts=(int(ex_t.sum()), int(ex_ms.sum()), int(ex_osc.sum())),
        flags=tuple(flags),
        t_exceed=CellSet.from_window_mask(grid, t_mask),
    )


def exceptional_set(kernel: Kernel, f: GridFunction, cube: Cube, alpha: int = 3,
                    s: float = 1.0, mode: str = "quantile",
                    c: float | None = None, a: float | None = None,
                    transform: RestrictedTransform | None = None,
                    exact_cap: int = 4096) -> ExceptionalSet:
    """Exceptional cells of one node cube.

    A window cell of ``cube`` is exceptional when its transform value,
    truncated power-average maximal value, or truncated oscillation
    maximal value (all computed from ``f`` restricted to the alpha
    dilation) strictly exceeds the corresponding threshold.  In quantile
    mode the thresholds are per-statistic order statistics sized so the
    exceptional set covers at most ``1/2**(dim+2)`` of the cube's cells;
    in fixed mode pass threshold-to-average ratios ``c`` (power average)
    and ``a`` (transform and oscillation).
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ParameterError(f"alpha must be odd and >= 3, got {alpha}")
    if mode not in ("quantile", "fixed"):
        raise ParameterError(f"mode must be 'quantile' or 'fixed', got {mode!r}")
    if mode == "fixed" and (c is None or a is None or c <= 0 or a <= 0):
        raise ParameterError("fixed mode needs positive c and a")
    rt = transform if transform is not None else RestrictedTransform(kernel, f)
    return _exceptional(rt, f, cube, alpha, s, mode, c, a, exact_cap)


# ---------------------------------------------------------------------------
# stopping time

def _density_exceeds(count: int, cube: Cube, dim: int, lam: float | None) -> bool:
    if lam is None:
        return count * 2 ** (dim + 1) > cube.cell_count
    return count > lam * cube.cell_count


def _stopping_time(grid: Grid, cube: Cube, omega: CellSet,
                   lam: float | None, allow_odd_leaf: bool):
    """Maximal subcubes holding more than the threshold density of omega.

    Returns (selected cubes, flags).  A start cube already above the
    threshold is not selected; its children are scanned instead and the
    event flagged.  Odd sides above one cannot be halved: with
    ``allow_odd_leaf`` the residual exceptional cells are selected as
    single-cell cubes (flagged), otherwise that raises AlignmentError.
    """
    selected: list[Cube] = []
    flags: list[str] = []

    def recurse(q: Cube, is_root: bool) -> None:
        count = omega.count_in(q)
        if count == 0:
            return
        if not is_root and _density_exceeds(count, q, grid.dim, lam):
            selected.append(q)
            return
        if q.side == 1:
            if is_root:
                flags.append("density_violation")
            return
        if q.side % 2 == 1:
            if not allow_odd_leaf:
                raise AlignmentError(
                    f"cube side {q.side} is odd; cannot run the dyadic stopping time")
            flags.append("odd_leaf")
            inter = omega.window_mask()
            clip = q.window_clip(grid)
            if clip is not None:
                sl = tuple(slice(lo, hi) for lo, hi in clip)
                local = np.zeros(grid.shape, dtype=bool)
                local[sl] = inter[sl]
                for cell in np.argwhere(local):
                    selected.append(Cube(tuple(int(v) for v in cell), 1))
            return
        if is_root and _density_exceeds(count, q, grid.dim, lam):
            flags.append("density_violation")
        for child in dyadic_children(q):
            recurse(child, False)

    recurse(cube, True)
    return selected, flags


def local_cz_decomposition(grid: Grid, cube: Cube, omega: CellSet,
                           lam: float | None = None) -> list[Cube]:
    """Dyadic stopping-time cover of an exceptional set inside a cube.

    Returns the maximal dyadic subcubes P of ``cube`` whose share of
    ``omega`` strictly exceeds the density threshold (default
    ``1/2**(dim+1)``, compared in exact integer arithmetic).  Their union
    covers ``omega`` inside the cube, each P holds at most ``2**dim``
    times the threshold density, and the total cell count is at most half
    the cube's.  The cube side must be a power of two, and the cube
    itself must not already exceed the threshold.
    """
    if cube.side & (cube.side - 1):
        raise AlignmentError(f"cube side must be a power of two, got {cube.side}")
    if lam is not None and not (0 < lam < 1):
        raise ParameterError(f"density threshold must lie in (0, 1), got {lam}")
    if _density_exceeds(omega.count_in(cube), cube, grid.dim, lam):
        raise DensityError(
            f"exceptional set occupies more than the threshold share of {cube}")
    selected, _ = _stopping_time(grid, cube, omega, lam, allow_odd_leaf=False)
    return selected


# ---------------------------------------------------------------------------
# recursion

def _edge_direct(rt: RestrictedTransform, parent_dil: Cube, child_dil: Cube,
                 child: Cube, avg: float, grid: Grid) -> float:
    """Exact edge coefficient: the largest transform magnitude on the
    child's window cells with source parent-dilation minus child-dilation,
    in units of the parent average."""
    clip = child.window_clip(grid)
    if clip is None:
        return 0.0
    if grid.dim == 1:
        (lo, hi), = clip
        rows = np.arange(lo, hi)
        outer = rt.apply_box(rows, parent_dil.bounds())
        inner_b = child_dil.clip(parent_dil)
        inner = rt.apply_box(rows, inner_b) if inner_b else 0.0
    else:
        g0, g1 = np.meshgrid(*[np.arange(lo, hi) for lo, hi in clip], indexing="ij")
        rows = (g0 * grid.cells_per_side + g1).ravel()
        outer = rt.apply_box(rows, parent_dil.bounds())
        inner_b = child_dil.clip(parent_dil)
        inner = rt.apply_box(rows, inner_b) if inner_b else 0.0
    resid = float(np.abs(outer - inner).max())
    if avg > 0:
        return resid / avg
    return 0.0 if resid == 0.0 else math.inf


def _analytic_edge_valid(witnessable: CellSet, omega: CellSet,
                         child_t_exceed: CellSet, grid: Grid) -> bool:
    """A certified chain step needs one window cell of the child outside
    both the parent's exceptional set and the child's transform-exceed set."""
    good = witnessable.window_mask() & ~omega.window_mask() \
        & ~child_t_exceed.window_mask()
    return bool(good.any())


def _build_node(rt: RestrictedTransform, f: GridFunction, q: Cube, depth: int,
                cfg: PipelineConfig, entries: list[SparseEntry],
                records: list[NodeRecord]) -> NodeInfo:
    grid = f.grid
    exc = _exceptional(rt, f, q, cfg.alpha, cfg.s, cfg.mode,
                       cfg.c_fixed, cfg.a_fixed, cfg.exact_cap)
    flags = list(exc.flags)
    children: list[Cube] = []
    if not exc.omega.is_empty():
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            flags.append("depth_capped")
        else:
            children, st_flags = _stopping_time(grid, q, exc.omega, None,
                                                allow_odd_leaf=True)
            flags.extend(st_flags)
    witness = CellSet.cube_minus_cubes(grid, q, children)

    # witness cells not cleared of exceptional cells fall back to the
    # exact pointwise transform bound over the whole node
    uncovered = witness.window_mask() & exc.omega.window_mask()
    a_eff = exc.a_ratio
    if uncovered.any():
        flags.append("witness_overlaps_exceptional")
        a_eff = max(a_eff, exc.max_t_ratio)

    entry = SparseEntry(cube=dilate(q, cfg.alpha), witness=witness,
                        coefficient=exc.avg, base_cube=q, depth=depth,
                        flags=tuple(flags))
    entries.append(entry)
    record = NodeRecord(cube=q, depth=depth, avg=exc.avg, c_ratio=exc.c_ratio,
                        a_ratio=exc.a_ratio, a_effective=a_eff,
                        max_t_ratio=exc.max_t_ratio,
                        omega_count=exc.omega.count,
                        witness_count=witness.count, flags=tuple(flags))
    records.append(record)

    parent_dil = dilate(q, cfg.alpha)
    for child in children:
        info = _build_node(rt, f, child, depth + 1, cfg, entries, records)
        child_dil = dilate(child, cfg.alpha)
        kappa = _edge_direct(rt, parent_dil, child_dil, child, exc.avg, grid)
        analytic = math.inf
        if exc.avg > 0 and _analytic_edge_valid(
                CellSet.from_cube(grid, child), exc.omega, info.t_exceed, grid):
            analytic = 2.0 * exc.a_ratio + exc.c_ratio * info.a_ratio
        record.edges.append({
            "child": child,
            "kappa": kappa,
            "analytic": analytic,
            "coefficient": min(kappa, analytic),
        })
    return NodeInfo(a_ratio=exc.a_ratio, avg=exc.avg, t_exceed=exc.t_exceed)


def local_sparse_family(kernel: Kernel, f: GridFunction, cube: Cube,
                        config: PipelineConfig | None = None,
                        transform: RestrictedTransform | None = None,
                        ) -> tuple[list[SparseEntry], list[NodeRecord]]:
    """Sparse entries of the recursion tree rooted at one cube.

    The root must have a power-of-two side.  Witnesses of the returned
    entries are pairwise disjoint and each holds at least half of its base
    cube's cells.
    """
    cfg = config or PipelineConfig()
    if cube.side & (cube.side - 1):
        raise AlignmentError(f"root cube side must be a power of two, got {cube.side}")
    rt = transform if transform is not None else RestrictedTransform(kernel, f)
    entries: list[SparseEntry] = []
    records: list[NodeRecord] = []
    _build_node(rt, f, cube, 0, cfg, entries, records)
    return entries, records


def constant_from_records(records: list[NodeRecord]) -> float:
    """The certified constant of a recursion forest: the largest node or
    edge coefficient."""
    best = 0.0
    for rec in records:
        best = max(best, rec.a_effective)
        for e in rec.edges:
            best = max(best, e["coefficient"])
    return best


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
        offsets = ((-s,), (s,)) if grid.dim == 1 else tuple(
            (i * s, j * s) for i in (-1, 0, 1) for j in (-1, 0, 1)
            if (i, j) != (0, 0))
        for off in offsets:
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


def build_sparse_domination(kernel: Kernel, f: GridFunction,
                            config: PipelineConfig | None = None) -> DominationResult:
    """Full pipeline: cover the window, recurse per cover cube, assemble
    the family and its certified constant.

    The constant is the maximum of all node coefficients (transform and
    oscillation thresholds in units of the node average, or exact
    pointwise bounds where witnesses overlap exceptional cells) and all
    edge coefficients; by the chain telescoping it certifies
    ``|T f| <= constant * (sparse averaging operator)`` on every window
    cell whenever no honesty flag says otherwise.
    """
    cfg = config or PipelineConfig()
    grid = f.grid
    if kernel.dim != grid.dim:
        raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
    eta = 1.0 / (2.0 * cfg.alpha**grid.dim)
    supp = cfg.support if cfg.support is not None else support_box(f)
    if supp is None:
        window = grid.window_cube()
        entry = SparseEntry(cube=dilate(window, cfg.alpha),
                            witness=CellSet.from_cube(grid, window),
                            coefficient=0.0, base_cube=window, depth=0,
                            flags=("zero_input",))
        family = SparseFamily(grid, eta, [entry], 0.0,
                              meta=_family_meta(kernel, cfg, None, ["zero_input"]))
        ledger = ConstantLedger(cfg.mode, cfg.alpha, cfg.s, eta, 0.0, 1, 0, 0,
                                {"zero_input": 1}, [])
        return DominationResult(family, ledger, [])

    cover = partition_cover(grid, supp, cfg.alpha)
    rt = RestrictedTransform(kernel, f)
    entries: list[SparseEntry] = []
    records: list[NodeRecord] = []
    for root in cover:
        _build_node(rt, f, root, 0, cfg, entries, records)

    final_c = constant_from_records(records)
    n_edges = 0
    flag_counts: Counter = Counter()
    depth_agg: dict[int, dict] = {}
    for rec in records:
        n_edges += len(rec.edges)
        for fl in rec.flags:
            flag_counts[fl] += 1
        agg = depth_agg.setdefault(rec.depth, {
            "depth": rec.depth, "nodes": 0, "max_a": 0.0, "max_c": 0.0,
            "max_edge": 0.0})
        agg["nodes"] += 1
        agg["max_a"] = max(agg["max_a"], rec.a_effective)
        agg["max_c"] = max(agg["max_c"], rec.c_ratio)
        if rec.edges:
            agg["max_edge"] = max(agg["max_edge"],
                                  max(e["coefficient"] for e in rec.edges))

    ledger = ConstantLedger(
        mode=cfg.mode, alpha=cfg.alpha, s=cfg.s, eta=eta, final_c=final_c,
        n_nodes=len(records), n_edges=n_edges,
        max_depth_seen=max((r.depth for r in records), default=0),
        flag_counts=dict(flag_counts),
        per_depth=[depth_agg[d] for d in sorted(depth_agg)],
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
