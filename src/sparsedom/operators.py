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
of :mod:`sparsedom.maximal` read it in both ways; the construction in
:mod:`sparsedom.sparse` gathers through ``apply_box``, once per node and
once per level of its dyadic pass.

Kernel sampling.  A kernel that declares ``translation_invariant`` is
evaluated once per grid on the difference lattice: the offsets
``x - y = k h`` with ``|k_d| <= n - 1`` on every axis, ``(2n - 1)**dim``
values, the offset-0 value zeroed.  Both the prefix table and the direct
``apply_restricted`` read ``K(x_c, y_c)`` from there by offset, so neither
evaluates the kernel on all cell pairs.  This gives the same bits as the
dense evaluation only when every cell-center difference
``(i + 0.5)h - (j + 0.5)h`` equals ``(i - j)h`` exactly, which
``_lattice_exact`` decides in O(1) from the binary expansion of ``h``
(it holds for window lengths 1 and 3, not for 0.1 or pi).  On other grids,
and for kernels without the flag, the kernel is evaluated densely on the
cell pairs, as the one fallback path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    ``translation_invariant`` promises that ``fn(x, y)`` reads its
    arguments only through the coordinate differences
    ``x[..., d] - y[..., d]`` as computed in floating point (or their
    negatives), so that ``fn(x, y) == fn(x - y, 0)`` bit for bit.  The
    operators then sample ``fn`` once on the difference lattice of the
    grid instead of on every cell pair, where the grid's cell width makes
    that exact (see the module docstring), and fall back to the dense
    evaluation elsewhere.  A kernel that breaks the promise gets wrong
    transforms, so leave the flag off when in doubt.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    modulus: Callable[[np.ndarray], np.ndarray] | None = None
    hormander_r: float | None = None
    translation_invariant: bool = False

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(x, y)


def transpose_kernel(kernel: Kernel) -> Kernel:
    """Swapped-argument kernel ``K*(x, y) = K(y, x)``.

    The declared modulus is dropped: regularity in the second argument is
    a separate property and is not implied.  Translation invariance is
    kept: ``K(y - x)`` reads only the negated differences.
    """
    return Kernel(
        name=kernel.name + ".transpose",
        dim=kernel.dim,
        fn=lambda x, y, _f=kernel.fn: _f(y, x),
        modulus=None,
        hormander_r=None,
        translation_invariant=kernel.translation_invariant,
    )


# ---------------------------------------------------------------------------
# kernel sampling

def _cell_center_coords(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Physical centers for integer cell coordinates of shape (k, dim)."""
    return (np.asarray(cells, dtype=np.float64) + 0.5) * grid.cell_width


def _raise_nonfinite(kernel_name: str, grid: Grid, x_cell, y_cell):
    xs = _cell_center_coords(grid, x_cell)
    ys = _cell_center_coords(grid, y_cell)
    raise NumericError(
        f"kernel {kernel_name!r} evaluated non-finite at x={tuple(xs)}, "
        f"y={tuple(ys)}"
    )


def _lattice_exact(grid: Grid) -> bool:
    """Whether every cell-center difference is an exact lattice offset.

    With ``h = p 2**e``, ``p`` odd, every center ``(i + 0.5)h``, every
    difference of two centers and every offset ``k h`` is an integer
    multiple of ``2**(e - 1)`` of magnitude below ``2 n p``.  All of them
    are exact doubles, so ``(i + 0.5)h - (j + 0.5)h == (i - j)h``, when
    that integer fits the 53-bit significand and the multiples neither
    underflow nor overflow.
    """
    p, den = float(grid.cell_width).as_integer_ratio()
    e = 1 - den.bit_length()                              # den = 2**-e
    if p == 0:                                            # h underflowed
        return False
    zeros = (p & -p).bit_length() - 1
    p, e = p >> zeros, e + zeros
    bits = p.bit_length() + (2 * grid.cells_per_side).bit_length()
    return bits <= 53 and e - 1 >= -1074 and bits + e <= 1024


def _offset_lattice(kernel: Kernel, grid: Grid) -> np.ndarray | None:
    """``fn`` at every cell offset ``x - y = k h``, or None.

    Returns a read-only ``(2n - 1,) * dim`` array indexed by ``k + n - 1``
    on every axis, with the offset-0 entry zeroed, so that entry
    ``x - y + n - 1`` equals the dense ``fn(x_c, y_c)`` bit for bit,
    diagonal zeroed.  None unless the kernel declares translation
    invariance and the grid passes ``_lattice_exact``.
    """
    if not (kernel.translation_invariant and _lattice_exact(grid)):
        return None
    n, dim = grid.cells_per_side, grid.dim
    axis = np.arange(-(n - 1), n) * grid.cell_width
    x = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lat = np.asarray(kernel.fn(x, np.zeros_like(x)), dtype=np.float64)
    lat[(n - 1,) * dim] = 0.0
    lat.flags.writeable = False
    return lat


def _lattice_weights(lat: np.ndarray, grid: Grid) -> np.ndarray:
    """The kernel at every (target, source) cell pair as a read-only view of
    the difference lattice, shape ``grid.shape * 2``, with no copy:
    ``w[x, y] = lat[x - y + n - 1]`` on every axis, the windows of the
    reversed lattice with their target axes reversed back."""
    rev = (slice(None, None, -1),) * grid.dim
    return sliding_window_view(lat[rev], grid.shape)[rev]


def _kernel_block(kernel: Kernel, grid: Grid, lat: np.ndarray | None,
                  t_cells: np.ndarray, s_cells: np.ndarray) -> np.ndarray:
    """``K(x_c, y_c)`` for target cells x (rows) and source cells y, zero
    where ``x = y``: read from the lattice by offset, or evaluated densely
    when there is none.  Raises NumericError at a non-finite value."""
    if lat is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            block = np.asarray(
                kernel.fn(_cell_center_coords(grid, t_cells)[:, None, :],
                          _cell_center_coords(grid, s_cells)[None, :, :]),
                dtype=np.float64)
        shape = (len(t_cells), len(s_cells))
        if block.shape != shape or not block.flags.writeable:
            block = np.broadcast_to(block, shape).copy()
        # zero the diagonal in place: no second pair-sized array
        if t_cells is s_cells:
            np.fill_diagonal(block, 0.0)
        else:
            block[np.all(t_cells[:, None, :] == s_cells[None, :, :], axis=-1)] = 0.0
    else:
        # gathered from the pair view, with no index array per pair
        block = _lattice_weights(lat, grid)[
            tuple(t[:, None] for t in t_cells.T) + tuple(s[None, :] for s in s_cells.T)]
        if np.isfinite(lat).all():
            return block
    bad = ~np.isfinite(block)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        _raise_nonfinite(kernel.name, grid, t_cells[i], s_cells[j])
    return block


# ---------------------------------------------------------------------------
# direct restricted application

def apply_restricted(kernel: Kernel, f: GridFunction,
                     targets: CellSet | Cube | None = None,
                     source: CellSet | Cube | None = None) -> GridFunction:
    """Apply the operator with source restricted to a cell set.

    Returns a grid function that is zero off the target cells.  Targets
    and sources outside the window are ignored (f vanishes there and no
    output cells exist there).  Each chunk of targets is summed directly
    with a matrix product; only the kernel sampling is shared with
    ``RestrictedTransform``, not its table.
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

    lat = _offset_lattice(kernel, grid)
    f_src = f.values[tuple(s_cells.T)]

    # chunk targets so the pair block stays modest
    chunk = max(1, (1 << 22) // max(1, len(s_cells)))
    results = np.empty(len(t_cells), dtype=out.dtype)
    for start in range(0, len(t_cells), chunk):
        sl = slice(start, min(start + chunk, len(t_cells)))
        results[sl] = _kernel_block(kernel, grid, lat, t_cells[sl], s_cells) @ f_src
    results *= grid.cell_measure
    out[tuple(t_cells.T)] = results
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# prefix-sum accelerated transform

def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _table_bytes(grid: Grid, is_complex: bool) -> int:
    """Bytes ``RestrictedTransform`` holds at its peak, kernel temporaries
    aside: the prefix table (``n**dim (n + 1)**dim`` entries) and the
    weighted product it is summed from (``n**(2 dim)``), complex for a
    complex input."""
    n, dim = grid.cells_per_side, grid.dim
    item = 16 if is_complex else 8
    return (n**dim * (n + 1) ** dim + n ** (2 * dim)) * item


class RestrictedTransform:
    """Box-restricted applications of one kernel to one function.

    Precomputes the weights ``K(x_c, y_c) h**dim`` (diagonal zeroed) and
    per-target prefix sums ``S`` of their product with ``f``, so that
    ``T(f char_B)(x)`` for any axis-aligned box ``B`` is a difference of
    table entries.  ``apply_box`` gathers those entries per query, at
    O(1) each.  In 1D, ``prefix_windows`` returns a read-only strided view
    of ``S`` whose rows follow a box that moves with its anchor; the 1D
    oscillation sweep of :mod:`sparsedom.maximal` reads all of its
    truncated transforms through such views, so it does no per-query
    gathers; its scratch is one (anchors x side) array of differences at a
    time, never a copy of the table.

    For a translation-invariant kernel on an exact grid the weights are a
    view of the scaled difference lattice, with no copy and no kernel
    evaluation per pair; otherwise they are evaluated densely.  Memory is
    quadratic in the cell count either way: the table and the product it
    is summed from.  That estimate is checked against physical memory
    before anything is allocated, and a grid that cannot fit raises
    ParameterError.
    """

    def __init__(self, kernel: Kernel, f: GridFunction):
        grid = f.grid
        if kernel.dim != grid.dim:
            raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")
        need = _table_bytes(grid, f.is_complex)
        have = _physical_memory()
        if have is not None and need > have:
            raise ParameterError(
                f"the transform table of a {grid.dim}D grid with "
                f"{grid.cells_per_side} cells per side needs about "
                f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
                f"of physical memory")
        self.kernel = kernel
        self.f = f
        self.grid = grid
        n, dim = grid.cells_per_side, grid.dim
        lat = _offset_lattice(kernel, grid)
        if lat is None:
            cells = np.argwhere(np.ones(grid.shape, dtype=bool))
            w = _kernel_block(kernel, grid, None, cells, cells).reshape(grid.shape * 2)
        else:
            bad = ~np.isfinite(lat)
            if bad.any():
                # every offset k occurs, e.g. at x = max(k, 0), y = max(-k, 0)
                k = np.argwhere(bad)[0] - (n - 1)
                _raise_nonfinite(kernel.name, grid, np.maximum(k, 0), np.maximum(-k, 0))
            w = _lattice_weights(lat, grid)
        # (K h**dim) f(y) in the dense order, laid out (targets, *source
        # axes) as the table needs; the 2D row sums run in place
        wf = np.multiply(w, grid.cell_measure, out=np.empty(w.shape, f.values.dtype))
        del w                  # dense weights go before the table comes
        wf *= f.values
        wf = wf.reshape((n**dim,) + grid.shape)
        for axis in range(1, dim):
            np.cumsum(wf, axis=axis, out=wf)
        sat = np.zeros((n**dim,) + (n + 1,) * dim, dtype=wf.dtype)
        np.cumsum(wf, axis=dim, out=sat[(slice(None),) + (slice(1, None),) * dim])
        self._sat = sat
        self._n = n

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
    working scale ``ref_scale`` (default: four window lengths).  Every
    catalog kernel is of convolution type and declares
    ``translation_invariant``.
    """
    scale = float(params.pop("ref_scale", 4.0 * (grid.phys_side if grid else 1.0)))
    if name == "hilbert":
        k = Kernel("hilbert", 1, _hilbert_fn,
                   modulus=lambda t: 2.0 * np.asarray(t, dtype=np.float64),
                   hormander_r=math.inf, translation_invariant=True)
    elif name == "holder":
        delta = float(params.pop("delta", 0.5))
        if not (0 < delta <= 1):
            raise ParameterError(f"holder delta must lie in (0, 1], got {delta}")
        k = Kernel(f"holder[{delta}]", 1, _make_holder_fn(delta, scale),
                   modulus=lambda t, d=delta: (3.0 + 2.0 * np.pi)
                   * np.asarray(t, dtype=np.float64) ** d,
                   hormander_r=math.inf, translation_invariant=True)
    elif name == "dini_stress":
        k = Kernel("dini_stress", 1, _make_dini_stress_fn(scale),
                   modulus=lambda t: 8.0 / (1.0 + np.log(1.0 / np.clip(t, 1e-300, 1.0))) ** 2,
                   hormander_r=math.inf, translation_invariant=True)
    elif name == "riesz2d":
        k = Kernel("riesz2d", 2, _riesz2d_fn,
                   modulus=lambda t: 40.0 * np.asarray(t, dtype=np.float64),
                   hormander_r=math.inf, translation_invariant=True)
    elif name == "zero":
        dim = int(params.pop("dim", grid.dim if grid else 1))
        k = Kernel("zero", dim, lambda x, y: np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape),
                   modulus=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
                   hormander_r=math.inf, translation_invariant=True)
    else:
        raise ParameterError(f"unknown kernel name {name!r}")
    if params:
        raise ParameterError(f"unused kernel parameters for {name!r}: {sorted(params)}")
    return k
