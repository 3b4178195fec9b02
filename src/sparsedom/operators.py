"""Kernel operators on grid functions.

A kernel is a pointwise formula ``K(x, y)`` on physical coordinates,
together with an optional declared smoothness modulus ``omega`` and an
optional integral-smoothness exponent.  The discrete operator is

    T(f char_S)(x) = sum over source cells y != x of K(x_c, y_c) f(y) h**dim

with cell centers ``x_c, y_c``; the diagonal cell ``y = x`` is always
skipped.  Three evaluators share the kernel sampling below:

* ``apply_restricted`` sums each chunk of target rows directly, with
  matrix products over fixed groups of targets, from the source cells
  inside the box of f's nonzero cells (``_live_sources``, the one rule of
  every direct sum of f).  It is the reference the tests compare against,
  and the domination check's path for a kernel without a lattice; for
  one with a lattice the check of :mod:`sparsedom.verify` has its own FFT
  over the window and re-sums the cells that decide its report through
  the same ``_restricted_sums`` and sources.
* ``LatticeTransform`` serves the sparse construction of
  :mod:`sparsedom.sparse` for every kernel.  ``full()`` gives ``T f`` on
  the window, which the cover cubes read, and ``dilate_transforms(start,
  count, side)`` gives ``T(f char_{P+})``, P+ the dilate by the ``alpha``
  it is built with, on the cells of every cube P of a block of congruent
  cubes.  Where the kernel has a difference lattice (below) ``full`` is
  one FFT over the window and a block goes in slabs of bounded size, a
  small side by direct sums against a block of lattice weights, a larger
  one by batched FFTs against a segment of the lattice; where it has none,
  both sum directly through ``_restricted_sums``, the block cube by cube.
  Memory is linear in the cell count either way.
* ``RestrictedTransform`` precomputes per-target prefix sums, quadratic in
  the cell count, read in two ways: ``apply_box`` gathers one table
  difference per (target, box) query, and ``prefix_windows`` hands out
  strided views of the table, in any dimension, so that a sweep reads whole
  blocks of truncated transforms with no per-query gather and no copy of
  the table.  Only the oscillation sweep of :mod:`sparsedom.maximal`
  builds it, and reads it through the views.

Kernel sampling.  A kernel that declares ``translation_invariant`` is
evaluated once per grid on the difference lattice: the offsets
``x - y = k h`` with ``|k_d| <= n - 1`` on every axis, ``(2n - 1)**dim``
values, the offset-0 value zeroed.  Its discrete operator is defined by
these values: the prefix table, the FFT transforms and the direct
``apply_restricted`` all read ``K(k h)`` by offset, so none evaluates the
kernel on all cell pairs, on any grid.  Where the window length makes the
cell-center differences ``(i + 0.5)h - (j + 0.5)h`` round away from
``(i - j)h`` (0.1 or pi, unlike 1 or 3), the lattice values differ from
those at the cell centers by that rounding, a few units in the last place
of the offset.  Kernels without the flag are evaluated densely on the
cell pairs they are summed over.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ParameterError
from .grid import CellSet, Cube, Grid, GridFunction, _box_slices, _corner_sums, dilate

__all__ = [
    "Kernel",
    "apply_restricted",
    "transpose_kernel",
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

    ``translation_invariant`` promises that ``fn(x, y)`` depends on its
    arguments only through the coordinate differences ``x - y`` (or their
    negatives).  The operators then define the kernel's discrete operator
    by ``fn(k h, 0)`` at the lattice offsets ``k h`` and sample those once
    per grid, on every grid, instead of evaluating ``fn`` on every pair of
    cell centers (see the module docstring).  Where the cell-center
    differences round exactly to ``k h`` the two agree bit for bit.  A
    kernel that breaks the promise gets wrong transforms, so leave the
    flag off when in doubt.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    modulus: Callable[[np.ndarray], np.ndarray] | None = None
    hormander_r: float | None = None
    translation_invariant: bool = False


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


def _check_dims(kernel: Kernel, grid: Grid) -> None:
    """Raise ParameterError unless the kernel and the grid share a dimension."""
    if kernel.dim != grid.dim:
        raise ParameterError(f"kernel dim {kernel.dim} != grid dim {grid.dim}")


# ---------------------------------------------------------------------------
# kernel sampling

def _cell_center_coords(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Physical centers for integer cell coordinates of shape (k, dim)."""
    return (np.asarray(cells, dtype=np.float64) + 0.5) * grid.cell_width


def _raise_nonfinite(kernel_name: str, grid: Grid, x_cell, y_cell):
    xs = tuple(float(v) for v in _cell_center_coords(grid, x_cell))
    ys = tuple(float(v) for v in _cell_center_coords(grid, y_cell))
    raise NumericError(
        f"kernel {kernel_name!r} evaluated non-finite at x={xs}, y={ys}")


def _offset_lattice(kernel: Kernel, grid: Grid) -> np.ndarray | None:
    """``fn`` at every cell offset ``x - y = k h``, or None.

    Returns a read-only ``(2n - 1,) * dim`` array indexed by ``k + n - 1``
    on every axis, with the offset-0 entry zeroed: the kernel at the pair
    ``(x, y)`` is entry ``x - y + n - 1``.  None unless the kernel declares
    translation invariance.  It is filled from first-axis slabs of at most
    ``_SLAB_CELLS`` offsets (or one row), so the kernel's temporaries are
    slab-sized.  A non-finite value raises NumericError, named by a cell
    pair with its offset, so every lattice handed out is finite.
    """
    if not kernel.translation_invariant:
        return None
    n, dim = grid.cells_per_side, grid.dim
    axis = np.arange(-(n - 1), n) * grid.cell_width
    lat = np.empty((2 * n - 1,) * dim)
    rows = max(1, _SLAB_CELLS // len(axis) ** (dim - 1))
    for i in range(0, len(axis), rows):
        x = np.stack(np.meshgrid(axis[i:i + rows], *[axis] * (dim - 1), indexing="ij"), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lat[i:i + rows] = kernel.fn(x, np.zeros_like(x))
        lat[(n - 1,) * dim] = 0.0       # after every fill, so after its own slab's
        if not np.isfinite(lat[i:i + rows]).all():
            # every offset k occurs, e.g. at x = max(k, 0), y = max(-k, 0)
            k = np.argwhere(~np.isfinite(lat[:i + rows]))[0] - (n - 1)
            _raise_nonfinite(kernel.name, grid, np.maximum(k, 0), np.maximum(-k, 0))
    lat.flags.writeable = False
    return lat


def _lattice_weights(lat: np.ndarray, grid: Grid) -> np.ndarray:
    """The kernel at every (target, source) cell pair as a read-only view of
    the difference lattice, shape ``grid.shape * 2``, with no copy per
    pair: ``w[x, y] = lat[x - y + n - 1]`` on every axis, the windows of
    a reversed copy of the lattice with their target axes reversed back,
    so that ``w[x]`` runs forward through memory."""
    rev = (slice(None, None, -1),) * grid.dim
    return sliding_window_view(np.ascontiguousarray(lat[rev]), grid.shape)[rev]


def _kernel_block(kernel: Kernel, grid: Grid, pairs: np.ndarray | None,
                  t_cells: np.ndarray, sources) -> np.ndarray:
    """``K(x_c, y_c)`` for target cells x (rows) and source cells y, zero
    where ``x = y``: read from the lattice's pair view ``pairs``
    (``_lattice_weights``), or evaluated densely when there is none.  The
    sources are distinct window cells in window order, as
    ``CellSet.window_cells`` lists them, or the bounds of a box, which
    stands for its cells in that order.  A box is sliced out of the pair
    view, which copies only the target rows, the window being one such
    box; other cells are gathered from it.  A dense evaluation raises
    NumericError at a non-finite value; a lattice is finite already."""
    if isinstance(sources, tuple):
        if pairs is not None:
            rows = pairs[(slice(None),) * grid.dim + _box_slices(sources)]
            return rows[tuple(t_cells.T)].reshape(len(t_cells), -1)
        lo, hi = np.transpose(sources)
        sources = np.argwhere(np.ones(hi - lo, dtype=bool)) + lo
    if pairs is not None:
        # gathered from the pair view, with no index array per pair
        return pairs[tuple(t[:, None] for t in t_cells.T)
                     + tuple(s[None, :] for s in sources.T)]
    with np.errstate(divide="ignore", invalid="ignore"):
        block = np.asarray(
            kernel.fn(_cell_center_coords(grid, t_cells)[:, None, :],
                      _cell_center_coords(grid, sources)[None, :, :]),
            dtype=np.float64)
    shape = (len(t_cells), len(sources))
    if block.shape != shape or not block.flags.writeable:
        block = np.broadcast_to(block, shape).copy()
    # zero the diagonal in place: no second pair-sized array
    if t_cells is sources:
        np.fill_diagonal(block, 0.0)
    else:
        block[np.all(t_cells[:, None, :] == sources[None, :, :], axis=-1)] = 0.0
    bad = ~np.isfinite(block)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        _raise_nonfinite(kernel.name, grid, t_cells[i], sources[j])
    return block


def _support_bounds(values: np.ndarray):
    """Half-open bounds per axis of the smallest box holding every nonzero
    cell of ``values``, or None where every cell is 0."""
    nonzero = values != 0
    bounds = []
    for d in range(values.ndim):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(values.ndim) if a != d)))
        if hit.size == 0:
            return None
        bounds.append((int(hit[0]), int(hit[-1]) + 1))
    return tuple(bounds)


def _live_sources(grid: Grid, values: np.ndarray, source: CellSet | Cube, support):
    """The sources of every direct sum of f, and f on them: the window
    cells of ``source`` inside ``support``, the bounds of the box of f's
    nonzero cells (``_support_bounds``), since off it every term is an
    exact 0.  Every sum that reads f takes its sources here, so two sums
    of one target over one source set add the same terms in the same
    order and agree bit for bit.  The sources are a box's bounds where the
    source set fills a box (a cube always does), or else its cells, as
    ``_kernel_block`` reads them; f's values follow in window order."""
    box = source if isinstance(source, Cube) else source.box
    clip = None if support is None else box.window_clip(grid)
    if clip is not None:
        clip = tuple((max(lo, a), min(hi, b)) for (lo, hi), (a, b) in zip(clip, support))
    if clip is None or any(lo >= hi for lo, hi in clip):
        return np.zeros((0, grid.dim), dtype=np.intp), values.ravel()[:0]
    if isinstance(source, Cube) or source.mask.all():
        return clip, values[_box_slices(clip)].ravel()
    lo, hi = np.transpose(clip)
    cells = source.window_cells()
    cells = cells[np.all((cells >= lo) & (cells < hi), axis=1)]
    return cells, values[tuple(cells.T)]


def _source_count(sources) -> int:
    """Cells of a source list or box as ``_kernel_block`` takes them."""
    return math.prod(hi - lo for lo, hi in sources) if isinstance(sources, tuple) else len(sources)


# ---------------------------------------------------------------------------
# direct restricted application

# pair entries per kernel block of the direct sums
_PAIR_CHUNK = 1 << 22
# targets per matrix-vector product of the direct sums
_SUM_GROUP = 4


def _restricted_sums(kernel: Kernel, grid: Grid, t_cells: np.ndarray,
                     sources, f_src: np.ndarray,
                     lat: np.ndarray | None = None) -> np.ndarray:
    """``h**dim sum_y K(x_c, y_c) f_src[y]`` at every target cell x, for
    sources as ``_kernel_block`` takes them (cells or a box) and source
    values ``f_src`` of shape ``(sources,)`` or ``(sources, k)`` (k
    columns summed at once, one matrix product per chunk).  The kernel
    is read from ``lat`` when the caller has sampled the difference
    lattice, and sampled once otherwise; targets go in chunks of at most
    ``_PAIR_CHUNK`` pairs.

    A single column is summed by one matrix-vector product per group of
    ``_SUM_GROUP`` consecutive targets of ``t_cells``: BLAS may round a
    target's sum differently depending on which targets share its
    product, so the groups are fixed, and re-summing whole groups
    reproduces the sums of a larger call bit for bit.  No sources give
    +0.0 at every target."""
    count = _source_count(sources)
    out = np.zeros((len(t_cells),) + f_src.shape[1:],
                   dtype=np.result_type(f_src, np.float64))
    if count == 0:
        return out
    if lat is None:
        lat = _offset_lattice(kernel, grid)
    # the pair view once, for every chunk
    pairs = None if lat is None else _lattice_weights(lat, grid)
    # whole groups per chunk
    chunk = max(1, _PAIR_CHUNK // count // _SUM_GROUP) * _SUM_GROUP
    for start in range(0, len(t_cells), chunk):
        sl = slice(start, min(start + chunk, len(t_cells)))
        out[sl] = _block_sums(
            _kernel_block(kernel, grid, pairs, t_cells[sl], sources), f_src)
    out *= grid.cell_measure
    return out


def _block_sums(block: np.ndarray, f_src: np.ndarray) -> np.ndarray:
    """``block @ f_src``; for one column, the whole groups of
    ``_SUM_GROUP`` rows go as a stack of matrix-vector products, one per
    group, then the tail as a group of its own padded with zero rows, so
    that every row is summed by a product of ``_SUM_GROUP`` rows, a tail
    row as it would be in a whole group.  A complex ``f_src`` goes as its
    real and imaginary parts, two real products, so that the real block
    is never copied to complex."""
    if np.iscomplexobj(f_src):
        out = np.empty(block.shape[:1] + f_src.shape[1:], dtype=np.complex128)
        out.real = _block_sums(block, np.ascontiguousarray(f_src.real))
        out.imag = _block_sums(block, np.ascontiguousarray(f_src.imag))
        return out
    if f_src.ndim > 1:
        return block @ f_src
    g = _SUM_GROUP
    rows, whole = len(block), len(block) // g * g
    out = np.empty(rows)
    out[:whole] = (block[:whole].reshape(-1, g, block.shape[1]) @ f_src).reshape(-1)
    if whole < rows:
        tail = np.zeros((1, g, block.shape[1]))
        tail[0, :rows - whole] = block[whole:]
        out[whole:] = (tail @ f_src).reshape(-1)[:rows - whole]
    return out


def apply_restricted(kernel: Kernel, f: GridFunction,
                     targets: CellSet | Cube | None = None,
                     source: CellSet | Cube | None = None) -> GridFunction:
    """Apply the operator with source restricted to a cell set.

    Returns a grid function that is zero off the target cells.  Targets
    and sources outside the window are ignored (f vanishes there and no
    output cells exist there), and so are sources outside the box of f's
    nonzero cells (``_live_sources``), whose terms are exact zeros.  Each
    chunk of targets is summed directly with matrix products (see
    ``_restricted_sums``); only the kernel sampling is shared with the
    table and the FFT transforms.
    """
    grid = f.grid
    _check_dims(kernel, grid)
    if targets is None:
        targets = grid.window_cube()
    if source is None:
        source = grid.window_cube()
    if isinstance(targets, Cube):
        targets = CellSet.from_cube(grid, targets)

    t_cells = targets.window_cells()
    sources, f_src = _live_sources(grid, f.values, source, _support_bounds(f.values))
    out = np.zeros(grid.shape, dtype=np.complex128 if f.is_complex else np.float64)
    if len(t_cells) == 0:
        return GridFunction(grid, out)

    out[tuple(t_cells.T)] = _restricted_sums(kernel, grid, t_cells, sources, f_src)
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# memory preflight

def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _resident_memory() -> int:
    """Bytes this process holds resident now, or 0 where the platform does
    not say (only Linux's ``/proc/self/statm`` is read, unbuffered: a text
    file's buffers cost more than the read)."""
    try:
        with open("/proc/self/statm", "rb", buffering=0) as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _size(nbytes: int) -> str:
    """A byte count in the largest unit in which it is at least 1."""
    k = min(max(0, (nbytes.bit_length() - 1) // 10), 4)
    return f"{nbytes / 1024**k:.1f} {('B', 'KiB', 'MiB', 'GiB', 'TiB')[k]}"


def _refuse_beyond_memory(what: str, need: int) -> None:
    """Raise ParameterError when ``need`` bytes, on top of what the process
    holds resident now, exceed physical memory; check nothing where its
    size is unknown."""
    have = _physical_memory()
    held = 0 if have is None else _resident_memory()
    if have is not None and need + held > have:
        also = f" on top of the {_size(held)} this process holds" if held else ""
        raise ParameterError(f"{what} needs about {_size(need)}{also}, more than "
                             f"the {_size(have)} of physical memory")


def _table_bytes(grid: Grid, is_complex: bool, dense: bool) -> int:
    """Bytes ``RestrictedTransform`` holds at its peak, kernel temporaries
    aside: the prefix table (``n**dim (n + 1)**dim`` entries, complex for a
    complex input) and, for a ``dense`` kernel, one without a lattice, the
    weights it is summed from (``n**(2 dim)``, counted at the table's entry
    size), or else the lattice and its reversed copy."""
    n, dim = grid.cells_per_side, grid.dim
    item = 16 if is_complex else 8
    if dense:
        return (n**dim * (n + 1) ** dim + n ** (2 * dim)) * item
    return n**dim * (n + 1) ** dim * item + 2 * (2 * n - 1) ** dim * 8


# ---------------------------------------------------------------------------
# transforms of f restricted to dilated cubes

# points per slab: FFT points (or source cells summed directly) of a
# ``dilate_transforms`` batch, and offsets of the lattice's sampling
_SLAB_CELLS = 1 << 16
# multiply-adds per cube, ``(alpha side)**dim * side**dim``, up to which a
# level is summed directly instead of by FFT
_DIRECT_MADDS = 4096


def _slabs(count, per_cube: int, budget: int):
    """Boxes of cubes that cut a box of ``count`` cubes per axis, each
    holding at most ``budget`` cells at ``per_cube`` a cube, or one cube:
    runs of whole first-axis rows, or where one row holds more, the same
    cut along the next axis inside each row.  Yields (offset, count) per
    axis, in C order."""
    row = per_cube * math.prod(count[1:])
    if row > budget and len(count) > 1:
        for i in range(count[0]):
            for at, sub in _slabs(count[1:], per_cube, budget):
                yield (i, *at), (1, *sub)
        return
    step = max(1, budget // row)
    for i in range(0, count[0], step):
        yield (i,) + (0,) * (len(count) - 1), (min(step, count[0] - i), *count[1:])


class LatticeTransform:
    """Transforms of one function restricted to dilated cubes, the sparse
    construction's transform for every kernel.

    ``full`` gives ``T f`` on the window, from one circular FFT of ``2n``
    points per axis, or without a lattice from direct sums; a cube R with
    ``support(f) subset alpha R``, as every cover cube has, reads its
    transform off it.  ``dilate_transforms`` gives ``T(f char_{P+})`` on
    the cells of every cube P of a block of congruent cubes, with P+ the
    ``alpha`` dilate of P for the ``alpha`` the transform is built with.
    With a difference
    lattice, a block is cut into slabs of cubes (``_slabs``) of at most
    ``_SLAB_CELLS`` points or one cube, so that a block as wide as the
    window holds no more memory at a time than one cube or one slab.  Each
    cube's source is a strided window of the slab's box of f, zero outside
    the window, and

    * where a cube costs at most ``_DIRECT_MADDS`` multiply-adds,
      ``(alpha side)**dim * side**dim`` (2D sides up to 4, 1D up to 32),
      it is summed directly against the side's weight block, ``K((x - y)
      h) h**dim`` for x in P and y in P+;
    * otherwise the slab goes as one batched FFT: on P the offsets to P+
      satisfy ``|k| <= (shift + 1) side - 1`` per axis, ``shift = (alpha -
      1) / 2``, so ``(alpha + 1) side`` points per axis, circular but exact
      on P, convolve the side's kernel segment with each cube's source.

    Offsets past ``n - 1`` pair window cells only with cells outside the
    window, where f vanishes, and are left out.  A cube whose dilate
    misses the box of f's nonzero cells, so that its source is all 0, is
    neither summed nor convolved: its transform is +0.0.  Either way each
    cube is
    summed on its own, in an order that does not depend on the others, so
    it gets the same bits from a call of its own as in a slab or a block
    of any size; the values agree with the prefix table to rounding.  The
    weight block and the segment's spectrum are made once per call.
    Without a lattice each cube is summed directly by
    ``_restricted_sums``, from P+'s sources (``_live_sources``) to P's
    window cells: bit for bit ``apply_restricted(kernel, f, targets=P,
    source=P+)``.

    Memory is linear in the cell count; the builder checks its estimate
    against physical memory before it builds this
    (:func:`sparsedom.sparse._build_bytes`).
    """

    def __init__(self, kernel: Kernel, f: GridFunction, alpha: int):
        grid = f.grid
        _check_dims(kernel, grid)
        self.kernel = kernel
        self.grid = grid
        self.alpha = alpha
        self._shift = (alpha - 1) // 2
        self._values = f.values
        self._support = _support_bounds(f.values)
        self._lat = _offset_lattice(kernel, grid)
        self._fft, self._ifft = ((np.fft.fftn, np.fft.ifftn) if f.is_complex
                                 else (np.fft.rfftn, np.fft.irfftn))

    def full(self) -> np.ndarray:
        """``T f`` on every window cell, window-shaped.

        With a lattice, one circular FFT of ``2n`` points per axis (``rfftn``
        halves for real f): the window's offsets satisfy ``|k| <= n - 1``,
        so no two wrap onto one point and the circular convolution is the
        linear one on the window.  Without one, the direct sums of
        ``_restricted_sums`` from the window's sources (``_live_sources``),
        in slabs of whole groups of targets with about ``_SLAB_CELLS``
        pairs each, bit for bit ``apply_restricted(kernel, f)``."""
        grid = self.grid
        n, dim = grid.cells_per_side, grid.dim
        if self._lat is None:
            cells = np.argwhere(np.ones(grid.shape, dtype=bool))
            sources, src = _live_sources(grid, self._values, grid.window_cube(), self._support)
            out = np.empty(len(cells), self._values.dtype)
            rows = max(1, _SLAB_CELLS // max(1, _source_count(sources)) // _SUM_GROUP) * _SUM_GROUP
            for i in range(0, len(cells), rows):
                out[i:i + rows] = _restricted_sums(self.kernel, grid, cells[i:i + rows],
                                                   sources, src)
            return out.reshape(grid.shape)
        size, axes = (2 * n,) * dim, tuple(range(dim))
        spec = self._spectrum(n, 2 * n)
        spec *= self._fft(self._values, size, axes)
        return self._ifft(spec, size, axes)[(slice(0, n),) * dim].copy()

    def _spectrum(self, reach: int, size: int) -> np.ndarray:
        """Spectrum of the kernel segment ``K(k h) h**dim``, ``|k| < reach
        <= n``, laid out circularly on ``size`` points per axis."""
        grid = self.grid
        n, dim = grid.cells_per_side, grid.dim
        k = np.arange(1 - reach, reach) % size
        seg = np.zeros((size,) * dim)
        seg[np.ix_(*[k] * dim)] = self._lat[(slice(n - reach, n - 1 + reach),) * dim]
        seg *= grid.cell_measure
        return self._fft(seg, seg.shape, tuple(range(dim)))

    def _weight_block(self, side: int) -> np.ndarray:
        """``K((x - y) h) h**dim`` for the cells x of a cube of this side
        (rows) and the cells y of its dilate (columns), both row-major, 0
        where ``|x - y|`` passes ``n - 1`` on some axis."""
        grid = self.grid
        n, dim = grid.cells_per_side, grid.dim
        width = self.alpha * side
        k = np.arange(side)[:, None] - np.arange(width) + self._shift * side
        inside = np.abs(k) <= n - 1
        k = np.where(inside, k + n - 1, 0)
        # per axis d, the cube's cells on axis d, the dilate's on dim + d
        idx, ok = [], True
        for d in range(dim):
            shape = [1] * (2 * dim)
            shape[d], shape[dim + d] = side, width
            idx.append(k.reshape(shape))
            ok = ok & inside.reshape(shape)
        w = np.where(ok, self._lat[tuple(idx)], 0.0) * grid.cell_measure
        return w.reshape(side**dim, width**dim)

    def dilate_transforms(self, start, count, side: int,
                          out: np.ndarray) -> np.ndarray:
        """``T(f char_{P+})`` on the window cells of every cube P of a block.

        The cubes have side ``side`` and anchors ``start[d] + side k`` for
        ``k < count[d]`` on every axis, so they tile a box; P+ is P dilated
        by ``alpha``.  Returns the box's window cells, as a box-shaped array
        in window order, each holding the transform of its own cube's
        dilate, written into ``out``, an array of that shape.
        """
        n, dim = self.grid.cells_per_side, self.grid.dim
        width = self.alpha * side
        clip = [(max(lo, 0), min(lo + side * c, n)) for lo, c in zip(start, count)]
        if self._lat is None:
            return self._direct_transforms(start, count, side, clip, out)
        # the kernel segment the cubes are summed against, as a weight block
        # or as a spectrum
        if (width * side) ** dim <= _DIRECT_MADDS:
            cubes, per_cube = self._summed, width**dim
            segment = self._weight_block(side)
        else:
            cubes, per_cube = self._convolved, (width + side) ** dim
            segment = self._spectrum(min((self._shift + 1) * side, n), width + side)
        origin = [lo for lo, _ in clip]
        for at, sub in _slabs(count, per_cube, _SLAB_CELLS):
            corner = [lo + side * a for lo, a in zip(start, at)]
            box = [(max(c, lo), min(c + side * k, hi))
                   for c, k, (lo, hi) in zip(corner, sub, clip)]
            if any(lo >= hi for lo, hi in box):
                continue
            live = self._live_cubes(corner, sub, side)
            if live == [(0, k) for k in sub]:
                vals = cubes(segment, self._sources(corner, sub, side), side)
            else:
                # the cubes whose dilate misses f's nonzero cells get +0.0
                vals = np.zeros(tuple(sub) + (side,) * dim, self._values.dtype)
                if all(lo < hi for lo, hi in live):
                    at = tuple(slice(lo, hi) for lo, hi in live)
                    vals[at] = cubes(segment, self._sources(corner, sub, side)[at], side)
            if dim > 1:
                vals = vals.transpose([i for d in range(dim) for i in (d, dim + d)])
            vals = vals.reshape([k * side for k in sub])
            out[_box_slices(box, origin)] = vals[_box_slices(box, corner)]
        return out

    def _live_cubes(self, corner, count, side: int) -> list:
        """Per axis, the range ``[lo, hi)`` of the cubes ``corner + side
        k``, ``k < count``, whose dilates meet the box of f's nonzero cells
        (empty where f vanishes): the only ones whose sources hold a
        nonzero value."""
        if self._support is None:
            return [(0, 0)] * len(count)
        reach = self._shift * side
        return [(max(0, (a - reach - c) // side), min(k, -((c - b - reach) // side)))
                for c, k, (a, b) in zip(corner, count, self._support)]

    def _sources(self, corner, count, side: int) -> np.ndarray:
        """Every cube's source window, strided with no copy from the box of
        f they span, zero outside the window: shape ``count + (alpha side,)
        * dim``."""
        n = self.grid.cells_per_side
        reach = self._shift * side
        lo = [c - reach for c in corner]
        hi = [c + side * k + reach for c, k in zip(corner, count)]
        box = np.zeros([h - l for l, h in zip(lo, hi)], self._values.dtype)
        inside = [(max(l, 0), min(h, n)) for l, h in zip(lo, hi)]
        if all(a < b for a, b in inside):
            box[_box_slices(inside, lo)] = self._values[_box_slices(inside)]
        return np.lib.stride_tricks.as_strided(
            box, tuple(count) + (self.alpha * side,) * box.ndim,
            tuple(side * st for st in box.strides) + box.strides, writeable=False)

    def _convolved(self, spectrum: np.ndarray, src: np.ndarray,
                   side: int) -> np.ndarray:
        """The transforms of the cubes whose sources ``src`` holds, by one
        batched FFT against the kernel segment's ``spectrum``, shape
        ``count + (side,) * dim``."""
        dim = self.grid.dim
        axes = tuple(range(dim, 2 * dim))
        shape = ((self.alpha + 1) * side,) * dim
        spec = self._fft(src, shape, axes)
        spec *= spectrum
        out = self._ifft(spec, shape, axes)
        # the circular convolution is exact on the cube's own cells
        return out[(Ellipsis,) + (slice(self._shift * side, (self._shift + 1) * side),) * dim]

    def _summed(self, weights: np.ndarray, src: np.ndarray, side: int) -> np.ndarray:
        """The transforms of the cubes whose sources ``src`` holds, by
        direct sums against the ``weights`` block, shape ``count + (side,)
        * dim``.  ``einsum`` without ``optimize`` sums each target over its
        sources in one loop of its own, whatever the number of cubes (a
        BLAS product would not)."""
        count = src.shape[:self.grid.dim]
        src = src.reshape(-1, weights.shape[1])
        if np.iscomplexobj(src):
            out = np.empty((len(src), len(weights)), dtype=np.complex128)
            out.real = np.einsum("cy,xy->cx", np.ascontiguousarray(src.real), weights)
            out.imag = np.einsum("cy,xy->cx", np.ascontiguousarray(src.imag), weights)
        else:
            out = np.einsum("cy,xy->cx", src, weights)
        return out.reshape(count + (side,) * self.grid.dim)

    def _direct_transforms(self, start, count, side: int, clip,
                           out: np.ndarray) -> np.ndarray:
        """``dilate_transforms`` without a lattice, into ``out``, the block's
        window ``clip``: each cube of the block summed from its dilate's
        sources (``_live_sources``) to its window cells, in the cell order
        of ``CellSet.window_cells``."""
        grid = self.grid
        for k in itertools.product(*map(range, count)):
            cube = Cube(tuple(lo + side * i for lo, i in zip(start, k)), side)
            cells = cube.window_clip(grid)
            if cells is not None:
                sources, src = _live_sources(grid, self._values, dilate(cube, self.alpha),
                                             self._support)
                sums = _restricted_sums(self.kernel, grid,
                                        CellSet.from_cube(grid, cube).window_cells(),
                                        sources, src)
                out[_box_slices(cells, [lo for lo, _ in clip])] = sums.reshape(
                    [hi - lo for lo, hi in cells])
        return out


class RestrictedTransform:
    """Box-restricted applications of one kernel to one function.

    Precomputes the weights ``K(x_c, y_c) h**dim`` (diagonal zeroed) and
    per-target prefix sums ``S`` of their product with ``f``, so that
    ``T(f char_B)(x)`` for any axis-aligned box ``B`` is a difference of
    table entries, summed over the box corners in ``_corner_sums`` order.
    ``apply_box`` gathers those entries per query, at O(1) each.
    ``prefix_windows`` returns a read-only strided view of
    ``S`` whose targets and box follow an anchor block, per axis; the
    oscillation sweep of :mod:`sparsedom.maximal` reads all of its
    truncated transforms through such views, so it does no per-query
    gathers and never copies the table.

    For a translation-invariant kernel the weights are a view of a
    reversed copy of the difference lattice, with no copy and no kernel
    evaluation per pair; otherwise they are evaluated densely.  Their
    product with f is written into the table and summed there in place.
    Memory is quadratic in the cell count either way: the table, and for a
    kernel without a lattice the dense weights.  That estimate is checked
    against physical memory before anything is allocated, and a grid that
    cannot fit raises ParameterError.
    """

    def __init__(self, kernel: Kernel, f: GridFunction):
        grid = f.grid
        _check_dims(kernel, grid)
        _refuse_beyond_memory(
            f"the transform table of a {grid.dim}D grid with "
            f"{grid.cells_per_side} cells per side",
            _table_bytes(grid, f.is_complex, not kernel.translation_invariant))
        self.grid = grid
        n, dim = grid.cells_per_side, grid.dim
        lat = _offset_lattice(kernel, grid)
        if lat is None:
            cells = np.argwhere(np.ones(grid.shape, dtype=bool))
            w = _kernel_block(kernel, grid, None, cells, cells).reshape(grid.shape * 2)
        else:
            w = _lattice_weights(lat, grid)
        # (K h**dim) f(y) written past the table's zero border, laid out
        # (*target axes, *source axes), and summed in place along each
        # source axis
        sat = np.zeros((n**dim,) + (n + 1,) * dim, dtype=f.values.dtype)
        wf = sat.reshape(grid.shape + (n + 1,) * dim)[(slice(None),) * dim
                                                      + (slice(1, None),) * dim]
        np.multiply(w, grid.cell_measure, out=wf)
        wf *= f.values
        for axis in range(dim, 2 * dim):
            np.cumsum(wf, axis=axis, out=wf)
        sat.flags.writeable = False    # views of it are read-only too
        self._sat = sat
        self._n = n
        # per-axis strides of the target cells, and with the columns'
        self._row_strides = tuple(sat.strides[0] * n ** (dim - 1 - d)
                                  for d in range(dim))
        self._axis_strides = tuple(zip(self._row_strides, sat.strides[1:]))

    def full(self) -> np.ndarray:
        """T(f) at every window cell, window-shaped array."""
        dim = self.grid.dim
        return self._sat[(slice(None),) + (-1,) * dim].reshape(self.grid.shape).copy()

    def prefix_windows(self, rows, row_steps, cols, col_steps, counts,
                       side: int) -> np.ndarray:
        """Read-only strided view of the prefix table, with no copy.

        ``S[x, c] = T(f char_B)(x)`` for the box ``B = [0, c_0) x ... x
        [0, c_{dim-1})``.  Given per axis a row, row step, column, column
        step and count, the view has shape ``counts + (side,) * dim`` and
        holds ``V[i, j] = S[row + row_step i + j, col + col_step i]``, read
        per axis, for ``i < counts`` and ``j < side``.  Each step is 0 or
        1, so the inclusion-exclusion of such views over the corners of
        ``[lo, hi)`` is ``T(f char_[lo, hi))`` for a whole block of boxes
        at once: entry ``i`` holds one box, moving with ``i`` or not, at
        the ``side**dim`` targets of a cube that moves with ``i`` or not.
        Raises ParameterError when the view would leave the table.
        """
        n, dim = self._n, self.grid.dim
        ok = side >= 1 and len(rows) == len(row_steps) == len(cols) \
            == len(col_steps) == len(counts) == dim
        offset, strides = 0, []
        for r, r_step, c, c_step, k, (rs, cs) in zip(
                rows, row_steps, cols, col_steps, counts, self._axis_strides):
            ok = (ok and 0 <= r and r + r_step * (k - 1) + side <= n
                  and 0 <= c and c + c_step * (k - 1) <= n and k >= 1
                  and r_step in (0, 1) and c_step in (0, 1))
            offset += r * rs + c * cs
            strides.append(r_step * rs + c_step * cs)
        if not ok:
            raise ParameterError(
                f"windows (rows {rows} + {row_steps} i + j, columns {cols} + "
                f"{col_steps} i) for i < {counts}, j < {side} leave the "
                f"{n}**{dim} x {n + 1}**{dim} table")
        return np.ndarray((*counts, *(side,) * dim), self._sat.dtype,
                          buffer=self._sat, offset=offset,
                          strides=(*strides, *self._row_strides))

    def apply_box(self, rows: np.ndarray, bounds) -> np.ndarray:
        """``T(f char_B)`` at flat target indices ``rows``.

        ``bounds`` holds per-axis half-open integer bounds, already
        intersected with whatever region the caller restricts to; they are
        clipped to the window here.  Bound arrays broadcast against
        ``rows``.
        """
        n = self._n
        lo = [np.clip(b[0], 0, n) for b in bounds]
        hi = [np.maximum(l, np.clip(b[1], 0, n)) for l, b in zip(lo, bounds)]
        s = self._sat
        return _corner_sums(lambda corner: s[(rows,) + corner], lo, hi)


# ---------------------------------------------------------------------------
# kernel statistics

def dini_profile(omega: Callable[[np.ndarray], np.ndarray], n_nodes: int = 4096) -> dict:
    """Midpoint quadrature of ``integral_0^1 omega(t) dt / t`` in log scale,
    cut off below at ``t_min = 2**-40``.

    Returns value, node count, and a divergence flag.  Divergence is
    detected by cutoff growth: if shrinking the lower cutoff from
    ``sqrt(t_min)`` to ``t_min`` grows the integral by more than 10%, the
    tail is treated as non-summable and the value reported as inf.
    """
    t_min = 2.0**-40
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


# annuli per cube of ``hormander_constant``, and the cells above which one is coarsened
_HORMANDER_K_MAX = 16
_ANNULUS_CELL_CAP = 2**14


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


def _annulus_centers(grid: Grid, outer: Cube, inner: Cube) -> tuple[np.ndarray, float, bool]:
    """Cell or supercell centers tiling ``outer minus inner`` exactly.

    Coarsens to aligned supercells when the annulus exceeds ``_ANNULUS_CELL_CAP``
    cells; returns (centers, per-sample measure, coarsened flag).
    """
    dim = grid.dim
    count = outer.cell_count - inner.cell_count
    c = 1
    max_c = inner.side // (outer.side // inner.side)  # keeps lattices aligned
    while count // (c**dim) > _ANNULUS_CELL_CAP and 2 * c <= max(1, max_c):
        c *= 2
    axes = [a + c * np.arange(outer.side // c) + c / 2.0 for a in outer.anchor]
    coords = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
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


def hormander_constant(kernel: Kernel, r: float, grid: Grid) -> HormanderEstimate:
    """Empirical integral-smoothness constant over a deterministic sample.

    For sampled cubes Q and cell pairs x, x' in the concentric half cube,
    sums ``|2^k Q|^(1/r') * ||K(x,.) - K(x',.)||_{L^r(annulus k)}`` over
    k = 1..``_HORMANDER_K_MAX`` and reports the maximum, together with the
    last annulus term of the maximizing sum as a truncation tail estimate.

    Annuli live in physical space and may extend far beyond the window; beyond
    ``_ANNULUS_CELL_CAP`` cells they are integrated on an aligned supercell
    lattice (midpoint rule), which is recorded in the ``coarsened`` flag.
    Sampled sides start at 4 so the half cube stays lattice-anchored.
    """
    if not (r >= 1):
        raise ParameterError(f"exponent r must be >= 1, got {r}")
    _check_dims(kernel, grid)
    n, k_max = grid.cells_per_side, _HORMANDER_K_MAX
    sides = [s for s in (4 << i for i in range(32)) if s <= max(4, n // 4)]
    best_total = 0.0
    best_tail = 0.0
    coarsened = False
    n_cubes = 0
    for s in sides:
        anchor_positions = sorted({max(0, min(n - s, round((i + 0.5) * n / 4) - s // 2))
                                   for i in range(4)})
        for anchor in itertools.product(anchor_positions, repeat=grid.dim):
            q = Cube(anchor, s)
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
                centers, meas, coarse = _annulus_centers(grid, outer, inner)
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


def _log_wiggle(a: np.ndarray) -> np.ndarray:
    """Slowly oscillating sum of ``sin(2**k a) / k**3``, k = 1..40, with
    modulus ~ (1 + log(1/t))**-2 in its argument."""
    # one scratch array for every term: three fresh temporaries per term
    # made the kernel's cost depend on how the allocator's heap was left
    out = np.zeros_like(a, dtype=np.float64)
    term = np.empty_like(out)
    for k in range(1, 41):
        np.multiply(2.0**k, a, out=term)
        np.sin(term, out=term)
        term /= k**3
        out += term
    return out


def _make_dini_stress_fn(scale: float):
    def fn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x[..., 0] - y[..., 0]
        # the pattern depends on |u| only: its 40 sines are taken once per
        # distinct |u| (a lattice repeats each twice, a block of pairs more)
        dist, at = np.unique(np.abs(u).ravel(), return_inverse=True)
        with np.errstate(divide="ignore"):
            a = np.log(scale / dist)
        pattern = (1.0 + 0.5 * _log_wiggle(a))[at].reshape(u.shape)
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

    ``dini_stress`` sums sin(2**k a) up to k = 40, which magnifies the
    rounding of its offset up to 2**40 times: at window lengths 0.1 or pi
    its lattice and cell-center values differ by up to 1.9e-7 relative, so
    its results repeat bit for bit on one grid but agree only to about
    seven digits across equivalent discretizations.
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
        dim = params.pop("dim", grid.dim if grid else 1)
        if isinstance(dim, bool) or not float(dim).is_integer():
            raise ParameterError(f"zero kernel dim must be an integer, got {dim}")
        dim = int(dim)
        k = Kernel("zero", dim, lambda x, y: np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape),
                   modulus=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
                   hormander_r=math.inf, translation_invariant=True)
    else:
        raise ParameterError(f"unknown kernel name {name!r}")
    if params:
        raise ParameterError(f"unused kernel parameters for {name!r}: {sorted(params)}")
    return k
