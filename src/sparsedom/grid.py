"""Uniform grids, grid-anchored cubes, cell functions, and cube averages.

Geometry conventions used throughout the package:

* The window is the axis-aligned box ``[0, L)^dim`` split into ``N`` cells
  per axis (``N`` a power of two), cell width ``h = L / N``.
* A cube is anchored to the integer cell lattice: anchor coordinates are
  integers (possibly negative, cubes may extend beyond the window) and the
  side is a positive integer number of cells.
* Functions are cell-constant, live on the window, and read as zero
  outside it.  All integrals are midpoint sums: cell value times ``h**dim``.
* Cube measures are always the full geometric measure ``(side * h)**dim``,
  including any part outside the window.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AlignmentError,
    LeafCubeError,
    ParameterError,
    ValidationError,
)

__all__ = [
    "Grid",
    "Cube",
    "GridFunction",
    "CellSet",
    "YoungFunction",
    "dilate",
    "cube_integral",
    "avg_p",
    "orlicz_avg",
    "dyadic_children",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the window ``[0, phys_side)**dim``.

    Parameters
    ----------
    dim : 1 or 2
    cells_per_side : number of cells per axis, a power of two
    phys_side : physical side length of the window, positive
    """

    dim: int
    cells_per_side: int
    phys_side: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.cells_per_side):
            raise ParameterError(
                f"cells_per_side must be a power of two, got {self.cells_per_side}"
            )
        if not (self.phys_side > 0):
            raise ParameterError(f"phys_side must be positive, got {self.phys_side}")
        # every integral scales by these, so each must be a positive normal
        # float (Python's float power raises where it overflows)
        try:
            measures = (self.phys_side**self.dim, self.cell_measure)
        except OverflowError:
            measures = (math.inf,)
        if not all(sys.float_info.min <= m < math.inf for m in measures):
            raise ParameterError(
                f"phys_side {self.phys_side} gives a window or cell measure "
                f"beyond the normal float range on a {self.dim}D grid with "
                f"{self.cells_per_side} cells per side")

    @property
    def cell_width(self) -> float:
        return self.phys_side / self.cells_per_side

    @property
    def cell_measure(self) -> float:
        return self.cell_width**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_side**self.dim

    def window_cube(self) -> "Cube":
        return Cube((0,) * self.dim, self.cells_per_side)


@dataclass(frozen=True)
class Cube:
    """Grid-anchored cube: integer anchor per axis, integer side in cells."""

    anchor: tuple[int, ...]
    side: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor", tuple(int(a) for a in self.anchor))
        if self.side < 1:
            raise ParameterError(f"cube side must be >= 1, got {self.side}")

    @property
    def dim(self) -> int:
        return len(self.anchor)

    @property
    def cell_count(self) -> int:
        return self.side**self.dim

    def measure(self, grid: Grid) -> float:
        return (self.side * grid.cell_width) ** grid.dim

    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open integer bounds ``[lo, hi)`` per axis."""
        return tuple((a, a + self.side) for a in self.anchor)

    def contains(self, other: "Cube") -> bool:
        return all(
            a <= b and b + other.side <= a + self.side
            for a, b in zip(self.anchor, other.anchor)
        )

    def clip(self, other: "Cube") -> tuple[tuple[int, int], ...] | None:
        """Integer bounds of the intersection with ``other``, or None."""
        out = []
        for (lo, hi), (olo, ohi) in zip(self.bounds(), other.bounds()):
            lo, hi = max(lo, olo), min(hi, ohi)
            if lo >= hi:
                return None
            out.append((lo, hi))
        return tuple(out)

    def window_clip(self, grid: Grid) -> tuple[tuple[int, int], ...] | None:
        """``clip(grid.window_cube())``, without making the window cube."""
        out = []
        for a in self.anchor:
            lo, hi = max(a, 0), min(a + self.side, grid.cells_per_side)
            if lo >= hi:
                return None
            out.append((lo, hi))
        return tuple(out)


def dilate(cube: Cube, alpha: int) -> Cube:
    """Concentric dilation by an odd integer factor ``alpha >= 1``.

    Odd factors keep the dilated cube on the cell lattice; even factors
    would shift the center by half a cell and are rejected.
    """
    if int(alpha) != alpha or alpha < 1:
        raise ParameterError(f"dilation factor must be a positive integer, got {alpha}")
    alpha = int(alpha)
    if alpha % 2 == 0:
        raise AlignmentError(
            f"dilation factor must be odd to stay on the cell lattice, got {alpha}"
        )
    shift = (alpha - 1) // 2 * cube.side
    return Cube(tuple(a - shift for a in cube.anchor), alpha * cube.side)


def dyadic_children(cube: Cube) -> list[Cube]:
    """The ``2**dim`` congruent half-side subcubes, in lexicographic order."""
    if cube.side == 1:
        raise LeafCubeError(f"cube {cube} is a single cell and has no children")
    if cube.side % 2 != 0:
        raise AlignmentError(
            f"cube side {cube.side} is odd, cannot split into half-side children"
        )
    half = cube.side // 2
    return [Cube(tuple(a + o for a, o in zip(cube.anchor, off)), half)
            for off in itertools.product((0, half), repeat=cube.dim)]


def _levels(side: int):
    """Sides of the cubes the dyadic stopping time can select below a cube
    of this side: halves while the side is even, then single cells (an odd
    side above one is cut into cells)."""
    while side > 1:
        side = side // 2 if side % 2 == 0 else 1
        yield side


def _box_slices(clip, origin=None) -> tuple[slice, ...]:
    """Slices that pick the integer bounds ``clip`` out of an array whose
    entry 0 sits at cell ``origin`` (the window's, 0 on every axis, by
    default)."""
    origin = origin or (0,) * len(clip)
    return tuple(slice(lo - a, hi - a) for (lo, hi), a in zip(clip, origin))


# ---------------------------------------------------------------------------
# summed-area tables

def _power_sat(f: GridFunction, s: float) -> np.ndarray:
    """Prefix-sum table of ``|f|**s`` over the window, with a zero border,
    one entry longer per axis.  Each sweep that reads it builds its own,
    so no table outlives its reader."""
    values = np.abs(f.values) ** float(s)
    sat = np.zeros(tuple(k + 1 for k in values.shape))
    inner = sat[(slice(1, None),) * values.ndim]
    inner[...] = values
    for axis in range(values.ndim):
        np.cumsum(inner, axis=axis, out=inner)
    return sat


def _corner_sums(read: Callable, lo, hi) -> np.ndarray:
    """Inclusion-exclusion over the ``2**dim`` corners of the boxes ``[lo,
    hi)``, all-hi first: S[hi] - S[lo] in 1D, S[hi, hi] - S[lo, hi] -
    S[hi, lo] + S[lo, lo] in 2D; axis d of a corner reads lo when bit d is
    set.  ``read`` maps a corner, a tuple of one bound per axis, to the
    table entries there.  Every reader of a prefix table sums in this
    order, so that their sums round alike.  The sums come out in C order
    whatever the strides of what ``read`` returns.
    """
    dim = len(lo)
    sums = read(tuple(hi))
    for c in range(1, 2**dim):
        term = read(tuple(lo[d] if c >> d & 1 else hi[d] for d in range(dim)))
        sums = (np.subtract if bin(c).count("1") % 2 else np.add)(sums, term, order="C")
    return sums


def _sat_box_sums(sat: np.ndarray, lo, hi) -> np.ndarray:
    """Sums of the underlying values over the boxes ``[lo, hi)``, given per
    axis as integer arrays inside the table that broadcast against each
    other, in ``_corner_sums`` order, clamped at 0: where the values
    vanish, rounding leaves tiny negatives (their s-th root would be nan).
    """
    return np.maximum(_corner_sums(sat.__getitem__, lo, hi), 0.0)


class GridFunction:
    """Cell-constant function on the window; zero outside.

    Values may be real or complex; they are a read-only copy of the input.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise ParameterError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if np.iscomplexobj(values):
            values = values.astype(np.complex128, copy=True)
        else:
            values = values.astype(np.float64, copy=True)
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def norm_lp(self, p: float) -> float:
        """The midpoint L^p norm, for a finite ``p > 0``."""
        if not (0 < p < math.inf):
            raise ParameterError(f"norm exponent must be finite and positive, got {p}")
        return float(
            (np.sum(np.abs(self.values) ** p) * self.grid.cell_measure) ** (1.0 / p)
        )


class CellSet:
    """Finite set of lattice cells inside an explicit bounding box.

    The bounding box may extend beyond the window.  That matters for
    witness sets of cubes that straddle the window edge: their measure has
    to be the geometric one, counting cells the window never sees.
    """

    def __init__(self, grid: Grid, box: Cube, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (box.side,) * grid.dim:
            raise ParameterError(
                f"mask shape {mask.shape} does not match box side {box.side}"
            )
        self.grid = grid
        self.box = box
        self.mask = mask

    # -- constructors -------------------------------------------------

    @classmethod
    def from_cube(cls, grid: Grid, cube: Cube) -> "CellSet":
        return cls(grid, cube, np.ones((cube.side,) * grid.dim, dtype=bool))

    # -- queries ------------------------------------------------------

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def count_in(self, cube: Cube) -> int:
        """Number of member cells inside ``cube`` (exact integer)."""
        clip = self.box.clip(cube)
        return 0 if clip is None else int(
            self.mask[_box_slices(clip, self.box.anchor)].sum())

    def mask_on(self, cube: Cube) -> np.ndarray:
        """Membership restricted to ``cube``, as a cube-shaped array."""
        out = np.zeros((cube.side,) * self.grid.dim, dtype=bool)
        clip = cube.clip(self.box)
        if clip is not None:
            out[_box_slices(clip, cube.anchor)] = self.mask[_box_slices(clip, self.box.anchor)]
        return out

    def window_mask(self) -> np.ndarray:
        """Membership restricted to the window, as a window-shaped array."""
        return self.mask_on(self.grid.window_cube())

    def window_cells(self) -> np.ndarray:
        """Integer coordinates of member cells inside the window, shape (k, dim),
        row-major."""
        clip = self.box.window_clip(self.grid)
        if clip is None:
            return np.zeros((0, self.grid.dim), dtype=np.intp)
        return (np.argwhere(self.mask[_box_slices(clip, self.box.anchor)])
                + [lo for lo, _ in clip])


# ---------------------------------------------------------------------------
# cube integrals and averages

def cube_integral(f: GridFunction, cube: Cube, p: float = 1.0) -> float:
    """Midpoint integral of ``|f|**p`` over the cube (window part only).

    The cube's window cells are summed directly, not as a difference of
    prefix sums: a difference loses the digits of a small cube after large
    cells, and where ``f`` vanishes it leaves rounding instead of 0.  Every
    coefficient of a family is an :func:`avg_p`, so the certificate reads
    only these sums; the prefix tables (:func:`_power_sat`) serve
    the maximal sweeps and the builder's node statistics, which only cut
    exceptional sets.
    """
    if not (p > 0):
        raise ParameterError(f"exponent must be positive, got {p}")
    clip = cube.window_clip(f.grid)
    if clip is None:
        return 0.0
    cells = f.values[_box_slices(clip)]
    return float(np.sum(np.abs(cells) ** p)) * f.grid.cell_measure


def avg_p(f: GridFunction, cube: Cube, p: float) -> float:
    """Normalized L^p average over the cube.

    The normalization uses the full geometric cube measure; parts of the
    cube outside the window contribute zero to the integral.
    """
    total = cube_integral(f, cube, p)
    return (total / cube.measure(f.grid)) ** (1.0 / p)


@dataclass(frozen=True)
class YoungFunction:
    """Convex gauge profile for normalized Orlicz averages.

    ``fn`` must be vectorized, nonnegative, nondecreasing, convex, and
    vanish at zero.  Those properties are spot-checked on 257 samples of
    [0, 8] at construction; a failed check raises ValidationError.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "young"

    def __post_init__(self) -> None:
        ts = np.linspace(0.0, 8.0, 257)
        vals = np.asarray(self.fn(ts), dtype=np.float64)
        if vals.shape != ts.shape or not np.all(np.isfinite(vals)):
            raise ValidationError(f"gauge {self.name!r} must map samples to finite values")
        if abs(vals[0]) > 1e-12:
            raise ValidationError(f"gauge {self.name!r} must vanish at zero")
        if np.any(np.diff(vals) < -1e-12):
            raise ValidationError(f"gauge {self.name!r} is not nondecreasing")
        mid = np.asarray(self.fn((ts[:-2] + ts[2:]) / 2.0))
        chord = (vals[:-2] + vals[2:]) / 2.0
        scale = 1.0 + np.abs(chord)
        if np.any(mid - chord > 1e-9 * scale):
            raise ValidationError(f"non-convex gauge sample detected for {self.name!r}")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.fn(t)

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        if not (p >= 1):
            raise ParameterError(f"power gauge needs p >= 1, got {p}")
        return cls(fn=lambda t, _p=float(p): np.asarray(t, dtype=np.float64) ** _p,
                   name=f"power[{p}]")


def orlicz_avg(f: GridFunction, cube: Cube, phi: YoungFunction) -> float:
    """Normalized gauge average: the smallest ``lam`` with
    ``(1/|Q|) * integral_Q phi(|f| / lam) <= 1``.

    Returns 0 when ``f`` vanishes on the cube.  Solved by bisection to a
    relative tolerance of 1e-12; the upper bracket starts at
    ``max(1, max|f| on the cube)`` and doubles until feasible.
    """
    clip = cube.window_clip(f.grid)
    vals = np.abs(f.values[_box_slices(clip)]).ravel() if clip else np.array([])
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    meas = cube.measure(f.grid)
    cellm = f.grid.cell_measure

    def excess(lam: float) -> float:
        return float(np.sum(phi(vals / lam)) * cellm / meas) - 1.0

    hi = max(1.0, float(vals.max()))
    guard = 0
    while excess(hi) > 0.0:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise ValidationError(f"gauge {phi.name!r} never becomes feasible")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
