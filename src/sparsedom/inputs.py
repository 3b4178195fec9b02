"""Deterministic input functions for pipeline runs.

Every generator is seeded through a counter-based bit generator, so the
same (kind, seed, support) triple always produces the same cell values.
Supports default to the centered half-window box, which keeps the whole
support strictly inside the window on any grid with at least four cells
per side.
"""

from __future__ import annotations

import json
import tokenize

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .grid import Cube, Grid, GridFunction, _box_slices

__all__ = ["INPUT_KINDS", "default_support", "make_input", "load_input"]

INPUT_KINDS = ("random", "bump", "spikes", "indicator")


def default_support(grid: Grid) -> Cube:
    """Centered box with half the window's side."""
    n = grid.cells_per_side
    side = max(1, n // 2)
    return Cube((max(0, (n - side) // 2),) * grid.dim, side)


def _support_slices(grid: Grid, support: Cube):
    if support.dim != grid.dim:
        raise ParameterError(
            f"support dim {support.dim} does not match grid dim {grid.dim}")
    clip = support.window_clip(grid)
    if clip is None:
        raise ParameterError(f"support {support} has no window cells")
    return _box_slices(clip)


def make_input(grid: Grid, kind: str = "random", seed: int = 0,
               support: Cube | None = None,
               amplitude: float = 1.0) -> GridFunction:
    """Build a named input supported on the given box.

    random     uniform values in [amplitude/4, amplitude*5/4); bounded away
               from zero so local averages never vanish on the support
    bump       separable raised-cosine profile peaking at the box center
    spikes     one cell in four (at least one) set to the amplitude at
               seeded positions
    indicator  constant amplitude on the box
    """
    if kind not in INPUT_KINDS:
        raise ParameterError(f"unknown input kind {kind!r}; pick from {INPUT_KINDS}")
    if not (amplitude > 0):
        raise ParameterError(f"amplitude must be positive, got {amplitude}")
    support = support if support is not None else default_support(grid)
    sl = _support_slices(grid, support)
    vals = np.zeros(grid.shape)
    gen = np.random.Generator(np.random.Philox(seed))
    if kind == "random":
        vals[sl] = amplitude * (gen.random(vals[sl].shape) + 0.25)
    elif kind == "bump":
        axes = []
        for d, s in enumerate(sl):
            idx = np.arange(s.start, s.stop, dtype=np.float64)
            center = support.anchor[d] + (support.side - 1) / 2.0
            u = (idx - center) / max(support.side / 2.0, 0.5)
            axes.append(np.cos(np.clip(u, -1, 1) * np.pi / 2) ** 2)
        prof = axes[0]
        for a in axes[1:]:
            prof = np.multiply.outer(prof, a)
        vals[sl] = amplitude * prof
    elif kind == "spikes":
        block = vals[sl]
        flat = block.reshape(-1)
        k = max(1, flat.size // 4)
        pos = gen.choice(flat.size, size=k, replace=False)
        flat[pos] = amplitude
        vals[sl] = flat.reshape(block.shape)
    else:
        vals[sl] = amplitude
    return GridFunction(grid, vals)


def load_input(path: str, grid: Grid) -> GridFunction:
    """Read cell values from a ``.npy`` array or a JSON nested list.

    The array shape must match the grid window exactly.  A file that does
    not decode to a numeric array raises DegenerateInputError.
    """
    try:
        if path.endswith(".npy"):
            # mapped, not read, until its shape is checked: the header may
            # claim any size
            arr = np.load(path, mmap_mode="r")
        else:
            with open(path) as fh:
                arr = np.asarray(json.load(fh), dtype=np.float64)
    # numpy parses a corrupt .npy header into any of these
    except (ValueError, TypeError, EOFError, SyntaxError, tokenize.TokenError) as exc:
        raise DegenerateInputError(f"cannot read input file {path}: {exc}") from exc
    if arr.dtype.kind not in "biufc":
        raise DegenerateInputError(
            f"input file {path} holds non-numeric values of type {arr.dtype}")
    if arr.shape != grid.shape:
        raise DegenerateInputError(
            f"input file shape {arr.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError(f"input file {path} holds non-finite values")
    return GridFunction(grid, arr)
