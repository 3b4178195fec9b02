"""The level-at-a-time stopping time against the recursive one it replaced.

``reference_stopping_time`` is the recursion as the builder ran it: a
depth-first scan of the dyadic subcubes in lexicographic child order, one
``CellSet.count_in`` per visited cube.  ``sparse._stopping_time`` must
select the same cubes in the same order and raise the same flags, with
the same multiplicity, on random exceptional sets of every density: in
1D and 2D, on power-of-two sides, sides 3 * 2**j and odd sides, for
empty sets and sets already dense at the start cube.  It scans a stack
of cubes at once, and each cube of a stack gets what it gets alone.
"""

import itertools

import numpy as np
import pytest

from sparsedom import AlignmentError, CellSet, Cube, Grid, dyadic_children
from sparsedom import sparse
from sparsedom.errors import DensityError
from sparsedom.grid import _box_slices


def reference_stopping_time(grid, cube, omega):
    selected, flags = [], []

    def recurse(q, is_root):
        count = omega.count_in(q)
        if count == 0:
            return
        if not is_root and sparse._density_exceeds(count, q.cell_count, grid.dim):
            selected.append(q)
            return
        if q.side == 1:
            if is_root:
                flags.append("density_violation")
            return
        if q.side % 2 == 1:
            flags.append("odd_leaf")
            clip = q.clip(omega.box)
            if clip is not None:
                cells = np.argwhere(omega.mask[_box_slices(clip, omega.box.anchor)])
                selected.extend(Cube(tuple(c), 1) for c in cells + [lo for lo, _ in clip])
            return
        if is_root and sparse._density_exceeds(count, q.cell_count, grid.dim):
            flags.append("density_violation")
        for child in dyadic_children(q):
            recurse(child, False)

    recurse(cube, True)
    return selected, flags


def random_omega(grid, box, density, g):
    return CellSet(grid, box, g.random((box.side,) * grid.dim) < density)


def stopping_time(cube, mask):
    """The stopping time of one cube, as (selected cubes, flags)."""
    owner, cells, sides, (flags,) = sparse._stopping_time(mask[None])
    assert not owner.any()
    return [Cube(tuple(a), side)
            for a, side in zip((cells + cube.anchor).tolist(), sides.tolist())], flags


def assert_same(grid, cube, omega):
    want = reference_stopping_time(grid, cube, omega)
    # the stopping time scans a mask on the cube's own cells
    got = stopping_time(cube, omega.mask_on(cube))
    assert got == want, (cube, omega.box)
    return want


SIDES = {1: [1, 2, 4, 8, 16, 32, 64, 3, 6, 12, 24, 48, 5, 7, 9, 27, 81, 10, 20, 40],
         2: [1, 2, 4, 8, 16, 32, 3, 6, 12, 24, 5, 7, 9, 27, 10, 20]}
DENSITIES = [0.0, 0.01, 0.05, 0.1, 0.2, 0.35, 0.6, 1.0]


@pytest.mark.parametrize("dim", [1, 2])
def test_matches_the_recursion_on_node_cubes(dim):
    grid = Grid(dim, 64)
    g = np.random.Generator(np.random.Philox(17 + dim))
    seen = {"density_violation": 0, "odd_leaf": 0, "selected": 0, "empty": 0}
    for side in SIDES[dim]:
        for density in DENSITIES:
            for rep in range(3):
                # anchors inside, across and outside the window
                anchor = tuple(int(a) for a in g.integers(-side, 64, size=dim))
                cube = Cube(anchor, side)
                # a set on the node cube itself, as the builder makes it,
                # a few very sparse ones concentrated in one corner
                omega = random_omega(grid, cube, density, g)
                if rep == 2 and side > 2:
                    omega.mask[(slice(side // 2, None),) * dim] = False
                sel, flags = assert_same(grid, cube, omega)
                seen["selected"] += bool(sel)
                seen["empty"] += not sel and not flags
                for fl in flags:
                    seen[fl] += 1
    # every branch of the recursion was taken
    assert all(v > 0 for v in seen.values()), seen


@pytest.mark.parametrize("dim", [1, 2])
def test_matches_the_recursion_on_sets_boxed_elsewhere(dim):
    # the set's box is the window, or a box that covers the cube only in
    # part, as local_cz_decomposition may be given; the cube's part of it
    # is copied onto the cube
    grid = Grid(dim, 32)
    g = np.random.Generator(np.random.Philox(5 + dim))
    for side in (1, 2, 4, 8, 16, 32, 6, 12, 3):
        for density in (0.0, 0.05, 0.2, 0.5):
            cube = Cube(tuple(int(a) for a in g.integers(0, 33 - side, size=dim)), side)
            for box in (grid.window_cube(),
                        Cube(tuple(a - side // 2 for a in cube.anchor), side),
                        Cube(tuple(a + side for a in cube.anchor), side)):
                assert_same(grid, cube, random_omega(grid, box, density, g))
                assert_same(grid, cube, random_omega(grid, box, density, g))


def test_root_density_violation_comes_first_and_once():
    grid = Grid(2, 16)
    cube = Cube((0, 0), 12)
    omega = CellSet.from_cube(grid, cube)
    sel, flags = assert_same(grid, cube, omega)
    # every child is dense, so the children are selected, the root flagged
    assert flags == ["density_violation"]
    assert sel == dyadic_children(cube)
    # a lone cell at the root, and an empty set
    one = Cube((3, 4), 1)
    assert stopping_time(one, np.ones((1, 1), dtype=bool)) == ([], ["density_violation"])
    assert stopping_time(cube, np.zeros((12, 12), dtype=bool)) == ([], [])


def test_odd_leaves_flag_once_per_odd_cube():
    grid = Grid(1, 64)
    cube = Cube((0,), 20)
    mask = np.zeros(20, dtype=bool)
    mask[[12, 1]] = True          # one cell, too sparse, in two odd cubes of side 5
    sel, flags = assert_same(grid, cube, CellSet(grid, cube, mask))
    assert flags == ["odd_leaf", "odd_leaf"]
    assert sel == [Cube((1,), 1), Cube((12,), 1)]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stack_of_cubes_scans_each_as_alone(dim):
    # the builder scans the nodes of a batch in one call: each cube's
    # selections and flags are those of a call of its own, and the
    # selections come out by cube
    g = np.random.Generator(np.random.Philox(61 + dim))
    for side in SIDES[dim]:
        masks = np.stack([g.random((side,) * dim) < density
                          for density in DENSITIES for _ in range(2)])
        owner, cells, sides, flags = sparse._stopping_time(masks)
        assert np.all(np.diff(owner) >= 0)
        for i, mask in enumerate(masks):
            own = sparse._stopping_time(mask[None])
            mine = owner == i
            assert np.array_equal(cells[mine], own[1]), (side, i)
            assert np.array_equal(sides[mine], own[2]), (side, i)
            assert flags[i] == own[3][0], (side, i)
    owner, cells, sides, flags = sparse._stopping_time(np.zeros((0,) + (8,) * dim, dtype=bool))
    assert owner.size == sides.size == 0 and cells.shape == (0, dim) and flags == []


@pytest.mark.parametrize("dim", [1, 2])
def test_local_cz_decomposition_matches_the_recursion(dim):
    grid = Grid(dim, 32)
    g = np.random.Generator(np.random.Philox(41 + dim))
    checked = refused = 0
    for side, density in itertools.product((1, 2, 8, 16, 32), (0.0, 0.03, 0.1, 0.2, 0.6)):
        cube = Cube((32 - side,) * dim, side)
        omega = random_omega(grid, grid.window_cube(), density, g)
        count = omega.count_in(cube)
        if sparse._density_exceeds(count, cube.cell_count, dim):
            with pytest.raises(DensityError):
                sparse.local_cz_decomposition(grid, cube, omega)
            refused += 1
            continue
        want, _ = reference_stopping_time(grid, cube, omega)
        assert sparse.local_cz_decomposition(grid, cube, omega) == want
        checked += bool(want)
    assert checked > 0 and refused > 0
    with pytest.raises(AlignmentError):
        sparse.local_cz_decomposition(grid, Cube((0,) * dim, 12),
                                      CellSet(grid, grid.window_cube(),
                                              np.zeros(grid.shape, dtype=bool)))
