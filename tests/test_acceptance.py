"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line on the real stdout (capture
is lifted just for that line) so the gate's outcome is readable straight
from the pytest log.  Tolerances are frozen; no test loosens itself to
the data it sees.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparsedom import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    YoungFunction,
    avg_p,
    build_sparse_domination,
    check_domination,
    check_sparsity,
    dilate,
    dini_profile,
    dyadic_children,
    local_cz_decomposition,
    make_kernel,
    orlicz_avg,
    partition_cover,
    sharp_vs_maximal,
    sparse_lp_ratio,
    wq_profile,
)
from sparsedom import cli
from sparsedom.inputs import make_input


@contextmanager
def criterion(capfd, tag):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\n[FAIL] {tag}", flush=True)
        raise
    with capfd.disabled():
        print(f"\n[PASS] {tag}", flush=True)


def refine(f, factor):
    """Same physical profile on a grid ``factor`` times finer."""
    grid = f.grid
    fine = Grid(grid.dim, grid.cells_per_side * factor, grid.phys_side)
    vals = f.values
    for axis in range(grid.dim):
        vals = np.repeat(vals, factor, axis=axis)
    return GridFunction(fine, vals)


# ---------------------------------------------------------------------------

def test_criterion_01_end_to_end_hilbert_twenty_seeds(capfd):
    t0 = time.perf_counter()
    with criterion(capfd, "criterion 1: 1D Hilbert end to end, N=256, alpha=3, "
                   "20 seeds, eta=1/6, full domination, < 60 s"):
        grid = Grid(1, 256)
        kernel = make_kernel("hilbert", grid)
        for seed in range(20):
            f = make_input(grid, "random", seed=seed)
            res = build_sparse_domination(kernel, f)
            assert res.family.eta == 1 / 6
            assert res.family.constant == res.ledger.final_c
            srep = check_sparsity(res.family, eta=1 / 6)
            assert srep.passed, srep.failures
            drep = check_domination(kernel, f, res.family)
            assert drep.passed and drep.n_failures == 0, drep.failures
            assert drep.n_checked == grid.n_cells
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_02_modulus_kernels_and_closed_form_integrals(capfd):
    with criterion(capfd, "criterion 2: smoothness-modulus kernels pass end to end "
                   "at alpha=5; modulus integrals within 1% of closed forms"):
        assert abs(dini_profile(lambda t: np.asarray(t, dtype=np.float64))["value"]
                   - 1.0) <= 0.01
        assert abs(dini_profile(np.sqrt)["value"] - 2.0) / 2.0 <= 0.01
        grid = Grid(1, 128)
        for name, params in (("holder", {"delta": 0.5}), ("dini_stress", {})):
            kernel = make_kernel(name, grid, **params)
            for seed in (0, 1, 2):
                f = make_input(grid, "random", seed=seed)
                res = build_sparse_domination(kernel, f, PipelineConfig(alpha=5))
                assert res.family.eta == 1 / 10
                assert check_sparsity(res.family, eta=1 / 10).passed
                assert check_domination(kernel, f, res.family).passed


def test_criterion_03_stopping_time_invariants_thousand_pairs(capfd):
    with criterion(capfd, "criterion 3: stopping-time invariants on 1000 random "
                   "(cube, exceptional set) pairs, exact integer arithmetic"):
        gen = np.random.Generator(np.random.Philox(2026))
        checked = 0
        while checked < 1000:
            dim = 1 if gen.random() < 0.5 else 2
            n = int(gen.choice([16, 32])) if dim == 1 else int(gen.choice([8, 16]))
            grid = Grid(dim, n)
            side = int(2 ** gen.integers(1, int(np.log2(n)) + 1))
            anchor = tuple(int(gen.integers(0, n - side + 1)) for _ in range(dim))
            cube = Cube(anchor, side)
            cells = cube.cell_count
            max_count = cells // 2 ** (dim + 2)
            count = int(gen.integers(0, max_count + 1))
            mask = np.zeros(cells, dtype=bool)
            mask[gen.choice(cells, size=count, replace=False)] = True
            omega = CellSet(grid, cube, mask.reshape((side,) * dim))
            selected = local_cz_decomposition(grid, cube, omega)
            canvas = np.zeros(grid.shape, dtype=np.int16)
            total = 0
            for p in selected:
                cnt = omega.count_in(p)
                assert p.cell_count <= 2 ** (dim + 1) * cnt   # reached density
                assert 2 * cnt <= p.cell_count                # parent control
                sl = tuple(slice(a, a + p.side) for a in p.anchor)
                canvas[sl] += 1
                total += p.cell_count
            assert canvas.max() <= 1                          # disjoint
            for cell in omega.window_cells():
                assert canvas[tuple(cell)] == 1               # coverage
            assert 2 * total <= cells                         # half-volume
            checked += 1
        assert checked == 1000


def test_criterion_04_ring_cover_containment_and_tiling(capfd):
    with criterion(capfd, "criterion 4: ring covers put the support inside every "
                   "dilated cube and tile the window disjointly, alpha in {3,5}"):
        gen = np.random.Generator(np.random.Philox(44))
        trials = 0
        for _ in range(60):
            dim = 1 if gen.random() < 0.5 else 2
            n = int(gen.choice([32, 64])) if dim == 1 else int(gen.choice([16, 32]))
            grid = Grid(dim, n)
            alpha = int(gen.choice([3, 5]))
            # support boxes carry power-of-two sides, as emitted upstream
            side = int(2 ** gen.integers(0, int(np.log2(n))))
            anchor = tuple(int(gen.integers(0, n - side + 1)) for _ in range(dim))
            support = Cube(anchor, side)
            cover = partition_cover(grid, support, alpha)
            for q in cover:
                assert dilate(q, alpha).contains(support)
            for i, a in enumerate(cover):
                for b in cover[i + 1:]:
                    assert a.clip(b) is None
            lo = [min(q.anchor[d] for q in cover) for d in range(dim)]
            hi = [max(q.anchor[d] + q.side for q in cover) for d in range(dim)]
            canvas = np.zeros([h - l for h, l in zip(hi, lo)], dtype=np.int16)
            for q in cover:
                sl = tuple(slice(q.anchor[d] - lo[d], q.anchor[d] - lo[d] + q.side)
                           for d in range(dim))
                canvas[sl] += 1
            assert canvas.max() == 1 and canvas.min() == 1    # exact tiling
            win = tuple(slice(-l, -l + n) for l in lo)
            assert canvas[win].min() == 1                     # window covered
            trials += 1
        assert trials == 60


def test_criterion_05_constant_stable_under_grid_refinement(capfd):
    with criterion(capfd, "criterion 5: empirical constant at N=128 vs N=512 on the "
                   "same physical input agrees within a factor of 2"):
        grid = Grid(1, 128)
        f = make_input(grid, "random", seed=3)
        fine = refine(f, 4)
        c_coarse = build_sparse_domination(
            make_kernel("hilbert", grid), f).family.constant
        c_fine = build_sparse_domination(
            make_kernel("hilbert", fine.grid), fine).family.constant
        ratio = c_fine / c_coarse
        assert 0.5 <= ratio <= 2.0, f"ratio {ratio:.3f}"


def test_criterion_06_sharp_vs_maximal_bounded_and_stable(capfd):
    with criterion(capfd, "criterion 6: oscillation-to-power maximal ratio is finite "
                   "and moves less than 20% from N=128 to N=256"):
        grid = Grid(1, 128)
        f = make_input(grid, "random", seed=3)
        fine = refine(f, 2)
        r_coarse = sharp_vs_maximal(make_kernel("hilbert", grid), f, rp=1.0)
        r_fine = sharp_vs_maximal(make_kernel("hilbert", fine.grid), fine, rp=1.0)
        assert np.isfinite(r_coarse) and np.isfinite(r_fine)
        assert r_coarse > 0
        assert 0.8 <= r_fine / r_coarse <= 1.2, f"{r_fine / r_coarse:.3f}"


def _random_half_sparse_family(grid, gen):
    """Nested dyadic chains; each member's witness is its cell set minus
    the one descending child, so every ratio is exactly 1/2 or 1."""
    entries = []

    def descend(cube, depth):
        child = None
        if cube.side > 1 and gen.random() < 0.7:
            kids = dyadic_children(cube)
            child = kids[int(gen.integers(len(kids)))]
        witness = CellSet.from_cube(grid, cube)
        if child is not None:
            witness.mask &= ~CellSet.from_cube(grid, child).mask_on(cube)
        entries.append(SparseEntry(cube=cube, witness=witness, coefficient=0.0,
                                   base_cube=cube, depth=depth))
        if child is not None:
            descend(child, depth + 1)

    n = grid.cells_per_side
    roots = []
    for side in (n // 2, n // 4, n // 4):
        for _ in range(8):
            anchor = tuple(int(gen.integers(0, n // side)) * side
                           for _ in range(grid.dim))
            cand = Cube(anchor, side)
            if all(cand.clip(r) is None for r in roots):
                roots.append(cand)
                break
    for root in roots:
        descend(root, 0)
    return SparseFamily(grid, eta=0.5, entries=entries, constant=0.0)


def _max_sparse_ratio(seed_base):
    gen = np.random.Generator(np.random.Philox(seed_base))
    best = 0.0
    for i in range(100):
        grid = Grid(1, 64)
        family = _random_half_sparse_family(grid, gen)
        assert check_sparsity(family, eta=0.5).passed
        f = make_input(grid, "random", seed=seed_base * 1000 + i)
        best = max(best, sparse_lp_ratio(family, f, r=1.0, p=2.0))
    return best


def test_criterion_07_sparse_norm_ratio_reseeding_stability(capfd):
    with criterion(capfd, "criterion 7: max norm ratio over 100 random half-sparse "
                   "families is finite and moves less than 25% on reseeding"):
        a = _max_sparse_ratio(7)
        b = _max_sparse_ratio(8)
        assert np.isfinite(a) and np.isfinite(b) and a > 0
        assert 0.75 <= b / a <= 1.25, f"{b / a:.3f}"


def test_criterion_08_weak_profile_bounded_and_stable(capfd):
    with criterion(capfd, "criterion 8: level-weighted weak profile is bounded and "
                   "moves less than 30% from N=128 to N=512"):
        lambdas = tuple(2.0 ** -j for j in range(1, 9))
        grid = Grid(1, 128)
        f = make_input(grid, "random", seed=3)
        fine = refine(f, 4)
        sups = []
        for g, fn, q in ((grid, f, Cube((32,), 64)),
                         (fine.grid, fine, Cube((128,), 256))):
            prof = wq_profile(make_kernel("hilbert", g), fn, q, 1.0, lambdas)
            assert not prof["degenerate"]
            weighted = [lam * psi for lam, psi in zip(lambdas, prof["psi"])]
            assert all(np.isfinite(w) for w in weighted)
            sups.append(max(weighted))
        assert 0.7 <= sups[1] / sups[0] <= 1.3, f"{sups[1] / sups[0]:.3f}"


def test_criterion_09_orlicz_gauge_matches_power_average(capfd):
    with criterion(capfd, "criterion 9: Orlicz gauge with power-function profile "
                   "matches the power average to 1e-9 over 1000 triples"):
        gen = np.random.Generator(np.random.Philox(99))
        for _ in range(1000):
            dim = 1 if gen.random() < 0.7 else 2
            n = int(gen.choice([16, 32])) if dim == 1 else 8
            grid = Grid(dim, n)
            f = GridFunction(grid, gen.random(grid.shape) + 0.1)
            side = int(gen.integers(1, n // 2 + 1))
            anchor = tuple(int(gen.integers(0, n - side + 1)) for _ in range(dim))
            cube = Cube(anchor, side)
            p = float(gen.uniform(1.0, 4.0))
            direct = avg_p(f, cube, p)
            gauge = orlicz_avg(f, cube, YoungFunction.power(p))
            assert direct > 0
            assert abs(gauge - direct) / direct <= 1e-9


def test_criterion_10_byte_identical_data_files(capfd, tmp_path):
    with criterion(capfd, "criterion 10: identical config and seed give byte-identical "
                   "data files under digest comparison"):
        cfg = {
            "grid": {"dim": 1, "cells_per_side": 64},
            "kernel": {"name": "hilbert"},
            "input": {"kind": "random", "seed": 17},
            "pipeline": {"alpha": 3, "s": 1.0},
            "sweep": {"axis": "seed", "values": [1, 2]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        digests = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert cli.main(["run", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            assert cli.main(["sweep", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            digest = {}
            for name in ("family.json", "family.txt", "report.json",
                         "sweep.csv", "sweep.json"):
                digest[name] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
            digests.append(digest)
        assert digests[0] == digests[1]
