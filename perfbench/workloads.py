"""Workload definitions, seeded inputs and the checked operation.

One operation ("op") is a closed-loop call to the public CLI entry point
``sparsedom.cli.main`` in this process, with stdout and stderr captured,
on a config whose ``input.path`` names a ``.npy`` file that the benchmark
wrote from its own seed.  The audit workload adds ``verify --family``,
``t1-probe`` and the library call ``verify.sharp_vs_maximal``.

Call ``import_program`` before anything else here that touches sparsedom.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    cells_per_side: int
    kernel: str
    kind: str          # "random": 0.25 + U[0, 1) on the box; "spikes": 1 in 4 cells
    audit: bool        # run, verify --family, t1-probe, sharp_vs_maximal
    n_inputs: int      # distinct inputs per run; ops cycle through them

    @property
    def table_bytes_computed(self) -> int:
        """Bytes of the dense prefix table: N(N+1)*8 in 1D, n^2(n+1)^2*8 in 2D."""
        n = self.cells_per_side
        return n ** self.dim * (n + 1) ** self.dim * 8

    @property
    def support(self) -> tuple[slice, ...]:
        """The centred half-window box, as in ``inputs.default_support``."""
        n = self.cells_per_side
        side = max(1, n // 2)
        lo = max(0, (n - side) // 2)
        return (slice(lo, lo + side),) * self.dim


# Each workload makes a different layer dominate (BENCHMARK.json says why):
# node statistics (hilbert1d-run), the dense table and the N^2 domination
# check (riesz2d-run, the only 2D and memory-bound one), kernel evaluation
# and the full-lattice maximal sweeps (dini1d-audit).  n_inputs is odd, so
# a median over inputs is one input's value, and small enough that a 30 s
# run repeats most inputs.
WORKLOADS = {w.name: w for w in (
    Workload("hilbert1d-run", 1, 1024, "hilbert", "random", False, 5),
    Workload("riesz2d-run", 2, 64, "riesz2d", "random", False, 5),
    Workload("dini1d-audit", 1, 256, "dini_stress", "spikes", True, 9),
)}


def import_program(root: Path):
    """Import ``sparsedom.cli`` from ``<root>/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "sparsedom" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sparsedom package under {src}")
    sys.path.insert(0, str(src))
    import sparsedom.cli as cli
    where = Path(cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"sparsedom imported from {where}, not from {src}")
    return cli


def make_values(wl: Workload, seed: int, index: int) -> np.ndarray:
    """Cell values of input ``index`` of the run seeded with ``seed``."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))
    vals = np.zeros((wl.cells_per_side,) * wl.dim)
    box = vals[wl.support]
    if wl.kind == "random":
        box[...] = 0.25 + gen.random(box.shape)
    elif wl.kind == "spikes":
        flat = np.zeros(box.size)
        flat[gen.choice(box.size, size=max(1, box.size // 4), replace=False)] = 1.0
        box[...] = flat.reshape(box.shape)
    else:
        raise ValueError(f"unknown input kind {wl.kind!r}")
    return vals


@dataclass(frozen=True)
class Item:
    """One prepared input: its values file, its config and its output dir."""
    index: int
    npy: str
    config: str
    out: str


def write_inputs(wl: Workload, seed: int, work: Path) -> list[Item]:
    work.mkdir(parents=True, exist_ok=True)
    items = []
    for i in range(wl.n_inputs):
        npy = work / f"input{i}.npy"
        np.save(npy, make_values(wl, seed, i))
        cfg = {
            "grid": {"dim": wl.dim, "cells_per_side": wl.cells_per_side},
            "kernel": {"name": wl.kernel},
            "input": {"path": str(npy)},
            "pipeline": {"alpha": 3, "mode": "quantile"},
        }
        cfg_path = work / f"config{i}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        items.append(Item(i, str(npy), str(cfg_path), str(work / f"out{i}")))
    return items


# ---------------------------------------------------------------------------
# the operation

class OpFailure(Exception):
    """A check on the program's output did not hold."""


@dataclass
class OpResult:
    seconds: float              # wall time of the program calls only
    build_s: float
    verify_s: float
    constant: float
    digests: dict               # must repeat exactly for the same input
    report: dict                # report.json of the run step
    family_json_bytes: int


def _cli(cli, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, err.getvalue()


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OpFailure(msg)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_manifest(out: str, names: tuple[str, ...]) -> dict:
    """The manifest's SHA-256 of each data file, checked against the bytes."""
    files = _read_json(os.path.join(out, "manifest.json"))["files"]
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        _expect(files.get(name) == digest,
                f"manifest SHA-256 of {name} does not match the file")
    return {name: files[name] for name in names}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def run_op(cli, wl: Workload, item: Item) -> OpResult:
    """One checked op.  Raises OpFailure when an output check fails."""
    args = ["--config", item.config, "--out", item.out]
    seconds, code, err = _cli(cli, ["run", *args])
    _expect(code == 0, f"run exited {code}: {err.strip()}")
    report = _read_json(os.path.join(item.out, "report.json"))
    timings = _read_json(os.path.join(item.out, "manifest.json"))["timings"]
    digests = _check_manifest(item.out, ("family.json", "family.txt", "report.json"))
    constant = report.get("domination", {}).get("constant")
    _expect(report.get("passed") is True, "report.json has passed != true")
    _expect(_finite(constant), f"certified constant is not finite: {constant!r}")
    _expect(_finite(timings.get("build_s")) and _finite(timings.get("verify_s")),
            "manifest.json lacks build_s/verify_s timings")
    family_bytes = os.path.getsize(os.path.join(item.out, "family.json"))

    if wl.audit:
        family = os.path.join(item.out, "family.json")
        dt, code, err = _cli(cli, ["verify", *args, "--family", family])
        seconds += dt
        _expect(code == 0, f"verify exited {code}: {err.strip()}")
        vrep = _read_json(os.path.join(item.out, "verify_report.json"))
        _expect(vrep.get("passed") is True, "verify_report.json has passed != true")
        _expect(vrep["domination"]["constant"] == constant,
                "verify --family read back a different constant")
        digests.update(_check_manifest(item.out, ("verify_report.json",)))

        dt, code, err = _cli(cli, ["t1-probe", *args])
        seconds += dt
        _expect(code == 0, f"t1-probe exited {code}: {err.strip()}")
        probe = _read_json(os.path.join(item.out, "t1_probe.json"))
        _expect(_finite(probe.get("value")) and probe["value"] > 0,
                f"t1-probe value is not finite and positive: {probe.get('value')!r}")
        digests.update(_check_manifest(item.out, ("t1_probe.json",)))

        from sparsedom import grid as grids, inputs, operators, verify
        t0 = time.perf_counter()
        grid = grids.Grid(wl.dim, wl.cells_per_side)
        ratio = verify.sharp_vs_maximal(
            operators.make_kernel(wl.kernel, grid), inputs.load_input(item.npy, grid))
        seconds += time.perf_counter() - t0
        _expect(_finite(ratio) and ratio > 0,
                f"sharp_vs_maximal is not finite and positive: {ratio!r}")
        digests["sharp_vs_maximal"] = repr(float(ratio))

    return OpResult(seconds, timings["build_s"], timings["verify_s"], float(constant),
                    digests, report, family_bytes)
