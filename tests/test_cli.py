"""End-to-end command line checks.

Commands run in-process through ``cli.main`` with explicit argument
lists; one test exercises the installed console script through a real
subprocess.  File outputs are held to byte-level determinism.
"""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from sparsedom import (
    CellSet,
    Cube,
    Grid,
    GridFunction,
    NumericError,
    ParameterError,
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    UndefinedRatioError,
    build_sparse_domination,
    make_kernel,
)
import sparsedom
from sparsedom import cli, operators, sparse, verify
from sparsedom.errors import ConfigError
from sparsedom.grid import dyadic_children
from sparsedom.inputs import make_input


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "grid": {"dim": 1, "cells_per_side": 64},
        "kernel": {"name": "hilbert"},
        "input": {"kind": "random", "seed": 7},
        "pipeline": {"alpha": 3, "s": 1.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run

def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("family.json", "family.txt", "report.json", "manifest.json"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "sparsity:   PASS" in text
    assert "domination: PASS" in text


def test_run_manifest_hashes_match_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    assert manifest["version"]
    assert "created_utc" in manifest
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # data files carry no timestamps; only the manifest does
    assert "created_utc" not in (out / "report.json").read_text()
    assert "created_utc" not in (out / "family.json").read_text()


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(a)])
    cli.main(["run", "--config", cfg, "--out", str(b)])
    for name in ("family.json", "family.txt", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override_changes_family(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(a), "--seed", "1"])
    cli.main(["run", "--config", cfg, "--out", str(b), "--seed", "2"])
    assert (a / "family.json").read_bytes() != (b / "family.json").read_bytes()


def test_main_builds_one_parser_and_parses_each_call_anew(tmp_path, monkeypatch):
    # the parser is built once per process; an option given to one call
    # must not reach the next
    builds, parsed = [], []
    build_parser, parse_args = cli.build_parser, argparse.ArgumentParser.parse_args

    def counted():
        builds.append(1)
        return build_parser()

    def recorded(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        parsed.append(vars(ns).copy())
        return ns

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    cli._parser.cache_clear()
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert cli.main(["verify", "--config", cfg, "--out", str(a), "--seed", "5",
                     "--family", str(a / "family.json")]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(b)]) == 0
    # without --family, verify reads b's family: a's would fail on seed 7
    assert cli.main(["verify", "--config", cfg, "--out", str(b)]) == 0
    assert len(builds) == 1
    assert [(p["command"], p["seed"], p.get("family")) for p in parsed] == [
        ("run", 5, None), ("verify", 5, str(a / "family.json")),
        ("run", None, None), ("verify", None, None)]
    assert "family" not in parsed[2]
    assert (a / "family.json").read_bytes() != (b / "family.json").read_bytes()
    cli._parser.cache_clear()


def witness_runs(entry):
    """Row-major (start, length) runs of an entry's witness mask over its
    box, one cell at a time."""
    runs, start = [], None
    for i, cell in enumerate(entry.witness.mask.ravel().tolist() + [False]):
        if cell and start is None:
            start = i
        elif not cell and start is not None:
            runs.append([start, i - start])
            start = None
    return runs


def family_to_dict(family):
    """The document of a family as the JSON module writes ``family.json``."""
    g = family.grid
    return {
        "format": 1,
        "grid": {"dim": g.dim, "cells_per_side": g.cells_per_side,
                 "phys_side": g.phys_side},
        "eta": family.eta,
        "constant": family.constant,
        "meta": family.meta,
        "entries": [{
            "anchor": list(e.cube.anchor),
            "side": e.cube.side,
            "base_anchor": list(e.base_cube.anchor),
            "base_side": e.base_cube.side,
            "depth": e.depth,
            "coefficient": e.coefficient,
            "flags": list(e.flags),
            "witness": {
                "anchor": list(e.witness.box.anchor),
                "side": e.witness.box.side,
                "count": e.witness.count,
                "runs": witness_runs(e),
            },
        } for e in family.entries],
    }


def json_module_bytes(family) -> bytes:
    return (json.dumps(cli._json_safe(family_to_dict(family)), sort_keys=True,
                       indent=2, allow_nan=False) + "\n").encode()


def _built(dim, n, kernel, kind="random", complex_phase=False, **pipeline):
    grid = Grid(dim, n)
    f = (GridFunction(grid, np.zeros(grid.shape)) if kind == "zero"
         else make_input(grid, kind, seed=13))
    if complex_phase:
        phase = np.exp(2j * np.pi * np.random.default_rng(3).random(grid.shape))
        f = GridFunction(grid, f.values * phase)
    return build_sparse_domination(make_kernel(kernel, grid), f,
                                   PipelineConfig(**pipeline)).family


def _hand_made():
    # an infinite constant and coefficient, a multi-flag entry, numpy
    # scalars, an empty witness and a witness box off the window
    grid = Grid(2, 8)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1:3] = mask[1, :] = mask[3, 3] = True
    box = Cube((np.int64(-2), 6), np.int64(4))
    return SparseFamily(grid, np.float64(1 / 18), [
        SparseEntry(Cube((-4, -4), 12), CellSet(grid, box, mask), np.float64(0.1),
                    box, np.int64(2), ("zero_average", "outside_window")),
        SparseEntry(Cube((0, 0), 3), CellSet(grid, Cube((1, 1), 1), np.zeros((1, 1), bool)), 0,
                    Cube((1, 1), 1), 0),
        SparseEntry(Cube((0, 0), 3), CellSet.from_cube(grid, Cube((1, 1), 1)), 1e300,
                    Cube((1, 1), 1), 3, ("witness_overlaps_exceptional",)),
        SparseEntry(Cube((0, 0), 3), CellSet.from_cube(grid, Cube((1, 1), 1)),
                    np.float64(math.inf), Cube((1, 1), 1), 1),
    ], math.inf, meta={"s": np.float64(1.5), "kernel": "riesz2d", "odd": [np.int64(3)]})


FAMILIES = {
    "1d-quantile": lambda: _built(1, 128, "hilbert"),
    "1d-fixed": lambda: _built(1, 128, "dini_stress", "spikes", mode="fixed",
                               c_fixed=1.5, a_fixed=1.0),
    "1d-max-depth-0": lambda: _built(1, 128, "holder", "bump", max_depth=0),
    "2d-quantile": lambda: _built(2, 32, "riesz2d"),
    "2d-fixed": lambda: _built(2, 16, "riesz2d", "indicator", mode="fixed",
                               c_fixed=1.5, a_fixed=1.0),
    "2d-max-depth-0": lambda: _built(2, 16, "riesz2d", max_depth=0),
    "1d-zero-input": lambda: _built(1, 32, "hilbert", "zero"),
    "2d-zero-input": lambda: _built(2, 16, "riesz2d", "zero"),
    "1d-complex": lambda: _built(1, 64, "hilbert", complex_phase=True),
    "2d-complex": lambda: _built(2, 16, "riesz2d", complex_phase=True),
    "hand-made": _hand_made,
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_family_json_is_the_json_module_layout(case):
    family = FAMILIES[case]()
    assert cli.family_to_json(family) == json_module_bytes(family)


def test_family_json_cases_cover_what_they_name():
    for case in ("1d-zero-input", "2d-zero-input"):
        assert [e.flags for e in FAMILIES[case]().entries] == [("zero_input",)]
    assert all(e.depth == 0 for e in FAMILIES["2d-max-depth-0"]().entries)
    assert len(FAMILIES["2d-quantile"]().entries) > 1


def test_family_json_writes_large_families_in_chunks(monkeypatch):
    family = _built(2, 32, "riesz2d")
    want = cli.family_to_json(family)
    for cells in (1, 16, 100):
        monkeypatch.setattr(cli, "_SLAB_CELLS", cells)
        assert cli.family_to_json(family) == want


def test_run_family_json_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    doc = read_json(out / "family.json")
    family = cli.family_from_dict(doc)
    assert family_to_dict(family) == doc
    assert cli.family_to_json(family) == (out / "family.json").read_bytes()
    # and the stored family matches an in-process rebuild
    grid = Grid(1, 64)
    f = make_input(grid, "random", seed=7)
    rebuilt = build_sparse_domination(make_kernel("hilbert", grid), f).family
    assert family.constant == rebuilt.constant
    assert len(family.entries) == len(rebuilt.entries)
    for a, b in zip(family.entries, rebuilt.entries):
        assert a.cube == b.cube and a.coefficient == b.coefficient
        assert np.array_equal(a.witness.mask, b.witness.mask)


def test_run_honest_failure_exits_one(tmp_path, capsys):
    # hostile fixed thresholds break the witness ratio; the run must
    # report the failure and exit 1 instead of papering over it
    cfg = write_config(tmp_path, pipeline={
        "alpha": 3, "s": 1.0, "mode": "fixed", "c_fixed": 1.5, "a_fixed": 0.5})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_refuses_table_beyond_memory(tmp_path, capsys, monkeypatch):
    # the estimate alone decides; nothing of the table's size is allocated.
    # With nothing resident the input (512 B) fits and the build (3 MiB)
    # does not
    monkeypatch.setattr(sparsedom.operators, "_physical_memory", lambda: 2**16)
    monkeypatch.setattr(sparsedom.operators, "_resident_memory", lambda: 0)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: the build on a 1D grid with 64 cells per side needs about 3." in err
    assert "MiB, more than the 64.0 KiB of physical memory" in err
    assert "Traceback" not in err


def test_run_refuses_input_beyond_memory(tmp_path, capsys, monkeypatch):
    # 2D n = 2**20: the input alone would take 8 TiB; it is refused from the
    # grid's size, before anything is generated
    def untouchable(*args, **kwargs):
        pytest.fail("the input must not be generated for a refused grid")

    monkeypatch.setattr(sparsedom.operators, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(cli, "make_input", untouchable)
    cfg = write_config(tmp_path, grid={"dim": 2, "cells_per_side": 2**20},
                       kernel={"name": "riesz2d"})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "8.0 TiB" in err and "input" in err
    assert "Traceback" not in err


def test_out_dir_from_environment(tmp_path, monkeypatch):
    # --out first, then $SPARSEDOM_OUT, then ./sparsedom-out
    cfg = write_config(tmp_path)
    target = tmp_path / "env-out"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (target / "family.json").exists()
    given = tmp_path / "given"
    assert cli.main(["run", "--config", cfg, "--out", str(given)]) == 0
    assert (given / "family.json").exists()
    assert sorted(os.listdir(target)) == sorted(os.listdir(given))
    assert (target / "family.json").read_bytes() == (given / "family.json").read_bytes()
    monkeypatch.delenv(cli.OUT_ENV_VAR)
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    assert cli.main(["run", "--config", cfg]) == 0
    assert os.listdir(here) == ["sparsedom-out"]
    assert (here / "sparsedom-out" / "family.json").read_bytes() == (
        given / "family.json").read_bytes()


# ---------------------------------------------------------------------------
# verify

def test_verify_accepts_fresh_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "verify_report.json").exists()


@pytest.mark.parametrize("ratio_r,passes", [(None, 1), (1, 1), (1.0, 1), (2.0, 2)])
def test_verification_report_averages_each_entry_once_per_exponent(monkeypatch, ratio_r,
                                                                   passes):
    # the audit's averages at the family's s = 1 serve the norm ratio too
    # where its r is the same number; another r takes a pass of its own
    cfg = {"grid": {"dim": 1, "cells_per_side": 64}, "kernel": {"name": "hilbert"},
           "input": {"kind": "random", "seed": 7}, "pipeline": {"alpha": 3, "s": 1.0}}
    if ratio_r is not None:
        cfg["verify"] = {"ratio_r": ratio_r}
    grid = cli._grid_from(cfg)
    kernel, f = cli._kernel_from(cfg, grid), cli._input_from(cfg, grid)
    family = build_sparse_domination(kernel, f, cli._pipeline_from(cfg)).family
    want, _ = cli._verification_report(kernel, f, family, cfg)
    exponents = []
    avg_p = verify.avg_p

    def counted(f_, cube, p):
        exponents.append(float(p))
        return avg_p(f_, cube, p)

    monkeypatch.setattr(verify, "avg_p", counted)
    report, _ = cli._verification_report(kernel, f, family, cfg)
    assert report == want
    assert len(exponents) == passes * len(family.entries)
    assert sorted(set(exponents)) == sorted({1.0, float(ratio_r or 1.0)})
    assert report["coefficient_audit_max_dev"] == verify.audit_coefficients(family, f)
    assert report["lp_ratio"]["value"] == verify.sparse_lp_ratio(family, f, r=ratio_r or 1.0)


def test_verify_catches_tampered_coefficients(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    doc = read_json(out / "family.json")
    for e in doc["entries"]:
        e["coefficient"] *= 0.5
    (out / "family.json").write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1


def test_verify_rejects_grid_mismatch(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    other = write_config(tmp_path, name="other.json",
                         grid={"dim": 1, "cells_per_side": 128})
    assert cli.main(["verify", "--config", other, "--out", str(out)]) == 2


def _set_runs(runs, count):
    def mutate(doc):
        doc["entries"][0]["witness"].update(runs=runs, count=count)
    return mutate


def _delete(*path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


def _replace(value, *path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _every_coefficient(value):
    def mutate(doc):
        for e in doc["entries"]:
            e["coefficient"] = value
    return mutate


# Every case keeps the stored witness count consistent with the runs, so
# only the run checks can reject the first five.  Witness boxes of the
# 32-cell run below hold 16 cells; a start of -5 used to read cells 11-13.
MALFORMED_FAMILIES = {
    "negative_run": _set_runs([[-5, 3]], 3),
    "empty_run": _set_runs([[0, 4], [6, 0]], 4),
    "run_outside_box": _set_runs([[14, 5]], 2),
    "unsorted_runs": _set_runs([[10, 2], [0, 2]], 4),
    "overlapping_runs": _set_runs([[0, 4], [2, 4]], 6),
    "missing_entry_key": _delete("entries", 0, "depth"),
    "missing_witness": _delete("entries", 0, "witness"),
    "missing_constant": _delete("constant"),
    "side_as_string": _replace("16", "entries", 0, "side"),
    "runs_not_pairs": _replace([[1, 2, 3]], "entries", 0, "witness", "runs"),
    "run_start_float": _replace([[0.5, 2]], "entries", 0, "witness", "runs"),
    "run_start_bool": _set_runs([[True, 2]], 2),
    "run_start_huge_int": _set_runs([[10**400, 2]], 2),
    "run_as_object": _set_runs([{"start": 0, "length": 2}], 2),
    "runs_not_list": _replace({"0": [0, 2]}, "entries", 0, "witness", "runs"),
    "coefficient_null": _replace(None, "entries", 0, "coefficient"),
    "grid_dim_three": _replace(3, "grid", "dim"),
    "anchor_dim_mismatch": _replace([0, 0], "entries", 0, "anchor"),
    "entries_not_list": _replace({"0": 1}, "entries"),
    "wrong_format": _replace(2, "format"),
    # JSON reads NaN and Infinity as numbers, and NaN compares false
    "constant_nan": _replace(float("nan"), "constant"),
    "coefficient_infinite": _replace(float("inf"), "entries", 0, "coefficient"),
    "every_coefficient_nan": _every_coefficient(float("nan")),
    "eta_nan": _replace(float("nan"), "eta"),
    "eta_infinite": _replace(float("inf"), "eta"),
    # these exited 3 on "int too large to convert to float", or left main
    # as a ValueError traceback from the coefficient audit
    "coefficient_huge_int": _replace(10**400, "entries", 0, "coefficient"),
    "side_huge_int": _replace(10**400, "entries", 0, "side"),
    "meta_s_string": _replace("x", "meta", "s"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
def test_verify_rejects_malformed_family(tmp_path, capsys, case):
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "family.json")
    assert doc["entries"][0]["witness"]["side"] == 16
    MALFORMED_FAMILIES[case](doc)
    with pytest.raises(ConfigError):
        cli.family_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _loop_witness_mask(runs, cells, where):
    """The run checks one run at a time, in the reader's order."""
    flat = np.zeros(cells, dtype=bool)
    end = 0
    for start, length in runs:
        if length < 1:
            raise ConfigError(f"{where}: empty witness run ({start}, {length})")
        if start < 0 or start + length > cells:
            raise ConfigError(f"{where}: witness run ({start}, {length}) lies "
                              f"outside its {cells}-cell box")
        if start < end:
            raise ConfigError(f"{where}: witness run ({start}, {length}) is "
                              f"unsorted or overlaps the run before it")
        flat[start:start + length] = True
        end = start + length
    return flat


def _outcome(read, runs):
    try:
        return read(runs, 6, "entry 3").tobytes()
    except ConfigError as exc:
        return str(exc)


def test_witness_runs_are_checked_as_one_at_a_time():
    # every list of at most two runs over a 6-cell box, 3000 random lists
    # of three, and runs at the int64 limits: the same mask, or the same
    # message naming the same first bad run
    values = range(-2, 9)
    one = [[a, n] for a in values for n in range(-1, 8)]
    cases = [[]] + [[r] for r in one] + [[r, q] for r in one for q in one]
    rng = np.random.default_rng(0)
    cases += [[one[i] for i in rng.integers(len(one), size=3)] for _ in range(3000)]
    big = [2**63 - 1, -2**63]
    cases += [[[a, n]] for a in big + [0] for n in big + [2]]
    cases += [[[0, 2], [a, n]] for a in big + [4] for n in big + [1]]
    for runs in cases:
        assert _outcome(cli._witness_mask, runs) == _outcome(_loop_witness_mask, runs), runs


@pytest.mark.parametrize("runs,message", [
    ([[0, 2], [True, 1]], "entry 3: witness run 1 is not a pair of integers"),
    ([[0, 2], {"0": 1}], "entry 3: witness run 1 is not a pair of integers"),
    ([[0, 2], [4, 1, 1]], "entry 3: witness run 1 is not a pair of integers"),
    ([[0, 2], [4.0, 1]], "entry 3: witness run 1 is not a pair of integers"),
    ([[0, 2], [2**63, 1]], "entry 3: a witness run holds an integer beyond the 64-bit range"),
    ([[0, 2], [1, -10**400]], "entry 3: a witness run holds an integer beyond the 64-bit range"),
])
def test_witness_runs_that_are_not_int_pairs(runs, message):
    with pytest.raises(ConfigError) as exc:
        cli._witness_mask(runs, 6, "entry 3")
    assert str(exc.value) == message


@pytest.mark.parametrize("mutate", [_replace(-1.0, "constant"),
                                    _replace(-0.5, "entries", 0, "coefficient")],
                         ids=["constant", "coefficient"])
def test_verify_rejects_negative_family_numbers(tmp_path, capsys, mutate):
    # a sparse bound has no negative constant or coefficient; such a family
    # used to pass the reader and fail the domination check (exit 1)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "family.json")
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _verify_edited_family(tmp_path, mutate):
    """Exit code of ``verify --family`` on a 1D hilbert N = 64 run's family
    after ``mutate`` edits its document."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "family.json")
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(bad)])


def test_verify_fails_a_witness_outside_its_cube(tmp_path, capsys):
    # the last witness, moved far off its cube with its count kept, used to
    # pass every check
    def move(doc):
        assert doc["entries"][-1]["witness"]["anchor"] == [48]
        doc["entries"][-1]["witness"]["anchor"] = [10**6]

    assert _verify_edited_family(tmp_path, move) == 1
    assert "sparsity:   FAIL" in capsys.readouterr().out
    report = read_json(tmp_path / "out" / "verify_report.json")
    assert [f["kind"] for f in report["sparsity"]["failures"]] == ["outside_cube"]


@pytest.mark.parametrize("mutate", [_replace(10**12, "entries", 0, "witness", "side"),
                                    _replace([10**12], "entries", -1, "witness", "anchor")],
                         ids=["witness_side", "witness_anchor"])
def test_verify_refuses_oversize_family_boxes(tmp_path, capsys, monkeypatch, mutate):
    # a huge witness box (the reader's masks) or a far one (the sparsity
    # canvas) used to end in a MemoryError traceback
    monkeypatch.setattr(operators, "_physical_memory", lambda: 2**34)
    assert _verify_edited_family(tmp_path, mutate) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GiB" in err and "Traceback" not in err


def test_verify_rejects_a_witness_count_off_its_runs(tmp_path, capsys):
    def recount(doc):
        doc["entries"][0]["witness"]["count"] += 1

    assert _verify_edited_family(tmp_path, recount) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: witness run data inconsistent with stored count")


def test_verify_refuses_a_domination_check_beyond_memory(tmp_path, capsys, monkeypatch):
    # 2D riesz2d n = 64 with 200 kB of physical memory: the input, the
    # family's masks and the sparsity canvas fit, the domination check (35
    # MB: its FFT alone takes 768 kB) does not; verify ran it and exited 0
    cfg = write_config(tmp_path, grid={"dim": 2, "cells_per_side": 64},
                       kernel={"name": "riesz2d"})
    family = tmp_path / "o" / "family.json"
    assert cli.main(["run", "--config", cfg, "--out", str(family.parent)]) == 0

    def untouchable(*args, **kwargs):
        pytest.fail("the lattice must not be sampled for a refused check")

    monkeypatch.setattr(verify, "_offset_lattice", untouchable)
    monkeypatch.setattr(verify, "_lattice_transform", untouchable)
    monkeypatch.setattr(operators, "_physical_memory", lambda: 200_000)
    # every check counts what the process holds; with nothing held the
    # earlier checks fit
    monkeypatch.setattr(operators, "_resident_memory", lambda: 0)
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, "--family", str(family),
                                        command="verify")
    assert "the domination check of a 2D grid with 64 cells per side" in err
    assert "physical memory" in err


# an all-zero input: no overflow bound applies, and the norm ratio is
# undefined, so the report holds none
@pytest.mark.parametrize("dim,n,kernel", [(1, 32, "hilbert"), (2, 16, "riesz2d")])
def test_zero_input_file_runs_and_verifies(tmp_path, dim, n, kernel):
    path = tmp_path / "zero.npy"
    np.save(path, np.zeros((n,) * dim))
    cfg = write_config(tmp_path, grid={"dim": dim, "cells_per_side": n},
                       kernel={"name": kernel}, input={"path": str(path)})
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(out / "family.json")]) == 0
    for name in ("report.json", "verify_report.json"):
        report = read_json(out / name)
        assert report["passed"] is True
        assert report["domination"]["constant"] == 0.0
        assert report["lp_ratio"]["value"] is None


def test_family_constant_may_be_infinite(tmp_path):
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "family.json")
    for constant in ("inf", float("inf")):
        doc["constant"] = constant
        assert cli.family_from_dict(doc).constant == float("inf")


def test_verify_checks_sparsity_against_the_config_eta(tmp_path, capsys):
    # a family that states eta 0, with every witness cut to its first cell
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["sparsity"]["eta_required"] == 1 / 6
    doc = read_json(out / "family.json")
    doc["eta"] = 0
    for e in doc["entries"]:
        e["witness"].update(runs=[[e["witness"]["runs"][0][0], 1]], count=1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(bad)]) == 1
    report = read_json(out / "verify_report.json")
    assert report["sparsity"]["eta_required"] == 1 / 6
    assert not report["sparsity"]["passed"]
    assert report["domination"]["passed"]
    assert "sparsity:   FAIL" in capsys.readouterr().out


def test_verify_rejects_non_object_family(tmp_path):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--family", str(bad)]) == 2


def _npy_header(shape) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


MALFORMED_INPUTS = {
    "strings.json": lambda path: path.write_text('[["a", "b"]]'),
    "truncated.json": lambda path: path.write_text("[1, 2"),
    "bad.npy": lambda path: path.write_text("not an array"),
    "text.npy": lambda path: np.save(path, np.array(["a", "b"])),
    "empty.npy": lambda path: path.write_bytes(b""),
    # numpy's header parse raised tokenize.TokenError, and a header
    # claiming 2**40 values a MemoryError
    "corrupt_header.npy": lambda path: path.write_bytes(
        _npy_header((2,)).replace(b"(2,)", b"\x002,)") + bytes(16)),
    "huge_header.npy": lambda path: path.write_bytes(
        _npy_header((2**40,)) + bytes(16)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_run_rejects_malformed_input_file(tmp_path, capsys, name):
    path = tmp_path / name
    MALFORMED_INPUTS[name](path)
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 2},
                       input={"path": str(path)})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _file_input_config(tmp_path, **fields):
    """A 1D N = 32 config whose input is read from a saved random input,
    with ``fields`` set in its input section too."""
    path = tmp_path / "f.npy"
    np.save(path, make_input(Grid(1, 32), "random", seed=7).values)
    return write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32},
                        input={"path": str(path), **fields})


# --seed 1 and --seed 2 wrote byte-identical families from one input file,
# each manifest recording its seed
@pytest.mark.parametrize("command", ["run", "verify"])
def test_seed_flag_with_an_input_file_exits_two(tmp_path, capsys, command):
    cfg = _file_input_config(tmp_path)
    if command == "verify":
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, "--seed", "1",
                                        command=command)
    assert "--seed 1" in err and "input/seed" in err
    # the probe's seed is its own
    assert cli.main(["t1-probe", "--config", cfg, "--out", str(tmp_path / "p"),
                     "--seed", "1"]) == 0


# a generated input's fields next to input.path were ignored
def test_generated_input_field_with_an_input_file_exits_two(tmp_path, capsys):
    cfg = _file_input_config(tmp_path, kind="spikes", amplitude=5.0)
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg)
    assert f"config {cfg} invalid at input/kind" in err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_layout_and_determinism(tmp_path):
    cfg = write_config(tmp_path, sweep={"axis": "N", "values": [32, 64]})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    for name in ("sweep.csv", "sweep.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    lines = (a / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "axis", "value", "n_entries", "constant", "eta", "min_witness_ratio",
        "max_overlap", "sparsity_passed", "domination_passed", "worst_margin",
        "lp_ratio"]
    assert len(lines) == 3
    rows = read_json(a / "sweep.json")["rows"]
    assert [r["value"] for r in rows] == [32, 64]


def test_sweep_over_seed_axis(tmp_path):
    cfg = write_config(tmp_path, sweep={"axis": "seed", "values": [1, 2, 3]})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_json(out / "sweep.json")["rows"]
    assert len({r["constant"] for r in rows}) > 1


# a sweep runs its points in this process; the worker-pool flag is gone
def test_sweep_jobs_flag_is_unrecognized(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"axis": "seed", "values": [1, 2]})
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 2" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_import_starts_no_process_machinery(tmp_path):
    code = ("import sys, sparsedom.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def test_sweep_value_overrides_the_seed_flag(tmp_path):
    # --seed 5 replaced every swept seed: three runs of seed 5, one constant
    cfg = write_config(tmp_path, sweep={"axis": "seed", "values": [1, 2, 3]})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    rows = read_json(out / "sweep.json")["rows"]
    assert [r["value"] for r in rows] == [1, 2, 3]
    assert len({r["constant"] for r in rows}) == 3


# int() truncated these, and the runs passed under the fractional label; a
# negative s exited 2 blaming max |f|
@pytest.mark.parametrize("axis,value,where", [
    ("N", 64.5, "grid/cells_per_side"),
    ("alpha", 3.7, "pipeline/alpha"),
    ("max_depth", 3.7, "pipeline/max_depth"),
    ("s", -2, "pipeline/s"),
])
def test_sweep_value_outside_the_schema_exits_two(tmp_path, capsys, monkeypatch,
                                                  axis, value, where):
    def untouchable(*args, **kwargs):
        pytest.fail("no sweep point may run before every point is checked")

    monkeypatch.setattr(cli, "build_sparse_domination", untouchable)
    # the valid point comes first
    first = {"N": 32, "alpha": 3, "max_depth": 3, "s": 1.0}[axis]
    cfg = write_config(tmp_path, sweep={"axis": axis, "values": [first, value]})
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, command="sweep")
    assert f"sweep value {value} of {axis}" in err and where in err


# a seed sweep over an input file repeated one run under each label
def test_seed_sweep_over_an_input_file_exits_two(tmp_path, capsys, monkeypatch):
    def untouchable(*args, **kwargs):
        pytest.fail("no sweep point may run before every point is checked")

    monkeypatch.setattr(cli, "build_sparse_domination", untouchable)
    cfg = read_json(_file_input_config(tmp_path))
    cfg["sweep"] = {"axis": "seed", "values": [1, 2]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    err = _exits_two_with_an_error_line(tmp_path, capsys, str(path), command="sweep")
    assert "sweep value 1 of seed" in err and "input/seed" in err


# ---------------------------------------------------------------------------
# kernel-stats and t1-probe

def test_kernel_stats_document(tmp_path):
    cfg = write_config(tmp_path, stats={"hormander_r": 1.0, "dini_nodes": 512})
    out = tmp_path / "out"
    assert cli.main(["kernel-stats", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "kernel_stats.json")
    assert doc["kernel"] == "hilbert"
    assert doc["dini"]["value"] == pytest.approx(2.0, rel=1e-3)
    assert doc["hormander"]["value"] > 0
    assert doc["hormander"]["tail"] < doc["hormander"]["value"]


def test_kernel_stats_zero_kernel(tmp_path):
    cfg = write_config(tmp_path, kernel={"name": "zero"})
    out = tmp_path / "out"
    assert cli.main(["kernel-stats", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "kernel_stats.json")
    assert doc["dini"]["value"] == 0.0
    assert doc["hormander"]["value"] == 0.0


def test_kernel_stats_without_modulus(tmp_path, monkeypatch):
    # a kernel with no declared modulus reports a null profile
    import dataclasses
    cfg = write_config(tmp_path)
    real = cli.make_kernel

    def stripped(name, grid=None, **params):
        return dataclasses.replace(real(name, grid, **params), modulus=None)

    monkeypatch.setattr(cli, "make_kernel", stripped)
    out = tmp_path / "out"
    assert cli.main(["kernel-stats", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "kernel_stats.json")["dini"] is None


@pytest.mark.parametrize("command", ["kernel-stats", "t1-probe"])
@pytest.mark.parametrize("dim,kernel", [(1, "riesz2d"), (2, "hilbert")])
def test_kernel_grid_dim_mismatch_exits_two(tmp_path, capsys, command, dim, kernel):
    # riesz2d on a line used to die with an IndexError traceback, hilbert
    # on a plane to exit 3 with a non-finite kernel value
    cfg = write_config(tmp_path, grid={"dim": dim, "cells_per_side": 16},
                       kernel={"name": kernel})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dim" in err and "Traceback" not in err


# a negative seed reached numpy's generator and left main as a traceback
@pytest.mark.parametrize("command,where", [("run", "input/seed"),
                                           ("verify", "input/seed"),
                                           ("t1-probe", "probe/seed"),
                                           ("sweep", "input/seed")])
def test_negative_seed_flag_exits_two(tmp_path, capsys, command, where):
    cfg = write_config(tmp_path, sweep={"axis": "N", "values": [32]})
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, "--seed", "-1",
                                        command=command)
    assert "--seed -1" in err and where in err


def test_t1_probe_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, probe={"seed": 3, "draws_per_prob": 1})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["t1-probe", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["t1-probe", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "t1_probe.json").read_bytes() == (b / "t1_probe.json").read_bytes()
    doc = read_json(a / "t1_probe.json")
    assert doc["value"] >= 0
    assert {s["subset"] for s in doc["samples"]} >= {"empty", "full"}


# ---------------------------------------------------------------------------
# configuration and exit codes

def test_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus={"x": 1})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_rejects_nested_unknown_keys(tmp_path):
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 64,
                                       "spacing": 0.1})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("cfg", [
    {"grid": {"dim": 1, "cells_per_side": 64}, "kernel": {"name": "hilbert"},
     "bogus": 1},
    {"grid": {"dim": 3, "cells_per_side": 64}, "kernel": {"name": "hilbert"}},
    {"grid": {"dim": 1, "cells_per_side": "64", "spacing": 0.1}},
    {"kernel": {"name": "hilbert"}, "pipeline": {"alpha": "3", "mode": 1}},
    [],
])
def test_config_errors_are_those_of_jsonschema_validate(tmp_path, cfg):
    # the validator is built once, and reports the error validate would
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        cli.load_config(str(path))
    where = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    assert str(got.value) == f"config {path} invalid at {where}: {want.value.message}"


def test_manifest_times_each_verification_check(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    checks = {"sparsity_s", "domination_s", "audit_s", "lp_ratio_s"}
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    timings = read_json(out / "manifest.json")["timings"]
    assert set(timings) == {"build_s", "verify_s", "write_s"} | checks
    assert all(timings[k] >= 0 for k in timings)
    assert sum(timings[k] for k in checks) <= timings["verify_s"]
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert set(read_json(out / "manifest.json")["timings"]) == {"write_s"} | checks


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2


def test_unknown_kernel_exits_two(tmp_path):
    cfg = write_config(tmp_path, kernel={"name": "perfect"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_even_alpha_exits_two(tmp_path):
    cfg = write_config(tmp_path, pipeline={"alpha": 4})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _exits_two_with_an_error_line(tmp_path, capsys, cfg, *extra, command="run"):
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_memory_error_exits_two(tmp_path, capsys, monkeypatch, command):
    # an allocation numpy cannot make is a grid too large for the machine,
    # not a failed verification: it printed a traceback and exited 1
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 12.0 GiB for an array with shape "
                          "(1610612736,) and data type float64")

    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32})
    extra = ()
    if command == "verify":
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        extra = ("--family", str(tmp_path / "o" / "family.json"))
        monkeypatch.setattr(cli, "check_domination", no_memory)
    else:
        monkeypatch.setattr(cli, "build_sparse_domination", no_memory)
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, *extra, command=command)
    assert "Unable to allocate 12.0 GiB" in err


# JSON Schema counts 3.0 as an integer; these exited 1 with a TypeError, and
# a float max_depth ran
@pytest.mark.parametrize("section,key,value", [
    ("pipeline", "alpha", 3.0),
    ("grid", "cells_per_side", 64.0),
    ("grid", "dim", 1.0),
    ("input", "seed", 7.0),
    ("pipeline", "max_depth", 1.0),
])
def test_integral_float_in_an_integer_field_exits_two(tmp_path, capsys, section, key, value):
    cfg = read_json(write_config(tmp_path))
    cfg[section][key] = value
    path = tmp_path / "float.json"
    path.write_text(json.dumps(cfg))
    err = _exits_two_with_an_error_line(tmp_path, capsys, str(path))
    assert f"{section}/{key}" in err


def test_infinite_exponent_exits_two(tmp_path, capsys):
    # 1e400 parses to inf, which passed the schema and built a certificate
    # on NaN power sums
    path = tmp_path / "inf.json"
    with open(write_config(tmp_path)) as fh:
        path.write_text(fh.read().replace('"s": 1.0', '"s": 1e400'))
    assert "inf" in _exits_two_with_an_error_line(tmp_path, capsys, str(path))


def _config_with_literal(tmp_path, literal, *path, **overrides):
    """A config file whose field at ``path`` holds the JSON text ``literal``
    verbatim, such as ``1e400``, which JSON reads as inf."""
    cfg = read_json(write_config(tmp_path, **overrides))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = "@literal@"
    out = tmp_path / "literal.json"
    out.write_text(json.dumps(cfg).replace('"@literal@"', literal))
    return str(out)


FIXED = {"alpha": 3, "s": 1.0, "mode": "fixed", "c_fixed": 1.5, "a_fixed": 1.0}


# 1e400 reads as inf and NaN passes every bound, so each of these passed the
# schema: an infinite tol verified every family (exit 0), an infinite
# phys_side or amplitude exited 3, an infinite c_fixed exited 1, a NaN tol
# failed every cell (exit 1), and a 400-digit amplitude exited 3 on "int
# too large to convert to float"
@pytest.mark.parametrize("literal,path,overrides", [
    ("1e400", ("verify", "tol"), {}),
    ("1e400", ("grid", "phys_side"), {}),
    ("1e400", ("input", "amplitude"), {}),
    ("1e400", ("pipeline", "c_fixed"), {"pipeline": FIXED}),
    ("NaN", ("verify", "tol"), {}),
    ("NaN", ("pipeline", "c_fixed"), {"pipeline": FIXED}),
    ("1" + "0" * 400, ("input", "amplitude"), {}),
], ids=["tol", "phys_side", "amplitude", "c_fixed", "tol-nan", "c_fixed-nan",
        "amplitude-400-digits"])
def test_non_finite_number_exits_two(tmp_path, capsys, literal, path, overrides):
    cfg = _config_with_literal(tmp_path, literal, *path, **overrides)
    _exits_two_with_an_error_line(tmp_path, capsys, cfg)


# finite inputs whose transform or norms overflow: amplitude 1e300 exited
# 0 with a nan norm ratio, 1e307 and a 1e306 cell exited 3 blaming the
# verifier's FFT
@pytest.mark.parametrize("amplitude", [1e300, 1e307])
def test_overflowing_amplitude_exits_two(tmp_path, capsys, amplitude):
    grid = {"dim": 1, "cells_per_side": 32}
    cfg = write_config(tmp_path, grid=grid,
                       input={"kind": "random", "seed": 7, "amplitude": amplitude})
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg)
    assert "input (kind random, amplitude" in err and "max |f|" in err
    # verify reads its input the same way
    safe = write_config(tmp_path, "safe.json", grid=grid)
    assert cli.main(["run", "--config", safe, "--out", str(tmp_path / "o")]) == 0
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg, command="verify")
    assert "input (kind random, amplitude" in err


def test_overflowing_input_file_exits_two(tmp_path, capsys):
    vals = make_input(Grid(1, 32), "random", seed=7).values.copy()
    vals[5] = 1e306
    path = tmp_path / "f.npy"
    np.save(path, vals)
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32},
                       input={"path": str(path)})
    err = _exits_two_with_an_error_line(tmp_path, capsys, cfg)
    assert f"input {path} has max |f| = 1e+306" in err
    # the bound scales with the grid and the exponents: large but safe
    # amplitudes still run
    vals[5] = 1e100
    np.save(path, vals)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    strict = write_config(tmp_path, "strict.json", grid={"dim": 1, "cells_per_side": 32},
                          input={"path": str(path)}, verify={"ratio_p": 8})
    assert "ratio_p = 8" in _exits_two_with_an_error_line(tmp_path, capsys, strict)


# 1e200 overflowed the cell measure's float power and exited 3 on "(34,
# 'Numerical result out of range')"; 1e-200 underflowed it to 0 and exited
# 3 blaming the kernel at two cells
@pytest.mark.parametrize("phys_side", [1e200, 1e-200])
def test_window_length_beyond_the_float_range_exits_two(tmp_path, capsys, phys_side):
    cfg = write_config(tmp_path, grid={"dim": 2, "cells_per_side": 16,
                                       "phys_side": phys_side},
                       kernel={"name": "riesz2d"})
    assert "phys_side" in _exits_two_with_an_error_line(tmp_path, capsys, cfg)
    # in 1D both measures of a 1e-200 window are normal floats
    ok = write_config(tmp_path, "ok.json", grid={"dim": 1, "cells_per_side": 16,
                                                 "phys_side": 1e-200})
    assert cli.main(["run", "--config", ok, "--out", str(tmp_path / "ok")]) == 0


def test_zero_kernel_with_a_fractional_dim_exits_two(tmp_path, capsys):
    # make_kernel truncated 1.5 to 1, and the run passed on a 1D grid
    cfg = write_config(tmp_path, kernel={"name": "zero", "params": {"dim": 1.5}})
    assert "dim must be an integer" in _exits_two_with_an_error_line(tmp_path, capsys, cfg)
    ok = write_config(tmp_path, "ok.json", kernel={"name": "zero", "params": {"dim": 1}})
    assert cli.main(["run", "--config", ok, "--out", str(tmp_path / "ok")]) == 0


def test_infinite_tol_verifies_no_family(tmp_path, capsys):
    # a family of constant 0 fails its domination check under any finite
    # tol, and used to pass under 1e400
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out / "family.json")
    doc["constant"] = 0
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--family", str(bad)]) == 1
    tol = _config_with_literal(tmp_path, "1e400", "verify", "tol")
    _exits_two_with_an_error_line(tmp_path, capsys, tol, "--family", str(bad),
                                  command="verify")


def test_infinite_sweep_value_exits_two(tmp_path, capsys):
    # int(inf) for the N axis exited 3
    cfg = _config_with_literal(tmp_path, "[1e400]", "sweep", "values",
                               sweep={"axis": "N", "values": [32]})
    _exits_two_with_an_error_line(tmp_path, capsys, cfg, command="sweep")


# make_kernel calls float() or int() on these; a string raised ValueError,
# which left main as a traceback
@pytest.mark.parametrize("kernel", [
    {"name": "holder", "params": {"delta": "x"}},
    {"name": "hilbert", "params": {"ref_scale": "x"}},
    {"name": "zero", "params": {"dim": "x"}},
], ids=["delta", "ref_scale", "dim"])
def test_string_kernel_parameter_exits_two(tmp_path, capsys, kernel):
    cfg = write_config(tmp_path, kernel=kernel)
    _exits_two_with_an_error_line(tmp_path, capsys, cfg)


def test_numeric_failures_exit_three(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)

    def explode(*a, **k):
        raise NumericError("kernel blew up at x=0, y=1")

    monkeypatch.setattr(cli, "build_sparse_domination", explode)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("broken,message", [
    ("omega", "exceptional set holds"),
    ("children", "children hold"),
])
def test_run_exits_three_on_broken_invariant(tmp_path, capsys, monkeypatch,
                                             broken, message):
    # thresholds that flag every cell, or a stopping time that selects
    # every child, break a quantile-mode counting invariant of the builder
    def every_child(masks):
        # each cube's dyadic children, as owners, relative anchors and sides
        k, side, dim = len(masks), masks.shape[1], masks.ndim - 1
        anchors = [c.anchor for c in dyadic_children(Cube((0,) * dim, side))]
        return (np.repeat(np.arange(k), len(anchors)), np.tile(anchors, (k, 1)),
                np.full(k * len(anchors), side // 2), [[] for _ in range(k)])

    if broken == "omega":
        monkeypatch.setattr(sparse, "_order_threshold",
                            lambda vals, k: np.full(len(vals), -1.0))
    else:
        monkeypatch.setattr(sparse, "_stopping_time", every_child)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: node Cube(") and message in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("amplitude,s", [(1e-200, 2), (1.0, 1e-3)])
def test_run_exits_three_where_an_average_underflows(tmp_path, capsys, amplitude, s):
    # |f|**2 at amplitude 1e-200, or a mean below 1 to the power 1000,
    # rounds a node's average over a nonzero f to 0; read as a zero
    # average, the first certified the constant 0 and passed, and the
    # second failed on every cell
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32},
                       input={"kind": "random", "seed": 1, "amplitude": amplitude},
                       pipeline={"s": s})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: the s = {s} average of f over the dilate of node Cube(")
    assert "underflows to 0" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


SUBNORMAL_GRIDS = {"hilbert": {"dim": 1, "cells_per_side": 32},
                   "riesz2d": {"dim": 2, "cells_per_side": 16}}


@pytest.mark.parametrize("amplitude", [1e-315, 1e-320])
@pytest.mark.parametrize("kernel", sorted(SUBNORMAL_GRIDS))
def test_run_passes_on_subnormal_input(tmp_path, capsys, kernel, amplitude):
    # the verifier's FFT rounding bound, relative to max |f|, underflowed
    # to 0 on a subnormal f, and a direct sum one subnormal step off the
    # FFT made run exit 3; the bound now has a term at that spacing
    cfg = write_config(tmp_path, grid=SUBNORMAL_GRIDS[kernel], kernel={"name": kernel},
                       input={"kind": "random", "seed": 1, "amplitude": amplitude})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "domination: PASS" in capsys.readouterr().out
    assert read_json(out / "report.json")["passed"] is True


@pytest.mark.parametrize("kernel", sorted(SUBNORMAL_GRIDS))
def test_run_exits_three_on_the_smallest_subnormal_input(tmp_path, capsys, kernel):
    # at amplitude 5e-324 the average over a node's dilate underflows to 0
    cfg = write_config(tmp_path, grid=SUBNORMAL_GRIDS[kernel], kernel={"name": kernel},
                       input={"kind": "random", "seed": 1, "amplitude": 5e-324})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "underflows to 0" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_exit_code_mapping():
    assert cli._exit_code_for(NumericError("x")) == 3
    assert cli._exit_code_for(UndefinedRatioError("x")) == 3
    assert cli._exit_code_for(ParameterError("x")) == 2
    assert cli._exit_code_for(ConfigError("x")) == 2
    with pytest.raises(KeyError):
        cli._exit_code_for(KeyError("boom"))


def _child_env() -> dict:
    """The environment of a child process that imports the same package as
    this one, wherever pytest found it (PYTHONPATH or the pythonpath
    setting in pyproject.toml)."""
    src = os.path.dirname(os.path.dirname(sparsedom.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32})
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedom.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "domination: PASS" in proc.stdout
