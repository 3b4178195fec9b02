"""End-to-end command line checks.

Commands run in-process through ``cli.main`` with explicit argument
lists; one test exercises the installed console script through a real
subprocess.  File outputs are held to byte-level determinism.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sparsedom import (
    Grid,
    NumericError,
    ParameterError,
    UndefinedRatioError,
    build_sparse_domination,
    make_kernel,
)
import sparsedom
from sparsedom import cli
from sparsedom.errors import ConfigError
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


def test_run_family_json_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    doc = read_json(out / "family.json")
    family = cli.family_from_dict(doc)
    assert cli.family_to_dict(family) == doc
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


def test_out_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    target = tmp_path / "env-out"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (target / "family.json").exists()


# ---------------------------------------------------------------------------
# verify

def test_verify_accepts_fresh_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "verify_report.json").exists()


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
    "coefficient_null": _replace(None, "entries", 0, "coefficient"),
    "grid_dim_three": _replace(3, "grid", "dim"),
    "anchor_dim_mismatch": _replace([0, 0], "entries", 0, "anchor"),
    "entries_not_list": _replace({"0": 1}, "entries"),
    "wrong_format": _replace(2, "format"),
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


def test_verify_rejects_non_object_family(tmp_path):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--family", str(bad)]) == 2


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_layout_and_determinism(tmp_path):
    cfg = write_config(tmp_path, sweep={"axis": "N", "values": [32, 64]})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    lines = (a / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",") == cli._SWEEP_COLUMNS
    assert len(lines) == 3
    rows = read_json(a / "sweep.json")["rows"]
    assert [r["value"] for r in rows] == [32, 64]


def test_sweep_over_seed_axis(tmp_path):
    cfg = write_config(tmp_path, sweep={"axis": "seed", "values": [1, 2, 3]})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_json(out / "sweep.json")["rows"]
    assert len({r["constant"] for r in rows}) > 1


def test_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


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


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2


def test_unknown_kernel_exits_two(tmp_path):
    cfg = write_config(tmp_path, kernel={"name": "perfect"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_even_alpha_exits_two(tmp_path):
    cfg = write_config(tmp_path, pipeline={"alpha": 4})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_numeric_failures_exit_three(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)

    def explode(*a, **k):
        raise NumericError("kernel blew up at x=0, y=1")

    monkeypatch.setattr(cli, "build_sparse_domination", explode)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_exit_code_mapping():
    assert cli._exit_code_for(NumericError("x")) == 3
    assert cli._exit_code_for(UndefinedRatioError("x")) == 3
    assert cli._exit_code_for(ParameterError("x")) == 2
    assert cli._exit_code_for(ConfigError("x")) == 2
    with pytest.raises(KeyError):
        cli._exit_code_for(KeyError("boom"))


def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path, grid={"dim": 1, "cells_per_side": 32})
    # the child imports the same package as this process, wherever pytest
    # found it (PYTHONPATH or the pythonpath setting in pyproject.toml)
    src = os.path.dirname(os.path.dirname(sparsedom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedom.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "domination: PASS" in proc.stdout
