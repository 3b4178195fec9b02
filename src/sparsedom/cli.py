"""Command line front end.

Subcommands:

    run           build one sparse domination, verify it, write artifacts
    sweep         repeat the run across one swept parameter, emit one CSV
    kernel-stats  modulus integral and annulus-variation statistics
    t1-probe      testing-condition probe on random indicator subsets
    verify        re-check a previously written family file

All output files are deterministic for a fixed configuration and seed;
the manifest is the single file carrying a timestamp.  Exit codes:
0 success, 1 a verification check failed, 2 configuration or usage
violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import jsonschema
import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    NumericError,
    SparsedomError,
    UndefinedRatioError,
)
from .grid import CellSet, Cube, Grid, GridFunction
from .inputs import INPUT_KINDS, default_support, load_input, make_input
from .operators import Kernel, dini_profile, hormander_constant, make_kernel
from .sparse import (
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    build_sparse_domination,
)
from .verify import (
    audit_coefficients,
    check_domination,
    check_sparsity,
    sparse_lp_ratio,
    t1_testing_probe,
)

__all__ = [
    "CONFIG_SCHEMA",
    "FAMILY_SCHEMA",
    "main",
    "load_config",
    "family_to_dict",
    "family_from_dict",
    "family_to_text",
]

OUT_ENV_VAR = "SPARSEDOM_OUT"

_CUBE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["anchor", "side"],
    "properties": {
        "anchor": {"type": "array", "minItems": 1, "maxItems": 2,
                   "items": {"type": "integer"}},
        "side": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "kernel"],
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim", "cells_per_side"],
            "properties": {
                "dim": {"enum": [1, 2]},
                "cells_per_side": {"type": "integer", "minimum": 2},
                "phys_side": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "input": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(INPUT_KINDS)},
                "seed": {"type": "integer", "minimum": 0},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "support": _CUBE_SCHEMA,
                "path": {"type": "string"},
            },
        },
        "pipeline": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "integer", "minimum": 3},
                "s": {"type": "number", "exclusiveMinimum": 0},
                "mode": {"enum": ["quantile", "fixed"]},
                "c_fixed": {"type": "number", "exclusiveMinimum": 0},
                "a_fixed": {"type": "number", "exclusiveMinimum": 0},
                "max_depth": {"type": ["integer", "null"], "minimum": 0},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "ratio_r": {"type": "number", "exclusiveMinimum": 0},
                "ratio_p": {"type": "number", "minimum": 1},
            },
        },
        "probe": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "probs": {"type": "array", "minItems": 1,
                          "items": {"type": "number", "exclusiveMinimum": 0,
                                    "exclusiveMaximum": 1}},
                "draws_per_prob": {"type": "integer", "minimum": 1},
                "cube": _CUBE_SCHEMA,
            },
        },
        "stats": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hormander_r": {"type": "number", "minimum": 1},
                "dini_nodes": {"type": "integer", "minimum": 16},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"enum": ["N", "alpha", "s", "max_depth", "seed"]},
                "values": {"type": "array", "minItems": 1,
                           "items": {"type": "number"}},
            },
        },
    },
}

_ANCHOR_SCHEMA = {"type": "array", "minItems": 1, "maxItems": 2,
                  "items": {"type": "integer"}}
_SIDE_SCHEMA = {"type": "integer", "minimum": 1}

# structure of a family file; run order and bounds are checked in code
FAMILY_SCHEMA = {
    "type": "object",
    "required": ["format", "grid", "eta", "constant", "entries"],
    "properties": {
        "format": {"const": 1},
        "grid": CONFIG_SCHEMA["properties"]["grid"],
        "eta": {"type": "number"},
        "constant": {"anyOf": [{"type": "number"}, {"const": "inf"}]},
        "meta": {"type": "object"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["anchor", "side", "base_anchor", "base_side",
                             "depth", "coefficient", "flags", "witness"],
                "properties": {
                    "anchor": _ANCHOR_SCHEMA,
                    "side": _SIDE_SCHEMA,
                    "base_anchor": _ANCHOR_SCHEMA,
                    "base_side": _SIDE_SCHEMA,
                    "depth": {"type": "integer", "minimum": 0},
                    "coefficient": {"type": "number"},
                    "flags": {"type": "array", "items": {"type": "string"}},
                    "witness": {
                        "type": "object",
                        "required": ["anchor", "side", "count", "runs"],
                        "properties": {
                            "anchor": _ANCHOR_SCHEMA,
                            "side": _SIDE_SCHEMA,
                            "count": {"type": "integer", "minimum": 0},
                            "runs": {"type": "array", "items": {
                                "type": "array", "minItems": 2, "maxItems": 2,
                                "items": {"type": "integer"}}},
                        },
                    },
                },
            },
        },
    },
}
# built once: jsonschema.validate re-checks the schema itself on every call,
# which costs ten times the validation of a family file
_FAMILY_VALIDATOR = jsonschema.Draft202012Validator(FAMILY_SCHEMA)


# ---------------------------------------------------------------------------
# configuration plumbing

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config {path} invalid at {where}: {exc.message}") from exc
    return cfg


def _grid_from(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(g["dim"], g["cells_per_side"], g.get("phys_side", 1.0))


def _kernel_from(cfg: dict, grid: Grid) -> Kernel:
    k = cfg["kernel"]
    return make_kernel(k["name"], grid, **k.get("params", {}))


def _cube_from(d: dict, grid: Grid) -> Cube:
    if len(d["anchor"]) != grid.dim:
        raise ConfigError(
            f"cube anchor {d['anchor']} does not match grid dim {grid.dim}")
    return Cube(tuple(d["anchor"]), d["side"])


def _input_from(cfg: dict, grid: Grid, seed_override: int | None = None) -> GridFunction:
    section = cfg.get("input", {})
    if "path" in section:
        return load_input(section["path"], grid)
    seed = seed_override if seed_override is not None else section.get("seed", 0)
    support = _cube_from(section["support"], grid) if "support" in section else None
    return make_input(grid, section.get("kind", "random"), seed=seed,
                      support=support, amplitude=section.get("amplitude", 1.0))


def _pipeline_from(cfg: dict) -> PipelineConfig:
    p = dict(cfg.get("pipeline", {}))
    return PipelineConfig(**p)


# ---------------------------------------------------------------------------
# serialization

def _json_safe(obj):
    """Recursively replace non-finite floats so output stays strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    return obj


def _json_bytes(obj) -> bytes:
    return (json.dumps(_json_safe(obj), sort_keys=True, indent=2,
                       allow_nan=False) + "\n").encode()


def _write_file(path: str, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def family_to_dict(family: SparseFamily) -> dict:
    g = family.grid
    entries = []
    for e in family.entries:
        entries.append({
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
                "runs": [list(r) for r in e.witness_runs()],
            },
        })
    return {
        "format": 1,
        "grid": {"dim": g.dim, "cells_per_side": g.cells_per_side,
                 "phys_side": g.phys_side},
        "eta": family.eta,
        "constant": family.constant,
        "meta": family.meta,
        "entries": entries,
    }


def _witness_mask(runs: list, cells: int, where: str) -> np.ndarray:
    """Flat witness mask from row-major (start, length) runs, which must be
    non-empty, inside the box, sorted and disjoint."""
    flat = np.zeros(cells, dtype=bool)
    end = 0
    for start, length in runs:
        start, length = int(start), int(length)
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


def family_from_dict(d: dict) -> SparseFamily:
    """Family from its JSON document; ConfigError on any malformed field."""
    try:
        _FAMILY_VALIDATOR.validate(d)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"family invalid at {where}: {exc.message}") from exc
    g = d["grid"]
    grid = Grid(g["dim"], g["cells_per_side"], g.get("phys_side", 1.0))
    entries = []
    for i, e in enumerate(d["entries"]):
        w = e["witness"]
        box = _cube_from(w, grid)
        flat = _witness_mask(w["runs"], box.cell_count, f"entry {i}")
        witness = CellSet(grid, box, flat.reshape((box.side,) * grid.dim))
        if witness.count != w["count"]:
            raise ConfigError("witness run data inconsistent with stored count")
        entries.append(SparseEntry(
            cube=_cube_from(e, grid),
            witness=witness,
            coefficient=e["coefficient"],
            base_cube=_cube_from(
                {"anchor": e["base_anchor"], "side": e["base_side"]}, grid),
            depth=e["depth"],
            flags=tuple(e["flags"]),
        ))
    return SparseFamily(grid, d["eta"], entries, float(d["constant"]),
                        meta=d.get("meta", {}))


def _fmt_anchor(anchor) -> str:
    return "(" + ",".join(str(a) for a in anchor) + ")"


def family_to_text(family: SparseFamily) -> str:
    lines = [
        f"sparse family: entries={len(family.entries)} eta={family.eta:.10g} "
        f"constant={family.constant:.12g} kernel={family.meta.get('kernel', '?')}",
        "columns: index depth anchor side base_anchor base_side "
        "coefficient witness_count flags",
    ]
    for i, e in enumerate(family.entries):
        flags = ",".join(e.flags) if e.flags else "-"
        lines.append(
            f"{i} {e.depth} {_fmt_anchor(e.cube.anchor)} {e.cube.side} "
            f"{_fmt_anchor(e.base_cube.anchor)} {e.base_cube.side} "
            f"{e.coefficient:.12g} {e.witness.count} {flags}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared run/verify core

def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "sparsedom-out"
    os.makedirs(out, exist_ok=True)
    return out


def _manifest(command: str, cfg: dict, args_seed, timings: dict,
              files: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "seed_override": args_seed,
        "timings": timings,
        "files": files,
    }


def _verification_report(kernel, f, family, cfg) -> dict:
    vcfg = cfg.get("verify", {})
    tol = vcfg.get("tol", 1e-10)
    r = vcfg.get("ratio_r", 1.0)
    p = vcfg.get("ratio_p", 2.0)
    sparsity = check_sparsity(family)
    domination = check_domination(kernel, f, family, tol=tol)
    audit = audit_coefficients(family, f)
    try:
        ratio = sparse_lp_ratio(family, f, r=r, p=p)
    except UndefinedRatioError:
        ratio = None
    passed = sparsity.passed and domination.passed and audit <= 1e-9
    return {
        "passed": passed,
        "sparsity": sparsity.to_dict(),
        "domination": domination.to_dict(),
        "coefficient_audit_max_dev": audit,
        "lp_ratio": {"r": r, "p": p, "value": ratio},
    }


def _run_once(cfg: dict, seed_override: int | None):
    grid = _grid_from(cfg)
    kernel = _kernel_from(cfg, grid)
    f = _input_from(cfg, grid, seed_override)
    t0 = time.perf_counter()
    result = build_sparse_domination(kernel, f, _pipeline_from(cfg))
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = _verification_report(kernel, f, result.family, cfg)
    verify_s = time.perf_counter() - t0
    return result, report, {"build_s": build_s, "verify_s": verify_s}


def _print_report(report: dict) -> None:
    spar = report["sparsity"]
    dom = report["domination"]
    print(f"sparsity:   {'PASS' if spar['passed'] else 'FAIL'} "
          f"(min witness ratio {spar['min_ratio']:.6g}, "
          f"max overlap {spar['max_overlap']})")
    print(f"domination: {'PASS' if dom['passed'] else 'FAIL'} "
          f"(constant {dom['constant']:.6g}, worst margin {dom['worst_margin']:.3e}, "
          f"{dom['n_failures']} of {dom['n_checked']} cells out of bound)")
    print(f"coefficient audit max deviation: "
          f"{report['coefficient_audit_max_dev']:.3e}")
    ratio = report["lp_ratio"]["value"]
    if ratio is not None:
        print(f"norm ratio (r={report['lp_ratio']['r']}, "
              f"p={report['lp_ratio']['p']}): {ratio:.6g}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    result, report, timings = _run_once(cfg, args.seed)
    family = result.family
    files = {}
    files["family.json"] = _write_file(
        os.path.join(out, "family.json"), _json_bytes(family_to_dict(family)))
    files["family.txt"] = _write_file(
        os.path.join(out, "family.txt"), family_to_text(family).encode())
    report_doc = dict(report)
    report_doc["ledger"] = result.ledger.to_dict()
    files["report.json"] = _write_file(
        os.path.join(out, "report.json"), _json_bytes(report_doc))
    _write_file(os.path.join(out, "manifest.json"),
                _json_bytes(_manifest("run", cfg, args.seed, timings, files)))
    print(f"entries={len(family.entries)} constant={family.constant:.10g} "
          f"eta={family.eta:.6g}")
    _print_report(report)
    print(f"wrote {out}/family.json, family.txt, report.json, manifest.json")
    return 0 if report["passed"] else 1


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    family_path = args.family or os.path.join(out, "family.json")
    try:
        with open(family_path) as fh:
            family = family_from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read family {family_path}: {exc}") from exc
    grid = _grid_from(cfg)
    if (family.grid.dim, family.grid.cells_per_side, family.grid.phys_side) != (
            grid.dim, grid.cells_per_side, grid.phys_side):
        raise ConfigError("family grid does not match the configuration grid")
    kernel = _kernel_from(cfg, grid)
    f = _input_from(cfg, grid, args.seed)
    report = _verification_report(kernel, f, family, cfg)
    files = {"verify_report.json": _write_file(
        os.path.join(out, "verify_report.json"), _json_bytes(report))}
    _write_file(os.path.join(out, "manifest.json"),
                _json_bytes(_manifest("verify", cfg, args.seed, {}, files)))
    _print_report(report)
    return 0 if report["passed"] else 1


def _cmd_kernel_stats(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    grid = _grid_from(cfg)
    kernel = _kernel_from(cfg, grid)
    scfg = cfg.get("stats", {})
    t0 = time.perf_counter()
    dini = None
    if kernel.modulus is not None:
        dini = dini_profile(kernel.modulus, n_nodes=scfg.get("dini_nodes", 4096))
    r = scfg.get("hormander_r", kernel.hormander_r or 1.0)
    horm = hormander_constant(kernel, r, grid)
    stats = {
        "kernel": kernel.name,
        "dim": grid.dim,
        "cells_per_side": grid.cells_per_side,
        "dini": dini,
        "hormander": {
            "r": r,
            "value": horm.value,
            "tail": horm.tail,
            "k_max": horm.k_max,
            "n_cubes": horm.n_cubes,
            "coarsened": horm.coarsened,
        },
    }
    timings = {"stats_s": time.perf_counter() - t0}
    files = {"kernel_stats.json": _write_file(
        os.path.join(out, "kernel_stats.json"), _json_bytes(stats))}
    _write_file(os.path.join(out, "manifest.json"),
                _json_bytes(_manifest("kernel-stats", cfg, None, timings, files)))
    div = dini and dini["divergent"]
    dini_msg = "none" if dini is None else (
        "divergent" if div else f"{dini['value']:.6g}")
    print(f"kernel={kernel.name} modulus integral={dini_msg} "
          f"annulus variation={horm.value:.6g} (tail {horm.tail:.3e})")
    return 0


def _cmd_t1_probe(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    grid = _grid_from(cfg)
    kernel = _kernel_from(cfg, grid)
    pcfg = cfg.get("probe", {})
    cube = _cube_from(pcfg["cube"], grid) if "cube" in pcfg else default_support(grid)
    seed = args.seed if args.seed is not None else pcfg.get("seed", 0)
    probs = tuple(pcfg.get("probs", (0.125, 0.25, 0.5, 0.75)))
    probe = t1_testing_probe(kernel, grid, cube, seed=seed, probs=probs,
                             draws_per_prob=pcfg.get("draws_per_prob", 2))
    doc = {
        "kernel": kernel.name,
        "cube": {"anchor": list(cube.anchor), "side": cube.side},
        "seed": seed,
        "value": probe.value,
        "samples": probe.samples,
    }
    files = {"t1_probe.json": _write_file(
        os.path.join(out, "t1_probe.json"), _json_bytes(doc))}
    _write_file(os.path.join(out, "manifest.json"),
                _json_bytes(_manifest("t1-probe", cfg, args.seed, {}, files)))
    print(f"testing-condition probe: max average {probe.value:.6g} "
          f"over {len(probe.samples)} subsets")
    return 0


_SWEEP_COLUMNS = ["axis", "value", "n_entries", "constant", "eta",
                  "min_witness_ratio", "max_overlap", "sparsity_passed",
                  "domination_passed", "worst_margin", "lp_ratio"]


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    if axis == "N":
        cfg["grid"]["cells_per_side"] = int(value)
    elif axis == "alpha":
        cfg.setdefault("pipeline", {})["alpha"] = int(value)
    elif axis == "s":
        cfg.setdefault("pipeline", {})["s"] = float(value)
    elif axis == "max_depth":
        cfg.setdefault("pipeline", {})["max_depth"] = int(value)
    else:
        cfg.setdefault("input", {})["seed"] = int(value)
    return cfg


def _sweep_worker(payload) -> dict:
    cfg, axis, value, seed_override = payload
    _, report, _ = _run_once(_apply_axis(cfg, axis, value), seed_override)
    spar = report["sparsity"]
    dom = report["domination"]
    ratio = report["lp_ratio"]["value"]
    return {
        "axis": axis,
        "value": value,
        "n_entries": spar["n_entries"],
        "constant": dom["constant"],
        "eta": spar["eta_required"],
        "min_witness_ratio": spar["min_ratio"],
        "max_overlap": spar["max_overlap"],
        "sparsity_passed": spar["passed"],
        "domination_passed": dom["passed"],
        "worst_margin": dom["worst_margin"],
        "lp_ratio": "" if ratio is None else ratio,
    }


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    out = _out_dir(args)
    payloads = [(cfg, axis, v, args.seed) for v in values]
    t0 = time.perf_counter()
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    else:
        rows = [_sweep_worker(p) for p in payloads]
    timings = {"sweep_s": time.perf_counter() - t0}
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    files = {}
    files["sweep.csv"] = _write_file(os.path.join(out, "sweep.csv"),
                                     buf.getvalue().encode())
    files["sweep.json"] = _write_file(os.path.join(out, "sweep.json"),
                                      _json_bytes({"axis": axis, "rows": rows}))
    _write_file(os.path.join(out, "manifest.json"),
                _json_bytes(_manifest("sweep", cfg, args.seed, timings, files)))
    ok = all(r["sparsity_passed"] and r["domination_passed"] for r in rows)
    for r in rows:
        print(f"{axis}={r['value']}: entries={r['n_entries']} "
              f"constant={r['constant']:.6g} "
              f"{'PASS' if r['sparsity_passed'] and r['domination_passed'] else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedom",
        description="Sparse domination of discretized kernel operators.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} "
                            "or ./sparsedom-out)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the seed from the config")

    p = sub.add_parser("run", help="build, verify, and write one sparse family")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run the pipeline across one parameter")
    common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("kernel-stats",
                       help="modulus integral and annulus-variation statistics")
    common(p, seed=False)
    p.set_defaults(func=_cmd_kernel_stats)

    p = sub.add_parser("t1-probe",
                       help="testing-condition probe on indicator subsets")
    common(p)
    p.set_defaults(func=_cmd_t1_probe)

    p = sub.add_parser("verify", help="re-check a stored family file")
    common(p)
    p.add_argument("--family", default=None,
                   help="family JSON path (default <out>/family.json)")
    p.set_defaults(func=_cmd_verify)

    return parser


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (NumericError, UndefinedRatioError, FloatingPointError,
                        OverflowError, ZeroDivisionError)):
        return 3
    if isinstance(exc, (SparsedomError, OSError)):
        return 2
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  mapped to documented exit codes
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
