"""Command line front end.

Subcommands:

    run           build one sparse domination, verify it, write artifacts
    sweep         repeat the run across one swept parameter, point after
                  point in this process, emit one CSV
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
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import textwrap
import time
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Callable

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
from .operators import (_SLAB_CELLS, Kernel, _refuse_beyond_memory, dini_profile,
                        hormander_constant, make_kernel)
from .sparse import (
    PipelineConfig,
    SparseEntry,
    SparseFamily,
    build_sparse_domination,
)
from .verify import (
    _build_exponent,
    _coefficient_gap,
    _entry_averages,
    _norm_ratio,
    _paint_coefficients,
    check_domination,
    check_sparsity,
    t1_testing_probe,
)

__all__ = [
    "CONFIG_SCHEMA",
    "FAMILY_SCHEMA",
    "main",
    "load_config",
    "family_to_json",
    "family_from_dict",
    "family_to_text",
]

OUT_ENV_VAR = "SPARSEDOM_OUT"

_ANCHOR_SCHEMA = {"type": "array", "minItems": 1, "maxItems": 2,
                  "items": {"type": "integer"}}
_SIDE_SCHEMA = {"type": "integer", "minimum": 1}
_CUBE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["anchor", "side"],
    "properties": {"anchor": _ANCHOR_SCHEMA, "side": _SIDE_SCHEMA},
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
                "dim": {"type": "integer", "enum": [1, 2]},
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
                "params": {"type": "object",
                           "additionalProperties": {"type": "number"}},
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

# structure of a family file; run order and bounds are checked in code
FAMILY_SCHEMA = {
    "type": "object",
    "required": ["format", "grid", "eta", "constant", "entries"],
    "properties": {
        "format": {"const": 1},
        "grid": CONFIG_SCHEMA["properties"]["grid"],
        "eta": {"type": "number"},
        # the one number that may be infinite
        "constant": {"anyOf": [{"type": "number", "minimum": 0},
                               {"enum": ["inf", math.inf]}]},
        # the exponent the coefficient audit re-averages with
        "meta": {"type": "object",
                 "properties": {"s": {"type": "number", "exclusiveMinimum": 0}}},
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
                    "coefficient": {"type": "number", "minimum": 0},
                    "flags": {"type": "array", "items": {"type": "string"}},
                    "witness": {
                        "type": "object",
                        "required": ["anchor", "side", "count", "runs"],
                        "properties": {
                            "anchor": _ANCHOR_SCHEMA,
                            "side": _SIDE_SCHEMA,
                            "count": {"type": "integer", "minimum": 0},
                            # checked as arrays by _witness_mask
                            "runs": {"type": "array"},
                        },
                    },
                },
            },
        },
    },
}


def _is_number(_, v) -> bool:
    """A finite float, or an int within the float range (Python compares
    the two exactly, and NaN with nothing)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# JSON reads NaN, Infinity and 1e400 as floats and any digit string as an
# int, so every number, integers too, must be finite and fit in a float (a
# bound such as "minimum" applies only to what the type checker calls a
# number).  JSON Schema counts 3.0 as an integer, but the grid, the seeds
# and the dilation are used as Python ints, so an integer field takes ints
# only
_StrictValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "number": _is_number,
        "integer": lambda c, v: isinstance(v, int) and _is_number(c, v)}))
# built once: jsonschema.validate re-checks the schema itself on every call,
# which costs ten times the validation of a family file and nearly all of
# a config load
_FAMILY_VALIDATOR = _StrictValidator(FAMILY_SCHEMA)
_CONFIG_VALIDATOR = _StrictValidator(CONFIG_SCHEMA)


# ---------------------------------------------------------------------------
# configuration plumbing

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _validated(cfg, f"config {path}")


def _validated(cfg: dict, what: str) -> dict:
    """``cfg`` if it passes the config schema; otherwise the ConfigError of
    the error jsonschema.validate would raise, naming ``what``.  An input
    read from ``input.path`` takes none of the fields of a generated one,
    which it would silently ignore."""
    exc = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at {where}: {exc.message}") from exc
    section = cfg.get("input", {})
    for key in ("seed", "kind", "amplitude", "support"):
        if key in section and "path" in section:
            raise ConfigError(f"{what} invalid at input/{key}: the input is read "
                              f"from input/path, which takes no {key}")
    return cfg


def _seeded(cfg: dict, section: str, seed: int | None) -> dict:
    """``cfg`` with ``--seed``, where given, as the seed of ``section``,
    checked against the schema as the file was."""
    if seed is None:
        return cfg
    cfg.setdefault(section, {})["seed"] = seed
    return _validated(cfg, f"--seed {seed}: config")


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


def _input_from(cfg: dict, grid: Grid) -> GridFunction:
    """The configured input, generated or loaded.  A grid whose real input
    alone would not fit in physical memory is refused before anything is
    generated or read (a file of the grid's shape holds at least that)."""
    section = cfg.get("input", {})
    _refuse_beyond_memory(
        f"the input on a {grid.dim}D grid with {grid.cells_per_side} cells per side",
        grid.n_cells * 8)
    if "path" in section:
        f = load_input(section["path"], grid)
        what = f"input {section['path']}"
    else:
        support = _cube_from(section["support"], grid) if "support" in section else None
        kind, amplitude = section.get("kind", "random"), section.get("amplitude", 1.0)
        f = make_input(grid, kind, seed=section.get("seed", 0), support=support,
                       amplitude=amplitude)
        what = f"input (kind {kind}, amplitude {amplitude:g})"
    _refuse_overflowing_input(f, cfg, what)
    return f


def _refuse_overflowing_input(f: GridFunction, cfg: dict, what: str) -> None:
    """Raise ConfigError when max |f| is so large that a number the run
    computes could overflow.

    Every catalog kernel has ``|K(x, y)| <= 2 / |x - y|**dim``, so on the
    lattice ``|K(k h)| h**dim <= 2``.  With m = max |f| and n cells per
    side, ``M = 2 m (2n)**(3 dim)`` then bounds |T f|, every sum of the
    verifier's FFT over ``(2n)**dim`` points, and every value of the
    sparse operator.  M, and the sum of ``M**q h**dim`` over the cells for
    each exponent q the run raises values to (the average exponent
    ``s``, ``verify.ratio_r`` and ``verify.ratio_p``), must stay finite.
    """
    m = float(np.abs(f.values).max())
    if m == 0.0:
        return
    grid = f.grid
    s = cfg.get("pipeline", {}).get("s", 1.0)
    vcfg = cfg.get("verify", {})
    exponents = (s, vcfg.get("ratio_r", 1.0), vcfg.get("ratio_p", 2.0))
    top = math.log(sys.float_info.max)
    grow = math.log(2.0) + 3 * grid.dim * math.log(2 * grid.cells_per_side)
    room = top - math.log(grid.n_cells) - math.log(max(grid.cell_measure, 1.0))
    largest = min(top, *(room / q for q in exponents)) - grow
    if math.log(m) > largest:
        raise ConfigError(
            f"{what} has max |f| = {m:.3g}, more than {math.exp(largest):.3g}, the "
            f"largest whose transform, norms and power averages stay finite on "
            f"a {grid.dim}D grid with {grid.cells_per_side} cells per side at "
            f"s = {s:g}, verify.ratio_r = {exponents[1]:g} and verify.ratio_p = "
            f"{exponents[2]:g}")


def _pipeline_from(cfg: dict) -> PipelineConfig:
    return PipelineConfig(**cfg.get("pipeline", {}))


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


def _write_outputs(args, out: str, cfg: dict, timings: dict,
                   encode: Callable[[], dict[str, bytes]]) -> None:
    """Write a subcommand's data files, ``encode()`` by name, timing the
    encoding and writing as ``write_s``; then the manifest: the single file
    with a timestamp, holding the sha256 of each data file."""
    with _timed(timings, "write_s"):
        files = {name: _write_file(os.path.join(out, name), blob)
                 for name, blob in encode().items()}
    _write_file(os.path.join(out, "manifest.json"), _json_bytes({
        "command": args.command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "seed_override": getattr(args, "seed", None),
        "timings": timings,
        "files": files,
    }))


def _json_number(x) -> str:
    """``x`` as ``_json_bytes`` writes it: an int by its digits, a finite
    float by its repr, a non-finite one as the name ``_json_safe`` quotes
    (numpy scalars as the Python ones, whose repr numpy 2 does not share)."""
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return float.__repr__(v) if math.isfinite(v) else json.dumps(repr(v))
    return str(int(x))


def _entry_template(dim: int) -> str:
    """One entry of ``family.json``, laid out by the ``json`` module as
    ``_json_bytes`` lays it out in the entry list: ``%s`` for the rendered
    coefficient, flags and runs, ``%d`` for every other field."""
    ints = ["%d"] * dim
    entry = {"anchor": ints, "side": "%d", "base_anchor": ints, "base_side": "%d",
             "depth": "%d", "coefficient": "%s", "flags": "%s",
             "witness": {"anchor": ints, "side": "%d", "count": "%d", "runs": "%s"}}
    text = json.dumps(entry, sort_keys=True, indent=2)
    return textwrap.indent(text, "    ").replace('"%d"', "%d").replace('"%s"', "%s")


# one item of an entry's "runs" list, laid out as ``_json_bytes`` lays it out
_RUN = "\n          [\n            %d,\n            %d\n          ]"


def _entries_json(entries: list[SparseEntry], template: str) -> bytes:
    """The entries in ``family.json``'s layout, joined by ``,\\n``.  The
    witness runs of all of them come from one pass over their concatenated
    row-major masks: a run starts where the mask changes or an entry
    begins, and the runs of set cells are kept."""
    masks = [e.witness.mask.ravel() for e in entries]
    offsets = np.cumsum([0] + [m.size for m in masks])
    flat = np.concatenate(masks)
    begins = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=begins[1:])
    begins[offsets[:-1]] = True
    starts = np.flatnonzero(begins)
    lengths = np.diff(starts, append=flat.size)
    kept = flat[starts]
    starts, lengths = starts[kept], lengths[kept]
    owner = np.searchsorted(offsets, starts, side="right") - 1
    pairs = np.stack([starts - offsets[owner], lengths], axis=1).ravel().tolist()
    first = np.searchsorted(owner, np.arange(len(entries) + 1)).tolist()
    counts = np.add.reduceat(flat, offsets[:-1], dtype=np.int64).tolist()
    parts = []
    for e, count, lo, hi in zip(entries, counts, first, first[1:]):
        runs = ("[" + (_RUN + ",") * (hi - lo - 1) + _RUN + "\n        ]"
                ) % tuple(pairs[2 * lo:2 * hi]) if hi > lo else "[]"
        flags = ("[" + ",".join("\n        " + json.dumps(f) for f in e.flags)
                 + "\n      ]") if e.flags else "[]"
        parts.append(template % (
            *e.cube.anchor, *e.base_cube.anchor, e.base_cube.side,
            _json_number(e.coefficient), e.depth, flags, e.cube.side,
            *e.witness.box.anchor, count, runs, e.witness.box.side))
    return ",\n".join(parts).encode()


def family_to_json(family: SparseFamily) -> bytes:
    """The bytes of ``family.json``: what ``_json_bytes`` writes for the
    family's document, rendered from the witness masks as arrays.  The
    entries go in chunks of at most ``_SLAB_CELLS`` witness cells, or one
    entry."""
    g = family.grid
    head = _json_bytes({
        "format": 1,
        "grid": {"dim": g.dim, "cells_per_side": g.cells_per_side,
                 "phys_side": g.phys_side},
        "eta": family.eta,
        "constant": family.constant,
        "meta": family.meta,
        "entries": [],
    })
    if not family.entries:
        return head
    template = _entry_template(g.dim)
    chunks, chunk, cells = [], [], 0
    for e in family.entries:
        if chunk and cells + e.witness.mask.size > _SLAB_CELLS:
            chunks.append(_entries_json(chunk, template))
            chunk, cells = [], 0
        chunk.append(e)
        cells += e.witness.mask.size
    chunks.append(_entries_json(chunk, template))
    # only "constant" sorts before "entries", and a JSON string holds no
    # raw newline, so the first such line is the top-level key
    before, after = head.split(b'\n  "entries": []', 1)
    return b"".join((before, b'\n  "entries": [\n', b",\n".join(chunks),
                     b"\n  ]", after))


def _witness_mask(runs: list, cells: int, where: str) -> np.ndarray:
    """Flat witness mask from row-major (start, length) runs, which must be
    pairs of ints, non-empty, inside the box, sorted and disjoint; the
    first run that is not is named."""
    for j, run in enumerate(runs):
        if not (type(run) is list and len(run) == 2
                and type(run[0]) is int and type(run[1]) is int):
            raise ConfigError(f"{where}: witness run {j} is not a pair of integers")
    try:
        start, length = np.asarray(runs, dtype=np.int64).reshape(-1, 2).T
    except OverflowError as exc:
        raise ConfigError(f"{where}: a witness run holds an integer beyond the "
                          f"64-bit range") from exc
    # cells - length and start + length can wrap only for an empty run or
    # one outside the box; the first bad run is named, and every run before
    # it is neither, so no wrapped value decides
    empty = length < 1
    outside = (start < 0) | (start > cells - length)
    end = start + length
    unsorted = np.zeros_like(empty)
    np.less(start[1:], end[:-1], out=unsorted[1:])
    bad = empty | outside | unsorted
    if bad.any():
        i = int(bad.argmax())
        run = f"({start[i]}, {length[i]})"
        if empty[i]:
            raise ConfigError(f"{where}: empty witness run {run}")
        if outside[i]:
            raise ConfigError(f"{where}: witness run {run} lies outside its "
                              f"{cells}-cell box")
        raise ConfigError(f"{where}: witness run {run} is unsorted or overlaps "
                          f"the run before it")
    # the runs are disjoint, so the running sum, taken in place, is 0 or 1
    step = np.zeros(cells + 1, dtype=np.int8)
    step[start] = 1
    step[end] -= 1
    return np.cumsum(step, dtype=np.int8, out=step)[:-1].view(bool)


def family_from_dict(d: dict) -> SparseFamily:
    """Family from its JSON document; ConfigError on any malformed field."""
    try:
        _FAMILY_VALIDATOR.validate(d)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"family invalid at {where}: {exc.message}") from exc
    grid = _grid_from(d)
    boxes = [_cube_from(e["witness"], grid) for e in d["entries"]]
    _refuse_beyond_memory(f"the witness masks of {len(boxes)} entries",
                          sum(box.cell_count for box in boxes))
    entries = []
    for i, (e, box) in enumerate(zip(d["entries"], boxes)):
        w = e["witness"]
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


@contextlib.contextmanager
def _timed(timings: dict, key: str):
    """Record the wall time of the block under ``timings[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = time.perf_counter() - t0


def _verification_report(kernel, f, family, cfg) -> tuple[dict, dict]:
    """The verification report and the time of each of its checks."""
    vcfg = cfg.get("verify", {})
    tol = vcfg.get("tol", 1e-10)
    r = vcfg.get("ratio_r", 1.0)
    p = vcfg.get("ratio_p", 2.0)
    # the builder's share for this config, not the one the family states
    eta = _pipeline_from(cfg).eta(family.grid.dim)
    timings = {}
    with _timed(timings, "sparsity_s"):
        sparsity = check_sparsity(family, eta)
    # the stored coefficients, painted once for the domination check and,
    # where the norm ratio's averages equal them, for its operator
    with _timed(timings, "domination_s"):
        stack = _paint_coefficients(family, [e.coefficient for e in family.entries])
        domination = check_domination(kernel, f, family, tol=tol, _stack=stack)
    # each entry's average is taken once per exponent: the audit's at the
    # family's s, and the norm ratio's at r only where r is another
    s = _build_exponent(family)
    with _timed(timings, "audit_s"):
        averages = _entry_averages(family, f, s)
        audit = _coefficient_gap(family, averages)
    with _timed(timings, "lp_ratio_s"):
        if r != s:
            averages = _entry_averages(family, f, r)
        try:
            ratio = _norm_ratio(family, f, averages, p, stack)
        except UndefinedRatioError:
            ratio = None
    passed = sparsity.passed and domination.passed and audit <= 1e-9
    return {
        "passed": passed,
        "sparsity": asdict(sparsity),
        "domination": asdict(domination),
        "coefficient_audit_max_dev": audit,
        "lp_ratio": {"r": r, "p": p, "value": ratio},
    }, timings


def _run_once(cfg: dict):
    grid = _grid_from(cfg)
    kernel = _kernel_from(cfg, grid)
    f = _input_from(cfg, grid)
    timings = {}
    with _timed(timings, "build_s"):
        result = build_sparse_domination(kernel, f, _pipeline_from(cfg))
    with _timed(timings, "verify_s"):
        report, checks = _verification_report(kernel, f, result.family, cfg)
    return result, report, {**timings, **checks}


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
    cfg = _seeded(load_config(args.config), "input", args.seed)
    out = _out_dir(args)
    result, report, timings = _run_once(cfg)
    family = result.family
    _write_outputs(args, out, cfg, timings, lambda: {
        "family.json": family_to_json(family),
        "family.txt": family_to_text(family).encode(),
        "report.json": _json_bytes({**report, "ledger": asdict(result.ledger)}),
    })
    print(f"entries={len(family.entries)} constant={family.constant:.10g} "
          f"eta={family.eta:.6g}")
    _print_report(report)
    print(f"wrote {out}/family.json, family.txt, report.json, manifest.json")
    return 0 if report["passed"] else 1


def _cmd_verify(args) -> int:
    cfg = _seeded(load_config(args.config), "input", args.seed)
    out = _out_dir(args)
    family_path = args.family or os.path.join(out, "family.json")
    try:
        with open(family_path) as fh:
            family = family_from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read family {family_path}: {exc}") from exc
    grid = _grid_from(cfg)
    if family.grid != grid:
        raise ConfigError("family grid does not match the configuration grid")
    kernel = _kernel_from(cfg, grid)
    f = _input_from(cfg, grid)
    report, timings = _verification_report(kernel, f, family, cfg)
    _write_outputs(args, out, cfg, timings,
                   lambda: {"verify_report.json": _json_bytes(report)})
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
        "hormander": {"r": r, **asdict(horm)},
    }
    _write_outputs(args, out, cfg, {"stats_s": time.perf_counter() - t0},
                   lambda: {"kernel_stats.json": _json_bytes(stats)})
    div = dini and dini["divergent"]
    dini_msg = "none" if dini is None else (
        "divergent" if div else f"{dini['value']:.6g}")
    print(f"kernel={kernel.name} modulus integral={dini_msg} "
          f"annulus variation={horm.value:.6g} (tail {horm.tail:.3e})")
    return 0


def _cmd_t1_probe(args) -> int:
    cfg = _seeded(load_config(args.config), "probe", args.seed)
    out = _out_dir(args)
    grid = _grid_from(cfg)
    kernel = _kernel_from(cfg, grid)
    pcfg = cfg.get("probe", {})
    cube = _cube_from(pcfg["cube"], grid) if "cube" in pcfg else default_support(grid)
    seed = pcfg.get("seed", 0)
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
    _write_outputs(args, out, cfg, {}, lambda: {"t1_probe.json": _json_bytes(doc)})
    print(f"testing-condition probe: max average {probe.value:.6g} "
          f"over {len(probe.samples)} subsets")
    return 0


# the config field each sweep axis sets
_AXIS_FIELDS = {"N": ("grid", "cells_per_side"), "alpha": ("pipeline", "alpha"),
                "s": ("pipeline", "s"), "max_depth": ("pipeline", "max_depth"),
                "seed": ("input", "seed")}


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    """A copy of ``cfg`` with the axis's field set to ``value``, checked
    against the schema as the file was."""
    cfg = json.loads(json.dumps(cfg))
    section, key = _AXIS_FIELDS[axis]
    cfg.setdefault(section, {})[key] = value
    return _validated(cfg, f"sweep value {value} of {axis}: config")


def _sweep_row(cfg: dict, axis: str, value) -> dict:
    """One point of a sweep, as a row of ``sweep.csv`` in column order."""
    _, report, _ = _run_once(cfg)
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
    cfg = _seeded(load_config(args.config), "input", args.seed)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    # every point is checked before any runs; they run one after another in
    # this process, so each passes the memory preflight on its own
    points = [_apply_axis(cfg, axis, v) for v in values]
    out = _out_dir(args)
    t0 = time.perf_counter()
    rows = [_sweep_row(c, axis, v) for c, v in zip(points, values)]
    timings = {"sweep_s": time.perf_counter() - t0}
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=rows[0], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_outputs(args, out, cfg, timings, lambda: {
        "sweep.csv": buf.getvalue().encode(),
        "sweep.json": _json_bytes({"axis": axis, "rows": rows}),
    })
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

    p = sub.add_parser("sweep", help="run the pipeline across one parameter, "
                                      "one point after another")
    common(p)
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
    if isinstance(exc, (SparsedomError, OSError, MemoryError)):
        return 2
    raise exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  mapped to documented exit codes
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
