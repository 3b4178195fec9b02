"""Fuzzed configuration, family and input files.

Each case mutates one valid file of a 1D N = 32 run, real or complex: a
leaf replaced by a string, a bool, null, a 400-digit int, ``1e400`` or
NaN; a key dropped; the file truncated (and, for an ``.npy`` input, a
byte overwritten, a value made non-finite or the array recast).  No
mutation may end in a traceback: a file its reader rejects exits 2 with
one ``error:`` line, and exit 0 or 1 (or 3, a numeric failure) is only for
a file that still reads as valid.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsedom import Grid, SparsedomError, cli
from sparsedom.inputs import load_input

# JSON texts put in place of a leaf
LEAVES = ['"x"', "true", "null", "1" + "0" * 400, "1e400", "NaN"]
SENTINEL = "@leaf@"

CONFIG = {
    "grid": {"dim": 1, "cells_per_side": 32, "phys_side": 1.0},
    "kernel": {"name": "holder", "params": {"delta": 0.5, "ref_scale": 4.0}},
    "input": {"kind": "random", "seed": 7, "amplitude": 2.0,
              "support": {"anchor": [8], "side": 16}},
    "pipeline": {"alpha": 3, "s": 1.0, "mode": "quantile", "max_depth": 8},
    "verify": {"tol": 1e-10, "ratio_r": 1.0, "ratio_p": 2.0},
}

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(node, prefix=()):
    """Every (path, is_leaf) below a JSON document, keys and list items."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        path = prefix + (key,)
        yield path, not isinstance(child, (dict, list))
        yield from _paths(child, path)


@st.composite
def mutated(draw, text: str) -> str:
    """``text``, a JSON document, with one leaf replaced, one key dropped, or
    cut short."""
    doc = json.loads(text)
    how = draw(st.sampled_from(["leaf", "drop", "truncate"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    paths = [p for p, leaf in _paths(doc)
             if (leaf if how == "leaf" else isinstance(p[-1], str))]
    path = draw(st.sampled_from(paths))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if how == "drop":
        del node[path[-1]]
        return json.dumps(doc)
    node[path[-1]] = SENTINEL
    return json.dumps(doc).replace(f'"{SENTINEL}"', draw(st.sampled_from(LEAVES)))


def _reads(reader) -> bool:
    try:
        reader()
    except SparsedomError:
        return False
    return True


def _check(capsys, argv, valid: bool) -> None:
    """Run the command: no traceback; exit 2 with one error line, or, for a
    file its reader accepted, exit 0 or 1, or exit 3 with one error line
    (values near the float limit overflow the transform)."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 2 or valid, (code, err)
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and not err, (code, err)


@pytest.fixture(scope="module", params=["real", "complex"])
def run(request, tmp_path_factory):
    """A 1D N = 32 run on an ``.npy`` input: its config path, family text
    and input bytes."""
    d = tmp_path_factory.mktemp(request.param)
    g = np.random.default_rng(5)
    f = np.zeros(32)
    f[8:24] = g.random(16) + 0.25
    if request.param == "complex":
        f = f * np.exp(2j * np.pi * g.random(32))
    np.save(d / "f.npy", f)
    cfg = dict(CONFIG, input={"path": str(d / "f.npy")})
    (d / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(d / "cfg.json"), "--out", str(d)]) == 0
    return str(d / "cfg.json"), (d / "family.json").read_text(), (d / "f.npy").read_bytes()


@FUZZ
@given(data=st.data())
def test_fuzzed_config(tmp_path, capsys, data):
    text = data.draw(mutated(json.dumps(CONFIG)))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    command = data.draw(st.sampled_from(["run", "kernel-stats", "t1-probe"]))
    _check(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o")],
           _reads(lambda: cli.load_config(str(path))))


@FUZZ
@given(data=st.data())
def test_fuzzed_family(run, tmp_path, capsys, data):
    cfg, family, _ = run
    text = data.draw(mutated(family))
    path = tmp_path / "family.json"
    path.write_text(text)

    def read():
        try:
            cli.family_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise SparsedomError(str(exc)) from exc

    _check(capsys, ["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--family", str(path)], _reads(read))


@st.composite
def mutated_npy(draw, blob: bytes) -> bytes:
    """An ``.npy`` file cut short, with one byte overwritten, with one value
    made non-finite, or recast to another dtype."""
    how = draw(st.sampled_from(["truncate", "byte", "value", "dtype"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if how == "byte":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
    arr = np.load(io.BytesIO(blob))
    if how == "value":
        arr = arr.copy()
        arr[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        dtype = draw(st.sampled_from([bool, np.int64, np.float16, np.complex64,
                                      "<U4", object]))
        arr = (arr if np.dtype(dtype).kind in "cO" else arr.real).astype(dtype)
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


@FUZZ
@given(data=st.data())
def test_fuzzed_input(run, tmp_path, capsys, data):
    blob = run[2]
    path = tmp_path / "f.npy"
    path.write_bytes(data.draw(mutated_npy(blob)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CONFIG, input={"path": str(path)})))
    _check(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")],
           _reads(lambda: load_input(str(path), Grid(1, 32))))
