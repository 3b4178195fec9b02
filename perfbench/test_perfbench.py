"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

import run
import spans
import workloads

CLI = workloads.import_program(run.ROOT)
EXACT_COUNTS = ("operators.box_queries", "operators.kernel_evals",
                "grid.count_in_calls", "sparse.nodes")
SMALL = {"hilbert1d-run": 64, "riesz2d-run": 16, "dini1d-audit": 32}


def _small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name],
                               cells_per_side=SMALL[name], n_inputs=2)


def _traced_counts(wl, work) -> dict:
    items = workloads.write_inputs(wl, 5, work)
    runner = run.Runner(CLI, wl, spans.Tracer())
    for item in items:
        runner.op(item)
        runner.op(item, traced=True)
    assert runner.failures == []
    assert runner.attempted == 2 * len(items)
    return {name: runner.median(name) for name in EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_between_traced_runs(name, tmp_path):
    wl = _small(name)
    first = _traced_counts(wl, tmp_path / "a")
    second = _traced_counts(wl, tmp_path / "b")
    assert first == second
    assert all(v > 0 for v in first.values()), first


def _bindings() -> dict:
    out = {}
    for mod in spans._package_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for meth, fn in vars(val).items():
                    out[(mod.__name__, attr, meth)] = fn
    return out


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
    after = _bindings()
    assert "cli.main" in tracer.installed
    assert ("sparsedom.cli", "check_domination") in changed
    assert ("sparsedom.verify", "check_domination") in changed
    assert ("sparsedom.operators", "RestrictedTransform", "apply_box") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__perfbench_span__") for v in after.values())


def test_absent_span_gives_absent_metric_and_idle_span_gives_zero():
    snap = spans.Tracer().take()
    installed = {"operators.apply_restricted", "verify.check_sparsity"}
    got = spans.layer_metrics(snap, installed)
    assert got == {"operators.apply_restricted_s": 0, "verify.check_sparsity_s": 0}


def test_failing_op_is_counted_not_dropped(tmp_path):
    wl = _small("hilbert1d-run")
    item = workloads.write_inputs(wl, 0, tmp_path)[0]
    bad = dataclasses.replace(item, npy=str(tmp_path / "missing.npy"))
    (tmp_path / "bad.json").write_text(
        open(item.config).read().replace(item.npy, bad.npy))
    bad = dataclasses.replace(bad, config=str(tmp_path / "bad.json"))
    runner = run.Runner(CLI, wl)
    runner.op(bad)
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "run exited 2" in runner.failures[0]
    assert runner.median("op_s") is None


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_follow_the_seed(name):
    wl = _small(name)
    a = workloads.make_values(wl, 3, 0)
    assert np.array_equal(a, workloads.make_values(wl, 3, 0))
    assert not np.array_equal(a, workloads.make_values(wl, 4, 0))
    assert not np.array_equal(a, workloads.make_values(wl, 3, 1))
    box = a[wl.support]
    assert np.count_nonzero(a) == np.count_nonzero(box)
    if wl.kind == "spikes":
        assert np.count_nonzero(box) == box.size // 4
    else:
        assert box.min() >= 0.25 and box.max() < 1.25


def test_table_bytes_computed():
    assert workloads.WORKLOADS["riesz2d-run"].table_bytes_computed == 64**2 * 65**2 * 8
    assert workloads.WORKLOADS["hilbert1d-run"].table_bytes_computed == 1024 * 1025 * 8


def test_every_per_layer_metric_is_produced(tmp_path):
    spec_names = {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    made = set(spans.LAYER_METRICS) | {
        "sparse.nodes", "sparse.edges", "sparse.entries", "sparse.max_depth",
        "cli.family_json_bytes", "trace.overhead_frac", "trace.uncovered_frac"}
    assert spec_names == made
    wl = _small("dini1d-audit")
    items = workloads.write_inputs(wl, 1, tmp_path)
    runner = run.Runner(CLI, wl, spans.Tracer())
    runner.op(items[0], traced=True)
    assert set(spans.LAYER_METRICS) <= set(runner.samples)
    assert sys.modules["sparsedom.cli"].main is CLI.main


def test_cli_main_does_not_count_as_covering_the_op(tmp_path):
    wl = _small("hilbert1d-run")
    item = workloads.write_inputs(wl, 2, tmp_path)[0]
    tracer = spans.Tracer()
    with tracer:
        workloads.run_op(CLI, wl, item)
    snap = tracer.take()
    assert 0 < snap["covered_s"] < snap["total_s"]["cli.main"]
