"""Outside-in benchmark of sparsedom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sparsedom is imported from
``src/`` there and nowhere else.  One process runs one workload: it writes
the workload's inputs from ``--seed``, issues checked ops in a closed loop
(the next op starts only after the previous one finished) for ``--seconds``
seconds, and prints one JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, measured on
ops traced by ``spans.Tracer``, each paired with an untraced op on the same
input.  The line before the result is a JSON object with the machine, the
input sizes and the op counts.

Every run uses a fixed list of inputs derived from the seed; ops cycle
through it.  A timing is the median over inputs of the median over that
input's repeats, so inputs weigh the same whatever the op count.  The first
op is a warm-up: it is checked and counted but not timed.  ``setup_s`` is
the median over several fresh processes of the time from process start
until the first op can be issued (import, writing the inputs, the first
``cli.load_config``).  Those processes start one at a time between ops,
spread over the run, so that a change of the host's speed during the run
reaches ``setup_s`` as it reaches ``op_s``; the loop runs ops for
``--seconds`` seconds besides the time they take.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_PROBES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv, default_seconds: float):
    p = argparse.ArgumentParser(description="sparsedom outside-in benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _set_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on; before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _median_of_inputs(per_input: dict) -> float:
    return statistics.median(statistics.median(v) for v in per_input.values() if v)


def _tail(values: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    vals = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        beyond = int(len(vals) * (1 - p / 100) + 1e-9)
        if beyond >= 10:
            return {"percentile": p, "op_s": vals[len(vals) - beyond - 1]}
    return None


def _cache_bytes():
    """Size of the highest-level CPU cache, or None where sysfs lacks it."""
    best = (0, None)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in base.glob("index*"):
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
            mult = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
            best = max(best, (level, int(size.rstrip("KMG")) * mult))
    except (OSError, ValueError):
        return None
    return best[1]


def _machine(threads: int) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": _cache_bytes(),
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "machine": platform.machine(),
    }


def _setup_probe(args, wl) -> int:
    """Child mode: set up as a run does, report readiness, exit."""
    import workloads
    cli = workloads.import_program(ROOT)
    items = workloads.write_inputs(wl, args.seed, Path(args.setup_probe))
    cli.load_config(items[0].config)
    print("ready", flush=True)
    return 0


def _time_setup(args, k: int) -> float:
    """Spawn-to-ready time of a fresh process doing the run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(WORK / f"probe{k}")]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code} after {line!r}")
    return elapsed


class Runner:
    """Issues checked ops and keeps every per-input sample."""

    def __init__(self, cli, wl, tracer=None):
        self.cli, self.wl, self.tracer = cli, wl, tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, dict] = {}
        self.samples: dict[str, dict[int, list]] = {}

    def _add(self, key: str, index: int, value) -> None:
        self.samples.setdefault(key, {}).setdefault(index, []).append(value)

    def op(self, item, traced: bool = False, timed: bool = True):
        import workloads
        self.attempted += 1
        try:
            if traced:
                with self.tracer:
                    res = workloads.run_op(self.cli, self.wl, item)
                snap = self.tracer.take()
            else:
                res = workloads.run_op(self.cli, self.wl, item)
            seen = self.digests.setdefault(item.index, res.digests)
            if seen != res.digests:
                raise workloads.OpFailure(
                    f"data files of input {item.index} differ from an earlier repeat")
        except Exception as exc:  # noqa: BLE001  every failure is counted and shown
            if traced:
                self.tracer.take()
            msg = (str(exc) if isinstance(exc, workloads.OpFailure)
                   else traceback.format_exc())
            self.failures.append(f"op {self.attempted} input {item.index}: {msg}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)
            return
        if not timed:
            return
        i = item.index
        if traced:
            self._add("traced_op_s", i, res.seconds)
            self._add("uncovered", i, max(0.0, res.seconds - snap["covered_s"]) / res.seconds)
            import spans
            for name, value in spans.layer_metrics(snap, self.tracer.installed).items():
                self._add(name, i, value)
            ledger = res.report.get("ledger", {})
            for name, key in (("sparse.nodes", "n_nodes"), ("sparse.edges", "n_edges"),
                              ("sparse.max_depth", "max_depth_seen")):
                if key in ledger:
                    self._add(name, i, ledger[key])
            if "n_entries" in res.report.get("sparsity", {}):
                self._add("sparse.entries", i, res.report["sparsity"]["n_entries"])
            self._add("cli.family_json_bytes", i, res.family_json_bytes)
        else:
            self._add("op_s", i, res.seconds)
            self._add("build_s", i, res.build_s)
            self._add("verify_s", i, res.verify_s)
            self._add("constant_c", i, res.constant)

    def median(self, key: str):
        per_input = self.samples.get(key)
        return _median_of_inputs(per_input) if per_input else None


def main(argv=None) -> int:
    t_start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec["run_seconds"])
    threads = _set_blas_threads()
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args, wl)
    if not (ROOT / "src" / "sparsedom" / "__init__.py").is_file():
        print(f"error: no sparsedom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    cli = workloads.import_program(ROOT)
    items = workloads.write_inputs(wl, args.seed, WORK / "run")
    cli.load_config(items[0].config)
    own_setup_s = time.perf_counter() - t_start

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    runner = Runner(cli, wl, tracer)
    t0 = time.perf_counter()
    runner.op(items[0], timed=False)
    warmup_s = time.perf_counter() - t0

    # Closed loop.  Untraced: every input at least once, one repeat, and a
    # set-up probe whenever the run is another 1/SETUP_PROBES of the way on;
    # the deadline moves on by each probe's time.  Traced: an untraced and a
    # traced op on every input at least once; the pair's order alternates so
    # that neither side always follows the other.
    setup: list[float] = []
    probes = 0 if args.trace else SETUP_PROBES
    min_ops = len(items) if args.trace else len(items) + 1
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    n = 0
    while n < min_ops or time.perf_counter() < deadline:
        item = items[n % len(items)]
        if args.trace:
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                runner.op(item, traced=traced)
        else:
            runner.op(item)
        n += 1
        if len(setup) < probes and (time.perf_counter() - loop_start
                                    >= len(setup) * args.seconds / probes):
            t0 = time.perf_counter()
            setup.append(_time_setup(args, len(setup)))
            deadline += time.perf_counter() - t0
    while len(setup) < probes:
        setup.append(_time_setup(args, len(setup)))
    loop_s = time.perf_counter() - loop_start

    if args.trace:
        untraced = runner.median("op_s")
        values = {name: runner.median(name) for name in runner.samples
                  if name not in ("op_s", "build_s", "verify_s", "constant_c",
                                  "traced_op_s", "uncovered")}
        if untraced and runner.samples.get("traced_op_s"):
            values["trace.overhead_frac"] = runner.median("traced_op_s") / untraced - 1
            values["trace.uncovered_frac"] = runner.median("uncovered")
        wanted = spec["per_layer"]
    else:
        values = {name: runner.median(name)
                  for name in ("op_s", "build_s", "verify_s", "constant_c")}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}

    op_times = [t for v in runner.samples.get("op_s", {}).values() for t in v]
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(threads),
        "inputs": {"count": len(items), "kind": wl.kind,
                   "cells_per_side": wl.cells_per_side, "dim": wl.dim,
                   "table_bytes_computed": wl.table_bytes_computed},
        "ops_attempted": runner.attempted,
        "ops_failed": len(runner.failures),
        "ops_timed": len(op_times),
        "op_s_per_input": {i: v for i, v in sorted(runner.samples.get("op_s", {}).items())},
        "op_s_tail": _tail(op_times),
        "warmup_s": warmup_s,
        "loop_s": loop_s,
        "setup_samples_s": setup,
        "own_setup_s": own_setup_s,
        "failures": runner.failures,
    }
    print(json.dumps(detail))
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        print(f"metrics absent: {missing}", file=sys.stderr)
    # A per-layer metric whose span the program no longer has is absent by
    # design; every end-to-end metric must be measured.
    correct = not runner.failures and (bool(args.trace) or not missing)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
