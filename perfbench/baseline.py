"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1 2 3 [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, as the benchmark contract has it.  Seeds are the outer
loop and workloads the inner one, so a drift of the host's speed over the
set spreads over every workload's runs alike instead of shifting one
workload's median.  For every end-to-end metric the summary gives the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median ("spread"), next to the metric's bound.
One ``--trace 1`` run per workload on the first seed follows, for the
per-layer metrics.  The printed table lists every metric of every workload
with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list] = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(run_once(name, seed, 0))
            r = runs[name][-1]["result"]
            print(f"{name} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
    doc = {"seconds": spec["run_seconds"], "seeds": args.seeds,
           "order": "each seed runs every workload in turn",
           "machine": runs[names[0]][0]["detail"]["machine"], "workloads": {}}
    for name in names:
        doc["workloads"][name] = {"summary": summarise(runs[name], bounds),
                                  "runs": runs[name],
                                  "traced": run_once(name, args.seeds[0], 1)}

    for name, entry in doc["workloads"].items():
        print(f"\n{name}  (ops_attempted / ops_failed per run: "
              + ", ".join(f"{r['result']['attempted']}/{r['result']['failed']}"
                          for r in entry["runs"]) + ")")
        for metric, s in entry["summary"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:28s} {s['median']:>14.6g} {s['unit']:14s} "
                  f"spread {spread}  bound {s['bound']}")
        for metric, m in entry["traced"]["result"]["metrics"].items():
            print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(r["result"]["correct"] for e in doc["workloads"].values()
             for r in (*e["runs"], e["traced"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
