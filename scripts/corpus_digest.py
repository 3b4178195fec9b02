"""Digest of the data files written by ``sparsedom run`` over a fixed corpus.

A pure refactor must leave ``family.json``, ``family.txt`` and
``report.json`` byte-identical.  This script runs the corpus below in one
process through ``sparsedom.cli.main`` and prints one line per data file,
``<sha256>  <config>/<file>``, then the sha256 of those lines.  Run it on
both commits and compare the last line, or pass the expected final digest
and let the exit code say whether it matched:

    python3 scripts/corpus_digest.py
    python3 scripts/corpus_digest.py --expect SHA

Corpus: hilbert, holder, dini_stress and zero on a 1D grid with N = 128,
riesz2d and zero on a 2D grid with n = 16; every input kind; alpha 3 and
5; quantile mode and fixed mode with c = 1.5, a = 1.0; input seed 13.
Runs that exit 1 (a verification check failed) still write their data
files and are digested too.  Any other exit code, or a final digest other
than the one given with ``--expect``, makes the script exit 1.
The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsedom import cli  # noqa: E402
from sparsedom.inputs import INPUT_KINDS  # noqa: E402

GRIDS = [(1, 128, k) for k in ("hilbert", "holder", "dini_stress", "zero")] + [
    (2, 16, k) for k in ("riesz2d", "zero")]
MODES = {
    "quantile": {"mode": "quantile"},
    "fixed": {"mode": "fixed", "c_fixed": 1.5, "a_fixed": 1.0},
}
FILES = ("family.json", "family.txt", "report.json")


def corpus():
    for dim, n, kernel in GRIDS:
        for kind in INPUT_KINDS:
            for alpha in (3, 5):
                for mode, pipeline in MODES.items():
                    label = f"{kernel}-{dim}d-{n}-{kind}-a{alpha}-{mode}"
                    yield label, {
                        "grid": {"dim": dim, "cells_per_side": n},
                        "kernel": {"name": kernel},
                        "input": {"kind": kind, "seed": 13},
                        "pipeline": {"alpha": alpha, **pipeline},
                    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="SHA", default=None,
                        help="exit 1 unless the final digest equals SHA")
    args = parser.parse_args(argv)
    lines = []
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in corpus():
            run_dir = Path(tmp) / label
            run_dir.mkdir()
            cfg_path = run_dir / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["run", "--config", str(cfg_path),
                                 "--out", str(run_dir)])
            if code not in (0, 1):
                bad.append(f"{label}: exit {code}: {out.getvalue().strip()}")
                continue
            for name in FILES:
                digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                lines.append(f"{digest}  {label}/{name}")
    for line in lines:
        print(line)
    final = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    print(final)
    for line in bad:
        print(line, file=sys.stderr)
    if args.expect is not None and final != args.expect:
        print(f"digest {final} differs from the expected {args.expect}",
              file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
