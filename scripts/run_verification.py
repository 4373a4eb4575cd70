#!/usr/bin/env python3
"""Sweep every catalog preset through the verification suites and collect
the reports.

Writes one JSON report per preset into ``reports/`` and prints a summary
line per preset, with its wall time.  Every preset runs every suite.

Reports are written with ``timing = off``, so two sweeps at one seed on one
machine give byte-identical files unless a residual moved: ``diff -r`` of the
``reports/`` of two source trees is a check that a change kept every report.

Usage:
    python scripts/run_verification.py [--seed N] [--outdir reports]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from weylfluid.catalog import PRESETS, verification_matrix
from weylfluid.config import SuiteConfig
from weylfluid.harness import run_suite
from weylfluid.report import emit_report

# every suite of weylfluid.suites.SUITES, in the order the reports list them
SWEEP_SUITES = ("connection", "fluid", "conservation", "conformal", "worldlines", "frame")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)

    overall = True
    t_start = time.perf_counter()
    for name in verification_matrix():
        entry = PRESETS[name]
        cfg = SuiteConfig(spacetime=entry.spacetime, fluid=entry.fluid, seed=args.seed,
                          suites=SWEEP_SUITES, timing=False)
        t0 = time.perf_counter()
        report = run_suite(cfg)
        emit_report(report, str(outdir / f"{name}.json"))
        worst = max((c.max_residual / c.tol if c.tol else 0.0) for c in report.checks)
        status = "PASS" if report.passed else "FAIL"
        overall = overall and report.passed
        print(f"{status}  {name:24s} {len(report.checks):3d} checks  "
              f"worst residual/tol {worst:9.2e}  {time.perf_counter() - t0:6.2f}s")
    print(f"\noverall: {'PASS' if overall else 'FAIL'} "
          f"in {time.perf_counter() - t_start:.1f}s; reports in {outdir}/")
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
