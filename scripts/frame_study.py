#!/usr/bin/env python3
"""Preferred-frame study: solve the incompressible-gauge factor on the
cosmology and sheared-chart presets, compare against closed forms where
available, and export the solved grids.

Usage:
    python scripts/frame_study.py [--outdir frame_out]

Each preset's memo grid is sized by the solver's error estimate to the
default frame tolerance; the counts it solved on and the per-axis
estimates it was sized by, in units of that tolerance, are printed.  Exits
1 when a preset's transport or divergence residual is above the frame
tolerance, or its gap to the closed form above the closed-form tolerance.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from weylfluid.catalog import build
from weylfluid.conformal import conformal_rescale, incompressibility_residual, transport_residual
from weylfluid.fluid import fluid_connection
from weylfluid.geometry import DerivativeEngine
from weylfluid.suites import Tolerances


def study(name: str, outdir: pathlib.Path, tols: Tolerances) -> bool:
    """Solve, print and export one preset's frame; whether it keeps every limit."""
    engine = DerivativeEngine()
    preset = build(name)
    meta = preset.meta

    t0 = time.perf_counter()
    factor = preset.solve_frame(engine, tols.frame)
    solve_s = time.perf_counter() - t0
    counts = "x".join(str(len(ax)) for ax in factor.grid_axes)
    estimate = "estimate/tol " + " ".join(f"{e / tols.frame:.2g}" for e in factor.estimate)

    pts = preset.chart.sample_points(5, 64, seed=0)
    transport = np.abs(transport_residual(factor, preset.g, preset.state.n, engine)(pts)).max()
    bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, engine)
    b2, s2 = conformal_rescale(bundle, preset.state, factor, engine)
    incomp = np.abs(incompressibility_residual(b2.g, s2.n, engine)(pts)).max()
    limits = [("transport", transport, tols.frame), ("divergence", incomp, tols.frame)]

    line = (f"{name:24s} {counts:10s} {estimate}  solve {solve_s:6.2f}s  "
            f"transport {transport:9.2e}  divergence {incomp:9.2e}")
    if meta.closed_frame is not None:
        closed = meta.closed_frame(meta.slice_values[0])
        err = np.abs(factor.grid_values.ravel() - closed.ln(factor.grid_points())).max()
        line += f"  vs closed form {err:9.2e}"
        limits.append(("closed-form gap", err, tols.frame_closed))
    over = [f"{what} above {limit:g}" for what, value, limit in limits if not value <= limit]
    print(line + "".join(f"  OVER: {o}" for o in over))
    factor.write_csv(outdir / f"{name}-frame.csv")
    return not over


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="frame_out")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    tols = Tolerances()
    kept = [study(name, outdir, tols)
            for name in ("flrw-comoving-dust", "flrw-power-dust", "minkowski-sheared")]
    return 0 if all(kept) else 1


if __name__ == "__main__":
    sys.exit(main())
