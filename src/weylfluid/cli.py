"""Command-line harness.

Subcommands:

* ``verify``   run the configured suites and write a report
* ``frame``    solve the preferred-frame log factor and export its grid as CSV
* ``geodesic`` integrate a worldline and export it as CSV
* ``report``   re-render a JSON report as a plain table

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error, 3 runtime computation or I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .catalog import build, null_tangent
from .config import load_config
from .errors import ConfigError, WeylFluidError
from .harness import SuiteRuntimeError, run_suite
from .report import emit_report, parse_report, render_table
from .worldlines import integrate_autoparallel, integrate_null_geodesic
from .fluid import fluid_connection

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _common_flags(sub):
    sub.add_argument("--config", default=None, help="configuration file")
    sub.add_argument("--seed", type=int, default=None, help="override the run seed")
    sub.add_argument("--out", default=None, help="override the output path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="weylfluid",
        description="construct fluid-sourced Weyl geometries and verify their identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _common_flags(p_verify)
    p_verify.add_argument("--format", dest="fmt", choices=("json", "table"), default=None)
    p_verify.add_argument("--suite", action="append", default=None,
                          help="suite to run (repeatable); default: all from config")

    p_frame = sub.add_parser("frame", help="solve the preferred gauge factor, export CSV")
    _common_flags(p_frame)

    p_geo = sub.add_parser("geodesic", help="integrate a worldline, export CSV")
    _common_flags(p_geo)

    p_rep = sub.add_parser("report", help="re-render a JSON report as a table")
    p_rep.add_argument("path", help="report file to render")
    return parser


def _load(args, overrides=None):
    merged = {"seed": args.seed, "out": args.out}
    merged.update(overrides or {})
    return load_config(args.config, merged)


def _cmd_verify(args) -> int:
    config = _load(args, {"suite": args.suite, "format": args.fmt})
    try:
        report = run_suite(config)
    except SuiteRuntimeError as exc:
        try:
            emit_report(exc.report, config.out, config.fmt)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    try:
        emit_report(report, config.out, config.fmt)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    print(render_table(report), end="")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_frame(args) -> int:
    config = _load(args)
    if args.out is None and config.out.endswith(".json"):
        config.out = "frame_grid.csv"
    preset = build(config.preset_name, config.parameters, config.seed)
    factor = preset.solve_frame(config.engine, config.tols.frame)
    factor.write_csv(config.out)
    counts = "x".join(str(len(ax)) for ax in factor.grid_axes)
    estimate = " ".join(f"{e / config.tols.frame:.2g}" for e in factor.estimate)
    print(f"wrote {config.out}: {counts} = {factor.grid_values.size} grid values, "
          f"estimate/tol {estimate}")
    return EXIT_PASS


def _chart_vector(geo, key, size, default):
    """The ``[geodesic]`` vector ``key`` as ``size`` finite numbers (not all
    zero, but for ``start``), or ``default`` when the key is not set."""
    if key not in geo:
        return default
    try:
        vec = np.array([float(v) for v in geo[key].split()])
    except ValueError as exc:
        raise ConfigError(f"key {key!r} must hold numbers: {exc}") from exc
    if vec.size != size or not np.all(np.isfinite(vec)):
        raise ConfigError(f"key {key!r} must hold {size} finite numbers, got {geo[key]!r}")
    if key != "start" and not np.any(vec):
        raise ConfigError(f"key {key!r} must not be the zero vector")
    return vec


def _cmd_geodesic(args) -> int:
    config = _load(args)
    if args.out is None and config.out.endswith(".json"):
        config.out = "worldline.csv"
    preset = build(config.preset_name, config.parameters, config.seed)
    geo = config.geodesic
    dim = preset.chart.dim
    s_max = geo.get("s_max", preset.meta.ray_s_max)
    lo, hi = preset.chart.bounds(preset.chart.margin + 0.15)
    x0 = _chart_vector(geo, "start", dim, 0.5 * (lo + hi))
    if not preset.chart.contains(x0)[0]:
        raise ConfigError(f"key 'start' must lie in the chart box, got {geo['start']!r}")
    if geo.get("kind", "null") == "null":
        direction = _chart_vector(geo, "direction", dim - 1, np.eye(dim - 1)[0])
        k0 = null_tangent(preset.g, x0, direction)
        path = integrate_null_geodesic(preset.g, x0, k0, s_max, config.engine)
    else:
        bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, config.engine)
        v0 = _chart_vector(geo, "tangent", dim, None)
        if v0 is None:
            v0 = preset.state.n(x0[None, :])[0]
        path = integrate_autoparallel(bundle.gamma, x0, v0, s_max)
    path.to_csv(config.out)
    print(f"wrote {config.out}: {len(path.s)} nodes, exited={path.exited}")
    return EXIT_PASS


def _cmd_report(args) -> int:
    with open(args.path) as fh:
        report = parse_report(fh.read())
    print(render_table(report), end="")
    return EXIT_PASS


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "frame":
            return _cmd_frame(args)
        if args.command == "geodesic":
            return _cmd_geodesic(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (WeylFluidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
