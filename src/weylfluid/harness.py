"""Batch runner: builds the configured preset, executes the requested
suites, and assembles the verification report."""

from __future__ import annotations

import time

from .catalog import build
from .config import SuiteConfig
from .report import VerificationReport
from .suites import SUITES, CheckRecord, SuiteContext


class SuiteRuntimeError(Exception):
    """Wraps a computation failure together with the partial report."""

    def __init__(self, message: str, report: VerificationReport):
        super().__init__(message)
        self.report = report


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute all requested suites for the configured preset.

    Deterministic for a fixed config and seed.  On a computation error the
    partial report (with an ``error:`` record appended) rides along on the
    raised :class:`SuiteRuntimeError`.
    """
    started = time.perf_counter()
    checks = []
    report = VerificationReport(
        suite=list(config.suites),
        spacetime=config.spacetime,
        fluid=config.fluid,
        settings=config.echo(),
        checks=checks,
    )
    try:
        preset = build(config.preset_name, config.parameters, config.seed)
        pts = preset.chart.sample_points(
            per_axis=config.grid_per_axis, extra=config.random_points, seed=config.seed)
        ctx = SuiteContext(
            preset=preset,
            engine=config.engine,
            pts=pts,
            tols=config.tols,
            seed=config.seed,
            weight_override=config.weight_override,
            seeded_factors=config.seeded_factors,
            rays=config.rays,
            nonmetricity_pairs=config.nonmetricity_pairs,
        )
        for name in config.suites:
            for record in SUITES[name](ctx):
                checks.append(
                    CheckRecord(f"{name}:{record.name}", record.anchor,
                                record.max_residual, record.tol, record.passed))
    except Exception as exc:
        # finite failing sentinel: the anchor carries the actual message
        checks.append(CheckRecord(
            "error", f"computation aborted: {exc}", 1.0, 0.0, False))
        if config.timing:
            report.runtime_seconds = time.perf_counter() - started
        raise SuiteRuntimeError(str(exc), report) from exc
    if config.timing:
        report.runtime_seconds = time.perf_counter() - started
    return report
