"""Planted defects: each check that reads the suite context's shared jet
fails when one defect is planted in the shared value or in the arithmetic
that a suite builds on it, so no check compares a shared value with
itself."""

import numpy as np
import pytest

from weylfluid import fluid, suites
from weylfluid.catalog import build
from weylfluid.geometry import DerivativeEngine


def _skew_connection(ctx, monkeypatch):
    # an antisymmetric part in the lower pair of the shared connection
    jet = ctx.jet
    skew = np.zeros_like(jet.Gamma)
    skew[:, 0, 1, 2], skew[:, 0, 2, 1] = 1e-3, -1e-3
    jet.__dict__["Gamma"] = jet.Gamma + skew


def _stale_covector(ctx, monkeypatch):
    # the shared covector moves after the connection was formed from it
    jet = ctx.jet
    jet.Gamma  # formed from the covector before it moves
    jet.__dict__["A"] = jet.A + 1e-3


def _scalar_ignored(ctx, monkeypatch):
    # each flow's jet takes the preset's scalar for every scalar of the family
    with_phi = fluid.FlowJet.with_phi
    monkeypatch.setattr(fluid.FlowJet, "with_phi",
                        lambda self, phi: with_phi(self, ctx.preset.state.phi))


def _shift_drops_dln(ctx, monkeypatch):
    # the rescaled covector on the sample without its d ln Phi
    monkeypatch.setattr(suites, "_shifted_covector", lambda a, ln, engine, pts: a)


def _shift_from_base(ctx, monkeypatch):
    # every rescaled covector on the sample shifted from the base covector,
    # so a second rescaling loses the first
    shift = suites._shifted_covector
    monkeypatch.setattr(suites, "_shifted_covector",
                        lambda a, ln, engine, pts: shift(ctx.jet.A, ln, engine, pts))


@pytest.mark.parametrize("suite, check, plant", [
    ("connection", "torsion-free", _skew_connection),
    ("connection", "nonmetricity", _stale_covector),
    ("fluid", "geodesic-defect-family", _scalar_ignored),
    ("conformal", "connection-orbit-invariance", _shift_drops_dln),
    ("conformal", "gauge-group-law", _shift_from_base),
    ("conformal", "covector-transformation-closure", _shift_drops_dln),
])
def test_planted_defect_fails_the_check(suite, check, plant, monkeypatch):
    preset = build("flrw-comoving-dust")

    def run(planted):
        ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3),
                                  nonmetricity_pairs=1, seeded_factors=2)
        if planted:
            plant(ctx, monkeypatch)
        return {c.name: c for c in suites.SUITES[suite](ctx)}[check]

    assert run(planted=False).passed
    record = run(planted=True)
    assert not record.passed and record.max_residual > record.tol
