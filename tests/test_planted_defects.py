"""Planted defects: each check that reads the suite context's shared jet,
or the stress-energy and current that the conservation suite forms once,
fails when one defect is planted in the shared value or in the arithmetic
that a suite builds on it, so no check compares a shared value with
itself; the frame checks fail under a defect in the transport's source,
in the closed-form factor they are compared with, or in the scalar that
the frame's bundle and geodesic defect are formed with."""

import dataclasses

import numpy as np
import pytest

from weylfluid import autodiff as ad, conformal, fluid, suites, worldlines
from weylfluid.catalog import build
from weylfluid.conservation import VectorDensityField
from weylfluid.errors import WeylFluidError
from weylfluid.geometry import DerivativeEngine, scalar_field, tensor2_field


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


def _inverse_scaled(ctx, monkeypatch):
    # the shared inverse metric off by a constant factor
    ctx.__dict__["data"] = dataclasses.replace(ctx.data, inv=ctx.data.inv * (1.0 + 1e-3))


def _seeded_covector_scaled(ctx, monkeypatch):
    # each seeded pair's connection formed from a scaled covector, so it is
    # not the Weyl connection of the covector it is checked against
    weyl_gamma = suites._weyl_gamma
    monkeypatch.setattr(suites, "_weyl_gamma",
                        lambda data, aval: weyl_gamma(data, (1.0 + 1e-3) * aval))


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


def _current_perturbed(ctx, monkeypatch):
    # a term in J^0 that grows with the time coordinate: the current moves,
    # and its divergence no longer vanishes nor balances the connection side
    current = suites.particle_current

    def planted(g, T, n):
        J = current(g, T, n)
        bump = np.eye(g.chart.dim)[0]
        return VectorDensityField(g.chart, lambda c: J.fn(c) + 1e-3 * c[0][:, None] * bump,
                                  name=J.name)

    monkeypatch.setattr(suites, "particle_current", planted)


def _stress_energy_perturbed(ctx, monkeypatch):
    # a symmetric term in the raised stress-energy that grows with the time
    # coordinate; the current, built from the lowered one, does not see it
    raise_indices2 = suites.raise_indices2

    def planted(g, T):
        t_up = raise_indices2(g, T)
        ones = np.ones((g.chart.dim,) * 2)
        return tensor2_field(g.chart, lambda c: t_up.fn(c) + 1e-3 * c[0][:, None, None] * ones,
                             variance=("u", "u"), name=t_up.name)

    monkeypatch.setattr(suites, "raise_indices2", planted)


def _source_scaled(ctx, monkeypatch):
    # the frame transport's source column 1 % too large: the solved log
    # factor drifts from the closed form, and neither its transport equation
    # nor the rescaled flow's divergence balances
    flow_and_source = conformal._Transport._flow_and_source

    def planted(transport, pts):
        rates = flow_and_source(transport, pts)
        rates[:, -1] *= 1.01
        return rates

    monkeypatch.setattr(conformal._Transport, "_flow_and_source", planted)


def _closed_frame_scaled(ctx, monkeypatch):
    # the preset's closed-form frame factor with its log 1 % too large
    meta = ctx.preset.meta
    closed_frame = meta.closed_frame

    def planted(value):
        ln = closed_frame(value).ln
        return conformal.ConformalFactor.from_log(
            scalar_field(ln.chart, lambda c: 1.01 * ln.fn(c), name=ln.name))

    ctx.preset = dataclasses.replace(
        ctx.preset, meta=dataclasses.replace(meta, closed_frame=planted))


def _defect_scalar_shifted(ctx, monkeypatch):
    # each geodesic defect, the fluid's and the frame's, reads a scalar 1e-3
    # off the scalar that its jet and connection were formed with
    defect = suites._defect
    monkeypatch.setattr(suites, "_defect", lambda n, dn, gam, phi: defect(n, dn, gam, phi + 1e-3))


def _flow_power_scaled(ctx, monkeypatch):
    # every rescaled flow scaled by Phi^(-1.001), not by 1 / Phi: the
    # rescaled flow is no longer unit for the rescaled metric
    pow_scale = conformal._pow_scale

    def planted(field, factor, power, name):
        if field.variance == ("u",):
            power *= 1.001
        return pow_scale(field, factor, power, name)

    monkeypatch.setattr(conformal, "_pow_scale", planted)


def _frame_scalar_shifted(ctx, monkeypatch):
    # the frame's bundle formed for the scalar 1e-3, not for the affine 0:
    # the obstruction scalars read rho phi and (rho + (m-1) p) phi
    constant = suites.constant_scalar
    monkeypatch.setattr(suites, "constant_scalar",
                        lambda chart, c, name="": constant(chart, c + 1e-3, name))


def _metric_bumped(ctx, monkeypatch):
    # a non-conformal bump in the metric values of each ray's flow jet: the
    # null tangents are not null for the metric the first integral reads
    form = suites.flow_jet

    def planted(*args, **kwargs):
        jet = form(*args, **kwargs)
        bump = np.zeros_like(jet.data.val)
        bump[:, 1, 1] = 1e-3
        return dataclasses.replace(jet, data=dataclasses.replace(jet.data, val=jet.data.val + bump))

    monkeypatch.setattr(suites, "flow_jet", planted)


def _deformation_off_parallel(ctx, monkeypatch):
    # a term Gamma^0_11 in the deformation of the metric connection, which
    # moves each ray's transport defect off its tangent
    shift = suites.eps_shift

    def planted(ginv, gval, aval):
        out = shift(ginv, gval, aval)
        out[:, 0, 1, 1] += 1e-3
        return out

    monkeypatch.setattr(suites, "eps_shift", planted)


def _sheared_paths(monkeypatch, kind):
    # every path of the batch of that kind sheared off its start along x by
    # 1e-3 per unit parameter, so it leaves the trajectory it is compared with
    integrate = suites.integrate_fluid_worldlines

    def planted(g, n, phi, engine, kinds, *args):
        paths = integrate(g, n, phi, engine, kinds, *args)
        bump = np.eye(g.chart.dim)[1]
        for path, row in zip(paths, kinds):
            if row == kind:
                path.points = path.points + 1e-3 * path.s[:, None] * bump
        return paths

    monkeypatch.setattr(suites, "integrate_fluid_worldlines", planted)


def _null_rays_sheared(ctx, monkeypatch):
    _sheared_paths(monkeypatch, worldlines.NULL_GEODESIC)


def _flow_line_sheared(ctx, monkeypatch):
    _sheared_paths(monkeypatch, worldlines.FLOW_LINE)


@pytest.mark.parametrize("suite, check, plant", [
    ("connection", "torsion-free", _skew_connection),
    ("connection", "nonmetricity", _stale_covector),
    ("connection", "metric-inverse", _inverse_scaled),
    ("connection", "nonmetricity-seeded-pairs", _seeded_covector_scaled),
    ("connection", "volume-trace", _stale_covector),
    ("fluid", "geodesic-defect", _defect_scalar_shifted),
    ("fluid", "geodesic-defect-family", _scalar_ignored),
    ("fluid", "covector-flow-contraction", _stale_covector),
    ("fluid", "flow-eigenvector", _inverse_scaled),
    ("conformal", "connection-orbit-invariance", _shift_drops_dln),
    ("conformal", "gauge-group-law", _shift_from_base),
    ("conformal", "covector-transformation-closure", _shift_drops_dln),
    ("conformal", "rescaled-normalization", _flow_power_scaled),
    ("conservation", "current-perfect-fluid-form", _current_perturbed),
    ("conservation", "current-divergence-identity", _current_perturbed),
    ("conservation", "current-conservation", _current_perturbed),
    ("conservation", "divergence-decomposition-flow", _stress_energy_perturbed),
    ("conservation", "divergence-decomposition-orthogonal", _stress_energy_perturbed),
    ("conservation", "current-divergence-identity", _stress_energy_perturbed),
    ("conservation", "condition-scalar-covector", _stale_covector),
    ("conservation", "condition-scalar-transport", _stress_energy_perturbed),
    ("frame", "frame-transport", _source_scaled),
    ("frame", "frame-closed-form", _source_scaled),
    ("frame", "incompressibility", _source_scaled),
    ("frame", "incompressibility-closed-form", _closed_frame_scaled),
    ("frame", "preferred-geodesic-defect", _defect_scalar_shifted),
    ("frame", "preferred-scalar-transport", _frame_scalar_shifted),
    ("frame", "preferred-scalar-covector", _frame_scalar_shifted),
    ("worldlines", "null-first-integral", _metric_bumped),
    ("worldlines", "null-compatibility-defect", _deformation_off_parallel),
    ("worldlines", "null-trajectory-coincidence", _null_rays_sheared),
    ("worldlines", "flow-line-trajectory", _flow_line_sheared),
])
def test_planted_defect_fails_the_check(suite, check, plant, monkeypatch):
    preset = build("flrw-comoving-dust")

    def run(planted):
        ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3),
                                  nonmetricity_pairs=1, seeded_factors=2, rays=3)
        if planted:
            plant(ctx, monkeypatch)
        return {c.name: c for c in suites.SUITES[suite](ctx)}[check]

    assert run(planted=False).passed
    record = run(planted=True)
    assert not record.passed and record.max_residual > record.tol


@pytest.mark.parametrize("check", ["preferred-scalar-transport", "preferred-scalar-covector"])
def test_accelerated_frame_sees_a_stress_off_the_perfect_fluid_form(check, monkeypatch):
    # the comoving cosmology's frame flow is geodesic, so its covector A
    # vanishes and the covector scalar T^{ab} A_a n_b reads no stress
    # defect; the static observers of Schwarzschild accelerate in the frame
    preset = build("schwarzschild-static")

    def run():
        ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3))
        return {c.name: c for c in suites.frame_suite(ctx)}[check]

    assert run().passed
    _stress_energy_perturbed(None, monkeypatch)
    record = run()
    assert not record.passed and record.max_residual > record.tol


def test_weight_first_stress_energy_is_not_symmetric(monkeypatch):
    # T_ab with the weight multiplied into n_a before n_b, (w n_a) n_b:
    # off the unit weight p + rho = 1 the two orders round differently
    preset = build("minkowski-sheared", {"rho0": 1.5})

    def weight_first(g, n, p, rho):
        def fn(coords):
            gc = g.fn(coords)
            pc = p.fn(coords)[:, None, None]
            w = pc + rho.fn(coords)[:, None, None]
            n_low = ad.einsum("nab,nb->na", gc, n.fn(coords))
            return pc * gc + w * n_low[:, :, None] * n_low[:, None, :]

        return tensor2_field(g.chart, fn, name="T")

    def run():
        ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3))
        return {c.name: c for c in suites.fluid_suite(ctx)}["stress-energy-symmetry"]

    assert run().passed
    monkeypatch.setattr(suites, "stress_energy", weight_first)
    record = run()
    assert not record.passed and record.max_residual > record.tol


def test_planted_frame_copy_is_refused(monkeypatch):
    # each node that a refined memo grid copies from the coarse grid reads
    # the next coarse layer's value instead of its own: the refined time
    # axis's estimate sees the shifted copies on every grid, so the sizing
    # refines until it reaches the ceiling rather than passing the checks
    # on a wrong grid
    preset = build("flrw-power-dust")
    counterparts = conformal._counterparts

    def next_layer(count, prev_count):
        old = counterparts(count, prev_count)
        if count <= prev_count:
            return old
        return np.where(old >= 0, np.minimum(old + 1, prev_count - 1), -1)

    def run():
        ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3))
        return {c.name: c for c in suites.frame_suite(ctx)}

    records = run()
    assert records["frame-closed-form"].passed and records["frame-transport"].passed
    monkeypatch.setattr(conformal, "_counterparts", next_layer)
    with pytest.raises(WeylFluidError, match="ceiling of 83521 nodes: axis 't' at 385 nodes"):
        run()


def test_non_finite_current_names_the_field(monkeypatch):
    # a jet is not checked finite as a field call is; the suite checks the
    # current's value itself
    preset = build("flrw-comoving-dust")
    current = suites.particle_current

    def planted(g, T, n):
        J = current(g, T, n)

        def fn(c):
            nan = np.zeros((len(ad.value(c[0])), g.chart.dim))
            nan[-1, 1] = np.nan
            return J.fn(c) + nan

        return VectorDensityField(g.chart, fn, name=J.name)

    monkeypatch.setattr(suites, "particle_current", planted)
    ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3))
    with pytest.raises(ValueError, match="field J is not finite"):
        suites.conservation_suite(ctx)
