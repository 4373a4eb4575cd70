"""Stress-energy divergence decomposition, particle current, slice counts
and the condition scalars with their closed forms."""

from collections import Counter

import numpy as np
import pytest

from weylfluid import connections, suites
from weylfluid.catalog import build
from weylfluid.config import SuiteConfig
from weylfluid.conservation import (
    QUAD_CHECK_NODES,
    QUAD_NODES,
    SliceSpec,
    condition_scalars,
    conservation_condition_residuals,
    current_divergence,
    current_identity_residual,
    decomposition_residuals,
    number_on_slice,
    particle_current,
    raise_indices2,
    weyl_divergence_T,
)
from weylfluid.fluid import fluid_connection, stress_energy
from weylfluid.geometry import DerivativeEngine, TensorField, constant_scalar, scalar_field
from weylfluid.harness import run_suite

from oracles import (
    covector_transport_contraction,
    divergence_T_fd,
    vector_divergence_fd,
)

ENG = DerivativeEngine()


@pytest.fixture(scope="module")
def flat_phi():
    """Flat chart, dust at rest with reparametrization scalar 0.5."""
    preset = build("minkowski-dust-phi")
    bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
    pts = preset.chart.sample_points(3, 8, seed=0)
    return preset, bundle, pts


@pytest.fixture(scope="module")
def flrw_dust():
    preset = build("flrw-comoving-dust")
    bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
    pts = preset.chart.sample_points(3, 8, seed=1)
    return preset, bundle, pts


class TestDivergenceT:
    def test_flat_constant_fields(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        pts = preset.chart.sample_points(3, 8, seed=2)
        assert np.abs(weyl_divergence_T(preset.g, bundle.gamma, T, ENG)(pts)).max() == 0.0

    def test_reparametrized_dust_against_oracle(self, flat_phi):
        preset, bundle, pts = flat_phi
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        div = weyl_divergence_T(preset.g, bundle.gamma, T, ENG)(pts)
        # frozen from the index-loop oracle: rho (m+1) phi along the flow
        assert np.allclose(div, [2.5, 0.0, 0.0, 0.0], atol=1e-12)
        t_up = raise_indices2(preset.g, T)
        ref = divergence_T_fd(preset.g, bundle.gamma,
                              lambda x: t_up(x[None, :])[0], pts[0])
        assert np.allclose(div[0], ref, atol=1e-9)

    def test_flrw_against_fd_oracle(self, flrw_dust):
        preset, bundle, pts = flrw_dust
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        div = weyl_divergence_T(preset.g, bundle.gamma, T, ENG)(pts)
        assert np.abs(div).max() < 1e-12  # conserved preset
        t_up = raise_indices2(preset.g, T)
        ref = divergence_T_fd(preset.g, bundle.gamma,
                              lambda x: t_up(x[None, :])[0], pts[3])
        assert np.allclose(div[3], ref, atol=1e-8)


class TestConditionResiduals:
    def test_rest_dust_vanishes(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        pts = preset.chart.sample_points(3, 8, seed=3)
        c1, c2 = conservation_condition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENG)
        assert np.abs(c1(pts)).max() == 0.0
        assert np.abs(c2(pts)).max() == 0.0

    def test_reparametrized_dust_value(self, flat_phi):
        # frozen from the index-loop oracle: C1 = rho (m+1) phi = 2.5
        preset, bundle, pts = flat_phi
        st = preset.state
        c1, c2 = conservation_condition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENG)
        assert np.allclose(c1(pts), 2.5, atol=1e-13)
        assert np.abs(c2(pts)).max() < 1e-13

    def test_constant_pressure_fluid(self):
        preset = build("minkowski-radiation", {"phi": 0.0})
        st = preset.state
        pts = preset.chart.sample_points(3, 8, seed=4)
        c1, c2 = conservation_condition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENG)
        assert np.abs(c1(pts)).max() < 1e-14
        assert np.abs(c2(pts)).max() < 1e-14

    def test_decomposition_signs(self, flat_phi):
        preset, bundle, pts = flat_phi
        st = preset.state
        flow, ortho = decomposition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENG, pts)
        assert np.abs(flow).max() < 1e-12
        assert np.abs(ortho).max() < 1e-12

    def test_decomposition_signs_with_pressure(self):
        preset = build("flrw-radiation")
        st = preset.state
        pts = preset.chart.sample_points(3, 8, seed=5)
        flow, ortho = decomposition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENG, pts)
        assert np.abs(flow).max() < 1e-10
        assert np.abs(ortho).max() < 1e-10


class TestParticleCurrent:
    def test_flat_dust(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)
        pts = preset.chart.sample_points(3, 8, seed=6)
        assert np.allclose(J(pts), [-1.0, 0, 0, 0], atol=1e-15)

    def test_vanishing_density(self):
        preset = build("minkowski-dust-rest", {"rho0": 0.0})
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)
        assert np.abs(J(preset.chart.sample_points(3, 4, seed=0))).max() == 0.0

    def test_conserved_cosmology_current(self, flrw_dust):
        preset, bundle, pts = flrw_dust
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)
        jv = J(pts)
        assert np.abs(jv[:, 0] + 1.0).max() < 1e-12  # - a^3 rho = -1 for all t
        assert np.abs(jv[:, 1:]).max() < 1e-12
        assert np.abs(current_divergence(J, ENG)(pts)).max() < 1e-12

    def test_linear_density_divergence(self):
        preset = build("minkowski-dust-rest")
        chart = preset.chart
        st = preset.state
        rho = scalar_field(chart, lambda c: 1.0 + 0.1 * c[0])
        T = stress_energy(preset.g, st.n, st.p, rho)
        J = particle_current(preset.g, T, st.n)
        pts = chart.sample_points(3, 8, seed=7)
        div = current_divergence(J, ENG)(pts)
        assert np.allclose(div, -0.1, atol=1e-13)
        ref = vector_divergence_fd(J, pts[0])
        assert div[0] == pytest.approx(ref, abs=1e-9)


class TestNumberOnSlice:
    def test_zero_current(self):
        preset = build("minkowski-dust-rest", {"rho0": 0.0})
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        val, err = number_on_slice(J, SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3))
        assert val == 0.0

    def test_unit_box_dust(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        val, err = number_on_slice(J, SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3))
        assert val == pytest.approx(-1.0, abs=1e-12)
        assert err < 1e-12

    def test_slice_invariance_conserved_dust(self, flrw_dust):
        preset, bundle, pts = flrw_dust
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        box = ((-0.5, 0.5),) * 3
        n0, _ = number_on_slice(J, SliceSpec(0, 0.0, box))
        n5, _ = number_on_slice(J, SliceSpec(0, 5.0, box))
        assert abs(n0 - n5) < 1e-8

    def test_quadrature_against_1d_oracle(self):
        # polynomial current: the integral factorizes into exact 1-d
        # moments; the degree-20 term is exact for the 12-node count and
        # not for the 8-node reference, so only the estimate sees it
        preset = build("minkowski-dust-rest")
        st = preset.state
        rho = scalar_field(preset.chart, lambda c: 1.0 + 0.3 * c[1] ** 2 * c[3] ** 7
                           + 0.2 * c[2] ** 15 + 40.0 * c[3] ** 20)
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, rho), st.n)
        box = ((-0.5, 0.5), (-0.4, 0.3), (-0.3, 0.6))

        def moment(k, axis):
            a, b = box[axis]
            return (b ** (k + 1) - a ** (k + 1)) / (k + 1)

        volume = moment(0, 0) * moment(0, 1) * moment(0, 2)
        ref = -(volume + 0.3 * moment(2, 0) * moment(0, 1) * moment(7, 2)
                + 0.2 * moment(0, 0) * moment(15, 1) * moment(0, 2)
                + 40.0 * moment(0, 0) * moment(0, 1) * moment(20, 2))
        val, err = number_on_slice(J, SliceSpec(0, 0.0, box))
        assert val == pytest.approx(ref, rel=1e-13)
        coarse = _gauss_count(J, 0, 0.0, box, QUAD_CHECK_NODES)
        assert err == pytest.approx(abs(ref - coarse), rel=1e-6)
        assert err > 1e-9  # the degree-20 term is seen by the estimate

    def test_one_current_evaluation_per_call(self):
        # both rules' nodes go to the current in one concatenated batch
        preset = build("minkowski-perturbed")
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        box = ((-0.5, 0.5), (-0.4, 0.3), (-0.2, 0.5))
        spec = SliceSpec(0, 0.25, box)

        class Recording:
            chart = J.chart

            def __init__(self):
                self.batches = []

            def __call__(self, pts):
                self.batches.append(pts)
                return J(pts)

        recording = Recording()
        val, err = number_on_slice(recording, spec)
        assert [len(b) for b in recording.batches] == [12 ** 3 + 8 ** 3]
        batch = recording.batches[0]
        assert np.all(batch[:, 0] == 0.25)
        lo, hi = np.array(box).T
        assert np.all((batch[:, 1:] > lo) & (batch[:, 1:] < hi))
        fine, coarse = (_gauss_count(J, 0, 0.25, box, n) for n in (QUAD_NODES, QUAD_CHECK_NODES))
        assert val == pytest.approx(fine, rel=1e-14)
        assert err == pytest.approx(abs(fine - coarse), rel=1e-6, abs=1e-15)

    def test_estimate_bounds_the_error_on_a_curved_slice(self):
        preset = build("schwarzschild-static")
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        meta = preset.meta
        spec = SliceSpec(meta.slice_axis, meta.slice_values[0], meta.slice_box)
        val, err = number_on_slice(J, spec)
        ref = _gauss_count(J, spec.axis, spec.value, spec.box, 24)
        assert 0.0 < abs(val - ref) <= err

    def test_validation(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
        with pytest.raises(ValueError, match="outside chart interval"):
            number_on_slice(J, SliceSpec(0, 5.0, ((-0.5, 0.5),) * 3))
        with pytest.raises(ValueError, match="exits chart interval"):
            number_on_slice(J, SliceSpec(0, 0.0, ((-2.0, 2.0),) * 3))


def _gauss_count(J, axis, value, box, nodes):
    """Slice count by a ``nodes``-per-axis Gauss-Legendre rule applied one
    axis at a time, as an oracle for :func:`number_on_slice`."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = [0.5 * (a + b) + 0.5 * (b - a) * x for a, b in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.insert(np.stack([m.ravel() for m in mesh], -1), axis, value, axis=1)
    vals = J(pts)[:, axis].reshape(mesh[0].shape)
    for a, b in reversed(box):
        vals = np.tensordot(vals, 0.5 * (b - a) * w, axes=([-1], [0]))
    return float(vals)


class TestConditionScalars:
    def test_dust_reduction(self, flat_phi):
        # pressureless: transport scalar reduces to rho phi
        preset, bundle, pts = flat_phi
        st = preset.state
        cs = condition_scalars(
            preset.g, st.n, st.p, st.rho, st.phi, ENG, pts)
        assert np.allclose(cs.s1, 0.5, atol=1e-13)
        assert np.allclose(cs.s2, 0.5, atol=1e-13)
        assert np.abs(cs.s1_residual).max() < 1e-13
        assert np.abs(cs.s2_residual).max() < 1e-13

    def test_dust_scaled(self):
        preset = build("minkowski-dust-phi", {"rho0": 2.0})
        st = preset.state
        pts = preset.chart.sample_points(3, 4, seed=8)
        cs = condition_scalars(
            preset.g, st.n, st.p, st.rho, st.phi, ENG, pts)
        assert np.allclose(cs.s1, 1.0, atol=1e-13)  # rho phi = 2 * 0.5

    def test_vanishing_case(self):
        preset = build("minkowski-radiation", {"phi": 0.0})
        st = preset.state
        pts = preset.chart.sample_points(3, 4, seed=9)
        cs = condition_scalars(
            preset.g, st.n, st.p, st.rho, st.phi, ENG, pts)
        assert np.abs(cs.s1).max() < 1e-14
        assert np.abs(cs.s2).max() < 1e-14

    def test_pressure_case_value_and_oracle(self):
        # comoving exponential cosmology: metric divergence of the flow is
        # (m-1) H = 0.3; frozen transport-scalar value from the contraction
        # oracle is p*0.3 + (rho + 3p) phi = 0.54
        preset = build("flrw-radiation", {"phi": 0.3})
        chart = preset.chart
        st = preset.state
        p = constant_scalar(chart, 0.2)
        rho = constant_scalar(chart, 1.0)
        bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
        pts = chart.sample_points(3, 4, seed=10)
        cs = condition_scalars(
            preset.g, st.n, p, rho, st.phi, ENG, pts)
        assert np.allclose(cs.s1, 0.54, atol=1e-12)
        assert np.abs(cs.s1_residual).max() < 1e-12

        T = stress_energy(preset.g, st.n, p, rho)
        t_up = raise_indices2(preset.g, T)
        ref = covector_transport_contraction(
            preset.g, bundle.gamma, lambda x: t_up(x[None, :])[0], st.n, pts[0])
        assert cs.s1[0] == pytest.approx(ref, abs=1e-8)


class TestCurrentIdentity:
    def test_trivial(self):
        preset = build("minkowski-dust-rest")
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        pts = preset.chart.sample_points(3, 8, seed=11)
        res = current_identity_residual(preset.g, T, st.n, st.phi, ENG)
        assert np.abs(res(pts)).max() == 0.0

    def test_nonconserved_identity_holds(self, flat_phi):
        preset, bundle, pts = flat_phi
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        res = current_identity_residual(preset.g, T, st.n, st.phi, ENG)
        assert np.abs(res(pts)).max() < 1e-12

    @pytest.mark.parametrize("name", ["flrw-radiation", "minkowski-radiation",
                                      "schwarzschild-static", "minkowski-sheared"])
    def test_identity_across_presets(self, name):
        preset = build(name)
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        pts = preset.chart.sample_points(3, 8, seed=12)
        res = current_identity_residual(preset.g, T, st.n, st.phi, ENG)
        assert np.abs(res(pts)).max() < 1e-9

    def test_central_difference_engine_meets_identity_tolerance(self):
        # the identity compares two derivative paths; at one central-difference
        # level their O(h^2) truncation errors differed by 6.6e-8 here
        cfg = SuiteConfig(spacetime="flrw", fluid="power-dust", suites=("conservation",),
                          engine=DerivativeEngine(mode="central-difference"), timing=False)
        checks = {c.name: c for c in run_suite(cfg).checks}
        identity = checks["conservation:current-divergence-identity"]
        assert identity.tol == 1e-8
        assert identity.max_residual < 1e-10


    def test_central_difference_records_match_the_public_functions(self):
        # through the suite context the decomposition and the condition
        # scalars read the shared jet, of the context's engine, while the
        # current identity takes its own Richardson-level engine and jet;
        # each record is the public function's residual bit for bit
        preset = build("flrw-power-dust")
        engine = DerivativeEngine(mode="central-difference")
        pts = preset.chart.sample_points(2, 8, seed=3)
        records = {c.name: c.max_residual
                   for c in suites.conservation_suite(suites.SuiteContext(preset, engine, pts))}
        g, st = preset.g, preset.state
        T = stress_energy(g, st.n, st.p, st.rho)
        flow, ortho = decomposition_residuals(g, st.n, st.p, st.rho, st.phi, engine, pts)
        cs = condition_scalars(g, st.n, st.p, st.rho, st.phi, engine, pts)
        public = {
            "current-divergence-identity": current_identity_residual(
                g, T, st.n, st.phi, engine)(pts),
            "divergence-decomposition-flow": flow,
            "divergence-decomposition-orthogonal": ortho,
            "condition-scalar-transport": cs.s1_residual,
            "condition-scalar-covector": cs.s2_residual,
        }
        for name, residual in public.items():
            assert records[name] == float(np.max(np.abs(residual))), name


class TestWorkGuards:
    """Each residual of the flow-built bundle reads one flow jet per call."""

    @pytest.mark.parametrize("residual", ["condition_scalars", "decomposition_residuals",
                                          "C1", "C2", "current_identity_residual"])
    def test_one_metric_evaluation_per_call(self, flrw_dust, metric_calls, residual):
        preset, _, pts = flrw_dust
        g, st = preset.g, preset.state
        c1, c2 = conservation_condition_residuals(g, st.n, st.p, st.rho, st.phi, ENG)
        identity = current_identity_residual(
            g, stress_energy(g, st.n, st.p, st.rho), st.n, st.phi, ENG)
        call = {
            "condition_scalars": lambda: condition_scalars(
                g, st.n, st.p, st.rho, st.phi, ENG, pts),
            "decomposition_residuals": lambda: decomposition_residuals(
                g, st.n, st.p, st.rho, st.phi, ENG, pts),
            "C1": lambda: c1(pts),
            "C2": lambda: c2(pts),
            "current_identity_residual": lambda: identity(pts),
        }[residual]
        before = len(metric_calls)
        call()
        assert len(metric_calls) - before == 1

    def test_one_jet_of_each_conservation_input(self, monkeypatch):
        # the suite forms T^{ab}, J, p and rho once each on the sample, as
        # jets, and reads their values from those jets
        counts = Counter()
        call, dual = TensorField.__call__, TensorField.dual_eval

        def counted(kind, original):
            def wrapper(self, pts):
                counts[kind, self.name] += 1
                return original(self, pts)
            return wrapper

        monkeypatch.setattr(TensorField, "__call__", counted("value", call))
        monkeypatch.setattr(TensorField, "dual_eval", counted("dual", dual))
        run_suite(SuiteConfig(spacetime="flrw", fluid="radiation", suites=("conservation",),
                              timing=False))
        assert [counts["dual", name] for name in ("raise(T)", "J", "p", "rho")] == [1, 1, 1, 1]
        assert counts["value", "raise(T)"] == counts["value", "p"] == 0

    def test_non_finite_connection_raises(self, flrw_dust, monkeypatch):
        preset, _, pts = flrw_dust
        g, st = preset.g, preset.state
        monkeypatch.setattr(connections, "eps_shift", lambda ginv, gval, aval: np.full(
            (len(aval),) + (aval.shape[1],) * 3, np.nan))
        with pytest.raises(ValueError, match="connection .* is not finite"):
            condition_scalars(g, st.n, st.p, st.rho, st.phi, ENG, pts)
        with pytest.raises(ValueError, match="connection .* is not finite"):
            decomposition_residuals(g, st.n, st.p, st.rho, st.phi, ENG, pts)
