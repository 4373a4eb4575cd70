"""Flow-induced covector, bundle geodesy and the stress-energy tensor."""

import numpy as np
import pytest

from weylfluid import autodiff as ad
from weylfluid import catalog, connections, fluid, harness, suites
from weylfluid.catalog import (
    build,
    flrw_chart,
    flrw_metric,
    minkowski_chart,
    minkowski_metric,
    polynomial_scalar,
    comoving_flow,
    sheared_flow,
    verification_matrix,
)
from weylfluid.connections import eps_connection
from weylfluid.fluid import (
    FluidState,
    WeylBundle,
    fluid_connection,
    fluid_covector,
    geodesic_defect,
    stress_energy,
)
from weylfluid.config import SuiteConfig
from weylfluid.errors import NotTimelikeError
from weylfluid.geometry import (
    DerivativeEngine,
    constant_scalar,
    covector_field,
    metric_aux,
    normalize_timelike,
    vector_field,
)

ENG = DerivativeEngine()


@pytest.fixture(scope="module")
def flat():
    chart = minkowski_chart(4)
    g = minkowski_metric(chart)
    return chart, g, comoving_flow(chart, g), chart.sample_points(3, 8, seed=0)


@pytest.fixture(scope="module")
def cosmo():
    chart = flrw_chart(4)
    g = flrw_metric(chart, "exp", 0.1)
    return chart, g, comoving_flow(chart, g), chart.sample_points(3, 8, seed=1)


class TestFluidCovector:
    def test_geodesic_flow_no_reparametrization(self, flat):
        chart, g, n, pts = flat
        A = fluid_covector(g, n, constant_scalar(chart, 0.0), ENG)
        assert np.abs(A(pts)).max() < 1e-14

    def test_constant_scalar_gives_flow_covector(self, flat):
        chart, g, n, pts = flat
        A = fluid_covector(g, n, constant_scalar(chart, 0.5), ENG)
        assert np.allclose(A(pts), [-0.5, 0.0, 0.0, 0.0], atol=1e-14)

    def test_comoving_cosmology_is_geodesic(self, cosmo):
        chart, g, n, pts = cosmo
        A = fluid_covector(g, n, constant_scalar(chart, 0.0), ENG)
        assert np.abs(A(pts)).max() < 1e-12

    def test_flow_contraction_identity(self, cosmo):
        chart, g, n, pts = cosmo
        rng = np.random.default_rng(4)
        phi = polynomial_scalar(chart, rng, 0.3)
        A = fluid_covector(g, n, phi, ENG)
        contraction = np.einsum("na,na->n", A(pts), n(pts))
        assert np.abs(contraction + phi(pts)).max() < 1e-12


class TestGeodesicDefect:
    def test_flat_rest(self, flat):
        chart, g, n, pts = flat
        phi = constant_scalar(chart, 0.0)
        bundle = fluid_connection(g, n, phi, ENG)
        assert np.abs(geodesic_defect(bundle, n, phi, ENG)(pts)).max() == 0.0

    def test_reparametrized_flow_still_autoparallel(self, flat):
        chart, g, n, pts = flat
        phi = constant_scalar(chart, 0.5)
        bundle = fluid_connection(g, n, phi, ENG)
        assert np.abs(geodesic_defect(bundle, n, phi, ENG)(pts)).max() < 1e-14

    def test_mismatched_bundle_registers_defect(self, flat):
        chart, g, n, pts = flat
        phi0 = constant_scalar(chart, 0.0)
        A = covector_field(chart, lambda c: ad.stack([0.0 * c[0] - 0.5] + [0.0 * c[0]] * 3))
        wrong = WeylBundle(g, A, eps_connection(g, A, ENG))
        d = geodesic_defect(wrong, n, phi0, ENG)(pts)
        assert np.allclose(d, [0.5, 0.0, 0.0, 0.0], atol=1e-14)

    def test_sheared_family(self, cosmo):
        chart, g, _, pts = cosmo
        n = sheared_flow(chart, g, 0.1)
        for phi in (constant_scalar(chart, 0.0),
                    constant_scalar(chart, 0.4),
                    polynomial_scalar(chart, np.random.default_rng(7), 0.2)):
            bundle = fluid_connection(g, n, phi, ENG)
            assert np.abs(geodesic_defect(bundle, n, phi, ENG)(pts)).max() < 1e-10


class TestSingleJetConnection:
    @pytest.mark.parametrize("name", verification_matrix())
    def test_matches_eps_connection(self, name):
        preset = build(name)
        st = preset.state
        bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
        pts = preset.chart.sample_points(2, 8, seed=3)
        reference = eps_connection(preset.g, bundle.A, ENG)
        assert np.array_equal(bundle.gamma(pts), reference(pts))
        assert (bundle.gamma.provenance, bundle.gamma.name) == (reference.provenance, reference.name)

    def test_one_metric_evaluation_per_call(self, cosmo, monkeypatch):
        chart, g, n, pts = cosmo
        bundle = fluid_connection(g, n, constant_scalar(chart, 0.3), ENG)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return metric_aux(*args, **kwargs)

        # every module that a bundle's connection may evaluate the metric from
        for module in (fluid, connections):
            monkeypatch.setattr(module, "metric_aux", counted)
        bundle.gamma(pts)
        assert len(calls) == 1


def _no_dual_eval(*args):
    raise AssertionError("the unit flow was differentiated through the metric again")


class TestUnitFlowJet:
    """A unit flow's jet formed from the metric jet matches the dual path."""

    @pytest.mark.parametrize("count", [2, 640])
    @pytest.mark.parametrize("name", verification_matrix())
    def test_matches_the_dual_jet(self, name, count, monkeypatch):
        preset = build(name)
        n = preset.state.n
        pts = preset.chart.random_points(count, seed=5)
        val, jac = n.dual_eval(pts)
        monkeypatch.setattr(n, "dual_eval", _no_dual_eval)
        jet = fluid.flow_jet(preset.g, n, ENG, pts)
        for got, want in ((jet.n, val), (jet.dn, jac)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    @pytest.mark.parametrize("name", verification_matrix())
    def test_central_difference_jet_matches_the_dual_jet(self, name):
        preset = build(name)
        n = preset.state.n
        pts = preset.chart.random_points(8, seed=5)
        val, jac = n.dual_eval(pts)
        jet = fluid.flow_jet(preset.g, n, DerivativeEngine(mode="central-difference"), pts)
        np.testing.assert_allclose(jet.n, val, rtol=0, atol=1e-14 * np.max(np.abs(val)))
        np.testing.assert_allclose(jet.dn, jac, rtol=0, atol=1e-6 * np.max(np.abs(jac)))

    def test_spacelike_flow_names_the_point(self, monkeypatch):
        preset = build("minkowski-dust-rest")
        chart = preset.chart
        # timelike where |x| < 1/2, spacelike beyond
        u = vector_field(chart, lambda c: ad.stack([0.0 * c[0] + 1.0, 2.0 * c[1],
                                                    0.0 * c[0], 0.0 * c[0]]))
        n = normalize_timelike(preset.g, u)
        monkeypatch.setattr(n, "dual_eval", _no_dual_eval)
        pts = [[0.1, 0.2, 0.3, 0.4], [0.5, 0.75, -0.25, 0.125]]
        with pytest.raises(NotTimelikeError, match=r"at point \[0\.5, 0\.75, -0\.25, 0\.125\]"):
            fluid.flow_jet(preset.g, n, ENG, pts)


class TestSuitesReadOneJetPerPair:
    """A suite's sample batch costs one metric evaluation, the context's, and
    each flow of the fluid family one flow jet, whatever its scalars."""

    def _ctx(self):
        preset = build("flrw-comoving-dust")
        return suites.SuiteContext(preset, ENG, preset.chart.sample_points(2, 8, seed=3),
                                   nonmetricity_pairs=1)

    def test_fluid_suite(self, metric_calls, monkeypatch):
        jets = []
        form = suites.flow_jet

        def counting(*args, **kwargs):
            jets.append(args[1])
            return form(*args, **kwargs)

        monkeypatch.setattr(suites, "flow_jet", counting)
        ctx = self._ctx()
        flows, phis = suites._fluid_family(ctx)
        assert len(flows) > 1 and len(phis) > 1
        suites.fluid_suite(ctx)
        # the sample's metric data, which every flow's jet reads
        assert len(metric_calls) == 1
        # the context's jet of the preset flow, then one per other flow
        assert len(jets) == len(flows) and jets[0] is ctx.preset.state.n

    def test_connection_suite(self, metric_calls):
        ctx = self._ctx()
        suites.connection_suite(ctx)
        # the sample's metric data, the zero-covector reduction (2), and one
        # per seeded pair
        assert len(metric_calls) == 3 + ctx.nonmetricity_pairs


class TestSuitesShareTheSampleJet:
    """One run of the four pointwise suites forms the metric data of the
    preset's metric on the sample at most three times: the context's, and
    the two public paths of the zero-covector reduction."""

    @pytest.mark.parametrize("name", ["flrw-radiation", "schwarzschild-static"])
    def test_metric_evaluations_on_the_sample(self, metric_calls, name, monkeypatch):
        built = []

        def building(*args, **kwargs):
            built.append(catalog.build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "build", building)
        entry = catalog.PRESETS[name]
        cfg = SuiteConfig(spacetime=entry.spacetime, fluid=entry.fluid, timing=False,
                          suites=("connection", "fluid", "conservation", "conformal"))
        assert cfg.engine.mode == "forward-dual"
        assert harness.run_suite(cfg).passed
        (preset,) = built
        sample = preset.chart.sample_points(
            per_axis=cfg.grid_per_axis, extra=cfg.random_points, seed=cfg.seed)
        on_sample = [g for g, pts in metric_calls
                     if g is preset.g and np.array_equal(np.asarray(pts), sample)]
        assert 1 <= len(on_sample) <= 3


class TestFrameSuiteReadsOneJet:
    """The frame suite's incompressibility, condition scalars and geodesic
    defect of the rescaled pair share one flow jet."""

    # the base flow's jet, from which the transport residual and the
    # rescaled pair's jet are formed, and the closed-form
    # incompressibility's where the preset has a closed-form frame; the
    # solver's own jets, one per transport stage, are not counted
    @pytest.mark.parametrize("name, count", [("flrw-comoving-dust", 2), ("minkowski-sheared", 1)])
    def test_metric_evaluations(self, metric_calls, name, count, monkeypatch):
        solve = catalog.preferred_frame
        in_solver = []

        def solving(*args, **kwargs):
            before = len(metric_calls)
            factor = solve(*args, **kwargs)
            in_solver.append(len(metric_calls) - before)
            return factor

        monkeypatch.setattr(catalog, "preferred_frame", solving)
        preset = build(name)
        ctx = suites.SuiteContext(preset, ENG, preset.chart.sample_points(2, 8, seed=3))
        suites.frame_suite(ctx)
        assert len(in_solver) == 1
        assert len(metric_calls) - sum(in_solver) == count


class TestStressEnergy:
    def test_dust_components(self, flat):
        chart, g, n, pts = flat
        T = stress_energy(g, n, constant_scalar(chart, 0.0), constant_scalar(chart, 1.0))
        assert np.allclose(T(pts), np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_pressure_components(self, flat):
        chart, g, n, pts = flat
        T = stress_energy(g, n, constant_scalar(chart, 0.2), constant_scalar(chart, 1.0))
        assert np.allclose(T(pts), np.diag([1.0, 0.2, 0.2, 0.2]), atol=1e-15)

    def test_flow_eigenvector(self, cosmo):
        chart, g, n, pts = cosmo
        rho = polynomial_scalar(chart, np.random.default_rng(2), 0.5)
        p = constant_scalar(chart, 0.1)
        T = stress_energy(g, n, p, rho)
        data = metric_aux(g, pts)
        tn = np.einsum("nma,nab,nb->nm", data.inv, T(pts), n(pts))
        assert np.abs(tn + rho(pts)[:, None] * n(pts)).max() < 1e-12

    def test_symmetric_off_the_unit_weight(self):
        # at rho0 = 1.5 the weight p + rho is not 1, so forming (w n_a) n_b
        # rounds differently from (w n_b) n_a; the check's tolerance is 0
        cfg = SuiteConfig(spacetime="minkowski", fluid="sheared", parameters={"rho0": 1.5},
                          suites=("fluid",), timing=False)
        report = harness.run_suite(cfg)
        assert report.passed
        (record,) = [c for c in report.checks if c.name == "fluid:stress-energy-symmetry"]
        assert record.tol == 0.0 and record.max_residual == 0.0

    def test_negative_density_warns(self, flat):
        chart, g, n, pts = flat
        state = FluidState(
            n=n, p=constant_scalar(chart, 0.0),
            rho=constant_scalar(chart, -1.0), phi=constant_scalar(chart, 0.0))
        with pytest.warns(UserWarning, match="negative"):
            state.validate(g, pts)
