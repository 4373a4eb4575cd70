"""Charts, fields, the derivative engine and metric algebra."""

import re
from dataclasses import replace

import numpy as np
import pytest

from weylfluid import autodiff as ad, suites
from weylfluid.catalog import (
    build,
    flrw_chart,
    flrw_metric,
    minkowski_chart,
    minkowski_metric,
    perturbed_metric,
    polynomial_scalar,
)
from weylfluid.errors import DomainExitError, NotTimelikeError, SignatureError
from weylfluid.fluid import flow_jet
from weylfluid.geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    grad_scalar,
    inverse_trace,
    metric_aux,
    metric_data,
    normalize_timelike,
    lower_index,
    scalar_field,
    unit_jet,
    vector_field,
)
from weylfluid.suites import Tolerances

from oracles import KERNEL_BATCHES, fd_gradient, random_metric_batch, rel_err

AD = DerivativeEngine()
FD = DerivativeEngine(mode="central-difference", h=1e-4, richardson=1)


class TestChart:
    def test_validation(self):
        with pytest.raises(ValueError):
            Chart(names=("t",), intervals=[(-1, 1)])
        with pytest.raises(ValueError):
            Chart(names=("t", "x"), intervals=[(-1, 1), (2, 2)])
        with pytest.raises(ValueError):
            Chart(names=("t", "x"), intervals=[(-1, 1), (-1, 1)], margin=0.5)

    def test_sampling_inside_margin(self):
        chart = minkowski_chart(4)
        pts = chart.sample_points(per_axis=5, extra=64, seed=3)
        assert len(pts) == 5**4 + 64
        lo, hi = chart.bounds(chart.margin)
        assert np.all(pts >= lo - 1e-15) and np.all(pts <= hi + 1e-15)

    def test_sampling_deterministic(self):
        chart = minkowski_chart(4)
        a = chart.sample_points(seed=9)
        b = chart.sample_points(seed=9)
        assert np.array_equal(a, b)

    def test_require_inside_names_coordinate(self):
        chart = minkowski_chart(4)
        with pytest.raises(DomainExitError, match="'x'"):
            chart.require_inside(np.array([[0.0, 1.5, 0.0, 0.0]]))


class TestGradScalar:
    def setup_method(self):
        self.chart = minkowski_chart(4)

    def test_constant(self):
        f = scalar_field(self.chart, lambda c: 0.0 * c[0] + 5.0)
        for eng in (AD, FD):
            assert np.allclose(grad_scalar(eng, f, [[0.1, 0.2, 0.3, 0.4]]), 0.0)

    def test_bilinear(self):
        f = scalar_field(self.chart, lambda c: c[0] * c[1])
        x = np.array([[0.5, 0.25, 0.0, 0.0]])
        g = grad_scalar(AD, f, x)[0]
        assert np.allclose(g, [0.25, 0.5, 0.0, 0.0], atol=1e-15)

    def test_exponential_profile(self):
        f = scalar_field(self.chart, lambda c: ad.exp(0.1 * c[0]))
        x = np.array([[0.0, 0.3, -0.2, 0.1]])
        expect = np.array([0.1, 0.0, 0.0, 0.0])
        assert np.allclose(grad_scalar(AD, f, x)[0], expect, atol=1e-15)
        assert np.allclose(grad_scalar(FD, f, x)[0], expect, atol=1e-10)

    def test_fd_stencil_domain_exit(self):
        f = scalar_field(self.chart, lambda c: c[0])
        at_edge = np.array([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(DomainExitError, match="'t'"):
            grad_scalar(FD, f, at_edge)

    def test_fd_step_that_moves_no_coordinate_is_refused(self):
        # 0.5 + 8e-17 rounds up to the next double, but 0.5 + 4e-17 rounds
        # back to 0.5: the Richardson half step would difference x with itself
        f = scalar_field(self.chart, lambda c: c[1])
        x = np.array([[0.0, 0.5, 0.0, 0.0]])
        assert grad_scalar(DerivativeEngine("central-difference", 8e-17), f, x)[0, 1] != 0.0
        with pytest.raises(ValueError, match=r"h = 4e-17 leaves coordinate 'x' of point"):
            grad_scalar(DerivativeEngine("central-difference", 8e-17, 1), f, x)

    def test_dual_matches_analytic_to_rounding(self):
        # forward-dual derivatives of a polynomial are exact to a few ulp
        f = scalar_field(self.chart,
                         lambda c: 2.0 + 3.0 * c[0] - c[1] * c[1] + c[0] * c[1] * c[2])
        pts = self.chart.sample_points(per_axis=3, extra=16, seed=3)
        got = grad_scalar(AD, f, pts)
        t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        analytic = np.stack([3.0 + x * y, -2.0 * x + t * y, t * x, 0.0 * t], axis=1)
        assert np.abs(got - analytic).max() < 10 * np.finfo(float).eps

    def test_dual_exact_on_polynomials(self):
        # forward-dual reproduces polynomial derivatives to rounding
        chart = self.chart
        rng = np.random.default_rng(5)
        pts = chart.sample_points(per_axis=3, extra=4, seed=1)
        for k in range(20):
            f = polynomial_scalar(chart, rng, 1.0)
            got = grad_scalar(AD, f, pts)
            for i in (0, len(pts) // 2):
                ref = fd_gradient(lambda x: f(x[None, :])[0], pts[i], h=1e-5)
                assert np.allclose(got[i], ref, atol=2e-6)

    def test_modes_agree_on_polynomials(self):
        chart = self.chart
        rng = np.random.default_rng(11)
        pts = chart.sample_points(per_axis=3, extra=8, seed=2)
        worst = 0.0
        for _ in range(20):
            f = polynomial_scalar(chart, rng, 1.0)
            worst = max(worst, np.abs(grad_scalar(AD, f, pts) - grad_scalar(FD, f, pts)).max())
        assert worst < max(Tolerances().tol_fd, 1e-6)


def _observed_orders(errors) -> np.ndarray:
    """``log2`` of the ratios of errors taken at steps ``h, h/2, h/4``."""
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


class TestCentralDifferenceOrder:
    """The central-difference engine's order, observed from the error ratios
    at steps h, h/2 and h/4 (Roache 1998): 2 with no Richardson level and 4
    with one, on a closed-form field and on the suites' shared flow jet."""

    STEPS = (0.16, 0.08, 0.04)

    @pytest.mark.parametrize("richardson, order", [(0, 2), (1, 4)])
    def test_closed_form_field(self, richardson, order):
        chart = minkowski_chart(4)
        f = scalar_field(chart, lambda c: ad.sin(c[0] + 0.5 * c[1]) * ad.exp(c[2] - c[3]))
        pts = chart.sample_points(per_axis=2, extra=6, seed=4)
        t, x, y, z = pts.T
        s, c, e = np.sin(t + 0.5 * x), np.cos(t + 0.5 * x), np.exp(y - z)
        exact = np.stack([c * e, 0.5 * c * e, s * e, -s * e], axis=1)
        errors = [np.abs(DerivativeEngine("central-difference", h, richardson).jacobian(f, pts)
                         - exact).max() for h in self.STEPS]
        assert np.allclose(_observed_orders(errors), order, atol=0.2)

    @pytest.mark.parametrize("richardson, order", [(0, 2), (1, 4)])
    def test_shared_flow_jet(self, richardson, order):
        # the connection every pointwise suite reads off the context's jet
        # carries the engine's order; the forward-dual jet is exact
        preset = build("flrw-comoving-dust")
        pts = preset.chart.sample_points(2, 8, seed=3)
        exact = suites.SuiteContext(preset, AD, pts).jet.Gamma
        errors = [np.abs(suites.SuiteContext(
            preset, DerivativeEngine("central-difference", h, richardson), pts).jet.Gamma
            - exact).max() for h in self.STEPS]
        assert np.allclose(_observed_orders(errors), order, atol=0.2)


class TestMetricData:
    def test_minkowski(self):
        chart = minkowski_chart(4)
        g = minkowski_metric(chart)
        inv, sq = metric_data(g, [[0.1, 0.2, -0.3, 0.0]])
        assert np.allclose(inv[0], np.diag([-1.0, 1, 1, 1]))
        assert sq[0] == pytest.approx(1.0)

    def test_flrw_volume_factor(self):
        chart = flrw_chart(4, t_interval=(-1.0, 11.0))
        g = flrw_metric(chart, "exp", 0.1)
        inv, sq = metric_data(g, [[0.0, 0.0, 0.0, 0.0]])
        assert np.allclose(inv[0], np.diag([-1.0, 1, 1, 1]), atol=1e-15)
        assert sq[0] == pytest.approx(1.0)
        _, sq10 = metric_data(g, [[10.0, 0.0, 0.0, 0.0]])
        assert sq10[0] == pytest.approx(np.e**3, rel=1e-12)

    def test_inverse_identity_residual(self):
        chart = flrw_chart(4)
        g = flrw_metric(chart, "exp", 0.1)
        pts = chart.sample_points(per_axis=4, extra=16, seed=0)
        inv, _ = metric_data(g, pts)
        res = np.einsum("nab,nbc->nac", inv, g(pts)) - np.eye(4)
        assert np.abs(res).max() < 1e-12

    def test_signature_check_rejects_riemannian(self):
        chart = minkowski_chart(3)
        bad = MetricField(chart, lambda c: ad.stack([
            ad.stack([0.0 * c[0] + 1.0 if i == j else 0.0 * c[0] for j in range(3)])
            for i in range(3)
        ]))
        with pytest.raises(SignatureError):
            bad.check_signature([[0.0, 0.0, 0.0]])

    def test_asymmetric_components_fail_the_symmetry_check(self):
        # the metric is used as its component function gives it, so an
        # asymmetric one fails the connection suite's symmetry check
        preset = build("flrw-comoving-dust")
        base = preset.g
        skew = np.zeros((4, 4))
        skew[0, 1] = 1e-3

        def fn(c):
            return base.fn(c) + c[1][:, None, None] * skew

        bad = replace(preset, g=MetricField(preset.chart, fn, name="skewed"))
        ctx = suites.SuiteContext(bad, AD, preset.chart.sample_points(2, 8, seed=3),
                                  nonmetricity_pairs=1)
        record = {c.name: c for c in suites.connection_suite(ctx)}["metric-symmetry"]
        assert record.tol == 0.0
        assert record.max_residual > 0.0 and not record.passed

    def test_singular_metric_rejected(self):
        from weylfluid.errors import SingularMetricError

        chart = minkowski_chart(3)
        degenerate = MetricField(chart, lambda c: ad.stack([
            ad.stack([0.0 * c[0] - 1.0, 0.0 * c[0], 0.0 * c[0]]),
            ad.stack([0.0 * c[0], c[0] * c[0], 0.0 * c[0]]),  # vanishes at t = 0
            ad.stack([0.0 * c[0], 0.0 * c[0], 0.0 * c[0] + 1.0]),
        ]))
        with pytest.raises(SingularMetricError):
            metric_data(degenerate, [[0.0, 0.2, 0.1]])


def perturbed_batch(n, m, seed=0):
    """A closed-form metric with no zero component and ``n`` random points
    of its chart."""
    chart = flrw_chart(m)
    g = perturbed_metric(flrw_metric(chart, "exp", 0.1), 0.01, seed)
    return g, chart.random_points(n, seed)


class TestMetricKernels:
    """Each batched contraction of the metric layer against its
    index-notation definition, written here as an ``einsum``."""

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_inverse_trace(self, n, m):
        _, inv, dg = random_metric_batch(n, m, seed=1)
        ref = np.einsum("nij,njic->nc", inv, dg)
        assert rel_err(inverse_trace(inv, dg), ref) <= 1e-14

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_christoffel_and_volume_derivative(self, n, m):
        g, pts = perturbed_batch(n, m)
        data = metric_aux(g, pts, AD)
        dg = data.dg
        rhs = np.einsum("necb->nebc", dg) + dg - np.einsum("nbce->nebc", dg)
        ref = 0.5 * np.einsum("nae,nebc->nabc", data.inv, rhs)
        assert rel_err(data.gamma, ref) <= 1e-14
        assert np.array_equal(data.gamma, np.swapaxes(data.gamma, 2, 3))
        ref = 0.5 * data.sqrt_det[:, None] * np.einsum("nij,njid->nd", data.inv, dg)
        assert rel_err(data.dsqrt_det, ref) <= 1e-14

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_unit_jet(self, n, m):
        g, pts = perturbed_batch(n, m)
        data = metric_aux(g, pts, AD)
        rng = np.random.default_rng(2)
        u = np.eye(m)[0] + 0.1 * rng.normal(size=(n, m))
        du = rng.normal(size=(n, m, m))
        nval, dn = unit_jet(data, u, du, pts)
        u_low = np.einsum("nab,nb->na", data.val, u)
        q = np.einsum("na,na->n", u_low, u)
        dq = np.einsum("nabc,na,nb->nc", data.dg, u, u) + 2.0 * np.einsum("na,nac->nc", u_low, du)
        ref = (du / np.sqrt(-q)[:, None, None]
               - 0.5 * np.einsum("na,nc->nac", nval, dq / q[:, None]))
        assert rel_err(dn, ref) <= 1e-14

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_flow_jet_lowered_derivative(self, n, m):
        g, pts = perturbed_batch(n, m)
        flow = vector_field(g.chart, lambda c: ad.stack([1.0 + 0.1 * c[1]] + [
            0.2 * c[0] * c[j] for j in range(1, m)]))
        jet = flow_jet(g, flow, AD, pts)
        ref = (np.einsum("nbad,na->nbd", jet.data.dg, jet.n)
               + np.einsum("nba,nad->nbd", jet.data.val, jet.dn))
        assert rel_err(jet.dn_low, ref) <= 1e-14

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_dual_inverse_and_determinant(self, n, m):
        val, inv, dg = random_metric_batch(n, m, seed=3)
        inv_jet, det = ad.mat_inv_det(ad.Jet(val, dg))
        ref = -np.einsum("nij,njkd,nkl->nild", inv, dg, inv)
        assert rel_err(inv_jet.grad, ref) <= 1e-14
        ref = det.val[:, None] * np.einsum("nij,njid->nd", inv, dg)
        assert rel_err(det.grad, ref) <= 1e-14


class TestNormalizeTimelike:
    def setup_method(self):
        self.chart = minkowski_chart(4)
        self.g = minkowski_metric(self.chart)
        self.pts = self.chart.sample_points(per_axis=3, extra=8, seed=7)

    def _const_vector(self, comps):
        return vector_field(self.chart, lambda c: ad.stack([0.0 * c[0] + v for v in comps]))

    def test_rescaling(self):
        n = normalize_timelike(self.g, self._const_vector([3.0, 0, 0, 0]))
        assert np.allclose(n(self.pts), [1.0, 0, 0, 0])

    def test_spacelike_rejected(self):
        n = normalize_timelike(self.g, self._const_vector([0.0, 1.0, 0, 0]))
        with pytest.raises(NotTimelikeError):
            n(self.pts)

    @pytest.mark.parametrize("dual", [False, True])
    def test_spacelike_message_names_value_and_point(self, dual):
        n = normalize_timelike(self.g, self._const_vector([0.0, 1.0, 0, 0]))
        msg = "g(u,u) = 1 >= -1e-10 at point [0.5, 0.25, -0.25, 0.125]"
        with pytest.raises(NotTimelikeError, match=re.escape(msg)):
            (n.dual_eval if dual else n)([[0.5, 0.25, -0.25, 0.125]])

    @pytest.mark.parametrize("name", ["minkowski-perturbed", "minkowski-sheared",
                                      "schwarzschild-static"])
    def test_jacobian_matches_central_differences(self, name):
        preset = build(name, seed=3)
        n = preset.state.n
        pts = preset.chart.sample_points(per_axis=3, extra=8, seed=3)
        val, jac = AD.value_and_jacobian(n, pts)
        np.testing.assert_array_equal(val, n(pts))
        assert np.abs(jac - FD.jacobian(n, pts)).max() < Tolerances().tol_fd

    def test_flrw_comoving_unit(self):
        chart = flrw_chart(4)
        g = flrw_metric(chart, "exp", 0.1)
        n = normalize_timelike(g, vector_field(
            chart, lambda c: ad.stack([0.0 * c[0] + 1.0, 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]])))
        pts = chart.sample_points(per_axis=3, extra=8, seed=1)
        norm = np.einsum("nij,ni,nj->n", g(pts), n(pts), n(pts))
        assert np.abs(norm + 1.0).max() < 1e-12

    def test_idempotent(self):
        u = self._const_vector([2.0, 0.5, 0.0, -0.3])
        n1 = normalize_timelike(self.g, u)
        n2 = normalize_timelike(self.g, n1)
        assert np.abs(n1(self.pts) - n2(self.pts)).max() < 1e-12

    def test_lower_index_roundtrip(self):
        v = self._const_vector([1.0, 0.2, -0.4, 0.0])
        low = lower_index(self.g, v)
        assert np.allclose(low(self.pts), [-1.0, 0.2, -0.4, 0.0])
