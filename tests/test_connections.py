"""Connection constructors and non-metricity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylfluid import autodiff as ad
from weylfluid.catalog import (
    flrw_chart,
    flrw_metric,
    minkowski_chart,
    minkowski_metric,
    perturbed_metric,
    polynomial_covector,
    schwarzschild_chart,
    schwarzschild_metric,
)
from weylfluid.connections import (
    _nonmetricity,
    eps_connection,
    eps_shift,
    gamma_vv,
    levi_civita,
)
from weylfluid.fluid import flow_jet
from weylfluid.geometry import (
    DerivativeEngine,
    MetricData,
    covector_field,
    metric_aux,
    vector_field,
)

from oracles import (
    KERNEL_BATCHES,
    christoffel_fd,
    eps_shift_loops,
    metric_at,
    random_metric_batch,
    rel_err,
)

ENG = DerivativeEngine()


@pytest.fixture(scope="module")
def minkowski():
    chart = minkowski_chart(4)
    return chart, minkowski_metric(chart)


@pytest.fixture(scope="module")
def flrw():
    chart = flrw_chart(4)
    return chart, flrw_metric(chart, "exp", 0.1)


def const_covector(chart, comps):
    return covector_field(chart, lambda c: ad.stack([0.0 * c[0] + v for v in comps]))


def nonmetricity(g, gamma, A, pts):
    """The non-metricity residuals of ``gamma`` against ``A`` on ``pts``,
    from the metric data of ``g`` with derivatives."""
    return _nonmetricity(metric_aux(g, pts, ENG), gamma(pts), A(pts))


class TestLeviCivita:
    def test_flat_vanishes(self, minkowski):
        chart, g = minkowski
        gam = levi_civita(g, ENG)(chart.sample_points(3, 8, seed=0))
        assert np.abs(gam).max() == 0.0

    def test_flrw_closed_form(self, flrw):
        chart, g = flrw
        pts = chart.sample_points(3, 8, seed=1)
        gam = levi_civita(g, ENG)(pts)
        t = pts[:, 0]
        a_adot = 0.1 * np.exp(0.2 * t)
        for i in (1, 2, 3):
            assert np.allclose(gam[:, 0, i, i], a_adot, rtol=1e-13)
            assert np.allclose(gam[:, i, 0, i], 0.1, atol=1e-13)
            assert np.allclose(gam[:, i, i, 0], 0.1, atol=1e-13)

    def test_schwarzschild_closed_form(self):
        chart = schwarzschild_chart(1.0)
        g = schwarzschild_metric(chart, 1.0)
        x = np.array([10.0, 4.0, np.pi / 2, 3.0])
        gam = levi_civita(g, ENG)(x[None, :])[0]
        assert gam[1, 0, 0] == pytest.approx(3.0 / 128.0, rel=1e-12)

    def test_against_fd_oracle(self, flrw):
        chart, g = flrw
        for x in ([0.5, 0.2, -0.1, 0.3], [3.0, -0.4, 0.6, 0.0]):
            got = levi_civita(g, ENG)(np.asarray(x)[None, :])[0]
            ref = christoffel_fd(g, x)
            assert np.allclose(got, ref, atol=1e-8)

    def test_metric_compatibility(self, flrw):
        chart, g = flrw
        pts = chart.sample_points(3, 8, seed=2)
        res, _ = nonmetricity(g, levi_civita(g, ENG), const_covector(chart, [0.0] * 4), pts)
        assert np.abs(res).max() < 1e-12


class TestEpsConnection:
    def test_zero_covector_reduces_exactly(self, flrw):
        chart, g = flrw
        pts = chart.sample_points(3, 8, seed=3)
        lc = levi_civita(g, ENG)(pts)
        ec = eps_connection(g, const_covector(chart, [0.0] * 4), ENG)(pts)
        assert np.array_equal(lc, ec)

    def test_flat_constant_covector_components(self, minkowski):
        chart, g = minkowski
        A = const_covector(chart, [-0.5, 0, 0, 0])
        gam = eps_connection(g, A, ENG)(chart.sample_points(3, 4, seed=4))
        assert np.allclose(gam[:, 0, 0, 0], 0.5)
        assert np.allclose(gam[:, 0, 1, 1], 0.5)
        assert np.allclose(gam[:, 1, 0, 1], 0.5)
        assert np.allclose(gam[:, 1, 2, 3], 0.0)

    def test_shift_against_loop_oracle(self, flrw):
        chart, g = flrw
        A = polynomial_covector(chart, np.random.default_rng(8), 0.4)
        x = np.array([1.2, 0.3, -0.5, 0.1])
        got = eps_connection(g, A, ENG)(x[None, :])[0] - levi_civita(g, ENG)(x[None, :])[0]
        gv = metric_at(g, x)
        ref = eps_shift_loops(gv, np.linalg.inv(gv), A(x[None, :])[0])
        assert np.allclose(got, ref, atol=1e-13)

    def test_torsion_free(self, flrw):
        chart, g = flrw
        A = polynomial_covector(chart, np.random.default_rng(9), 0.4)
        pts = chart.sample_points(3, 8, seed=5)
        assert np.abs(eps_connection(g, A, ENG).torsion(pts)).max() == 0.0


class TestConnectionKernels:
    """The batched deformation and non-metricity contractions against their
    index-notation definitions, written here as ``einsum``."""

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_eps_shift(self, n, m):
        val, inv, _ = random_metric_batch(n, m, seed=4)
        A = np.random.default_rng(5).normal(size=(n, m))
        eye = np.eye(m)
        ref = (np.einsum("na,nbc->nabc", np.einsum("nae,ne->na", inv, A), val)
               - np.einsum("ab,nc->nabc", eye, A) - np.einsum("ac,nb->nabc", eye, A))
        assert rel_err(eps_shift(inv, val, A), ref) <= 1e-14
        assert np.all(eps_shift(inv, val, np.zeros((n, m))) == 0.0)

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_weyl_connection_is_symmetric(self, n, m):
        chart = flrw_chart(m)
        g = perturbed_metric(flrw_metric(chart, "exp", 0.1), 0.01, seed=6)
        pts = chart.random_points(n, seed=6)
        data = metric_aux(g, pts, ENG)
        A = polynomial_covector(chart, np.random.default_rng(7), 0.4)(pts)
        gam = data.gamma + eps_shift(data.inv, data.val, A)
        assert np.array_equal(gam, np.swapaxes(gam, 2, 3))

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_gamma_vv(self, n, m):
        rng = np.random.default_rng(10)
        gam, v = rng.normal(size=(n, m, m, m)), rng.normal(size=(n, m))
        assert rel_err(gamma_vv(gam, v), np.einsum("nabc,nb,nc->na", gam, v, v)) <= 1e-14

    @pytest.mark.parametrize("n, m", KERNEL_BATCHES)
    def test_nonmetricity(self, n, m):
        val, inv, dg = random_metric_batch(n, m, seed=8)
        rng = np.random.default_rng(9)
        gam = rng.normal(size=(n, m, m, m))
        gam = gam + np.swapaxes(gam, 2, 3)
        A = rng.normal(size=(n, m))
        sqrt_det = np.sqrt(np.abs(np.linalg.det(val)))
        metric, trace = _nonmetricity(MetricData(val, inv, sqrt_det, dg), gam, A)
        ref = (dg - np.einsum("nlac,nlb->nabc", gam, val) - np.einsum("nlbc,nal->nabc", gam, val)
               - 2.0 * np.einsum("nc,nab->nabc", A, val))
        assert rel_err(metric, ref) <= 1e-14
        ref = sqrt_det[:, None] * (0.5 * np.einsum("nij,njic->nc", inv, dg)
                                   - np.einsum("nllc->nc", gam) - m * A)
        assert rel_err(trace, ref) <= 1e-14


class TestCovariantDerivative:
    def test_flrw_comoving_expansion_rate(self, flrw):
        # the metric divergence of the comoving flow, read off its flow jet
        chart, g = flrw
        n = vector_field(chart, lambda c: ad.stack([0.0 * c[0] + 1.0] + [0.0 * c[0]] * 3))
        pts = chart.sample_points(3, 8, seed=7)
        assert np.allclose(flow_jet(g, n, ENG, pts).div, 0.3, atol=1e-12)


class TestNonMetricity:
    def test_weyl_form_flat(self, minkowski):
        chart, g = minkowski
        A = const_covector(chart, [-0.5, 0, 0, 0])
        gam = eps_connection(g, A, ENG)
        pts = chart.sample_points(3, 8, seed=9)
        metric, trace = nonmetricity(g, gam, A, pts)
        assert np.abs(metric).max() < 1e-12
        assert np.abs(trace).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_weyl_form_seeded_pairs(self, seed):
        chart = minkowski_chart(4)
        g = perturbed_metric(minkowski_metric(chart), 0.01, seed)
        A = polynomial_covector(chart, np.random.default_rng(seed + 1), 0.4)
        gam = eps_connection(g, A, ENG)
        pts = chart.sample_points(2, 6, seed=seed)
        metric, trace = nonmetricity(g, gam, A, pts)
        assert np.abs(metric).max() < 1e-9
        assert np.abs(trace).max() < 1e-9

    def test_density_derivative_metric_connection(self, flrw):
        # Levi-Civita transports the volume factor: weight-1 derivative vanishes
        chart, g = flrw
        pts = chart.sample_points(3, 8, seed=10)
        _, res = nonmetricity(g, levi_civita(g, ENG), const_covector(chart, [0.0] * 4), pts)
        assert np.abs(res).max() < 1e-12
