"""Preset construction, validation and determinism."""

import numpy as np
import pytest

from weylfluid import autodiff as ad
from weylfluid import catalog
from weylfluid.catalog import (
    PRESETS,
    build,
    minkowski_chart,
    minkowski_metric,
    null_tangent,
    perturbed_metric,
    polynomial_covector,
    polynomial_scalar,
    preset_names,
    seeded_positive_factor,
    validate_parameters,
    verification_matrix,
)
from weylfluid.conformal import conformal_rescale
from weylfluid.config import SuiteConfig
from weylfluid.conservation import particle_current, raise_indices2
from weylfluid.errors import ConstructionError
from weylfluid.fluid import fluid_connection, stress_energy
from weylfluid.geometry import (
    DerivativeEngine,
    MetricField,
    normalize_timelike,
    vector_field,
)
from weylfluid.suites import Tolerances

from oracles import circular_orbit_init


def test_unknown_preset_rejected():
    with pytest.raises(ConstructionError, match="unknown preset"):
        build("minkowski-superfluid")


def test_unknown_parameter_rejected():
    with pytest.raises(ConstructionError, match="unknown parameter"):
        build("flrw-comoving-dust", {"hubble": 0.1})
    with pytest.raises(ConstructionError):
        validate_parameters("flrw-comoving-dust", {"hubble": 0.1})


def test_every_preset_builds_and_validates():
    for name in verification_matrix():
        preset = build(name)
        assert preset.name == name
        pts = preset.chart.sample_points(3, 16, seed=0)
        preset.g.check_signature(pts)
        norm = np.einsum("nij,ni,nj->n",
                         preset.g(pts), preset.state.n(pts), preset.state.n(pts))
        assert np.abs(norm + 1.0).max() < 1e-10


def test_build_is_deterministic():
    a = build("minkowski-sheared", seed=7)
    b = build("minkowski-sheared", seed=7)
    pts = a.chart.sample_points(3, 16, seed=1)
    assert np.array_equal(a.g(pts), b.g(pts))
    assert np.array_equal(a.state.n(pts), b.state.n(pts))
    assert np.array_equal(a.state.phi(pts), b.state.phi(pts))


def test_seed_changes_perturbation():
    a = build("minkowski-perturbed", seed=1)
    b = build("minkowski-perturbed", seed=2)
    pts = a.chart.sample_points(3, 8, seed=0)
    assert np.abs(a.g(pts) - b.g(pts)).max() > 1e-5


def test_conserved_dust_density_profile():
    preset = build("flrw-comoving-dust", {"H": 0.1, "rho0": 1.0})
    pts = preset.chart.sample_points(3, 8, seed=2)
    assert np.allclose(preset.state.rho(pts), np.exp(-0.3 * pts[:, 0]), rtol=1e-14)


def test_oversized_perturbation_rejected():
    base = build("minkowski-dust-rest").g
    with pytest.raises(ConstructionError, match="eps"):
        perturbed_metric(base, 0.5, seed=0)


def test_perturbed_signature_still_lorentzian():
    for seed in range(5):
        preset = build("minkowski-perturbed", seed=seed)
        preset.g.check_signature(preset.chart.sample_points(4, 32, seed=seed))


def test_null_tangent_is_null():
    preset = build("schwarzschild-static")
    x0 = np.array([5.0, 6.0, np.pi / 2, 2.0])
    k = null_tangent(preset.g, x0, [0.3, 0.5, -0.2])
    gv = preset.g(x0[None, :])[0]
    assert abs(k @ gv @ k) < 1e-12
    assert k[0] > 0


def test_circular_orbit_is_unit_timelike():
    preset = build("schwarzschild-static")
    x0, v0, period = circular_orbit_init(preset, 6.0)
    gv = preset.g(x0[None, :])[0]
    assert v0 @ gv @ v0 == pytest.approx(-1.0, abs=1e-12)
    assert period > 0


def test_preset_names_sorted_and_complete():
    names = preset_names()
    assert names == tuple(sorted(names))
    assert set(verification_matrix()) <= set(names)


def test_table_pairs_give_back_preset_names():
    for name in verification_matrix():
        entry = PRESETS[name]
        assert SuiteConfig(entry.spacetime, entry.fluid).preset_name == name


def test_minkowski3_dust_honours_phi():
    preset = build("minkowski3-dust", {"phi": 0.9})
    pts = preset.chart.sample_points(3, 8, seed=0)
    assert preset.chart.dim == 3
    assert np.all(preset.state.phi(pts) == 0.9)


def test_minkowski3_dust_rejects_dim():
    with pytest.raises(ConstructionError, match="unknown parameter 'dim'"):
        validate_parameters("minkowski3-dust", {"dim": 4})


def _per_term_polynomials(chart, rng, scale, count, pts):
    """Values ``(N, count)`` and gradients ``(N, count, m)`` of ``count``
    seeded polynomials, drawn and summed term by term."""
    m = chart.dim
    mid = np.array([0.5 * (a + b) for a, b in chart.intervals])
    half = np.array([0.5 * (b - a) for a, b in chart.intervals])
    xi = (pts - mid) / half
    vals, grads = [], []
    for _ in range(count):
        c0 = scale * rng.uniform(-1.0, 1.0)
        c1 = scale * rng.uniform(-1.0, 1.0, m)
        c2 = scale * rng.uniform(-1.0, 1.0, (m, m))
        c2 = 0.5 * (c2 + c2.T)
        val = c0 + sum(c1[i] * xi[:, i] for i in range(m))
        val = val + sum(c2[i, j] * xi[:, i] * xi[:, j] for i in range(m) for j in range(m))
        vals.append(val)
        grads.append(np.stack(
            [(c1[j] + 2.0 * sum(c2[i, j] * xi[:, i] for i in range(m))) / half[j]
             for j in range(m)], axis=-1))
    return np.stack(vals, axis=1), np.stack(grads, axis=1)


def _assert_close(got, ref, rtol=1e-13):
    """Agreement to ``rtol`` relative to the largest entry of ``ref``."""
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestSeededPolynomials:
    """One stacked kernel evaluates every seeded polynomial of a field."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_covector_takes_the_draws_of_successive_scalars(self, m):
        chart = minkowski_chart(m)
        pts = chart.sample_points(3, 8, seed=m)
        cov = polynomial_covector(chart, np.random.default_rng(5), 0.4)
        rng = np.random.default_rng(5)
        scalars = [polynomial_scalar(chart, rng, 0.4) for _ in range(m)]
        val, jac = cov.dual_eval(pts)
        for k, f in enumerate(scalars):
            fval, fjac = f.dual_eval(pts)
            _assert_close(val[:, k], fval)
            _assert_close(jac[:, k], fjac)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_values_and_jacobians_match_per_term_reference(self, m):
        chart = minkowski_chart(m)
        pts = chart.sample_points(3, 8, seed=m)
        f = polynomial_scalar(chart, np.random.default_rng(3), 0.7)
        cov = polynomial_covector(chart, np.random.default_rng(4), 0.4)
        for field, rng, scale, count in ((f, 3, 0.7, 1), (cov, 4, 0.4, m)):
            ref_val, ref_jac = _per_term_polynomials(
                chart, np.random.default_rng(rng), scale, count, pts)
            val, jac = field.dual_eval(pts)
            _assert_close(val.reshape(len(pts), count), ref_val)
            _assert_close(jac.reshape(len(pts), count, m), ref_jac)

    @pytest.mark.parametrize("m", [3, 4])
    def test_coefficients_take_the_per_polynomial_draw_order(self, m):
        # every seeded record depends on this order: each polynomial's c0,
        # c1 and c2 in turn, drawn one polynomial at a time
        chart = minkowski_chart(m)
        count = m * (m + 1) // 2
        rng = np.random.default_rng(11)
        mid, half, (iu, ju), coef, dc1, dc2 = catalog._seeded_polynomials(
            chart, rng, 0.3, count).args
        ref_rng = np.random.default_rng(11)
        ref_coef, c1s, c2s = [], [], []
        for _ in range(count):
            c0 = 0.3 * ref_rng.uniform(-1.0, 1.0)
            c1 = 0.3 * ref_rng.uniform(-1.0, 1.0, m)
            c2 = 0.3 * ref_rng.uniform(-1.0, 1.0, (m, m))
            c2 = 0.5 * (c2 + c2.T)
            ref_coef.append(np.concatenate([[c0], c1, np.where(iu == ju, 1.0, 2.0) * c2[iu, ju]]))
            c1s.append(c1)
            c2s.append(c2)
        np.testing.assert_array_equal(coef, np.stack(ref_coef, axis=1))
        np.testing.assert_array_equal(dc1, (np.array(c1s) / half).ravel())
        np.testing.assert_array_equal(
            dc2, (2.0 * np.array(c2s) / half).transpose(1, 0, 2).reshape(m, count * m))
        # the stream goes on where the per-polynomial draws leave it
        np.testing.assert_array_equal(rng.uniform(size=4), ref_rng.uniform(size=4))

    @pytest.mark.parametrize("m", [2, 4])
    def test_perturbed_metric_matches_per_term_reference(self, m):
        chart = minkowski_chart(m)
        pts = chart.sample_points(3, 8, seed=1)
        base = minkowski_metric(chart)
        g = perturbed_metric(base, 0.01, seed=6)
        ref_val, ref_jac = _per_term_polynomials(
            chart, np.random.default_rng(6), 1.0, m * (m + 1) // 2, pts)
        h_val = np.empty((len(pts), m, m))
        h_jac = np.empty((len(pts), m, m, m))
        for k, (i, j) in enumerate(zip(*np.triu_indices(m))):
            h_val[:, i, j] = h_val[:, j, i] = ref_val[:, k]
            h_jac[:, i, j] = h_jac[:, j, i] = ref_jac[:, k]
        val, jac = g.dual_eval(pts)
        _assert_close(val, base(pts) + 0.01 * h_val)
        _assert_close(jac, 0.01 * h_jac)

    def test_jacobian_chains_through_coordinate_duals(self):
        # coordinates that are themselves functions of the seeds: x' = M x
        chart = minkowski_chart(3, t_half=2.0, space_half=2.0)
        pts = minkowski_chart(3).sample_points(3, 8, seed=2)
        mat = np.array([[1.0, 0.2, 0.0], [-0.3, 0.9, 0.1], [0.0, 0.4, 1.1]])
        seeds = ad.seed(pts)
        coords = [sum(mat[j, d] * seeds[d] for d in range(3)) for j in range(3)]
        cov = polynomial_covector(chart, np.random.default_rng(8), 0.5)
        _, ref_jac = _per_term_polynomials(
            chart, np.random.default_rng(8), 0.5, 3, np.stack([ad.value(c) for c in coords], -1))
        got = cov.fn(coords).grad
        _assert_close(got, ref_jac @ mat)

    def test_value_path_agrees_with_dual_path(self):
        # every closed-form field the suites differentiate, on every preset:
        # the value path gives the jet's value bit for bit, and the jet's
        # jacobian agrees with central differences
        fd = DerivativeEngine("central-difference", richardson=1)
        for name in verification_matrix():
            preset = build(name, seed=2)
            g, st = preset.g, preset.state
            pts = preset.chart.sample_points(2, 8, seed=2)
            T = stress_energy(g, st.n, st.p, st.rho)
            bundle = fluid_connection(g, st.n, st.phi, DerivativeEngine())
            factor = seeded_positive_factor(preset.chart, 5)
            rescaled = conformal_rescale(bundle, st, factor, DerivativeEngine())[0].g
            fields = (g, st.n, st.p, st.rho, st.phi, T,
                      raise_indices2(g, T), particle_current(g, T, st.n), rescaled,
                      polynomial_covector(preset.chart, np.random.default_rng(1), 0.3))
            for field in fields:
                val, jac = field.dual_eval(pts)
                np.testing.assert_array_equal(field(pts), val, err_msg=f"{name} {field.name}")
                assert np.abs(jac - fd.jacobian(field, pts)).max() < Tolerances().tol_fd, \
                    f"{name} {field.name}"


class TestWorkGuards:
    """A dual evaluation of a perturbed metric or a unit flow does a fixed,
    small number of batched operations, whatever the batch size."""

    def test_one_stacked_polynomial_call_per_metric_evaluation(self, monkeypatch):
        calls = []
        original = catalog._polynomials

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(catalog, "_polynomials", counting)
        preset = build("minkowski-perturbed", seed=0)
        pts = preset.chart.sample_points(3, 8, seed=0)
        for field in (preset.g, preset.state.n):
            before = len(calls)
            field.dual_eval(pts)
            assert len(calls) - before == 1

    @pytest.mark.parametrize("m", [2, 4])
    def test_unit_flow_contracts_row_first(self, monkeypatch, m):
        chart = minkowski_chart(m)
        pts = chart.sample_points(3, 8, seed=0)
        gc = perturbed_metric(minkowski_metric(chart), 0.01, seed=0).fn(ad.seed(pts))
        uc = 0.1 * ad.stack(ad.seed(pts)) + np.eye(m)[0] * 2.0
        n = normalize_timelike(MetricField(chart, lambda coords: gc),
                               vector_field(chart, lambda coords: uc))
        products = []
        original_mul, original_einsum = ad.Jet.__mul__, ad.einsum

        def counting_mul(self, other):
            products.append(1)
            return original_mul(self, other)

        def counting_einsum(spec, a, b):
            products.append(1)
            return original_einsum(spec, a, b)

        monkeypatch.setattr(ad.Jet, "__mul__", counting_mul)
        monkeypatch.setattr(ad.Jet, "__rmul__", counting_mul)
        monkeypatch.setattr(ad, "einsum", counting_einsum)
        n.fn(ad.seed(pts))
        # at most m^2 + m for g(u, u), m for the rescaling of u; the jet
        # contractions g u and u (g u) and one rescaling make three
        assert 0 < len(products) <= min(3, m * m + 2 * m)

    def test_unit_flow_jet_operations_do_not_grow_with_dimension(self, monkeypatch):
        # a unit flow contracts whole arrays: the jets it forms do not
        # multiply with the components, as per-component loops would
        counts = []
        for m in (2, 4):
            chart = minkowski_chart(m)
            pts = chart.sample_points(3, 8, seed=0)
            gc = perturbed_metric(minkowski_metric(chart), 0.01, seed=0).fn(ad.seed(pts))
            uc = 0.1 * ad.stack(ad.seed(pts)) + np.eye(m)[0] * 2.0
            n = normalize_timelike(MetricField(chart, lambda coords: gc),
                                   vector_field(chart, lambda coords: uc))
            coords = ad.seed(pts)
            jets = []
            original = ad.Jet.__init__

            def counting(self, val, grad):
                jets.append(1)
                original(self, val, grad)

            with monkeypatch.context() as patch:
                patch.setattr(ad.Jet, "__init__", counting)
                n.fn(coords)
            counts.append(len(jets))
        assert counts[0] == counts[1] > 0
