"""Preset construction, validation and determinism."""

import numpy as np
import pytest

from weylfluid import autodiff as ad
from weylfluid import catalog
from weylfluid.catalog import (
    PRESETS,
    build,
    circular_orbit_init,
    minkowski_chart,
    minkowski_metric,
    null_tangent,
    perturbed_metric,
    polynomial_covector,
    polynomial_scalar,
    preset_names,
    validate_parameters,
    verification_matrix,
)
from weylfluid.config import SuiteConfig
from weylfluid.errors import ConstructionError
from weylfluid.geometry import MetricField, normalize_timelike, vector_field


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
        got = np.stack([c.grad for c in cov.fn(coords)], axis=1)
        _assert_close(got, ref_jac @ mat)

    def test_value_path_agrees_with_dual_path(self):
        preset = build("minkowski-perturbed", seed=2)
        pts = preset.chart.sample_points(3, 8, seed=2)
        for field in (preset.g, preset.state.n,
                      polynomial_covector(preset.chart, np.random.default_rng(1), 0.3)):
            np.testing.assert_array_equal(field(pts), field.dual_eval(pts)[0])


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
        uc = [c + 2.0 if j == 0 else 0.1 * c for j, c in enumerate(ad.seed(pts))]
        n = normalize_timelike(MetricField(chart, lambda coords: gc),
                               vector_field(chart, lambda coords: uc))
        products = []
        original = ad.Dual.__mul__

        def counting(self, other):
            products.append(1)
            return original(self, other)

        monkeypatch.setattr(ad.Dual, "__mul__", counting)
        monkeypatch.setattr(ad.Dual, "__rmul__", counting)
        n.fn(ad.seed(pts))
        # m^2 + m for g(u, u), m for the rescaling of u
        assert len(products) <= m * m + 2 * m
