"""Preset construction, validation and determinism."""

import numpy as np
import pytest

from weylfluid.catalog import (
    PRESETS,
    build,
    circular_orbit_init,
    null_tangent,
    perturbed_metric,
    preset_names,
    validate_parameters,
    verification_matrix,
)
from weylfluid.config import SuiteConfig
from weylfluid.errors import ConstructionError


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
