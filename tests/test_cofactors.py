"""The cofactor kernel behind every batched inverse and determinant."""

import numpy as np
import pytest

from weylfluid import autodiff as ad, cofactors
from weylfluid.catalog import build
from weylfluid.cofactors import DET_FLOOR, adjugate_det, inverse_det
from weylfluid.conservation import particle_current
from weylfluid.errors import SingularMetricError
from weylfluid.fluid import stress_energy
from weylfluid.geometry import DerivativeEngine, metric_aux

from oracles import KERNEL_BATCHES, leibniz_det, random_metric_batch, rel_err

# batch sizes of the kernel tests; 4913 points span several blocks
SIZES = sorted({n for n, _ in KERNEL_BATCHES} | {4913})


def nonsymmetric_batch(n, m, seed):
    """Well-conditioned matrices with no symmetry."""
    rng = np.random.default_rng(seed)
    return np.eye(m) + 0.1 * rng.normal(size=(n, m, m))


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", ["metric", "nonsymmetric"])
def test_agrees_with_lapack(batch, n, m):
    a = random_metric_batch(n, m, seed=m)[0] if batch == "metric" else nonsymmetric_batch(n, m, m)
    inv, det = inverse_det(a)
    assert rel_err(det, np.linalg.det(a)) <= 1e-13
    assert rel_err(inv, np.linalg.inv(a)) <= 1e-13
    adj, det2 = adjugate_det(a)
    assert np.array_equal(det, det2)
    assert rel_err(a @ adj, det[:, None, None] * np.eye(m)) <= 1e-13


@pytest.mark.parametrize("m", range(2, 6))
def test_integer_determinant_is_exact(m):
    rng = np.random.default_rng(m)
    a = rng.integers(-9, 10, size=(60, m, m))
    adj, det = adjugate_det(a)
    assert det.tolist() == [float(leibniz_det(x.tolist())) for x in a]
    # integer products and sums below 2^53 are exact in floating point
    assert np.array_equal(a @ adj, det[:, None, None] * np.eye(m))
    assert rel_err(det, np.linalg.det(a)) <= 1e-13


@pytest.mark.parametrize("m", range(2, 7))
def test_rows_do_not_depend_on_the_batch(m):
    # every row of a batch is the adjugate of that matrix alone, bit for bit,
    # within and across the point blocks
    a = nonsymmetric_batch(300, m, seed=m)
    adj, det = adjugate_det(a)
    for i in (0, 1, 63, 255, 256, 299):
        alone = adjugate_det(a[i:i + 1])
        assert np.array_equal(alone[0][0], adj[i]) and alone[1][0] == det[i]


def test_singular_batch_raises_before_dividing():
    a = np.stack([np.eye(3), np.diag([1.0, 0.5 * DET_FLOOR, 1.0])])
    with pytest.raises(SingularMetricError, match="at batch row 1"):
        inverse_det(a)
    with pytest.raises(SingularMetricError, match=r"at point \[0\.5 1\. \]"):
        inverse_det(a, np.array([[0.0, 0.0], [0.5, 1.0]]))
    # a determinant alone needs no division
    assert adjugate_det(a)[1][1] == 0.5 * DET_FLOOR


def test_no_lapack_inverse_or_determinant(monkeypatch):
    """The metric layer, the dual matrix algebra and the particle current
    run with the LAPACK inverse and determinant switched off."""
    preset = build("flrw-comoving-dust")
    g, st = preset.g, preset.state
    pts = preset.chart.sample_points(3, 8, seed=1)
    val, _, dg = random_metric_batch(7, 4, seed=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-matrix LAPACK call on a point batch")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    metric_aux(g, pts)
    metric_aux(g, pts, DerivativeEngine())
    for mat in (ad.Jet(val, dg), val):
        ad.mat_inv_det(mat)
    J = particle_current(g, stress_energy(g, st.n, st.p, st.rho), st.n)
    J(pts)
    J.dual_eval(pts)


def test_particle_current_inverts_once(monkeypatch):
    calls = []
    kernel = cofactors.adjugate_det
    monkeypatch.setattr(cofactors, "adjugate_det", lambda a: calls.append(len(a)) or kernel(a))
    preset = build("flrw-comoving-dust")
    g, st = preset.g, preset.state
    J = particle_current(g, stress_energy(g, st.n, st.p, st.rho), st.n)
    J.dual_eval(preset.chart.sample_points(3, 8, seed=1))
    assert calls == [3**4 + 8]
