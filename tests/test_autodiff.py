"""Dual-number arithmetic against numeric differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylfluid import autodiff as ad

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
nonzero = st.floats(min_value=0.2, max_value=3.0)


def _single(x):
    d = ad.seed(np.array([[x, 0.0]]))
    return d[0]


def _numdiff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


@settings(max_examples=60, deadline=None)
@given(finite, finite)
def test_arithmetic_chain(a, b):
    d = _single(a)
    expr = 2.0 * d * d - d / 1.5 + b - d
    assert expr.grad[0, 0] == pytest.approx(4.0 * a - 1.0 / 1.5 - 1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(nonzero)
def test_division_and_power(x):
    d = _single(x)
    expr = (1.0 / d) + d**3
    assert expr.grad[0, 0] == pytest.approx(-1.0 / x**2 + 3 * x**2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(finite)
def test_transcendentals(x):
    d = _single(x)
    for f, fn in [(ad.exp, np.exp), (ad.sin, np.sin), (ad.cos, np.cos), (ad.tanh, np.tanh)]:
        got = f(d).grad[0, 0]
        ref = _numdiff(fn, x)
        assert got == pytest.approx(ref, rel=1e-7, abs=1e-7)


def test_log_sqrt_positive_domain():
    d = _single(2.5)
    assert ad.log(d).grad[0, 0] == pytest.approx(1 / 2.5, rel=1e-14)
    assert ad.sqrt(d).grad[0, 0] == pytest.approx(0.5 / np.sqrt(2.5), rel=1e-14)


def test_seed_structure():
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    duals = ad.seed(pts)
    assert len(duals) == 3
    for j, d in enumerate(duals):
        assert np.allclose(d.val, pts[:, j])
        expect = np.zeros((2, 3))
        expect[:, j] = 1.0
        assert np.array_equal(d.grad, expect)


def test_pack_mixed_entries():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    t, x = ad.seed(pts)
    comps = [[t * x, 1.0], [0.0, x]]
    val, grad = ad.pack(comps, 2, 2, want_grad=True)
    assert np.allclose(val[:, 0, 0], pts[:, 0] * pts[:, 1])
    assert np.allclose(val[:, 0, 1], 1.0)
    assert np.allclose(grad[:, 0, 0], pts[:, ::-1])
    assert np.allclose(grad[:, 0, 1], 0.0)


def test_matrix_inverse_and_det_duals():
    pts = np.array([[0.3, -0.2], [1.1, 0.4]])
    t, x = ad.seed(pts)
    entries = [[1.0 + t * t, t * x], [t * x, 2.0 + x]]

    inv = ad.mat_inv(entries, 2, 2)
    val, _ = ad.pack(entries, 2, 2, want_grad=True)
    ival, igrad = ad.pack(inv, 2, 2, want_grad=True)
    assert np.allclose(np.einsum("nij,njk->nik", val, ival), np.eye(2), atol=1e-14)

    # derivative of the inverse against finite differences
    def inv_at(p):
        tt, xx = p
        mat = np.array([[1 + tt * tt, tt * xx], [tt * xx, 2 + xx]])
        return np.linalg.inv(mat)

    for n, p in enumerate(pts):
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = 1e-6
            ref = (inv_at(p + dp) - inv_at(p - dp)) / 2e-6
            assert np.allclose(igrad[n, :, :, j], ref, atol=1e-8)

    det = ad.mat_det(entries, 2, 2)
    dets = np.array([np.linalg.det([[1 + t * t, t * x], [t * x, 2 + x]]) for t, x in pts])
    assert np.allclose(det.val, dets, rtol=1e-14)
