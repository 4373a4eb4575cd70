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


def _fd_jacobian(f, pts, h=1e-6):
    """Central-difference jacobian of ``f`` evaluated on plain coordinate
    arrays, derivative index last."""
    cols = []
    for j in range(pts.shape[1]):
        dp = np.zeros_like(pts)
        dp[:, j] = h
        cols.append((f(tuple((pts + dp).T)) - f(tuple((pts - dp).T))) / (2 * h))
    return np.stack(cols, axis=-1)


def _check_jet(f, pts, rel=1e-7):
    """The jet of ``f`` at seeded ``pts``: its value is the value path's bit
    for bit and its gradient agrees with central differences."""
    jet = f(ad.seed(pts))
    np.testing.assert_array_equal(jet.val, f(tuple(pts.T)))
    ref = _fd_jacobian(f, pts)
    assert jet.grad.shape == ref.shape
    assert np.abs(jet.grad - ref).max() <= rel * max(1.0, np.abs(ref).max())
    return jet


def _random_jet(coords, rng, shape):
    """An ``(N, *shape)`` quadratic of the coordinates with random
    coefficients."""
    out = rng.uniform(-1.0, 1.0, shape)
    for c in coords:
        c = c[(slice(None),) + (None,) * len(shape)]
        out = out + rng.uniform(-1.0, 1.0, shape) * c + 0.2 * rng.uniform(-1.0, 1.0, shape) * c * c
    return out


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_shaped_and_broadcast_arithmetic(s):
    rng = np.random.default_rng(s)
    pts = rng.uniform(0.5, 1.5, (3, 2))
    c = rng.uniform(-1.0, 1.0, (2, 3))

    def f(coords):
        t, x = coords
        a = ad.stack([t, x * t, ad.exp(x)])  # (N, 3)
        b = ad.stack([x, t / x])[:, :, None] * c  # (N, 2, 3) against a constant
        mixed = (a[:, None, :] * b - 3.0 / (a[:, None, :] + 2.0)) / (b + 3.0)
        return mixed - ad.diag(a)[:, 1:] ** 2 + (2.0 - a[:, None, :]) * ad.sqrt(t)[:, None, None]

    assert _check_jet(f, pts).val.shape == (3, 2, 3)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["nab,nb->na", "nac,ncd->nad", "nad,nbd->nab", "nk,kc->nc"]),
       st.sampled_from(["jet-jet", "jet-array", "array-jet"]))
def test_einsum_product_rule(s, spec, kinds):
    rng = np.random.default_rng(s)
    pts = rng.uniform(-1.0, 1.0, (4, 3))
    ins = spec.split("->")[0].split(",")
    shapes = [tuple(len(pts) if i == "n" else 3 for i in op) for op in ins]
    kinds = kinds.split("-")
    if not ins[1].startswith("n"):
        kinds = ["jet", "array"]  # a constant operand carries no point axis

    def operand(coords, k):
        r = np.random.default_rng(s + k)
        if kinds[k] == "array":
            return r.uniform(-1.0, 1.0, shapes[k])
        return _random_jet(coords, r, shapes[k][1:])

    _check_jet(lambda coords: ad.einsum(spec, operand(coords, 0), operand(coords, 1)), pts)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5))
def test_matrix_inverse_and_det_duals(s, m):
    rng = np.random.default_rng(s)
    pts = rng.uniform(-1.0, 1.0, (3, 2))

    def mat(coords):
        return np.eye(m) + 0.2 * _random_jet(coords, np.random.default_rng(s + 1), (m, m))

    inv = _check_jet(lambda coords: ad.mat_inv_det(mat(coords))[0], pts)
    det = _check_jet(lambda coords: ad.mat_inv_det(mat(coords))[1], pts)
    a = mat(tuple(pts.T))
    assert np.abs(a @ inv.val - np.eye(m)).max() <= 1e-13
    assert np.abs(det.val - np.linalg.det(a)).max() <= 1e-13 * np.abs(det.val).max()
