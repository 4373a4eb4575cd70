"""Divergence of the stress-energy tensor under the Weyl connection, its
decomposition into flow-aligned and orthogonal condition residuals, the
particle-number current, and the identity tying the coordinate divergence of
the current to the two condition scalars.

The current is the weight-1 vector density

    J^mu = sqrt|g| T^{mu nu} n_nu   ( = -sqrt|g| rho n^mu for a perfect fluid)

whose conservation law is the plain coordinate divergence d_mu J^mu = 0.
Booking the non-metricity of the connection explicitly, the divergence
satisfies, identically,

    d_mu J^mu = sqrt|g| (nabla^Gamma_mu T^{mu nu} n_nu
                         + T^{mu nu} nabla^Gamma_mu n_nu)
                + m sqrt|g| A_mu T^{mu nu} n_nu

so vanishing stress-energy divergence together with the two condition
scalars s1 = T^{mu nu} nabla^Gamma_mu n_nu and s2 = T^{mu nu} A_mu n_nu
controls particle-number conservation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from ._signs import SIGN_FLOW, SIGN_ORTHO
from .connections import gamma_vv, gamma_w
from .fluid import FlowJet, flow_jet
from .geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    TensorField,
    require_finite,
    scalar_field,
    tensor2_field,
    vector_field,
)


def raise_indices2(g: MetricField, T: TensorField) -> TensorField:
    """``T^{ab} = g^{ac} g^{bd} T_{cd}`` as an evaluable field."""

    def fn(coords):
        ginv, _ = ad.mat_inv_det(g.fn(coords))
        return ad.einsum("nad,nbd->nab", ad.einsum("nac,ncd->nad", ginv, T.fn(coords)), ginv)

    return tensor2_field(g.chart, fn, variance=("u", "u"), name=f"raise({T.name})")


def _pair(field: TensorField, engine: DerivativeEngine, pts):
    """``engine.value_and_jacobian(field, pts)`` with the value required
    finite, as a call of the field requires it (a jet does not)."""
    val, jac = engine.value_and_jacobian(field, pts)
    return require_finite(val, f"field {field.name}"), jac


def _divergence_T(gam: np.ndarray, t_up) -> np.ndarray:
    """``nabla^Gamma_nu T^{mu nu}`` from the connection coefficients ``gam``
    and the ``(value, jacobian)`` pair ``t_up`` of ``T^{ab}`` on one batch."""
    val, jac = t_up
    div = np.einsum("nmvv->nm", jac)
    div += np.einsum("nmlv,nlv->nm", gam, val)
    div += np.einsum("nvlv,nml->nm", gam, val)
    return require_finite(div, "field divT")


def _conditions(jet: FlowJet, p, rho):
    """The two conditions whose joint vanishing is equivalent to
    ``nabla^Gamma_nu T^{mu nu} = 0`` for the bundle of the flow jet's
    ``(g, n, phi)``, from the jet and the ``(value, jacobian)`` pairs of
    ``p`` and ``rho`` on its batch:

        C1    = (p + rho) nabla^Gamma_nu n^nu - (p - rho) phi + n^nu d_nu rho
        C2^mu = (g^{mu nu} + n^mu n^nu) d_nu p - 2 p n^nu nabla^g_nu n^mu

    Returns ``(C1 (N,), C2 (N, m))``."""
    (pv, dp), (rv, drho) = p, rho
    div_gamma = np.einsum("naa->n", jet.dn) + np.einsum("nvlv,nl->n", jet.Gamma, jet.n)
    c1 = (pv + rv) * div_gamma - (pv - rv) * jet.phival + np.einsum("na,na->n", jet.n, drho)
    acc_up = np.einsum("nc,nac->na", jet.n, jet.dn) + gamma_vv(jet.data.gamma, jet.n)
    proj = jet.data.inv + np.einsum("na,nb->nab", jet.n, jet.n)
    c2 = np.einsum("nab,nb->na", proj, dp) - 2.0 * pv[:, None] * acc_up
    return require_finite(c1, "field C1"), require_finite(c2, "field C2")


def _decomposition_residuals(jet: FlowJet, t_up, p, rho):
    """Residuals of the sign-fixed decomposition of the stress-energy
    divergence of the flow jet's ``(g, n, phi)`` bundle into the
    conditions of :func:`_conditions`:

        n_mu nabla_nu T^{mu nu}                    = SIGN_FLOW  * C1
        (delta^mu_l + n^mu n_l) nabla_nu T^{l nu}  = SIGN_ORTHO * C2^mu

    with the two signs frozen from the brute-force oracle run recorded in
    ``_signs.py``, from the jet and the ``(value, jacobian)`` pairs of
    ``T^{ab}``, ``p`` and ``rho`` on its batch.  Returns ``(flow_residual
    (N,), ortho_residual (N, m))``."""
    div = _divergence_T(jet.Gamma, t_up)
    c1, c2 = _conditions(jet, p, rho)
    flow_div = np.einsum("na,na->n", jet.n_low, div)
    return flow_div - SIGN_FLOW * c1, div + jet.n * flow_div[:, None] - SIGN_ORTHO * c2


def particle_current(g: MetricField, T: TensorField, n: TensorField) -> TensorField:
    """``J^mu = sqrt|g| T^{mu nu} n_nu``, a weight-1 vector density."""

    def fn(coords):
        ginv, det = ad.mat_inv_det(g.fn(coords))
        tn = ad.einsum("nab,nb->na", T.fn(coords), n.fn(coords))
        return ad.sqrt(ad.absolute(det))[:, None] * ad.einsum("nma,na->nm", ginv, tn)

    return vector_field(g.chart, fn, name="J")


# Gauss-Legendre nodes per axis of a slice count and of its error reference
QUAD_NODES, QUAD_CHECK_NODES = 12, 8


@dataclass(frozen=True)
class SliceSpec:
    """A coordinate slice ``x^axis = value`` with an integration box over
    the remaining coordinates."""

    axis: int
    value: float
    box: tuple

    def validate(self, chart: Chart) -> None:
        if not 0 <= self.axis < chart.dim:
            raise ValueError(f"slice axis {self.axis} outside chart dimension")
        lo, hi = chart.intervals[self.axis]
        if not (lo < self.value < hi):
            raise ValueError(
                f"slice value {self.value} outside chart interval "
                f"[{lo}, {hi}] of {chart.names[self.axis]!r}"
            )
        rest = [j for j in range(chart.dim) if j != self.axis]
        if len(self.box) != len(rest):
            raise ValueError("integration box must cover every non-slice axis")
        for (a, b), j in zip(self.box, rest):
            la, lb = chart.intervals[j]
            if a < la or b > lb or not b > a:
                raise ValueError(
                    f"integration interval [{a}, {b}] exits chart interval of "
                    f"{chart.names[j]!r}"
                )


def _gauss_rule(spec: SliceSpec, dim: int, nodes: int):
    """Chart points ``(nodes^(m-1), m)`` and weights of the tensor
    Gauss-Legendre rule with ``nodes`` nodes per axis of the slice box."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = [0.5 * (b - a) for a, b in spec.box]
    axes = [0.5 * (a + b) + h * x for (a, b), h in zip(spec.box, half)]
    weights = np.prod(np.meshgrid(*[h * w for h in half], indexing="ij"), axis=0).ravel()
    pts = np.full((weights.size, dim), float(spec.value))
    rest = [j for j in range(dim) if j != spec.axis]
    for mj, j in zip(np.meshgrid(*axes, indexing="ij"), rest):
        pts[:, j] = mj.ravel()
    return pts, weights


def number_on_slice(J: TensorField, spec: SliceSpec):
    """Integrate the slice-normal current component over the box.

    Tensor Gauss-Legendre quadrature with ``QUAD_NODES`` nodes per axis,
    exact on per-axis polynomials of degree ``2 QUAD_NODES - 1``.  Returns
    ``(value, error_estimate)``: the estimate is the distance to the
    ``QUAD_CHECK_NODES`` rule, whose nodes go to ``J`` in the same batch.
    That distance is the error of the coarser rule, so it over-estimates the
    error of the returned value, often by orders of magnitude: 6.1e-8
    against an actual 8e-12 (the distance to a 24-node rule) on the
    ``schwarzschild-static`` preset's slice.
    """
    spec.validate(J.chart)
    (fine_pts, fine_w), (coarse_pts, coarse_w) = (
        _gauss_rule(spec, J.chart.dim, nodes) for nodes in (QUAD_NODES, QUAD_CHECK_NODES))
    vals = J(np.concatenate([fine_pts, coarse_pts]))[:, spec.axis]
    fine = float(vals[:fine_w.size] @ fine_w)
    coarse = float(vals[fine_w.size:] @ coarse_w)
    return fine, abs(fine - coarse)


@dataclass(frozen=True)
class ConditionScalars:
    """Directly contracted condition scalars and their closed-form
    residuals on one point batch, each of shape ``(N,)``.

    ``s1 = T^{mu nu} nabla^Gamma_mu n_nu`` has closed form
    ``p nabla^g_mu n^mu + (rho + (m-1) p) phi`` and ``s2 = T^{mu nu} A_mu
    n_nu`` has closed form ``rho phi``; both therefore vanish in a frame
    where the flow is divergence-free and affinely parametrized.
    """

    s1: np.ndarray
    s2: np.ndarray
    s1_residual: np.ndarray
    s2_residual: np.ndarray


def _contractions(jet: FlowJet, tv: np.ndarray):
    """``(T^{mu nu} nabla^Gamma_mu n_nu, T^{mu nu} A_mu n_nu)`` for the raised
    stress-energy values ``tv``."""
    cov_low = jet.dn_low - gamma_w(jet.Gamma, jet.n_low)
    return np.einsum("nmv,nvm->n", tv, cov_low), np.einsum("nm,nmv,nv->n", jet.A, tv, jet.n_low)


def _condition_scalars(jet: FlowJet, tv, pv, rv) -> ConditionScalars:
    """Contract the condition scalars of the flow jet's ``(g, n, phi)``
    bundle directly and compare them with their closed forms, from the jet
    and the values ``tv``, ``pv`` and ``rv`` of ``T^{ab}``, ``p`` and
    ``rho`` on its batch."""
    m = jet.n.shape[1]
    s1, s2 = _contractions(jet, tv)
    closed = pv * jet.div + (rv + (m - 1) * pv) * jet.phival
    out = ConditionScalars(s1, s2, s1 - closed, s2 - rv * jet.phival)
    for name, val in (("s1", out.s1), ("s2", out.s2), ("s1-closed-form-residual", out.s1_residual),
                      ("s2-closed-form-residual", out.s2_residual)):
        require_finite(val, f"field {name}")
    return out


def current_identity_residual(
    g: MetricField, T: TensorField, n: TensorField, phi: TensorField, engine: DerivativeEngine
) -> TensorField:
    """Residual of the divergence identity for the current built from
    ``(g, T, n)`` and the connection of the bundle built from
    ``(g, n, phi)``; an identity, independent of conservation holding.

    A central-difference engine takes one Richardson level here: the
    identity compares two derivative paths, and their O(h^2) truncation
    errors differ by more than the identity tolerance."""
    engine = _identity_engine(engine)
    t_up, J = raise_indices2(g, T), particle_current(g, T, n)

    def eval_fn(pts):
        jet = flow_jet(g, n, engine, pts, phi)
        return _current_identity(jet, _pair(t_up, engine, jet.pts), engine.jacobian(J, jet.pts))

    return scalar_field(g.chart, eval_fn=eval_fn, name="current-identity-residual")


def _identity_engine(engine: DerivativeEngine) -> DerivativeEngine:
    """The engine that :func:`current_identity_residual` takes for
    ``engine``."""
    return replace(engine, richardson=1) if engine.mode == "central-difference" else engine


def _current_identity(jet: FlowJet, t_up, dj: np.ndarray) -> np.ndarray:
    """:func:`current_identity_residual` from the flow jet, the ``(value,
    jacobian)`` pair of ``T^{ab}`` and the jacobian ``dj`` of ``J`` on its
    batch, each taken by the identity's own engine (:func:`_identity_engine`)."""
    s1, s2 = _contractions(jet, t_up[0])
    div_t = np.einsum("nv,nv->n", _divergence_T(jet.Gamma, t_up), jet.n_low)
    residual = np.einsum("naa->n", dj) - jet.data.sqrt_det * (div_t + s1 + jet.n.shape[1] * s2)
    return require_finite(residual, "field current-identity-residual")
