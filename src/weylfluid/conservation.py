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
from .connections import ConnectionField, gamma_vv, gamma_w
from .errors import CapabilityError
from .fluid import FlowJet, flow_jet, stress_energy
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


class VectorDensityField(TensorField):
    """Contravariant components carrying density weight 1."""

    weight = 1

    def __init__(self, chart, fn=None, *, eval_fn=None, reads=(), name=""):
        super().__init__(chart, ("u",), fn, eval_fn=eval_fn, reads=reads, name=name)


def raise_indices2(g: MetricField, T: TensorField) -> TensorField:
    """``T^{ab} = g^{ac} g^{bd} T_{cd}`` as an evaluable field."""
    m = g.chart.dim

    def fn(coords):
        nb = np.size(ad.value(coords[0]))
        ginv = ad.mat_inv(g.fn(coords), nb, m)
        tc = T.fn(coords)
        half = [
            [sum(ginv[a][c] * tc[c][d] for c in range(m)) for d in range(m)]
            for a in range(m)
        ]
        return [
            [sum(half[a][d] * ginv[b][d] for d in range(m)) for b in range(m)]
            for a in range(m)
        ]

    return tensor2_field(g.chart, fn, reads=(g, T), variance=("u", "u"), name=f"raise({T.name})")


def _divergence_T(t_up: TensorField, gam: np.ndarray, engine: DerivativeEngine, pts) -> np.ndarray:
    """``nabla^Gamma_nu T^{mu nu}`` of the raised tensor for connection
    coefficients ``gam`` already evaluated at ``pts``."""
    val, jac = engine.value_and_jacobian(t_up, pts)
    div = np.einsum("nmvv->nm", jac)
    div += np.einsum("nmlv,nlv->nm", gam, val)
    div += np.einsum("nvlv,nml->nm", gam, val)
    return require_finite(div, "field divT")


def weyl_divergence_T(
    g: MetricField, gamma: ConnectionField, T: TensorField, engine: DerivativeEngine
) -> TensorField:
    """``nabla^Gamma_nu T^{mu nu}`` with indices raised by the metric."""
    t_up = raise_indices2(g, T)
    return vector_field(g.chart, eval_fn=lambda pts: _divergence_T(t_up, gamma(pts), engine, pts),
                        name=f"divT({T.name})")


def _conditions(jet: FlowJet, p: TensorField, rho: TensorField, engine: DerivativeEngine, pts):
    """``(C1 (N,), C2 (N, m))`` of :func:`conservation_condition_residuals`
    from the flow jet of the bundle."""
    div_gamma = np.einsum("naa->n", jet.dn) + np.einsum("nvlv,nl->n", jet.Gamma, jet.n)
    drho = engine.jacobian(rho, pts)
    pv, rv, fv = p(pts), rho(pts), jet.phi(pts)
    c1 = (pv + rv) * div_gamma - (pv - rv) * fv + np.einsum("na,na->n", jet.n, drho)
    acc_up = np.einsum("nc,nac->na", jet.n, jet.dn) + gamma_vv(jet.data.gamma, jet.n)
    proj = jet.data.inv + np.einsum("na,nb->nab", jet.n, jet.n)
    c2 = np.einsum("nab,nb->na", proj, engine.jacobian(p, pts)) - 2.0 * pv[:, None] * acc_up
    return require_finite(c1, "field C1"), require_finite(c2, "field C2")


def conservation_condition_residuals(
    g: MetricField,
    n: TensorField,
    p: TensorField,
    rho: TensorField,
    phi: TensorField,
    engine: DerivativeEngine,
):
    """The two scalars whose joint vanishing is equivalent to
    ``nabla^Gamma_nu T^{mu nu} = 0`` for the bundle built from ``(g, n, phi)``:

        C1   = (p + rho) nabla^Gamma_nu n^nu - (p - rho) phi + n^nu d_nu rho
        C2^mu = (g^{mu nu} + n^mu n^nu) d_nu p - 2 p n^nu nabla^g_nu n^mu

    Returns ``(C1 scalar field, C2 vector field)``.
    """

    def conditions(pts):
        return _conditions(flow_jet(g, n, engine, pts, phi), p, rho, engine, pts)

    c1 = scalar_field(g.chart, eval_fn=lambda pts: conditions(pts)[0], name="C1")
    c2 = vector_field(g.chart, eval_fn=lambda pts: conditions(pts)[1], name="C2")
    return c1, c2


def decomposition_residuals(
    g: MetricField,
    n: TensorField,
    p: TensorField,
    rho: TensorField,
    phi: TensorField,
    engine: DerivativeEngine,
    pts,
):
    """Residuals of the sign-fixed decomposition of the stress-energy
    divergence of the ``(g, n, phi)`` bundle into the condition pair:

        n_mu nabla_nu T^{mu nu}                    = SIGN_FLOW  * C1
        (delta^mu_l + n^mu n_l) nabla_nu T^{l nu}  = SIGN_ORTHO * C2^mu

    with the two signs frozen from the brute-force oracle run recorded in
    ``_signs.py``.  Returns ``(flow_residual (N,), ortho_residual (N, m))``.
    """
    pts = g.chart.as_points(pts)
    jet = flow_jet(g, n, engine, pts, phi)
    div = _divergence_T(raise_indices2(g, stress_energy(g, n, p, rho)), jet.Gamma, engine, pts)
    c1, c2 = _conditions(jet, p, rho, engine, pts)
    flow_div = np.einsum("na,na->n", jet.n_low, div)
    return flow_div - SIGN_FLOW * c1, div + jet.n * flow_div[:, None] - SIGN_ORTHO * c2


def particle_current(g: MetricField, T: TensorField, n: TensorField) -> VectorDensityField:
    """``J^mu = sqrt|g| T^{mu nu} n_nu``, a weight-1 vector density."""
    m = g.chart.dim

    def fn(coords):
        nb = np.size(ad.value(coords[0]))
        gc = g.fn(coords)
        tc = T.fn(coords)
        nc = n.fn(coords)
        ginv, det = ad.mat_inv_det(gc, nb, m)
        sq = ad.sqrt(ad.absolute(det))
        tn = [sum(tc[a][b] * nc[b] for b in range(m)) for a in range(m)]
        return [sq * sum(ginv[mu][a] * tn[a] for a in range(m)) for mu in range(m)]

    return VectorDensityField(g.chart, fn, reads=(g, T, n), name="J")


def current_divergence(J: TensorField, engine: DerivativeEngine) -> TensorField:
    """Plain coordinate divergence ``d_mu J^mu`` (covariant for weight-1
    densities under any symmetric connection)."""
    if getattr(J, "weight", 0) != 1:
        raise CapabilityError("current_divergence expects a weight-1 vector density")

    def eval_fn(pts):
        jac = engine.jacobian(J, pts)
        return np.einsum("naa->n", jac)

    return scalar_field(J.chart, eval_fn=eval_fn, name=f"div({J.name})")


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


def condition_scalars(
    g: MetricField,
    n: TensorField,
    p: TensorField,
    rho: TensorField,
    phi: TensorField,
    engine: DerivativeEngine,
    pts,
) -> ConditionScalars:
    """Contract the condition scalars of the bundle built from
    ``(g, n, phi)`` directly at ``pts`` and compare with their closed
    forms."""
    pts = g.chart.as_points(pts)
    return _condition_scalars(flow_jet(g, n, engine, pts, phi), g, n, p, rho)


def _condition_scalars(jet: FlowJet, g, n, p, rho) -> ConditionScalars:
    """:func:`condition_scalars` on the point batch of the flow jet of
    ``(g, n, phi)``."""
    pts, phi = jet.pts, jet.phi
    t_up = raise_indices2(g, stress_energy(g, n, p, rho))
    m = g.chart.dim
    s1, s2 = _contractions(jet, t_up(pts))
    closed = p(pts) * jet.div + (rho(pts) + (m - 1) * p(pts)) * phi(pts)
    out = ConditionScalars(s1, s2, s1 - closed, s2 - rho(pts) * phi(pts))
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
    if engine.mode == "central-difference":
        engine = replace(engine, richardson=1)
    div_j = current_divergence(particle_current(g, T, n), engine)
    t_up = raise_indices2(g, T)
    m = g.chart.dim

    def eval_fn(pts):
        jet = flow_jet(g, n, engine, pts, phi)
        s1, s2 = _contractions(jet, t_up(pts))
        div_t = np.einsum("nv,nv->n", _divergence_T(t_up, jet.Gamma, engine, pts), jet.n_low)
        return div_j(pts) - jet.data.sqrt_det * (div_t + s1 + m * s2)

    return scalar_field(g.chart, eval_fn=eval_fn, name="current-identity-residual")
