"""Levi-Civita and Weyl-compatible connections, covariant derivatives, and
non-metricity diagnostics.

Connection coefficients are indexed ``gamma[n, a, b, c] = Gamma^a_{bc}``;
both constructors are torsion-free by construction (symmetric in ``b, c``).
The Weyl-compatible family is the one-covector deformation of the
Levi-Civita connection for which all null geodesics of the metric remain
autoparallel trajectories:

    Gamma^a_{bc} = {g}^a_{bc} + A^a g_{bc} - delta^a_b A_c - delta^a_c A_b

with non-metricity  nabla_c g_{ab} = 2 A_c g_{ab}  and the trace identity
nabla_c sqrt|g| = m A_c sqrt|g| on weight-1 densities.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    TensorField,
    metric_aux,
    require_finite,
)


class ConnectionField:
    """Evaluable connection coefficients with a provenance tag."""

    def __init__(self, chart: Chart, eval_fn, provenance: str, name: str = ""):
        self.chart = chart
        self.eval_fn = eval_fn
        self.provenance = provenance
        self.name = name or provenance

    def __call__(self, pts) -> np.ndarray:
        pts = self.chart.as_points(pts)
        return require_finite(np.asarray(self.eval_fn(pts), dtype=float), f"connection {self.name}")

    def torsion(self, pts) -> np.ndarray:
        return _torsion(self(pts))


def _torsion(gam: np.ndarray) -> np.ndarray:
    """``Gamma^a_bc - Gamma^a_cb`` from coefficients already evaluated."""
    return gam - np.swapaxes(gam, -1, -2)


def eps_shift(ginv: np.ndarray, gval: np.ndarray, aval: np.ndarray) -> np.ndarray:
    """Deformation tensor ``A^a g_bc - delta^a_b A_c - delta^a_c A_b``."""
    m = aval.shape[1]
    a_up = np.einsum("nae,ne->na", ginv, aval)
    out = a_up[:, :, None, None] * gval[:, None]
    diag = np.arange(m)
    out[:, diag, diag, :] -= aval[:, None, :]
    out[:, diag, :, diag] -= aval  # advanced indices first: (m, N, m)
    return out


def gamma_vv(gam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``Gamma^a_bc v^b v^c`` from coefficients ``(N, m, m, m)`` and vectors
    ``(N, m)``, shape ``(N, m)``, as one batched ``matmul``."""
    n, m = v.shape
    vv = (v[:, :, None] * v[:, None, :]).reshape(n, m * m, 1)
    return (gam.reshape(n, m, m * m) @ vv)[:, :, 0]


def gamma_w(gam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Gamma^l_bc w_l`` from coefficients ``(N, m, m, m)`` and covectors
    ``(N, m)``, shape ``(N, m, m)``, as one batched ``matmul``."""
    n, m = w.shape
    return (w[:, None, :] @ gam.reshape(n, m, m * m)).reshape(n, m, m)


def _weyl_gamma(data, aval: np.ndarray) -> np.ndarray:
    """``Gamma^a_bc`` of the Weyl-compatible connection of ``(g, A)`` from
    the metric data (with derivatives) and the values of ``A`` on one point
    batch."""
    return data.gamma + eps_shift(data.inv, data.val, aval)


def levi_civita(g: MetricField, engine: DerivativeEngine) -> ConnectionField:
    """Christoffel symbols of the metric."""

    def eval_fn(pts):
        return metric_aux(g, pts, engine).gamma

    return ConnectionField(g.chart, eval_fn, provenance="levi-civita", name=f"{{{g.name}}}")


def eps_connection(g: MetricField, A: TensorField, engine: DerivativeEngine) -> ConnectionField:
    """Weyl-compatible connection of the pair ``(g, A)``.

    ``eps_connection(g, 0)`` evaluates through the same path as
    ``levi_civita(g)`` and agrees with it componentwise.
    """
    if A.variance != ("d",):
        raise CapabilityError("eps_connection expects a covector field")

    def eval_fn(pts):
        return _weyl_gamma(metric_aux(g, pts, engine), A(pts))

    return ConnectionField(g.chart, eval_fn, provenance="eps(A)", name=f"eps({g.name},{A.name})")


def external_connection(chart: Chart, eval_fn, name: str = "external") -> ConnectionField:
    """Wrap arbitrary coefficients for defect diagnostics."""
    return ConnectionField(chart, eval_fn, provenance="external", name=name)


def _gamma_contract(gl: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_l t[..., l] gl[l, b, c]`` from ``gl`` ``(N, m, m, m)`` and ``t``
    ``(N, ..., m)``, shape ``t.shape[:-1] + (m, m)``, as one batched
    ``matmul``."""
    n, m = gl.shape[:2]
    return (t.reshape(n, -1, m) @ gl.reshape(n, m, m * m)).reshape(t.shape[:-1] + (m, m))


def covariant_derivative(
    gamma: ConnectionField, F: TensorField, engine: DerivativeEngine
) -> TensorField:
    """Covariant derivative of a field of rank <= 2.

    Returns a field of rank+1 whose last index is the derivative index:
    the partial derivative plus one ``+Gamma`` contraction per upper index
    and one ``-Gamma`` contraction per lower index.  Reduces to the
    coordinate gradient on scalars.
    """
    if F.rank > 2:
        raise CapabilityError("covariant_derivative supports rank <= 2")
    variance = F.variance + ("d",)

    sign = {"u": 1.0, "d": -1.0}

    def eval_fn(pts):
        val, jac = engine.value_and_jacobian(F, pts)
        if F.rank == 0:
            return jac
        gam = gamma(pts)
        # gl[l, b, c] is Gamma^b_lc for an upper index and Gamma^l_bc for a lower one
        gl = {"u": np.swapaxes(gam, 1, 2), "d": gam}
        out = jac.copy()
        if F.rank == 1:
            out += sign[F.variance[0]] * _gamma_contract(gl[F.variance[0]], val)
            return out
        first, second = F.variance
        out += sign[first] * np.swapaxes(_gamma_contract(gl[first], np.swapaxes(val, 1, 2)), 1, 2)
        out += sign[second] * _gamma_contract(gl[second], val)
        return out

    return TensorField(gamma.chart, variance, eval_fn=eval_fn, name=f"D[{F.name}]")


def density_divergence_sqrtg(
    g: MetricField, gamma: ConnectionField, engine: DerivativeEngine, pts
) -> np.ndarray:
    """Weight-1 covariant derivative of the volume factor:
    ``d_c sqrt|g| - Gamma^l_{lc} sqrt|g|``, shape ``(N, m)``."""
    return _density_divergence(metric_aux(g, pts, engine), gamma(pts))


def _density_divergence(data, gam) -> np.ndarray:
    return data.dsqrt_det - np.einsum("nllc->nc", gam) * data.sqrt_det[:, None]


def nonmetricity_residuals(
    g: MetricField, gamma: ConnectionField, A: TensorField, engine: DerivativeEngine, pts
):
    """``(nabla^Gamma_c g_ab - 2 A_c g_ab, nabla^Gamma_c sqrt|g| - m A_c sqrt|g|)``,
    shapes ``(N, m, m, m)`` (derivative index last) and ``(N, m)``, from one
    evaluation each of the metric data, ``Gamma`` and ``A``.  Both vanish
    exactly when ``Gamma`` is the Weyl-compatible connection of ``(g, A)``."""
    pts = g.chart.as_points(pts)
    return _nonmetricity(metric_aux(g, pts, engine), gamma(pts), A(pts))


def _nonmetricity(data, gam: np.ndarray, aval: np.ndarray):
    """:func:`nonmetricity_residuals` from the metric data and the values of
    ``Gamma`` and ``A`` on one point batch."""
    n, m = aval.shape
    # g_al Gamma^l_bc; by the symmetry of g, g_lb Gamma^l_ac is its a <-> b swap
    g_gam = (data.val @ gam.reshape(n, m, m * m)).reshape(n, m, m, m)
    nabla_g = data.dg - np.swapaxes(g_gam, 1, 2) - g_gam
    metric = nabla_g - 2.0 * aval[:, None, None, :] * data.val[:, :, :, None]
    trace = _density_divergence(data, gam) - m * aval * data.sqrt_det[:, None]
    return metric, trace


def nonmetricity_residual(
    gamma: ConnectionField, g: MetricField, A: TensorField, engine: DerivativeEngine
) -> TensorField:
    """The first of :func:`nonmetricity_residuals` as a rank-3 field."""
    return TensorField(g.chart, ("d", "d", "d"), name="nonmetricity-residual",
                       eval_fn=lambda pts: nonmetricity_residuals(g, gamma, A, engine, pts)[0])


def sqrt_det_trace_residual(
    g: MetricField, gamma: ConnectionField, A: TensorField, engine: DerivativeEngine, pts
) -> np.ndarray:
    """The density trace residual of :func:`nonmetricity_residuals`."""
    return nonmetricity_residuals(g, gamma, A, engine, pts)[1]
