"""Levi-Civita and Weyl-compatible connections and their non-metricity
diagnostics.

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


def _nonmetricity(data, gam: np.ndarray, aval: np.ndarray):
    """The non-metricity residuals of the coefficients ``gam`` against the
    covector values ``aval``, from the metric data (with derivatives) on one
    point batch:

        nabla^Gamma_c g_ab - 2 A_c g_ab                     (N, m, m, m)
        d_c sqrt|g| - Gamma^l_lc sqrt|g| - m A_c sqrt|g|    (N, m)

    (derivative index last); the second is the weight-1 covariant
    derivative of the volume factor less its trace identity.  Both vanish
    exactly when ``Gamma`` is the Weyl-compatible connection of ``(g, A)``,
    and with ``A = 0`` they measure the metric compatibility of ``Gamma``."""
    n, m = aval.shape
    # g_al Gamma^l_bc; by the symmetry of g, g_lb Gamma^l_ac is its a <-> b swap
    g_gam = (data.val @ gam.reshape(n, m, m * m)).reshape(n, m, m, m)
    nabla_g = data.dg - np.swapaxes(g_gam, 1, 2) - g_gam
    metric = nabla_g - 2.0 * aval[:, None, None, :] * data.val[:, :, :, None]
    trace = (data.dsqrt_det - np.einsum("nllc->nc", gam) * data.sqrt_det[:, None]
             - m * aval * data.sqrt_det[:, None])
    return metric, trace
