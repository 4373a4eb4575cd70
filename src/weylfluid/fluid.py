"""Fluid-induced Weyl structure: the covector sourced by a unit flow field,
the connection it generates, the perfect-fluid stress-energy tensor, and the
geodesy diagnostic.

Given a unit timelike flow ``n`` and a reparametrization scalar ``phi``, the
covector

    A_b = n^a nabla^g_a n_b + phi * n_b

is the unique choice for which the flow is autoparallel for the
Weyl-compatible connection of ``(g, A)`` up to parametrization:
``n^a nabla^Gamma_a n^b = phi n^b``.  Contracting with ``n`` gives
``n^a A_a = -phi`` since the unit flow is g-orthogonal to its own
acceleration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .connections import ConnectionField, _weyl_gamma, gamma_vv, gamma_w
from .errors import CapabilityError
from .geometry import (
    DerivativeEngine,
    MetricData,
    MetricField,
    TensorField,
    UnitVectorField,
    covector_field,
    metric_aux,
    require_finite,
    tensor2_field,
    unit_jet,
    vector_field,
)


_UNIT_TOL = 1e-10  # largest |g(n,n) + 1| that FluidState.validate accepts


@dataclass(frozen=True)
class FluidState:
    """Unit flow plus thermodynamic scalars (geometric units).

    ``n`` must be g-normalized; ``rho < 0`` is permitted (no energy
    condition is imposed) but a construction-time check warns about it.
    """

    n: TensorField
    p: TensorField
    rho: TensorField
    phi: TensorField

    def validate(self, g: MetricField, pts) -> None:
        nv = self.n(pts)
        gv = g(pts)
        norm = np.einsum("nij,ni,nj->n", gv, nv, nv)
        worst = float(np.max(np.abs(norm + 1.0)))
        if worst > _UNIT_TOL:
            raise ValueError(f"flow field is not unit timelike: |g(n,n)+1| = {worst:.3e}")
        rho = self.rho(pts)
        if np.any(rho < 0.0):
            warnings.warn("density is negative at some sample points", stacklevel=2)


@dataclass(frozen=True)
class WeylBundle:
    """Metric, Weyl covector, and the compatible connection they induce."""

    g: MetricField
    A: TensorField
    gamma: ConnectionField


@dataclass(frozen=True)
class FlowJet:
    """The metric data and the first jet of the flow on one point batch:
    ``n^a`` and ``d_c n^a`` (derivative index last), with the metric
    divergence ``nabla^g_a n^a``, ``n_a``, ``d_c n_b`` and the lowered
    acceleration ``n^c nabla^g_c n_b`` formed on first read.

    Given the reparametrization scalar ``phi``, the jet also carries its
    values, the flow-built covector ``A`` and its connection ``Gamma``, each
    formed on first read; every residual defined for the bundle of ``(g, n,
    phi)`` reads them from here.  :meth:`with_phi` gives the jet of another
    scalar for the same flow, so a family of scalars shares the metric data,
    the flow's jet and its acceleration, and only ``A`` and ``Gamma`` are
    formed once per scalar."""

    data: MetricData
    n: np.ndarray
    dn: np.ndarray
    phi: TensorField
    pts: np.ndarray

    @cached_property
    def div(self) -> np.ndarray:
        """``nabla^g_a n^a = d_a n^a + {g}^l_{la} n^a``."""
        return np.einsum("naa->n", self.dn) + np.einsum("nc,nc->n", self.data.gamma_trace, self.n)

    @cached_property
    def n_low(self) -> np.ndarray:
        """``n_a = g_ab n^b``."""
        return np.einsum("nab,nb->na", self.data.val, self.n)

    @cached_property
    def dn_low(self) -> np.ndarray:
        """``d_c n_b = d_c (g_ab n^a)``, with ``d_c g_ab`` symmetric in a, b."""
        b, m = self.n.shape
        dg = self.data.dg.reshape(b, m, m * m)
        return (self.n[:, None, :] @ dg).reshape(b, m, m) + self.data.val @ self.dn

    @cached_property
    def acc_low(self) -> np.ndarray:
        """``n^c nabla^g_c n_b``, which does not depend on ``phi``."""
        cov = self.dn_low - gamma_w(self.data.gamma, self.n_low)
        return np.einsum("nc,nbc->nb", self.n, cov)

    @cached_property
    def phival(self) -> np.ndarray:
        """``phi`` on the batch."""
        return self.phi(self.pts)

    @cached_property
    def A(self) -> np.ndarray:
        """``A_b = n^c nabla^g_c n_b + phi n_b``."""
        A = self.acc_low + self.phival[:, None] * self.n_low
        return require_finite(A, "field A(fluid)")

    @cached_property
    def Gamma(self) -> np.ndarray:
        """``Gamma^a_bc``, the Weyl-compatible connection of ``(g, A)``."""
        return require_finite(_weyl_gamma(self.data, self.A), "connection eps(A(fluid))")

    def with_phi(self, phi: TensorField) -> "FlowJet":
        """The jet of the same flow for the scalar ``phi``, sharing every
        quantity that does not depend on it."""
        if phi is self.phi:
            return self
        out = replace(self, phi=phi)
        out.__dict__.update(n_low=self.n_low, dn_low=self.dn_low, acc_low=self.acc_low,
                            div=self.div)
        return out


def flow_jet(g: MetricField, n: TensorField, engine: DerivativeEngine, pts, phi=None,
             data: MetricData = None) -> FlowJet:
    """Evaluate the metric and the flow once and form their first jet
    (``phi`` is needed only to read the jet's ``A`` and ``Gamma``).

    ``data`` is the metric data of ``g`` on ``pts`` when the caller already
    holds it.  A unit flow of ``g`` (:func:`normalize_timelike`) is not
    differentiated through ``g`` a second time: its jet is formed from the
    metric jet and the jet of the field it normalizes.
    """
    pts = g.chart.as_points(pts)
    if data is None:
        data = metric_aux(g, pts, engine)
    if isinstance(n, UnitVectorField) and n.g is g:
        nval, njac = unit_jet(data, *engine.value_and_jacobian(n.u, pts), pts)
    else:
        nval, njac = engine.value_and_jacobian(n, pts)
    return FlowJet(data, nval, njac, phi, pts)


def fluid_covector(
    g: MetricField, n: TensorField, phi: TensorField, engine: DerivativeEngine
) -> TensorField:
    """The Weyl covector induced by a unit flow and its parametrization."""
    if n.variance != ("u",):
        raise CapabilityError("fluid_covector expects a vector flow field")
    return covector_field(
        g.chart, eval_fn=lambda pts: flow_jet(g, n, engine, pts, phi).A, name="A(fluid)")


def fluid_connection(
    g: MetricField, n: TensorField, phi: TensorField, engine: DerivativeEngine
) -> WeylBundle:
    """Bundle the metric with the flow-induced covector and its connection,
    ``eps_connection(g, A)`` evaluated from one flow jet per call."""
    A = fluid_covector(g, n, phi, engine)
    gamma = ConnectionField(g.chart, lambda pts: flow_jet(g, n, engine, pts, phi).Gamma,
                            provenance="eps(A)", name=f"eps({g.name},{A.name})")
    return WeylBundle(g=g, A=A, gamma=gamma)


def geodesic_defect(
    bundle: WeylBundle, n: TensorField, phi: TensorField, engine: DerivativeEngine
) -> TensorField:
    """``D^a = n^b nabla^Gamma_b n^a - phi n^a``; zero for the bundle built
    from ``(n, phi)`` itself."""

    def eval_fn(pts):
        nval, njac = engine.value_and_jacobian(n, pts)
        return _defect(nval, njac, bundle.gamma(pts), phi(pts))

    return vector_field(bundle.g.chart, eval_fn=eval_fn, name="geodesic-defect")


def _defect(n: np.ndarray, dn: np.ndarray, gam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """:func:`geodesic_defect` from the values of ``n``, ``d_c n^a``,
    ``Gamma`` and ``phi`` on one point batch."""
    transport = np.einsum("nb,nab->na", n, dn) + gamma_vv(gam, n)
    return transport - phi[:, None] * n


def stress_energy(
    g: MetricField, n: TensorField, p: TensorField, rho: TensorField
) -> TensorField:
    """Perfect-fluid stress-energy ``T_ab = p g_ab + (p + rho) n_a n_b``.

    Symmetric by construction; satisfies ``T^{ab} n_b = -rho n^a``.
    """

    def fn(coords):
        gc = g.fn(coords)
        pc = p.fn(coords)[:, None, None]
        w = pc + rho.fn(coords)[:, None, None]
        n_low = ad.einsum("nab,nb->na", gc, n.fn(coords))
        # n_a n_b first: a product of two floats commutes, so T is symmetric
        # bit for bit, where (w n_a) n_b and (w n_b) n_a round differently
        return pc * gc + w * (n_low[:, :, None] * n_low[:, None, :])

    return tensor2_field(g.chart, fn, name="T")
