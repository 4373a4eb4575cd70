"""Charts, point-indexed tensor fields, metric algebra and the derivative
engine consumed by every other module.

Conventions
-----------
* Points are numpy arrays of shape ``(m,)`` or batches ``(N, m)``.
* Field components evaluate to arrays ``(N, *shape)``; jacobians append the
  derivative index last, ``(N, *shape, m)``.
* Metric signature is Lorentzian ``(-, +, ..., +)`` and unit timelike
  vectors satisfy ``g(n, n) = -1``.
* ``sqrt_det`` always means ``sqrt(|det g|)``.
* A contraction over a point batch that costs more than ``O(N m^2)`` goes
  through ``matmul`` (on an ``(N, m, m*m)`` reshape) or broadcasting, not
  ``einsum``: numpy's ``matmul`` reaches batched BLAS, an unoptimized
  ``einsum`` does not.
* No per-matrix LAPACK call runs on a point batch: inverses and
  determinants come from the cofactor kernel of :mod:`.cofactors`, a few
  batched products over the whole batch, where LAPACK's ``inv`` and
  ``det`` factorize each matrix on its own.

Each composite field (one built from other fields) is written once, as a
component function that reads its inputs' component functions; it is exact
under forward-mode duals only when every input is closed-form, and numeric
inputs make it a finite-difference field.

All field evaluations are pure functions of the point; every object here is
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import autodiff as ad
from .cofactors import DET_FLOOR, inverse_det
from .errors import (
    CapabilityError,
    DomainExitError,
    NotTimelikeError,
    SignatureError,
)

TIMELIKE_EPS = 1e-10


@dataclass(frozen=True)
class Chart:
    """A coordinate box: named coordinates, per-axis closed intervals and a
    sampling margin (fraction of each interval excluded from test sampling).
    """

    names: tuple
    intervals: tuple
    margin: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(
            self, "intervals", tuple((float(a), float(b)) for a, b in self.intervals)
        )
        if self.dim < 2:
            raise ValueError("chart dimension must be at least 2")
        if len(self.intervals) != self.dim:
            raise ValueError("one interval required per coordinate")
        for name, (a, b) in zip(self.names, self.intervals):
            if not b > a:
                raise ValueError(f"interval for {name!r} has non-positive length")
        if not (0.0 <= self.margin < 0.4):
            raise ValueError("margin must lie in [0, 0.4)")

    @property
    def dim(self) -> int:
        return len(self.names)

    def as_points(self, x) -> np.ndarray:
        """Promote a single point or batch to a ``(N, m)`` float array."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {pts.shape[-1]}")
        return pts

    def contains(self, pts: np.ndarray, shrink: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the (optionally inset) box."""
        pts = self.as_points(pts)
        lo, hi = self.bounds(shrink)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def require_inside(self, pts: np.ndarray) -> None:
        """Raise :class:`DomainExitError` naming the first offending axis."""
        pts = self.as_points(pts)
        lo, hi = self.bounds(0.0)
        for j, name in enumerate(self.names):
            bad = (pts[:, j] < lo[j]) | (pts[:, j] > hi[j])
            if np.any(bad):
                k = int(np.argmax(bad))
                raise DomainExitError(name, float(pts[k, j]), self.intervals[j])

    def bounds(self, shrink: float = 0.0):
        """Lower/upper corner arrays of the box inset by ``shrink`` (a
        fraction of each interval length)."""
        lo = np.array([a + shrink * (b - a) for a, b in self.intervals])
        hi = np.array([b - shrink * (b - a) for a, b in self.intervals])
        return lo, hi

    def grid_points(self, per_axis: int = 5) -> np.ndarray:
        """Deterministic uniform grid over the margin-inset interior."""
        lo, hi = self.bounds(self.margin)
        axes = [np.linspace(lo[j], hi[j], per_axis) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def random_points(self, count: int, seed: int) -> np.ndarray:
        """Seeded pseudo-random interior points (margin-inset box)."""
        rng = np.random.default_rng(seed)
        lo, hi = self.bounds(self.margin)
        return lo + rng.random((count, self.dim)) * (hi - lo)

    def sample_points(self, per_axis: int = 5, extra: int = 64, seed: int = 0) -> np.ndarray:
        """Default test sample: uniform grid plus seeded random points."""
        return np.concatenate([self.grid_points(per_axis), self.random_points(extra, seed)])


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Return ``values``, or raise ``ValueError`` naming ``what`` if any
    entry is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite at a sample")
    return values


def _value_components(eval_fn, rank: int, name: str, coords):
    """Component tree of a numeric field at the points whose coordinates
    are ``coords``, value only.  Bound with ``functools.partial`` so that it
    holds the numeric map but not the field."""
    if any(isinstance(c, ad.Dual) for c in coords):
        raise CapabilityError(f"field {name or '<anonymous>'} is numeric; use finite differences")
    pts = np.stack(coords, axis=-1)
    out = np.asarray(eval_fn(pts), dtype=float)
    out = np.moveaxis(np.broadcast_to(out, (len(pts),) + (len(coords),) * rank), 0, -1)

    def tree(a, k):
        return a if k == 0 else [tree(sub, k - 1) for sub in a]

    return tree(out, rank)


class TensorField:
    """A point-indexed component array produced by an evaluable map.

    Two construction routes:

    * ``fn(coords)``: a component function of the coordinate tuple, built
      from dual-safe arithmetic.  A composite (a field built from other
      fields, such as a unit flow or a stress-energy tensor) is written once,
      as ``fn``, and names every field whose ``fn`` it reads in ``reads``.
    * ``eval_fn(points)``: a numeric map over point batches (solver output,
      interpolants, derived diagnostics).  Its ``fn`` is a value-only
      component tree of the same map, so composites read it like any other
      field; handed duals it raises :class:`CapabilityError`.

    ``supports_ad`` is true only for a closed-form field: one built from
    ``fn`` whose every read field is closed-form.  Such a field
    differentiates exactly through forward-mode duals; any other by
    central differences only.
    """

    def __init__(self, chart: Chart, variance: tuple, fn=None, *, eval_fn=None, reads=(),
                 name: str = ""):
        if (fn is None) == (eval_fn is None):
            raise ValueError("provide exactly one of fn or eval_fn")
        self.chart = chart
        self.variance = tuple(variance)
        self.name = name
        self.eval_fn = eval_fn
        self.supports_ad = eval_fn is None and all(f.supports_ad for f in reads)
        self.fn = fn if eval_fn is None else partial(_value_components, eval_fn, self.rank, name)

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def shape(self) -> tuple:
        return (self.chart.dim,) * self.rank

    def __call__(self, pts) -> np.ndarray:
        pts = self.chart.as_points(pts)
        if self.eval_fn is not None:
            out = np.asarray(self.eval_fn(pts), dtype=float)
        else:
            coords = tuple(pts[:, j] for j in range(self.chart.dim))
            out = ad.pack(self.fn(coords), len(pts), self.chart.dim, want_grad=False)
        if out.shape != (len(pts), *self.shape):
            out = np.broadcast_to(out, (len(pts), *self.shape)).copy()
        return require_finite(out, f"field {self.name or '<anonymous>'}")

    def dual_eval(self, pts):
        """Exact value and jacobian via forward-mode duals."""
        if not self.supports_ad:
            raise CapabilityError(
                f"field {self.name or '<anonymous>'} is numeric; use finite differences"
            )
        pts = self.chart.as_points(pts)
        coords = ad.seed(pts)
        return ad.pack(self.fn(coords), len(pts), self.chart.dim, want_grad=True)


def scalar_field(chart, fn=None, *, eval_fn=None, reads=(), name="") -> TensorField:
    return TensorField(chart, (), fn, eval_fn=eval_fn, reads=reads, name=name)


def vector_field(chart, fn=None, *, eval_fn=None, reads=(), name="") -> TensorField:
    return TensorField(chart, ("u",), fn, eval_fn=eval_fn, reads=reads, name=name)


def covector_field(chart, fn=None, *, eval_fn=None, reads=(), name="") -> TensorField:
    return TensorField(chart, ("d",), fn, eval_fn=eval_fn, reads=reads, name=name)


def tensor2_field(chart, fn=None, *, eval_fn=None, reads=(), variance=("d", "d"),
                  name="") -> TensorField:
    return TensorField(chart, variance, fn, eval_fn=eval_fn, reads=reads, name=name)


def constant_scalar(chart, c: float, name="") -> TensorField:
    return scalar_field(chart, lambda coords: 0.0 * coords[0] + c, name=name or f"const({c})")


class MetricField(TensorField):
    """Symmetric Lorentzian metric: components are symmetrized on
    evaluation, so the symmetry residual vanishes by construction."""

    def __init__(self, chart, fn=None, *, eval_fn=None, reads=(), name="g"):
        super().__init__(chart, ("d", "d"), fn, eval_fn=eval_fn, reads=reads, name=name)

    def __call__(self, pts):
        g = super().__call__(pts)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def dual_eval(self, pts):
        val, jac = super().dual_eval(pts)
        return (
            0.5 * (val + np.swapaxes(val, -1, -2)),
            0.5 * (jac + np.swapaxes(jac, 1, 2)),
        )

    def check_signature(self, pts) -> None:
        """Require eigenvalue signature (1 negative, m-1 positive)."""
        g = self(pts)
        eig = np.linalg.eigvalsh(g)
        neg = np.sum(eig < 0.0, axis=-1)
        if np.any(neg != 1) or np.any(np.abs(eig) < DET_FLOOR):
            k = int(np.argmax((neg != 1) | np.any(np.abs(eig) < DET_FLOOR, axis=-1)))
            raise SignatureError(
                f"metric signature is not Lorentzian at point "
                f"{np.asarray(pts)[k]} (eigenvalues {eig[k]})"
            )


@dataclass(frozen=True)
class DerivativeEngine:
    """First-derivative engine for fields.

    ``mode`` selects forward-dual differentiation (exact for closed-form
    fields) or central differences with step ``h`` (O(h^2), O(h^4) with one
    Richardson level).  Fields that are not closed-form always fall back to
    differences.
    """

    mode: str = "forward-dual"
    h: float = 1e-4
    richardson: int = 0

    def __post_init__(self):
        if self.mode not in ("forward-dual", "central-difference"):
            raise ValueError(f"unknown derivative mode {self.mode!r}")
        if self.h <= 0:
            raise ValueError("finite-difference step must be positive")
        if self.richardson not in (0, 1):
            raise ValueError("richardson level must be 0 or 1")

    def jacobian(self, field: TensorField, pts) -> np.ndarray:
        """d(components)/d(coordinates), derivative index last."""
        pts = field.chart.as_points(pts)
        if self.mode == "forward-dual" and field.supports_ad:
            _, jac = field.dual_eval(pts)
            return jac
        return self._fd_jacobian(field, pts)

    def value_and_jacobian(self, field: TensorField, pts):
        pts = field.chart.as_points(pts)
        if self.mode == "forward-dual" and field.supports_ad:
            return field.dual_eval(pts)
        return field(pts), self._fd_jacobian(field, pts)

    def _fd_jacobian(self, field, pts):
        def stencil(h):
            cols = []
            for j in range(field.chart.dim):
                dp = np.zeros_like(pts)
                dp[:, j] = h
                for shifted in (pts + dp, pts - dp):
                    field.chart.require_inside(shifted)
                cols.append((field(pts + dp) - field(pts - dp)) / (2.0 * h))
            return np.stack(cols, axis=-1)

        d1 = stencil(self.h)
        if self.richardson == 0:
            return d1
        d2 = stencil(self.h / 2.0)
        return (4.0 * d2 - d1) / 3.0


def grad_scalar(engine: DerivativeEngine, f: TensorField, pts) -> np.ndarray:
    """Coordinate gradient of a scalar field: covector components ``(N, m)``."""
    if f.rank != 0:
        raise CapabilityError("grad_scalar expects a scalar field")
    return engine.jacobian(f, pts)


@dataclass(frozen=True)
class MetricData:
    """Pointwise metric package: values, inverse, volume factor and (when a
    derivative engine is supplied) first derivatives.  The Christoffel
    symbols ``gamma[n, a, b, c] = {g}^a_{bc}`` are formed on first read."""

    val: np.ndarray
    inv: np.ndarray
    sqrt_det: np.ndarray
    dg: np.ndarray = None

    @cached_property
    def gamma(self) -> np.ndarray:
        """{g}^a_{bc} = g^{ae} (d_b g_{ec} + d_c g_{eb} - d_e g_{bc}) / 2."""
        if self.dg is None:
            raise CapabilityError("metric derivatives were not requested")
        n, m = self.val.shape[:2]
        rhs = np.swapaxes(self.dg, 2, 3) + self.dg - np.moveaxis(self.dg, 3, 1)
        return 0.5 * (self.inv @ rhs.reshape(n, m, m * m)).reshape(n, m, m, m)

    @property
    def dsqrt_det(self) -> np.ndarray:
        """d_mu sqrt|g| = sqrt|g| * tr(g^-1 d_mu g) / 2."""
        if self.dg is None:
            raise CapabilityError("metric derivatives were not requested")
        return 0.5 * self.sqrt_det[:, None] * inverse_trace(self.inv, self.dg)

    @property
    def gamma_trace(self) -> np.ndarray:
        """{g}^l_{lc} = d_c ln sqrt|g|, shape (N, m)."""
        return self.dsqrt_det / self.sqrt_det[:, None]

    def take(self, rows) -> "MetricData":
        """The data of the points ``rows`` of the batch, with the Christoffel
        symbols when they were already formed."""
        out = MetricData(*(None if a is None else a[rows] for a in
                           (self.val, self.inv, self.sqrt_det, self.dg)))
        if "gamma" in self.__dict__:
            out.__dict__["gamma"] = self.gamma[rows]
        return out


def inverse_trace(inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``tr(g^-1 d_c g) = g^ij d_c g_ji`` from the inverse ``(N, m, m)`` and
    the jacobian ``(N, m, m, m)`` (derivative index last), shape ``(N, m)``."""
    n, m = inv.shape[:2]
    return (np.swapaxes(inv, 1, 2).reshape(n, 1, m * m) @ d.reshape(n, m * m, m))[:, 0]


def metric_aux(g: MetricField, pts, engine: DerivativeEngine = None) -> MetricData:
    """Evaluate the metric and its derived pointwise data on a batch."""
    pts = g.chart.as_points(pts)
    val, dg = (g(pts), None) if engine is None else engine.value_and_jacobian(g, pts)
    inv, det = inverse_det(val, pts)
    return MetricData(val, inv, np.sqrt(np.abs(det)), dg)


def metric_data(g: MetricField, pts):
    """Inverse components and ``sqrt(|det g|)`` at the given points."""
    data = metric_aux(g, pts)
    return data.inv, data.sqrt_det


class UnitVectorField(TensorField):
    """``u / sqrt(-g(u,u))``, a vector field that keeps the pair ``(g, u)``
    it normalizes, so a caller holding the metric jet of ``g`` can form its
    jet at array level (:func:`unit_jet`)."""

    def __init__(self, g: MetricField, u: TensorField, fn):
        super().__init__(g.chart, ("u",), fn, reads=(g, u), name=f"unit({u.name})")
        self.g = g
        self.u = u


def _require_timelike(q, coords) -> None:
    """Raise :class:`NotTimelikeError` at the first point where ``q =
    g(u,u) >= -TIMELIKE_EPS``; ``coords`` are the points' coordinate
    arrays."""
    bad = np.asarray(q >= -TIMELIKE_EPS)
    if np.any(bad):
        k = int(np.argmax(bad))
        pt = [float(np.broadcast_to(c, bad.shape)[k]) for c in coords]
        raise NotTimelikeError(
            f"g(u,u) = {np.broadcast_to(q, bad.shape)[k]:.6g} >= -{TIMELIKE_EPS} at point {pt}"
        )


def normalize_timelike(g: MetricField, u: TensorField) -> UnitVectorField:
    """Rescale a timelike vector field to ``g(n, n) = -1``.

    Raises :class:`NotTimelikeError` at evaluation when ``g(u,u) >= -eps``
    at a point, reporting the point.
    """
    if u.variance != ("u",):
        raise CapabilityError("normalize_timelike expects a vector field")
    m = g.chart.dim

    def fn(coords):
        gc = g.fn(coords)
        uc = u.fn(coords)
        # row first: m^2 + m dual products
        s = sum(uc[i] * sum(gc[i][j] * uc[j] for j in range(m)) for i in range(m))
        _require_timelike(ad.value(s), [ad.value(c) for c in coords])
        inv_norm = 1.0 / ad.sqrt(-s)
        return [uc[i] * inv_norm for i in range(m)]

    return UnitVectorField(g, u, fn)


def unit_jet(data: MetricData, u: np.ndarray, du: np.ndarray, pts):
    """Value and jacobian of ``n = u / sqrt(-g(u,u))`` from the metric data
    (with derivatives) and the value and jacobian of ``u`` on ``pts``.

    With ``q = g(u,u)`` and ``s = sqrt(-q)``: ``n = u / s`` and
    ``d_c n = d_c u / s - n d_c q / (2 q)``, where ``d_c q = d_c g(u,u) +
    2 g(u, d_c u)``.  Raises :class:`NotTimelikeError` like
    :func:`normalize_timelike`.
    """
    b, m = u.shape
    u_low = np.einsum("nab,nb->na", data.val, u)
    q = np.einsum("na,na->n", u_low, u)
    _require_timelike(q, pts.T)
    s = np.sqrt(-q)
    n = u / s[:, None]
    uu = (u[:, :, None] * u[:, None, :]).reshape(b, 1, m * m)
    dq = (uu @ data.dg.reshape(b, m * m, m))[:, 0] + 2.0 * np.einsum("na,nac->nc", u_low, du)
    dn = du / s[:, None, None] - 0.5 * n[:, :, None] * (dq / q[:, None])[:, None, :]
    return n, dn


def lower_index(g: MetricField, v: TensorField) -> TensorField:
    """Covector ``v_a = g_ab v^b``."""
    m = g.chart.dim

    def fn(coords):
        gc = g.fn(coords)
        vc = v.fn(coords)
        return [sum(gc[a][b] * vc[b] for b in range(m)) for a in range(m)]

    return covector_field(g.chart, fn, reads=(g, v), name=f"flat({v.name})")
