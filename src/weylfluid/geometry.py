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
* The point axis is the stacking axis of every ``matmul``, never a row
  axis of one 2-D BLAS product: BLAS rounds a row differently by row count
  (a one-row batch goes to ``gemv``), so a point's values would depend on
  the batch around it.  A product of a point batch with a constant matrix
  is an ``einsum`` loop or elementwise.
* No per-matrix LAPACK call runs on a point batch: inverses and
  determinants come from the cofactor kernel of :mod:`.cofactors`, a few
  batched products over the whole batch, where LAPACK's ``inv`` and
  ``det`` factorize each matrix on its own.

Each composite field (one built from other fields) is written once, as a
component function that reads its inputs' component functions and returns
an ``(N, *shape)`` array or jet (:mod:`.autodiff`); it is exact under
forward-mode jets when every input is closed-form.  A numeric field refuses
jets itself, with a :class:`CapabilityError` that names it, so a composite
reading one raises that error.  Each engine mode has one derivative rule:
forward duals differentiate every field through jets, and central
differences difference every field.  A constant component is a plain array,
``np.full_like(ad.value(coords[0]), c)`` as in :func:`constant_scalar`,
whose jacobian is zero without dual arithmetic.

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


def _numeric_components(eval_fn, shape: tuple, name: str, coords):
    """Components of a numeric field at the points whose coordinates are
    ``coords``: its map applied to the stacked coordinates.  Bound with
    ``functools.partial`` so that it holds the numeric map but not the
    field."""
    if any(isinstance(c, ad.Jet) for c in coords):
        raise CapabilityError(f"field {name or '<anonymous>'} is numeric; "
                              "differentiate it with central differences")
    pts = np.stack(coords, axis=-1)
    out = np.asarray(eval_fn(pts), dtype=float)
    full = (len(pts), *shape)
    return out if out.shape == full else np.broadcast_to(out, full)


class TensorField:
    """A point-indexed component array produced by an evaluable map.

    Two construction routes:

    * ``fn(coords)``: a component function of the coordinate tuple that
      returns an ``(N, *shape)`` array or jet (see :mod:`.autodiff`).  A
      composite (a field built from other fields, such as a unit flow or a
      stress-energy tensor) is written once, as ``fn``, and reads its
      inputs' ``fn``.
    * ``eval_fn(points)``: a numeric map over point batches (derived
      diagnostics, rescaled bundles).  Its ``fn`` is the same map applied to
      the stacked coordinates, so composites read it like any other field;
      handed jets it raises :class:`CapabilityError` naming this field, and
      so does every composite that reads it, however deep.

    A field built from ``fn`` on closed-form inputs only, an interpolant's
    component function among them (:meth:`.TensorSpline.components`),
    differentiates exactly through forward-mode jets.
    """

    def __init__(self, chart: Chart, variance: tuple, fn=None, *, eval_fn=None, name: str = ""):
        if (fn is None) == (eval_fn is None):
            raise ValueError("provide exactly one of fn or eval_fn")
        self.chart = chart
        self.variance = tuple(variance)
        self.name = name
        self.eval_fn = eval_fn
        self.fn = fn if eval_fn is None else partial(_numeric_components, eval_fn, self.shape, name)

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def shape(self) -> tuple:
        return (self.chart.dim,) * self.rank

    def __call__(self, pts) -> np.ndarray:
        pts = self.chart.as_points(pts)
        out = self.fn(tuple(pts[:, j] for j in range(self.chart.dim)))
        return require_finite(ad.dense(out, (len(pts), *self.shape)),
                              f"field {self.name or '<anonymous>'}")

    def dual_eval(self, pts):
        """Exact value and jacobian via forward-mode jets; a numeric input
        raises its :class:`CapabilityError`."""
        pts = self.chart.as_points(pts)
        return ad.parts(self.fn(ad.seed(pts)), (len(pts), *self.shape), self.chart.dim)


def scalar_field(chart, fn=None, *, eval_fn=None, name="") -> TensorField:
    return TensorField(chart, (), fn, eval_fn=eval_fn, name=name)


def vector_field(chart, fn=None, *, eval_fn=None, name="") -> TensorField:
    return TensorField(chart, ("u",), fn, eval_fn=eval_fn, name=name)


def covector_field(chart, fn=None, *, eval_fn=None, name="") -> TensorField:
    return TensorField(chart, ("d",), fn, eval_fn=eval_fn, name=name)


def tensor2_field(chart, fn=None, *, eval_fn=None, variance=("d", "d"), name="") -> TensorField:
    return TensorField(chart, variance, fn, eval_fn=eval_fn, name=name)


def constant_scalar(chart, c: float, name="") -> TensorField:
    return scalar_field(chart, lambda coords: np.full_like(ad.value(coords[0]), c),
                        name=name or f"const({c})")


class MetricField(TensorField):
    """Lorentzian metric ``g_ab``.  Its components are used as the
    component function gives them: a function that is not symmetric fails
    the symmetry check of the connection suite."""

    def __init__(self, chart, fn=None, *, eval_fn=None, name="g"):
        super().__init__(chart, ("d", "d"), fn, eval_fn=eval_fn, name=name)

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

    ``mode`` selects forward-dual differentiation, exact and defined for
    closed-form fields only (a field that is or reads a numeric field raises
    the numeric field's :class:`CapabilityError`), or central
    differences with step ``h`` (O(h^2), O(h^4) with one Richardson level)
    for every field.  ``h`` and ``richardson`` matter only to the latter.
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
        if self.mode == "forward-dual":
            return field.dual_eval(pts)[1]
        return self._fd_jacobian(field, pts)

    def value_and_jacobian(self, field: TensorField, pts):
        pts = field.chart.as_points(pts)
        if self.mode == "forward-dual":
            return field.dual_eval(pts)
        return field(pts), self._fd_jacobian(field, pts)

    def _fd_jacobian(self, field, pts):
        def stencil(h):
            cols = []
            for j in range(field.chart.dim):
                dp = np.zeros_like(pts)
                dp[:, j] = h
                plus, minus = pts + dp, pts - dp
                for shifted in (plus, minus):
                    field.chart.require_inside(shifted)
                    # a step below the coordinate's spacing would difference
                    # a point with itself and read every derivative as 0
                    unmoved = shifted[:, j] == pts[:, j]
                    if np.any(unmoved):
                        raise ValueError(
                            f"difference step h = {h:g} leaves coordinate {field.chart.names[j]!r} "
                            f"of point {pts[np.argmax(unmoved)]} unmoved")
                cols.append((field(plus) - field(minus)) / (2.0 * h))
            return np.stack(cols, axis=-1)

        d1 = stencil(self.h)
        if self.richardson == 0:
            return d1
        d2 = stencil(self.h / 2.0)
        return (4.0 * d2 - d1) / 3.0


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


def inverse_trace(inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``tr(g^-1 d_c g) = g^ij d_c g_ji`` from the inverse ``(N, m, m)`` and
    the jacobian ``(N, m, m, k)`` (derivative index last), shape ``(N, k)``."""
    n, m = inv.shape[:2]
    return (np.swapaxes(inv, 1, 2).reshape(n, 1, m * m) @ d.reshape(n, m * m, -1))[:, 0]


def metric_aux(g: MetricField, pts, engine: DerivativeEngine = None) -> MetricData:
    """Evaluate the metric and its derived pointwise data on a batch."""
    pts = g.chart.as_points(pts)
    val, dg = (g(pts), None) if engine is None else engine.value_and_jacobian(g, pts)
    inv, det = inverse_det(val, pts)
    return MetricData(val, inv, np.sqrt(np.abs(det)), dg)


class UnitVectorField(TensorField):
    """``u / sqrt(-g(u,u))``, a vector field that keeps the pair ``(g, u)``
    it normalizes, so a caller holding the metric jet of ``g`` can form its
    jet at array level (:func:`unit_jet`)."""

    def __init__(self, g: MetricField, u: TensorField, fn):
        super().__init__(g.chart, ("u",), fn, name=f"unit({u.name})")
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

    def fn(coords):
        uc = u.fn(coords)
        s = ad.einsum("na,na->n", uc, ad.einsum("nab,nb->na", g.fn(coords), uc))
        _require_timelike(ad.value(s), [ad.value(c) for c in coords])
        return uc * (1.0 / ad.sqrt(-s))[:, None]

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
