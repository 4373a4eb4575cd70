"""Tensor-product cubic interpolation on rectangular grids: a not-a-knot
spline that reproduces the grid data and is exact on per-axis cubics.

The spline is also a closed-form scalar field: its component function
(:meth:`TensorSpline.components`) differentiates a jet through the
spline's own first partials, so a field built on it is exact under
forward-mode jets and never differences the spline.

The spline is a linear map of the grid values that factors per axis
(de Boor, *A Practical Guide to Splines*, rev. ed. 2001, ch. XVII): its
value at a point is the grid values contracted with one row of cardinal
weights per axis, the values there of the splines through the unit
vectors.  :func:`cardinal_weights` forms those rows for a batch of points
once, and :func:`interpolate` contracts them with the values of any grid
on the same axes, so many grids read at known points need no spline each.

``scipy.interpolate`` loads on first use, when a spline is built, weights
are formed or an estimate is taken, so a run that never solves a preferred
frame does not pay for it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class TensorSpline:
    """Interpolating cubic tensor spline on a rectangular grid: one
    not-a-knot fit per axis, evaluated as one ``NdBSpline`` that
    extrapolates past the grid."""

    DEGREE = 3

    def __init__(self, axes, values: np.ndarray):
        # some 0.5 s to import, scipy.special with it; paid on first use
        from scipy.interpolate import NdBSpline, make_interp_spline

        coef = np.asarray(values, dtype=float)
        knots = []
        for j, ax in enumerate(axes):
            spline = make_interp_spline(np.asarray(ax, dtype=float), coef, k=self.DEGREE, axis=j)
            # the solver moves the interpolation axis to the front
            coef = np.moveaxis(spline.c, 0, j)
            knots.append(spline.t)
        self.spline = NdBSpline(tuple(knots), coef, self.DEGREE, extrapolate=True)

    def __call__(self, pts: np.ndarray, nu=None) -> np.ndarray:
        """Values at the points ``pts``, or with ``nu`` (a derivative order
        per axis) the spline's own partial derivative there."""
        return self.spline(np.atleast_2d(np.asarray(pts, dtype=float)), nu=nu)

    def components(self, coords):
        """Component function of the spline as a scalar field (see
        :mod:`.autodiff`): the values at the stacked coordinates, and for
        jets the gradient ``d_c s = (d_j s) d_c x^j`` through the first
        partials ``nu = e_j``."""
        return ad.apply(ad.stack(coords), self, self._chain)

    def _chain(self, pts, values, grad):
        partials = np.stack([self(pts, nu=e) for e in np.eye(pts.shape[1], dtype=int)], axis=-1)
        return np.einsum("nj,njc->nc", partials, grad)


ESTIMATE_NODES = 2 * (TensorSpline.DEGREE + 1) - 1  # the fewest an estimate takes


def build_interpolator(axes, values: np.ndarray) -> TensorSpline:
    """The cubic tensor spline through ``values`` on the grid ``axes``."""
    return TensorSpline(axes, values)


def cardinal_weights(axes, pts: np.ndarray) -> list:
    """Per axis ``j``, the ``(N, len(axes[j]))`` values at the points' ``j``
    coordinates of the not-a-knot cubics through the unit vectors on that
    axis: row ``r`` of the spline of ``values`` at ``pts[r]`` is
    :func:`interpolate` of these rows with ``values``.  A row depends only
    on its point."""
    from scipy.interpolate import make_interp_spline  # loaded on first use, as above

    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    weights = []
    for j, ax in enumerate(axes):
        cardinal = make_interp_spline(np.asarray(ax, dtype=float), np.eye(len(ax)),
                                      k=TensorSpline.DEGREE)
        weights.append(cardinal(pts[:, j]))
    return weights


def interpolate(weights, values: np.ndarray) -> np.ndarray:
    """The spline through ``values`` at the points that ``weights``
    (:func:`cardinal_weights`) were formed for, contracted from the last
    axis to the first.  Each product is elementwise and each sum runs over
    one row's nodes, so a point's value does not depend on the rows it is
    batched with, as a BLAS product over the point axis would."""
    acc = np.asarray(values, dtype=float)[None]
    for w in reversed(weights):
        acc = (acc * w.reshape(w.shape[:1] + (1,) * (acc.ndim - 2) + w.shape[1:])).sum(axis=-1)
    return acc


def error_estimate(axes, values: np.ndarray) -> np.ndarray:
    """Per axis, the largest gap between the values at the odd-indexed nodes
    and the cubic through the even-indexed ones: the spline's error at twice
    the spacing, a bound on its own error, which falls at order 4.  An axis
    needs 7 nodes, so that 4 even-indexed ones carry a cubic; an axis with
    fewer is skipped, its estimate NaN."""
    from scipy.interpolate import make_interp_spline  # loaded on first use, as above

    gaps = []
    for j, ax in enumerate(axes):
        if len(ax) < ESTIMATE_NODES:
            gaps.append(np.nan)
            continue
        even, odd = values.take(range(0, len(ax), 2), j), values.take(range(1, len(ax), 2), j)
        half = make_interp_spline(ax[::2], even, k=TensorSpline.DEGREE, axis=j)
        gaps.append(np.max(np.abs(half(ax[1::2]) - odd)))
    return np.array(gaps)
