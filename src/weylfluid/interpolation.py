"""Tensor-product cubic interpolation on rectangular grids: a not-a-knot
spline that reproduces the grid data and is exact on per-axis cubics.

The spline is also a closed-form scalar field: its component function
(:meth:`TensorSpline.components`) differentiates a jet through the
spline's own first partials, so a field built on it is exact under
forward-mode jets and never differences the spline.

``scipy.interpolate`` loads on first use, when a spline is built or an
estimate is taken, so a run that never solves a preferred frame does not
pay for it.
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
