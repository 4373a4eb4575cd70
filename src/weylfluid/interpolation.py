"""Tensor-product cubic interpolation on rectangular grids: a not-a-knot
spline that reproduces the grid data and is exact on per-axis cubics.

``scipy.interpolate`` loads on first use, when a spline is built or an
estimate is taken, so a run that never solves a preferred frame does not
pay for it.
"""

from __future__ import annotations

import numpy as np


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

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.spline(np.atleast_2d(np.asarray(pts, dtype=float)))


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
