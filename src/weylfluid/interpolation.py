"""Tensor-product interpolation on rectangular grids.

The cubic variant is a genuine interpolating spline (not-a-knot boundary
per axis): it reproduces the grid data exactly and is exact on per-axis
cubic polynomials, which the stock regular-grid cubic interpolator is not.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import NdBSpline, RegularGridInterpolator, make_interp_spline


class TensorSpline:
    """Interpolating cubic tensor spline on a rectangular grid: one
    not-a-knot fit per axis, evaluated as one ``NdBSpline`` that
    extrapolates past the grid."""

    DEGREE = 3

    def __init__(self, axes, values: np.ndarray):
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


def build_interpolator(axes, values: np.ndarray, method: str):
    """``cubic`` tensor spline or the stock ``linear`` interpolator."""
    if method == "cubic":
        return TensorSpline(axes, values)
    if method == "linear":
        return RegularGridInterpolator(
            axes, values, method="linear", bounds_error=False, fill_value=None)
    raise ValueError(f"unknown interpolation method {method!r}")
