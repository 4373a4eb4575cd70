"""The cubic tensor spline behind the preferred-frame memo grid."""

import numpy as np

from weylfluid.interpolation import TensorSpline

AXES = [np.array([-1.0, -0.7, -0.1, 0.3, 0.8, 1.0]),
        np.linspace(0.0, 2.0, 5),
        np.array([-0.5, -0.2, 0.0, 0.1, 0.4, 0.6, 0.9])]


def _grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], -1)


def _cubic(pts):
    x, y, z = pts.T
    return (1.0 + x - 2.0 * x**2 + 0.5 * x**3) * (2.0 - y**3) + (z**3 + z) * (1.0 - 0.3 * y)


class TestTensorSpline:
    def test_reproduces_grid_data(self):
        values = np.random.default_rng(0).normal(size=[len(a) for a in AXES])
        spline = TensorSpline(AXES, values)
        assert np.abs(spline(_grid_points(AXES)) - values.ravel()).max() < 1e-13

    def test_exact_on_per_axis_cubics_off_the_nodes(self):
        spline = TensorSpline(AXES, _cubic(_grid_points(AXES)).reshape([len(a) for a in AXES]))
        rng = np.random.default_rng(1)
        lo = np.array([a[0] for a in AXES])
        hi = np.array([a[-1] for a in AXES])
        # inside the grid, and up to 5 % of each axis beyond it
        pts = lo + (hi - lo) * rng.uniform(-0.05, 1.05, size=(200, 3))
        assert np.abs(spline(pts) - _cubic(pts)).max() < 1e-13
