"""The cubic tensor spline behind the preferred-frame memo grid."""

import numpy as np
import pytest

from weylfluid import autodiff as ad
from weylfluid.catalog import build
from weylfluid.interpolation import TensorSpline, cardinal_weights, error_estimate, interpolate

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


def _cubic_gradient(pts):
    x, y, z = pts.T
    return np.stack([(1.0 - 4.0 * x + 1.5 * x**2) * (2.0 - y**3),
                     -3.0 * y**2 * (1.0 + x - 2.0 * x**2 + 0.5 * x**3) - 0.3 * (z**3 + z),
                     (3.0 * z**2 + 1.0) * (1.0 - 0.3 * y)], axis=-1)


class TestComponents:
    """The spline as a closed-form scalar field: its component function
    reads values and first partials off the spline itself."""

    @pytest.fixture(scope="class")
    def spline_and_points(self):
        spline = TensorSpline(AXES, _cubic(_grid_points(AXES)).reshape([len(a) for a in AXES]))
        lo = np.array([a[0] for a in AXES])
        hi = np.array([a[-1] for a in AXES])
        pts = lo + (hi - lo) * np.random.default_rng(2).uniform(-0.05, 1.05, size=(50, 3))
        return spline, pts

    def test_values_are_the_spline_call(self, spline_and_points):
        spline, pts = spline_and_points
        out = spline.components(tuple(pts.T))
        assert not isinstance(out, ad.Jet)
        np.testing.assert_array_equal(out, spline(pts))

    def test_jet_gradient_is_the_spline_partials(self, spline_and_points):
        spline, pts = spline_and_points
        jet = spline.components(ad.seed(pts))
        np.testing.assert_array_equal(jet.val, spline(pts))
        for j, e in enumerate(np.eye(3, dtype=int)):
            np.testing.assert_array_equal(jet.grad[:, j], spline(pts, nu=e))

    def test_jet_gradient_is_exact_on_per_axis_cubics(self, spline_and_points):
        spline, pts = spline_and_points
        assert np.abs(spline.components(ad.seed(pts)).grad - _cubic_gradient(pts)).max() < 1e-12


class TestCardinalWeights:
    """The spline read through per-axis cardinal weights, as the memo grid
    fills each layer from the layer before."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("nodes", [4, 7])
    def test_weights_are_the_spline(self, dim, nodes):
        rng = np.random.default_rng(10 * dim + nodes)
        axes = [np.sort(rng.uniform(-1.0, 1.0, nodes)) for _ in range(dim)]
        values = rng.normal(size=[nodes] * dim)
        lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
        pts = lo + (hi - lo) * rng.uniform(size=(300, dim))
        expected = TensorSpline(axes, values)(pts)
        got = interpolate(cardinal_weights(axes, pts), values)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("nodes", [4, 7])
    def test_exact_on_per_axis_cubics(self, nodes):
        rng = np.random.default_rng(3)
        axes = [np.sort(rng.uniform(lo, hi, nodes)) for lo, hi in ((-1, 1), (0, 2), (-0.5, 0.9))]
        lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
        pts = lo + (hi - lo) * rng.uniform(size=(200, 3))
        values = _cubic(_grid_points(axes)).reshape([nodes] * 3)
        assert np.abs(interpolate(cardinal_weights(axes, pts), values) - _cubic(pts)).max() < 1e-13

    def test_a_row_does_not_depend_on_its_batch(self):
        # the memo grid carries every layer in one batch: a point's value is
        # the same read alone or among others
        values = np.random.default_rng(4).normal(size=[len(a) for a in AXES])
        pts = _grid_points(AXES)[::7] + 0.01
        together = interpolate(cardinal_weights(AXES, pts), values)
        alone = [interpolate(cardinal_weights(AXES, p[None]), values)[0] for p in pts]
        np.testing.assert_array_equal(together, alone)
        # a layer whose landings all left the box reads no row
        assert interpolate(cardinal_weights(AXES, pts[:0]), values).shape == (0,)


class TestErrorOrder:
    def test_order_and_estimate(self):
        # the spline through the power-law cosmology's closed-form log
        # factor, q (ln t0 - ln t), along the time axis of the half-margin
        # memo box, against the exact values at the midpoints between nodes
        preset = build("flrw-power-dust")
        chart, meta = preset.chart, preset.meta
        closed = meta.closed_frame(meta.slice_values[0])
        lo, hi = chart.bounds(chart.margin / 2.0)

        def exact(t):
            pts = np.tile(0.5 * (lo + hi), (len(t), 1))
            pts[:, 0] = t
            return closed(pts)

        actual, estimate = {}, {}
        for n in (25, 49, 97):
            t = np.linspace(lo[0], hi[0], n)
            mid = 0.5 * (t[1:] + t[:-1])
            actual[n] = np.abs(TensorSpline([t], exact(t))(mid[:, None]) - exact(mid)).max()
            estimate[n] = error_estimate([t], exact(t))[0]
        # halving the spacing from 49 to 97 nodes: an order approaching 4
        assert np.log2(actual[49] / actual[97]) >= 3.5
        for n in actual:
            # the estimate is the error at twice the spacing: above the
            # actual error, and at order 4 about 16 times it
            assert actual[n] <= estimate[n] <= 32.0 * actual[n], n


class TestErrorEstimate:
    def test_axes_under_seven_nodes_are_skipped(self):
        values = _cubic(_grid_points(AXES)).reshape([len(a) for a in AXES])
        estimate = error_estimate(AXES, values)
        assert np.isnan(estimate[:2]).all() and np.isfinite(estimate[2])

    def test_estimate_is_the_error_of_the_halved_axis(self):
        # a 7-node axis halved to its even-indexed nodes keeps its estimate,
        # the largest gap of the halved grid's spline at the dropped nodes
        x = np.linspace(0.0, 1.0, 7)
        values = np.exp(2.0 * x)
        halved = TensorSpline([x[::2]], values[::2])
        gap = np.abs(halved(x[1::2, None]) - values[1::2]).max()
        assert error_estimate([x], values)[0] == pytest.approx(gap, rel=1e-12)
