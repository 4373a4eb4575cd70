"""Autoparallel and null-geodesic integration against closed-form paths."""

import numpy as np
import pytest

from weylfluid import integrators, worldlines
from weylfluid.catalog import PRESETS, build, null_tangent, verification_matrix
from weylfluid.config import SuiteConfig
from weylfluid.connections import ConnectionField, eps_shift, levi_civita
from weylfluid.errors import ComparisonError, StiffnessError
from weylfluid.fluid import fluid_connection, flow_jet
from weylfluid.geometry import DerivativeEngine, metric_aux
from weylfluid.harness import run_suite
from weylfluid.worldlines import (
    FLOW_LINE,
    NULL_GEODESIC,
    WEYL_AUTOPARALLEL,
    WorldlinePath,
    _null_defect,
    _null_norm_max,
    integral_curve,
    integrate_autoparallel,
    integrate_autoparallel_batch,
    integrate_fluid_worldlines,
    integrate_null_geodesic,
    integrate_null_geodesic_batch,
    trajectory_compare,
)

from oracles import circular_orbit_init

ENG = DerivativeEngine()


def bundle_deformation(preset, path):
    """The preset bundle connection's deformation of the metric connection
    on the path's nodes, from one flow jet there, as the worldlines suite
    forms it."""
    st = preset.state
    jet = flow_jet(preset.g, st.n, ENG, path.points, st.phi)
    return eps_shift(jet.data.inv, jet.data.val, jet.A)

@pytest.fixture(scope="module")
def flat():
    preset = build("minkowski-dust-rest")
    bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
    return preset, bundle

@pytest.fixture(scope="module")
def flat_phi():
    preset = build("minkowski-dust-phi")
    bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
    return preset, bundle

class TestAutoparallel:
    def test_flat_straight_line(self, flat):
        preset, bundle = flat
        v0 = np.array([1.0, 0.3, 0.0, 0.0])
        path = integrate_autoparallel(bundle.gamma, np.zeros(4), v0, 0.8)
        assert np.abs(path.points - path.s[:, None] * v0).max() < 1e-12
        assert np.abs(path.tangents - v0).max() < 1e-12
        assert not path.exited

    def test_reparametrized_time_axis(self, flat_phi):
        # closed form for x'' = -phi x'^2 along the flow axis:
        # x(s) = (1/phi) ln(1 + phi s), v(s) = 1/(1 + phi s)
        preset, bundle = flat_phi
        path = integrate_autoparallel(bundle.gamma, np.zeros(4),
                                      np.array([1.0, 0, 0, 0]), 0.9)
        s = path.s
        assert np.abs(path.points[:, 1:]).max() == 0.0
        assert np.abs(path.points[:, 0] - 2.0 * np.log1p(0.5 * s)).max() < 1e-9
        assert np.abs(path.tangents[:, 0] - 1.0 / (1.0 + 0.5 * s)).max() < 1e-9

    def test_rejects_zero_tangent(self, flat):
        preset, bundle = flat
        with pytest.raises(ValueError, match="nonzero"):
            integrate_autoparallel(bundle.gamma, np.zeros(4), np.zeros(4), 1.0)

    def test_chart_exit_truncates(self, flat):
        preset, bundle = flat
        path = integrate_autoparallel(bundle.gamma, np.zeros(4),
                                      np.array([1.0, 0, 0, 0]), 5.0)
        assert path.exited
        assert path.points[-1, 0] == pytest.approx(1.0, abs=1e-9)

    def test_batches_name_a_zero_tangent_row(self, flat):
        preset, bundle = flat
        x0s = np.zeros((3, 4))
        k0s = np.array([[1.0, 1.0, 0, 0], [1.0, 0, 1.0, 0], [0.0, 0, 0, 0]])
        with pytest.raises(ValueError, match="tangent 2 must be nonzero"):
            integrate_autoparallel_batch(bundle.gamma, x0s, k0s, 1.0)
        with pytest.raises(ValueError, match="tangent 2 must be nonzero"):
            integrate_null_geodesic_batch(preset.g, x0s, k0s, 1.0, ENG)

    def test_stiffness_error_on_rough_coefficients(self, flat):
        # coefficients rough at every scale keep the error estimate O(1), so
        # the step size hovers above the floor while the steps run out the
        # step budget
        preset, _ = flat
        chart = preset.chart

        def rough(pts):
            out = np.zeros((len(pts), 4, 4, 4))
            out[:, 0, 0, 0] = 1e9 * np.sin(1e12 * pts[:, 0])
            return out

        gamma = ConnectionField(chart, rough, provenance="external", name="rough")
        with pytest.raises(StiffnessError):
            integrate_autoparallel(gamma, np.zeros(4), np.array([1.0, 0, 0, 0]), 1.0)

    def test_circular_orbit_radius(self):
        preset = build("schwarzschild-static")
        x0, v0, period = circular_orbit_init(preset, 6.0)
        lc = levi_civita(preset.g, ENG)
        path = integrate_autoparallel(lc, x0, v0, period)
        assert not path.exited
        assert np.abs(path.points[:, 1] - 6.0).max() < 1e-6
        assert path.points[-1, 3] == pytest.approx(2 * np.pi, abs=1e-6)

class TestChartExit:
    """A ray that leaves the chart ends with one integration onto the wall."""

    @pytest.fixture
    def landings(self, monkeypatch):
        # the rays of each integration: the worldlines' own, then each landing
        calls = []
        integrate = worldlines.integrate_adaptive

        def counted(rhs, y, *args, **kwargs):
            calls.append(len(y))
            return integrate(rhs, y, *args, **kwargs)

        monkeypatch.setattr(worldlines, "integrate_adaptive", counted)
        return calls

    @pytest.mark.parametrize("v0, axis, wall", [
        ([1.0, 0.3, -0.2, 0.1], 0, 1.0),     # upper wall
        ([0.3, -1.0, 0.2, 0.0], 1, -1.0),    # lower wall: a negative step length
        ([1.0, 1.0, 0.0, 0.0], 0, 1.0),      # into a corner
    ])
    def test_last_node_on_the_wall(self, flat_phi, landings, v0, axis, wall):
        # the phi bundle reparametrizes its rays, so the last step is not affine
        preset, bundle = flat_phi
        lo, hi = preset.chart.bounds()
        path = integrate_autoparallel(bundle.gamma, np.zeros(4), np.array(v0), 50.0)
        assert path.exited
        assert landings == [1, 1]
        assert path.points[-1, axis] == wall
        assert np.all((path.points[-1] >= lo) & (path.points[-1] <= hi))
        assert np.all(np.diff(path.s) > 0)

    def test_rays_leaving_at_different_steps_land_in_one_batch(self, flat_phi, landings):
        preset, bundle = flat_phi
        v0s = np.array([[1.0, 0.3, -0.2, 0.1], [0.3, -1.0, 0.2, 0.0]])
        paths = integrate_autoparallel_batch(bundle.gamma, np.zeros((2, 4)), v0s, 50.0)
        assert [p.exited for p in paths] == [True, True]
        assert paths[0].steps != paths[1].steps
        assert landings == [2, 2]
        for path, v0 in zip(paths, v0s):
            alone = integrate_autoparallel(bundle.gamma, np.zeros(4), v0, 50.0)
            _assert_same_path(path, alone)

    def test_crossing_near_a_corner_lands_again(self, landings):
        # a radial null ray of a(t)^2 = exp(t/5) from x = 0 reaches the
        # chart's corner (t, x) = (6, 1) when it starts at
        # t = -10 ln(0.1 + exp(-0.6)); started 1e-4 earlier it crosses x = 1
        # just before the time wall
        preset = build("flrw-comoving-dust")
        lo, hi = preset.chart.bounds()
        t0 = -10.0 * np.log(0.1 + np.exp(-0.6)) - 1e-4
        x0 = np.array([t0, 0.0, 0.0, 0.0])
        path = integrate_null_geodesic(preset.g, x0, null_tangent(preset.g, x0, [1.0, 0, 0]),
                                       50.0, ENG)
        # the chord of the last step meets the time wall first; the node
        # landed there lies past x = 1, so the ray is landed again on x = 1
        assert path.exited and landings == [1, 1, 1]
        assert path.points[-1, 1] == 1.0
        assert 6.0 - 1e-3 < path.points[-1, 0] < 6.0
        assert np.all((path.points[-1] >= lo) & (path.points[-1] <= hi))
        assert _null_norm_max(preset.g(path.points), path.tangents) < 1e-10

    def test_ray_on_the_wall_adds_no_node(self, flat):
        preset, bundle = flat
        path = integrate_autoparallel(bundle.gamma, np.array([1.0, 0, 0, 0]),
                                      np.array([1.0, 0, 0, 0]), 1.0)
        assert path.exited
        assert path.s.tolist() == [0.0]

class TestNullGeodesics:
    def test_flat_ray(self, flat):
        preset, bundle = flat
        k0 = null_tangent(preset.g, np.zeros(4), [1.0, 0.0, 0.0])
        assert np.allclose(k0, [1.0, 1.0, 0.0, 0.0])
        path = integrate_null_geodesic(preset.g, np.zeros(4), k0, 0.9, ENG)
        assert _null_norm_max(preset.g(path.points), path.tangents) < 1e-14

    def test_rejects_non_null(self, flat):
        preset, bundle = flat
        with pytest.raises(ValueError, match="not null"):
            integrate_null_geodesic(preset.g, np.zeros(4),
                                    np.array([1.0, 0, 0, 0]), 1.0, ENG)

    def test_cosmology_conformal_straightness(self):
        preset = build("flrw-comoving-dust")
        x0 = np.array([0.0, -0.5, 0.1, 0.1])
        k0 = null_tangent(preset.g, x0, [1.0, 0.0, 0.0])
        path = integrate_null_geodesic(preset.g, x0, k0, 1.2, ENG)
        assert _null_norm_max(preset.g(path.points), path.tangents) < 1e-10
        # conserved radial momentum a^2 k^x
        a2 = np.exp(0.2 * path.points[:, 0])
        assert np.abs(a2 * path.tangents[:, 1] - k0[1]).max() < 1e-9

    def test_radial_ray_slope(self):
        preset = build("schwarzschild-static")
        x0 = np.array([1.0, 4.0, np.pi / 2, 3.0])
        k0 = null_tangent(preset.g, x0, [1.0, 0.0, 0.0])
        path = integrate_null_geodesic(preset.g, x0, k0, 4.0, ENG)
        slope = path.tangents[:, 1] / path.tangents[:, 0]
        assert np.abs(slope - (1.0 - 1.0 / path.points[:, 1])).max() < 1e-6
        assert _null_norm_max(preset.g(path.points), path.tangents) < 1e-8

class TestNullCompatibility:
    def test_metric_connection_has_no_defect(self, flat):
        preset, bundle = flat
        k0 = null_tangent(preset.g, np.zeros(4), [0.6, 0.8, 0.0])
        path = integrate_null_geodesic(preset.g, np.zeros(4), k0, 0.9, ENG)
        lc = levi_civita(preset.g, ENG)(path.points)
        report = _null_defect(lc - lc, path.tangents)
        assert report["max_orthogonal"] == 0.0
        assert report["max_parallel"] == 0.0

    def test_flat_constant_covector_defect(self, flat_phi):
        # defect of the compatible connection on a flat null ray is
        # -2 (k.A) k: orthogonal part zero, coefficient |2 k.A| = 1
        preset, bundle = flat_phi
        k0 = null_tangent(preset.g, np.zeros(4), [1.0, 0.0, 0.0])
        path = integrate_null_geodesic(preset.g, np.zeros(4), k0, 0.9, ENG)
        report = _null_defect(bundle_deformation(preset, path), path.tangents)
        assert report["max_orthogonal"] < 1e-14
        assert report["max_parallel"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["flrw-radiation", "minkowski-sheared"])
    def test_seeded_rays_on_fluid_bundles(self, name):
        preset = build(name)
        bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
        rng = np.random.default_rng(3)
        lo, hi = preset.chart.bounds(preset.chart.margin + 0.15)
        for _ in range(5):
            x0 = lo + rng.random(4) * (hi - lo)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            k0 = null_tangent(preset.g, x0, d)
            s_max = preset.meta.ray_s_max
            path_g = integrate_null_geodesic(preset.g, x0, k0, s_max, ENG)
            report = _null_defect(bundle_deformation(preset, path_g), path_g.tangents)
            assert report["max_orthogonal"] < 1e-8
            path_w = integrate_autoparallel(bundle.gamma, x0, k0, s_max)
            assert trajectory_compare(path_g, path_w) < 1e-6

class TestTrajectoryCompare:
    def test_identical_paths(self, flat):
        preset, bundle = flat
        v0 = np.array([1.0, 0.3, -0.2, 0.0])
        a = integrate_autoparallel(bundle.gamma, np.zeros(4), v0, 0.8)
        assert trajectory_compare(a, a) == 0.0

    def test_reparametrized_same_line(self, flat):
        preset, bundle = flat
        v0 = np.array([1.0, 0.3, 0.0, 0.0])
        a = integrate_autoparallel(bundle.gamma, np.zeros(4), v0, 0.8)
        b = integrate_autoparallel(bundle.gamma, np.zeros(4), 2.0 * v0, 0.4)
        assert trajectory_compare(a, b) < 1e-12

    def test_disjoint_starts_rejected(self, flat):
        preset, bundle = flat
        v0 = np.array([1.0, 0.0, 0.0, 0.0])
        a = integrate_autoparallel(bundle.gamma, np.zeros(4), v0, 0.5)
        b = integrate_autoparallel(bundle.gamma, np.array([0.0, 0.4, 0, 0]), v0, 0.5)
        with pytest.raises(ComparisonError):
            trajectory_compare(a, b)

    def test_flow_lines_are_autoparallel_trajectories(self):
        preset = build("minkowski-sheared")
        bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENG)
        x0 = np.array([-0.2, 0.4, 0.1, -0.1])
        flow = integral_curve(preset.g, preset.state.n, x0, 0.5, ENG)
        auto = integrate_autoparallel(bundle.gamma, x0,
                                      preset.state.n(x0[None, :])[0], 0.5)
        assert trajectory_compare(flow, auto) < 1e-6

def _assert_same_path(a, b):
    for attr in ("s", "points", "tangents"):
        np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr), err_msg=attr)
    assert (a.steps, a.exited) == (b.steps, b.exited)


class TestFluidBatch:
    """One batch of null rays, Weyl autoparallels and a flow line, as the
    worldlines suite runs it, leaves every ray as it is alone."""

    @pytest.fixture(scope="class")
    def batch(self):
        preset = build("minkowski-sheared")
        g, st = preset.g, preset.state
        # the second ray starts near the time wall t = 0.5 and leaves the chart
        x0s = np.array([[-0.1, 0.2, -0.3, 0.1], [0.45, 0.0, 0.1, 0.0]])
        k0s = np.stack([null_tangent(g, x, d) for x, d in
                        zip(x0s, [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])])
        x0 = np.array([-0.2, 0.4, 0.1, -0.1])
        n0 = st.n(x0[None, :])[0]
        kinds = [NULL_GEODESIC] * 2 + [WEYL_AUTOPARALLEL] * 2 + [FLOW_LINE, WEYL_AUTOPARALLEL]
        starts = np.concatenate([x0s, x0s, [x0, x0]])
        tangents = np.concatenate([k0s, k0s, [n0, n0]])
        s_max = 0.5
        paths = integrate_fluid_worldlines(g, st.n, st.phi, ENG, kinds, starts, tangents, s_max)
        return preset, kinds, starts, tangents, s_max, paths

    def test_a_ray_exits_through_the_wall(self, batch):
        *_, paths = batch
        assert [p.exited for p in paths] == [False, True, False, True, False, False]
        assert paths[1].points[-1, 0] == 0.5

    def test_each_row_is_the_row_alone(self, batch):
        preset, kinds, starts, tangents, s_max, paths = batch
        st = preset.state
        for i, path in enumerate(paths):
            alone = integrate_fluid_worldlines(preset.g, st.n, st.phi, ENG, kinds[i:i + 1],
                                               starts[i:i + 1], tangents[i:i + 1], s_max)
            _assert_same_path(path, alone[0])

    def test_rows_match_the_single_kind_integrators(self, batch):
        preset, kinds, starts, tangents, s_max, paths = batch
        st = preset.state
        bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
        null = integrate_autoparallel_batch(levi_civita(preset.g, ENG), starts[:2], tangents[:2],
                                            s_max)
        weyl = integrate_autoparallel_batch(bundle.gamma, starts[2:4], tangents[2:4], s_max)
        auto = integrate_autoparallel(bundle.gamma, starts[5], tangents[5], s_max)
        for path, single in zip(paths[:4] + paths[5:], null + weyl + [auto]):
            _assert_same_path(path, single)
        _assert_same_path(paths[4], integral_curve(preset.g, st.n, starts[4], s_max, ENG))

    def test_one_metric_evaluation_per_stage(self, batch, metric_calls):
        preset, kinds, starts, tangents, s_max, _ = batch
        st = preset.state
        inside = [0, 2, 4, 5]  # the rows that do not reach the wall
        paths = integrate_fluid_worldlines(preset.g, st.n, st.phi, ENG,
                                           [kinds[i] for i in inside], starts[inside],
                                           tangents[inside], s_max)
        assert len(metric_calls) == 6 * max(p.steps for p in paths) + 1

    def test_rejects_a_non_null_ray(self, batch):
        preset, kinds, starts, tangents, s_max, _ = batch
        st = preset.state
        with pytest.raises(ValueError, match="tangent 1 is not null"):
            integrate_fluid_worldlines(preset.g, st.n, st.phi, ENG, kinds[:2], starts[:2],
                                       [tangents[0], 2.0 * tangents[4]], s_max)


class TestRowStability:
    """Each row of the metric data and the flow jet on a batch is the
    evaluation of its point alone, bit for bit, so an integrated ray does
    not depend on the rays batched with it."""

    @pytest.mark.parametrize("name", ["minkowski-sheared", "minkowski-perturbed"])
    @pytest.mark.parametrize("rows", [2, 6, 40])
    def test_batch_rows_are_the_rows_alone(self, name, rows):
        preset = build(name)
        g, st = preset.g, preset.state
        pts = preset.chart.random_points(rows, seed=1)

        def quantities(x):
            data = metric_aux(g, x, ENG)
            jet = flow_jet(g, st.n, ENG, x, st.phi, data)
            return {"val": data.val, "inv": data.inv, "gamma": data.gamma, "n": jet.n,
                    "dn": jet.dn, "A": jet.A, "Gamma": jet.Gamma}

        batch = quantities(pts)
        for i in range(rows):
            for key, alone in quantities(pts[i:i + 1]).items():
                np.testing.assert_array_equal(batch[key][i], alone[0], err_msg=f"{key} row {i}")


class TestWorkGuards:
    def test_worldline_suite_step_batches(self, monkeypatch):
        # the ten-preset worldlines suite at seed 0 made 582 embedded-step
        # batches under the Fehlberg pair with a step cap of s_max / 50, 53 of
        # them wall landings; it makes 309 now, 10 of them landings
        batches = []

        def counted(step):
            def wrapper(rhs, y, h, *args):
                batches.append(len(y))
                return step(rhs, y, h, *args)
            return wrapper

        monkeypatch.setattr(integrators, "embedded_step", counted(integrators.embedded_step))
        for name in verification_matrix():
            entry = PRESETS[name]
            report = run_suite(SuiteConfig(spacetime=entry.spacetime, fluid=entry.fluid, seed=0,
                                           suites=("worldlines",), timing=False))
            assert report.passed, name
        assert len(batches) <= 380


class TestHermiteResample:
    @staticmethod
    def _error(nodes):
        s = np.linspace(0.0, 2.0, nodes)
        path = WorldlinePath(s, np.stack([np.cos(s), np.sin(s)], axis=1),
                             np.stack([-np.sin(s), np.cos(s)], axis=1), steps=0, max_error=0.0)
        svals, pts = path.hermite_resample(2001)
        return np.max(np.abs(pts - np.stack([np.cos(svals), np.sin(svals)], axis=1)))

    def test_fourth_order_under_node_halving(self):
        errors = [self._error(nodes) for nodes in (9, 17, 33, 65)]
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 14.0) & (ratios < 18.0)), ratios


class TestPathExport:
    def test_csv_roundtrip(self, flat, tmp_path):
        preset, bundle = flat
        path = integrate_autoparallel(bundle.gamma, np.zeros(4),
                                      np.array([1.0, 0.2, 0.0, 0.0]), 0.5)
        out = tmp_path / "line.csv"
        path.to_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (len(path.s), 9)
        assert np.allclose(data[:, 0], path.s)
        assert np.allclose(data[:, 1:5], path.points)
        assert np.allclose(data[:, 5:9], path.tangents)
