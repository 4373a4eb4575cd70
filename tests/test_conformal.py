"""Gauge-orbit transport of the bundle and the preferred-frame solver."""

import re

import numpy as np
import pytest

from weylfluid import conformal
from weylfluid.catalog import build, seeded_positive_factor, verification_matrix
from weylfluid.config import SuiteConfig
from weylfluid.conformal import (
    ConformalFactor,
    ConformalWeights,
    _Transport,
    _transport_residual,
    conformal_rescale,
    current_invariance_check,
    incompressibility_residual,
    preferred_frame,
    rescaled_stress_energy_check,
)
from weylfluid.conservation import (
    SliceSpec,
    _condition_scalars,
    number_on_slice,
    particle_current,
    raise_indices2,
)
from weylfluid.errors import GaugeError, ReachabilityError, TransversalityError, WeylFluidError
from weylfluid.fluid import (
    flow_jet,
    fluid_connection,
    fluid_covector,
    geodesic_defect,
    stress_energy,
)
from weylfluid import autodiff as ad
from weylfluid.geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    constant_scalar,
    normalize_timelike,
    scalar_field,
    vector_field,
)
from weylfluid.harness import run_suite
from weylfluid.interpolation import TensorSpline, cardinal_weights, error_estimate, interpolate
from weylfluid.suites import SuiteContext, Tolerances, frame_suite

ENG = DerivativeEngine()


def _count_transport_points(monkeypatch):
    """The list that each call of the frame transport's right-hand side
    appends its point count to."""
    counted = []
    flow_and_source = _Transport._flow_and_source

    def counting(transport, q):
        counted.append(len(q))
        return flow_and_source(transport, q)

    monkeypatch.setattr(_Transport, "_flow_and_source", counting)
    return counted


def _memo_grid(preset, nodes=7):
    """The ``(axes, values)`` of the preset's frame on the memo grid of
    ``nodes`` per axis; 7 is the grid the sized solve starts from."""
    return _transport(preset).memo_grid([nodes] * preset.chart.dim)


def _transport(preset):
    meta = preset.meta
    return _Transport(preset.g, preset.state.n, ENG, meta.slice_axis, meta.slice_values[0])


def _layer_by_layer(transport, counts):
    """The memo grid of ``counts`` nodes filled with one carry per layer:
    each layer's nodes carried alone to the layer before (the first layer
    of a side to the seed slice), reading that layer's values through the
    cardinal weights of its own landings, or the direct solve for a
    landing outside the box."""
    chart, k, value = transport.g.chart, transport.axis, transport.value
    lo, hi = chart.bounds(chart.margin / 2.0)
    axes = [np.linspace(lo[j], hi[j], c) for j, c in enumerate(counts)]
    across = axes[:k] + axes[k + 1:]
    shape = [len(a) for a in across]
    plane = np.stack([a.ravel() for a in np.meshgrid(*across, indexing="ij")], axis=-1)
    layers = np.zeros((len(axes[k]), len(plane)))
    offset = axes[k] - value
    for side in (np.flatnonzero(offset > conformal._MIN_STEP),
                 np.flatnonzero(offset < -conformal._MIN_STEP)[::-1]):
        for n, i in enumerate(side):
            nodes = np.insert(plane, k, axes[k][i], axis=1)
            if n == 0:
                _, layers[i] = transport.carry(nodes, value)
                continue
            before = side[n - 1]
            landing, delta = transport.carry(nodes, axes[k][before])
            inbox = chart.contains(landing, shrink=chart.margin / 2.0)
            start = np.empty(len(nodes))
            weights = cardinal_weights(across, np.delete(landing[inbox], k, axis=1))
            start[inbox] = interpolate(weights, layers[before].reshape(shape))
            start[~inbox] = transport.solve(landing[~inbox])
            layers[i] = delta + start
    return np.moveaxis(layers.reshape([len(axes[k])] + shape), 0, k)


def _setup(name, **params):
    preset = build(name, params or None)
    st = preset.state
    bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
    pts = preset.chart.sample_points(3, 16, seed=0)
    return preset, bundle, pts


class TestWeights:
    def test_admissible_value(self):
        w = ConformalWeights(4)
        assert w.w == -3
        assert w.current_weight == 0
        assert w.stress_weight == -1

    def test_dimension_three(self):
        w = ConformalWeights(3)
        assert w.w == -2
        assert w.stress_weight == 0  # stress-energy conformally invariant


class TestRescale:
    def test_identity_gauge(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        one = ConformalFactor.from_scalar(constant_scalar(preset.chart, 1.0))
        b2, s2 = conformal_rescale(bundle, preset.state, one, ENG)
        assert np.abs(b2.g(pts) - preset.g(pts)).max() < 1e-15
        assert np.abs(s2.n(pts) - preset.state.n(pts)).max() < 1e-15
        assert np.abs(s2.phi(pts) - preset.state.phi(pts)).max() < 1e-12
        assert np.abs(b2.A(pts) - bundle.A(pts)).max() < 1e-12

    def test_flat_exponential_factor(self):
        preset, bundle, pts = _setup("minkowski-dust-rest")
        chart = preset.chart
        fac = ConformalFactor.from_log(scalar_field(chart, lambda c: 0.1 * c[0]))
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        t = pts[:, 0]
        assert np.allclose(s2.phi(pts), -0.1 * np.exp(-0.1 * t), atol=1e-14)
        assert np.allclose(b2.A(pts), np.stack(
            [0.1 + 0 * t, 0 * t, 0 * t, 0 * t], axis=1), atol=1e-14)
        assert np.abs(b2.gamma(pts) - bundle.gamma(pts)).max() < 1e-14

    def test_scalar_weight_arithmetic(self):
        # w = 1 - m = -3: doubling the factor scales pressure by 1/8
        preset, bundle, pts = _setup("minkowski-radiation")
        fac = ConformalFactor.from_scalar(constant_scalar(preset.chart, 2.0))
        _, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        p0 = preset.state.p(pts)
        assert np.allclose(s2.p(pts), p0 / 8.0, rtol=1e-14)

    def test_unit_normalization_preserved(self):
        preset, bundle, pts = _setup("flrw-radiation")
        fac = seeded_positive_factor(preset.chart, 3)
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        norm = np.einsum("nij,ni,nj->n", b2.g(pts), s2.n(pts), s2.n(pts))
        assert np.abs(norm + 1.0).max() < 1e-12

    def test_connection_orbit_invariance(self):
        preset, bundle, pts = _setup("minkowski-perturbed")
        ref = bundle.gamma(pts)
        for seed in range(10):
            fac = seeded_positive_factor(preset.chart, seed)
            b2, _ = conformal_rescale(bundle, preset.state, fac, ENG)
            assert np.abs(b2.gamma(pts) - ref).max() < 1e-9

    def test_covector_closure(self):
        preset, bundle, pts = _setup("minkowski-sheared")
        fac = seeded_positive_factor(preset.chart, 5)
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        rebuilt = fluid_covector(b2.g, s2.n, s2.phi, ENG)
        assert np.abs(b2.A(pts) - rebuilt(pts)).max() < 1e-8

    def test_group_law(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        chart = preset.chart
        f1 = seeded_positive_factor(chart, 21)
        f2 = seeded_positive_factor(chart, 22)
        b_a, s_a = conformal_rescale(bundle, preset.state, f1, ENG)
        b_ab, s_ab = conformal_rescale(b_a, s_a, f2, ENG)
        prod = ConformalFactor.from_log(
            scalar_field(chart, lambda c: f1.ln.fn(c) + f2.ln.fn(c)))
        b_p, s_p = conformal_rescale(bundle, preset.state, prod, ENG)
        for lhs, rhs in [(b_ab.g, b_p.g), (s_ab.n, s_p.n), (b_ab.A, b_p.A),
                         (s_ab.phi, s_p.phi), (s_ab.p, s_p.p), (s_ab.rho, s_p.rho)]:
            assert np.abs(lhs(pts) - rhs(pts)).max() < 1e-9

    def test_gauge_error_on_nonpositive_factor(self):
        preset, bundle, pts = _setup("minkowski-dust-rest")
        bad = ConformalFactor.from_scalar(
            scalar_field(preset.chart, lambda c: c[0]))  # changes sign on the chart
        with pytest.raises(GaugeError):
            conformal_rescale(bundle, preset.state, bad, ENG, check_pts=pts)


class TestWeightChecks:
    def test_stress_energy_weight(self):
        preset, bundle, pts = _setup("flrw-radiation")
        fac = seeded_positive_factor(preset.chart, 8)
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        T = stress_energy(preset.g, preset.state.n, preset.state.p, preset.state.rho)
        T2 = stress_energy(b2.g, s2.n, s2.p, s2.rho)
        assert rescaled_stress_energy_check(T, T2, fac, pts) < 1e-12

    def test_dimension_three_invariance(self):
        preset, bundle, pts = _setup("minkowski3-dust")
        fac = seeded_positive_factor(preset.chart, 9)
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        T = stress_energy(preset.g, preset.state.n, preset.state.p, preset.state.rho)
        T2 = stress_energy(b2.g, s2.n, s2.p, s2.rho)
        assert np.abs(T2(pts) - T(pts)).max() < 1e-12

    def test_current_invariance_and_negative_control(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        st = preset.state
        fac = seeded_positive_factor(preset.chart, 10)
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)

        b2, s2 = conformal_rescale(bundle, st, fac, ENG)
        J2 = particle_current(b2.g, stress_energy(b2.g, s2.n, s2.p, s2.rho), s2.n)
        good = current_invariance_check(J, J2, pts)
        assert good < 1e-12

        bw, sw = conformal_rescale(bundle, st, fac, ENG,
                                   weights=ConformalWeights(4, w=-4))
        Jw = particle_current(bw.g, stress_energy(bw.g, sw.n, sw.p, sw.rho), sw.n)
        bad = current_invariance_check(J, Jw, pts)
        assert bad > 1e-2  # fails by six orders of magnitude and more

    def test_slice_count_gauge_invariance(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        st = preset.state
        fac = seeded_positive_factor(preset.chart, 11)
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)
        b2, s2 = conformal_rescale(bundle, st, fac, ENG)
        J2 = particle_current(b2.g, stress_energy(b2.g, s2.n, s2.p, s2.rho), s2.n)
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        n1, _ = number_on_slice(J, spec)
        n2, _ = number_on_slice(J2, spec)
        assert abs(n1 - n2) < 1e-10


class TestRescaledJet:
    """The rescaled pair's flow jet formed at array level from the base
    jet and ``(ln Phi, d ln Phi)``, against the jet of the rescaled fields."""

    @pytest.mark.parametrize("name", verification_matrix())
    def test_matches_the_jet_of_the_rescaled_fields(self, name):
        preset = build(name)
        st, chart = preset.state, preset.chart
        pts = chart.sample_points(2, 8, 3)
        fac = seeded_positive_factor(chart, 7)
        bundle = fluid_connection(preset.g, st.n, st.phi, ENG)
        b2, s2 = conformal_rescale(bundle, st, fac, ENG)
        phi = constant_scalar(chart, 0.25)
        direct = flow_jet(b2.g, s2.n, ENG, pts, phi)
        ln, dln = ENG.value_and_jacobian(fac.ln, pts)
        jet = conformal._rescaled_jet(flow_jet(preset.g, st.n, ENG, pts), ln, dln, phi)
        for attr in ("val", "inv", "sqrt_det", "dg", "gamma"):
            want, got = getattr(direct.data, attr), getattr(jet.data, attr)
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), attr
        for attr in ("n", "dn", "div", "acc_low", "A", "Gamma"):
            want, got = getattr(direct, attr), getattr(jet, attr)
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), attr


class TestFrameSuiteReadsTheSplineOnce:
    @pytest.mark.parametrize("name", ["flrw-power-dust", "minkowski3-dust"])
    def test_spline_calls_on_the_check_batch(self, name, monkeypatch):
        # one value and one partial per coordinate of the solved ln Phi, on
        # the suite's batch; the memo fill calls no spline at all
        preset = build(name)
        pts = preset.chart.sample_points(2, 8, 3)
        calls = []
        call = TensorSpline.__call__

        def counting(spline, q, nu=None):
            calls.append(len(q))
            return call(spline, q, nu)

        monkeypatch.setattr(TensorSpline, "__call__", counting)
        assert all(c.passed for c in frame_suite(SuiteContext(preset, ENG, pts)))
        assert calls == [len(pts)] * (preset.chart.dim + 1)


class TestPreferredFrame:
    def test_already_incompressible(self):
        preset, bundle, pts = _setup("minkowski-dust-rest")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        assert np.abs(fac.grid_values).max() < 1e-12
        assert np.abs(fac.ln(pts)).max() < 1e-12

    def test_cosmology_closed_form(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        t = fac.grid_axes[0]
        assert np.abs(fac.grid_values[:, 0, 0, 0] + 0.1 * t).max() < 1e-10
        # spot check by direct integration away from the memo grid
        probe = np.array([[2.345, 0.21, -0.4, 0.11]])
        assert fac.solve_at(probe)[0] == pytest.approx(-0.2345, abs=1e-9)

    def test_transport_residual_sheared(self):
        preset, bundle, pts = _setup("minkowski-sheared")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        res = _transport_residual(flow_jet(preset.g, preset.state.n, ENG, pts),
                                  ENG.jacobian(fac.ln, pts))
        assert np.abs(res).max() < 1e-4
        b2, s2 = conformal_rescale(bundle, preset.state, fac, ENG)
        inc = incompressibility_residual(b2.g, s2.n, ENG)(pts)
        assert np.abs(inc).max() < 1e-4

    def test_closed_form_factor_incompressibility(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        closed = preset.meta.closed_frame(0.0)
        b2, s2 = conformal_rescale(bundle, preset.state, closed, ENG)
        inc = incompressibility_residual(b2.g, s2.n, ENG)(pts)
        assert np.abs(inc).max() < 1e-10

    def test_preferred_covector_scalars(self):
        preset, bundle, pts = _setup("flrw-comoving-dust")
        closed = preset.meta.closed_frame(0.0)
        b2, s2 = conformal_rescale(bundle, preset.state, closed, ENG)
        zero = constant_scalar(preset.chart, 0.0)
        pb = fluid_connection(b2.g, s2.n, zero, ENG)
        t_up = raise_indices2(b2.g, stress_energy(b2.g, s2.n, s2.p, s2.rho))
        cs = _condition_scalars(flow_jet(b2.g, s2.n, ENG, pts, zero), t_up(pts), s2.p(pts),
                                s2.rho(pts))
        assert np.abs(cs.s1).max() < 1e-10
        assert np.abs(cs.s2).max() < 1e-10
        assert np.abs(geodesic_defect(pb, s2.n, zero, ENG)(pts)).max() < 1e-10

    def test_sweep_matches_direct_transport(self, monkeypatch):
        # on the sized 7-node grid some one-layer landings leave the memo
        # box and are finished by the direct solve
        preset, bundle, pts = _setup("minkowski-sheared")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        finished = []
        solve = _Transport.solve

        def counting_solve(transport, q):
            finished.append(len(q))
            return solve(transport, q)

        monkeypatch.setattr(_Transport, "solve", counting_solve)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        assert sum(finished) > 0
        nodes = np.stack(
            [a.ravel() for a in np.meshgrid(*fac.grid_axes, indexing="ij")], axis=-1)
        assert np.abs(fac.grid_values.ravel() - fac.solve_at(nodes)).max() <= 1e-8

    @pytest.mark.parametrize("name", ["flrw-comoving-dust", "minkowski-sheared"])
    def test_sweep_work_per_node(self, name, monkeypatch):
        # each node is carried one layer: on 9 nodes per axis, about one
        # embedded step (six stages and the derivative at the start) per node
        preset = build(name)
        counted = _count_transport_points(monkeypatch)
        _, values = _memo_grid(preset, 9)
        assert sum(counted) <= 8 * values.size

    @pytest.mark.parametrize("name", ["minkowski-sheared", "flrw-power-dust"])
    def test_one_metric_evaluation_per_stage(self, name, monkeypatch):
        # the unit flow's jet is formed from the metric jet, not from a
        # second evaluation of the metric through the flow
        preset, bundle, pts = _setup(name)
        calls = []
        fn = preset.g.fn

        def counting(coords):
            calls.append(1)
            return fn(coords)

        monkeypatch.setattr(preset.g, "fn", counting)
        meta = preset.meta
        transport = _Transport(preset.g, preset.state.n, ENG, meta.slice_axis,
                               meta.slice_values[0])
        for _ in range(3):
            transport._flow_and_source(pts)
        assert len(calls) == 3

    @pytest.mark.parametrize("name, counts", [("minkowski-sheared", [7] * 4),
                                              ("flrw-power-dust", [97, 4, 4, 4]),
                                              ("minkowski3-dust", [7] * 3)])
    def test_batched_layers_match_one_carry_per_layer(self, name, counts):
        # a characteristic depends only on its node, and the integrator and
        # the right-hand side are row-stable, so carrying every layer in one
        # batch changes no bit of the grid
        transport = _transport(build(name))
        _, values = transport.memo_grid(counts)
        assert np.array_equal(values, _layer_by_layer(transport, counts))

    def test_one_batch_and_one_solve_per_memo_grid(self, monkeypatch):
        # the sized power-law grid: three memo grids, each one carry of all
        # its layers and at most one direct solve of the landings outside
        # the box
        preset = build("flrw-power-dust")
        carried, grids = [], []
        carry, memo_grid = _Transport.carry, _Transport.memo_grid

        def recording_carry(transport, pts, to):
            carried.append(len(pts))
            return carry(transport, pts, to)

        def recording_grid(transport, counts, prev=None):
            grids.append(len(carried))
            return memo_grid(transport, counts, prev)

        monkeypatch.setattr(_Transport, "carry", recording_carry)
        monkeypatch.setattr(_Transport, "memo_grid", recording_grid)
        fac = preset.solve_frame(ENG)
        assert [len(ax) for ax in fac.grid_axes] == [97, 4, 4, 4]
        assert len(grids) == 3
        assert all(b - a <= 2 for a, b in zip(grids, grids[1:] + [len(carried)]))

    def test_estimation_adds_no_transport(self, monkeypatch):
        # the estimate reads the solved memo values only: on a preset whose
        # 7-node grid meets the target, the sized grid costs what the
        # 7-node memo grid does
        preset = build("minkowski-sheared")
        counted = _count_transport_points(monkeypatch)
        fac = preset.solve_frame(ENG)
        assert [len(ax) for ax in fac.grid_axes] == [7] * 4
        assert error_estimate(fac.grid_axes, fac.grid_values).max() <= 0.1 * Tolerances().frame
        sized = sum(counted)
        counted.clear()
        _memo_grid(preset)
        assert sized == sum(counted)

    def test_refinement_past_the_ceiling_is_refused(self, monkeypatch):
        # the power-law time axis needs 25 nodes after the 7-node grid, and
        # the space axes drop to 4; with the ceiling below 25 x 4^3 nodes
        # that grid is never transported
        preset = build("flrw-power-dust")
        counted = _count_transport_points(monkeypatch)
        estimate = error_estimate(*_memo_grid(preset))
        first = sum(counted)
        monkeypatch.setattr(conformal, "_MAX_NODES", 25 * 4**3 - 1)
        with pytest.raises(WeylFluidError, match="ceiling") as err:
            preset.solve_frame(ENG)
        assert f"axis 't' at 7 nodes estimates {estimate[0]:.3g}" in str(err.value)
        assert sum(counted) == 2 * first

    def test_refined_grid_copies_the_coarse_solve(self, monkeypatch):
        # the time axis is refined 7 -> 25 -> 97 and the space axes, far
        # below the target, drop to their 4 even-indexed nodes; every node
        # the 7-node grid solved is copied, not carried again
        preset = build("flrw-power-dust")
        axes7, values7 = _memo_grid(preset)
        counted = _count_transport_points(monkeypatch)
        sized = preset.solve_frame(ENG)
        assert [len(ax) for ax in sized.grid_axes] == [97, 4, 4, 4]
        assert np.array_equal(sized.grid_values[::16], values7[:, ::2, ::2, ::2])
        assert sum(counted) <= 130_000
        # the halved axes keep the estimates of their 7-node cubics
        target = 0.1 * Tolerances().frame
        assert sized.estimate[0] <= target
        assert np.all(sized.estimate[1:] <= target / 16)
        assert np.array_equal(sized.estimate[1:], error_estimate(axes7, values7)[1:])

    def test_plane_axis_refinement_carries_only_new_plane_nodes(self, monkeypatch):
        # at a tighter tolerance the sheared chart refines its x axis 7 -> 25
        # while t, y and z drop to 4 nodes: every layer is kept, and each
        # carries the 18 x 4 x 4 nodes of its plane that are new
        preset = build("minkowski-sheared")
        carried = []
        carry = _Transport.carry

        def recording(transport, pts, to):
            carried.append(np.asarray(pts))
            return carry(transport, pts, to)

        monkeypatch.setattr(_Transport, "carry", recording)
        fac = preset.solve_frame(ENG, tol=1e-6)
        assert [len(ax) for ax in fac.grid_axes] == [4, 25, 4, 4]
        nodes = fac.grid_points()
        on_grid = [tuple(p) for p in np.concatenate(carried)
                   if all(np.isin(p[j], ax) for j, ax in enumerate(fac.grid_axes))]
        # each node was carried once: by the 7^4 solve if its x node is one
        # of that grid's, else by the refined solve
        assert sorted(on_grid) == sorted(map(tuple, nodes))
        x7 = np.linspace(*fac.grid_axes[1][[0, -1]], 7)
        assert sum(not np.isin(p[1], x7) for p in on_grid) == 4 * 18 * 4 * 4
        assert np.abs(fac.grid_values.ravel() - fac.solve_at(nodes)).max() <= 1e-8

    def test_refined_grid_copies_along_a_later_slice_axis(self):
        # the power-law cosmology with time as the second coordinate: the
        # slice axis is refined and the others halved, and the copied
        # nodes are the coarse grid's own values
        chart = Chart(("x", "t", "y", "z"), ((-1.0, 1.0), (0.5, 4.0), (-1.0, 1.0), (-1.0, 1.0)))

        def metric(c):
            a2 = c[1] ** (4.0 / 3.0)
            return ad.diag(ad.stack([a2, np.full_like(ad.value(c[1]), -1.0), a2, a2]))

        g = MetricField(chart, metric)
        n = normalize_timelike(g, vector_field(chart, lambda c: ad.stack(
            [np.zeros_like(ad.value(c[0])), np.ones_like(ad.value(c[0]))] + [
                np.zeros_like(ad.value(c[0]))] * 2)))
        transport = _Transport(g, n, ENG, 1, 1.0)
        coarse = transport.memo_grid([7] * 4)
        # the batched fill is bit for bit the layer-by-layer one on a slice
        # axis that is not the first
        assert np.array_equal(coarse[1], _layer_by_layer(transport, [7] * 4))
        axes, values = transport.memo_grid([4, 25, 4, 4], coarse)
        assert np.array_equal(values[:, ::4], coarse[1][::2, :, ::2, ::2])
        nodes = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert np.abs(values.ravel() - transport.solve(nodes)).max() <= 1e-8

    @pytest.mark.parametrize("name", ["minkowski-dust-phi", "minkowski-radiation",
                                      "minkowski-perturbed", "minkowski3-dust",
                                      "schwarzschild-static"])
    def test_frame_suite_passes_without_closed_form(self, name):
        # the sized grid passes the frame suite where no closed form checks
        # it, a 3-d chart and Schwarzschild among them
        preset = build(name)
        records = frame_suite(SuiteContext(preset, ENG, preset.chart.sample_points(2, 8, 3)))
        assert records and all(c.passed for c in records), [
            (c.name, c.max_residual) for c in records if not c.passed]

    @pytest.mark.parametrize("name", ["flrw-power-dust", "minkowski-sheared",
                                      "schwarzschild-static"])
    def test_frame_records_do_not_read_the_difference_step(self, name):
        # under forward duals the frame spline differentiates itself and no
        # field is differenced, so the difference step reaches no record
        preset = build(name)
        pts = preset.chart.sample_points(2, 8, 3)
        runs = [[(c.name, c.max_residual)
                 for c in frame_suite(SuiteContext(preset, DerivativeEngine(h=h), pts))]
                for h in (1e-4, 2.5e-5, 4e-4)]
        assert runs[1] == runs[0] and runs[2] == runs[0], runs

    def test_sized_grid_carries_its_estimate(self):
        # a grid the first estimate accepts carries that very estimate
        preset = build("minkowski-sheared")
        fac = preset.solve_frame(ENG)
        assert np.array_equal(fac.estimate, error_estimate(*_memo_grid(preset)))

    def test_csv_layout(self, tmp_path):
        # a header of the coordinate names and ln_factor, then one row per
        # memo node in C order of the grid, each number as %.17g
        preset, bundle, pts = _setup("flrw-comoving-dust")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        path = tmp_path / "frame.csv"
        fac.write_csv(path)
        mesh = np.meshgrid(*fac.grid_axes, indexing="ij")
        nodes = np.stack([a.ravel() for a in mesh], axis=-1)
        rows = ["t,x,y,z,ln_factor"] + [
            ",".join(f"{x:.17g}" for x in [*node, val])
            for node, val in zip(nodes, fac.grid_values.ravel())]
        assert path.read_bytes().decode() == "".join(row + "\r\n" for row in rows)
        assert len(rows) == 1 + 7**4

    def test_reachability_error(self):
        # a characteristic from the box corner drifts out before reaching
        # the seed slice
        preset, bundle, pts = _setup("minkowski-sheared")
        spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
        fac = preferred_frame(preset.g, preset.state.n, spec, ENG)
        with pytest.raises(ReachabilityError):
            fac.solve_at(np.array([[-0.49, 0.9995, 0.0, 0.0]]))

    def test_transversality_error(self):
        # the sheared flow is not transversal to constant-x slices: its x
        # component, a positive multiple of x, is negative on the first
        # layer after the seed slice x = -0.5
        preset, bundle, pts = _setup("minkowski-sheared")
        from weylfluid.errors import TransversalityError

        spec = SliceSpec(1, -0.5, ((-0.4, 0.4),) * 3)
        with pytest.raises(TransversalityError, match="near point"):
            preferred_frame(preset.g, preset.state.n, spec, ENG)

    @pytest.mark.parametrize("nodes", [7, 9])
    def test_tangent_seed_slice_is_refused_at_a_seed_node(self, nodes):
        # on the slice x = 0 the sheared flow's x component vanishes: every
        # grid names a node of that slice, before any characteristic leaves it
        preset = build("minkowski-sheared")
        chart = preset.chart
        transport = conformal._Transport(preset.g, preset.state.n, ENG, 1, 0.0)
        with pytest.raises(TransversalityError, match="near point") as err:
            transport.memo_grid([nodes] * 4)
        point = np.array(re.search(r"near point \[(.*)\]", str(err.value)).group(1).split(),
                         dtype=float)
        lo, hi = chart.bounds(chart.margin / 2.0)
        axes = [np.linspace(lo[j], hi[j], nodes) for j in range(chart.dim)]
        assert point[1] == 0.0
        assert all(np.abs(ax - x).min() < 1e-6 for ax, x in zip(axes, point)), point


class TestCentralDifferenceMode:
    def test_derivative_tolerance_follows_the_engine(self):
        tols = Tolerances(tol_ad=1e-9, tol_fd=1e-5)
        assert tols.derivative(ENG) == 1e-9
        assert tols.derivative(DerivativeEngine(mode="central-difference")) == 1e-5

    def test_conformal_suite_passes(self):
        cfg = SuiteConfig(spacetime="minkowski", fluid="sheared", suites=("conformal",),
                          engine=DerivativeEngine(mode="central-difference"), timing=False)
        report = run_suite(cfg)
        assert report.passed, [c for c in report.checks if not c.passed]
