"""Named verification suites.

Each suite function takes a prepared :class:`SuiteContext` and returns a
list of :class:`CheckRecord`; the harness assembles them into a report.
Every record carries a short anchor phrase naming the identity it
exercises, so reports are self-documenting.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .catalog import (
    CatalogBundle,
    null_tangent,
    polynomial_covector,
    polynomial_scalar,
    perturbed_metric,
    seeded_positive_factor,
    sheared_flow,
    comoving_flow,
)
from .conformal import (
    FRAME_TOL,
    ConformalFactor,
    ConformalWeights,
    _rescaled_jet,
    _shifted_covector,
    _transport_residual,
    conformal_rescale,
    current_invariance_check,
    incompressibility_residual,
    rescaled_stress_energy_check,
)
from .connections import (
    _nonmetricity,
    _torsion,
    _weyl_gamma,
    eps_connection,
    eps_shift,
    levi_civita,
)
from .conservation import (
    _condition_scalars,
    _current_identity,
    _decomposition_residuals,
    _identity_engine,
    _pair,
    current_identity_residual,
    number_on_slice,
    particle_current,
    raise_indices2,
)
from .errors import WeylFluidError
from .fluid import (
    FlowJet,
    WeylBundle,
    _defect,
    flow_jet,
    fluid_connection,
    fluid_covector,
    stress_energy,
)
from .geometry import DerivativeEngine, constant_scalar, metric_aux, require_finite, scalar_field
from .worldlines import (
    FLOW_LINE,
    NULL_GEODESIC,
    WEYL_AUTOPARALLEL,
    _null_defect,
    _null_norm_max,
    integrate_fluid_worldlines,
    trajectory_compare,
)


@dataclass(frozen=True)
class Tolerances:
    """Residual thresholds, one per check family."""

    tol_ad: float = 1e-9
    tol_fd: float = 1e-5
    inverse: float = 1e-12
    identity: float = 1e-8
    frame: float = FRAME_TOL
    frame_closed: float = 1e-6
    quadrature_rel: float = 1e-6
    trajectory: float = 1e-6
    null_orthogonal: float = 1e-8
    current_weight: float = 1e-8
    stress_weight: float = 1e-9

    def derivative(self, engine: DerivativeEngine) -> float:
        """Threshold of the checks on first derivatives taken by ``engine``:
        ``tol_fd`` for central differences, ``tol_ad`` for forward duals."""
        return self.tol_fd if engine.mode == "central-difference" else self.tol_ad


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    max_residual: float
    tol: float
    passed: bool


@dataclass
class SuiteContext:
    """Everything a suite needs: the built preset, derivative engine,
    shared sample batch, thresholds and seeds.

    The context also forms, on first read, the geometry that every
    pointwise check reads on the sample batch: ``data``, the metric data
    of the preset's metric with derivatives, and ``jet``, the preset
    flow's jet on that data with ``A`` and ``Gamma`` of the preset's
    scalar (:func:`flow_jet`).  Each is formed once per context and read
    by the connection, fluid, conservation and conformal suites, and a run
    of suites that reads neither (frame, worldlines) pays nothing for them.
    """

    preset: CatalogBundle
    engine: DerivativeEngine
    pts: np.ndarray
    tols: Tolerances = dc_field(default_factory=Tolerances)
    seed: int = 0
    weight_override: int = None
    rays: int = 5
    nonmetricity_pairs: int = 20
    seeded_factors: int = 10

    @cached_property
    def bundle(self) -> WeylBundle:
        st = self.preset.state
        return fluid_connection(self.preset.g, st.n, st.phi, self.engine)

    @cached_property
    def data(self):
        """The metric data of the preset's metric on the sample, with
        derivatives."""
        return metric_aux(self.preset.g, self.pts, self.engine)

    @cached_property
    def jet(self) -> FlowJet:
        """The flow jet of the preset's ``(g, n, phi)`` on the sample."""
        st = self.preset.state
        return flow_jet(self.preset.g, st.n, self.engine, self.pts, st.phi, data=self.data)

    def record(self, name, anchor, residual, tol) -> CheckRecord:
        residual = float(residual)
        return CheckRecord(name, anchor, residual, float(tol), bool(residual <= tol))


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr)))


# -- connection suite ---------------------------------------------------------


def connection_suite(ctx: SuiteContext):
    g, engine, pts, tols = ctx.preset.g, ctx.engine, ctx.pts, ctx.tols
    chart = g.chart
    checks = []

    data = ctx.data
    checks.append(ctx.record(
        "metric-symmetry", "metric components are symmetric",
        _maxabs(data.val - np.swapaxes(data.val, 1, 2)), 0.0))

    try:
        g.check_signature(pts)
        sig = 0.0
    except WeylFluidError:
        sig = 1.0
    checks.append(ctx.record(
        "metric-signature", "one negative and m-1 positive metric eigenvalues", sig, 0.5))

    eye = np.eye(chart.dim)
    checks.append(ctx.record(
        "metric-inverse", "g times its inverse is the identity",
        _maxabs(np.einsum("nab,nbc->nac", data.inv, data.val) - eye), tols.inverse))

    jet = ctx.jet
    checks.append(ctx.record(
        "torsion-free", "connection coefficients are symmetric in the lower pair",
        _maxabs(_torsion(jet.Gamma)), 0.0))

    zero_cov = polynomial_covector(chart, np.random.default_rng(0), 0.0)
    lc = levi_civita(g, engine)
    checks.append(ctx.record(
        "zero-covector-reduction", "vanishing covector reproduces the metric connection",
        _maxabs(eps_connection(g, zero_cov, engine)(pts) - lc(pts)), 0.0))

    metric_res, trace_res = _nonmetricity(jet.data, jet.Gamma, jet.A)
    checks.append(ctx.record(
        "nonmetricity", "covariant metric derivative equals twice covector times metric",
        _maxabs(metric_res), tols.derivative(engine)))
    checks.append(ctx.record(
        "volume-trace", "weight-1 derivative of sqrt|g| equals m A sqrt|g|",
        _maxabs(trace_res), tols.derivative(engine)))

    worst_pair = 0.0
    base = ctx.preset.g
    for k in range(ctx.nonmetricity_pairs):
        rng_seed = ctx.seed * 1000 + k
        gk = perturbed_metric(base, 0.01, rng_seed)
        ak = polynomial_covector(chart, np.random.default_rng(rng_seed + 1), 0.3)
        # one metric jet and one covector evaluation per pair
        data, aval = metric_aux(gk, pts, engine), ak(pts)
        gam = require_finite(_weyl_gamma(data, aval), f"connection eps({gk.name},{ak.name})")
        metric_res, trace_res = _nonmetricity(data, gam, aval)
        worst_pair = max(worst_pair, _maxabs(metric_res), _maxabs(trace_res))
    checks.append(ctx.record(
        "nonmetricity-seeded-pairs",
        "non-metricity and trace identities over seeded metric/covector pairs",
        worst_pair, tols.derivative(engine)))
    return checks


# -- fluid suite --------------------------------------------------------------


def _fluid_family(ctx: SuiteContext):
    """The preset family swept by geodesy checks: comoving and sheared flows
    crossed with zero/constant/polynomial reparametrization scalars."""
    g = ctx.preset.g
    chart = g.chart
    rng = np.random.default_rng(ctx.seed + 7)
    flows = [ctx.preset.state.n, comoving_flow(chart, g)]
    if chart.intervals[1][0] <= 0.0 <= chart.intervals[1][1]:
        flows.append(sheared_flow(chart, g, 0.1))
    phis = [
        ctx.preset.state.phi,
        constant_scalar(chart, 0.0),
        constant_scalar(chart, 0.4),
        polynomial_scalar(chart, rng, 0.2, name="phi(poly)"),
    ]
    return flows, phis


def _geodesy(jet: FlowJet, nval, phival):
    """The geodesic defect and ``n^a A_a + phi`` of the bundle built from
    the flow jet's ``(g, n, phi)``.  The values ``nval`` of the flow and
    ``phival`` of the scalar are evaluated apart from the jet, so the checks
    also catch a jet formed for another flow or scalar."""
    defect = require_finite(_defect(jet.n, jet.dn, jet.Gamma, phival), "field geodesic-defect")
    return defect, np.einsum("na,na->n", jet.A, nval) + phival


def fluid_suite(ctx: SuiteContext):
    g, engine, pts, tols = ctx.preset.g, ctx.engine, ctx.pts, ctx.tols
    st = ctx.preset.state
    checks = []

    nv = st.n(pts)
    defect, contraction = _geodesy(ctx.jet, nv, st.phi(pts))
    checks.append(ctx.record(
        "geodesic-defect", "flow transport is proportional to the flow",
        _maxabs(defect), tols.derivative(engine)))
    checks.append(ctx.record(
        "covector-flow-contraction", "flow contraction of the covector is minus the scalar",
        _maxabs(contraction), tols.derivative(engine)))

    tval = stress_energy(g, st.n, st.p, st.rho)(pts)
    checks.append(ctx.record(
        "stress-energy-symmetry", "stress-energy is symmetric",
        _maxabs(tval - np.swapaxes(tval, 1, 2)), 0.0))

    tn = np.einsum("nma,nab,nb->nm", ctx.data.inv, tval, nv)
    checks.append(ctx.record(
        "flow-eigenvector", "the flow is a stress-energy eigenvector with eigenvalue -rho",
        _maxabs(tn + st.rho(pts)[:, None] * nv), tols.inverse))

    # one flow jet per flow, on the sample's metric data, serves every scalar
    flows, phis = _fluid_family(ctx)
    phivals = [phi(pts) for phi in phis]
    worst = 0.0
    for flow in flows:
        jet = ctx.jet if flow is st.n else flow_jet(g, flow, engine, pts, data=ctx.data)
        nval = flow(pts)
        for phi, phival in zip(phis, phivals):
            defect, contraction = _geodesy(jet.with_phi(phi), nval, phival)
            worst = max(worst, _maxabs(defect), _maxabs(contraction))
    checks.append(ctx.record(
        "geodesic-defect-family", "geodesy across the preset flow/scalar family",
        worst, tols.derivative(engine)))
    return checks


# -- conservation suite -------------------------------------------------------


def conservation_suite(ctx: SuiteContext):
    g, engine, pts, tols = ctx.preset.g, ctx.engine, ctx.pts, ctx.tols
    st = ctx.preset.state
    meta = ctx.preset.meta
    checks = []

    # T^{ab}, p and rho, and then the current, each formed once on the sample
    jet = ctx.jet
    T = stress_energy(g, st.n, st.p, st.rho)
    t_up = raise_indices2(g, T)
    tp, p, rho = (_pair(f, engine, pts) for f in (t_up, st.p, st.rho))
    flow_res, ortho_res = _decomposition_residuals(jet, tp, p, rho)
    checks.append(ctx.record(
        "divergence-decomposition-flow",
        "flow projection of the stress-energy divergence matches the first condition",
        _maxabs(flow_res), tols.identity))
    checks.append(ctx.record(
        "divergence-decomposition-orthogonal",
        "orthogonal projection matches the second condition",
        _maxabs(ortho_res), tols.identity))

    J = particle_current(g, T, st.n)
    jv, dj = _pair(J, engine, pts)
    expected = -jet.data.sqrt_det[:, None] * rho[0][:, None] * st.n(pts)
    checks.append(ctx.record(
        "current-perfect-fluid-form", "current equals minus density times weighted flow",
        _maxabs(jv - expected), tols.derivative(engine)))

    # under central differences the identity takes its own engine, and with
    # it its own flow jet, T^{ab} pair and current jacobian
    identity = (_current_identity(jet, tp, dj) if _identity_engine(engine) == engine
                else current_identity_residual(g, T, st.n, st.phi, engine)(pts))
    checks.append(ctx.record(
        "current-divergence-identity",
        "coordinate current divergence equals its connection decomposition",
        _maxabs(identity), tols.identity))

    cs = _condition_scalars(jet, tp[0], p[0], rho[0])
    checks.append(ctx.record(
        "condition-scalar-transport", "contracted flow-transport scalar matches closed form",
        _maxabs(cs.s1_residual), tols.derivative(engine)))
    checks.append(ctx.record(
        "condition-scalar-covector", "contracted covector scalar equals rho phi",
        _maxabs(cs.s2_residual), tols.derivative(engine)))

    if meta.conserved:
        checks.append(ctx.record(
            "current-conservation", "conserved preset has divergence-free current",
            _maxabs(np.einsum("naa->n", dj)), tols.identity))
        n1, _ = number_on_slice(J, ctx.preset.slice_spec(0))
        n2, _ = number_on_slice(J, ctx.preset.slice_spec(1))
        rel = abs(n1 - n2) / max(abs(n1), abs(n2), 1e-300)
        checks.append(ctx.record(
            "slice-count-conservation", "slice counts agree along the flow",
            rel, tols.quadrature_rel))
    return checks


# -- conformal suite ----------------------------------------------------------


def _rescaled_covector(ctx: SuiteContext, b2: WeylBundle, a: np.ndarray, factor) -> np.ndarray:
    """``b2.A`` on the sample, for the bundle ``b2`` rescaled by ``factor``
    from one whose covector takes the values ``a`` there."""
    a2 = _shifted_covector(a, factor.ln, ctx.engine, ctx.pts)
    return require_finite(a2, f"field {b2.A.name}")


def conformal_suite(ctx: SuiteContext):
    g, engine, pts, tols = ctx.preset.g, ctx.engine, ctx.pts, ctx.tols
    st = ctx.preset.state
    bundle = ctx.bundle
    chart = g.chart
    m = chart.dim
    weights = None if ctx.weight_override is None else ConformalWeights(m, w=ctx.weight_override)
    checks = []

    # the rescaled covectors on the sample are shifted from the shared A
    jet = ctx.jet
    gamma_ref = jet.Gamma
    worst_orbit = 0.0
    for k in range(ctx.seeded_factors):
        fac = seeded_positive_factor(chart, ctx.seed * 100 + k)
        b2, _ = conformal_rescale(bundle, st, fac, engine, check_pts=pts)
        # b2.gamma on the sample, from its covector there and its metric's own data
        a2 = _rescaled_covector(ctx, b2, jet.A, fac)
        gamma2 = require_finite(_weyl_gamma(metric_aux(b2.g, pts, engine), a2),
                                f"connection {b2.gamma.name}")
        worst_orbit = max(worst_orbit, _maxabs(gamma2 - gamma_ref))
    checks.append(ctx.record(
        "connection-orbit-invariance", "the connection is unchanged along the gauge orbit",
        worst_orbit, tols.derivative(engine)))

    f1 = seeded_positive_factor(chart, ctx.seed * 100 + 41)
    f2 = seeded_positive_factor(chart, ctx.seed * 100 + 42)
    b_i, s_i = conformal_rescale(bundle, st, f1, engine)
    b_ii, s_ii = conformal_rescale(b_i, s_i, f2, engine)
    prod = ConformalFactor.from_log(
        scalar_field(chart, lambda c: f1.ln.fn(c) + f2.ln.fn(c)))
    b_p, s_p = conformal_rescale(bundle, st, prod, engine)
    a_ii = _rescaled_covector(ctx, b_ii, _rescaled_covector(ctx, b_i, jet.A, f1), f2)
    group = max(
        _maxabs(b_ii.g(pts) - b_p.g(pts)),
        _maxabs(s_ii.n(pts) - s_p.n(pts)),
        _maxabs(a_ii - _rescaled_covector(ctx, b_p, jet.A, prod)),
        _maxabs(s_ii.phi(pts) - s_p.phi(pts)),
        _maxabs(s_ii.p(pts) - s_p.p(pts)),
        _maxabs(s_ii.rho(pts) - s_p.rho(pts)),
    )
    checks.append(ctx.record(
        "gauge-group-law", "successive rescalings compose multiplicatively", group,
        tols.derivative(engine)))

    fac = seeded_positive_factor(chart, ctx.seed * 100 + 43)
    b2, s2 = conformal_rescale(bundle, st, fac, engine, weights=weights)
    norm = np.einsum("nij,ni,nj->n", b2.g(pts), s2.n(pts), s2.n(pts))
    checks.append(ctx.record(
        "rescaled-normalization", "rescaled flow is unit for the rescaled metric",
        _maxabs(norm + 1.0), tols.derivative(engine)))

    closure = fluid_covector(b2.g, s2.n, s2.phi, engine)
    checks.append(ctx.record(
        "covector-transformation-closure",
        "rescaled covector is induced by the rescaled flow and scalar",
        _maxabs(_rescaled_covector(ctx, b2, jet.A, fac) - closure(pts)), tols.identity))

    T = stress_energy(g, st.n, st.p, st.rho)
    T2 = stress_energy(b2.g, s2.n, s2.p, s2.rho)
    checks.append(ctx.record(
        "stress-energy-weight", "rescaled stress-energy carries exponent 3-m",
        rescaled_stress_energy_check(T, T2, fac, pts), tols.stress_weight))

    J = particle_current(g, T, st.n)
    J2 = particle_current(b2.g, T2, s2.n)
    checks.append(ctx.record(
        "current-weight", "the current is a gauge-orbit fixed point",
        current_invariance_check(J, J2, pts), tols.current_weight))

    spec = ctx.preset.slice_spec()
    n1, _ = number_on_slice(J, spec)
    n2, _ = number_on_slice(J2, spec)
    checks.append(ctx.record(
        "slice-count-gauge-invariance", "slice counts are gauge invariant",
        abs(n1 - n2) / max(abs(n1), 1e-300), tols.quadrature_rel))
    return checks


# -- frame suite --------------------------------------------------------------


def frame_suite(ctx: SuiteContext):
    g, engine, pts, tols = ctx.preset.g, ctx.engine, ctx.pts, ctx.tols
    st = ctx.preset.state
    meta = ctx.preset.meta
    chart = g.chart
    checks = []

    factor = ctx.preset.solve_frame(engine, tols.frame)
    # ln Phi and its gradient, read off the spline once, and the base flow's
    # jet: the transport residual and the rescaled pair's jet come from them
    ln, dln = engine.value_and_jacobian(factor.ln, pts)
    base = flow_jet(g, st.n, engine, pts)
    checks.append(ctx.record(
        "frame-transport", "solved factor satisfies the transport equation",
        _maxabs(_transport_residual(base, dln)), tols.frame))

    if meta.closed_frame is not None:
        closed = meta.closed_frame(meta.slice_values[0])
        checks.append(ctx.record(
            "frame-closed-form", "solved log factor matches the closed form on the grid",
            _maxabs(factor.grid_values.ravel() - closed.ln(factor.grid_points())),
            tols.frame_closed))
        b2c, s2c = conformal_rescale(ctx.bundle, st, closed, engine)
        checks.append(ctx.record(
            "incompressibility-closed-form",
            "closed-form gauge makes the flow divergence-free",
            _maxabs(incompressibility_residual(b2c.g, s2c.n, engine)(pts)),
            tols.frame_closed))

    # one flow jet of the rescaled pair feeds the last four checks; the
    # stress-energy and scalars carry their weights from the base bundle
    zero = constant_scalar(chart, 0.0)
    jet = _rescaled_jet(base, ln, dln, zero)
    checks.append(ctx.record(
        "incompressibility", "solved gauge makes the flow divergence-free",
        _maxabs(require_finite(jet.div, "field incompressibility-residual")), tols.frame))

    w = ConformalWeights(chart.dim).w
    scale = np.exp(ln)
    t_up = raise_indices2(g, stress_energy(g, st.n, st.p, st.rho))(pts)
    cs = _condition_scalars(jet, (scale ** (w - 2))[:, None, None] * t_up,
                            scale ** w * st.p(pts), scale ** w * st.rho(pts))
    checks.append(ctx.record(
        "preferred-scalar-transport", "first obstruction scalar vanishes in the frame",
        _maxabs(cs.s1), tols.frame))
    checks.append(ctx.record(
        "preferred-scalar-covector", "second obstruction scalar vanishes in the frame",
        _maxabs(cs.s2), tols.frame))
    checks.append(ctx.record(
        "preferred-geodesic-defect", "flow is affinely autoparallel in the frame",
        _maxabs(require_finite(_defect(jet.n, jet.dn, jet.Gamma, zero(pts)),
                               "field geodesic-defect")), tols.frame))
    return checks


# -- worldlines suite ---------------------------------------------------------


def worldlines_suite(ctx: SuiteContext):
    g, engine, tols = ctx.preset.g, ctx.engine, ctx.tols
    st = ctx.preset.state
    chart = g.chart
    checks = []

    rng = np.random.default_rng(ctx.seed + 101)
    lo, hi = chart.bounds(chart.margin + 0.15)
    s_max = ctx.preset.meta.ray_s_max

    x0s = lo + rng.random((ctx.rays, chart.dim)) * (hi - lo)
    dirs = rng.normal(size=(ctx.rays, chart.dim - 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    k0s = np.stack([null_tangent(g, x0, d) for x0, d in zip(x0s, dirs)])
    # one batch: the metric null rays, the Weyl autoparallels from the same
    # starts, then the flow line through the centre and its autoparallel
    x0 = 0.5 * (lo + hi)
    n0 = st.n(x0[None, :])[0]
    kinds = ([NULL_GEODESIC] * ctx.rays + [WEYL_AUTOPARALLEL] * ctx.rays
             + [FLOW_LINE, WEYL_AUTOPARALLEL])
    paths = integrate_fluid_worldlines(
        g, st.n, st.phi, engine, kinds, np.concatenate([x0s, x0s, [x0, x0]]),
        np.concatenate([k0s, k0s, [n0, n0]]), s_max)
    paths_g, paths_w = paths[:ctx.rays], paths[ctx.rays:2 * ctx.rays]
    flow_path, auto_path = paths[-2:]

    worst_dev = 0.0
    worst_ortho = 0.0
    worst_drift = 0.0
    for path_g, path_w in zip(paths_g, paths_w):
        # one flow jet on the path's nodes gives the metric for the drift and
        # the bundle connection's deformation of the Levi-Civita one
        jet = flow_jet(g, st.n, engine, path_g.points, st.phi)
        worst_drift = max(worst_drift, _null_norm_max(jet.data.val, path_g.tangents))
        report = _null_defect(eps_shift(jet.data.inv, jet.data.val, jet.A), path_g.tangents)
        worst_ortho = max(worst_ortho, report["max_orthogonal"])
        # deviation per unit auxiliary arc over the common range
        _, dense = path_g.hermite_resample(400)
        arc = max(float(np.sum(np.linalg.norm(np.diff(dense, axis=0), axis=1))), 1e-6)
        worst_dev = max(worst_dev, trajectory_compare(path_g, path_w) / arc)
    checks.append(ctx.record(
        "null-first-integral", "tangent norm is conserved along metric null geodesics",
        worst_drift, tols.identity))
    checks.append(ctx.record(
        "null-compatibility-defect", "null transport defect stays parallel to the ray",
        worst_ortho, tols.null_orthogonal))
    checks.append(ctx.record(
        "null-trajectory-coincidence",
        "metric null geodesics and connection autoparallels share trajectories",
        worst_dev, tols.trajectory))

    checks.append(ctx.record(
        "flow-line-trajectory", "flow lines are autoparallel trajectories",
        trajectory_compare(flow_path, auto_path), tols.trajectory))
    return checks


SUITES = {
    "connection": connection_suite,
    "fluid": fluid_suite,
    "conservation": conservation_suite,
    "conformal": conformal_suite,
    "frame": frame_suite,
    "worldlines": worldlines_suite,
}
