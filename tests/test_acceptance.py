"""Acceptance criteria.

One test per criterion, each printing a single pass/fail line with the
worst residual and its threshold.  Tolerances are pinned here and nowhere
else; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import numpy as np
import pytest

from weylfluid.catalog import (
    PRESETS,
    build,
    null_tangent,
    perturbed_metric,
    polynomial_covector,
    minkowski_chart,
    minkowski_metric,
    seeded_positive_factor,
    verification_matrix,
)
from weylfluid.conformal import (
    ConformalFactor,
    ConformalWeights,
    conformal_rescale,
    current_invariance_check,
    rescaled_stress_energy_check,
)
from weylfluid.config import SuiteConfig
from weylfluid.connections import _nonmetricity, _weyl_gamma, eps_shift
from weylfluid.conservation import (
    _condition_scalars,
    current_identity_residual,
    particle_current,
    raise_indices2,
)
from weylfluid.fluid import flow_jet, fluid_connection, geodesic_defect, stress_energy
from weylfluid.geometry import DerivativeEngine, metric_aux, scalar_field
from weylfluid.harness import run_suite
from weylfluid.suites import SuiteContext
from weylfluid.worldlines import (
    NULL_GEODESIC,
    WEYL_AUTOPARALLEL,
    _null_defect,
    integrate_fluid_worldlines,
    trajectory_compare,
)

from conftest import run_weylfluid

ENGINE = DerivativeEngine()
GRID_PER_AXIS = 5
RANDOM_POINTS = 64
SEED = 0


def _report(criterion: int, label: str, worst: float, tol: float) -> None:
    status = "PASS" if worst < tol else "FAIL"
    print(f"[{status}] criterion {criterion:2d}: {label}: "
          f"max residual {worst:.3e} (tolerance {tol:.1e})")
    assert worst < tol, f"criterion {criterion}: {label}: {worst:.3e} >= {tol:.1e}"


def _sweep_records(name, suite):
    """The records of ``suite`` on preset ``name`` by check name, as the
    sweep forms them: through the harness, on this file's point set."""
    entry = PRESETS[name]
    report = run_suite(SuiteConfig(
        spacetime=entry.spacetime, fluid=entry.fluid, suites=(suite,), seed=SEED,
        grid_per_axis=GRID_PER_AXIS, random_points=RANDOM_POINTS, timing=False))
    return {c.name.split(":", 1)[1]: c.max_residual for c in report.checks}


@pytest.fixture(scope="module")
def conservation_records():
    return {name: _sweep_records(name, "conservation") for name in verification_matrix()}


@pytest.fixture(scope="module")
def presets():
    out = {}
    for name in verification_matrix():
        preset = build(name, seed=SEED)
        pts = preset.chart.sample_points(GRID_PER_AXIS, RANDOM_POINTS, seed=SEED)
        bundle = fluid_connection(preset.g, preset.state.n, preset.state.phi, ENGINE)
        out[name] = (preset, bundle, pts)
    return out


def test_c01_geodesy_of_fluid_bundles(presets):
    worst = 0.0
    for preset, bundle, pts in presets.values():
        st = preset.state
        defect = geodesic_defect(bundle, st.n, st.phi, ENGINE)(pts)
        worst = max(worst, float(np.abs(defect).max()))
    _report(1, "fluid flows are autoparallel up to their scalar", worst, 1e-9)


def test_c02_nonmetricity_identity():
    # the connection suite's seeded-pair path: one metric jet and one
    # covector evaluation per pair, and the Weyl connection formed from them
    chart = minkowski_chart(4)
    base = minkowski_metric(chart)
    pts = chart.sample_points(GRID_PER_AXIS, RANDOM_POINTS, seed=SEED)
    worst = 0.0
    for k in range(20):
        g = perturbed_metric(base, 0.01, seed=k)
        A = polynomial_covector(chart, np.random.default_rng(1000 + k), 0.4)
        data, aval = metric_aux(g, pts, ENGINE), A(pts)
        metric, trace = _nonmetricity(data, _weyl_gamma(data, aval), aval)
        worst = max(worst, float(np.abs(metric).max()), float(np.abs(trace).max()))
    _report(2, "non-metricity and volume-trace identities on seeded pairs", worst, 1e-9)


def test_c03_conformal_orbit_invariance(presets):
    preset, bundle, pts = presets["flrw-radiation"]
    ref = bundle.gamma(pts)
    worst = 0.0
    for k in range(10):
        factor = seeded_positive_factor(preset.chart, 300 + k)
        b2, _ = conformal_rescale(bundle, preset.state, factor, ENGINE)
        worst = max(worst, float(np.abs(b2.gamma(pts) - ref).max()))

    f1 = seeded_positive_factor(preset.chart, 311)
    f2 = seeded_positive_factor(preset.chart, 312)
    b_a, s_a = conformal_rescale(bundle, preset.state, f1, ENGINE)
    b_ab, s_ab = conformal_rescale(b_a, s_a, f2, ENGINE)
    prod = ConformalFactor.from_log(
        scalar_field(preset.chart, lambda c: f1.ln.fn(c) + f2.ln.fn(c)))
    b_p, s_p = conformal_rescale(bundle, preset.state, prod, ENGINE)
    for lhs, rhs in [(b_ab.g, b_p.g), (s_ab.n, s_p.n), (b_ab.A, b_p.A),
                     (s_ab.phi, s_p.phi), (s_ab.p, s_p.p), (s_ab.rho, s_p.rho)]:
        worst = max(worst, float(np.abs(lhs(pts) - rhs(pts)).max()))
    _report(3, "connection invariance and group law along the gauge orbit", worst, 1e-9)


def test_c04_current_weight(presets):
    worst_j = 0.0
    worst_t = 0.0
    for name, (preset, bundle, pts) in presets.items():
        st = preset.state
        factor = seeded_positive_factor(preset.chart, 400)
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        J = particle_current(preset.g, T, st.n)
        b2, s2 = conformal_rescale(bundle, st, factor, ENGINE)
        T2 = stress_energy(b2.g, s2.n, s2.p, s2.rho)
        J2 = particle_current(b2.g, T2, s2.n)
        worst_j = max(worst_j, current_invariance_check(J, J2, pts))
        worst_t = max(worst_t, rescaled_stress_energy_check(T, T2, factor, pts))
    _report(4, "current is weight-zero along the orbit", worst_j, 1e-8)
    _report(4, "stress-energy scales with exponent 3-m", worst_t, 1e-9)

    preset, bundle, pts = presets["flrw-comoving-dust"]
    st = preset.state
    factor = seeded_positive_factor(preset.chart, 401)
    T = stress_energy(preset.g, st.n, st.p, st.rho)
    J = particle_current(preset.g, T, st.n)
    bw, sw = conformal_rescale(bundle, st, factor, ENGINE,
                               weights=ConformalWeights(4, w=-4))
    Tw = stress_energy(bw.g, sw.n, sw.p, sw.rho)
    Jw = particle_current(bw.g, Tw, sw.n)
    bad_j = current_invariance_check(J, Jw, pts)
    bad_t = rescaled_stress_energy_check(T, Tw, factor, pts)
    print(f"[PASS] criterion  4: negative control (weight -m): current residual "
          f"{bad_j:.3e}, stress residual {bad_t:.3e} (must exceed 1e-2 / 1e-3)")
    assert bad_j > 1e-8 * 1e6 and bad_t > 1e-9 * 1e6


def test_c05_current_divergence_identity(presets):
    worst = 0.0
    for preset, bundle, pts in presets.values():
        st = preset.state
        T = stress_energy(preset.g, st.n, st.p, st.rho)
        res = current_identity_residual(preset.g, T, st.n, st.phi, ENGINE)
        worst = max(worst, float(np.abs(res(pts)).max()))
    _report(5, "coordinate current divergence decomposes through the connection",
            worst, 1e-8)


def test_c06_conservation_decomposition(conservation_records):
    worst = max(records[name] for records in conservation_records.values()
                for name in ("divergence-decomposition-flow",
                             "divergence-decomposition-orthogonal"))
    _report(6, "divergence projections match the frozen-sign conditions", worst, 1e-8)


def test_c07_condition_scalar_closed_forms(presets, conservation_records):
    worst = max(records[name] for records in conservation_records.values()
                for name in ("condition-scalar-transport", "condition-scalar-covector"))
    worst_dust = 0.0
    for preset, bundle, pts in presets.values():
        st = preset.state
        if np.any(st.p(pts)):
            continue
        # the conservation suite's contraction, on its flow jet and T^{ab}
        jet = SuiteContext(preset, ENGINE, pts).jet
        t_up = raise_indices2(preset.g, stress_energy(preset.g, st.n, st.p, st.rho))
        cs = _condition_scalars(jet, t_up(pts), st.p(pts), st.rho(pts))
        dust = cs.s1 - st.rho(pts) * st.phi(pts)
        worst_dust = max(worst_dust, float(np.abs(dust).max()))
    _report(7, "condition scalars match their closed forms", worst, 1e-9)
    _report(7, "pressureless transport scalar reduces to rho phi", worst_dust, 1e-9)


def test_c08_preferred_frame():
    # each preset's frame is solved from its seed slice x^0 = 0 over the box
    # (-0.5, 0.5)^3, as the frame suite solves it
    records = _sweep_records("flrw-comoving-dust", "frame")
    _report(8, "cosmology log factor matches the closed form on the memo grid",
            records["frame-closed-form"], 1e-6)

    records = _sweep_records("minkowski-sheared", "frame")
    _report(8, "sheared-chart transport residual", records["frame-transport"], 1e-4)
    _report(8, "sheared-chart rescaled flow divergence", records["incompressibility"], 1e-4)
    worst_s = max(records["preferred-scalar-transport"], records["preferred-scalar-covector"])
    _report(8, "obstruction scalars vanish in the preferred frame", worst_s, 1e-4)


def test_c09_particle_number_conservation(conservation_records):
    # the conserved dust's slices are x^0 = 0 and x^0 = 5 over (-0.5, 0.5)^3
    records = conservation_records["flrw-comoving-dust"]
    _report(9, "conserved dust current is divergence-free", records["current-conservation"],
            1e-8)
    _report(9, "slice counts agree along the flow", records["slice-count-conservation"], 1e-6)


def test_c10_null_compatibility(presets):
    # the worldlines suite's path: the null rays and the bundle's
    # autoparallels in one batch, and the defect of the bundle connection's
    # deformation of the metric one, from one flow jet on each ray's nodes
    worst_dev = 0.0
    worst_ortho = 0.0
    for name, (preset, bundle, pts) in presets.items():
        g, st = preset.g, preset.state
        rng = np.random.default_rng(SEED + 77)
        lo, hi = preset.chart.bounds(preset.chart.margin + 0.15)
        s_max = preset.meta.ray_s_max
        m = preset.chart.dim
        x0s = lo + rng.random((5, m)) * (hi - lo)
        dirs = rng.normal(size=(5, m - 1))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        k0s = np.stack([null_tangent(g, x0, d) for x0, d in zip(x0s, dirs)])
        paths = integrate_fluid_worldlines(
            g, st.n, st.phi, ENGINE, [NULL_GEODESIC] * 5 + [WEYL_AUTOPARALLEL] * 5,
            np.concatenate([x0s, x0s]), np.concatenate([k0s, k0s]), s_max)
        for path_g, path_w in zip(paths[:5], paths[5:]):
            jet = flow_jet(g, st.n, ENGINE, path_g.points, st.phi)
            report = _null_defect(eps_shift(jet.data.inv, jet.data.val, jet.A), path_g.tangents)
            worst_ortho = max(worst_ortho, report["max_orthogonal"])
            arc = max(trajectory_arc(path_g), 1e-6)
            worst_dev = max(worst_dev, trajectory_compare(path_g, path_w) / arc)
    _report(10, "null transport defect is parallel to the ray", worst_ortho, 1e-8)
    _report(10, "null geodesics coincide with autoparallel trajectories per unit arc",
            worst_dev, 1e-6)


def trajectory_arc(path) -> float:
    _, pts = path.hermite_resample(400)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def test_c11_harness_determinism(tmp_path):
    from weylfluid.config import load_config
    from weylfluid.harness import run_suite
    from weylfluid.report import to_json

    pass_cfg = tmp_path / "pass.cfg"
    pass_cfg.write_text(
        "[spacetime]\npreset = minkowski\n\n[fluid]\npreset = dust-rest\n\n"
        "[run]\nsuites = connection fluid conservation\nseed = 1\ntiming = off\n")
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        proc = run_weylfluid(["verify", "--config", str(pass_cfg), "--out", str(out)],
                             cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    # and the same holds in-process
    cfg = load_config(str(pass_cfg))
    assert to_json(run_suite(cfg)).encode() == blobs[0]
    print("[PASS] criterion 11: two identical runs emit byte-identical reports "
          f"({len(blobs[0])} bytes)")

    fail_cfg = tmp_path / "fail.cfg"
    fail_cfg.write_text(
        "[spacetime]\npreset = flrw\nH = 0.1\n\n[fluid]\npreset = comoving-dust\n\n"
        "[conformal]\nweight = -4\n\n[run]\nsuites = conformal\ntiming = off\n")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[run]\nsuites = connection\nfrobnicate = 1\n")

    codes, stderr = {}, {}
    for label, path in [("pass", pass_cfg), ("failing-check", fail_cfg),
                        ("malformed", bad_cfg)]:
        proc = run_weylfluid(["verify", "--config", str(path),
                              "--out", str(tmp_path / f"{label}.json")], cwd=tmp_path)
        codes[label] = proc.returncode
        stderr[label] = proc.stderr
    assert codes == {"pass": 0, "failing-check": 1, "malformed": 2}, (codes, stderr)
    print(f"[PASS] criterion 11: exit codes {codes} match the 0/1/2 contract")
