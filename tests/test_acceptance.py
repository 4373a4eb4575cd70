"""Acceptance criteria.

One test per criterion, each printing a single pass/fail line with the
worst residual and its threshold.  Tolerances are pinned here and nowhere
else; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json

import numpy as np
import pytest

from weylfluid.catalog import (
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
    incompressibility_residual,
    preferred_frame,
    rescaled_stress_energy_check,
    transport_residual,
)
from weylfluid.connections import eps_connection, nonmetricity_residual, sqrt_det_trace_residual
from weylfluid.conservation import (
    SliceSpec,
    condition_scalars,
    current_divergence,
    current_identity_residual,
    decomposition_residuals,
    number_on_slice,
    particle_current,
)
from weylfluid.fluid import fluid_connection, geodesic_defect, stress_energy
from weylfluid.geometry import DerivativeEngine, constant_scalar, scalar_field
from weylfluid.worldlines import (
    eps_null_check,
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
    chart = minkowski_chart(4)
    base = minkowski_metric(chart)
    pts = chart.sample_points(GRID_PER_AXIS, RANDOM_POINTS, seed=SEED)
    worst = 0.0
    for k in range(20):
        g = perturbed_metric(base, 0.01, seed=k)
        A = polynomial_covector(chart, np.random.default_rng(1000 + k), 0.4)
        gamma = eps_connection(g, A, ENGINE)
        worst = max(worst, float(np.abs(nonmetricity_residual(gamma, g, A, ENGINE)(pts)).max()))
        worst = max(worst, float(np.abs(sqrt_det_trace_residual(g, gamma, A, ENGINE, pts)).max()))
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


def test_c06_conservation_decomposition(presets):
    worst = 0.0
    for preset, bundle, pts in presets.values():
        st = preset.state
        flow, ortho = decomposition_residuals(
            preset.g, st.n, st.p, st.rho, st.phi, ENGINE, pts)
        worst = max(worst, float(np.abs(flow).max()), float(np.abs(ortho).max()))
    _report(6, "divergence projections match the frozen-sign conditions", worst, 1e-8)


def test_c07_condition_scalar_closed_forms(presets):
    worst = 0.0
    worst_dust = 0.0
    for preset, bundle, pts in presets.values():
        st = preset.state
        cs = condition_scalars(
            preset.g, st.n, st.p, st.rho, st.phi, ENGINE, pts)
        worst = max(worst, float(np.abs(cs.s1_residual).max()),
                    float(np.abs(cs.s2_residual).max()))
        if not np.any(st.p(pts)):
            dust = cs.s1 - st.rho(pts) * st.phi(pts)
            worst_dust = max(worst_dust, float(np.abs(dust).max()))
    _report(7, "condition scalars match their closed forms", worst, 1e-9)
    _report(7, "pressureless transport scalar reduces to rho phi", worst_dust, 1e-9)


def test_c08_preferred_frame(presets):
    preset, bundle, pts = presets["flrw-comoving-dust"]
    spec = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
    factor = preferred_frame(preset.g, preset.state.n, spec, ENGINE)
    closed = -0.1 * factor.grid_axes[0]
    worst_grid = float(np.abs(
        factor.grid_values - closed[:, None, None, None]).max())
    _report(8, "cosmology log factor matches the closed form on the memo grid",
            worst_grid, 1e-6)

    mk, mk_bundle, mk_pts = presets["minkowski-sheared"]
    spec2 = SliceSpec(0, 0.0, ((-0.5, 0.5),) * 3)
    fac2 = preferred_frame(mk.g, mk.state.n, spec2, ENGINE)
    worst_transport = float(np.abs(
        transport_residual(fac2, mk.g, mk.state.n, ENGINE)(mk_pts)).max())
    b2, s2 = conformal_rescale(mk_bundle, mk.state, fac2, ENGINE)
    worst_inc = float(np.abs(incompressibility_residual(b2.g, s2.n, ENGINE)(mk_pts)).max())
    _report(8, "sheared-chart transport residual", worst_transport, 1e-4)
    _report(8, "sheared-chart rescaled flow divergence", worst_inc, 1e-4)

    zero = constant_scalar(mk.chart, 0.0)
    cs = condition_scalars(b2.g, s2.n, s2.p, s2.rho, zero, ENGINE, mk_pts)
    worst_s = max(float(np.abs(cs.s1).max()), float(np.abs(cs.s2).max()))
    _report(8, "obstruction scalars vanish in the preferred frame", worst_s, 1e-4)


def test_c09_particle_number_conservation(presets):
    preset, bundle, pts = presets["flrw-comoving-dust"]
    st = preset.state
    J = particle_current(preset.g, stress_energy(preset.g, st.n, st.p, st.rho), st.n)
    worst_div = float(np.abs(current_divergence(J, ENGINE)(pts)).max())
    _report(9, "conserved dust current is divergence-free", worst_div, 1e-8)

    box = ((-0.5, 0.5),) * 3
    n0, e0 = number_on_slice(J, SliceSpec(0, 0.0, box))
    n5, e5 = number_on_slice(J, SliceSpec(0, 5.0, box))
    rel = abs(n0 - n5) / max(abs(n0), abs(n5))
    print(f"           slice counts: {n0:.12f} at t=0 vs {n5:.12f} at t=5 "
          f"(quadrature error estimates {e0:.1e}, {e5:.1e})")
    _report(9, "slice counts agree along the flow", rel, 1e-6)


def test_c10_null_compatibility(presets):
    from weylfluid.worldlines import integrate_autoparallel_batch, integrate_null_geodesic_batch

    worst_dev = 0.0
    worst_ortho = 0.0
    for name, (preset, bundle, pts) in presets.items():
        rng = np.random.default_rng(SEED + 77)
        lo, hi = preset.chart.bounds(preset.chart.margin + 0.15)
        s_max = preset.meta.ray_s_max
        m = preset.chart.dim
        x0s = lo + rng.random((5, m)) * (hi - lo)
        dirs = rng.normal(size=(5, m - 1))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        k0s = np.stack([null_tangent(preset.g, x0, d) for x0, d in zip(x0s, dirs)])
        paths_g = integrate_null_geodesic_batch(preset.g, x0s, k0s, s_max, ENGINE)
        paths_w = integrate_autoparallel_batch(bundle.gamma, x0s, k0s, s_max)
        for path_g, path_w in zip(paths_g, paths_w):
            report = eps_null_check(preset.g, bundle.gamma, path_g, ENGINE)
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
