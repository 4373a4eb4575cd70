"""Cold start: scipy's interpolation, integration and special-function
modules load only when a run first builds a spline or steps a ray, so
importing weylfluid, building every preset and running the pointwise
suites leaves them unloaded."""

import json
import subprocess
import sys
import textwrap

import pytest

from conftest import _child_env

_LAZY = ("scipy.interpolate", "scipy.integrate", "scipy.special")

_CHILD = textwrap.dedent("""
    import json, sys

    import weylfluid
    from weylfluid import suites
    from weylfluid.catalog import build, verification_matrix
    from weylfluid.geometry import DerivativeEngine

    def loaded():
        return sorted(name for name in sys.modules if name.startswith({lazy}))

    presets = {{name: build(name) for name in verification_matrix()}}
    preset = presets["flrw-comoving-dust"]
    ctx = suites.SuiteContext(preset, DerivativeEngine(), preset.chart.sample_points(2, 8, 3),
                              nonmetricity_pairs=1, seeded_factors=2)
    passed = all(c.passed for suite in ("connection", "fluid", "conservation", "conformal")
                 for c in suites.SUITES[suite](ctx))
    pointwise = loaded()
    frame = preset.solve_frame(DerivativeEngine())
    pts = preset.chart.sample_points(2, 0, 3)
    # the spline through the memo grid against the direct solve at the same points
    gap = float(abs(frame.ln(pts) - frame.solve_at(pts)).max())
    print(json.dumps({{"passed": passed, "pointwise": pointwise, "frame": loaded(),
                      "gap": gap}}))
""").format(lazy=repr(_LAZY))


def test_pointwise_runs_leave_spline_and_ode_modules_unloaded():
    env, problem = _child_env()
    if problem:
        pytest.fail(problem, pytrace=False)
    done = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["passed"]
    assert out["pointwise"] == []
    # the first spline loads scipy.interpolate, and it interpolates the solve
    assert "scipy.interpolate" in out["frame"]
    assert out["gap"] < 1e-3
