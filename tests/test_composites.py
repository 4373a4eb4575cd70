"""Each tensor composite is written once: numeric inputs feed the same
component path as closed-form ones.  A composite with a numeric input is
value-only under forward duals: the numeric input refuses the jets with a
:class:`CapabilityError` that names it, not the composite, and the
central-difference engine differentiates the composite."""

import gc
import re
import weakref

import numpy as np
import pytest

from weylfluid import autodiff as ad
from weylfluid.catalog import build, seeded_positive_factor
from weylfluid.conformal import _pow_scale, conformal_rescale
from weylfluid.conservation import particle_current, raise_indices2
from weylfluid.errors import CapabilityError, NotTimelikeError
from weylfluid.fluid import stress_energy
from weylfluid.geometry import (
    DerivativeEngine,
    MetricField,
    TensorField,
    normalize_timelike,
    scalar_field,
    vector_field,
)

ENG = DerivativeEngine()
CENTRAL = DerivativeEngine("central-difference")


def numeric(field):
    """The same field, wrapped as a numeric (``eval_fn``) field."""
    if isinstance(field, MetricField):
        return MetricField(field.chart, eval_fn=field, name=f"num({field.name})")
    return TensorField(field.chart, field.variance, eval_fn=field, name=f"num({field.name})")


@pytest.fixture(scope="module")
def flrw():
    preset = build("flrw-radiation")
    pts = preset.chart.sample_points(per_axis=2, extra=8, seed=4)
    return preset, pts


def composites(preset):
    """name -> (closed-form inputs, the composite built from inputs)."""
    g, st = preset.g, preset.state
    fac = seeded_positive_factor(preset.chart, 7)
    u = vector_field(preset.chart, lambda c: ad.stack([1.5 + 0.0 * c[0], 0.1 * c[1],
                                                       0.0 * c[0], -0.2 * c[3]]), name="u")
    T = stress_energy(g, st.n, st.p, st.rho)
    return {
        "normalize_timelike": ((g, u), normalize_timelike),
        "stress_energy": ((g, st.n, st.p, st.rho), stress_energy),
        "raise_indices2": ((g, T), raise_indices2),
        "particle_current": ((g, T, st.n), particle_current),
        "_pow_scale": ((st.n, fac), lambda n, ln: _pow_scale(n, ln, -1.0, "n~")),
        "rescaled_metric": ((fac,), lambda ln: conformal_rescale(g, st, ln, ENG)[0]),
    }


NAMES = ("normalize_timelike", "stress_energy", "raise_indices2",
         "particle_current", "_pow_scale", "rescaled_metric")


@pytest.mark.parametrize("name", NAMES)
def test_numeric_inputs_take_the_component_path(flrw, name):
    preset, pts = flrw
    inputs, make = composites(preset)[name]
    closed = make(*inputs)
    num = make(*(numeric(f) for f in inputs))
    np.testing.assert_allclose(num(pts), closed(pts), rtol=1e-13, atol=1e-15)
    _, exact = closed.dual_eval(pts)
    assert np.abs(CENTRAL.jacobian(num, pts) - exact).max() < 1e-6
    # forward duals do not fall back to differences: the numeric input that
    # refuses the jets is named
    with pytest.raises(CapabilityError, match=re.escape("field num(")):
        ENG.jacobian(num, pts)
    with pytest.raises(CapabilityError, match=re.escape("field num(")):
        num.dual_eval(pts)


def test_unnamed_numeric_read_raises_on_duals(flrw):
    # a composite declares nothing about its inputs: the numeric field it
    # reads refuses the duals instead of giving zero derivatives
    preset, pts = flrw
    rho = numeric(preset.state.rho)
    double = scalar_field(preset.chart, lambda c: 2.0 * rho.fn(c))
    np.testing.assert_array_equal(double(pts), 2.0 * rho(pts))
    with pytest.raises(CapabilityError, match="num\\(rho\\)"):
        double.dual_eval(pts)


def test_numeric_spacelike_flow_names_the_point(flrw):
    preset, _ = flrw
    u = numeric(vector_field(preset.chart, lambda c: ad.stack([0.0 * c[0], 1.0 + 0.0 * c[0],
                                                               0.0 * c[0], 0.0 * c[0]])))
    with pytest.raises(NotTimelikeError, match=r"at point \[0\.5, 0\.25, -0\.25, 0\.125\]"):
        normalize_timelike(preset.g, u)([[0.5, 0.25, -0.25, 0.125]])


def test_numeric_field_is_freed_without_the_collector(flrw):
    # the value-only components must not hold the field: a reference cycle
    # would keep solver output (the frame spline) alive until a collection
    preset, pts = flrw
    gc.disable()
    try:
        num = numeric(preset.state.rho)
        composite = _pow_scale(num, seeded_positive_factor(preset.chart, 7), 3.0, "rho~")
        composite(pts)
        refs = weakref.ref(num), weakref.ref(composite)
        del num, composite
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
