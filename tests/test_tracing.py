"""The benchmark's tracer still finds every entry point it wraps: a rename
in the package would silently drop its spans, or fail only under
``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

from weylfluid import geometry, harness, interpolation, suites
from weylfluid.config import SuiteConfig
from weylfluid.connections import ConnectionField

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer patches, copied: the package's modules,
    the traced classes and the suite table."""
    spaces = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
              if name == "weylfluid" or name.startswith("weylfluid.")}
    for cls in (geometry.TensorField, geometry.DerivativeEngine, ConnectionField,
                interpolation.TensorSpline):
        spaces[cls] = dict(vars(cls))
    spaces["SUITES"] = dict(suites.SUITES)
    return spaces


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_fluid_suite_under_instrument_records_spans_and_restores():
    tracing = _load_tracing()
    before = _namespaces()
    cfg = SuiteConfig(spacetime="minkowski", fluid="dust-rest", suites=("fluid",), timing=False)
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert not _same(before["SUITES"], suites.SUITES)
        assert harness.run_suite(cfg).passed
    names = {row[tracing.NAME] for row in tracer.spans}
    assert {"geometry.field_eval", "autodiff.dual_eval", "suites.fluid"} <= names
    after = _namespaces()
    assert before.keys() == after.keys()
    assert all(_same(before[key], after[key]) for key in before)
