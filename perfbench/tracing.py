"""Spans around the calls into each weylfluid layer, recorded from outside
the package.

The benchmark never edits the library: :func:`instrument` swaps traced
wrappers into the package's module namespaces and classes for the length of
a ``with`` block and puts the originals back afterwards.  A span holds its
name, start, end, parent span and the id of the (preset, suite) operation
it belongs to; spans stay in memory until the benchmark writes them out.

A call into a layer made while a span of the same name is already the
innermost open span (``MetricField.__call__`` reaching
``TensorField.__call__`` through ``super()``, or a batch integrator that
hands off to another public integrator) is part of that span, not a new one.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# span row layout
NAME, START, END, PARENT, OP, POINTS, INFO = range(7)
FIELDS = ("name", "start", "end", "parent", "op", "points", "info")


def _npoints(pts) -> int:
    shape = np.shape(pts)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    def wrap(self, name, fn, points_arg=None, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``points_arg`` is the position of the point batch among the call's
        arguments (the batch size is recorded as the span's points);
        ``on_result`` maps the return value onto the span's ``info`` slot.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][NAME] == name:
                return fn(*args, **kwargs)
            points = 0
            if points_arg is not None:
                points = _npoints(args[points_arg] if len(args) > points_arg else kwargs["pts"])
            row = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, points, None]
            open_.append(len(spans))
            spans.append(row)
            row[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = time.perf_counter()
                open_.pop()
            if on_result is not None:
                row[INFO] = on_result(result)
            return result

        return traced


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "weylfluid" or name.startswith("weylfluid."))]


def _path_steps(result):
    paths = result if isinstance(result, list) else [result]
    return (sum(p.steps for p in paths), sum(len(p.s) - 1 for p in paths))


def _traced_geodesic_defect(tracer, fn):
    # the defect is a lazy field: its cost is paid when the returned field
    # is evaluated, so the span goes around its eval_fn
    @functools.wraps(fn)
    def build(*args, **kwargs):
        field = fn(*args, **kwargs)
        field.eval_fn = tracer.wrap("fluid.geodesic_defect", field.eval_fn, points_arg=0)
        return field

    return build


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install traced wrappers around the public entry points of every
    layer; restore the originals on exit."""
    from weylfluid import (catalog, conformal, conservation, fluid, geometry,
                           interpolation, suites, worldlines)
    from weylfluid.connections import ConnectionField

    functions = [
        (catalog.build, tracer.wrap("catalog.build", catalog.build)),
        (fluid.fluid_connection, tracer.wrap("fluid.fluid_connection", fluid.fluid_connection)),
        (fluid.geodesic_defect, _traced_geodesic_defect(tracer, fluid.geodesic_defect)),
        (geometry.metric_aux, tracer.wrap("geometry.metric_aux", geometry.metric_aux, 1)),
        (conservation.number_on_slice, tracer.wrap(
            "conservation.number_on_slice", conservation.number_on_slice,
            on_result=lambda r: r[1])),
        (conformal.preferred_frame, tracer.wrap(
            "conformal.preferred_frame", conformal.preferred_frame,
            on_result=lambda f: int(f.grid_values.size))),
        (conformal.conformal_rescale, tracer.wrap("conformal.rescale", conformal.conformal_rescale)),
        (interpolation.build_interpolator, tracer.wrap(
            "interpolation.build", interpolation.build_interpolator)),
        (worldlines.trajectory_compare, tracer.wrap(
            "worldlines.trajectory_compare", worldlines.trajectory_compare)),
    ]
    for integrate in (worldlines.integrate_autoparallel, worldlines.integrate_autoparallel_batch,
                      worldlines.integrate_null_geodesic, worldlines.integrate_null_geodesic_batch,
                      worldlines.integral_curve):
        functions.append((integrate, tracer.wrap(
            "worldlines.integrate", integrate, on_result=_path_steps)))
    for name, suite in suites.SUITES.items():
        functions.append((suite, tracer.wrap(f"suites.{name}", suite)))

    methods = [
        (geometry.TensorField, "__call__", "geometry.field_eval", 1),
        (geometry.TensorField, "dual_eval", "autodiff.dual_eval", 1),
        (geometry.DerivativeEngine, "value_and_jacobian", "geometry.value_and_jacobian", 2),
        (ConnectionField, "__call__", "connections.gamma_eval", 1),
        (interpolation.TensorSpline, "__call__", "interpolation.spline_eval", 1),
    ]

    undo = []
    try:
        wrappers = {id(orig): (orig, traced) for orig, traced in functions}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        for name, suite in list(suites.SUITES.items()):
            undo.append((suites.SUITES, name, suite))
            suites.SUITES[name] = wrappers[id(suite)][1]
        for cls, attr, name, points_arg in methods:
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig, points_arg))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


# -- per-layer metrics ---------------------------------------------------------

def _batched(layer, per_call=False):
    yield (f"{layer}.calls", "count", "lower")
    yield (f"{layer}.points", "count", "lower")
    yield (f"{layer}.self_s", "s", "lower")
    if per_call:
        yield (f"{layer}.points_per_call", "points/call", "higher")


# (metric, unit, better), in the order of BENCHMARK.json
LAYER_METRICS = (
    *_batched("autodiff.dual_eval"),
    *_batched("geometry.metric_aux"),
    *_batched("geometry.value_and_jacobian", per_call=True),
    *_batched("geometry.field_eval"),
    *_batched("connections.gamma_eval", per_call=True),
    ("fluid.fluid_connection.calls", "count", "lower"),
    ("fluid.geodesic_defect.self_s", "s", "lower"),
    ("conservation.number_on_slice.calls", "count", "lower"),
    ("conservation.number_on_slice.s", "s", "lower"),
    ("conservation.quad_err_max", "particles", "lower"),
    ("conformal.preferred_frame.calls", "count", "lower"),
    ("conformal.preferred_frame.s", "s", "lower"),
    ("conformal.frame_nodes", "count", "lower"),
    ("conformal.transport_points", "count", "lower"),
    ("conformal.rescale.calls", "count", "lower"),
    ("interpolation.build.s", "s", "lower"),
    *_batched("interpolation.spline_eval"),
    ("worldlines.integrate.calls", "count", "lower"),
    ("worldlines.integrate.s", "s", "lower"),
    ("worldlines.steps_attempted", "count", "lower"),
    ("worldlines.steps_accepted", "count", "lower"),
    ("worldlines.accept_ratio", "ratio", "higher"),
    ("worldlines.trajectory_compare.s", "s", "lower"),
    ("catalog.build.calls", "count", "lower"),
    ("catalog.build.s", "s", "lower"),
    *((f"suites.{name}.s", "s", "lower") for name in
      ("connection", "fluid", "conservation", "conformal", "frame", "worldlines")),
    ("harness.run_suite.s", "s", "lower"),
    ("report.to_json.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that must repeat exactly between two traced passes at one seed
EXACT = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


def layer_metrics(spans) -> dict:
    """Fold one pass's spans into the per-layer metrics (all but
    ``trace.overhead_s``, which needs an untraced pass)."""
    covered = [0.0] * len(spans)
    in_frame = [False] * len(spans)
    for i, row in enumerate(spans):
        parent = row[PARENT]
        if parent >= 0:  # a parent is recorded before its children
            covered[parent] += row[END] - row[START]
            in_frame[i] = in_frame[parent]
        if row[NAME] == "conformal.preferred_frame":
            in_frame[i] = True

    calls = defaultdict(int)
    points = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    transport_points = 0
    attempted = accepted = frame_nodes = 0
    quad_err = 0.0
    for i, row in enumerate(spans):
        name, span = row[NAME], row[END] - row[START]
        calls[name] += 1
        points[name] += row[POINTS]
        total[name] += span
        self_time[name] += span - covered[i]
        info = row[INFO]
        if name == "geometry.value_and_jacobian" and in_frame[i]:
            transport_points += row[POINTS]
        elif name == "worldlines.integrate":
            attempted += info[0]
            accepted += info[1]
        elif name == "conformal.preferred_frame":
            frame_nodes += info
        elif name == "conservation.number_on_slice" and info is not None:
            quad_err = max(quad_err, float(info))

    out = {
        "conservation.quad_err_max": quad_err,
        "conformal.frame_nodes": frame_nodes,
        "conformal.transport_points": transport_points,
        "worldlines.steps_attempted": attempted,
        "worldlines.steps_accepted": accepted,
        "worldlines.accept_ratio": accepted / attempted if attempted else 0.0,
        "trace.spans": len(spans),
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in out or metric == "trace.overhead_s":
            continue
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "points":
            out[metric] = points[layer]
        elif stat == "self_s":
            out[metric] = self_time[layer]
        elif stat == "s":
            out[metric] = total[layer]
        elif stat == "points_per_call":
            out[metric] = points[layer] / calls[layer] if calls[layer] else 0.0
        else:
            raise KeyError(metric)
    return out
