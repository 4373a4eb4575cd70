"""The benchmark's workloads and the layer predictions they were chosen for.

An operation is one (spacetime, fluid, suite) triple, run the way
``weylfluid verify`` runs it: ``harness.run_suite`` with timing off, then
``report.to_json``.  A pass runs every operation of a workload once, in
order.
"""

# the presets of catalog.verification_matrix(), split into the
# (spacetime, fluid) pair that SuiteConfig takes
VERIFICATION_MATRIX = (
    ("minkowski", "dust-rest"),
    ("minkowski", "dust-phi"),
    ("minkowski", "radiation"),
    ("minkowski", "sheared"),
    ("minkowski", "perturbed"),
    ("minkowski3", "dust"),
    ("flrw", "comoving-dust"),
    ("flrw", "radiation"),
    ("flrw-power", "dust"),
    ("schwarzschild", "static"),
)

WORKLOADS = {
    "pointwise": tuple(
        (spacetime, fluid, suite)
        for spacetime, fluid in VERIFICATION_MATRIX
        for suite in ("connection", "fluid", "conservation", "conformal")),
    "rays": (
        ("minkowski", "perturbed", "worldlines"),
        ("flrw-power", "dust", "worldlines"),
        ("schwarzschild", "static", "worldlines"),
    ),
    "frame": (
        ("minkowski", "sheared", "frame"),
        ("flrw-power", "dust", "frame"),
    ),
}

# one sentence per workload; BENCHMARK.json carries the same text
WHY = {
    "pointwise": (
        "Batched ~640-point dual, metric and connection evaluation with no ODE work; "
        "autodiff, geometry, connections, fluid, conservation and conformal.rescale "
        "gains should move wall_s here."),
    "rays": (
        "Adaptive RK worldlines at ~1.6 points per call, so the same layers run "
        "latency-bound; worldlines, connections, autodiff and geometry gains should "
        "move wall_s, batch-size gains should not."),
    "frame": (
        "Characteristic transport at ~1e4 points per call plus spline evaluation; "
        "conformal, interpolation and value_and_jacobian gains should move wall_s "
        "and peak_rss_mb, accuracy losses tolerance_margin."),
}

# layer -> the (end-to-end metric, workload) pairs a gain in it should move;
# every other pair is a "should not move" prediction
PREDICTIONS = {
    "autodiff": [("wall_s", "pointwise"), ("wall_s", "rays")],
    "geometry": [("wall_s", "pointwise"), ("wall_s", "frame")],  # frame: value_and_jacobian only
    "connections": [("wall_s", "rays"), ("wall_s", "pointwise")],
    "fluid": [("wall_s", "pointwise")],
    "conservation": [("wall_s", "pointwise")],
    "conformal": [("wall_s", "frame"), ("peak_rss_mb", "frame"),
                  ("wall_s", "pointwise")],  # pointwise: conformal.rescale only
    "interpolation": [("wall_s", "frame")],
    "worldlines": [("wall_s", "rays")],
    "catalog": [("setup_s", "pointwise"), ("setup_s", "rays"), ("setup_s", "frame")],
    "suites": [("wall_s", "pointwise"), ("wall_s", "rays"), ("wall_s", "frame")],
    "harness": [("wall_s", "pointwise"), ("wall_s", "rays"), ("wall_s", "frame")],
    "report": [("wall_s", "pointwise"), ("wall_s", "rays"), ("wall_s", "frame")],
}


def presets(workload: str) -> list:
    """The distinct catalog presets a workload builds, in first-use order."""
    return list(dict.fromkeys(f"{sp}-{fl}" for sp, fl, _ in WORKLOADS[workload]))
