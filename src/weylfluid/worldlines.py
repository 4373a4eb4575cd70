"""Autoparallel and null-geodesic integration, the null-compatibility check
between a metric and a Weyl-compatible connection, and trajectory
comparison up to reparametrization.

The operational content of null compatibility: a curve that is a null
geodesic of the metric must be an autoparallel *trajectory* of the
connection, i.e. its transport defect ``k^b nabla^Gamma_b k^a`` stays
proportional to the tangent.  The proportionality is tested by projecting
the defect orthogonally to the tangent under an auxiliary Euclidean
coordinate metric, since the physical norm of a null-parallel defect is
degenerate.

``scipy.interpolate`` loads on first use, when a path is resampled, so a
run that never compares trajectories does not pay for it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .connections import ConnectionField, gamma_vv, levi_civita
from .errors import ComparisonError
from .fluid import flow_jet
from .geometry import Chart, DerivativeEngine, MetricField, TensorField, metric_aux
from .integrators import integrate_adaptive

# adaptive stepper controls
_RTOL = 1e-10
_ATOL = 1e-10
_INITIAL_STEP = 1e-3
_MIN_STEP = 1e-13
_MAX_STEPS = 200000
_MAX_GROWTH = 5.0
_NULL_EPS = 1e-10  # largest |g(k,k)| of an initial null tangent
_COMPARE_SAMPLES = 2500  # arc-length samples per path in trajectory_compare


@dataclass
class WorldlinePath:
    """Accepted integration nodes of one worldline.

    ``points[i]`` and ``tangents[i]`` belong to parameter ``s[i]``; the
    parameters are strictly increasing.  ``exited`` marks a ray cut at the
    chart boundary, whose last node lies on the wall it crossed.
    """

    s: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    steps: int
    max_error: float
    exited: bool = False

    @property
    def start(self):
        return self.points[0]

    def hermite_resample(self, count: int):
        """Dense output: cubic Hermite interpolation on the accepted nodes,
        evaluated at ``count`` uniform parameter values."""
        from scipy.interpolate import CubicHermiteSpline  # some 0.5 s to import, paid on first use

        svals = np.linspace(self.s[0], self.s[-1], count)
        return svals, CubicHermiteSpline(self.s, self.points, self.tangents)(svals)

    def to_csv(self, path: str) -> None:
        m = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s"] + [f"x{j}" for j in range(m)] + [f"v{j}" for j in range(m)])
            for i in range(len(self.s)):
                writer.writerow(
                    [f"{self.s[i]:.17g}"]
                    + [f"{v:.17g}" for v in self.points[i]]
                    + [f"{v:.17g}" for v in self.tangents[i]]
                )


def _land_on_wall(rhs, idx, base, trial, lo, hi):
    """Nodes on the chart wall for rays ``idx`` stepping from ``base``
    (inside the box ``lo``..``hi``) to ``trial`` (outside);
    ``rhs(idx, states)`` is the derivative of the states ``(x, v, s)``.

    Each ray is integrated from ``base`` along the coordinate ``x^j`` it
    crosses, up to the wall, with the error control of every other ray
    (:func:`~weylfluid.integrators.integrate_adaptive`); its first attempt
    is the whole way.  ``j`` is the crossed axis whose linearly estimated
    crossing comes first; a node past another wall (a crossing near a
    corner) is landed again on that wall.
    """
    m = len(lo)
    nodes = trial.copy()
    for _ in range(m):
        past = (nodes[:, :m] < lo) | (nodes[:, :m] > hi)
        todo = np.flatnonzero(np.any(past, axis=1))
        if not len(todo):
            break
        walls = np.where(nodes[todo, :m] > hi, hi, lo)
        frac = np.divide(walls - base[todo, :m], nodes[todo, :m] - base[todo, :m],
                         out=np.full(walls.shape, np.inf), where=past[todo])
        axis = np.argmin(frac, axis=1)
        wall = walls[np.arange(len(todo)), axis]
        landed = base[todo]
        integrate_adaptive(
            lambda rows, states: rhs(idx[todo[rows]], states), landed, np.full(len(todo), np.inf),
            axis, wall, rtol=_RTOL, atol=_ATOL, max_growth=_MAX_GROWTH, min_step=_MIN_STEP,
            max_steps=_MAX_STEPS)
        nodes[todo] = landed
    return nodes


def _integrate_batch(chart: Chart, accel, x0s, v0s, s_max: float):
    """Adaptive embedded integration of ``x'' = accel(x, v)`` for a batch of
    independent rays with per-ray steps sized by the error controller alone.

    ``accel(idx, X, V)`` maps the ``(B, m)`` pairs of rays ``idx`` to
    accelerations ``(B, m)``.  The state is ``(x, v, s)``, stepped on ``s``
    up to ``s_max``.  A step that leaves the chart box ends the ray, which
    is flagged ``exited``; once every ray has ended, each such step is
    replaced by one that ends on the wall it crosses, all in one batch
    (:func:`_land_on_wall`).  Returns one :class:`WorldlinePath` per ray.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    v0s = np.atleast_2d(np.asarray(v0s, dtype=float))
    nrays, m = x0s.shape
    lo, hi = chart.bounds(0.0)

    def rhs(idx, state):
        v = state[:, m:2 * m]
        return np.concatenate([v, accel(idx, state[:, :m], v), np.ones((len(state), 1))], axis=1)

    y = np.concatenate([x0s, v0s, np.zeros((nrays, 1))], axis=1)
    nodes = [[row] for row in y.copy()]
    max_ratio = np.zeros(nrays)
    exited = np.zeros(nrays, dtype=bool)
    trial = np.empty_like(y)  # the state each exited ray stepped to out of the chart

    def advance(acc, y_new, ratio):
        inside = chart.contains(y_new[:, :m])
        max_ratio[acc[inside]] = np.maximum(max_ratio[acc[inside]], ratio[inside])
        for ray, node in zip(acc[inside], y_new[inside]):
            nodes[ray].append(node)
        trial[acc[~inside]] = y_new[~inside]
        exited[acc[~inside]] = True
        return ~inside

    attempts = integrate_adaptive(
        rhs, y, np.full(nrays, _INITIAL_STEP), 2 * m, s_max, advance=advance,
        rtol=_RTOL, atol=_ATOL, max_growth=_MAX_GROWTH, min_step=_MIN_STEP, max_steps=_MAX_STEPS)
    # a stopped ray keeps its state before the step out, and one that steps
    # from a point on the wall adds no node
    rays = np.flatnonzero(exited)
    landed = _land_on_wall(rhs, rays, y[rays], trial[rays], lo, hi)
    for ray, start, node in zip(rays, y[rays], landed):
        if node[-1] > start[-1]:
            nodes[ray].append(node)

    paths = []
    for i in range(nrays):
        stacked = np.asarray(nodes[i])
        paths.append(WorldlinePath(
            s=stacked[:, -1],
            points=stacked[:, :m],
            tangents=stacked[:, m:2 * m],
            steps=int(attempts[i]),
            max_error=float(max_ratio[i]),
            exited=bool(exited[i]),
        ))
    return paths


def _transport(gam, vs):
    """``-Gamma^a_bc v^b v^c``, the autoparallel acceleration."""
    return -gamma_vv(gam, vs)


def integrate_autoparallel(gamma: ConnectionField, x0, v0, s_max: float) -> WorldlinePath:
    """Solve ``x''^a + Gamma^a_{bc} x'^b x'^c = 0``."""
    return integrate_autoparallel_batch(gamma, [x0], [v0], s_max)[0]


def integrate_autoparallel_batch(gamma: ConnectionField, x0s, v0s, s_max: float):
    """Independent autoparallels integrated together (per-ray step control)."""
    _require_start(gamma.chart, x0s, v0s)
    return _integrate_batch(gamma.chart, lambda idx, xs, vs: _transport(gamma(xs), vs),
                            x0s, v0s, s_max)


def _require_start(chart: Chart, x0s, v0s) -> None:
    chart.require_inside(chart.as_points(x0s))
    zero = ~np.any(chart.as_points(v0s), axis=1)
    if np.any(zero):
        raise ValueError(f"initial tangent {int(np.argmax(zero))} must be nonzero")


def _require_null(g: MetricField, x0s, k0s, rows=True) -> None:
    """Raise ``ValueError`` on the first of the ``rows`` (a mask) whose
    initial tangent is not null to ``_NULL_EPS``."""
    x0s, k0s = g.chart.as_points(x0s), g.chart.as_points(k0s)
    norms = np.where(rows, np.einsum("nij,ni,nj->n", g(x0s), k0s, k0s), 0.0)
    if np.any(np.abs(norms) > _NULL_EPS):
        k = int(np.argmax(np.abs(norms)))
        raise ValueError(f"initial tangent {k} is not null: g(k,k) = {norms[k]:.3e}")


# the kinds of row of a fluid worldline batch
NULL_GEODESIC, WEYL_AUTOPARALLEL, FLOW_LINE = range(3)


def integrate_null_geodesic(g: MetricField, x0, k0, s_max: float,
                            engine: DerivativeEngine) -> WorldlinePath:
    """Affine null geodesic of the metric; the initial tangent must already
    be null to ``_NULL_EPS``.  The squared tangent norm is a first integral
    and is monitored through :func:`null_norm_drift`."""
    return integrate_null_geodesic_batch(g, [x0], [k0], s_max, engine)[0]


def integrate_null_geodesic_batch(g: MetricField, x0s, k0s, s_max: float,
                                  engine: DerivativeEngine):
    """Independent null geodesics integrated together."""
    kinds = [NULL_GEODESIC] * len(np.atleast_2d(k0s))
    return integrate_fluid_worldlines(g, None, None, engine, kinds, x0s, k0s, s_max)


def integrate_fluid_worldlines(g: MetricField, n: TensorField, phi: TensorField,
                               engine: DerivativeEngine, kinds, x0s, v0s, s_max: float):
    """The worldlines of a fluid's Weyl structure as one batch with per-ray
    step control, so that no ray's nodes depend on the other rows.

    Row ``i`` is, by ``kinds[i]``:

    * ``NULL_GEODESIC``: an affine null geodesic of ``g``, whose tangent
      must be null to ``_NULL_EPS``;
    * ``WEYL_AUTOPARALLEL``: an autoparallel of the connection that
      :func:`~weylfluid.fluid.fluid_connection` builds from ``(g, n, phi)``;
    * ``FLOW_LINE``: an integral curve of ``n`` in the second-order form of
      :func:`integral_curve`, whose ``v0`` must be ``n(x0)``.

    Each right-hand side evaluates the metric jet once on every row and,
    when ``n`` is given, forms the flow jet on every row from it; the null
    geodesics of :func:`integrate_null_geodesic_batch` read neither ``n``
    nor ``phi``.  A row's nodes do not depend on the other rows because
    every point-axis kernel a stage reads is row-stable: it rounds a row
    the same way whatever the batch around it.
    """
    kinds = np.asarray(kinds)
    _require_null(g, x0s, v0s, rows=kinds == NULL_GEODESIC)
    _require_start(g.chart, x0s, v0s)

    def accel(idx, xs, vs):
        kind = kinds[idx]
        data = metric_aux(g, xs, engine)
        out = _transport(data.gamma, vs)
        if n is not None:
            jet = flow_jet(g, n, engine, xs, phi, data)
            flow, weyl = kind == FLOW_LINE, kind == WEYL_AUTOPARALLEL
            out[flow] = np.einsum("nad,nd->na", jet.dn[flow], vs[flow])
            if np.any(weyl):
                out[weyl] = _transport(jet.Gamma[weyl], vs[weyl])
        return out

    return _integrate_batch(g.chart, accel, x0s, v0s, s_max)


def null_norm_drift(g: MetricField, path: WorldlinePath) -> float:
    """Maximum |g(k,k)| along the path."""
    return _null_norm_max(g(path.points), path.tangents)


def _null_norm_max(gval: np.ndarray, k: np.ndarray) -> float:
    """:func:`null_norm_drift` from the metric values on the path's nodes."""
    return float(np.max(np.abs(np.einsum("nij,ni,nj->n", gval, k, k))))


def eps_null_check(
    g: MetricField, gamma: ConnectionField, path: WorldlinePath, engine: DerivativeEngine
) -> dict:
    """Transport defect of a metric null geodesic under another connection.

    Along the path, ``D^a = k^b nabla^Gamma_b k^a`` equals the connection
    deformation contracted with the tangent (the metric part cancels by
    construction of the path), so it is evaluated pointwise.  Reports the
    maximum Euclidean-orthogonal component (must vanish for compatible
    connections) and the maximum parallel magnitude.
    """
    lc = levi_civita(g, engine)
    return _null_defect(gamma(path.points) - lc(path.points), path.tangents)


def _null_defect(dgam: np.ndarray, k: np.ndarray) -> dict:
    """:func:`eps_null_check` from the connection deformation ``dgam`` on
    the path's nodes and the tangents ``k`` there."""
    defect = gamma_vv(dgam, k)
    k_norm = np.linalg.norm(k, axis=1)
    k_hat = k / k_norm[:, None]
    parallel = np.einsum("na,na->n", defect, k_hat)
    ortho = defect - parallel[:, None] * k_hat
    return {
        "max_orthogonal": float(np.max(np.linalg.norm(ortho, axis=1))),
        # coefficient alpha in defect = alpha * k, not the projection norm
        "max_parallel": float(np.max(np.abs(parallel / k_norm))),
    }


def _arclength_samples(path: WorldlinePath, count: int):
    """Euclidean arc length parametrization from a dense Hermite resample."""
    _, pts = path.hermite_resample(count)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    return arc, pts


def trajectory_compare(path_a: WorldlinePath, path_b: WorldlinePath) -> float:
    """Maximum pointwise distance between two paths after reparametrizing
    both by auxiliary-Euclidean arc length over the common arc range, on
    ``_COMPARE_SAMPLES`` samples."""
    if np.linalg.norm(path_a.start - path_b.start) > 1e-9:
        raise ComparisonError("paths do not share a starting point")
    arc_a, pts_a = _arclength_samples(path_a, _COMPARE_SAMPLES)
    arc_b, pts_b = _arclength_samples(path_b, _COMPARE_SAMPLES)
    common = min(arc_a[-1], arc_b[-1])
    if common <= 0.0:
        raise ComparisonError("paths have no common arc range")
    grid = np.linspace(0.0, common, _COMPARE_SAMPLES)
    m = pts_a.shape[1]
    interp_a = np.stack([np.interp(grid, arc_a, pts_a[:, j]) for j in range(m)], axis=1)
    interp_b = np.stack([np.interp(grid, arc_b, pts_b[:, j]) for j in range(m)], axis=1)
    return float(np.max(np.linalg.norm(interp_a - interp_b, axis=1)))


def integral_curve(g: MetricField, n: TensorField, x0, s_max: float,
                   engine: DerivativeEngine) -> WorldlinePath:
    """Integral curve of the flow ``n`` of ``g``: the one-row ``FLOW_LINE``
    batch of :func:`integrate_fluid_worldlines`, solved in the second-order
    form ``x'' = (dn) x'`` with ``x'(0) = n(x0)``, whose unique solution
    keeps ``x' = n(x)``; the velocity is recorded for trajectory
    comparison."""
    x0 = np.asarray(x0, dtype=float)
    return integrate_fluid_worldlines(g, n, None, engine, [FLOW_LINE], [x0],
                                      n(x0[None, :]), s_max)[0]
