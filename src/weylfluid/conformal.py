"""Conformal rescaling of the metric and fluid along the gauge orbit, and
the preferred-frame solver.

A Weyl gauge transformation is parametrized by the log factor ``ln Phi``
alone (Folland, "Weyl manifolds", J. Differential Geom. 4, 1970); with
``Phi = exp(ln Phi)``, positive by construction, it acts as

    g   -> Phi^2 g          n   -> n / Phi
    A   -> A + d ln Phi     phi -> (phi - n^a d_a ln Phi) / Phi
    p   -> Phi^w p          rho -> Phi^w rho

with the density weight fixed at ``w = 1 - m`` so the particle current (and
hence any slice count) is a fixed point of the orbit.  The compatible
connection is invariant under the orbit, which is what makes the rescaled
bundle the *same* Weyl geometry in a different gauge.

The preferred frame is the orbit representative in which the flow is
divergence-free.  Its log-factor solves the transport equation

    n^a d_a ln Phi = -(1/(m-1)) nabla^g_a n^a,      ln Phi = 0 on a seed slice

integrated along the flow characteristics with the slice coordinate as the
independent variable.  The solution is memoized on a tensor grid, filled
layer by layer outward from the seed slice: each node is carried back one
layer and reads its start value off that layer's cubic spline.  The carries
of every layer run as one batch, since a characteristic depends only on its
node, and so do the spline's per-axis cardinal weights at the landings;
only the fill, which contracts a layer's weights with the values of the
layer before, waits for it.  The grid
sizes itself from the error estimate of its solved values: an axis above
the target is refined, an axis far below it drops to the 4 nodes a cubic
takes, and a grid solved again copies every node the grid before it had
solved, so each node is transported once.
"""

from __future__ import annotations

import csv

import numpy as np

from . import autodiff as ad
from .interpolation import (
    ESTIMATE_NODES,
    build_interpolator,
    cardinal_weights,
    error_estimate,
    interpolate,
)
from .conservation import SliceSpec
from .errors import ReachabilityError, TransversalityError, WeylFluidError
from .fluid import FlowJet, FluidState, flow_jet
from .geometry import DerivativeEngine, MetricData, MetricField, TensorField, scalar_field
from .integrators import integrate_adaptive


class FrameFactor:
    """The solved preferred-frame gauge: ``ln``, the log factor interpolating
    ``grid_values`` on the memo grid spanned by ``grid_axes`` (the grid's
    spline differentiates itself, so ``ln`` stays dual-differentiable), and
    ``solve_at``, the direct solve of the log factor at given points.
    ``estimate`` holds the per-axis error estimates the grid was sized by; a
    4-node axis keeps the estimate of the 7-node axis it was halved from, as
    it has too few nodes to be estimated again."""

    def __init__(self, ln: TensorField, grid_axes, grid_values, solve_at, estimate):
        self.ln = ln
        self.chart = ln.chart
        self.grid_axes = grid_axes
        self.grid_values = grid_values
        self.solve_at = solve_at
        self.estimate = estimate

    def grid_points(self) -> np.ndarray:
        """The memo nodes, ``(N, m)``, in the row order of ``grid_values.ravel()``."""
        mesh = np.meshgrid(*self.grid_axes, indexing="ij")
        return np.stack([a.ravel() for a in mesh], axis=-1)

    def write_csv(self, path) -> None:
        """One row per memo node: its coordinates, then ``ln_factor``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.chart.names) + ["ln_factor"])
            for row, val in zip(self.grid_points(), self.grid_values.ravel()):
                writer.writerow([f"{x:.17g}" for x in row] + [f"{val:.17g}"])


def _admissible_weight(m: int) -> int:
    """The density weight ``w = 1 - m`` of ``p`` and ``rho``, under which the
    particle current is a fixed point of the orbit (and ``T_ab`` carries
    ``Phi^(3-m)``); any other weight is only useful as a negative control."""
    return 1 - m


def _pow_scale(field: TensorField, ln: TensorField, power: float, name: str):
    """Multiply a scalar/vector/tensor field by ``Phi**power``, with
    ``Phi = exp(ln)``."""
    # the factor's values broadcast over the component axes
    axes = (slice(None),) + (None,) * field.rank

    def fn(coords):
        return field.fn(coords) * (ad.exp(ln.fn(coords)) ** power)[axes]

    return TensorField(field.chart, field.variance, fn, name=name)


def conformal_rescale(
    g: MetricField,
    state: FluidState,
    ln: TensorField,
    engine: DerivativeEngine,
    w: int = None,
):
    """Push the metric and fluid along the gauge orbit of the log factor
    ``ln = ln Phi``.

    Returns the rescaled ``(g~, FluidState~)``.  With the default density
    weight ``w = 1 - m`` the connection, the current and slice counts are
    unchanged; ``w`` may be overridden for negative controls.  The rescaled
    covector ``A + d ln Phi`` on a batch is :func:`_shifted_covector`.
    """
    if w is None:
        w = _admissible_weight(g.chart.dim)
    name = f"{g.name}~"
    g2 = MetricField(g.chart, _pow_scale(g, ln, 2.0, name=name).fn, name=name)
    n2 = _pow_scale(state.n, ln, -1.0, name=f"{state.n.name}~")
    p2 = _pow_scale(state.p, ln, float(w), name=f"{state.p.name}~")
    rho2 = _pow_scale(state.rho, ln, float(w), name=f"{state.rho.name}~")

    def phi2_eval(pts):
        dln = engine.jacobian(ln, pts)
        return (state.phi(pts) - np.einsum("na,na->n", state.n(pts), dln)) / np.exp(ln(pts))

    phi2 = scalar_field(g.chart, eval_fn=phi2_eval, name=f"{state.phi.name}~")
    return g2, FluidState(n=n2, p=p2, rho=rho2, phi=phi2)


def _shifted_covector(a: np.ndarray, dln: np.ndarray) -> np.ndarray:
    """The rescaled covector ``A + d ln Phi`` on a batch from the values
    ``a`` of ``A`` and the gradient ``dln`` of ``ln Phi`` there; the one
    home of that shift."""
    return a + dln


# -- preferred frame ---------------------------------------------------------


# Memo-grid sizing: 7 nodes per axis first, the fewest whose even-indexed
# half carries a cubic; an axis whose estimate is above a tenth of the
# tolerance (FRAME_TOL by default) is refined n -> 4n - 3 up to the ceiling.
# When the grid is solved again, a 7-node axis whose estimate is within
# 2^-4 of that target (the cubic's order) drops to its 4 even-indexed nodes:
# the estimate is the error of that very cubic.
FRAME_TOL = 1e-4
_MAX_NODES = 17 ** 4

# Characteristic integrator controls, in units of the slice coordinate.
# The first attempt of a carry is the whole carry; the error controller
# sizes every step after it.  A carry shorter than the minimum step counts
# as lying on its target slice.
_RTOL = 1e-8
_ATOL = 1e-10
_MAX_STEPS = 4000
_MAX_GROWTH = 2.5
_MIN_STEP = 1e-14
_TRANSVERSALITY_EPS = 1e-8
# The one memory bound of a carry: a memo grid carries all its layers in one
# call, integrated in blocks of at most this many points.  Each point of a
# block adds about 2 KiB to the peak memory of the right-hand side; 1536
# splits the 2058 points of a 7^4 grid and the 4608 of a refined 97 x 4^3
# grid into as many blocks as 2048 would.
_CHUNK = 1536


class _Transport:
    """Characteristic transport of the log-factor along the flow,
    ``dx/dt = n`` and ``d ln Phi/dt = -src``, which the integrator steps on
    the slice coordinate ``x_k`` as ``dx/dx_k = n / n^k``."""

    def __init__(self, g, n, engine, axis, value):
        self.g = g
        self.n = n
        self.engine = engine
        self.axis = axis
        self.value = value
        self.m = g.chart.dim

    def _flow_and_source(self, pts):
        """``(n, src)`` on ``pts``, side by side: the derivative of the
        transport state along the flow."""
        jet = flow_jet(self.g, self.n, self.engine, pts)
        bad = jet.n[:, self.axis] <= _TRANSVERSALITY_EPS
        if np.any(bad):
            i = int(np.argmax(bad))
            raise TransversalityError(
                f"flow component along slice axis is "
                f"{jet.n[i, self.axis]:.3e} <= 0 near point {pts[i]}"
            )
        return np.concatenate([jet.n, jet.div[:, None] / (self.m - 1.0)], axis=1)

    def solve(self, pts) -> np.ndarray:
        """Log-factor values at the given points: each characteristic is
        carried to the seed slice, where the log-factor vanishes."""
        return self.carry(pts, self.value)[1]

    def carry(self, pts, to):
        """Follow the characteristic through each point to the slice
        ``x_k = to``, one value for all points or one per point; returns the
        landing points and ``ln Phi(pts) - ln Phi(landing)``, in batches of
        ``_CHUNK`` points."""
        pts = self.g.chart.as_points(pts)
        to = np.broadcast_to(np.asarray(to, dtype=float), len(pts))
        # state: m coordinates plus the accumulated source integral
        y = np.concatenate([pts, np.zeros((len(pts), 1))], axis=1)
        for start in range(0, len(pts), _CHUNK):
            block = y[start:start + _CHUNK]  # a view: integrated in place

            def advance(idx, y_new, ratio, start=start):
                outside = ~self.g.chart.contains(y_new[:, :self.m])
                if np.any(outside):
                    i = start + idx[np.argmax(outside)]
                    raise ReachabilityError(
                        f"characteristic from point {pts[i]} left the chart "
                        f"before reaching the seed slice"
                    )
                return outside

            integrate_adaptive(
                lambda idx, state: self._flow_and_source(state[:, :self.m]), block,
                np.full(len(block), np.inf), self.axis, to[start:start + _CHUNK], advance=advance,
                rtol=_RTOL, atol=_ATOL, max_growth=_MAX_GROWTH, min_step=_MIN_STEP,
                max_steps=_MAX_STEPS)
        return y[:, :self.m], y[:, self.m]

    def memo_grid(self, counts, prev=None):
        """The axes of ``counts[j]`` nodes over the half-margin inset box and
        the log factor on them, filled one slice-axis layer at a time outward
        from the seed slice (semi-Lagrangian, Staniforth & Cote 1991): each
        layer is carried one layer back and reads that layer's cubic spline.

        A characteristic depends only on its node, so every layer's carries
        run in one batch, bounded in memory by ``_CHUNK``, and every landing
        outside the box in one direct solve.  The spline of a layer is read
        at its landings through cardinal weights (:func:`cardinal_weights`),
        formed for every in-box landing of the grid at once, as every layer
        shares the plane axes; only the fill, which contracts each layer's
        rows of weights with the values of the layer before, waits for it,
        and no layer builds a spline.

        ``prev`` is the ``(axes, values)`` of a grid solved before on the same
        box.  A node that lies on a node of that grid on every axis copies
        its value (adaptive-mesh reuse, Berger & Oliger 1984); only the other
        nodes of a layer are carried."""
        chart, k, value = self.g.chart, self.axis, self.value
        lo, hi = chart.bounds(chart.margin / 2.0)
        axes = [np.linspace(lo[j], hi[j], counts[j]) for j in range(chart.dim)]
        across = axes[:k] + axes[k + 1:]
        shape = [len(a) for a in across]
        plane = np.stack([a.ravel() for a in np.meshgrid(*across, indexing="ij")], axis=-1)
        # a flow tangent to the seed slice raises TransversalityError at a
        # seed node, before any characteristic is carried off the slice
        self._flow_and_source(np.insert(plane, k, value, axis=1))
        # the grid with the slice axis first, reshaped to one row per layer
        layers = np.zeros([len(axes[k])] + shape)
        known = np.zeros(layers.shape, dtype=bool)
        if prev is not None:
            prev_axes, prev_values = prev
            old = [_counterparts(len(a), len(b)) for a, b in zip(axes, prev_axes)]
            old.insert(0, old.pop(k))
            new = [np.flatnonzero(o >= 0) for o in old]
            layers[np.ix_(*new)] = np.moveaxis(prev_values, k, 0)[
                np.ix_(*[o[i] for o, i in zip(old, new)])]
            known[np.ix_(*new)] = True
        layers, known = layers.reshape(len(axes[k]), -1), known.reshape(len(axes[k]), -1)

        # each layer with the layer before it on its side of the seed slice,
        # None for the first, whose characteristics run to the seed slice
        # itself; a layer within a minimum step of the seed slice lies on it
        offset = axes[k] - value
        after = np.flatnonzero(offset > _MIN_STEP)
        before = np.flatnonzero(offset < -_MIN_STEP)[::-1]
        order = [(i, p) for side in (after, before) for i, p in zip(side, [None, *side[:-1]])]
        todo = [np.flatnonzero(~known[i]) for i, _ in order]
        sizes = [len(t) for t in todo]
        landing, delta = self.carry(
            np.concatenate([np.insert(plane[t], k, axes[k][i], axis=1)
                            for (i, _), t in zip(order, todo)]),
            np.repeat([value if p is None else axes[k][p] for _, p in order], sizes))
        # a landing on a layer but outside the box is solved on to the seed slice
        later = np.repeat([p is not None for _, p in order], sizes)
        solved = later & ~chart.contains(landing, shrink=chart.margin / 2.0)
        start = np.zeros(len(landing))
        start[solved] = self.solve(landing[solved])
        # every other landing of a later layer reads the layer before through
        # the cardinal weights of its plane coordinates, formed once per grid
        inbox = later & ~solved
        weights = cardinal_weights(across, np.delete(landing[inbox], k, axis=1))
        slot = np.cumsum(inbox) - 1  # an in-box landing's row of the weights
        layer_rows = np.split(np.arange(len(landing)), np.cumsum(sizes)[:-1])
        for (i, p), t, rows in zip(order, todo, layer_rows):
            if p is None:
                layers[i, t] = delta[rows]
            elif len(t):
                here = rows[inbox[rows]]
                start[here] = interpolate([w[slot[here]] for w in weights],
                                          layers[p].reshape(shape))
                layers[i, t] = delta[rows] + start[rows]
        return axes, np.moveaxis(layers.reshape([len(axes[k])] + shape), 0, k)


def _counterparts(count, prev_count):
    """Per node of an axis of ``count`` nodes, the index of the node of the
    ``prev_count``-node axis over the same interval that it lies on, or -1:
    i -> i on an unchanged axis, 4j -> j on a refined one (n -> 4n - 3) and
    j -> 2j on a halved one (7 -> 4)."""
    scaled = np.arange(count) * (prev_count - 1)
    return np.where(scaled % (count - 1) == 0, scaled // (count - 1), -1)


def preferred_frame(
    g: MetricField,
    n: TensorField,
    seed_slice: SliceSpec,
    engine: DerivativeEngine,
    tol: float = FRAME_TOL,
) -> FrameFactor:
    """Solve for the gauge factor making the flow divergence-free.

    ``ln Phi`` vanishes on the seed slice and is memoized on a tensor grid
    behind a cubic spline; ``solve_at`` integrates to the slice directly.
    The grid starts at 7 nodes per axis and each axis whose error estimate
    is above a tenth of ``tol`` is refined n -> 4n - 3; when it does, each
    axis still at 7 nodes whose estimate is within a sixteenth of that
    target drops to its 4 even-indexed nodes.  Each new grid copies the
    nodes it shares with the grid before and carries only the others, and
    a grid past the ceiling raises before it is solved.
    """
    transport = _Transport(g, n, engine, seed_slice.axis, seed_slice.value)
    counts = [ESTIMATE_NODES] * g.chart.dim
    axes, values = transport.memo_grid(counts)
    estimate = error_estimate(axes, values)
    target = 0.1 * tol
    while True:
        coarse = np.flatnonzero(estimate > target)
        if not coarse.size:
            break
        counts = [4 * c - 3 if j in coarse
                  else (c + 1) // 2 if c == ESTIMATE_NODES and estimate[j] <= target / 16
                  else c for j, c in enumerate(counts)]
        if np.prod(counts) > _MAX_NODES:
            raise WeylFluidError(
                "frame memo grid past the ceiling of {} nodes: {}; each axis must estimate at "
                "most 0.1 * tol = {:.3g}, with tol = {:.3g} from [tolerances] frame".format(
                    _MAX_NODES, ", ".join(f"axis {g.chart.names[j]!r} at {len(axes[j])} nodes "
                                          f"estimates {estimate[j]:.3g}" for j in coarse),
                    target, tol))
        axes, values = transport.memo_grid(counts, (axes, values))
        fresh = error_estimate(axes, values)
        estimate = np.where(np.isnan(fresh), estimate, fresh)
    ln = scalar_field(g.chart, build_interpolator(axes, values).components, name="ln(frame-factor)")
    return FrameFactor(ln, axes, values, transport.solve, estimate)


def _transport_residual(jet: FlowJet, dln: np.ndarray) -> np.ndarray:
    """Residual ``n^a d_a ln Phi + (1/(m-1)) nabla^g_a n^a`` of the
    preferred-frame transport equation, from the flow jet and the gradient
    ``dln`` of ``ln Phi`` on its batch."""
    return np.einsum("na,na->n", jet.n, dln) + jet.div / (jet.n.shape[1] - 1.0)


def _rescaled_data(data: MetricData, ln: np.ndarray, dln: np.ndarray) -> MetricData:
    """The metric data of ``Phi^2 g`` from the data of ``g`` (with
    derivatives) and the values ``ln`` and gradient ``dln`` of ``ln Phi``
    on its batch, with no field read again:

        g~ = Phi^2 g        d g~ = Phi^2 (d g + 2 g (x) d ln Phi)
        g~^-1 = Phi^-2 g^-1       sqrt|g~| = Phi^m sqrt|g|

    (derivative index last).  It agrees with :func:`metric_aux` of
    :func:`conformal_rescale`'s ``g~`` to rounding."""
    m = data.val.shape[1]
    scale = np.exp(ln)
    sq = (scale * scale)[:, None, None]
    dg = sq[..., None] * (data.dg + 2.0 * data.val[..., None] * dln[:, None, None, :])
    return MetricData(sq * data.val, data.inv / sq, scale ** m * data.sqrt_det, dg)


def _rescaled_jet(jet: FlowJet, ln: np.ndarray, dln: np.ndarray, phi: TensorField) -> FlowJet:
    """The flow jet of the rescaled pair ``(Phi^2 g, n / Phi)`` for the
    scalar ``phi``, from the base pair's jet and the values ``ln`` and
    gradient ``dln`` of ``ln Phi`` on its batch: the metric data of
    :func:`_rescaled_data`, and

        n~ = n / Phi        d n~ = (d n - n (x) d ln Phi) / Phi

    the chain rule through first-order jets (Griewank & Walther,
    *Evaluating Derivatives*, 2008).  It agrees with :func:`flow_jet` of
    :func:`conformal_rescale`'s ``g~`` and ``n~`` to rounding."""
    scale = np.exp(ln)
    n = jet.n / scale[:, None]
    dn = (jet.dn - jet.n[:, :, None] * dln[:, None, :]) / scale[:, None, None]
    return FlowJet(_rescaled_data(jet.data, ln, dln), n, dn, phi, jet.pts)
