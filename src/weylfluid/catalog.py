"""Built-in spacetimes, fluids and seeded random ingredients used by the
verification suites.

Every preset build is deterministic for a fixed ``(name, parameters, seed)``
triple, validates the type invariants it depends on (Lorentzian signature on
the sampled box, unit flow, finite scalars), and records enough metadata for
the suites to pick sensible slices, rays and closed-form cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import autodiff as ad
from .conformal import FRAME_TOL, ConformalFactor, FrameFactor, preferred_frame
from .conservation import SliceSpec
from .errors import ConstructionError
from .fluid import FluidState
from .geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    TensorField,
    constant_scalar,
    covector_field,
    normalize_timelike,
    scalar_field,
    vector_field,
)


@dataclass(frozen=True)
class PresetMeta:
    """Suite hints a preset records about itself; ``closed_frame`` maps a
    seed-slice value to the closed-form frame factor."""

    conserved: bool
    slice_axis: int
    slice_values: tuple
    slice_box: tuple
    ray_s_max: float
    closed_frame: Callable = None
    rs: float = None


@dataclass
class CatalogBundle:
    """A fully validated (chart, metric, fluid) instance plus suite hints."""

    name: str
    chart: Chart
    g: MetricField
    state: FluidState
    meta: PresetMeta

    def slice_spec(self, i: int = 0) -> SliceSpec:
        """The preset's ``i``-th hinted slice; the first seeds the preferred
        frame."""
        meta = self.meta
        return SliceSpec(meta.slice_axis, meta.slice_values[i], meta.slice_box)

    def solve_frame(self, engine: DerivativeEngine, tol: float = FRAME_TOL) -> FrameFactor:
        """The preferred frame of the preset's flow from its seed slice, on a
        memo grid sized to ``tol``."""
        return preferred_frame(self.g, self.state.n, self.slice_spec(), engine, tol)


# -- polynomial ingredients ---------------------------------------------------


@lru_cache(maxsize=None)
def _upper(m: int):
    """The upper-triangle pairs ``(iu, ju)`` of an ``m x m`` matrix and the
    table ``sym`` that reads pair ``(min(i, j), max(i, j))`` at ``[i, j]``,
    formed once per dimension and read-only."""
    iu, ju = np.triu_indices(m)
    sym = np.empty((m, m), dtype=int)
    sym[iu, ju] = sym[ju, iu] = np.arange(len(iu))
    for arr in (iu, ju, sym):
        arr.flags.writeable = False
    return iu, ju, sym


def _seeded_polynomials(chart: Chart, rng, scale: float, count: int):
    """Component function of ``count`` degree-<=2 polynomials in
    box-normalized coordinates ``xi``, with seeded coefficients of size
    ``scale``.

    Each polynomial draws its ``c0``, ``c1`` and ``c2`` from ``rng`` in
    turn, all in one call, so ``count`` polynomials take the same draws as
    ``count`` single ones.  All of them are evaluated in one contraction by
    :func:`_polynomials`; these polynomials sit inside perturbed metrics, so
    this path is hot.
    """
    m = chart.dim
    iu, ju, _ = _upper(m)
    draws = scale * rng.uniform(-1.0, 1.0, (count, 1 + m + m * m))
    c1s = draws[:, 1:1 + m]
    c2s = draws[:, 1 + m:].reshape(count, m, m)
    c2s = 0.5 * (c2s + c2s.transpose(0, 2, 1))
    # xi_i xi_j (i < j) stands for both c2_ij and c2_ji
    c2u = np.where(iu == ju, 1.0, 2.0) * c2s[:, iu, ju]
    coef = np.concatenate([draws[:, :1].T, c1s.T, c2u.T])
    mid = np.array([0.5 * (a + b) for a, b in chart.intervals])
    half = np.array([0.5 * (b - a) for a, b in chart.intervals])
    # d(poly_k)/d(x_j) = (c1 + 2 c2 xi)_kj / half_j, as xi @ dc2 + dc1 over (k, j)
    dc1 = (c1s / half).ravel()
    dc2 = (2.0 * c2s / half).transpose(1, 0, 2).reshape(m, count * m)
    return partial(_polynomials, mid, half, (iu, ju), coef, dc1, dc2)


def _polynomials(mid, half, upper, coef, dc1, dc2, coords):
    """The polynomials of :func:`_seeded_polynomials` at ``coords``, one
    ``(N, count)`` array or jet.

    Values are ``[1, xi, xi_i xi_j (i <= j)] @ coef``; for jet input the
    gradients ``(c1 + 2 c2 xi) / half`` are chained through the coordinate
    jacobians in one batched product.
    """

    def values(x):
        xi = (x - mid) / half
        return np.einsum("nk,kj->nj", np.concatenate(
            [np.ones((len(xi), 1)), xi, xi[:, upper[0]] * xi[:, upper[1]]], axis=1), coef)

    def chain(x, val, grad):
        xi = (x - mid) / half
        return (np.einsum("nk,kj->nj", xi, dc2) + dc1).reshape(val.shape + (len(mid),)) @ grad

    return ad.apply(ad.stack(coords), values, chain)


def polynomial_scalar(chart: Chart, rng, scale: float, name: str = "poly") -> TensorField:
    """Degree-<=2 polynomial in box-normalized coordinates with seeded
    coefficients of size ``scale``."""
    poly = _seeded_polynomials(chart, rng, scale, 1)
    return scalar_field(chart, lambda coords: poly(coords)[:, 0], name=name)


def polynomial_covector(chart: Chart, rng, scale: float, name: str = "A(poly)") -> TensorField:
    """Covector of ``m`` seeded polynomials, drawn as ``m`` successive
    :func:`polynomial_scalar` would be."""
    return covector_field(chart, _seeded_polynomials(chart, rng, scale, chart.dim), name=name)


_FACTOR_SCALE = 0.2  # coefficient size of a seeded factor's log polynomial


def seeded_positive_factor(chart: Chart, seed: int) -> ConformalFactor:
    """Gauge factor ``exp(polynomial)``, strictly positive and dual-capable."""
    rng = np.random.default_rng(seed)
    ln = polynomial_scalar(chart, rng, _FACTOR_SCALE, name=f"lnPhi(seed={seed})")
    return ConformalFactor.from_log(ln)


def perturbed_metric(base: MetricField, eps: float, seed: int) -> MetricField:
    """``g + eps * h`` with a seeded symmetric polynomial perturbation.

    The caller must re-check the signature; construction enforces
    ``|eps| <= 0.01`` which keeps every catalog chart Lorentzian.
    """
    if abs(eps) > 0.01:
        raise ConstructionError("metric perturbations are validated only for |eps| <= 0.01")
    chart = base.chart
    m = chart.dim
    rng = np.random.default_rng(seed)
    iu, _, sym = _upper(m)
    # h_ij = h_ji reads the polynomial of the pair (min(i, j), max(i, j))
    poly = _seeded_polynomials(chart, rng, 1.0, len(iu))

    def fn(coords):
        return base.fn(coords) + eps * poly(coords)[:, sym]

    return MetricField(chart, fn, name=f"{base.name}+{eps}h")


# -- metric constructors ------------------------------------------------------


_COORD_NAMES = ("t", "x", "y", "z", "w", "v")


def minkowski_chart(m: int = 4, t_half: float = 1.0, space_half: float = 1.0,
                    margin: float = 0.1) -> Chart:
    names = _COORD_NAMES[:m]
    intervals = [(-t_half, t_half)] + [(-space_half, space_half)] * (m - 1)
    return Chart(names=names, intervals=intervals, margin=margin)


def minkowski_metric(chart: Chart) -> MetricField:
    m = chart.dim

    def fn(coords):
        one = np.ones_like(ad.value(coords[0]))
        return ad.diag(ad.stack([-one] + [one] * (m - 1)))

    return MetricField(chart, fn, name="minkowski")


def flrw_chart(m: int = 4, t_interval=(-1.0, 6.0), space_half: float = 1.0,
               margin: float = 0.1) -> Chart:
    names = _COORD_NAMES[:m]
    intervals = [tuple(t_interval)] + [(-space_half, space_half)] * (m - 1)
    return Chart(names=names, intervals=intervals, margin=margin)


def flrw_metric(chart: Chart, kind: str = "exp", param: float = 0.1) -> MetricField:
    """Spatially flat cosmology ``diag(-1, a^2, ..., a^2)`` with scale
    factor ``exp(H t)`` or ``t^q``."""
    m = chart.dim
    if kind == "exp":
        def a2(t):
            return ad.exp((2.0 * param) * t)
    elif kind == "power":
        if chart.intervals[0][0] <= 0.0:
            raise ConstructionError("power-law scale factor needs t > 0 on the chart")
        def a2(t):
            return t ** (2.0 * param)
    else:
        raise ConstructionError(f"unknown scale-factor kind {kind!r}")

    def fn(coords):
        s = a2(coords[0])
        return ad.diag(ad.stack([np.full_like(ad.value(coords[0]), -1.0)] + [s] * (m - 1)))

    return MetricField(chart, fn, name=f"flrw-{kind}")


def schwarzschild_chart(rs: float = 1.0, t_half: float = 70.0, margin: float = 0.1) -> Chart:
    return Chart(
        names=("t", "r", "th", "ph"),
        intervals=[(-t_half, 2.0 * t_half), (2.5 * rs, 10.0 * rs),
                   (0.25 * math.pi, 0.75 * math.pi), (-0.5, 6.8)],
        margin=margin,
    )


def schwarzschild_metric(chart: Chart, rs: float = 1.0) -> MetricField:
    def fn(coords):
        t, r, th, ph = coords
        f = 1.0 - rs / r
        r2 = r * r
        sin_th = ad.sin(th)
        return ad.diag(ad.stack([-f, 1.0 / f, r2, r2 * sin_th * sin_th]))

    return MetricField(chart, fn, name="schwarzschild")


# -- flow constructors --------------------------------------------------------


def comoving_flow(chart: Chart, g: MetricField) -> TensorField:
    m = chart.dim

    def fn(coords):
        zero = np.zeros_like(ad.value(coords[0]))
        return ad.stack([zero + 1.0] + [zero] * (m - 1))

    return normalize_timelike(g, vector_field(chart, fn, name="dt"))


def sheared_flow(chart: Chart, g: MetricField, eps: float) -> TensorField:
    """``normalize(d_t + eps * x * d_x)``."""
    m = chart.dim

    def fn(coords):
        zero = np.zeros_like(ad.value(coords[0]))
        return ad.stack([zero + 1.0, eps * coords[1]] + [zero] * (m - 2))

    return normalize_timelike(g, vector_field(chart, fn, name="sheared"))


# -- preset builders: (merged parameters, seed) -> (chart, g, state, meta) -----


def _flrw_conserved_density(chart, kind, param, rho0):
    m = chart.dim
    expo = float(1 - m)
    if kind == "exp":
        def fn(coords):
            return rho0 * ad.exp((expo * param) * coords[0])
    else:
        def fn(coords):
            return rho0 * coords[0] ** (expo * param)
    return scalar_field(chart, fn, name="rho")


def _flrw_closed_frame(chart, kind, param):
    """Closed-form incompressible-gauge factor for a comoving cosmology:
    ``ln Phi = ln a(t0) - ln a(t)``, parametrized by the seed-slice time."""

    def build(t0: float) -> ConformalFactor:
        if kind == "exp":
            def fn(coords):
                return param * (t0 - coords[0])
        else:
            def fn(coords):
                return param * (math.log(t0) - ad.log(coords[0]))
        return ConformalFactor.from_log(scalar_field(chart, fn, name="lnPhi(frame)"))

    return build


def _build_minkowski(kind: str, params: dict, seed: int):
    m = int(params["dim"])
    rng = np.random.default_rng(seed)

    if kind == "sheared":
        chart = minkowski_chart(m, t_half=0.5)
    else:
        chart = minkowski_chart(m)
    g = minkowski_metric(chart)
    if kind == "perturbed":
        g = perturbed_metric(g, params["eps"], seed)

    if kind == "sheared":
        n = sheared_flow(chart, g, params["eps"])
        phi = polynomial_scalar(chart, rng, params["phi_scale"], name="phi")
    else:
        n = comoving_flow(chart, g)
        phi = constant_scalar(chart, params["phi"], name="phi")

    rho = constant_scalar(chart, params["rho0"], name="rho")
    p = constant_scalar(chart, params["w"] * params["rho0"], name="p")
    state = FluidState(n=n, p=p, rho=rho, phi=phi)

    meta = PresetMeta(
        conserved=kind == "rest",
        slice_axis=0,
        slice_values=(0.0, 0.25) if kind == "sheared" else (0.0, 0.5),
        slice_box=tuple((-0.5, 0.5) for _ in range(m - 1)),
        ray_s_max=0.8 if kind == "sheared" else 1.5,
    )
    return chart, g, state, meta


def _build_flrw(kind: str, params: dict, seed: int):
    m = int(params["dim"])

    if kind == "power-dust":
        chart = flrw_chart(m, t_interval=(0.5, 4.0))
        sf_kind, sf_param = "power", params["q"]
        slice_values = (1.0, 3.0)
    else:
        chart = flrw_chart(m)
        sf_kind, sf_param = "exp", params["H"]
        slice_values = (0.0, 5.0)

    g = flrw_metric(chart, sf_kind, sf_param)
    n = comoving_flow(chart, g)

    if kind == "radiation":
        def rho_fn(coords):
            return params["rho0"] * ad.exp(-0.2 * coords[0])
        rho = scalar_field(chart, rho_fn, name="rho")
        phi = constant_scalar(chart, params["phi"], name="phi")
        conserved = False
    else:
        rho = _flrw_conserved_density(chart, sf_kind, sf_param, params["rho0"])
        phi = constant_scalar(chart, 0.0, name="phi")
        conserved = True

    def p_fn(coords):
        return params["w"] * rho.fn(coords)

    p = scalar_field(chart, p_fn, name="p")
    state = FluidState(n=n, p=p, rho=rho, phi=phi)
    meta = PresetMeta(
        conserved=conserved,
        slice_axis=0,
        slice_values=slice_values,
        slice_box=tuple((-0.5, 0.5) for _ in range(m - 1)),
        ray_s_max=1.5,
        closed_frame=_flrw_closed_frame(chart, sf_kind, sf_param),
    )
    return chart, g, state, meta


def _build_schwarzschild(params: dict, seed: int):
    rs = params["rs"]
    chart = schwarzschild_chart(rs)
    g = schwarzschild_metric(chart, rs)
    n = comoving_flow(chart, g)
    state = FluidState(
        n=n,
        p=constant_scalar(chart, params["w"] * params["rho0"], name="p"),
        rho=constant_scalar(chart, params["rho0"], name="rho"),
        phi=constant_scalar(chart, params["phi"], name="phi"),
    )
    meta = PresetMeta(
        conserved=False,
        slice_axis=0,
        slice_values=(10.0, 30.0),
        slice_box=((3.0, 9.0), (0.9, 2.2), (0.5, 5.5)),
        ray_s_max=2.0,
        rs=rs,
    )
    return chart, g, state, meta


# -- preset registry ----------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """One catalog entry: the ``(spacetime, fluid)`` pair a config names,
    the settable parameters with their defaults, and the builder."""

    spacetime: str
    fluid: str
    defaults: dict
    builder: Callable


# keyed by "<spacetime>-<fluid>", the name SuiteConfig.preset_name gives
PRESETS = {f"{entry.spacetime}-{entry.fluid}": entry for entry in (
    Preset("minkowski", "dust-rest", {"rho0": 1.0, "phi": 0.0, "w": 0.0, "dim": 4},
           partial(_build_minkowski, "rest")),
    Preset("minkowski", "dust-phi", {"rho0": 1.0, "phi": 0.5, "w": 0.0, "dim": 4},
           partial(_build_minkowski, "phi")),
    Preset("minkowski", "radiation", {"rho0": 1.0, "phi": 0.3, "w": 1.0 / 3.0, "dim": 4},
           partial(_build_minkowski, "radiation")),
    Preset("minkowski", "sheared",
           {"rho0": 1.0, "eps": 0.1, "phi_scale": 0.1, "w": 0.0, "dim": 4},
           partial(_build_minkowski, "sheared")),
    Preset("minkowski", "perturbed",
           {"rho0": 1.0, "phi": 0.2, "eps": 0.01, "w": 0.0, "dim": 4},
           partial(_build_minkowski, "perturbed")),
    Preset("minkowski3", "dust", {"rho0": 1.0, "phi": 0.4, "w": 0.0},
           lambda params, seed: _build_minkowski("phi", {**params, "dim": 3}, seed)),
    Preset("flrw", "comoving-dust", {"H": 0.1, "rho0": 1.0, "w": 0.0, "dim": 4},
           partial(_build_flrw, "comoving-dust")),
    Preset("flrw", "radiation", {"H": 0.1, "rho0": 1.0, "w": 1.0 / 3.0, "phi": 0.1, "dim": 4},
           partial(_build_flrw, "radiation")),
    Preset("flrw-power", "dust", {"q": 2.0 / 3.0, "rho0": 1.0, "w": 0.0, "dim": 4},
           partial(_build_flrw, "power-dust")),
    Preset("schwarzschild", "static", {"rs": 1.0, "rho0": 1.0, "phi": 0.0, "w": 0.0},
           _build_schwarzschild),
)}


def preset_names() -> tuple:
    return tuple(sorted(PRESETS))


def validate_parameters(name: str, parameters: dict) -> None:
    """Reject unknown presets, unknown parameter keys, non-finite values, a
    ``dim`` that is not a supported chart dimension, a metric perturbation
    ``eps`` above 0.01 in size, a shear ``eps`` of 1 or more in size and a
    non-positive Schwarzschild radius ``rs``, without building anything."""
    if name not in PRESETS:
        raise ConstructionError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    allowed = PRESETS[name].defaults
    for key, value in (parameters or {}).items():
        if key not in allowed:
            raise ConstructionError(
                f"unknown parameter {key!r} for preset {name!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ConstructionError(
                f"parameter {key!r} of preset {name!r} must be finite, got {value}")
        if key == "dim" and not (value.is_integer() and 2 <= value <= len(_COORD_NAMES)):
            raise ConstructionError(
                f"parameter 'dim' of preset {name!r} must be an integer "
                f"from 2 to {len(_COORD_NAMES)}, got {value}")
        if key == "eps" and name == "minkowski-perturbed" and abs(value) > 0.01:
            raise ConstructionError(
                f"parameter 'eps' of preset {name!r} must be at most 0.01 in size, got {value}")
        # the shear d_t + eps x d_x is timelike only while |eps x| < 1 on x in [-1, 1]
        if key == "eps" and name == "minkowski-sheared" and abs(value) >= 1.0:
            raise ConstructionError(
                f"parameter 'eps' of preset {name!r} must be below 1 in size, got {value}")
        if key == "rs" and value <= 0:
            raise ConstructionError(
                f"parameter 'rs' of preset {name!r} must be positive, got {value}")


def build(name: str, parameters: dict = None, seed: int = 0) -> CatalogBundle:
    """Construct and validate a catalog preset.

    Deterministic for fixed ``(name, parameters, seed)``.  Raises
    :class:`ConstructionError` for unknown names or invalid parameters and
    propagates signature/timelike failures from validation.
    """
    validate_parameters(name, parameters)
    entry = PRESETS[name]
    params = {**entry.defaults, **{k: float(v) for k, v in (parameters or {}).items()}}
    bundle = CatalogBundle(name, *entry.builder(params, seed))
    pts = bundle.chart.sample_points(per_axis=3, extra=32, seed=seed)
    try:
        bundle.g.check_signature(pts)
    except Exception as exc:
        raise ConstructionError(f"preset {name!r} failed signature validation: {exc}") from exc
    bundle.state.validate(bundle.g, pts)
    return bundle


def verification_matrix() -> tuple:
    """The preset instances swept by the acceptance checks, in table order."""
    return tuple(PRESETS)


# -- initial-data helpers -----------------------------------------------------


def null_tangent(g: MetricField, x0, spatial) -> np.ndarray:
    """Project a spatial direction to a future-pointing null tangent at a
    point by solving the quadratic ``g(k, k) = 0`` for the time component."""
    x0 = np.asarray(x0, dtype=float)
    gv = g(x0[None, :])[0]
    d = np.zeros(g.chart.dim)
    d[1:] = np.asarray(spatial, dtype=float)
    a = gv[0, 0]
    b = gv[0, 1:] @ d[1:]
    c = d[1:] @ gv[1:, 1:] @ d[1:]
    disc = b * b - a * c
    k0 = (-b - math.sqrt(disc)) / a
    if k0 < 0:
        k0 = (-b + math.sqrt(disc)) / a
    return np.concatenate([[k0], d[1:]])
