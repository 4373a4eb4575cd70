"""Suite configuration: a sectioned key-value file plus flag overrides.

The file parses and validates fully before any computation starts; unknown
sections or keys are rejected.  Command-line flags win over file values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field

from .catalog import validate_parameters
from .errors import ConfigError, ConstructionError
from .geometry import DerivativeEngine
from .suites import SUITES, Tolerances

_KNOWN_KEYS = {
    "spacetime": {"preset"},  # plus free-form numeric parameters
    "fluid": {"preset"},
    "engine": {"mode", "h", "richardson"},
    "tolerances": {
        "tol_ad", "tol_fd", "inverse", "identity", "frame", "frame_closed",
        "quadrature_rel", "trajectory", "null_orthogonal", "current_weight",
        "stress_weight",
    },
    "samples": {"grid_per_axis", "random_points"},
    "conformal": {"weight", "seeded_factors"},
    "run": {"suites", "seed", "out", "format", "timing", "rays", "nonmetricity_pairs"},
    "geodesic": {"kind", "start", "tangent", "direction", "s_max"},
}
_PARAM_SECTIONS = {"spacetime", "fluid"}


@dataclass
class SuiteConfig:
    spacetime: str = "minkowski"
    fluid: str = "dust-rest"
    parameters: dict = dc_field(default_factory=dict)
    engine: DerivativeEngine = dc_field(default_factory=DerivativeEngine)
    tols: Tolerances = dc_field(default_factory=Tolerances)
    grid_per_axis: int = 5
    random_points: int = 64
    weight_override: int = None
    seeded_factors: int = 10
    suites: tuple = tuple(SUITES)
    seed: int = 0
    out: str = "report.json"
    fmt: str = "json"
    timing: bool = True
    rays: int = 5
    nonmetricity_pairs: int = 20
    geodesic: dict = dc_field(default_factory=dict)

    @property
    def preset_name(self) -> str:
        return f"{self.spacetime}-{self.fluid}"

    def echo(self) -> dict:
        """Settings block embedded in reports."""
        return {
            "spacetime": self.spacetime,
            "fluid": self.fluid,
            "parameters": {k: float(v) for k, v in sorted(self.parameters.items())},
            "engine": {
                "mode": self.engine.mode,
                "h": self.engine.h,
                "richardson": self.engine.richardson,
            },
            "tolerances": {
                k: getattr(self.tols, k) for k in sorted(_KNOWN_KEYS["tolerances"])
            },
            "samples": {
                "grid_per_axis": self.grid_per_axis,
                "random_points": self.random_points,
            },
            "conformal": {
                "weight": "auto" if self.weight_override is None else self.weight_override,
                "seeded_factors": self.seeded_factors,
            },
            "suites": list(self.suites),
            "seed": self.seed,
            "rays": self.rays,
            "nonmetricity_pairs": self.nonmetricity_pairs,
        }


def _get_float(section, key, default):
    try:
        return float(section.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"key {key!r} must be a number: {exc}") from exc


def _get_int(section, key, default):
    try:
        return int(section.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"key {key!r} must be an integer: {exc}") from exc


def _get_count(section, key, default):
    value = _get_int(section, key, default)
    if value < 1:
        raise ConfigError(f"key {key!r} must be at least 1, got {value}")
    return value


def _get_finite(section, key, default, positive=False):
    value = _get_float(section, key, default)
    if not math.isfinite(value) or (value <= 0.0 if positive else value < 0.0):
        kind = "positive" if positive else "non-negative"
        raise ConfigError(f"key {key!r} must be a finite {kind} number, got {value}")
    return value


def load_config(path: str = None, overrides: dict = None) -> SuiteConfig:
    """Parse, validate and resolve a configuration.

    ``overrides`` maps flag names (``suite``, ``seed``, ``out``,
    ``format``) onto values that replace the file's choices.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # preserve parameter case (e.g. H vs h)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path!r} not found or unreadable")

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        if section in _PARAM_SECTIONS:
            continue  # free-form numeric parameters validated by the builder
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    cfg = SuiteConfig()

    if parser.has_section("spacetime"):
        sec = parser["spacetime"]
        cfg.spacetime = sec.get("preset", cfg.spacetime)
        cfg.parameters.update(
            {k: _get_float(sec, k, 0.0) for k in sec if k != "preset"})
    if parser.has_section("fluid"):
        sec = parser["fluid"]
        cfg.fluid = sec.get("preset", cfg.fluid)
        cfg.parameters.update(
            {k: _get_float(sec, k, 0.0) for k in sec if k != "preset"})

    if parser.has_section("engine"):
        sec = parser["engine"]
        modes = ("forward-dual", "central-difference")
        mode = sec.get("mode", modes[0])
        if mode not in modes:
            raise ConfigError(f"key 'mode' must be one of {', '.join(modes)}, got {mode!r}")
        richardson = _get_int(sec, "richardson", 0)
        if richardson not in (0, 1):
            raise ConfigError(f"key 'richardson' must be 0 or 1, got {richardson}")
        cfg.engine = DerivativeEngine(
            mode=mode, h=_get_finite(sec, "h", 1e-4, positive=True), richardson=richardson)

    if parser.has_section("tolerances"):
        sec = parser["tolerances"]
        # a frame tolerance of 0 would refine the sized memo grid to its ceiling
        kwargs = {k: _get_finite(sec, k, getattr(Tolerances, k), positive=k == "frame")
                  for k in sec}
        cfg.tols = Tolerances(**kwargs)

    if parser.has_section("samples"):
        sec = parser["samples"]
        cfg.grid_per_axis = _get_count(sec, "grid_per_axis", cfg.grid_per_axis)
        cfg.random_points = _get_count(sec, "random_points", cfg.random_points)

    if parser.has_section("conformal"):
        sec = parser["conformal"]
        weight = sec.get("weight", "auto")
        if weight != "auto":
            try:
                cfg.weight_override = int(weight)
            except ValueError as exc:
                raise ConfigError("conformal weight must be 'auto' or an integer") from exc
        cfg.seeded_factors = _get_count(sec, "seeded_factors", cfg.seeded_factors)

    if parser.has_section("run"):
        sec = parser["run"]
        if "suites" in sec:
            cfg.suites = tuple(sec.get("suites").split())
        cfg.seed = _get_int(sec, "seed", cfg.seed)
        cfg.out = sec.get("out", cfg.out)
        cfg.fmt = sec.get("format", cfg.fmt)
        timing = sec.get("timing", "on")
        if timing not in ("on", "off"):
            raise ConfigError("run timing must be 'on' or 'off'")
        cfg.timing = timing == "on"
        cfg.rays = _get_count(sec, "rays", cfg.rays)
        cfg.nonmetricity_pairs = _get_count(sec, "nonmetricity_pairs", cfg.nonmetricity_pairs)

    if parser.has_section("geodesic"):
        sec = parser["geodesic"]
        kind = sec.get("kind", "null")
        if kind not in ("null", "autoparallel"):
            raise ConfigError(f"key 'kind' must be 'null' or 'autoparallel', got {kind!r}")
        unused = "tangent" if kind == "null" else "direction"
        if unused in sec:
            raise ConfigError(f"key {unused!r} does not apply to geodesic kind {kind!r}")
        cfg.geodesic = dict(sec)  # start, tangent and direction are checked against the chart
        if "s_max" in sec:
            cfg.geodesic["s_max"] = _get_finite(sec, "s_max", 0.0, positive=True)

    for flag, value in (overrides or {}).items():
        if value is None:
            continue
        if flag == "suite":
            cfg.suites = tuple(value)
        elif flag == "seed":
            cfg.seed = int(value)
        elif flag == "out":
            cfg.out = value
        elif flag == "format":
            cfg.fmt = value
        else:
            raise ConfigError(f"unknown override {flag!r}")

    if not cfg.suites:
        raise ConfigError(f"key 'suites' must name at least one of {', '.join(SUITES)}")
    repeated = sorted({s for s in cfg.suites if cfg.suites.count(s) > 1})
    if repeated:
        raise ConfigError(f"key 'suites' names {', '.join(repeated)} more than once")
    if not cfg.out:
        raise ConfigError("key 'out' must name an output file")
    if cfg.seed < 0:
        raise ConfigError(f"key 'seed' must be at least 0, got {cfg.seed}")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suites {unknown}; available: {', '.join(sorted(SUITES))}")
    if cfg.fmt not in ("json", "table"):
        raise ConfigError("format must be 'json' or 'table'")
    try:
        validate_parameters(cfg.preset_name, cfg.parameters)
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
