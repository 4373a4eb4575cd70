"""Verification report assembly, JSON serialization and table rendering.

The JSON layout is stable: fixed key order, residuals written with 17
significant digits, checks in execution order.  Two runs with the same
config and seed therefore produce byte-identical files (timing can be
disabled in the config for exact comparisons).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .suites import CheckRecord


@dataclass
class VerificationReport:
    suite: list
    spacetime: str
    fluid: str
    settings: dict
    checks: list
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt(x: float) -> float:
    # round-trip through the fixed 17-significant-digit representation so
    # emitted and parsed reports compare equal
    return float(f"{float(x):.17g}")


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "suite": list(report.suite),
        "spacetime": report.spacetime,
        "fluid": report.fluid,
        "settings": report.settings,
        "checks": [
            {
                "name": c.name,
                "anchor": c.anchor,
                "max_residual": _fmt(c.max_residual),
                "tol": _fmt(c.tol),
                "pass": bool(c.passed),
            }
            for c in report.checks
        ],
        "runtime_seconds": _fmt(report.runtime_seconds),
        "pass": report.passed,
    }


def emit_report(report: VerificationReport, path: str, fmt: str = "json") -> None:
    """Write the report; ``fmt`` selects structured JSON or a plain table."""
    if fmt == "json":
        text = to_json(report)
    elif fmt == "table":
        text = render_table(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


# the JSON types that to_json writes under each checked key, as a message names them
_NUMBER = ((int, float), "a number")
_STRING = (str, "a string")
_KEY_TYPES = {"suite": (list, "a list of suite names"), "spacetime": _STRING, "fluid": _STRING,
              "settings": (dict, "an object"), "name": _STRING, "anchor": _STRING,
              "max_residual": _NUMBER, "tol": _NUMBER, "pass": (bool, "true or false"),
              "runtime_seconds": _NUMBER}


def _typed(obj: dict, key: str):
    """``obj[key]``; ``ValueError`` naming the key when the value is not of
    the JSON type that :func:`to_json` writes there (a bool is no number)."""
    value = obj[key]
    types, kind = _KEY_TYPES[key]
    if (not isinstance(value, types) or isinstance(value, bool) != (types is bool)
            or key == "suite" and not all(isinstance(s, str) for s in value)):
        raise ValueError(f"report key {key!r} must be {kind}, got {json.dumps(value)}")
    return value


def parse_report(text: str) -> VerificationReport:
    """Read a report written by :func:`to_json`.  Raises ``ValueError`` when
    the text is not JSON, its top level is not an object, a key is missing,
    ``checks`` is not a list of objects, or a value is not of the type the
    report writes under its key."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("report top level is not a JSON object")
    listed = raw.get("checks", [])  # a missing key is named below
    if not isinstance(listed, list):
        raise ValueError("report key 'checks' is not a list")
    if not all(isinstance(c, dict) for c in listed):
        raise ValueError("report key 'checks' holds a check that is not an object")
    try:
        checks = [
            CheckRecord(
                name=_typed(c, "name"),
                anchor=_typed(c, "anchor"),
                max_residual=float(_typed(c, "max_residual")),
                tol=float(_typed(c, "tol")),
                passed=_typed(c, "pass"),
            )
            for c in raw["checks"]
        ]
        return VerificationReport(
            suite=list(_typed(raw, "suite")),
            spacetime=_typed(raw, "spacetime"),
            fluid=_typed(raw, "fluid"),
            settings=_typed(raw, "settings"),
            checks=checks,
            runtime_seconds=float(_typed(raw, "runtime_seconds")),
        )
    except KeyError as exc:
        raise ValueError(f"report has no key {exc}") from exc


def render_table(report: VerificationReport) -> str:
    rows = [("check", "max residual", "tolerance", "status")]
    for c in report.checks:
        rows.append((c.name, f"{c.max_residual:.3e}", f"{c.tol:.1e}",
                     "pass" if c.passed else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = [
        f"suites: {', '.join(report.suite)}   spacetime: {report.spacetime}   "
        f"fluid: {report.fluid}",
        "",
    ]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(4)))
    lines.append("")
    lines.append(
        f"overall: {'PASS' if report.passed else 'FAIL'}   "
        f"runtime: {report.runtime_seconds:.2f} s"
    )
    return "\n".join(lines) + "\n"
