"""Shared test helpers: running the ``python -m weylfluid`` CLI in a child
process against the same source tree that the test process imported, and
counting metric evaluations."""

import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import weylfluid

_PACKAGE_INIT = Path(weylfluid.__file__).resolve()

_PROBE = ("import pathlib, weylfluid; "
          "print(pathlib.Path(weylfluid.__file__).resolve())")


@functools.cache
def _child_env():
    """Environment for CLI children, and the reason it is unusable (or None).

    ``PYTHONPATH`` starts with the absolute directory that holds the imported
    ``weylfluid`` package, so a child started from any working directory runs
    the code under test whether that tree is on ``PYTHONPATH``, editable- or
    regularly installed. Python exits with status 1 when it cannot find a
    module, the same code as a failing check, so the child's import is probed
    once and compared with the test process's own before any CLI exit code is
    trusted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_PACKAGE_INIT.parents[1]), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as cwd:
        probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                               text=True, cwd=cwd, env=env)
    if probe.returncode != 0:
        lines = probe.stderr.strip().splitlines() or ["(no stderr)"]
        return env, (f"a child Python cannot import weylfluid: {lines[-1]} "
                     f"(PYTHONPATH={env['PYTHONPATH']!r})")
    child_init = probe.stdout.strip()
    if child_init != str(_PACKAGE_INIT):
        return env, (f"a child Python imports weylfluid from {child_init}, but the "
                     f"tests import it from {_PACKAGE_INIT}")
    return env, None


def run_weylfluid(args, cwd):
    """Run ``python -m weylfluid *args`` in ``cwd`` and return the completed process.

    Fails the calling test, without running the CLI, when the child would not
    import the same ``weylfluid`` as the test process.
    """
    env, problem = _child_env()
    if problem:
        pytest.fail(problem, pytrace=False)
    return subprocess.run([sys.executable, "-m", "weylfluid", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture
def metric_calls(monkeypatch):
    """A list that gains one ``(g, pts)`` entry per ``metric_aux`` call made
    through any ``weylfluid`` module while the test runs."""
    calls = []
    original = weylfluid.geometry.metric_aux

    def counting(g, pts, *args, **kwargs):
        calls.append((g, pts))
        return original(g, pts, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "weylfluid" and getattr(module, "metric_aux", None) is original:
            monkeypatch.setattr(module, "metric_aux", counting)
    return calls
