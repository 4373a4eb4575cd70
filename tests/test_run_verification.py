"""``scripts/run_verification.py``: the sweep runs every suite."""

import importlib.util
from pathlib import Path

from weylfluid import suites

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"


def test_sweep_runs_every_suite_once():
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sorted(sweep.SWEEP_SUITES) == sorted(suites.SUITES)
