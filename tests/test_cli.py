"""Harness behavior: config validation, report schema, determinism and the
exit-code contract."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from weylfluid import cli, suites
from weylfluid.config import load_config
from weylfluid.errors import ConfigError
from weylfluid.harness import run_suite
from weylfluid.report import (
    VerificationReport,
    parse_report,
    render_table,
    report_to_dict,
    to_json,
)
from weylfluid.suites import CheckRecord

from conftest import run_weylfluid as _cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

PASS_CFG = """\
[spacetime]
preset = minkowski

[fluid]
preset = dust-rest

[run]
suites = connection fluid
seed = 3
timing = off
"""

FAIL_CFG = """\
[spacetime]
preset = flrw
H = 0.1

[fluid]
preset = comoving-dust

[conformal]
weight = -4

[run]
suites = conformal
timing = off
"""

BAD_KEY_CFG = """\
[run]
suites = connection
frobnicate = yes
"""

MALFORMED_CFG = "[run\nsuites = connection\n"

# (section, key, values that load_config must reject)
OUT_OF_RANGE = [
    ("run", "seed", ["-1"]),
    ("run", "rays", ["0", "-1"]),
    ("run", "nonmetricity_pairs", ["0"]),
    ("conformal", "seeded_factors", ["0"]),
    ("samples", "grid_per_axis", ["0"]),
    ("samples", "random_points", ["0"]),
    ("engine", "h", ["nan", "inf", "0", "-1e-4"]),
    ("engine", "mode", ["bogus"]),
    ("engine", "richardson", ["2"]),
    ("run", "suites", ["", "fluid fluid", "connection fluid connection"]),
    ("run", "out", [""]),
    # a frame tolerance of 0 would refine the sized memo grid to its ceiling
    *(("tolerances", f.name, ["-1e-9", "nan", "inf"] + (["0"] if f.name == "frame" else []))
      for f in fields(suites.Tolerances)),
]


# (section, key, value, (spacetime, fluid)) preset parameters that
# load_config must reject
REST = ("minkowski", "dust-rest")
BAD_PARAMETERS = [
    ("fluid", "rho0", "nan", REST),
    ("spacetime", "dim", "7", REST),
    ("spacetime", "dim", "1", REST),
    ("spacetime", "dim", "2.5", REST),
    ("spacetime", "eps", "0.5", ("minkowski", "perturbed")),
    ("spacetime", "eps", "-5", ("minkowski", "perturbed")),
    ("spacetime", "eps", "1.0", ("minkowski", "sheared")),
    ("spacetime", "eps", "-5.0", ("minkowski", "sheared")),
    ("spacetime", "rs", "-1", ("schwarzschild", "static")),
]

# (key, [geodesic] lines) that `weylfluid geodesic` must reject with exit 2
BAD_GEODESIC = [
    ("kind", ["kind = spacelike"]),
    ("s_max", ["s_max = abc", "s_max = 0", "s_max = inf"]),
    ("start", ["start = 0 0", "start = 0 0 0 x", "start = 0 0 0 nan", "start = 5 0 0 0"]),
    ("tangent", ["kind = autoparallel\ntangent = 1 0", "tangent = 1 0 0 0",
                 "kind = autoparallel\ntangent = 0 0 0 0"]),
    ("direction", ["direction = 1 0 0 0", "kind = autoparallel\ndirection = 1 0 0",
                   "direction = 0 0 0"]),
]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.preset_name == "minkowski-dust-rest"
        assert cfg.suites == ("connection", "fluid", "conservation",
                              "conformal", "frame", "worldlines")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(_write(tmp_path, "bad.cfg", BAD_KEY_CFG))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(_write(tmp_path, "bad.cfg", "[nope]\na = 1\n"))

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown suites"):
            load_config(_write(tmp_path, "bad.cfg", "[run]\nsuites = nope\n"))

    def test_unknown_preset_rejected(self, tmp_path):
        text = "[spacetime]\npreset = torus\n"
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(_write(tmp_path, "bad.cfg", text))

    def test_flag_overrides_win(self, tmp_path):
        path = _write(tmp_path, "ok.cfg", PASS_CFG)
        cfg = load_config(path, {"seed": 9, "suite": ["fluid"], "format": "table"})
        assert cfg.seed == 9
        assert cfg.suites == ("fluid",)
        assert cfg.fmt == "table"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("section,key,values", OUT_OF_RANGE,
                             ids=[key for _, key, _ in OUT_OF_RANGE])
    def test_out_of_range_value_rejected(self, tmp_path, section, key, values):
        for value in values:
            path = _write(tmp_path, "bad.cfg", f"[{section}]\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"key '{key}'"):
                load_config(path)

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--seed", "-1", "--out", out]) == 2
        assert "key 'seed'" in capsys.readouterr().err

    def test_repeated_suite_exits_two(self, tmp_path, capsys):
        # a suite named twice would write each of its records twice under one name
        out = tmp_path / "report.json"
        path = _write(tmp_path, "twice.cfg", PASS_CFG.replace("connection fluid", "fluid fluid"))
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        assert "key 'suites' names fluid more than once" in capsys.readouterr().err
        flags = ["verify", "--suite", "fluid", "--suite", "fluid", "--out", str(out)]
        assert cli.main(flags) == 2
        assert "key 'suites'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "out.cfg", PASS_CFG + "out =\n")
        assert cli.main(["verify", "--config", path]) == 2
        assert "key 'out'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value,preset", BAD_PARAMETERS,
                             ids=[f"{key}={value}" for _, key, value, _ in BAD_PARAMETERS])
    def test_bad_preset_parameter_rejected(self, tmp_path, section, key, value, preset):
        body = {"spacetime": f"preset = {preset[0]}\n", "fluid": f"preset = {preset[1]}\n"}
        body[section] += f"{key} = {value}\n"
        text = "".join(f"[{name}]\n{lines}" for name, lines in body.items())
        with pytest.raises(ConfigError, match=f"parameter '{key}'") as err:
            load_config(_write(tmp_path, "bad.cfg", text))
        assert "unknown parameter" not in str(err.value)

    @pytest.mark.parametrize("key,lines", BAD_GEODESIC, ids=[k for k, _ in BAD_GEODESIC])
    def test_bad_geodesic_key_exits_two(self, tmp_path, capsys, key, lines):
        for line in lines:
            path = _write(tmp_path, "geo.cfg", PASS_CFG + f"[geodesic]\n{line}\n")
            out = str(tmp_path / "ray.csv")
            assert cli.main(["geodesic", "--config", path, "--out", out]) == 2, line
            assert f"key '{key}'" in capsys.readouterr().err

    def test_range_edges_accepted(self, tmp_path, capsys):
        text = ("[run]\nrays = 1\nnonmetricity_pairs = 1\n"
                "[samples]\ngrid_per_axis = 1\nrandom_points = 1\n"
                "[conformal]\nseeded_factors = 1\n"
                "[engine]\nmode = central-difference\nh = 1e-300\n"
                "[tolerances]\nidentity = 0\n")
        cfg = load_config(_write(tmp_path, "edge.cfg", text))
        assert (cfg.rays, cfg.seeded_factors) == (1, 1)
        assert cfg.engine.h == 1e-300 and cfg.tols.identity == 0.0
        # the memo grid is sized by the frame tolerance alone, so a config
        # with a [frame] section is refused whatever its keys
        path = _write(tmp_path, "old.cfg", "[frame]\n")
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "r.json")]) == 2
        assert "unknown config section [frame]" in capsys.readouterr().err
        # the eps bound is the perturbed metric's; on the sheared flow eps is the shear
        for fluid, eps in (("perturbed", "0.01"), ("perturbed", "-0.01"), ("sheared", "0.5")):
            text = f"[spacetime]\npreset = minkowski\neps = {eps}\n[fluid]\npreset = {fluid}\n"
            assert load_config(_write(tmp_path, "ok.cfg", text)).parameters["eps"] == float(eps)


class TestReportSerialization:
    def _sample_report(self, seed):
        rng = np.random.default_rng(seed)
        checks = [
            CheckRecord(f"suite:check-{i}", f"anchor {i}",
                        float(rng.uniform(0, 1e-8)), 1e-6, bool(rng.integers(0, 2)))
            for i in range(6)
        ]
        return VerificationReport(
            suite=["connection"], spacetime="minkowski", fluid="dust-rest",
            settings={"seed": seed}, checks=checks,
            runtime_seconds=float(rng.uniform(0, 3)))

    def test_round_trip(self):
        for seed in range(10):
            report = self._sample_report(seed)
            again = parse_report(to_json(report))
            assert report_to_dict(again) == report_to_dict(report)
            assert again.checks == report.checks

    def test_schema_keys_and_order(self):
        raw = json.loads(to_json(self._sample_report(0)))
        assert list(raw) == ["suite", "spacetime", "fluid", "settings",
                             "checks", "runtime_seconds", "pass"]
        assert list(raw["checks"][0]) == ["name", "anchor", "max_residual", "tol", "pass"]

    def test_empty_checks_pass(self):
        report = VerificationReport(
            suite=[], spacetime="minkowski", fluid="dust-rest",
            settings={}, checks=[])
        raw = json.loads(to_json(report))
        assert raw["checks"] == []
        assert raw["pass"] is True

    def test_single_failure_fails_overall(self):
        report = VerificationReport(
            suite=["x"], spacetime="m", fluid="f", settings={},
            checks=[CheckRecord("a", "b", 1.0, 0.5, False)])
        assert json.loads(to_json(report))["pass"] is False
        assert "FAIL" in render_table(report)


class TestRunSuite:
    def test_pass_report(self, tmp_path):
        cfg = load_config(_write(tmp_path, "ok.cfg", PASS_CFG))
        report = run_suite(cfg)
        assert report.passed
        assert all(c.name.split(":")[0] in ("connection", "fluid") for c in report.checks)
        assert report.runtime_seconds == 0.0  # timing off

    def test_seeded_factors_sets_orbit_size(self, tmp_path, monkeypatch):
        seeds = []
        real = suites.seeded_positive_factor

        def recording(chart, seed):
            seeds.append(seed)
            return real(chart, seed)

        monkeypatch.setattr(suites, "seeded_positive_factor", recording)
        conformal = PASS_CFG.replace("suites = connection fluid", "suites = conformal")
        orbit_sizes = []
        for extra in ("", "[conformal]\nseeded_factors = 3\n"):
            seeds.clear()
            run_suite(load_config(_write(tmp_path, "orbit.cfg", conformal + extra)))
            # orbit factors take offsets 0..k-1 of seed * 100; the other
            # checks of the suite use offsets 41-43
            orbit_sizes.append(sum(1 for s in seeds if s % 100 < 41))
        assert orbit_sizes == [10, 3]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = load_config(_write(tmp_path, "ok.cfg", PASS_CFG))
        first = to_json(run_suite(cfg))
        second = to_json(run_suite(cfg))
        assert first.encode() == second.encode()


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        path = _write(tmp_path, "ok.cfg", PASS_CFG)
        out = str(tmp_path / "report.json")
        proc = _cli(["verify", "--config", path, "--out", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(open(out).read())["pass"] is True

    def test_check_failure_is_one(self, tmp_path):
        path = _write(tmp_path, "fail.cfg", FAIL_CFG)
        out = str(tmp_path / "report.json")
        proc = _cli(["verify", "--config", path, "--out", out], cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        raw = json.loads(open(out).read())
        assert raw["pass"] is False
        failing = {c["name"] for c in raw["checks"] if not c["pass"]}
        # the wrong weight breaks the current, its slice counts, and the
        # stress-energy scaling, nothing else
        assert failing == {"conformal:stress-energy-weight", "conformal:current-weight",
                           "conformal:slice-count-gauge-invariance"}

    def test_config_error_is_two(self, tmp_path):
        for text in (BAD_KEY_CFG, MALFORMED_CFG, PASS_CFG + "rays = 0\n"):
            path = _write(tmp_path, "bad.cfg", text)
            proc = _cli(["verify", "--config", path], cwd=tmp_path)
            assert proc.returncode == 2, (proc.stdout, proc.stderr)

    def test_runtime_error_is_three(self, tmp_path):
        path = _write(tmp_path, "ok.cfg", PASS_CFG)
        proc = _cli(["verify", "--config", path, "--out", "/nonexistent/dir/r.json"],
                    cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr

    def test_step_that_moves_no_coordinate_is_three(self, tmp_path, capsys):
        # t + 1e-300 == t - 1e-300: every difference would read 0, and the
        # connection and fluid suites would pass on derivatives never taken
        text = PASS_CFG.replace("preset = minkowski", "preset = flrw").replace(
            "preset = dust-rest", "preset = comoving-dust")
        text += "[engine]\nmode = central-difference\nh = 1e-300\n"
        path = _write(tmp_path, "tiny-h.cfg", text)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 3
        assert "difference step h = 1e-300 leaves coordinate 't'" in capsys.readouterr().err
        assert json.loads(out.read_text())["checks"][-1]["name"] == "error"

    def test_frame_ceiling_names_its_target(self, tmp_path, capsys):
        # a frame tolerance no grid below the ceiling meets: the error names
        # the target each axis estimate was sized to and the key that sets it
        text = PASS_CFG.replace("preset = dust-rest", "preset = sheared").replace(
            "suites = connection fluid", "suites = frame")
        text += "[tolerances]\nframe = 1e-300\n"
        path = _write(tmp_path, "tiny-frame.cfg", text)
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "frame memo grid past the ceiling of 83521 nodes: axis 't' at 7 nodes" in err
        assert "0.1 * tol = 1e-301, with tol = 1e-300 from [tolerances] frame" in err

    def test_build_failure_writes_partial_report(self, tmp_path):
        # parameters that parse but fail construction (a Hubble rate this
        # large overflows the scale factor exp(H t) on the chart): runtime
        # error with a partial report carrying the error record
        text = PASS_CFG.replace(
            "[spacetime]\npreset = minkowski",
            "[spacetime]\npreset = flrw\nH = 100",
        ).replace("preset = dust-rest", "preset = comoving-dust")
        path = _write(tmp_path, "bad-h.cfg", text)
        out = tmp_path / "partial.json"
        proc = _cli(["verify", "--config", path, "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        raw = json.loads(out.read_text())
        assert raw["pass"] is False
        assert raw["checks"][-1]["name"] == "error"


class TestOtherCommands:
    def test_report_rendering(self, tmp_path):
        path = _write(tmp_path, "ok.cfg", PASS_CFG)
        out = str(tmp_path / "report.json")
        proc = _cli(["verify", "--config", path, "--out", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = _cli(["report", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "overall: PASS" in proc.stdout

    def test_geodesic_export(self, tmp_path):
        cfg = PASS_CFG + "\n[geodesic]\nkind = null\ns_max = 0.5\n"
        path = _write(tmp_path, "geo.cfg", cfg)
        out = str(tmp_path / "ray.csv")
        proc = _cli(["geodesic", "--config", path, "--out", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[1] == 9

    @pytest.mark.parametrize("command", ["frame", "geodesic"])
    def test_format_flag_is_verify_only(self, tmp_path, capsys, command):
        # frame and geodesic always write CSV, so they take no --format
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--format", "table", "--out", str(tmp_path / "x.csv")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format table" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_frame_export(self, tmp_path):
        cfg = PASS_CFG.replace("suites = connection fluid", "suites = frame")
        path = _write(tmp_path, "frame.cfg", cfg)
        out = str(tmp_path / "grid.csv")
        proc = _cli(["frame", "--config", path, "--out", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "7x7x7x7 = 2401 grid values" in proc.stdout
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (7**4, 5)
        assert np.abs(data[:, 4]).max() < 1e-12  # already incompressible

    def test_sized_frame_prints_its_estimates(self, tmp_path, capsys):
        # a grid sized by the error estimate prints the per-axis estimates,
        # in units of the frame tolerance, beside its counts
        cfg = PASS_CFG.replace("suites = connection fluid", "suites = frame")
        path = _write(tmp_path, "frame.cfg", cfg)
        assert cli.main(["frame", "--config", path, "--out", str(tmp_path / "grid.csv")]) == 0
        assert "7x7x7x7 = 2401 grid values, estimate/tol 0 0 0 0" in capsys.readouterr().out


def _report_text(key, value):
    """A one-check report's JSON text with ``value`` under ``key``, a key of
    the check when the check has it, else a top-level key."""
    check = {"name": "connection:torsion-free", "anchor": "a", "max_residual": 0.0,
             "tol": 1e-12, "pass": True}
    raw = {"suite": ["connection"], "spacetime": "minkowski", "fluid": "dust-rest",
           "settings": {}, "checks": [check], "runtime_seconds": 0.0, "pass": True}
    (check if key in check else raw)[key] = value
    return json.dumps(raw)


class TestMalformedReport:
    # a value of the wrong type exits 3 with a message naming its key; a
    # traceback would exit 1, the code of a failed check
    @pytest.mark.parametrize("text, message", [
        ('{"suite": []}', "report has no key 'checks'"),
        ("[1, 2]", "report top level is not a JSON object"),
        ('{"checks": 5}', "report key 'checks' is not a list"),
        ('{"checks": [1]}', "report key 'checks' holds a check that is not an object"),
        (_report_text("max_residual", None), "report key 'max_residual' must be a number, got null"),
        (_report_text("max_residual", [1]), "report key 'max_residual' must be a number, got [1]"),
        (_report_text("max_residual", "abc"),
         "report key 'max_residual' must be a number, got \"abc\""),
        (_report_text("tol", True), "report key 'tol' must be a number, got true"),
        (_report_text("pass", 1), "report key 'pass' must be true or false, got 1"),
        (_report_text("suite", 5), "report key 'suite' must be a list of suite names, got 5"),
        (_report_text("settings", []), "report key 'settings' must be an object, got []"),
        (_report_text("runtime_seconds", "0"),
         "report key 'runtime_seconds' must be a number, got \"0\""),
        (_report_text("name", 5), "report key 'name' must be a string, got 5"),
        (_report_text("anchor", None), "report key 'anchor' must be a string, got null"),
        (_report_text("spacetime", 7), "report key 'spacetime' must be a string, got 7"),
        (_report_text("fluid", ["x"]), "report key 'fluid' must be a string, got [\"x\"]"),
    ], ids=["missing-key", "not-an-object", "checks-not-a-list", "check-not-an-object",
            "residual-null", "residual-list", "residual-string", "tol-bool", "pass-int",
            "suite-int", "settings-list", "runtime-string", "name-int", "anchor-null",
            "spacetime-int", "fluid-list"])
    def test_report_command_exits_three(self, tmp_path, capsys, text, message):
        path = _write(tmp_path, "bad.json", text)
        assert cli.main(["report", path]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCommittedConfigs:
    def test_every_config_loads(self):
        paths = sorted(CONFIG_DIR.glob("*.cfg"))
        assert paths
        for path in paths:
            load_config(str(path))

    def test_negative_control_fails(self, tmp_path):
        out = str(tmp_path / "report.json")
        path = str(CONFIG_DIR / "flrw-wrong-weight.cfg")
        assert cli.main(["verify", "--config", path, "--out", out]) == 1
        assert json.loads(open(out).read())["pass"] is False
