"""``scripts/compare_reports.py`` on two small synthetic report directories."""

import subprocess
import sys
from pathlib import Path

import pytest

from weylfluid.report import VerificationReport, to_json
from weylfluid.suites import CheckRecord

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _write(directory: Path, preset: str, residuals: dict, tol: float = 1e-8) -> None:
    checks = [CheckRecord(name, "anchor", r, tol, r <= tol) for name, r in residuals.items()]
    report = VerificationReport(suite=["connection"], spacetime="minkowski", fluid="dust-rest",
                                settings={}, checks=checks)
    (directory / f"{preset}.json").write_text(to_json(report))


def _compare(old: Path, new: Path):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def dirs(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    _write(old, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 2e-16})
    _write(old, "flrw-radiation", {"nonmetricity": 3e-15})
    return old, new


class TestCompareReports:
    def test_identical_reports(self, dirs):
        old, new = dirs
        _write(new, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 2e-16})
        _write(new, "flrw-radiation", {"nonmetricity": 3e-15})
        done = _compare(old, new)
        assert done.returncode == 0, done.stdout
        assert done.stdout.splitlines() == ["0 of 3 records moved; 0 missing or flipped"]

    def test_moved_residual_is_listed(self, dirs):
        old, new = dirs
        _write(new, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 2.5e-16})
        _write(new, "flrw-radiation", {"nonmetricity": 3e-15})
        done = _compare(old, new)
        assert done.returncode == 0, done.stdout
        lines = done.stdout.splitlines()
        assert lines[0] == ("moved    minkowski-dust-rest  volume-trace: "
                            "2e-16 -> 2.5e-16  (tol 1e-08; headroom 2e-08 -> 2.5e-08)")
        assert lines[-1] == ("1 of 3 records moved, largest new headroom 2.5e-08 "
                             "(minkowski-dust-rest  volume-trace); 0 missing or flipped")

    def test_summary_names_the_largest_new_headroom(self, dirs):
        # the largest headroom after the move, not the largest move
        old, new = dirs
        _write(new, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 1e-9})
        _write(new, "flrw-radiation", {"nonmetricity": 3e-9}, tol=1e-7)
        done = _compare(old, new)
        assert done.returncode == 0, done.stdout
        lines = done.stdout.splitlines()
        assert lines[0].endswith("(tol 1e-07; headroom 3e-07 -> 0.03)")
        assert lines[1].endswith("(tol 1e-08; headroom 2e-08 -> 0.1)")
        assert lines[-1] == ("2 of 3 records moved, largest new headroom 0.1 "
                             "(minkowski-dust-rest  volume-trace); 0 missing or flipped")

    def test_pass_flip_fails(self, dirs):
        old, new = dirs
        _write(new, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 2e-16})
        _write(new, "flrw-radiation", {"nonmetricity": 3e-7})
        done = _compare(old, new)
        assert done.returncode == 1
        assert "FLIPPED  flrw-radiation  nonmetricity: pass True -> False" in done.stdout
        assert "moved    flrw-radiation  nonmetricity:" in done.stdout

    @pytest.mark.parametrize("drop", ["check", "report"])
    def test_missing_record_fails(self, dirs, drop):
        old, new = dirs
        _write(new, "minkowski-dust-rest", {"nonmetricity": 1e-16, "volume-trace": 2e-16})
        if drop == "check":
            _write(new, "flrw-radiation", {})
        done = _compare(old, new)
        assert done.returncode == 1
        assert ("MISSING  flrw-radiation  nonmetricity: no record in the new reports"
                in done.stdout)

    def test_malformed_report_exits_two(self, dirs):
        old, new = dirs
        (new / "flrw-radiation.json").write_text('{"suite": []}')
        done = _compare(old, new)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1].endswith(
            f"error: {new / 'flrw-radiation.json'}: report has no key 'checks'")

    def test_wrongly_typed_report_exits_two(self, dirs):
        old, new = dirs
        (new / "flrw-radiation.json").write_text('{"suite": 5, "checks": []}')
        done = _compare(old, new)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1].endswith(
            f"error: {new / 'flrw-radiation.json'}: "
            "report key 'suite' must be a list of suite names, got 5")

    def test_check_name_not_a_string_exits_two(self, dirs):
        old, new = dirs
        text = (old / "flrw-radiation.json").read_text()
        (new / "flrw-radiation.json").write_text(text.replace('"nonmetricity"', "5"))
        done = _compare(old, new)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1].endswith(
            f"error: {new / 'flrw-radiation.json'}: report key 'name' must be a string, got 5")

    @pytest.mark.parametrize("empty", ["old", "new", "both"])
    def test_directory_without_reports_exits_two(self, tmp_path, dirs, empty):
        # a mistyped --outdir leaves an empty directory: no comparison of nothing
        old, new = dirs
        _write(new, "flrw-radiation", {"nonmetricity": 3e-15})
        blank = tmp_path / "blank"
        blank.mkdir()
        (blank / "notes.txt").write_text("not a report")
        old, new = {"old": (blank, new), "new": (old, blank), "both": (blank, blank)}[empty]
        done = _compare(old, new)
        assert done.returncode == 2
        assert done.stderr.splitlines()[-1].endswith(f"error: {blank}: no *.json report")
