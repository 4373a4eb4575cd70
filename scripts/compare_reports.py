#!/usr/bin/env python3
"""Compare two directories of verification reports record by record.

A record is one check of one preset's report (``<preset>.json``, as
``scripts/run_verification.py`` writes them).  Prints every record whose
``max_residual`` changed, with the preset, the check, the old and new
values, the tolerance and the headroom (``max_residual / tol``) before and
after, then a summary line that names the largest new headroom among the
moved records.  Exits 1 when a record is on
one side only or a check's pass flipped, and 0 otherwise, so residuals that
moved within their tolerances are listed but do not fail the comparison.
A directory with no ``*.json`` report, or a file that is not a report, ends
the run with exit 2 and a message naming it, so a mistyped directory cannot
pass as a comparison of nothing.

Usage:
    python scripts/compare_reports.py OLD_DIR NEW_DIR
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from weylfluid.report import parse_report


def load_records(directory: pathlib.Path) -> dict:
    """``{(preset, check): CheckRecord}`` over the directory's reports."""
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ValueError(f"{directory}: no *.json report")
    records = {}
    for path in paths:
        try:
            checks = parse_report(path.read_text()).checks
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for check in checks:
            records[(path.stem, check.name)] = check
    return records


def headroom(record) -> float:
    """``max_residual / tol``, the share of its tolerance a check uses."""
    return record.max_residual / record.tol if record.tol else 0.0


def compare(old: dict, new: dict, out=sys.stdout) -> int:
    """Print the moved, one-sided and flipped records; return the exit code."""
    moved, faults = [], 0  # moved: (new headroom, preset, check)
    for key in sorted(old.keys() | new.keys()):
        preset, check = key
        if key not in new or key not in old:
            side = "new" if key not in new else "old"
            print(f"MISSING  {preset}  {check}: no record in the {side} reports", file=out)
            faults += 1
            continue
        a, b = old[key], new[key]
        if a.passed != b.passed:
            print(f"FLIPPED  {preset}  {check}: pass {a.passed} -> {b.passed}", file=out)
            faults += 1
        if a.max_residual != b.max_residual:
            print(f"moved    {preset}  {check}: {a.max_residual!r} -> "
                  f"{b.max_residual!r}  (tol {b.tol!r}; headroom "
                  f"{headroom(a):.3g} -> {headroom(b):.3g})", file=out)
            moved.append((headroom(b), preset, check))
    summary = f"{len(moved)} of {len(old)} records moved"
    if moved:
        top = max(moved)
        summary += f", largest new headroom {top[0]:.3g} ({top[1]}  {top[2]})"
    print(f"{summary}; {faults} missing or flipped", file=out)
    return 1 if faults else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir", type=pathlib.Path)
    ap.add_argument("new_dir", type=pathlib.Path)
    args = ap.parse_args(argv)
    for directory in (args.old_dir, args.new_dir):
        if not directory.is_dir():
            ap.error(f"{directory} is not a directory")
    try:
        old, new = load_records(args.old_dir), load_records(args.new_dir)
    except ValueError as exc:
        ap.error(str(exc))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
