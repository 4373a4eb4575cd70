#!/usr/bin/env python3
"""Benchmark of the weylfluid verification pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload frame --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

The load is a closed loop with one caller in one process: each operation,
one (preset, suite) pair of ``perfbench/workloads.py``, starts when the one
before it has returned, and no thread or queue is involved, so the
benchmark records no waiting time.  BLAS and OpenMP pools are pinned to one
thread.  The seed goes to every preset as the config seed, which draws the
seeded perturbations, sample points and rays.

``--trace 0`` measures the end-to-end metrics: passes over the workload
until ``--seconds`` have gone by (at least two, so the reports can be
compared byte for byte), with a set-up probe in a fresh interpreter before
the first pass and after each pass.  ``tolerance_margin`` is one minus the
residual headroom, the largest ``max_residual / tol`` over the checks with
``tol > 0``, and ``checks_passed_frac`` is one minus the share of failed
checks; both are turned so that neither reads zero on a passing run.
``--trace 1`` runs a traced pass, an untraced pass and a second traced
pass, interleaved operation by operation, and reports the per-layer
metrics of ``tracing.py``; the counts of the two traced passes must agree
exactly.

Every report must pass, and every pass must give byte-identical reports.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks, counting every check of an operation
whose report changed between passes as failed) and ``metrics``.  Spans,
provenance and each check's residual go to ``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2

# (metric, unit, better); the order of BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("tolerance_margin", "ratio", "higher"),
    ("checks_passed_frac", "ratio", "higher"),
)


def pin_threads() -> None:
    # must run before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weylfluid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "load": "closed loop, 1 caller, 1 process, no threads or queues: no waiting time",
    }


def measure_setup(presets, seed: int) -> float:
    """Import + catalog.build time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--seed", str(seed), *presets],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_op(spec, seed: int, run_suite, to_json) -> str:
    """Run one (spacetime, fluid, suite) operation; return its report text."""
    from weylfluid.config import SuiteConfig
    from weylfluid.harness import SuiteRuntimeError

    spacetime, fluid, suite = spec
    cfg = SuiteConfig(spacetime=spacetime, fluid=fluid, suites=(suite,),
                      seed=seed, timing=False)
    try:
        report = run_suite(cfg)
    except SuiteRuntimeError as exc:
        report = exc.report  # carries the failing "error" record
    return to_json(report)


def run_pass(ops, seed: int):
    """Run every operation once; return the wall time and the report texts."""
    from weylfluid.harness import run_suite
    from weylfluid.report import to_json

    started = time.perf_counter()
    texts = [run_op(spec, seed, run_suite, to_json) for spec in ops]
    return time.perf_counter() - started, texts


class Gate:
    """Correctness over passes: every check passes and every pass repeats
    the first pass's reports byte for byte."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0

    def add(self, texts) -> None:
        if self.reference is None:
            self.reference = texts
        for text, ref in zip(texts, self.reference):
            checks = json.loads(text)["checks"]
            self.attempted += len(checks)
            if text != ref:
                self.mismatched += 1
                self.failed += len(checks)
            else:
                self.failed += sum(not c["pass"] for c in checks)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def residuals(self, ops) -> list:
        """Each check's residual and tolerance, from the first pass."""
        out = []
        for (spacetime, fluid, _), text in zip(ops, self.reference):
            for c in json.loads(text)["checks"]:
                out.append({"preset": f"{spacetime}-{fluid}", "check": c["name"],
                            "max_residual": c["max_residual"], "tol": c["tol"],
                            "pass": c["pass"]})
        return out

    def headroom(self) -> float:
        return max(c["max_residual"] / c["tol"]
                   for text in self.reference for c in json.loads(text)["checks"]
                   if c["tol"] > 0)


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import WORKLOADS, presets

    # set-up is probed before the first pass and after every pass: the
    # machine's speed drifts over tens of seconds, and probes spread over the
    # run see more of that drift than probes taken back to back
    setup = [measure_setup(presets(workload), seed)]
    ops = WORKLOADS[workload]
    gate = Gate()
    walls = []
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - started < seconds:
        wall, texts = run_pass(ops, seed)
        walls.append(wall)
        gate.add(texts)
        setup.append(measure_setup(presets(workload), seed))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tolerance_margin": 1.0 - gate.headroom(),
        "checks_passed_frac": 1.0 - gate.failed / gate.attempted,
    }
    samples = {"wall_s": walls, "setup_s": setup}
    return gate, ops, values, samples, END_TO_END


class _Pass:
    """One pass of a traced run (untraced when ``tracer`` is None), built
    up one operation at a time."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.wall = 0.0
        self.texts = []

    def run(self, op: int, spec, seed: int) -> None:
        import tracing

        from weylfluid import harness, report

        run_suite, to_json = harness.run_suite, report.to_json
        scope = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.op = op
            run_suite = self.tracer.wrap("harness.run_suite", run_suite)
            to_json = self.tracer.wrap("report.to_json", to_json)
            scope = tracing.instrument(self.tracer)
        with scope:
            started = time.perf_counter()
            self.texts.append(run_op(spec, seed, run_suite, to_json))
            self.wall += time.perf_counter() - started


def per_layer(workload: str, seed: int, out_path: pathlib.Path):
    import tracing
    from workloads import WORKLOADS

    ops = WORKLOADS[workload]
    # traced, untraced, traced, interleaved operation by operation: the
    # machine's speed drifts over tens of seconds, and interleaving puts the
    # same drift on all three, so the overhead (second traced pass minus the
    # untraced one, both after the cold first run of each operation) is not
    # swamped by it
    first, untraced, second = passes = (
        _Pass(tracing.Tracer()), _Pass(None), _Pass(tracing.Tracer()))
    for op, spec in enumerate(ops):
        for one in passes:
            one.run(op, spec, seed)
    gate = Gate()
    for one in passes:
        gate.add(one.texts)

    a, b = (tracing.layer_metrics(one.tracer.spans) for one in (first, second))
    count_mismatch = sorted(k for k in tracing.EXACT if a[k] != b[k])
    values = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = second.wall - untraced.wall
        elif unit == "s":
            values[name] = statistics.median([a[name], b[name]])
        else:
            values[name] = a[name]
    with open(out_path.with_name(out_path.stem + "-spans.json"), "w") as fh:
        json.dump({"fields": tracing.FIELDS,
                   "passes": [first.tracer.spans, second.tracer.spans]}, fh,
                  separators=(",", ":"))
    samples = {"traced_wall_s": [first.wall, second.wall], "untraced_wall_s": [untraced.wall],
               "count_mismatch": count_mismatch}
    return gate, ops, values, samples, tracing.LAYER_METRICS


def run_one(args) -> int:
    from workloads import PREDICTIONS, WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        gate, ops, values, samples, declared = per_layer(args.workload, args.seed, out_path)
        correct = gate.correct and not samples["count_mismatch"]
    else:
        gate, ops, values, samples, declared = end_to_end(args.workload, args.seed, args.seconds)
        correct = gate.correct
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}

    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "operations": [list(op) for op in ops],
        "predictions": PREDICTIONS,
        "provenance": provenance(args.seed),
        "correct": correct,
        "checks_attempted": gate.attempted,
        "checks_failed": gate.failed,
        "checks_failed_frac": gate.failed / gate.attempted,
        "reports_mismatched": gate.mismatched,
        "residual_headroom": gate.headroom(),
        "samples": samples,
        "metrics": metrics,
        "checks": gate.residuals(ops),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, unit, _ in declared:
        print(f"{args.workload:10s} {name:40s} {values[name]:.6g} {unit}")
    if not args.trace:
        for name in ("residual_headroom", "checks_failed_frac"):
            print(f"{args.workload:10s} {name:40s} {record[name]:.6g} ratio")
        print(f"{args.workload:10s} wall_s is the median of {len(samples['wall_s'])} passes, "
              f"setup_s of {len(samples['setup_s'])} fresh interpreters")
    if not correct:
        print(f"INCORRECT: {gate.failed} of {gate.attempted} checks failed or changed between "
              f"passes; count mismatches: {samples.get('count_mismatch', [])}")
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of the end-to-end
    metrics, with the headroom and failed share they are derived from."""
    from workloads import WORKLOADS

    columns = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
               ("residual_headroom", "ratio"), ("checks_failed_frac", "ratio"))
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        with open(OUT / f"{workload}-seed{args.seed}-trace0.json") as fh:
            record = json.load(fh)
        values = {name: m["value"] for name, m in record["metrics"].items()}
        values.update((k, record[k]) for k in ("residual_headroom", "checks_failed_frac"))
        rows.append((workload, values, record["correct"]))
    print("workload   " + " ".join(f"{name} [{unit}]".rjust(26) for name, unit in columns))
    for workload, values, _ in rows:
        print(f"{workload:10s} " + " ".join(f"{values[name]:26.6g}" for name, _ in columns))
    return 0 if all(correct for _, _, correct in rows) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "weylfluid" / "__init__.py").is_file():
        print(f"no weylfluid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
