"""The allocator policy set at import: glibc keeps freed blocks below 32 MiB
on the heap, so a repeated frame run reuses its temporaries' pages instead
of faulting them in again, and its report does not change."""

import ctypes
import json
import subprocess
import sys
import textwrap

import pytest

from conftest import _child_env
from weylfluid._allocator import _keep_freed_memory

_CHILD = textwrap.dedent("""
    import json, resource

    from weylfluid.config import SuiteConfig
    from weylfluid.harness import run_suite
    from weylfluid.report import to_json

    def frame_run():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        report = run_suite(SuiteConfig(spacetime="minkowski", fluid="sheared",
                                       suites=("frame",), timing=False))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        return report.passed, to_json(report), faults

    first = frame_run()
    second = frame_run()
    print(json.dumps({"passed": first[0] and second[0], "same": first[1] == second[1],
                      "faults": second[2]}))
""")


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_a_repeated_frame_run_reuses_its_pages():
    env, problem = _child_env()
    if problem:
        pytest.fail(problem, pytrace=False)
    # one BLAS thread, so no thread pool's stacks count among the faults
    env = dict(env, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["passed"]
    assert out["same"]
    # without the policy the second run makes some 4 500 minor faults
    assert out["faults"] < 1000, out


class _NoMallopt:
    """A C library without ``mallopt``, as on macOS."""


def test_no_mallopt_is_a_quiet_no_op():
    assert _keep_freed_memory(_NoMallopt()) is False
