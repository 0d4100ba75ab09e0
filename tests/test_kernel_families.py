"""The digest tests under the kernels of another OpenBLAS family.

OpenBLAS picks its kernels when it loads, and ``OPENBLAS_CORETYPE``
overrides the pick, so a child process can run the digest tests under the
Haswell kernels on any host that can execute them. The variable is set for
that child process only. The child checks the recorded Haswell digests, so
both recorded families are checked on every run of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST_TESTS = ("tests/test_reference_runs.py", "tests/test_artifacts.py")


def pytest_under(core: str, *args: str) -> subprocess.CompletedProcess:
    """pytest on ``args`` in a child process whose OpenBLAS loads the
    kernels of ``core``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def test_haswell_kernels_reproduce_the_haswell_digests():
    child = pytest_under("Haswell", *DIGEST_TESTS)
    assert child.returncode == 0, child.stdout[-4000:]


def test_a_core_outside_the_families_fails_naming_the_core():
    # OpenBLAS reports a forced Prescott as Katmai. The standard-variant
    # digests hold under every kernel; the surrogate's fail on the lookup.
    child = pytest_under("Prescott", DIGEST_TESTS[0], "-k", "sphere_2d")
    assert child.returncode == 1, child.stdout[-4000:]
    assert "2 failed, 1 passed" in child.stdout
    assert "OpenBLAS core 'Katmai' belongs to no recorded kernel family" in child.stdout
