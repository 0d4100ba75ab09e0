"""Recorded artifact digests: the CLI's files and stdout must not change by a byte.

Each invocation writes into a fresh directory; the sha256 of every file it
leaves there and of its stdout must match ``reference_artifacts.json``. The
output directory is replaced by a fixed token before hashing, so the digests
do not depend on where the test runs. ``--no-timing`` zeroes the wall-clock
columns, so every byte is deterministic.

Both invocations run the surrogate variant, so the file holds one digest
set per OpenBLAS kernel family, each with its numerics envelope, as
``reference_runs.json`` does, and a mismatch names the first envelope field
that differs.

A change that alters an artifact on purpose re-records the file, once per
family, with

    PYTHONPATH=src python tests/test_artifacts.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_artifacts.py

(the first on a host whose OpenBLAS picks the SkylakeX kernels), which
print every digest that changed, and says so in its change notes.
"""

import contextlib
import hashlib
import io
import runpy
import tempfile
from pathlib import Path

import pytest

from qswarm.cli import main

REFERENCE_FILE = Path(__file__).with_name("reference_artifacts.json")
# The digest check and the re-recording, shared with the run digests.
_RECORDING = runpy.run_path(str(REFERENCE_FILE.with_name("test_reference_runs.py")))
assert_recorded, rewrite = _RECORDING["assert_recorded"], _RECORDING["rewrite"]
OUT_TOKEN = b"<out>"

INVOCATIONS = {
    "benchmark": ["benchmark", "--runs", "2", "--no-timing", "--emit-traces"],
    "run": ["run", "--objective", "ackley", "--runs", "4", "--iterations", "30", "--no-timing"],
}


def artifact_digests(name, out_dir: Path) -> dict[str, str]:
    """Run invocation ``name`` into ``out_dir``; sha256 of stdout and each file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*INVOCATIONS[name], "--out", str(out_dir)])
    assert code == 0

    def digest(data: bytes) -> str:
        return hashlib.sha256(data.replace(str(out_dir).encode(), OUT_TOKEN)).hexdigest()

    digests = {"<stdout>": digest(stdout.getvalue().encode())}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = digest(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    assert_recorded(REFERENCE_FILE, name, artifact_digests(name, tmp_path))


if __name__ == "__main__":
    recorded = {}
    for name in INVOCATIONS:
        with tempfile.TemporaryDirectory() as out_dir:
            recorded[name] = artifact_digests(name, Path(out_dir))
    rewrite(REFERENCE_FILE, recorded)
