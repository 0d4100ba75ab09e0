"""Recorded artifact digests: the CLI's files and stdout must not change by a byte.

Each invocation writes into a fresh directory; the sha256 of every file it
leaves there and of its stdout must match ``reference_artifacts.json``. The
output directory is replaced by a fixed token before hashing, so the digests
do not depend on where the test runs. ``--no-timing`` zeroes the wall-clock
columns, so every byte is deterministic.

A change that alters an artifact on purpose re-records the file with

    PYTHONPATH=src python tests/test_artifacts.py

and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qswarm.cli import main

REFERENCE_FILE = Path(__file__).with_name("reference_artifacts.json")
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
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    assert artifact_digests(name, tmp_path) == reference[name]


if __name__ == "__main__":
    recorded = {}
    for name in INVOCATIONS:
        with tempfile.TemporaryDirectory() as out_dir:
            recorded[name] = artifact_digests(name, Path(out_dir))
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {REFERENCE_FILE}", file=sys.stderr)
