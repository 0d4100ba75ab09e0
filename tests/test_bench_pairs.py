"""The no-regression rule of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(bench_pairs, better, parent, change, bound=0.25):
    pairs = {
        str(j): {"parent": {"failed": 0, "m": p}, "change": {"failed": 0, "m": c}}
        for j, (p, c) in enumerate(zip(parent, change))
    }
    _, _, checks = bench_pairs.summarize(pairs, {"m": better}, {"m": bound})
    return checks["m"]["result"]


def test_within_bound(bench_pairs):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    # 10% slower on a higher-is-better metric is inside a 25% bound
    assert result(bench_pairs, "higher", parent, [90.0, 91.0, 89.0, 90.5, 89.5]) == "within bound"
    assert result(bench_pairs, "lower", parent, [110.0, 111.0, 109.0, 110.5, 109.5]) == "within bound"


def test_worse(bench_pairs):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert result(bench_pairs, "higher", parent, [70.0, 71.0, 69.0, 70.5, 69.5]) == "worse"
    assert result(bench_pairs, "lower", parent, [130.0, 131.0, 129.0, 130.5, 129.5]) == "worse"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound(bench_pairs):
    # quartiles 60 and 140 around a median of 100: a spread of 80%
    parent = [20.0, 60.0, 100.0, 140.0, 180.0]
    change = [95.0, 100.0, 105.0, 98.0, 102.0]
    assert result(bench_pairs, "higher", parent, change) == "unresolved"
    assert result(bench_pairs, "lower", parent, change) == "unresolved"


def test_dominance_resolves_a_wide_spread(bench_pairs):
    parent = [20.0, 60.0, 100.0, 140.0, 180.0]
    assert result(bench_pairs, "higher", parent, [190.0, 200.0, 210.0, 220.0, 230.0]) == "within bound"
    assert result(bench_pairs, "lower", parent, [1.0, 2.0, 3.0, 4.0, 5.0]) == "within bound"
    # one change run that does not beat every parent run leaves it unresolved
    assert result(bench_pairs, "higher", parent, [190.0, 200.0, 210.0, 220.0, 170.0]) == "unresolved"


# A perfbench/run.py stand-in: one result line; at the seed named, exit 1,
# or exit 0 after printing the line given instead of the result.
STUB_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {fail_at}:
    if {bad_line!r} is not None:
        print({bad_line!r})
        sys.exit(0)
    sys.exit("stub failure at seed %d" % seed)
print(json.dumps({{"attempted": 4, "failed": 0, "metrics": {{"runs_per_s": {{"value": seed / 10}}}}}}))
"""


def stub_checkout(root: Path, fail_at: int, bad_line=None) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(fail_at=fail_at, bad_line=bad_line))
    metric = {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
    return root


def test_a_failing_execution_keeps_the_finished_pairs(bench_pairs, tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail_at=-1)
    change = stub_checkout(tmp_path / "change", fail_at=102)
    out = tmp_path / "BENCH_stub.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w"]
    argv += ["--seeds", "101", "102", "103", "--label", "stub", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert list(entry["pairs"]) == ["101"]
    assert entry["pairs"]["101"]["change"]["runs_per_s"] == 10.1
    failure = entry["failure"]
    # The second pair runs the change first, so the parent never ran seed 102.
    assert (failure["side"], failure["seed"], failure["exit_code"]) == ("change", 102, 1)
    assert "stub failure at seed 102" in failure["stderr_tail"]
    assert "stub failure at seed 102" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line",
    [
        "Traceback (most recent call last): not a result",
        '{"attempted": 4, "failed": 0}',
        '{"attempted": 4, "failed": 0, "metrics": {"runs_per_s": 3.5}}',
        "[1, 2]",
    ],
)
def test_a_malformed_result_line_keeps_the_finished_pairs(bench_pairs, tmp_path, capsys, bad_line):
    parent = stub_checkout(tmp_path / "parent", fail_at=102, bad_line=bad_line)
    change = stub_checkout(tmp_path / "change", fail_at=-1)
    out = tmp_path / "BENCH_stub.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w"]
    argv += ["--seeds", "101", "102", "103", "--label", "stub", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert list(entry["pairs"]) == ["101"]
    assert entry["pairs"]["101"]["parent"]["runs_per_s"] == 10.1
    failure = entry["failure"]
    # The change ran seed 102 first; the parent's execution exited 0.
    assert (failure["side"], failure["seed"], failure["exit_code"]) == ("parent", 102, 0)
    assert failure["stderr_tail"].startswith("malformed result line")
    assert bad_line in failure["stderr_tail"]
    assert "malformed result line" in capsys.readouterr().err
