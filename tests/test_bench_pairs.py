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
        str(j): {"parent": {"attempted": 10, "failed": 0, "m": p}, "change": {"attempted": 10, "failed": 0, "m": c}}
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


def test_a_larger_failed_share_is_worse_at_equal_failed_counts(bench_pairs):
    # A faster change attempts more runs in the same time; one failed run
    # in 10 is a larger share than one in 20.
    pairs = {
        str(j): {
            "parent": {"attempted": 20, "failed": 1, "m": 100.0 + j},
            "change": {"attempted": 10, "failed": 1, "m": 200.0 + j},
        }
        for j in range(10)
    }
    summary, wins, checks = bench_pairs.summarize(pairs, {"m": "higher"}, {"m": 0.25})
    assert checks["failed_share"] == {"parent": 0.05, "change": 0.1, "result": "worse"}
    assert checks["m"]["result"] == "within bound"
    text = bench_pairs.verdict("m", "higher", summary["m"], wins["m"], pairs)
    assert text.endswith("failed share 5.00% -> 10.00%: FAIL")
    for pair in pairs.values():
        pair["change"]["attempted"] = 40
    _, _, checks = bench_pairs.summarize(pairs, {"m": "higher"}, {"m": 0.25})
    assert checks["failed_share"] == {"parent": 0.05, "change": 0.025, "result": "within bound"}
    assert bench_pairs.verdict("m", "higher", summary["m"], wins["m"], pairs).endswith(": PASS")



def claim(bench_pairs, better, parent, change, change_failed=0):
    """The ``--claim`` verdict line for one metric ``m`` over the given
    per-pair values, with ten attempted runs per side and pair."""
    pairs = {
        str(j): {
            "parent": {"attempted": 10, "failed": 0, "m": p},
            "change": {"attempted": 10, "failed": change_failed if j == 0 else 0, "m": c},
        }
        for j, (p, c) in enumerate(zip(parent, change))
    }
    summary, wins, _ = bench_pairs.summarize(pairs, {"m": better}, {"m": 0.25})
    return bench_pairs.verdict("m", better, summary["m"], wins["m"], pairs)


# Parent values 100..109: median 104.5, quartiles 102.25 and 106.75, so a
# quartile spread of 4.5.
CLAIM_PARENT = [100.0 + j for j in range(10)]


def test_claim_passes_at_nine_of_ten_wins_beyond_the_spread(bench_pairs):
    change = [p + 10.0 for p in CLAIM_PARENT[:9]] + [CLAIM_PARENT[9] - 1.0]
    text = claim(bench_pairs, "higher", CLAIM_PARENT, change)
    assert "better in 9 of 10 pairs; median difference 9 against the parent's quartile spread 4.5" in text
    assert text.endswith(": PASS")


def test_claim_fails_at_eight_of_ten_wins(bench_pairs):
    change = [p + 10.0 for p in CLAIM_PARENT[:8]] + [p - 1.0 for p in CLAIM_PARENT[8:]]
    text = claim(bench_pairs, "higher", CLAIM_PARENT, change)
    # the medians still differ by 8, well beyond the spread
    assert "better in 8 of 10 pairs; median difference 8 against" in text
    assert text.endswith(": FAIL")


def test_claim_fails_when_the_gain_is_within_the_spread(bench_pairs):
    text = claim(bench_pairs, "higher", CLAIM_PARENT, [p + 4.0 for p in CLAIM_PARENT])
    assert "better in 10 of 10 pairs; median difference 4 against the parent's quartile spread 4.5" in text
    assert text.endswith(": FAIL")


def test_claim_fails_when_the_change_fails_a_larger_share(bench_pairs):
    change = [p + 10.0 for p in CLAIM_PARENT]
    assert claim(bench_pairs, "higher", CLAIM_PARENT, change).endswith("failed share 0.00% -> 0.00%: PASS")
    # one failed run in the change's 100 attempted
    assert claim(bench_pairs, "higher", CLAIM_PARENT, change, change_failed=1).endswith(
        "failed share 0.00% -> 1.00%: FAIL"
    )


def test_claim_on_a_lower_is_better_metric_counts_a_drop_as_the_gain(bench_pairs):
    # run_ms_p50-like values: the change is 1 ms faster in nine pairs
    parent = [10.0 + 0.1 * j for j in range(10)]
    change = [p - 1.0 for p in parent[:9]] + [parent[9] + 0.1]
    text = claim(bench_pairs, "lower", parent, change)
    assert text.startswith("m 10.45 -> 9.45 (+9.6%), better in 9 of 10 pairs")
    assert text.endswith(": PASS")
    # read as higher-is-better, the same pairs are a loss in nine of ten
    text = claim(bench_pairs, "higher", parent, change)
    assert "(-9.6%), better in 1 of 10 pairs; median difference -1 against" in text
    assert text.endswith(": FAIL")

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


def test_a_repeated_seed_is_refused_before_any_execution(bench_pairs, tmp_path, capsys):
    # Pairs are keyed by seed, so a repeated one would silently drop a pair.
    parent = stub_checkout(tmp_path / "parent", fail_at=-1)
    change = stub_checkout(tmp_path / "change", fail_at=-1)
    out = tmp_path / "BENCH_stub.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w"]
    argv += ["--seeds", "101", "101", "102", "--label", "stub", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "--seeds repeats 101" in capsys.readouterr().err
    assert not out.exists()


def test_nproc_is_the_affinity_mask_where_there_is_one(bench_pairs, monkeypatch):
    # Under ``taskset -c 0`` the host still reports all its cores.
    monkeypatch.setattr(bench_pairs.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert bench_pairs.machine()["nproc"] == 1
    monkeypatch.delattr(bench_pairs.os, "sched_getaffinity")
    assert bench_pairs.machine()["nproc"] == 4


def test_both_checkouts_are_compiled_before_the_first_pair(bench_pairs, tmp_path):
    checkouts = []
    for side in ("parent", "change"):
        checkout = stub_checkout(tmp_path / side, fail_at=-1)
        (checkout / "src" / "pkg").mkdir(parents=True)
        (checkout / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
        checkouts.append(checkout)
    out = tmp_path / "BENCH_stub.json"
    argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "w"]
    argv += ["--seeds", "101", "--label", "stub", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    for checkout in checkouts:
        assert len(list((checkout / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))) == 1
