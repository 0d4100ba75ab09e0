"""Batch running, statistics, comparison rows, and CSV artifacts."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest

import qswarm.cli
import qswarm.experiments
from qswarm.experiments import (
    BatchError,
    BatchSpec,
    collect_run_rows,
    compare,
    comparison_table_text,
    log_median,
    relative_difference_pct,
    run_batch,
    shared_pool,
    summarize,
    summarize_records,
    write_comparison_csv,
    write_runs_csv,
    write_trace_csv,
)
from qswarm.objectives import Bounds, Objective, make_objective
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE, run, SwarmConfig


def sort_quantile_oracle(values, q):
    """Independent linear-interpolation quantile on sorted order statistics."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    h = (len(data) - 1) * q
    low = math.floor(h)
    high = math.ceil(h)
    return data[low] + (h - low) * (data[high] - data[low])


class TestSummarize:
    def test_singleton(self):
        assert summarize([5.0]) == (5.0, 5.0, 5.0, 5.0)

    def test_four_values(self):
        mean, q25, q50, q75 = summarize([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        # hand-computed with the linear rank-interpolation convention
        assert q25 == 1.75
        assert q50 == 2.5
        assert q75 == 3.25

    def test_matches_sort_oracle_on_random_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            values = rng.uniform(-100, 100, size=int(rng.integers(1, 60))).tolist()
            mean, q25, q50, q75 = summarize(values)
            assert mean == pytest.approx(sum(values) / len(values), rel=1e-12)
            assert q25 == pytest.approx(sort_quantile_oracle(values, 0.25), rel=1e-12, abs=1e-12)
            assert q50 == pytest.approx(sort_quantile_oracle(values, 0.50), rel=1e-12, abs=1e-12)
            assert q75 == pytest.approx(sort_quantile_oracle(values, 0.75), rel=1e-12, abs=1e-12)
            assert q25 <= q50 <= q75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_log_median(self):
        assert log_median([1.0, 10.0, 100.0]) == pytest.approx(10.0, rel=1e-12)
        assert log_median([0.0, 1.0, 4.0]) == pytest.approx(1.0, rel=1e-12)
        assert log_median([0.0, 0.0, 1.0]) == 0.0
        assert math.isnan(log_median([-1.0, 1.0]))


def constant_series_objective(per_run_evals, values):
    """Stub whose evaluations step through `values`, one per run (jobs=1)."""
    calls = {"count": 0}

    def evaluate(_x):
        index = min(calls["count"] // per_run_evals, len(values) - 1)
        calls["count"] += 1
        return float(values[index])

    return Objective(
        name="stub", dimension=2, bounds=Bounds.symmetric(1.0, 2), evaluate=evaluate
    )


class TestRunBatch:
    def test_singleton_statistics(self):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=4,
            n_runs=1,
            variants=(VARIANT_STANDARD,),
            iterations=10,
            base_seed=3,
        )
        result = run_batch(spec, timing=False)[VARIANT_STANDARD]
        summary = result.summary
        final = result.records[0].final_value
        assert summary.mean == summary.q25 == summary.q50 == summary.q75 == final

    def test_injected_finals_from_stub_objective(self):
        per_run_evals = 2 * 3  # particles x iterations, standard variant
        stub = constant_series_objective(per_run_evals, [1.0, 2.0, 3.0, 4.0])
        spec = BatchSpec(
            objective="stub",
            dimension=2,
            n_particles=2,
            n_runs=4,
            variants=(VARIANT_STANDARD,),
            iterations=3,
            base_seed=0,
        )
        result = run_batch(spec, objective=stub, timing=False)[VARIANT_STANDARD]
        finals = [record.final_value for record in result.records]
        assert finals == [1.0, 2.0, 3.0, 4.0]
        assert result.summary.mean == 2.5
        assert result.summary.q25 == 1.75
        assert result.summary.q75 == 3.25

    def test_seeds_derived_by_xor(self):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=4,
            n_runs=3,
            variants=(VARIANT_SURROGATE,),
            iterations=15,
            base_seed=5,
        )
        objective = make_objective("sphere", 2)
        batch_records = run_batch(spec, timing=False)[VARIANT_SURROGATE].records
        for j, record in enumerate(batch_records):
            config = SwarmConfig(
                dimension=2,
                n_particles=4,
                bounds=objective.bounds,
                iterations=15,
                variant=VARIANT_SURROGATE,
                seed=5 ^ j,
            )
            alone = run(config, objective, timing=False)
            np.testing.assert_array_equal(record.best_value_trace, alone.best_value_trace)
            assert record.evaluations == alone.evaluations

    def test_parallelism_degree_does_not_change_output(self):
        results = {}
        for jobs in (1, 4):
            spec = BatchSpec(
                objective="ackley",
                dimension=2,
                n_particles=6,
                n_runs=8,
                iterations=40,
                base_seed=0,
                jobs=jobs,
            )
            results[jobs] = run_batch(spec, timing=False)
        for variant in (VARIANT_STANDARD, VARIANT_SURROGATE):
            a, b = results[1][variant], results[4][variant]
            assert a.summary.mean == b.summary.mean
            assert (a.summary.q25, a.summary.q50, a.summary.q75) == (
                b.summary.q25,
                b.summary.q50,
                b.summary.q75,
            )
            assert a.summary.mean_wall_time == b.summary.mean_wall_time == 0.0
            np.testing.assert_array_equal(a.summary.mean_trace, b.summary.mean_trace)
            np.testing.assert_array_equal(a.summary.q25_trace, b.summary.q25_trace)
            np.testing.assert_array_equal(a.summary.q75_trace, b.summary.q75_trace)
            for ra, rb in zip(a.records, b.records):
                np.testing.assert_array_equal(ra.best_value_trace, rb.best_value_trace)
                assert ra.evaluations == rb.evaluations

    def test_failing_run_aborts_with_seed(self):
        def explode(_x):
            raise RuntimeError("bad objective")

        stub = Objective(
            name="stub", dimension=2, bounds=Bounds.symmetric(1.0, 2), evaluate=explode
        )
        spec = BatchSpec(
            objective="stub",
            dimension=2,
            n_particles=2,
            n_runs=2,
            variants=(VARIANT_STANDARD,),
            iterations=2,
            base_seed=9,
        )
        with pytest.raises(BatchError, match="seed=9"):
            run_batch(spec, objective=stub, timing=False)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BatchSpec(objective="sphere", dimension=2, n_particles=4, n_runs=0)
        with pytest.raises(ValueError):
            BatchSpec(objective="sphere", dimension=2, n_particles=4, n_runs=1, jobs=0)
        with pytest.raises(ValueError):
            BatchSpec(
                objective="sphere", dimension=2, n_particles=4, n_runs=1, variants=("x",)
            )


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pool sizes asked of a stand-in executor that runs every task in this
    process, so no worker starts; the host reports 4 cores. The stand-in
    class lists the sizes of the pools shut down in ``shut``."""
    sizes = []

    class RecordingExecutor:
        shut = []

        def __init__(self, max_workers=None):
            sizes.append(max_workers)
            self.max_workers = max_workers

        def shutdown(self):
            self.shut.append(self.max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(qswarm.experiments, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sizes


class TestPoolSize:
    @pytest.mark.parametrize(
        "jobs,n_runs,expected",
        [(64, 3, [3]), (64, 6, [4]), (2, 6, [2]), (8, 1, [])],
    )
    def test_no_more_workers_than_runs_or_cores(self, pool_sizes, jobs, n_runs, expected):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=6,
            n_runs=n_runs,
            variants=(VARIANT_STANDARD,),
            iterations=5,
            jobs=jobs,
        )
        pooled = run_batch(spec, timing=False)[VARIANT_STANDARD].records
        assert pool_sizes == expected
        serial = run_batch(dataclasses.replace(spec, jobs=1), timing=False)
        assert pool_sizes == expected
        for a, b in zip(pooled, serial[VARIANT_STANDARD].records, strict=True):
            np.testing.assert_array_equal(a.best_value_trace, b.best_value_trace)

    def test_unknown_core_count_runs_in_process(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        spec = BatchSpec("sphere", 2, 6, 4, variants=(VARIANT_STANDARD,), iterations=5, jobs=4)
        assert len(run_batch(spec, timing=False)[VARIANT_STANDARD].records) == 4
        assert pool_sizes == []

    def test_failure_in_the_pool_names_the_seed(self, pool_sizes):
        def explode(_x):
            raise RuntimeError("bad objective")

        stub = Objective(
            name="stub", dimension=2, bounds=Bounds.symmetric(1.0, 2), evaluate=explode
        )
        spec = BatchSpec(
            "stub", 2, 2, 2, variants=(VARIANT_STANDARD,), iterations=2, base_seed=9, jobs=2
        )
        with pytest.raises(BatchError, match="seed=9"):
            run_batch(spec, objective=stub, timing=False)
        assert pool_sizes == [2]


    def test_a_block_keeps_one_pool_per_size_until_it_exits(self, pool_sizes):
        spec = BatchSpec("sphere", 2, 6, 3, variants=(VARIANT_STANDARD,), iterations=5)
        shut = qswarm.experiments.ProcessPoolExecutor.shut
        with shared_pool():
            for jobs in (2, 8, 2):
                run_batch(dataclasses.replace(spec, jobs=jobs), timing=False)
            with shared_pool():
                run_batch(dataclasses.replace(spec, jobs=2), timing=False)
            run_batch(dataclasses.replace(spec, jobs=8), timing=False)
            assert shut == []
        assert pool_sizes == [2, 3]  # three runs: jobs=8 gets three workers
        assert sorted(shut) == [2, 3]

    def test_a_block_shuts_its_pools_down_on_error(self, pool_sizes):
        spec = BatchSpec("sphere", 2, 6, 3, variants=(VARIANT_STANDARD,), iterations=5, jobs=2)
        with pytest.raises(KeyError), shared_pool():
            run_batch(spec, timing=False)
            raise KeyError("after the batch")
        assert qswarm.experiments.ProcessPoolExecutor.shut == [2]
        run_batch(spec, timing=False)
        assert pool_sizes == [2, 2]

    def test_both_variants_share_one_pool(self, pool_sizes):
        spec = BatchSpec("sphere", 2, 6, 3, iterations=5, jobs=8)
        results = run_batch(spec, timing=False)
        assert pool_sizes == [4]  # six runs, four cores
        assert [len(result.records) for result in results.values()] == [3, 3]

    @pytest.mark.parametrize(
        "jobs,runs,expected", [(2, 2, [2]), (64, 1, [2]), (64, 2, [4]), (1, 2, [])]
    )
    def test_benchmark_invocation_asks_for_one_pool(
        self, pool_sizes, tmp_path, jobs, runs, expected
    ):
        argv = ["benchmark", "--runs", str(runs), "--jobs", str(jobs), "--no-timing"]
        assert qswarm.cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert pool_sizes == expected


# Set at import, so a forked pool worker sees its parent's pid here.
_TEST_PID = os.getpid()


def _exit_in_worker(config, objective, timing=True):
    """Stand-in for ``run`` that kills the pool worker executing it."""
    if os.getpid() == _TEST_PID:
        raise RuntimeError("expected to run in a pool worker")
    os._exit(3)


class TestWorkerDeath:
    """A worker process that dies fails the batch; nothing hangs. Each case
    starts real pools of 2 workers, one at a time."""

    @pytest.fixture(autouse=True)
    def dying_workers(self, monkeypatch):
        monkeypatch.setattr(qswarm.experiments, "run", _exit_in_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_batch_error_names_a_seed(self):
        spec = BatchSpec(
            "sphere", 2, 6, 2, variants=(VARIANT_STANDARD,), iterations=5, base_seed=9, jobs=2
        )
        with pytest.raises(BatchError, match=r"seed=(9|8)\b"):
            run_batch(spec, timing=False)

    def test_a_block_replaces_a_broken_pool(self, monkeypatch):
        spec = BatchSpec("sphere", 2, 6, 2, variants=(VARIANT_STANDARD,), iterations=5, jobs=2)
        with shared_pool():
            with pytest.raises(BatchError, match=r"seed=(0|1)\b"):
                run_batch(spec, timing=False)
            monkeypatch.setattr(qswarm.experiments, "run", qswarm.swarm.run)
            records = run_batch(spec, timing=False)[VARIANT_STANDARD].records
        assert len(records) == 2

    def test_benchmark_exits_1_with_an_error_line(self, tmp_path, capsys):
        argv = ["benchmark", "--runs", "1", "--jobs", "2", "--no-timing", "--out", str(tmp_path)]
        assert qswarm.cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run failed (seed=0, ")


class TestSummaryTraces:
    def test_mean_trace_bounded_by_extremes_and_ends_at_mean(self):
        spec = BatchSpec(
            objective="flower",
            dimension=2,
            n_particles=6,
            n_runs=10,
            variants=(VARIANT_SURROGATE,),
            iterations=30,
            base_seed=1,
        )
        result = run_batch(spec, timing=False)[VARIANT_SURROGATE]
        traces = np.stack([r.best_value_trace for r in result.records])
        summary = result.summary
        assert np.all(summary.mean_trace >= traces.min(axis=0))
        assert np.all(summary.mean_trace <= traces.max(axis=0))
        assert np.all(summary.q25_trace <= summary.q75_trace)
        finals = [r.final_value for r in result.records]
        assert summary.mean_trace[-1] == pytest.approx(np.mean(finals), rel=1e-15)
        assert summary.mean == pytest.approx(np.mean(finals), rel=1e-15)


class TestCompare:
    def test_reference_comparison_rows(self):
        # values reproduce the published comparison's relative differences
        assert relative_difference_pct(1.307e-2, 3.294e-1) == pytest.approx(
            -96.03, abs=0.01
        )
        assert relative_difference_pct(4.565e-4, 5.374e-1) == pytest.approx(
            -99.92, abs=0.01
        )

    def test_equal_means_give_zero(self):
        assert relative_difference_pct(0.5, 0.5) == 0.0

    def test_zero_reference_is_undefined_marker(self):
        assert relative_difference_pct(1.0, 0.0) is None

    def test_compare_builds_row(self):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=6,
            n_runs=4,
            iterations=25,
            base_seed=0,
        )
        results = run_batch(spec, timing=False)
        bounds = Bounds.symmetric(10.0, 2)
        row = compare(
            results[VARIANT_SURROGATE].summary,
            results[VARIANT_STANDARD].summary,
            "sphere",
            2,
            6,
            bounds,
        )
        assert row.objective == "sphere"
        assert row.n_particles == 6
        assert row.mean_qs == results[VARIANT_SURROGATE].summary.mean
        assert row.mean_std == results[VARIANT_STANDARD].summary.mean
        negative = row.rel_diff_pct is not None and row.rel_diff_pct < 0
        assert negative == (row.mean_qs < row.mean_std)
        assert row.iqr_qs.startswith("(") and ")-(" in row.iqr_qs
        text = comparison_table_text([row])
        assert "sphere 2D" in text
        assert "Mean QS" in text


class TestCsvArtifacts:
    def test_runs_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="griewank",
            dimension=2,
            n_particles=5,
            n_runs=3,
            iterations=20,
            base_seed=2,
        )
        results = run_batch(spec, timing=False)
        rows = collect_run_rows(spec, results)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, rows)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 6  # 3 runs x 2 variants
        for row, (j, seed, variant, objective, final, evals, wall) in zip(parsed, rows):
            assert int(row["run_index"]) == j
            assert int(row["seed"]) == seed
            assert row["variant"] == variant
            assert row["objective"] == objective
            assert float(row["final_value"]) == final  # lossless float round-trip
            assert int(row["evaluations"]) == evals
            assert float(row["wall_time_s"]) == wall

    def test_trace_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=5,
            n_runs=2,
            variants=(VARIANT_SURROGATE,),
            iterations=12,
            base_seed=0,
        )
        summary = run_batch(spec, timing=False)[VARIANT_SURROGATE].summary
        path = tmp_path / "trace.csv"
        write_trace_csv(path, summary)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 12
        for k, row in enumerate(parsed):
            assert int(row["iteration"]) == k
            assert float(row["mean"]) == summary.mean_trace[k]
            assert float(row["q25"]) == summary.q25_trace[k]
            assert float(row["q75"]) == summary.q75_trace[k]

    def test_comparison_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="sphere",
            dimension=2,
            n_particles=6,
            n_runs=3,
            iterations=15,
            base_seed=0,
        )
        results = run_batch(spec, timing=False)
        row = compare(
            results[VARIANT_SURROGATE].summary,
            results[VARIANT_STANDARD].summary,
            "sphere",
            2,
            6,
            Bounds.symmetric(10.0, 2),
        )
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, [row])
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 1
        got = parsed[0]
        assert got["objective"] == "sphere"
        assert float(got["mean_qs"]) == row.mean_qs
        assert float(got["mean_std"]) == row.mean_std
        assert float(got["median_qs"]) == row.median_qs
        # timing was disabled: the time relative difference is the marker
        assert got["time_rel_diff_pct"] == "undefined"
