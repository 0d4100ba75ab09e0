"""Batch running, statistics, comparison rows, and CSV artifacts."""

import csv
import dataclasses
import math
import os
import re
import warnings

import numpy as np
import pytest

import qswarm.cli
import qswarm.experiments
from qswarm.experiments import (
    BatchError,
    COMPARISON_HEADER,
    BatchSpec,
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
from qswarm.objectives import Bounds, Objective, default_bounds, make_objective
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE, RunRecord, run, SwarmConfig

# The runs of the short pool batches: sphere 2D, 6 particles, 5 iterations.
SPHERE_2D = SwarmConfig(2, 6, default_bounds("sphere", 2), iterations=5)


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

    def test_runs_ending_at_inf_get_type7_quantiles(self):
        # A run whose every evaluation was non-finite ends at inf. The median
        # is the order statistic 2.0 itself; q75 lies between 2.0 and inf.
        assert summarize([1.0, 2.0, math.inf]) == (math.inf, 1.5, 2.0, math.inf)
        assert summarize([math.inf] * 3) == (math.inf,) * 4

    def test_samples_holding_minus_inf_get_type7_quantiles(self):
        # q25 lies between -inf and 1.0, so it is -inf; the rest are finite.
        inf = math.inf
        assert summarize([-inf, -inf, 1.0, 2.0, 3.0, 4.0]) == (-inf, -inf, 1.5, 2.75)
        assert summarize([-inf] * 3) == (-inf,) * 4

    def test_quantiles_between_minus_inf_and_inf_are_undefined(self):
        # Type 7 between -inf and inf is -inf + inf: it stays NaN, while each
        # exact rank and each infinity next to a finite neighbour is defined.
        inf = math.inf
        quantiles = qswarm.experiments._quantiles
        q = quantiles(np.array([-inf, inf]), (0.0, 0.5, 1.0))
        assert q[0] == -inf and math.isnan(q[1]) and q[2] == inf
        q = quantiles(np.array([-inf, 1.0, inf]), (0.0, 0.25, 0.5, 0.75, 1.0))
        assert q.tolist() == [-inf, -inf, 1.0, inf, inf]

    def test_mean_of_a_sample_holding_both_infinities_is_nan(self):
        inf = math.inf
        mean, q25, q50, q75 = summarize([-inf, inf, 1.0])
        assert math.isnan(mean) and (q25, q50, q75) == (-inf, 1.0, inf)
        assert summarize([-inf, 1.0, 2.0])[0] == -inf
        assert summarize([1.0, 2.0, inf])[0] == inf

    def test_mean_trace_of_a_column_holding_both_infinities_is_nan(self):
        inf = math.inf
        records = [
            RunRecord(
                best_value_trace=np.array(trace),
                final_position=np.zeros(2),
                final_value=trace[-1],
                evaluations=0,
                fallback_counts={},
                nonfinite_iterations=(),
                wall_time=0.0,
            )
            for trace in ([-inf, 1.0], [inf, 2.0], [0.0, 3.0])
        ]
        mean_trace = summarize_records(records).mean_trace
        assert math.isnan(mean_trace[0]) and mean_trace[1] == 2.0

    def test_trace_bands_next_to_either_infinity(self):
        inf = math.inf
        columns = [[-inf, -inf, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, inf, inf]]
        traces = list(zip(*columns))
        records = [
            RunRecord(
                best_value_trace=np.array(trace),
                final_position=np.zeros(2),
                final_value=trace[-1],
                evaluations=0,
                fallback_counts={},
                nonfinite_iterations=(),
                wall_time=0.0,
            )
            for trace in traces
        ]
        summary = summarize_records(records)
        # q25 lies between -inf and 1.0 in the first column; q75 between 4.0
        # and inf in the second.
        assert summary.q25_trace.tolist() == [-inf, 2.25]
        assert summary.q75_trace.tolist() == [2.75, inf]

    def test_log_median(self):
        assert log_median([1.0, 10.0, 100.0]) == pytest.approx(10.0, rel=1e-12)
        assert log_median([0.0, 1.0, 4.0]) == pytest.approx(1.0, rel=1e-12)
        assert log_median([0.0, 0.0, 1.0]) == 0.0
        assert math.isnan(log_median([-1.0, 1.0]))

    def test_log_median_between_zero_and_inf_is_nan_without_a_warning(self):
        # The median of the logs falls between -inf and inf.
        records = [
            RunRecord(
                best_value_trace=np.array(trace),
                final_position=np.zeros(2),
                final_value=trace[-1],
                evaluations=0,
                fallback_counts={},
                nonfinite_iterations=(),
                wall_time=0.0,
            )
            for trace in ([2.0, 0.0], [math.inf, math.inf])
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(log_median([0.0, math.inf]))
            assert math.isnan(summarize_records(records).log_median)


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
            config=SwarmConfig(2, 4, default_bounds("sphere", 2), iterations=10, seed=3),
            n_runs=1,
            variants=(VARIANT_STANDARD,),
        )
        result = run_batch(spec, timing=False)[VARIANT_STANDARD]
        final = result.records[0].final_value
        assert result.mean == result.q25 == result.q50 == result.q75 == final

    def test_injected_finals_from_stub_objective(self):
        per_run_evals = 2 * 3  # particles x iterations, standard variant
        stub = constant_series_objective(per_run_evals, [1.0, 2.0, 3.0, 4.0])
        spec = BatchSpec(
            objective="stub",
            config=SwarmConfig(2, 2, stub.bounds, iterations=3),
            n_runs=4,
            variants=(VARIANT_STANDARD,),
        )
        result = run_batch(spec, objective=stub, timing=False)[VARIANT_STANDARD]
        finals = [record.final_value for record in result.records]
        assert finals == [1.0, 2.0, 3.0, 4.0]
        assert result.mean == 2.5
        assert result.q25 == 1.75
        assert result.q75 == 3.25

    def test_inf_only_objective_summarizes_to_inf(self):
        never_finite = Objective(
            name="never_finite",
            dimension=2,
            bounds=Bounds.symmetric(1.0, 2),
            evaluate=lambda _x: math.nan,
        )
        spec = BatchSpec(
            objective="never_finite",
            config=SwarmConfig(2, 3, never_finite.bounds, iterations=4),
            n_runs=3,
        )
        for result in run_batch(spec, objective=never_finite, timing=False).values():
            assert (result.mean, result.q25, result.q50, result.q75) == (math.inf,) * 4
            for trace in (result.mean_trace, result.q25_trace, result.q75_trace):
                assert np.array_equal(trace, np.full(4, math.inf))

    def test_seeds_derived_by_xor(self):
        spec = BatchSpec(
            objective="sphere",
            config=SwarmConfig(2, 4, default_bounds("sphere", 2), iterations=15, seed=5),
            n_runs=3,
            variants=(VARIANT_SURROGATE,),
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
                config=SwarmConfig(2, 6, default_bounds("ackley", 2), iterations=40),
                n_runs=8,
                jobs=jobs,
            )
            results[jobs] = run_batch(spec, timing=False)
        for variant in (VARIANT_STANDARD, VARIANT_SURROGATE):
            a, b = results[1][variant], results[4][variant]
            assert a.mean == b.mean
            assert (a.q25, a.q50, a.q75) == (b.q25, b.q50, b.q75)
            assert a.mean_wall_time == b.mean_wall_time == 0.0
            np.testing.assert_array_equal(a.mean_trace, b.mean_trace)
            np.testing.assert_array_equal(a.q25_trace, b.q25_trace)
            np.testing.assert_array_equal(a.q75_trace, b.q75_trace)
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
            config=SwarmConfig(2, 2, stub.bounds, iterations=2, seed=9),
            n_runs=2,
            variants=(VARIANT_STANDARD,),
        )
        with pytest.raises(BatchError, match="seed=9"):
            run_batch(spec, objective=stub, timing=False)

    def test_spec_validation(self):
        config = SwarmConfig(2, 4, default_bounds("sphere", 2))
        with pytest.raises(ValueError):
            BatchSpec(objective="sphere", config=config, n_runs=0)
        with pytest.raises(ValueError):
            BatchSpec(objective="sphere", config=config, n_runs=1, jobs=0)
        with pytest.raises(ValueError):
            BatchSpec(objective="sphere", config=config, n_runs=1, variants=("x",))
        # Results are keyed by variant, so a repeated one would lose a batch.
        with pytest.raises(ValueError, match="^variants"):
            BatchSpec("sphere", config, n_runs=2, variants=(VARIANT_STANDARD, VARIANT_STANDARD))
        # The spec holds the config of its runs, so a spec that no run would
        # accept cannot be built.
        for name in ("n_particles", "iterations", "lookback"):
            with pytest.raises(ValueError, match=f"^{name}"):
                BatchSpec("sphere", dataclasses.replace(config, **{name: 0}), n_runs=1)
        for value in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="^n_runs must be an int"):
                BatchSpec("sphere", config, n_runs=value)
            with pytest.raises(ValueError, match="^jobs must be an int"):
                BatchSpec("sphere", config, n_runs=1, jobs=value)
        assert BatchSpec("sphere", config, n_runs=np.int64(2), jobs=np.int32(1)).n_runs == 2


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
            config=SPHERE_2D,
            n_runs=n_runs,
            variants=(VARIANT_STANDARD,),
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
        spec = BatchSpec("sphere", SPHERE_2D, 4, variants=(VARIANT_STANDARD,), jobs=4)
        assert len(run_batch(spec, timing=False)[VARIANT_STANDARD].records) == 4
        assert pool_sizes == []

    def test_failure_in_the_pool_names_the_seed(self, pool_sizes):
        def explode(_x):
            raise RuntimeError("bad objective")

        stub = Objective(
            name="stub", dimension=2, bounds=Bounds.symmetric(1.0, 2), evaluate=explode
        )
        spec = BatchSpec(
            "stub", SwarmConfig(2, 2, stub.bounds, iterations=2, seed=9), 2, variants=(VARIANT_STANDARD,), jobs=2
        )
        with pytest.raises(BatchError, match="seed=9"):
            run_batch(spec, objective=stub, timing=False)
        assert pool_sizes == [2]


    def test_a_block_keeps_one_pool_per_size_until_it_exits(self, pool_sizes):
        spec = BatchSpec("sphere", SPHERE_2D, 3, variants=(VARIANT_STANDARD,))
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
        spec = BatchSpec("sphere", SPHERE_2D, 3, variants=(VARIANT_STANDARD,), jobs=2)
        with pytest.raises(KeyError), shared_pool():
            run_batch(spec, timing=False)
            raise KeyError("after the batch")
        assert qswarm.experiments.ProcessPoolExecutor.shut == [2]
        run_batch(spec, timing=False)
        assert pool_sizes == [2, 2]

    def test_both_variants_share_one_pool(self, pool_sizes):
        spec = BatchSpec("sphere", SPHERE_2D, 3, jobs=8)
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
            "sphere", dataclasses.replace(SPHERE_2D, seed=9), 2, variants=(VARIANT_STANDARD,), jobs=2
        )
        with pytest.raises(BatchError, match=r"seed=(9|8)\b"):
            run_batch(spec, timing=False)

    def test_a_block_replaces_a_broken_pool(self, monkeypatch):
        spec = BatchSpec("sphere", SPHERE_2D, 2, variants=(VARIANT_STANDARD,), jobs=2)
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
            config=SwarmConfig(2, 6, default_bounds("flower", 2), iterations=30, seed=1),
            n_runs=10,
            variants=(VARIANT_SURROGATE,),
        )
        result = run_batch(spec, timing=False)[VARIANT_SURROGATE]
        traces = np.stack([r.best_value_trace for r in result.records])
        assert np.all(result.mean_trace >= traces.min(axis=0))
        assert np.all(result.mean_trace <= traces.max(axis=0))
        assert np.all(result.q25_trace <= result.q75_trace)
        finals = [r.final_value for r in result.records]
        assert result.mean_trace[-1] == pytest.approx(np.mean(finals), rel=1e-15)
        assert result.mean == pytest.approx(np.mean(finals), rel=1e-15)


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
            config=SwarmConfig(2, 6, default_bounds("sphere", 2), iterations=25),
            n_runs=4,
        )
        results = run_batch(spec, timing=False)
        row = compare(spec, results)
        assert row.objective == "sphere"
        assert row.dimension == 2
        assert row.particles == 6
        assert row.bounds == "[[-10.0, 10.0], [-10.0, 10.0]]"
        assert row.mean_qs == results[VARIANT_SURROGATE].mean
        assert row.mean_std == results[VARIANT_STANDARD].mean
        negative = row.rel_diff_pct is not None and row.rel_diff_pct < 0
        assert negative == (row.mean_qs < row.mean_std)
        assert row.iqr_qs.startswith("(") and ")-(" in row.iqr_qs
        text = comparison_table_text([row])
        assert "sphere 2D" in text
        assert "Mean QS" in text

        # The row of an injected objective shows the box the runs used. The
        # registry knows no "stub", and its sphere box is +-10.
        box = Bounds.symmetric(1.0, 2)
        for name in ("stub", "sphere"):
            stub = Objective(name=name, dimension=2, bounds=box, evaluate=lambda x: float(x @ x))
            spec = BatchSpec(name, SwarmConfig(2, 6, box, iterations=5), n_runs=2)
            row = compare(spec, run_batch(spec, objective=stub, timing=False))
            assert (row.objective, row.bounds) == (name, "[[-1.0, 1.0], [-1.0, 1.0]]")
        # An objective on another box than the runs' is refused.
        spec.config = dataclasses.replace(spec.config, bounds=Bounds.symmetric(2.0, 2))
        with pytest.raises(BatchError, match="bounds differ"):
            run_batch(spec, objective=stub, timing=False)

    def test_text_table_columns_are_the_shown_row_fields(self):
        row = qswarm.experiments.ComparisonRow(
            "sphere", 2, 6, "[[-1.0, 1.0]]", 1.5, 2.5, None, 1.0, 2.0, 0.0, 0.0, None, "(a)", "(b)"
        )
        header, rule, line = comparison_table_text([row]).splitlines()
        shown = [f for f in dataclasses.fields(row) if f.metadata]
        assert re.split(r"\s{2,}", header) == [f.metadata["header"] for f in shown]
        assert set(rule) == {"-"} and len(rule) == len(header)
        # A None value reads as undefined, as it does in the CSV.
        assert re.split(r"\s{2,}", line) == [
            "sphere 2D", "6", "[[-1.0, 1.0]]", "1.500e+00", "2.500e+00", "undefined",
            "0.00", "0.00", "undefined", "(a)", "(b)",
        ]
        # The dimension shows in the Function cell; the medians are CSV-only.
        hidden = {f.name for f in dataclasses.fields(row)} - {f.name for f in shown}
        assert hidden == {"dimension", "median_qs", "median_std"}


class TestCsvArtifacts:
    def test_runs_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="griewank",
            config=SwarmConfig(2, 5, default_bounds("griewank", 2), iterations=20, seed=2),
            n_runs=3,
        )
        results = run_batch(spec, timing=False)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, spec, results)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        expected = [
            (j, variant, record)
            for variant in spec.variants
            for j, record in enumerate(results[variant].records)
        ]
        assert len(parsed) == len(expected) == 6  # 3 runs x 2 variants, variant-major
        for row, (j, variant, record) in zip(parsed, expected):
            assert int(row["run_index"]) == j
            assert int(row["seed"]) == spec.config.seed ^ j
            assert row["variant"] == variant
            assert row["objective"] == "griewank"
            assert float(row["final_value"]) == record.final_value  # lossless float round-trip
            assert int(row["evaluations"]) == record.evaluations
            assert float(row["wall_time_s"]) == record.wall_time

    def test_trace_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="sphere",
            config=SwarmConfig(2, 5, default_bounds("sphere", 2), iterations=12),
            n_runs=2,
            variants=(VARIANT_SURROGATE,),
        )
        result = run_batch(spec, timing=False)[VARIANT_SURROGATE]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 12
        for k, row in enumerate(parsed):
            assert int(row["iteration"]) == k
            assert float(row["mean"]) == result.mean_trace[k]
            assert float(row["q25"]) == result.q25_trace[k]
            assert float(row["q75"]) == result.q75_trace[k]

    def test_comparison_csv_round_trip(self, tmp_path):
        spec = BatchSpec(
            objective="sphere",
            config=SwarmConfig(2, 6, Bounds.from_pairs([[-1.0, 2.0], [0.0, 5.0]]), iterations=15),
            n_runs=3,
        )
        results = run_batch(spec, timing=False)
        row = compare(spec, results)
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, [row])
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            parsed = list(reader)
        assert tuple(reader.fieldnames) == COMPARISON_HEADER
        assert len(parsed) == 1
        got = parsed[0]
        assert got["objective"] == "sphere"
        assert got["dimension"] == "2"
        assert got["particles"] == "6"
        assert got["bounds"] == "[[-1.0, 2.0], [0.0, 5.0]]"
        assert float(got["mean_qs"]) == row.mean_qs
        assert float(got["mean_std"]) == row.mean_std
        assert float(got["median_qs"]) == row.median_qs
        # timing was disabled: the time relative difference is the marker
        assert got["time_rel_diff_pct"] == "undefined"

    def test_comparison_columns_are_pinned(self):
        # The benchmark harness and downstream readers address the columns
        # by these names; they are the ComparisonRow fields, in order.
        assert COMPARISON_HEADER == (
            "objective",
            "dimension",
            "particles",
            "bounds",
            "mean_qs",
            "mean_std",
            "rel_diff_pct",
            "median_qs",
            "median_std",
            "time_qs_s",
            "time_std_s",
            "time_rel_diff_pct",
            "iqr_qs",
            "iqr_std",
        )
