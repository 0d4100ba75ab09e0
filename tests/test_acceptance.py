"""Acceptance gates for the whole package.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). The heavyweight benchmark batch (200 seeds per variant on all six
configurations) is executed once and shared across criteria 5 and 6.
"""

import math
import time
from collections import deque

import numpy as np
import pytest

from qswarm.archive import Archive
from qswarm.cli import BENCHMARK_ROWS
from qswarm.cli import main as cli_main
from qswarm.experiments import BatchSpec, run_batch
from qswarm.objectives import Bounds, make_objective
from qswarm.surrogate import (
    QuadraticModel,
    build_design_matrix,
    fit,
    minimize,
    required_points,
)
from qswarm.swarm import (
    VARIANT_STANDARD,
    VARIANT_SURROGATE,
    Swarm,
    SwarmConfig,
    schedule,
)

N_RUNS = 200  # seeds 0..199


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: {criterion}" + (f" [{detail}]" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def benchmark_batches():
    """All six configurations, both variants, 200 runs each."""
    batches = {}
    for name, dim, particles, limit, _, _ in BENCHMARK_ROWS:
        spec = BatchSpec(
            objective=name,
            dimension=dim,
            n_particles=particles,
            n_runs=N_RUNS,
            bounds=Bounds.symmetric(limit, dim),
            iterations=200,
            base_seed=0,
        )
        batches[(name, dim)] = run_batch(spec, timing=False)
    return batches


class TestCriterion1SurrogateExactness:
    def test_fit_and_minimize_recover_random_quadratics(self):
        rng = np.random.default_rng(20240)
        start = time.perf_counter()
        dims = (1, 2, 3, 4)
        count = 0
        worst_coeff = 0.0
        worst_grad = 0.0
        while count < 1000:
            dim = dims[count % 4]
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            eigs = np.exp(rng.uniform(0.0, math.log(9.9e3), size=dim))
            quad = basis @ np.diag(eigs) @ basis.T
            quad = 0.5 * (quad + quad.T)
            truth = QuadraticModel(
                const=float(rng.normal()), linear=rng.normal(size=dim), quad=quad
            )
            pts = rng.uniform(-2.0, 2.0, size=(required_points(dim), dim))
            if np.linalg.cond(build_design_matrix(pts)) >= 1e8:
                continue
            count += 1
            model = fit(pts, [truth(p) for p in pts])
            scale = max(
                abs(truth.const), np.abs(truth.linear).max(), np.abs(truth.quad).max()
            )
            coeff_err = max(
                abs(model.const - truth.const),
                np.abs(model.linear - truth.linear).max(),
                np.abs(model.quad - truth.quad).max(),
            ) / scale
            worst_coeff = max(worst_coeff, coeff_err)
            x_min = minimize(model)
            worst_grad = max(
                worst_grad,
                float(np.linalg.norm(model.linear + 2.0 * model.quad @ x_min)),
                float(
                    np.linalg.norm(truth.linear + 2.0 * truth.quad @ minimize(truth))
                ),
            )
        elapsed = time.perf_counter() - start
        ok = worst_coeff <= 1e-6 and worst_grad < 1e-8 and elapsed < 5.0
        assert report(
            "criterion 1 (surrogate exactness)",
            ok,
            f"worst coeff rel err {worst_coeff:.2e}, worst gradient {worst_grad:.2e}, {elapsed:.2f}s",
        )


class TestCriterion2ArchiveOracle:
    def test_archive_equals_sort_take_oracle(self):
        rng = np.random.default_rng(777)
        start = time.perf_counter()
        capacities = (3, 6, 10)
        values_block = rng.uniform(0.0, 1.0, size=(1000, 1000)).tolist()
        violations = 0
        for stream_index, stream in enumerate(values_block):
            capacity = capacities[stream_index % 3]
            archive = Archive(capacity)
            for i, value in enumerate(stream):
                archive.observe((float(i), float(stream_index)), value)
            if sorted(archive.values()) != sorted(stream)[:capacity]:
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 5.0
        assert report(
            "criterion 2 (archive oracle equivalence)",
            ok,
            f"{violations} violations over 1000 streams, {elapsed:.2f}s",
        )


class TestCriterion3RequiredPoints:
    def test_interpolation_counts(self):
        ok = required_points(2) == 6 and required_points(3) == 10
        assert report(
            "criterion 3 (interpolation point count)",
            ok,
            f"n=2 -> {required_points(2)}, n=3 -> {required_points(3)}",
        )


class TestCriterion4ScheduleSpotValues:
    def test_schedule_endpoints(self):
        config = SwarmConfig(
            dimension=2, n_particles=6, bounds=Bounds.symmetric(10.0, 2), iterations=200
        )
        start = schedule(0, config)
        end = schedule(200, config)
        checks = [
            abs(start.omega - 0.72984),
            abs(start.c1 - 2.8),
            abs(start.c2 - 2.05),
            abs(start.vmax - 2.0 * math.e),
            abs(end.omega - 0.22984),
            abs(end.c1 - 1.8),
            abs(end.c2 - 3.05),
            abs(end.vmax - 2.0),
        ]
        ok = max(checks) <= 1e-12
        assert report(
            "criterion 4 (schedule spot values)", ok, f"max deviation {max(checks):.2e}"
        )


class TestCriterion5DirectionalReproduction:
    @pytest.mark.parametrize("row", BENCHMARK_ROWS, ids=lambda r: f"{r[0]}_{r[1]}d")
    def test_median_gate(self, benchmark_batches, row):
        name, dim, particles, limit, op, ratio = row
        batch = benchmark_batches[(name, dim)]
        median_qs = batch[VARIANT_SURROGATE].summary.q50
        median_std = batch[VARIANT_STANDARD].summary.q50
        bound = ratio * median_std
        ok = median_qs <= bound if op == "le" else median_qs < bound
        sign = "<=" if op == "le" else "<"
        assert report(
            f"criterion 5 ({name} {dim}D median gate)",
            ok,
            f"median(qs)={median_qs:.3e} {sign} {ratio:g}*median(std)={bound:.3e}",
        )


class TestCriterion6MonotoneTraces:
    def test_all_traces_nonincreasing(self, benchmark_batches):
        violations = 0
        traces = 0
        for batch in benchmark_batches.values():
            for variant_result in batch.values():
                for record in variant_result.records:
                    traces += 1
                    if np.any(np.diff(record.best_value_trace) > 0):
                        violations += 1
        ok = violations == 0
        assert report(
            "criterion 6 (monotone best-value traces)",
            ok,
            f"{violations} violations across {traces} traces",
        )


class TestCriterion7ForcedFallbackEquivalence:
    def test_twenty_seeds_bit_identical(self):
        objective = make_objective("sphere", 2)
        mismatches = 0
        for seed in range(20):
            base = dict(
                dimension=2,
                n_particles=5,
                bounds=objective.bounds,
                iterations=100,
                seed=seed,
            )
            standard = Swarm(SwarmConfig(**base, variant=VARIANT_STANDARD), objective)
            forced = Swarm(
                SwarmConfig(**base, variant=VARIANT_SURROGATE, archive_capacity=10**9),
                objective,
            )
            for _ in range(100):
                standard.step()
                forced.step()
                if not (
                    np.array_equal(standard.positions, forced.positions)
                    and np.array_equal(standard.velocities, forced.velocities)
                ):
                    mismatches += 1
                    break
            if standard.trace != forced.trace or standard.evaluations != forced.evaluations:
                mismatches += 1
        ok = mismatches == 0
        assert report(
            "criterion 7 (forced-fallback variant equivalence)",
            ok,
            f"{mismatches} mismatching seeds out of 20",
        )


class TestCriterion8ParallelismDeterminism:
    def test_benchmark_csvs_byte_identical_across_jobs(self, tmp_path):
        outputs = {}
        for jobs in (1, 8):
            out = tmp_path / f"jobs{jobs}"
            code = cli_main(
                [
                    "benchmark",
                    "--runs", "6",
                    "--seed", "0",
                    "--jobs", str(jobs),
                    "--out", str(out),
                    "--no-timing",
                    "--emit-traces",
                ]
            )
            assert code == 0
            outputs[jobs] = out
        names = sorted(p.name for p in outputs[1].iterdir())
        assert names == sorted(p.name for p in outputs[8].iterdir())
        differing = [
            name
            for name in names
            if (outputs[1] / name).read_bytes() != (outputs[8] / name).read_bytes()
        ]
        ok = not differing
        assert report(
            "criterion 8 (parallelism determinism)",
            ok,
            f"{len(names)} artifacts compared" + (f", differing: {differing}" if differing else ""),
        )
