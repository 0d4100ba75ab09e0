"""Seeded multi-run batches, cross-run statistics, and CSV artifacts.

A batch executes ``n_runs`` independent runs per variant, with the seed of
run ``j`` derived as ``base_seed XOR j``. Each run owns its state, so runs
can execute on any number of worker processes; results are merged by run
index and the batch output is identical for every parallelism degree.

Quantiles use linear interpolation between closest ranks (numpy's default
"linear" method, the common type-7 definition). Because final best values
span many orders of magnitude, a log-domain median is reported alongside
the arithmetic mean. Wall-clock times are recorded but are environment
dependent; pass ``timing=False`` to zero them when artifacts must be
byte-comparable.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .objectives import Bounds, Objective, make_objective
from .swarm import (
    VARIANT_STANDARD,
    VARIANT_SURROGATE,
    VARIANTS,
    RunRecord,
    SwarmConfig,
    run,
)


class BatchError(RuntimeError):
    """A run inside a batch failed; the message names the offending seed."""


@dataclass(eq=False)
class BatchSpec:
    """What to run: one objective, one or two variants, many seeds.

    ``params`` holds optional :class:`SwarmConfig` keyword overrides
    (``omega0``, ``c1_0``, ``c2_0``, ``vmax0``, ``lookback``, ``tau``,
    ``gamma_floor``, ``archive_capacity``).
    ``bounds=None`` selects the registry default box for the objective.
    """

    objective: str
    dimension: int
    n_particles: int
    n_runs: int
    variants: tuple[str, ...] = (VARIANT_STANDARD, VARIANT_SURROGATE)
    bounds: Optional[Bounds] = None
    iterations: int = SwarmConfig.iterations  # the class attribute is the field default
    base_seed: int = 0
    jobs: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.variants:
            raise ValueError("at least one variant is required")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant {variant!r}")


@dataclass(eq=False)
class StatsSummary:
    """Cross-run statistics of one (objective, variant) batch."""

    n_runs: int
    mean: float
    q25: float
    q50: float
    q75: float
    log_median: float
    mean_wall_time: float
    mean_trace: np.ndarray
    q25_trace: np.ndarray
    q75_trace: np.ndarray


@dataclass(eq=False)
class BatchResult:
    records: list[RunRecord]
    summary: StatsSummary


def summarize(values) -> tuple[float, float, float, float]:
    """Mean and (q25, q50, q75) with linear rank interpolation (type 7)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q25, q50, q75 = (float(q) for q in np.quantile(arr, (0.25, 0.50, 0.75)))
    return float(arr.mean()), q25, q50, q75


def log_median(values) -> float:
    """exp(median(log(values))); nan when any value is negative.

    Zeros are tolerated: they contribute -inf in log space, and the result
    collapses to 0.0 when the median lands on one.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if np.any(arr < 0):
        return float("nan")
    with np.errstate(divide="ignore"):
        return float(np.exp(np.median(np.log(arr))))


def summarize_records(records: list[RunRecord]) -> StatsSummary:
    finals = [record.final_value for record in records]
    mean, q25, q50, q75 = summarize(finals)
    traces = np.stack([record.best_value_trace for record in records])
    q25_trace, q75_trace = np.quantile(traces, (0.25, 0.75), axis=0)
    return StatsSummary(
        n_runs=len(records),
        mean=mean,
        q25=q25,
        q50=q50,
        q75=q75,
        log_median=log_median(finals),
        mean_wall_time=float(np.mean([record.wall_time for record in records])),
        mean_trace=traces.mean(axis=0),
        q25_trace=q25_trace,
        q75_trace=q75_trace,
    )


def _run_one(args):
    config, objective, timing = args
    # ``run`` is looked up when called, so a replacement installed on this
    # module reaches the runs, in forked workers too.
    return run(config, objective, timing)


def _execute(configs, objective, timing, jobs):
    # A pool starts all its workers at once, so it gets no more than there
    # are runs or cores. Workers receive (config, objective, timing) pickled,
    # so custom objectives must be picklable then; registry objectives are.
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    tasks = [(config, objective, timing) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = map(_run_one, tasks) if pool is None else pool.map(_run_one, tasks)
        records = []
        for config in configs:
            try:
                records.append(next(results))
            except Exception as err:
                raise BatchError(
                    f"run failed (seed={config.seed}, variant={config.variant}): {err}"
                ) from err
    return records


def run_batch(
    spec: BatchSpec, objective: Optional[Objective] = None, timing: bool = True
) -> dict[str, BatchResult]:
    """Run every (variant, seed) combination of the spec.

    ``objective`` overrides the registry lookup, e.g. to inject a stub.
    Returns one :class:`BatchResult` per variant, keyed by variant name.
    """
    if objective is None:
        objective = make_objective(spec.objective, spec.dimension, spec.bounds)
    if objective.dimension != spec.dimension:
        raise ValueError("objective dimension does not match batch spec")
    results: dict[str, BatchResult] = {}
    for variant in spec.variants:
        configs = [
            SwarmConfig(
                dimension=spec.dimension,
                n_particles=spec.n_particles,
                bounds=objective.bounds,
                iterations=spec.iterations,
                variant=variant,
                seed=spec.base_seed ^ j,
                **spec.params,
            )
            for j in range(spec.n_runs)
        ]
        records = _execute(configs, objective, timing, spec.jobs)
        results[variant] = BatchResult(records=records, summary=summarize_records(records))
    return results


# -- comparison --------------------------------------------------------------


@dataclass(eq=False)
class ComparisonRow:
    """One line of the two-variant comparison table."""

    objective: str
    dimension: int
    n_particles: int
    bounds_text: str
    mean_qs: float
    mean_std: float
    rel_diff_pct: Optional[float]
    median_qs: float
    median_std: float
    time_qs: float
    time_std: float
    time_rel_diff_pct: Optional[float]
    iqr_qs: str
    iqr_std: str


def relative_difference_pct(value: float, reference: float) -> Optional[float]:
    """(value/reference - 1) as a percent; None when the reference is zero.

    Negative percentages mean ``value`` is the more accurate (smaller) one.
    """
    if reference == 0:
        return None
    return (value / reference - 1.0) * 100.0


def _iqr_text(summary: StatsSummary) -> str:
    return f"({summary.q25:.3e})-({summary.q75:.3e})"


def compare(
    qs: StatsSummary,
    std: StatsSummary,
    objective: str,
    dimension: int,
    n_particles: int,
    bounds: Bounds,
) -> ComparisonRow:
    """Build the comparison row for two summaries of an identical spec."""
    return ComparisonRow(
        objective=objective,
        dimension=dimension,
        n_particles=n_particles,
        bounds_text=str(bounds.to_pairs()),
        mean_qs=qs.mean,
        mean_std=std.mean,
        rel_diff_pct=relative_difference_pct(qs.mean, std.mean),
        median_qs=qs.q50,
        median_std=std.q50,
        time_qs=qs.mean_wall_time,
        time_std=std.mean_wall_time,
        time_rel_diff_pct=relative_difference_pct(qs.mean_wall_time, std.mean_wall_time),
        iqr_qs=_iqr_text(qs),
        iqr_std=_iqr_text(std),
    )


# -- CSV artifacts ------------------------------------------------------------

UNDEFINED = "undefined"

RUNS_HEADER = (
    "run_index",
    "seed",
    "variant",
    "objective",
    "final_value",
    "evaluations",
    "wall_time_s",
)

COMPARISON_HEADER = (
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


def _fmt(x: float) -> str:
    # 17 significant digits round-trips doubles exactly.
    return format(float(x), ".17e")


def _fmt_opt(x: Optional[float]) -> str:
    return UNDEFINED if x is None else _fmt(x)


def _open_csv(path):
    return open(path, "w", newline="", encoding="utf-8")


def collect_run_rows(spec: BatchSpec, results: dict[str, BatchResult]) -> list[tuple]:
    """Flatten batch results into runs.csv rows, variant-major."""
    rows = []
    for variant in spec.variants:
        for j, record in enumerate(results[variant].records):
            rows.append(
                (
                    j,
                    spec.base_seed ^ j,
                    variant,
                    spec.objective,
                    record.final_value,
                    record.evaluations,
                    record.wall_time,
                )
            )
    return rows


def write_runs_csv(path, rows):
    with _open_csv(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RUNS_HEADER)
        for run_index, seed, variant, objective, final_value, evaluations, wall in rows:
            writer.writerow(
                (run_index, seed, variant, objective, _fmt(final_value), evaluations, _fmt(wall))
            )


def write_trace_csv(path, summary: StatsSummary):
    """Per-iteration mean and interquartile band of the best-value traces."""
    with _open_csv(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("iteration", "mean", "q25", "q75"))
        for k in range(summary.mean_trace.size):
            writer.writerow(
                (k, _fmt(summary.mean_trace[k]), _fmt(summary.q25_trace[k]), _fmt(summary.q75_trace[k]))
            )


def write_comparison_csv(path, rows: list[ComparisonRow]):
    with _open_csv(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARISON_HEADER)
        for row in rows:
            writer.writerow(
                (
                    row.objective,
                    row.dimension,
                    row.n_particles,
                    row.bounds_text,
                    _fmt(row.mean_qs),
                    _fmt(row.mean_std),
                    _fmt_opt(row.rel_diff_pct),
                    _fmt(row.median_qs),
                    _fmt(row.median_std),
                    _fmt(row.time_qs),
                    _fmt(row.time_std),
                    _fmt_opt(row.time_rel_diff_pct),
                    row.iqr_qs,
                    row.iqr_std,
                )
            )


def comparison_table_text(rows: list[ComparisonRow]) -> str:
    """Human-readable aligned comparison table."""
    header = (
        "Function",
        "Np",
        "Bounds",
        "Mean QS",
        "Mean Std",
        "Rel.Diff",
        "Time QS [s]",
        "Time Std [s]",
        "Time Rel.Diff",
        "IQR 25-75 QS",
        "IQR 25-75 Std",
    )
    cells = [header]
    for row in rows:
        rel = UNDEFINED if row.rel_diff_pct is None else f"{row.rel_diff_pct:+.2f}%"
        trel = (
            UNDEFINED
            if row.time_rel_diff_pct is None
            else f"{row.time_rel_diff_pct:+.2f}%"
        )
        cells.append(
            (
                f"{row.objective} {row.dimension}D",
                str(row.n_particles),
                row.bounds_text,
                f"{row.mean_qs:.3e}",
                f"{row.mean_std:.3e}",
                rel,
                f"{row.time_qs:.2f}",
                f"{row.time_std:.2f}",
                trel,
                row.iqr_qs,
                row.iqr_std,
            )
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    lines = []
    for line in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    lines.insert(1, "-" * max(len(text) for text in lines))
    return "\n".join(lines) + "\n"
