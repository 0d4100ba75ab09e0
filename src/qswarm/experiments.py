"""Seeded multi-run batches, cross-run statistics, and CSV artifacts.

A batch executes ``n_runs`` independent runs per variant of one
:class:`SwarmConfig`, with the seed of run ``j`` derived as
``config.seed XOR j``. Each run owns its state, so runs
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
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import repeat
from typing import Optional

import numpy as np

from .objectives import Objective, make_objective, require_int
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

    Run ``j`` of variant ``v`` is
    ``dataclasses.replace(config, variant=v, seed=config.seed ^ j)``;
    ``config.variant`` is not read. ``config.bounds`` is the box of the
    objective the runs use.
    """

    objective: str
    config: SwarmConfig
    n_runs: int
    variants: tuple[str, ...] = (VARIANT_STANDARD, VARIANT_SURROGATE)
    jobs: int = 1

    def __post_init__(self):
        for name in ("n_runs", "jobs"):
            require_int(name, getattr(self, name), minimum=1)
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        if len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants must not repeat: {self.variants}")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(f"variants: unknown variant {variant!r}")


@dataclass(eq=False)
class BatchResult:
    """The runs of one (objective, variant) batch and their cross-run
    statistics: those of the final values, and per iteration the mean and
    quartiles of the best-value traces."""

    records: list[RunRecord]
    mean: float
    q25: float
    q50: float
    q75: float
    log_median: float
    mean_wall_time: float
    mean_trace: np.ndarray
    q25_trace: np.ndarray
    q75_trace: np.ndarray


def _quantiles(arr: np.ndarray, probs, axis=None) -> np.ndarray:
    """Type-7 quantiles of ``arr`` along ``axis``, also for samples holding
    ``inf`` or ``-inf``. A run records every non-finite value as ``inf``,
    so a run that saw only non-finite values ends at ``inf``, and ``-inf``
    reaches this function only from a caller's own sample.

    numpy's linear method computes ``inf - inf`` or ``inf * 0`` next to an
    infinite order statistic. Where that gives NaN and the sample holds no
    NaN, the type-7 value is the infinite neighbour: the ``lower`` order
    statistic when it is ``-inf``, else the ``higher`` one. That is the
    order statistic itself at an exact rank, and the infinity between a
    finite and an infinite neighbour. Between ``-inf`` and ``inf`` type 7
    is undefined and the value stays NaN. Every other value is numpy's.
    """
    with np.errstate(invalid="ignore"):
        q = np.quantile(arr, probs, axis=axis)
    undefined = np.isnan(q) & ~np.isnan(arr).any(axis=axis)
    if undefined.any():
        lower = np.quantile(arr, probs, axis=axis, method="lower")
        higher = np.quantile(arr, probs, axis=axis, method="higher")
        between = np.where(higher == np.inf, np.nan, lower)
        q = np.where(undefined, np.where(lower == -np.inf, between, higher), q)
    return q


def summarize(values) -> tuple[float, float, float, float]:
    """Mean and (q25, q50, q75) with linear rank interpolation (type 7).

    The mean of a sample holding both ``-inf`` and ``inf`` is NaN, without a
    warning, as is a quantile between the two.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q25, q50, q75 = (float(q) for q in _quantiles(arr, (0.25, 0.50, 0.75)))
    with np.errstate(invalid="ignore"):
        mean = float(arr.mean())
    return mean, q25, q50, q75


def log_median(values) -> float:
    """exp(median(log(values))); nan when any value is negative.

    Zeros are tolerated: they contribute -inf in log space, and the result
    collapses to 0.0 when the median lands on one. A median that falls
    between a zero and an ``inf`` is undefined and gives nan, without a
    warning.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if np.any(arr < 0):
        return float("nan")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.exp(np.median(np.log(arr))))


def summarize_records(records: list[RunRecord]) -> BatchResult:
    """The records with :func:`summarize` of their final values, and the same
    per iteration of their traces; a trace column holding both infinities
    has a NaN mean."""
    finals = [record.final_value for record in records]
    mean, q25, q50, q75 = summarize(finals)
    traces = np.stack([record.best_value_trace for record in records])
    q25_trace, q75_trace = _quantiles(traces, (0.25, 0.75), axis=0)
    with np.errstate(invalid="ignore"):
        mean_trace = traces.mean(axis=0)
    return BatchResult(
        records=records,
        mean=mean,
        q25=q25,
        q50=q50,
        q75=q75,
        log_median=log_median(finals),
        mean_wall_time=float(np.mean([record.wall_time for record in records])),
        mean_trace=mean_trace,
        q25_trace=q25_trace,
        q75_trace=q75_trace,
    )


def _run_one(config, objective, timing):
    # ``run`` is looked up when called, so a replacement installed on this
    # module reaches the runs, in forked workers too.
    return run(config, objective, timing)


# The pools of the open ``shared_pool`` block by worker count; None outside.
_pools: Optional[dict[int, ProcessPoolExecutor]] = None


def _workers(jobs: int, tasks: int) -> int:
    # A pool starts all its workers at once, so it gets no more than there
    # are tasks or cores.
    return min(jobs, tasks, os.cpu_count() or 1)


@contextmanager
def shared_pool():
    """Let the pooled batches inside the block share their process pools.

    A batch that needs more than one worker uses the block's pool of that
    many workers, opening it if no earlier batch did, so batches of one size
    all run on one pool. The pools are shut down when the block exits, also
    on error. A block opened inside another one adds nothing: the outer
    block keeps the pools. Workers fork at the first batch that needs them,
    so they see whatever the parent replaced before it.
    """
    global _pools
    if _pools is not None:
        yield
        return
    _pools = {}
    try:
        yield
    finally:
        pools, _pools = _pools, None
        for pool in pools.values():
            pool.shutdown()


def _execute(configs, objective, timing, jobs):
    # Workers receive (config, objective, timing) pickled, so custom
    # objectives must be picklable then; registry objectives are.
    workers = _workers(jobs, len(configs))
    tasks = (configs, repeat(objective), repeat(timing))
    with shared_pool():
        if workers > 1 and workers not in _pools:
            _pools[workers] = ProcessPoolExecutor(max_workers=workers)
        pool = _pools.get(workers)
        records = []
        try:
            for record in map(_run_one, *tasks) if pool is None else pool.map(_run_one, *tasks):
                records.append(record)
        except Exception as err:
            if isinstance(err, BrokenProcessPool):
                # A worker died and took the pool with it; a later batch of
                # the block opens a new one.
                del _pools[workers]
                pool.shutdown()
            config = configs[len(records)]
            raise BatchError(
                f"run failed (seed={config.seed}, variant={config.variant}): {err}"
            ) from err
    return records


def run_batch(
    spec: BatchSpec, objective: Optional[Objective] = None, timing: bool = True
) -> dict[str, BatchResult]:
    """Run every (variant, seed) combination of the spec.

    ``objective`` overrides the registry lookup, e.g. to inject a stub; its
    box must be ``spec.config.bounds``, or the batch fails. Returns one
    :class:`BatchResult` per variant, keyed by variant name. Pooled runs
    of all variants share one process pool, which an enclosing
    :func:`shared_pool` block keeps open for later batches.
    """
    config = spec.config
    if objective is None:
        objective = make_objective(spec.objective, config.dimension, config.bounds)
    configs = [
        replace(config, variant=variant, seed=config.seed ^ j)
        for variant in spec.variants
        for j in range(spec.n_runs)
    ]
    records = _execute(configs, objective, timing, spec.jobs)
    n = spec.n_runs
    return {variant: summarize_records(records[k * n : (k + 1) * n]) for k, variant in enumerate(spec.variants)}


# -- comparison --------------------------------------------------------------


def _shown(header: str, cell: str):
    # A column of the aligned text table too: its header, and its cell as a
    # format string over the row.
    return field(metadata={"header": header, "cell": cell})


@dataclass(eq=False)
class ComparisonRow:
    """One line of the two-variant comparison table.

    The fields are the columns of ``comparison.csv``, in order. Those made
    with ``_shown`` are also the columns of the aligned text table.
    """

    objective: str = _shown("Function", "{0.objective} {0.dimension}D")
    dimension: int
    particles: int = _shown("Np", "{0.particles}")
    bounds: str = _shown("Bounds", "{0.bounds}")
    mean_qs: float = _shown("Mean QS", "{0.mean_qs:.3e}")
    mean_std: float = _shown("Mean Std", "{0.mean_std:.3e}")
    rel_diff_pct: Optional[float] = _shown("Rel.Diff", "{0.rel_diff_pct:+.2f}%")
    median_qs: float
    median_std: float
    time_qs_s: float = _shown("Time QS [s]", "{0.time_qs_s:.2f}")
    time_std_s: float = _shown("Time Std [s]", "{0.time_std_s:.2f}")
    time_rel_diff_pct: Optional[float] = _shown("Time Rel.Diff", "{0.time_rel_diff_pct:+.2f}%")
    iqr_qs: str = _shown("IQR 25-75 QS", "{0.iqr_qs}")
    iqr_std: str = _shown("IQR 25-75 Std", "{0.iqr_std}")


def relative_difference_pct(value: float, reference: float) -> Optional[float]:
    """(value/reference - 1) as a percent; None when the reference is zero.

    Negative percentages mean ``value`` is the more accurate (smaller) one.
    """
    if reference == 0:
        return None
    return (value / reference - 1.0) * 100.0


def _iqr_text(result: BatchResult) -> str:
    return f"({result.q25:.3e})-({result.q75:.3e})"


def compare(spec: BatchSpec, results: dict[str, BatchResult]) -> ComparisonRow:
    """Build the comparison row of a batch that ran both variants."""
    qs = results[VARIANT_SURROGATE]
    std = results[VARIANT_STANDARD]
    config = spec.config
    return ComparisonRow(
        objective=spec.objective,
        dimension=config.dimension,
        particles=config.n_particles,
        bounds=str(config.bounds.to_pairs()),
        mean_qs=qs.mean,
        mean_std=std.mean,
        rel_diff_pct=relative_difference_pct(qs.mean, std.mean),
        median_qs=qs.q50,
        median_std=std.q50,
        time_qs_s=qs.mean_wall_time,
        time_std_s=std.mean_wall_time,
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

COMPARISON_HEADER = tuple(f.name for f in fields(ComparisonRow))


def _cell(value):
    if value is None:
        return UNDEFINED
    if isinstance(value, float):
        # 17 significant digits round-trips doubles exactly.
        return format(float(value), ".17e")
    return value


def _write_csv(path, header, rows):
    """Write the header and rows; floats as 17-digit text, None as undefined."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def write_runs_csv(path, spec: BatchSpec, results: dict[str, BatchResult]):
    """One row per run, variant-major; run ``j`` has seed ``config.seed ^ j``."""
    rows = (
        (j, spec.config.seed ^ j, variant, spec.objective, r.final_value, r.evaluations, r.wall_time)
        for variant in spec.variants
        for j, r in enumerate(results[variant].records)
    )
    _write_csv(path, RUNS_HEADER, rows)


def write_trace_csv(path, result: BatchResult):
    """Per-iteration mean and interquartile band of the best-value traces."""
    traces = (result.mean_trace, result.q25_trace, result.q75_trace)
    _write_csv(path, ("iteration", "mean", "q25", "q75"), zip(range(result.mean_trace.size), *traces))


def write_comparison_csv(path, rows: list[ComparisonRow]):
    _write_csv(path, COMPARISON_HEADER, map(astuple, rows))


def comparison_table_text(rows: list[ComparisonRow]) -> str:
    """Human-readable aligned comparison table; None reads as undefined."""
    columns = [f for f in fields(ComparisonRow) if f.metadata]
    cells = [[f.metadata["header"] for f in columns]] + [
        [UNDEFINED if getattr(row, f.name) is None else f.metadata["cell"].format(row) for f in columns]
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(map(str.ljust, line, widths)).rstrip() for line in cells]
    lines.insert(1, "-" * max(map(len, lines)))
    return "\n".join(lines) + "\n"
