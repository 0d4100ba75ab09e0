"""Correctness checks that feed ``failed`` (and so the fail ratio).

Every check holds under any correct numerics: none compares a value with a
recorded reference, so a declared numerics change needs no edit here.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from qswarm.experiments import RUNS_HEADER
from qswarm.surrogate import FALLBACK_NON_IMPROVING, FALLBACK_NONE
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE


def expected_evaluations(config, record) -> int:
    """One evaluation per particle per iteration, plus one per surrogate probe."""
    base = config.n_particles * config.iterations
    if config.variant == VARIANT_SURROGATE:
        counts = record.fallback_counts
        base += counts[FALLBACK_NONE] + counts[FALLBACK_NON_IMPROVING]
    return base


def check_record(config, objective, record) -> list[str]:
    """Problems with one in-process run; empty when the run is correct."""
    trace = np.asarray(record.best_value_trace, dtype=float)
    problems = []
    if trace.shape != (config.iterations,):
        problems.append(f"trace has shape {trace.shape}")
    elif np.any(np.diff(trace) > 0):
        problems.append("trace increases")
    elif record.final_value != trace[-1]:
        problems.append("final_value differs from trace[-1]")
    if record.final_value != float(objective.evaluate(record.final_position)):
        problems.append("final_value differs from the objective at final_position")
    if not config.bounds.contains(record.final_position):
        problems.append("final_position outside the bounds")
    if record.evaluations != expected_evaluations(config, record):
        problems.append(
            f"evaluations {record.evaluations} != {expected_evaluations(config, record)}"
        )
    return problems


def row_slug(name: str, dimension: int) -> str:
    return f"{name}_{dimension}d"


def read_runs_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(RUNS_HEADER):
            raise ValueError(f"{path.name}: unexpected header {header}")
        return [dict(zip(header, line)) for line in reader]


def check_runs_rows(rows, name, particles, runs, base_seed, iterations) -> int:
    """Failed runs in one ``runs_<row>.csv``; a missing row counts as failed.

    Checks what the CSV carries: order, seeds, the evaluation count (exact
    for the standard variant; the surrogate variant adds at most one probe
    per iteration), a finite final value and zeroed wall times.
    """
    expected = [(v, j) for v in (VARIANT_STANDARD, VARIANT_SURROGATE) for j in range(runs)]
    failed = max(0, len(expected) - len(rows))
    for (variant, j), row in zip(expected, rows):
        try:
            evaluations = int(row["evaluations"])
            floor = particles * iterations
            ok = (
                row["variant"] == variant
                and int(row["run_index"]) == j
                and int(row["seed"]) == base_seed ^ j
                and row["objective"] == name
                and math.isfinite(float(row["final_value"]))
                and float(row["wall_time_s"]) == 0.0
                and (
                    evaluations == floor
                    if variant == VARIANT_STANDARD
                    else floor <= evaluations <= floor + iterations
                )
            )
        except (KeyError, ValueError):
            ok = False
        failed += not ok
    return failed + max(0, len(rows) - len(expected))


def check_comparison(path: Path, finals_by_row: dict) -> set:
    """Row slugs whose comparison.csv line disagrees with its runs CSV.

    The median and mean columns must equal the statistics of the final
    values, computed the way the package defines them (type-7 quantiles).
    """
    bad = set(finals_by_row)
    if not path.exists():
        return bad
    with open(path, newline="", encoding="utf-8") as handle:
        for line in csv.DictReader(handle):
            slug = row_slug(line["objective"], int(line["dimension"]))
            finals = finals_by_row.get(slug)
            if finals is None:
                continue
            std, qs = finals
            try:
                agree = (
                    float(line["median_std"]) == float(np.quantile(std, 0.5))
                    and float(line["median_qs"]) == float(np.quantile(qs, 0.5))
                    and float(line["mean_std"]) == float(np.mean(std))
                    and float(line["mean_qs"]) == float(np.mean(qs))
                )
            except ValueError:
                agree = False
            if agree:
                bad.discard(slug)
    return bad


def check_cli_output(out_dir: Path, rows_spec, runs, base_seed, iterations):
    """Check one ``qswarm benchmark --no-timing`` artifact directory.

    Returns (failed runs, parsed rows per slug). Runs of a row whose
    comparison line is wrong count as failed.
    """
    failed = 0
    parsed = {}
    finals_by_row = {}
    for name, dimension, particles, *_ in rows_spec:
        slug = row_slug(name, dimension)
        path = out_dir / f"runs_{slug}.csv"
        try:
            rows = read_runs_csv(path)
        except (OSError, ValueError):
            failed += 2 * runs
            continue
        bad = check_runs_rows(rows, name, particles, runs, base_seed, iterations)
        failed += bad
        parsed[slug] = rows
        if not bad:
            finals = [float(row["final_value"]) for row in rows]
            finals_by_row[slug] = (finals[:runs], finals[runs:])
    failed += 2 * runs * len(check_comparison(out_dir / "comparison.csv", finals_by_row))
    return failed, parsed


def identical_trees(left: Path, right: Path) -> list[str]:
    """Names of files that differ between two artifact directories."""
    if not (left.is_dir() and right.is_dir()):
        return ["<missing directory>"]
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    differ = []
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            differ.append(name)
    return differ
