"""Recorded run digests: the engine's output must not change by a single bit.

Each digest is a sha256 over everything a run reports that is deterministic:
the best-value trace, the final position, the final value, the evaluation
count and the fallback counts. Both variants run on every benchmark row for
seeds 0-4 and must reproduce the digests in ``reference_runs.json``.

The option cases cover the engine branches the benchmark rows leave
untouched: per-dimension draws, the compound safeguard, a short lookback
and an objective that returns NaN or inf on part of the box. Their digests
also hash ``nonfinite_iterations``.

A change that alters numerics on purpose re-records the file with

    PYTHONPATH=src python tests/test_reference_runs.py

and says so in its change notes.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from qswarm.cli import BENCHMARK_ROWS
from qswarm.objectives import Bounds, Objective, make_objective
from qswarm.swarm import VARIANTS, SwarmConfig, run

REFERENCE_FILE = Path(__file__).with_name("reference_runs.json")
SEEDS = range(5)
OPTION_SEEDS = range(3)


def run_digest(record) -> str:
    h = hashlib.sha256()
    h.update(record.best_value_trace.tobytes())
    h.update(record.final_position.tobytes())
    h.update(repr(record.final_value).encode())
    h.update(repr(record.evaluations).encode())
    h.update(repr(sorted(record.fallback_counts.items())).encode())
    return h.hexdigest()


def option_digest(record) -> str:
    h = hashlib.sha256(run_digest(record).encode())
    h.update(repr(record.nonfinite_iterations).encode())
    return h.hexdigest()


def holed_sphere(x) -> float:
    """Sphere that is NaN for x0 > 6, -inf for x0 < -8 and +inf for x1 < -7."""
    if x[0] > 6.0:
        return math.nan
    if x[0] < -8.0:
        return -math.inf
    if x[1] < -7.0:
        return math.inf
    return float(x[0] * x[0] + x[1] * x[1])


# case -> (objective, dimension, particles, box limit, SwarmConfig overrides)
OPTION_CASES = {
    "per_dimension_draws": ("sphere", 3, 10, 10.0, {"per_dimension_draws": True}),
    "compound_safeguard": ("flower", 2, 6, 100.0, {"compound_safeguard": True}),
    "lookback_3": ("griewank", 2, 6, 600.0, {"lookback": 3}),
    "nonfinite": ("holed", 2, 6, 10.0, {}),
}


def option_digests(variant, case) -> dict[str, str]:
    name, dimension, particles, limit, overrides = OPTION_CASES[case]
    bounds = Bounds.symmetric(limit, dimension)
    if name == "holed":
        objective = Objective("holed", dimension, bounds, evaluate=holed_sphere)
    else:
        objective = make_objective(name, dimension, bounds)
    digests = {}
    for seed in OPTION_SEEDS:
        config = SwarmConfig(
            dimension=dimension,
            n_particles=particles,
            bounds=bounds,
            iterations=200,
            variant=variant,
            seed=seed,
            **overrides,
        )
        digests[str(seed)] = option_digest(run(config, objective, timing=False))
    return digests


def row_digests(variant, name, dimension, particles, limit) -> dict[str, str]:
    bounds = Bounds.symmetric(limit, dimension)
    objective = make_objective(name, dimension, bounds)
    digests = {}
    for seed in SEEDS:
        config = SwarmConfig(
            dimension=dimension,
            n_particles=particles,
            bounds=bounds,
            iterations=200,
            variant=variant,
            seed=seed,
        )
        digests[str(seed)] = run_digest(run(config, objective, timing=False))
    return digests


def row_key(variant, name, dimension) -> str:
    return f"{variant}/{name}_{dimension}d"


CASES = [
    pytest.param(variant, row[:4], id=row_key(variant, row[0], row[1]))
    for variant in VARIANTS
    for row in BENCHMARK_ROWS
]


@pytest.mark.parametrize("variant,row", CASES)
def test_runs_match_recorded_digests(variant, row):
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    name, dimension, _, _ = row
    assert row_digests(variant, *row) == reference[row_key(variant, name, dimension)]


def option_key(variant, case) -> str:
    return f"{variant}/option:{case}"


@pytest.mark.parametrize(
    "variant,case",
    [
        pytest.param(variant, case, id=option_key(variant, case))
        for variant in VARIANTS
        for case in OPTION_CASES
    ],
)
def test_option_runs_match_recorded_digests(variant, case):
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    assert option_digests(variant, case) == reference[option_key(variant, case)]


def test_nonfinite_case_hits_every_hole():
    # The NaN, -inf and +inf regions must all be sampled, or the case
    # would pin nothing about the non-finite path.
    bounds = Bounds.symmetric(10.0, 2)
    seen = set()

    def recording(x):
        value = holed_sphere(x)
        if not math.isfinite(value):
            seen.add(repr(value))
        return value

    objective = Objective(name="holed", dimension=2, bounds=bounds, evaluate=recording)
    for seed in OPTION_SEEDS:
        config = SwarmConfig(dimension=2, n_particles=6, bounds=bounds, seed=seed)
        run(config, objective, timing=False)
    assert seen == {"nan", "-inf", "inf"}


if __name__ == "__main__":
    recorded = {
        row_key(variant, row[0], row[1]): row_digests(variant, *row[:4])
        for variant in VARIANTS
        for row in BENCHMARK_ROWS
    }
    recorded.update(
        (option_key(variant, case), option_digests(variant, case))
        for variant in VARIANTS
        for case in OPTION_CASES
    )
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} rows to {REFERENCE_FILE}")
