"""Recorded run digests: the engine's output must not change by a single bit.

Each run is pinned by two sha256 digests, so a change to what a run counts
cannot hide whether its path moved:

* ``trajectory``: the best-value trace, the final position, the final value
  and ``nonfinite_iterations`` (empty on the benchmark rows);
* ``counts``: the evaluation count and the sorted fallback counts.

Both variants run on every benchmark row for seeds 0-4 and must reproduce
the digests in ``reference_runs.json``.

The option cases cover the engine branches the benchmark rows leave
untouched: per-dimension draws, a short lookback and an objective that
returns NaN or inf on part of the box.

The kernel digests in ``reference_kernel.json`` pin what the run digests
only see through its effect on the swarm: the full output of every
surrogate fit (``const``, ``linear`` and ``quad`` bytes, or the singular
system) and of every minimize (the stationary point, or the singular
quadratic), for the surrogate variant on every benchmark row and every
option case, seeds 0-1.

A change that alters numerics or counts on purpose re-records both files
with

    PYTHONPATH=src python tests/test_reference_runs.py

which prints every digest that changed, and says so in its change notes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qswarm import surrogate
from qswarm.cli import BENCHMARK_ROWS
from qswarm.objectives import Bounds, Objective, make_objective
from qswarm.swarm import VARIANT_SURROGATE, VARIANTS, SwarmConfig, run

REFERENCE_FILE = Path(__file__).with_name("reference_runs.json")
KERNEL_FILE = Path(__file__).with_name("reference_kernel.json")
SEEDS = range(5)
OPTION_SEEDS = range(3)
KERNEL_SEEDS = range(2)


def run_digests(record) -> dict[str, str]:
    trajectory = hashlib.sha256()
    trajectory.update(record.best_value_trace.tobytes())
    trajectory.update(record.final_position.tobytes())
    trajectory.update(repr(record.final_value).encode())
    trajectory.update(repr(record.nonfinite_iterations).encode())
    counts = hashlib.sha256()
    counts.update(repr(record.evaluations).encode())
    counts.update(repr(sorted(record.fallback_counts.items())).encode())
    return {"trajectory": trajectory.hexdigest(), "counts": counts.hexdigest()}


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
    "lookback_3": ("griewank", 2, 6, 600.0, {"lookback": 3}),
    "nonfinite": ("holed", 2, 6, 10.0, {}),
}


def option_objective(case) -> Objective:
    name, dimension, _, limit, _ = OPTION_CASES[case]
    bounds = Bounds.symmetric(limit, dimension)
    if name == "holed":
        return Objective("holed", dimension, bounds, evaluate=holed_sphere)
    return make_objective(name, dimension, bounds)


def option_digests(variant, case) -> dict[str, dict[str, str]]:
    _, dimension, particles, _, overrides = OPTION_CASES[case]
    objective = option_objective(case)
    bounds = objective.bounds
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
        digests[str(seed)] = run_digests(run(config, objective, timing=False))
    return digests


def row_digests(variant, name, dimension, particles, limit) -> dict[str, dict[str, str]]:
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
        digests[str(seed)] = run_digests(run(config, objective, timing=False))
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


def test_reference_file_holds_exactly_the_cases_run_here():
    # A deleted case must take its digests along; a case without digests
    # fails here, without running the engine.
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    keys = {row_key(variant, row[0], row[1]) for variant in VARIANTS for row in BENCHMARK_ROWS}
    keys |= {option_key(variant, case) for variant in VARIANTS for case in OPTION_CASES}
    assert set(reference) == keys


def kernel_digests(objective, particles, overrides=None) -> dict[str, str]:
    """Per seed, a sha256 over the output of every ``fit`` and ``minimize``
    call of a surrogate run, in call order, plus the number of fits.

    Both names are replaced where ``surrogate._proposal`` looks them up,
    the module globals, as the benchmark's tracer does.
    """
    real_fit, real_minimize = surrogate.fit, surrogate.minimize
    digests = {}
    for seed in KERNEL_SEEDS:
        h = hashlib.sha256()
        fits = 0

        def recording_fit(points, values):
            nonlocal fits
            fits += 1
            try:
                model = real_fit(points, values)
            except surrogate.SingularMatrixError:
                h.update(surrogate.FALLBACK_SINGULAR_SYSTEM.encode())
                raise
            h.update(np.float64(model.const).tobytes())
            h.update(model.linear.tobytes())
            h.update(model.quad.tobytes())
            return model

        def recording_minimize(model):
            try:
                x = real_minimize(model)
            except surrogate.SingularMatrixError:
                h.update(surrogate.FALLBACK_SINGULAR_QUADRATIC.encode())
                raise
            h.update(x.tobytes())
            return x

        config = SwarmConfig(
            dimension=objective.dimension,
            n_particles=particles,
            bounds=objective.bounds,
            iterations=200,
            variant=VARIANT_SURROGATE,
            seed=seed,
            **(overrides or {}),
        )
        surrogate.fit, surrogate.minimize = recording_fit, recording_minimize
        try:
            run(config, objective, timing=False)
        finally:
            surrogate.fit, surrogate.minimize = real_fit, real_minimize
        digests[str(seed)] = f"{fits}:{h.hexdigest()}"
    return digests


def row_kernel_digests(name, dimension, particles, limit) -> dict[str, str]:
    bounds = Bounds.symmetric(limit, dimension)
    return kernel_digests(make_objective(name, dimension, bounds), particles)


def option_kernel_digests(case) -> dict[str, str]:
    _, _, particles, _, overrides = OPTION_CASES[case]
    return kernel_digests(option_objective(case), particles, overrides)


@pytest.mark.parametrize(
    "row", [pytest.param(row[:4], id=f"{row[0]}_{row[1]}d") for row in BENCHMARK_ROWS]
)
def test_kernel_outputs_match_recorded_digests(row):
    reference = json.loads(KERNEL_FILE.read_text(encoding="utf-8"))
    name, dimension, _, _ = row
    assert row_kernel_digests(*row) == reference[f"{name}_{dimension}d"]


@pytest.mark.parametrize("case", [pytest.param(case, id=f"option:{case}") for case in OPTION_CASES])
def test_option_kernel_outputs_match_recorded_digests(case):
    reference = json.loads(KERNEL_FILE.read_text(encoding="utf-8"))
    assert option_kernel_digests(case) == reference[f"option:{case}"]


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


def leaf_digests(tree: dict, prefix: str = "") -> dict[str, str]:
    """Every digest of a nested reference dict, keyed by its path."""
    leaves = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            leaves.update(leaf_digests(value, f"{prefix}{key} "))
        else:
            leaves[prefix + key] = value
    return leaves


def rewrite(path: Path, recorded: dict) -> None:
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    was, now = leaf_digests(old), leaf_digests(recorded)
    changed = sorted(leaf for leaf in was.keys() | now.keys() if was.get(leaf) != now.get(leaf))
    print(f"wrote {len(recorded)} rows to {path}; {len(changed)} digests changed")
    for line in changed:
        print(f"  changed: {line}")


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
    rewrite(REFERENCE_FILE, recorded)
    kernel = {f"{row[0]}_{row[1]}d": row_kernel_digests(*row[:4]) for row in BENCHMARK_ROWS}
    kernel.update((f"option:{case}", option_kernel_digests(case)) for case in OPTION_CASES)
    rewrite(KERNEL_FILE, kernel)
