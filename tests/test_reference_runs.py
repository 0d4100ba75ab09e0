"""Recorded run digests: the engine's output must not change by a single bit.

Each digest is a sha256 over everything a run reports that is deterministic:
the best-value trace, the final position, the final value, the evaluation
count and the fallback counts. Both variants run on every benchmark row for
seeds 0-4 and must reproduce the digests in ``reference_runs.json``.

A change that alters numerics on purpose re-records the file with

    PYTHONPATH=src python tests/test_reference_runs.py

and says so in its change notes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qswarm.cli import BENCHMARK_ROWS
from qswarm.objectives import Bounds, make_objective
from qswarm.swarm import VARIANTS, SwarmConfig, run

REFERENCE_FILE = Path(__file__).with_name("reference_runs.json")
SEEDS = range(5)


def run_digest(record) -> str:
    h = hashlib.sha256()
    h.update(record.best_value_trace.tobytes())
    h.update(record.final_position.tobytes())
    h.update(repr(record.final_value).encode())
    h.update(repr(record.evaluations).encode())
    h.update(repr(sorted(record.fallback_counts.items())).encode())
    return h.hexdigest()


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


if __name__ == "__main__":
    recorded = {
        row_key(variant, row[0], row[1]): row_digests(variant, *row[:4])
        for variant in VARIANTS
        for row in BENCHMARK_ROWS
    }
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} rows to {REFERENCE_FILE}")
