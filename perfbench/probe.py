"""Set-up probe, run in a fresh interpreter by run.py.

Imports the package through its command-line module, builds the first
benchmark row's objective and configuration, and prints ``ready <import_s>``
once a run could start. run.py times the span from spawning this process to
reading that line.
"""

from time import perf_counter

start = perf_counter()
import qswarm.cli  # noqa: E402

import_s = perf_counter() - start

from qswarm import Bounds, SwarmConfig, make_objective  # noqa: E402

name, dimension, particles, limit, *_ = qswarm.cli.BENCHMARK_ROWS[0]
bounds = Bounds.symmetric(limit, dimension)
objective = make_objective(name, dimension, bounds)
config = SwarmConfig(dimension=dimension, n_particles=particles, bounds=bounds, iterations=200)
print(f"ready {import_s!r}", flush=True)
