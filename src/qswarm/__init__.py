"""Derivative-free optimization: particle swarms with an optional
quadratic-surrogate probe, benchmark objectives, and a reproducible
batch/statistics harness.

The package exports what a caller needs to run the optimizer and batches
of it; everything else lives in the submodules ``archive``, ``experiments``,
``objectives``, ``surrogate`` and ``swarm``."""

from . import archive, experiments, objectives, surrogate, swarm
from .experiments import BatchError, BatchResult, BatchSpec, run_batch
from .objectives import Bounds, Objective, make_objective, objective_names
from .swarm import VARIANT_STANDARD, VARIANT_SURROGATE, VARIANTS, RunRecord, SwarmConfig, run

__version__ = "0.1.0"
