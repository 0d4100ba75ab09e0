"""Derivative-free optimization: particle swarms with an optional
quadratic-surrogate attractor, benchmark objectives, and a reproducible
batch/statistics harness."""

from .archive import Archive, ArchiveEntry, EmptyArchiveError
from .experiments import (
    BatchError,
    BatchResult,
    BatchSpec,
    StatsSummary,
    run_batch,
    summarize_records,
)
from .objectives import (
    Bounds,
    Objective,
    UnknownObjectiveError,
    clip_to_bounds,
    default_bounds,
    eval_ackley,
    eval_flower,
    eval_griewank,
    eval_sphere,
    make_objective,
    objective_names,
)
from .surrogate import (
    FALLBACK_NON_IMPROVING,
    FALLBACK_NONE,
    FALLBACK_REASONS,
    FALLBACK_SINGULAR_QUADRATIC,
    FALLBACK_SINGULAR_SYSTEM,
    FALLBACK_TOO_FEW_POINTS,
    QuadraticModel,
    SingularMatrixError,
    SurrogateResult,
    fit,
    minimize,
    required_points,
    surrogate_attractor,
)
from .swarm import (
    VARIANT_STANDARD,
    VARIANT_SURROGATE,
    VARIANTS,
    RunRecord,
    ScheduleState,
    Swarm,
    SwarmConfig,
    run,
    schedule,
)

__version__ = "0.1.0"
