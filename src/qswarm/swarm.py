"""Particle swarm engine: state, coefficient schedules, and the two variants.

One velocity update per particle per iteration,

    v' = w * v + c1 * r1 * (best_own - x) + c2 * r2 * (attract - x),
    x' = x + v',

with r1, r2 drawn fresh from U[0, 1] for every particle at every iteration.
By default one draw is shared across the dimensions of a particle (the
classic convention; coordinates then contract coherently, which settles the
swarm markedly deeper on the benchmark suite). Set
``per_dimension_draws=True`` for independent draws per coordinate. The
``standard`` variant uses the global best position as the social attractor;
the ``quadratic_surrogate`` variant replaces it with the minimizer of a
quadratic interpolated through the archived best samples, accepted only when
its actual objective value improves on the global best (see
:mod:`qswarm.surrogate`).

Coefficients follow linear ramps over the run: the inertia weight and the
cognitive coefficient decay, the social coefficient grows, and the speed cap
decays exponentially from e times its base value down to the base value. A
stagnation safeguard compares each particle's current value with its value
``lookback`` iterations earlier and scales that particle's inertia by ``tau``
when the relative change falls below 0.5.

Randomness comes from one counter-based Philox stream per run, keyed by the
run seed. Draws happen in a fixed documented order: initial positions
(n_particles x dimension), initial velocities (same shape), then one block
per iteration holding r1 and r2 for all particles, of shape
(2, n_particles, 1) in shared-draw mode or (2, n_particles, dimension) in
per-dimension mode. Run records are therefore a pure function of
(config, objective), and independent runs are reproducible regardless of
batch scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .archive import Archive, ArchiveEntry
from .objectives import Bounds, Objective, clip_to_bounds
from .surrogate import (
    FALLBACK_REASONS,
    FALLBACK_TOO_FEW_POINTS,
    required_points,
    surrogate_attractor,
)

VARIANT_STANDARD = "standard"
VARIANT_SURROGATE = "quadratic_surrogate"
VARIANTS = (VARIANT_STANDARD, VARIANT_SURROGATE)

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SwarmConfig:
    """All tunables of one run.

    Defaults are the reference parameter set used by the benchmark suite.
    ``archive_capacity`` overrides the surrogate archive size (normally the
    exact interpolation point count); setting it above the total evaluation
    count of a run forces the surrogate to fall back on every iteration,
    which is useful for variant-equivalence testing. With fewer particles
    than interpolation points the engine still runs: the archive simply
    fills over several iterations.
    """

    dimension: int
    n_particles: int
    bounds: Bounds
    iterations: int = 200
    omega0: float = 0.72984
    c1_0: float = 2.8
    c2_0: float = 2.05
    vmax0: float = 2.0
    lookback: int = 52
    tau: float = 1.2
    gamma_floor: float = 1e-12
    variant: str = VARIANT_STANDARD
    seed: int = 0
    compound_safeguard: bool = False
    per_dimension_draws: bool = False
    archive_capacity: Optional[int] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.gamma_floor > 0:
            raise ValueError("gamma_floor must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension does not match config dimension")
        if self.archive_capacity is not None and self.archive_capacity < 1:
            raise ValueError("archive_capacity must be >= 1")


@dataclass(frozen=True)
class ScheduleState:
    """Coefficient values in effect at one iteration."""

    omega: float
    c1: float
    c2: float
    vmax: float


def schedule(k: int, config: SwarmConfig) -> ScheduleState:
    """Coefficient ramps evaluated at iteration ``k`` (0-based).

    omega and c1 decay linearly, c2 grows linearly, and vmax decays
    exponentially from ``vmax0 * e`` at k=0 to ``vmax0`` at k=iterations.
    Note the speed cap starts *above* its base value by design.
    """
    big_k = config.iterations
    if not 0 <= k <= big_k:
        raise ValueError(f"iteration {k} outside [0, {big_k}]")
    frac = k / big_k
    return ScheduleState(
        omega=config.omega0 - 0.5 * frac,
        c1=config.c1_0 - frac,
        c2=config.c2_0 + frac,
        vmax=config.vmax0 * math.exp(1.0 - frac),
    )


@dataclass(eq=False)
class RunRecord:
    """Outcome of one run.

    ``best_value_trace`` holds the global best value after each iteration
    and is nonincreasing; its last entry equals ``final_value``.
    ``nonfinite_iterations`` flags iterations where some particle evaluation
    came back non-finite (treated as +inf and excluded from the archive).
    """

    best_value_trace: np.ndarray
    final_position: np.ndarray
    final_value: float
    evaluations: int
    fallback_counts: dict[str, int]
    nonfinite_iterations: tuple[int, ...]
    wall_time: float


def _stagnation_multipliers(current, past, tau, floor):
    # The stagnation safeguard for every particle at once, with
    # gamma = |f_now - f_then| / max(|f_then|, floor). Non-finite pairs yield
    # a gamma of inf or nan, and both land in the "no stagnation" branch of
    # np.where.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gamma = np.abs(current - past) / np.maximum(np.abs(past), floor)
        return np.where(gamma < 0.5, tau, 1.0)


class Swarm:
    """Mutable engine state for one run; ``step()`` advances one iteration.

    State arrays are row-per-particle.
    """

    def __init__(self, config: SwarmConfig, objective: Objective):
        if objective.dimension != config.dimension:
            raise ValueError("objective dimension does not match config dimension")
        self.config = config
        self.objective = objective
        self.rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))

        n, n_particles = config.dimension, config.n_particles
        bounds = config.bounds
        self.positions = self.rng.uniform(bounds.lo, bounds.hi, size=(n_particles, n))
        v0 = schedule(0, config).vmax
        self.velocities = self.rng.uniform(-v0, v0, size=(n_particles, n))
        self.pbest_positions = self.positions.copy()
        self.pbest_values = np.full(n_particles, math.inf)
        self.omega_scale = np.ones(n_particles)
        self.gbest_position = self.positions[0].copy()
        self.gbest_value = math.inf
        self._history = np.full((config.lookback + 1, n_particles), math.inf)

        if config.variant == VARIANT_SURROGATE:
            capacity = config.archive_capacity
            if capacity is None:
                capacity = required_points(n)
            self.archive: Optional[Archive] = Archive(capacity)
        else:
            self.archive = None

        self.iteration = 0
        self.evaluations = 0
        self.trace: list[float] = []
        self.fallback_counts = {reason: 0 for reason in FALLBACK_REASONS}
        self.nonfinite_iterations: list[int] = []
        self._counting_objective = replace(objective, evaluate=self._evaluate)

    def _evaluate(self, x) -> float:
        self.evaluations += 1
        return float(self.objective.evaluate(x))

    def step(self):
        """One full iteration: evaluate, update bests, attract, move."""
        config = self.config
        k = self.iteration
        sched = schedule(k, config)
        positions = self.positions
        n_particles = config.n_particles

        values = np.empty(n_particles)
        saw_nonfinite = False
        for i in range(n_particles):
            value = self._evaluate(positions[i])
            if not math.isfinite(value):
                value = math.inf
                saw_nonfinite = True
            values[i] = value
            if self.archive is not None:
                self.archive.observe(positions[i], value)
        if saw_nonfinite:
            self.nonfinite_iterations.append(k)

        improved = values < self.pbest_values
        if improved.any():
            self.pbest_positions[improved] = positions[improved]
            self.pbest_values[improved] = values[improved]
        best_idx = int(np.argmin(values))
        if values[best_idx] < self.gbest_value:
            self.gbest_value = float(values[best_idx])
            self.gbest_position = positions[best_idx].copy()

        self._history[k % (config.lookback + 1)] = values

        if config.variant == VARIANT_SURROGATE:
            attractor = self._surrogate_attractor()
        else:
            attractor = self.gbest_position

        if k >= config.lookback:
            past = self._history[(k - config.lookback) % (config.lookback + 1)]
            multipliers = _stagnation_multipliers(
                values, past, config.tau, config.gamma_floor
            )
            if config.compound_safeguard:
                self.omega_scale = self.omega_scale * multipliers
            else:
                self.omega_scale = multipliers
        elif not config.compound_safeguard:
            self.omega_scale = np.ones(n_particles)

        r_dims = config.dimension if config.per_dimension_draws else 1
        r = self.rng.uniform(size=(2, n_particles, r_dims))
        velocities = (
            (sched.omega * self.omega_scale)[:, None] * self.velocities
            + sched.c1 * r[0] * (self.pbest_positions - positions)
            + sched.c2 * r[1] * (attractor - positions)
        )
        np.clip(velocities, -sched.vmax, sched.vmax, out=velocities)
        self.velocities = velocities
        self.positions = clip_to_bounds(positions + velocities, config.bounds)

        self.trace.append(self.gbest_value)
        self.iteration += 1

    def _surrogate_attractor(self) -> np.ndarray:
        # All-nonfinite pathologies can leave the archive empty; treat that
        # as the have-too-few-points case and keep the run going.
        if self.archive.size == 0:
            self.fallback_counts[FALLBACK_TOO_FEW_POINTS] += 1
            return self.gbest_position
        result = surrogate_attractor(
            self.archive,
            self._counting_objective,
            ArchiveEntry(self.gbest_value, self.gbest_position),
        )
        self.fallback_counts[result.fallback_reason] += 1
        if not result.used_fallback:
            self.gbest_value = result.f_min
            self.gbest_position = result.x_min.copy()
        return result.x_min


def run(config: SwarmConfig, objective: Objective, timing: bool = True) -> RunRecord:
    """Execute one full run; deterministic given (config, objective).

    ``timing=False`` records a wall time of 0.0 so emitted artifacts can be
    compared byte-for-byte across environments.
    """
    start = time.perf_counter() if timing else 0.0
    swarm = Swarm(config, objective)
    for _ in range(config.iterations):
        swarm.step()
    wall = time.perf_counter() - start if timing else 0.0
    return RunRecord(
        best_value_trace=np.asarray(swarm.trace),
        final_position=swarm.gbest_position.copy(),
        final_value=swarm.gbest_value,
        evaluations=swarm.evaluations,
        fallback_counts=dict(swarm.fallback_counts),
        nonfinite_iterations=tuple(swarm.nonfinite_iterations),
        wall_time=wall,
    )
