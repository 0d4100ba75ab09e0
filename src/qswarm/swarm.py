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
(n_particles x dimension), initial velocities (same shape), then the r1/r2
blocks of all iterations in one call, of shape
(iterations, 2, n_particles, 1) in shared-draw mode or
(iterations, 2, n_particles, dimension) in per-dimension mode. The stream
yields the same values whether that block is drawn in one call or one
iteration at a time, so block k is exactly what a per-iteration draw would
give. Run records are therefore a pure function of (config, objective), and
independent runs are reproducible regardless of batch scheduling.

Everything that does not depend on the swarm's state (the coefficient ramps
of every iteration and the products c1 * r1 and c2 * r2) is computed once
when the run starts, so an iteration does only the work that needs its
evaluations. The stagnation history is a ring of lookback + 1 lists of
particle values: iteration k writes slot k % (lookback + 1) and compares
with slot (k - lookback) % (lookback + 1). The inertia scale ``omega_scale``
is the list of the latest multipliers, 1 or tau per particle; while it holds
no tau the inertia term is ``omega_k * v``, which has the bits of
``(omega_k * scale) * v``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .archive import Archive, ArchiveEntry
from .objectives import Bounds, Objective
from .surrogate import FALLBACK_REASONS, load_lapack, required_points, surrogate_attractor

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
        for name in ("omega0", "c1_0", "c2_0", "vmax0", "tau", "gamma_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    omega, c1, c2, vmax = _ramps(np.array([k]), config)
    return ScheduleState(float(omega[0]), float(c1[0]), float(c2[0]), vmax[0])


def _ramps(ks: np.ndarray, config: SwarmConfig):
    # omega, c1 and c2 (arrays) and vmax (a list) at the iterations ks: the
    # one formula behind schedule() and the engine's per-run tables. The
    # speed cap uses math.exp, whose results np.exp does not always match.
    frac = ks / config.iterations
    vmax = [config.vmax0 * math.exp(1.0 - f) for f in frac.tolist()]
    return config.omega0 - 0.5 * frac, config.c1_0 - frac, config.c2_0 + frac, vmax


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


def _stagnation_multipliers(current, past, tau, floor) -> list[float]:
    # The stagnation safeguard for every particle, with
    # gamma = |f_now - f_then| / max(|f_then|, floor). Non-finite pairs yield
    # a gamma of inf or nan, and both land in the "no stagnation" branch.
    # The denominator is at least floor > 0, so the division never raises.
    return [
        tau if abs(now - then) / max(abs(then), floor) < 0.5 else 1.0
        for now, then in zip(current, past)
    ]


class Swarm:
    """Mutable engine state for one run; ``step()`` advances one iteration.

    State arrays are row-per-particle. ``step()`` may be called
    ``config.iterations`` times.
    """

    def __init__(self, config: SwarmConfig, objective: Objective):
        # Particles are clipped to the config box and proposals to the
        # objective's, so the two must be one box.
        if not (
            np.array_equal(config.bounds.lo, objective.bounds.lo)
            and np.array_equal(config.bounds.hi, objective.bounds.hi)
        ):
            raise ValueError("config and objective bounds differ")
        self.config = config
        self.objective = objective
        self.rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))

        n, n_particles = config.dimension, config.n_particles
        bounds = config.bounds
        omega, c1, c2, vmax = _ramps(np.arange(config.iterations), config)
        self._omega = omega.tolist()
        self._vmax = vmax
        self.positions = self.rng.uniform(bounds.lo, bounds.hi, size=(n_particles, n))
        self.velocities = self.rng.uniform(-vmax[0], vmax[0], size=(n_particles, n))
        r_dims = n if config.per_dimension_draws else 1
        draws = self.rng.uniform(size=(config.iterations, 2, n_particles, r_dims))
        # Block k holds c1_k * r1 and c2_k * r2 of iteration k, spread over
        # the dimensions (as are the bounds) so that each step works on
        # arrays of one shape.
        self._pulls = np.empty((config.iterations, 2, n_particles, n))
        np.multiply(c1[:, None, None], draws[:, 0], out=self._pulls[:, 0])
        np.multiply(c2[:, None, None], draws[:, 1], out=self._pulls[:, 1])
        self._lo = np.full((n_particles, n), bounds.lo)
        self._hi = np.full((n_particles, n), bounds.hi)
        self.pbest_positions = self.positions.copy()
        self.pbest_values = [math.inf] * n_particles
        self.omega_scale = [1.0] * n_particles
        self.gbest_position = self.positions[0].copy()
        self.gbest_value = math.inf
        self._history: list[Optional[list[float]]] = [None] * (config.lookback + 1)

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

    def step(self):
        """One full iteration: evaluate, update bests, attract, move."""
        config = self.config
        k = self.iteration
        if k >= config.iterations:
            raise ValueError(f"the run has {config.iterations} iterations")
        positions = self.positions
        archive = self.archive
        evaluate = self.objective.evaluate

        pbest_values = self.pbest_values
        pbest_positions = self.pbest_positions
        # Positions are offered to the archive as row views, so the positions
        # array must never be written in place; every step makes a new one.
        # An offer the archive would refuse is not made: the version and the
        # stored set are those of offering every particle.
        admission = -math.inf if archive is None else archive.admission
        values = []
        saw_nonfinite = False
        for i, x in enumerate(positions):
            value = float(evaluate(x))
            if not math.isfinite(value):
                value = math.inf
                saw_nonfinite = True
            values.append(value)
            if value < pbest_values[i]:
                pbest_values[i] = value
                pbest_positions[i] = x
            if value < admission:
                archive.observe(x, value)
                admission = archive.admission
        self.evaluations += len(values)
        if saw_nonfinite:
            self.nonfinite_iterations.append(k)

        best = min(values)
        if best < self.gbest_value:
            self.gbest_value = best
            self.gbest_position = positions[values.index(best)].copy()

        lookback = config.lookback
        self._history[k % (lookback + 1)] = values

        if archive is not None:
            attractor = self._surrogate_attractor()
        else:
            attractor = self.gbest_position

        if k >= lookback:
            past = self._history[(k - lookback) % (lookback + 1)]
            self.omega_scale = _stagnation_multipliers(
                values, past, config.tau, config.gamma_floor
            )

        # omega_k * scale * v + (c1_k * r1) * (pbest - x) + (c2_k * r2) * (a - x),
        # with the same operations in the same order as the formula. While no
        # particle is stagnant (always before k reaches the lookback) the scale
        # is all ones, and omega_k * 1 is omega_k exactly.
        omega = self._omega[k]
        if config.tau in self.omega_scale:
            inertia = np.array([omega * m for m in self.omega_scale])[:, None]
            velocities = inertia * self.velocities
        else:
            velocities = omega * self.velocities
        pulls = self._pulls[k]
        pull = pbest_positions - positions
        pull *= pulls[0]
        velocities += pull
        np.subtract(attractor, positions, out=pull)
        pull *= pulls[1]
        velocities += pull
        vmax = self._vmax[k]
        np.maximum(velocities, -vmax, out=velocities)
        np.minimum(velocities, vmax, out=velocities)
        self.velocities = velocities
        positions = positions + velocities
        np.maximum(positions, self._lo, out=positions)
        np.minimum(positions, self._hi, out=positions)
        self.positions = positions

        self.trace.append(self.gbest_value)
        self.iteration += 1

    def _surrogate_attractor(self) -> np.ndarray:
        result = surrogate_attractor(
            self.archive,
            self.objective,
            ArchiveEntry(self.gbest_value, self.gbest_position),
        )
        # Counting here rather than through a wrapper that refers back to the
        # swarm keeps the swarm free of reference cycles, so its per-run
        # tables are freed as soon as the run ends.
        if result.evaluated:
            self.evaluations += 1
        self.fallback_counts[result.fallback_reason] += 1
        if not result.used_fallback:
            self.gbest_value = result.f_min
            self.gbest_position = result.x_min.copy()
        return result.x_min


def run(config: SwarmConfig, objective: Objective, timing: bool = True) -> RunRecord:
    """Execute one full run; deterministic given (config, objective).

    ``timing=False`` records a wall time of 0.0 so emitted artifacts can be
    compared byte-for-byte across environments. A surrogate run loads
    scipy's LAPACK extension (:func:`load_lapack`) before its clock starts,
    so the first one in a process does not time that load.
    """
    if config.variant == VARIANT_SURROGATE:
        load_lapack()
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
