"""Particle swarm engine: state, coefficient schedules, and the two variants.

One velocity update per particle per iteration,

    v' = w * v + c1 * r1 * (best_own - x) + c2 * r2 * (attract - x),
    x' = x + v',

with r1, r2 drawn fresh from U[0, 1] for every particle at every iteration,
one draw shared across the dimensions of a particle (the classic
convention; coordinates then contract coherently, which settles the swarm
markedly deeper on the benchmark suite). Both variants use the global best
position as the social attractor. The ``quadratic_surrogate`` variant is
that gbest swarm plus one elitist quadratic probe per iteration: after the
particles are evaluated, it evaluates the minimizer of a quadratic
interpolated through the archived best samples, and the probe becomes the
global best, and so the attractor, only when its actual objective value
improves on it.

The probe. While the archive is not full, an empty one included, the step
makes none (``too_few_points``). Once it is full, the step hands its stored
set, best first, to :func:`~qswarm.surrogate.surrogate_attractor`, a pure
function of that set and the bounds, which proposes a point or names a
degenerate fit (``singular_system``, ``singular_quadratic``). The step
evaluates a proposed point once, a non-finite value counting as ``inf`` as
a particle's does, counts the evaluation and offers the point to the
archive. The probe is accepted (``none``) and becomes the global best only
when its value is below the global best value; otherwise it is
``non_improving``. Each stored set is probed at most once: the swarm's memo
is None while the current set has made no probe, and otherwise names why it
makes none, the degenerate reason or ``repeated`` once its probe was
evaluated. Every offer the archive stores (``observe`` returns True), a
particle's or the probe's, clears it (a store made on the archive outside
the step does not), so a probe the archive refused is not evaluated again.
That evaluation could only return ``non_improving``: the global best never
rises, so the probe's value did not beat it then, or was accepted and so
became it. The memo keys on neither the objective nor an evaluation count,
so a swarm's objective must be deterministic.

Coefficients follow linear ramps over the run: the inertia weight and the
cognitive coefficient decay, the social coefficient grows, and the speed cap
decays exponentially from e times its base value down to the base value. A
stagnation safeguard compares each particle's current value with its value
``lookback`` iterations earlier and scales that particle's inertia by ``tau``
when the relative change falls below 0.5.

Randomness comes from one counter-based Philox stream per run, keyed by the
run seed. Draws happen in a fixed documented order: initial positions
(n_particles x dimension), initial velocities (same shape), then the r1/r2
blocks of all iterations in one call, of shape (iterations, 2, n_particles,
1). The stream yields the same values whether that block is drawn in one
call or one iteration at a time, so block k is exactly what a per-iteration
draw would give. Run records are therefore a pure function of (config,
objective), and independent runs are reproducible regardless of batch
scheduling.

Everything that does not depend on the swarm's state (the coefficient ramps
of every iteration and the products c1 * r1 and c2 * r2) is computed once
when the run starts, so an iteration does only the work that needs its
evaluations. The products fill one (iterations, 2, n_particles, n) pull
table: a single multiply of the stacked (c1, c2) ramps with the draw block,
repeated over the dimensions. The personal bests and the attractor share
one (2, n_particles, n) anchor buffer: row 0 holds the personal best
positions, row 1 the global best position after the step's probe. So both
pulls come from one subtraction of the positions and one multiply by block
k of the pull table, and are added to the inertia term in the order of the
formula. The positions and velocities arrays move in place, so a caller
who keeps either copies it: the archive stores its own copy of each point,
and the personal and global bests are copied out of the array.
``gbest_position`` is a fresh array each time it moves, so a kept one keeps
its bits. A step makes no numpy object per particle: it walks row views of
the positions and of the personal bests, made once and again only when
``positions`` is rebound, and forms the inertia term in the velocities and
the pulls in one swarm-owned buffer. The attractor row is written only when
the gbest has moved.

The swarm keeps one record of particle values: iteration k appends the list
of its particles' values, a non-finite value stored as ``inf``, so the
record's length is the number of iterations run and entry k - lookback is
the stagnation window iteration k compares with. Each particle's multiplier,
1 or tau, is decided in the evaluation loop as soon as its value is known,
and the step notes whether any particle is stagnant; while none is, the
inertia term is ``omega_k * v``, which has the bits of
``(omega_k * scale) * v``. A run's ``nonfinite_iterations`` are the entries
of the record that hold ``inf``, which no finite value equals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .archive import Archive
from .objectives import Bounds, Objective, require_finite, require_int
from .surrogate import FALLBACK_NON_IMPROVING, FALLBACK_REASONS, FALLBACK_REPEATED, FALLBACK_TOO_FEW_POINTS
from .surrogate import load_lapack, required_points, surrogate_attractor

VARIANT_STANDARD = "standard"
VARIANT_SURROGATE = "quadratic_surrogate"
VARIANTS = (VARIANT_STANDARD, VARIANT_SURROGATE)

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SwarmConfig:
    """All tunables of one run.

    Defaults are the reference parameter set used by the benchmark suite.
    The surrogate archive holds exactly the interpolation point count. With
    fewer particles than interpolation points the engine still runs: the
    archive simply fills over several iterations.
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

    def __post_init__(self):
        for name in ("dimension", "n_particles", "iterations", "lookback"):
            require_int(name, getattr(self, name), minimum=1)
        require_int("seed", self.seed)
        # Stored as floats, so a numpy scalar runs as the float it equals.
        for name in ("omega0", "c1_0", "c2_0", "vmax0", "tau", "gamma_floor"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        for name in ("vmax0", "tau", "gamma_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension does not match config dimension")


def _ramps(ks: np.ndarray, config: SwarmConfig):
    # omega, c1 and c2 (arrays) and vmax (a list) at the iterations ks: the
    # one formula behind the engine's per-run tables. The speed cap uses
    # math.exp, whose results np.exp does not always match.
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
        rng = np.random.Generator(np.random.Philox(key=int(config.seed) & _SEED_MASK))

        n, n_particles = config.dimension, config.n_particles
        bounds = config.bounds
        omega, c1, c2, vmax = _ramps(np.arange(config.iterations), config)
        self._omega = omega.tolist()
        self._vmax = vmax
        self.positions = rng.uniform(bounds.lo, bounds.hi, size=(n_particles, n))
        self.velocities = rng.uniform(-vmax[0], vmax[0], size=(n_particles, n))
        draws = rng.uniform(size=(config.iterations, 2, n_particles, 1))
        # Block k holds c1_k * r1 and c2_k * r2 of iteration k, spread over
        # the dimensions (as are the bounds) so that each step works on
        # arrays of one shape. One multiply forms the products and a repeat
        # spreads them, which is faster than multiplying into the wide table.
        coefs = np.stack((c1, c2), axis=1)[:, :, None, None]
        self._pulls = np.repeat(coefs * draws, n, axis=3)
        self._lo = np.full((n_particles, n), bounds.lo)
        self._hi = np.full((n_particles, n), bounds.hi)
        # Row 0: the personal best positions; row 1: the global best position.
        self._anchors = np.empty((2, n_particles, n))
        self._anchors[0] = self.positions
        # The gbest_position object last written into the attractor row.
        self._attracted = None
        # (i, position row, personal best row) per particle, and the
        # positions array they view.
        self._rows_of = None
        self._rows = []
        self._pull = np.empty((2, n_particles, n))
        self.pbest_values = [math.inf] * n_particles
        self.gbest_position = self.positions[0].copy()
        self.gbest_value = math.inf
        # One list of particle values per iteration run, non-finite ones as inf.
        self._values: list[list[float]] = []

        if config.variant == VARIANT_SURROGATE:
            self.archive: Optional[Archive] = Archive(required_points(n))
        else:
            self.archive = None
        # Why the stored set makes no further probe; None until it has made one.
        self._memo: Optional[str] = None

        self.evaluations = 0
        self.trace: list[float] = []
        self.fallback_counts = {reason: 0 for reason in FALLBACK_REASONS}

    def __getstate__(self):
        # A copy makes its own row views: copied views would not view its arrays.
        return {**self.__dict__, "_rows_of": None, "_rows": []}

    def step(self):
        """One full iteration: evaluate, update bests, attract, move."""
        config = self.config
        record = self._values
        k = len(record)
        if k >= config.iterations:
            raise ValueError(f"the run has {config.iterations} iterations")
        positions = self.positions
        archive = self.archive
        evaluate = self.objective.evaluate

        anchors = self._anchors
        if self._rows_of is not positions:
            self._rows_of = positions
            self._rows = [(i, x, best) for i, (x, best) in enumerate(zip(positions, anchors[0]))]
        rows = self._rows
        pbest_values = self.pbest_values
        lookback = config.lookback
        # The values of iteration k - lookback; none before k reaches it.
        past = record[k - lookback] if k >= lookback else None
        tau, floor = config.tau, config.gamma_floor
        scale = []
        stagnant = False
        # An offer the archive would refuse is not made: the stored set and
        # the memo are those of offering every particle.
        admission = -math.inf if archive is None else archive.admission
        memo = self._memo
        values = []
        isfinite = math.isfinite
        for i, x, best in rows:
            value = float(evaluate(x))
            if not isfinite(value):
                value = math.inf
            values.append(value)
            if value < pbest_values[i]:
                pbest_values[i] = value
                best[...] = x
            if value < admission:
                if archive.observe(x, value):
                    memo = None
                admission = archive.admission
            if past is not None:
                # The stagnation safeguard, with gamma = |f_now - f_then| /
                # max(|f_then|, floor), the max spelled as a conditional (no
                # value is NaN, so the two agree). Non-finite pairs yield a
                # gamma of inf or nan, and both land in the "no stagnation"
                # branch. The denominator is at least floor > 0, so the
                # division never raises.
                then = past[i]
                scale_then = abs(then)
                if scale_then < floor:
                    scale_then = floor
                if abs(value - then) / scale_then < 0.5:
                    scale.append(tau)
                    stagnant = True
                else:
                    scale.append(1.0)
        self.evaluations += len(values)
        record.append(values)

        best = min(values)
        if best < self.gbest_value:
            self.gbest_value = best
            self.gbest_position = rows[values.index(best)][1].copy()

        if archive is not None:
            reason = memo if archive.size >= archive.capacity else FALLBACK_TOO_FEW_POINTS
            if reason is None:
                points, stored = archive.sorted_points()
                reason, probe = surrogate_attractor(points, stored, self.objective.bounds)
                memo = reason
                if probe is not None:
                    value = float(evaluate(probe))
                    if not isfinite(value):
                        value = math.inf
                    self.evaluations += 1
                    memo = None if archive.observe(probe, value) else FALLBACK_REPEATED
                    if value < self.gbest_value:
                        self.gbest_value = value
                        self.gbest_position = probe
                    else:
                        reason = FALLBACK_NON_IMPROVING
            self._memo = memo
            self.fallback_counts[reason] += 1

        # omega_k * scale * v + (c1_k * r1) * (pbest - x) + (c2_k * r2) * (a - x),
        # with the same operations in the same order as the formula. While no
        # particle is stagnant (always before k reaches the lookback) the scale
        # is all ones, and omega_k * 1 is omega_k exactly.
        omega = self._omega[k]
        velocities = self.velocities
        if stagnant:
            velocities *= np.array([omega * m for m in scale])[:, None]
        else:
            velocities *= omega
        if self.gbest_position is not self._attracted:
            self._attracted = anchors[1] = self.gbest_position
        pull = np.subtract(anchors, positions, out=self._pull)
        pull *= self._pulls[k]
        velocities += pull[0]
        velocities += pull[1]
        vmax = self._vmax[k]
        np.maximum(velocities, -vmax, out=velocities)
        np.minimum(velocities, vmax, out=velocities)
        positions += velocities
        np.maximum(positions, self._lo, out=positions)
        np.minimum(positions, self._hi, out=positions)

        self.trace.append(self.gbest_value)


def run(config: SwarmConfig, objective: Objective, timing: bool = True) -> RunRecord:
    """Execute one full run; deterministic given (config, objective).

    ``timing=False`` records a wall time of 0.0 so emitted artifacts can be
    compared byte-for-byte across environments. Before its clock starts, a
    run loads ``numpy.random``, which numpy imports at its first use, and a
    surrogate run also scipy's LAPACK extension alone, without the ``scipy``
    package (:func:`load_lapack`), so the first run in a process does not
    time those loads.
    """
    import numpy.random  # noqa: F401

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
        nonfinite_iterations=tuple(k for k, values in enumerate(swarm._values) if math.inf in values),
        wall_time=wall,
    )
