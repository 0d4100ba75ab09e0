"""Engine semantics: schedules, safeguard, velocity rule, steps, runs.

The vectorized engine is checked against a per-particle transcription of the
update rules (``Particle``, ``schedule``, ``safeguard``, ``update_velocity``)
defined here.
"""

import copy
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswarm.archive import DUPLICATE_EPS, Archive
from qswarm.cli import BENCHMARK_ROWS
from qswarm.objectives import Bounds, Objective, clip_to_bounds, make_objective
from qswarm.surrogate import (
    FALLBACK_NON_IMPROVING,
    FALLBACK_NONE,
    FALLBACK_SINGULAR_SYSTEM,
    required_points,
    surrogate_attractor,
)
from qswarm.swarm import (
    VARIANT_STANDARD,
    VARIANT_SURROGATE,
    Swarm,
    SwarmConfig,
    _ramps,
    run,
)


class ScheduleState(NamedTuple):
    """Coefficient values in effect at one iteration."""

    omega: float
    c1: float
    c2: float
    vmax: float


def schedule(k: int, config: SwarmConfig) -> ScheduleState:
    """The engine's coefficient ramps at iteration ``k`` (0-based)."""
    omega, c1, c2, vmax = _ramps(np.array([k]), config)
    return ScheduleState(float(omega[0]), float(c1[0]), float(c2[0]), vmax[0])


@dataclass
class Particle:
    """Per-particle state.

    ``value_history`` keeps the last ``lookback + 1`` objective values so the
    stagnation safeguard can reach the value from ``lookback`` iterations
    ago. ``omega_scale`` is the inertia multiplier currently in effect for
    this particle.
    """

    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    best_value: float
    value_history: deque = field(default_factory=deque)
    omega_scale: float = 1.0


def safeguard(particle: Particle, k: int, config: SwarmConfig) -> float:
    """Stagnation test: the inertia multiplier for this iteration.

    Compares the particle's current objective value with the one from
    ``lookback`` iterations earlier. When the relative change

        gamma = |f_now - f_then| / max(|f_then|, gamma_floor)

    is below 0.5 the particle is considered stagnant and ``tau`` is
    returned; otherwise 1. Before iteration ``lookback`` (no history yet)
    the multiplier is 1. Non-finite history values never signal stagnation.
    """
    history = particle.value_history
    if k < config.lookback or len(history) < config.lookback + 1:
        return 1.0
    f_now = history[-1]
    f_then = history[0]
    if not (math.isfinite(f_now) and math.isfinite(f_then)):
        return 1.0
    gamma = abs(f_now - f_then) / max(abs(f_then), config.gamma_floor)
    return config.tau if gamma < 0.5 else 1.0


def update_velocity(
    particle: Particle,
    attractor: np.ndarray,
    sched: ScheduleState,
    rng,
) -> np.ndarray:
    """New velocity for one particle, clipped to the current speed cap.

    Draws r1 then r2 from ``rng``, one U[0,1] value each, shared across the
    dimensions. The inertia term uses ``particle.omega_scale``, which
    carries the safeguard result.
    """
    x = particle.position
    r1 = rng.uniform(size=1)
    r2 = rng.uniform(size=1)
    v = (
        sched.omega * particle.omega_scale * particle.velocity
        + sched.c1 * r1 * (particle.best_position - x)
        + sched.c2 * r2 * (np.asarray(attractor, dtype=float) - x)
    )
    return np.clip(v, -sched.vmax, sched.vmax)


def pbest_positions(swarm: Swarm) -> np.ndarray:
    """The engine's personal best positions, one row per particle (a view
    into row 0 of its anchor buffer)."""
    return swarm._anchors[0]


def attractors(swarm: Swarm) -> np.ndarray:
    """The social attractor of the last step, one row per particle (row 1
    of the engine's anchor buffer)."""
    return swarm._anchors[1]


def particle_view(swarm: Swarm, i: int) -> Particle:
    """Snapshot of particle ``i`` of the engine in per-particle form, after
    at least one step. Its history is read from the engine's record of
    values, and its ``omega_scale`` is the multiplier ``safeguard`` gives
    the last step."""
    config = swarm.config
    record = swarm._values
    particle = Particle(
        position=swarm.positions[i].copy(),
        velocity=swarm.velocities[i].copy(),
        best_position=pbest_positions(swarm)[i].copy(),
        best_value=float(swarm.pbest_values[i]),
        value_history=deque((values[i] for values in record), maxlen=config.lookback + 1),
    )
    particle.omega_scale = safeguard(particle, len(record) - 1, config)
    return particle


def step_multipliers(swarm: Swarm, unit: Swarm) -> list[float]:
    """Step ``swarm`` and ``unit``, which hold the same state but for a tau
    of 1 in ``unit``, and return the inertia multiplier of each particle in
    the engine's step: tau where its velocity differs from ``unit``'s, else
    1. A multiplier of 1 leaves the bits of the inertia term as they are.
    The speed cap must be large enough that no velocity is clipped, so the
    inertia term of a stagnant particle outweighs its pulls."""
    swarm.step()
    unit.step()
    moved = (swarm.velocities != unit.velocities).any(axis=1).tolist()
    return [swarm.config.tau if m else 1.0 for m in moved]


def sphere_config(**overrides):
    base = dict(
        dimension=2,
        n_particles=6,
        bounds=Bounds.symmetric(10.0, 2),
        iterations=200,
    )
    base.update(overrides)
    return SwarmConfig(**base)


class TestSchedule:
    def test_start_of_run_values(self):
        sched = schedule(0, sphere_config())
        assert sched.omega == pytest.approx(0.72984, abs=1e-12)
        assert sched.c1 == pytest.approx(2.8, abs=1e-12)
        assert sched.c2 == pytest.approx(2.05, abs=1e-12)
        assert sched.vmax == pytest.approx(5.43656365691809, abs=1e-12)  # 2e

    def test_end_of_run_values(self):
        config = sphere_config()
        sched = schedule(config.iterations, config)
        assert sched.omega == pytest.approx(0.22984, abs=1e-12)
        assert sched.c1 == pytest.approx(1.8, abs=1e-12)
        assert sched.c2 == pytest.approx(3.05, abs=1e-12)
        assert sched.vmax == pytest.approx(2.0, abs=1e-12)

    def test_midpoint_is_halfway_on_linear_ramps(self):
        config = sphere_config()
        k = config.iterations // 2
        sched = schedule(k, config)
        assert sched.omega == pytest.approx(0.72984 - 0.25, abs=1e-12)
        assert sched.c1 == pytest.approx(2.3, abs=1e-12)
        assert sched.c2 == pytest.approx(2.55, abs=1e-12)
        assert sched.vmax == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)


def particle_with_history(values, lookback):
    history = deque(values, maxlen=lookback + 1)
    return Particle(
        position=np.zeros(2),
        velocity=np.zeros(2),
        best_position=np.zeros(2),
        best_value=min(values) if values else math.inf,
        value_history=history,
    )


class TestSafeguard:
    def test_stagnation_triggers_tau(self):
        config = sphere_config(lookback=3, tau=1.2)
        particle = particle_with_history([1.0, 1.1, 0.9, 1.0], lookback=3)
        assert safeguard(particle, 3, config) == 1.2

    def test_large_relative_change_keeps_inertia(self):
        config = sphere_config(lookback=3)
        particle = particle_with_history([1.0, 1.1, 0.9, 3.0], lookback=3)
        assert safeguard(particle, 3, config) == 1.0

    def test_zero_denominator_uses_floor(self):
        config = sphere_config(lookback=2, gamma_floor=1e-12)
        stagnant = particle_with_history([0.0, 0.0, 1e-13], lookback=2)
        assert safeguard(stagnant, 2, config) == config.tau  # 1e-13/1e-12 = 0.1 < 0.5
        moving = particle_with_history([0.0, 0.0, 1.0], lookback=2)
        assert safeguard(moving, 2, config) == 1.0  # 1.0/1e-12 >= 0.5

    def test_no_history_before_lookback(self):
        config = sphere_config(lookback=10)
        particle = particle_with_history([1.0, 1.0], lookback=10)
        assert safeguard(particle, 1, config) == 1.0
        assert safeguard(particle, 20, config) == 1.0  # history still too short

    def test_nonfinite_history_never_fires(self):
        config = sphere_config(lookback=1)
        particle = particle_with_history([math.inf, math.inf], lookback=1)
        assert safeguard(particle, 1, config) == 1.0

    def test_engine_matches_scalar_op(self):
        # One particle per (now, then) pair: the objective returns the
        # "then" values at step 0 and the "now" values at step 1, so step 1
        # applies the engine's rule to every pair. A twin run at tau = 1
        # shows the multipliers (see step_multipliers).
        rng = np.random.default_rng(13)
        current = rng.uniform(-2, 2, size=200)
        past = rng.uniform(-2, 2, size=200)
        past[::17] = 0.0
        # every pair of non-finite, zero and extreme values as well; the
        # engine maps a non-finite value to inf before the rule sees it
        edge = [math.inf, -math.inf, math.nan, 0.0, 1.0, -2.5, 1e308, -1e308]
        current = current.tolist() + [now for now in edge for _ in edge]
        past = past.tolist() + [then for _ in edge for then in edge]
        # and a relative change of exactly 0.5 either way, which is no stagnation
        current += [3.0, 1.0]
        past += [2.0, 2.0]
        config = sphere_config(n_particles=len(current), lookback=1, iterations=2, vmax0=1e6)

        def swarm_at(tau):
            values = iter(past + current)
            objective = Objective("stub", 2, Bounds.symmetric(10.0, 2), lambda x: next(values))
            return Swarm(replace(config, tau=tau), objective)

        swarm, unit = swarm_at(config.tau), swarm_at(1.0)
        assert step_multipliers(swarm, unit) == [1.0] * len(current)
        got = step_multipliers(swarm, unit)
        assert len(got) == len(current) == 266
        for now, then, scale in zip(current, past, got):
            particle = particle_with_history([then, now], lookback=1)
            assert scale == safeguard(particle, 1, config), (now, then)
        assert config.tau in got and 1.0 in got

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_unit_tau_changes_nothing(self, variant):
        # With tau = 1 a stagnant particle keeps its inertia, so the run
        # equals the one whose safeguard never fires (griewank 2D row).
        objective = make_objective("griewank", 2)
        for seed in range(3):
            config = sphere_config(bounds=objective.bounds, variant=variant, seed=seed)
            never = run(replace(config, lookback=config.iterations), objective, timing=False)
            unit = run(replace(config, tau=1.0), objective, timing=False)
            assert unit.best_value_trace.tobytes() == never.best_value_trace.tobytes()
            assert unit.final_position.tobytes() == never.final_position.tobytes()
            assert unit.evaluations == never.evaluations
            # The safeguard does fire on this row: tau enters a step through
            # it alone, and the particles end elsewhere at the default tau.
            swarm, twin = Swarm(config, objective), Swarm(replace(config, tau=1.0), objective)
            for _ in range(config.iterations):
                swarm.step()
                twin.step()
            assert swarm.positions.tobytes() != twin.positions.tobytes()


class _StubRng:
    """Replays a predetermined sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, size=None):
        count = int(np.prod(size)) if size is not None else 1
        out = np.array([self.values.pop(0) for _ in range(count)])
        return out.reshape(size) if size is not None else out[0]


class TestUpdateVelocity:
    def test_all_terms_vanish_at_consensus(self):
        point = np.array([1.0, -2.0])
        particle = Particle(
            position=point.copy(),
            velocity=np.zeros(2),
            best_position=point.copy(),
            best_value=0.0,
            value_history=deque(),
        )
        sched = ScheduleState(omega=0.7, c1=2.8, c2=2.05, vmax=5.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            update_velocity(particle, point, sched, rng), np.zeros(2)
        )

    def test_zero_draws_leave_pure_inertia(self):
        particle = Particle(
            position=np.array([1.0, 1.0]),
            velocity=np.array([3.0, -4.0]),
            best_position=np.array([0.0, 0.0]),
            best_value=0.0,
            value_history=deque(),
        )
        sched = ScheduleState(omega=0.5, c1=2.8, c2=2.05, vmax=1.2)
        got = update_velocity(particle, np.array([5.0, 5.0]), sched, _StubRng([0.0, 0.0]))
        np.testing.assert_array_equal(got, np.clip(0.5 * particle.velocity, -1.2, 1.2))

    def test_matches_transcription_oracle_on_random_states(self):
        rng = np.random.default_rng(101)
        sched = ScheduleState(omega=0.6, c1=2.5, c2=2.2, vmax=3.0)
        for _ in range(2500):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-5, 5, size=n)
            v = rng.uniform(-5, 5, size=n)
            pbest = rng.uniform(-5, 5, size=n)
            attractor = rng.uniform(-5, 5, size=n)
            scale = float(rng.uniform(0.5, 1.5))
            draws = rng.uniform(size=2).tolist()
            particle = Particle(
                position=x.copy(),
                velocity=v.copy(),
                best_position=pbest.copy(),
                best_value=0.0,
                value_history=deque(),
                omega_scale=scale,
            )
            got = update_velocity(particle, attractor, sched, _StubRng(list(draws)))
            r1, r2 = draws
            expected = (
                sched.omega * scale * v + sched.c1 * r1 * (pbest - x) + sched.c2 * r2 * (attractor - x)
            )
            np.testing.assert_allclose(got, np.clip(expected, -3.0, 3.0), rtol=1e-14)
            assert np.all(np.abs(got) <= sched.vmax)


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        good = dict(dimension=2, n_particles=6, bounds=Bounds.symmetric(1.0, 2))
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "n_particles": 0})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "iterations": 0})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "lookback": 0})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "tau": 0.0})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "gamma_floor": 0.0})
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match="^vmax0"):
                SwarmConfig(**{**good, "vmax0": value})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "variant": "hybrid"})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "bounds": Bounds.symmetric(1.0, 3)})
        for name in ("omega0", "c1_0", "c2_0", "vmax0", "tau", "gamma_floor"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    SwarmConfig(**{**good, name: value})
        # Counts and the seed are ints, refused at construction rather than
        # in the middle of a run; a bool is none.
        for name in ("dimension", "n_particles", "iterations", "lookback", "seed"):
            for value in (1.5, 20.0, True, "7", None):
                with pytest.raises(ValueError, match=f"^{name} must be an int"):
                    SwarmConfig(**{**good, name: value})

    def test_numpy_integers_are_ints(self):
        objective = make_objective("sphere", 2, Bounds.symmetric(1.0, 2))
        for seed in (3, -3):
            config = sphere_config(bounds=objective.bounds, iterations=20, lookback=5, seed=seed)
            counts = dict(dimension=np.int64(2), n_particles=np.int32(6), iterations=np.int64(20))
            numpy_config = replace(config, **counts, lookback=np.int64(5), seed=np.int64(seed))
            np.testing.assert_array_equal(
                run(numpy_config, objective).best_value_trace, run(config, objective).best_value_trace
            )

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_numpy_scalars_run_as_the_floats_they_equal(self, variant):
        # float32 arithmetic would round the speed caps and the inertia
        # scale; the config stores every coefficient as a float.
        objective = make_objective("sphere", 2, Bounds.from_pairs([[np.float32(-7.5), np.int64(9)]] * 2))
        coefficients = dict(
            omega0=np.float32(0.7), c1_0=np.float32(2.7), c2_0=np.int64(2),
            vmax0=np.float32(1.9), tau=np.float32(1.3), gamma_floor=np.float32(1e-9),
        )
        floats = {name: float(value) for name, value in coefficients.items()}
        base = sphere_config(bounds=objective.bounds, iterations=60, lookback=5, variant=variant)
        numpy_run = run(replace(base, **coefficients), objective)
        float_run = run(replace(base, **floats), objective)
        assert numpy_run.best_value_trace.tobytes() == float_run.best_value_trace.tobytes()
        assert numpy_run.final_position.tobytes() == float_run.final_position.tobytes()
        assert numpy_run.fallback_counts == float_run.fallback_counts

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_number_box_ends_run_as_the_floats_they_equal(self, variant):
        # Bounds stores every end as a float64, whatever number type it was.
        float_box = Bounds([-7.5, -3.0], [9.0, 4.0])
        for box in (
            Bounds(np.array([-7.5, -3], dtype=np.float32), np.array([9, 4], dtype=np.float32)),
            Bounds(np.array([-7.5, -3.0]), np.array([9, 4], dtype=np.int64)),
            Bounds([np.float32(-7.5), -3], [9, np.int64(4)]),
        ):
            runs = [
                run(
                    sphere_config(bounds=bounds, iterations=60, lookback=5, variant=variant),
                    make_objective("sphere", 2, bounds),
                )
                for bounds in (box, float_box)
            ]
            assert runs[0].best_value_trace.tobytes() == runs[1].best_value_trace.tobytes()
            assert runs[0].final_position.tobytes() == runs[1].final_position.tobytes()
            assert runs[0].fallback_counts == runs[1].fallback_counts

    def test_fewer_particles_than_interpolation_points_is_allowed(self):
        config = sphere_config(n_particles=3, variant=VARIANT_SURROGATE)
        assert config.n_particles < required_points(config.dimension)


class TestStep:
    def test_single_particle_at_optimum_is_a_fixed_point(self):
        config = sphere_config(n_particles=1, iterations=50)
        objective = make_objective("sphere", 2)
        swarm = Swarm(config, objective)
        swarm.positions = np.zeros((1, 2))
        swarm.velocities = np.zeros((1, 2))
        pbest_positions(swarm)[:] = 0.0
        for _ in range(10):
            swarm.step()
            np.testing.assert_array_equal(swarm.positions, np.zeros((1, 2)))
            np.testing.assert_array_equal(swarm.velocities, np.zeros((1, 2)))
        assert swarm.gbest_value == 0.0

    def test_sphere_first_iteration_accepts_origin_attractor(self):
        config = sphere_config(variant=VARIANT_SURROGATE, iterations=5, seed=3)
        objective = make_objective("sphere", 2)
        swarm = Swarm(config, objective)
        swarm.step()
        # archive holds the 6 initial evaluations plus the origin probe
        assert swarm.fallback_counts["none"] == 1
        assert swarm.gbest_value == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(swarm.gbest_position, np.zeros(2), atol=1e-8)
        assert swarm.trace[0] == swarm.gbest_value

    def test_nonfinite_evaluations_are_flagged_and_survived(self):
        calls = {"count": 0}

        def nasty(x):
            calls["count"] += 1
            return math.nan if calls["count"] <= 3 else float(np.sum(np.square(x)))

        objective = Objective(
            name="nasty", dimension=2, bounds=Bounds.symmetric(10.0, 2), evaluate=nasty
        )
        config = sphere_config(variant=VARIANT_SURROGATE, iterations=4, seed=1)
        record = run(config, objective, timing=False)
        assert record.nonfinite_iterations == (0,)
        assert np.all(np.isfinite(record.best_value_trace))
        assert record.final_value < math.inf

    def test_minus_inf_probe_is_not_accepted(self):
        # A pit of -inf around the origin: the surrogate proposes the origin
        # and must count its value as inf, as the swarm counts a particle's.
        pit_hits = []

        def pit_sphere(x):
            value = float(x @ x)
            if value < 1e-4:
                pit_hits.append(1)
                return -math.inf
            return value

        objective = Objective("pit", 2, Bounds.symmetric(10.0, 2), evaluate=pit_sphere)
        for seed in range(3):
            config = sphere_config(
                n_particles=10, iterations=100, variant=VARIANT_SURROGATE, seed=seed
            )
            record = run(config, objective, timing=False)
            assert math.isfinite(record.final_value)
            assert record.final_value == pit_sphere(record.final_position)
        assert pit_hits

    def test_all_nonfinite_first_iteration_keeps_running(self):
        calls = {"count": 0}

        def nan_then_fine(x):
            calls["count"] += 1
            return math.nan if calls["count"] <= 6 else float(np.sum(np.square(x)))

        objective = Objective(
            name="nasty", dimension=2, bounds=Bounds.symmetric(10.0, 2), evaluate=nan_then_fine
        )
        config = sphere_config(variant=VARIANT_SURROGATE, iterations=3, seed=5)
        record = run(config, objective, timing=False)
        assert 0 in record.nonfinite_iterations
        assert record.fallback_counts["too_few_points"] >= 1
        assert math.isfinite(record.final_value)


class TestAttractorIsTheGlobalBest:
    """Both variants pull every particle to the global best position, which
    the surrogate variant's probe has updated when it was accepted."""

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_after_every_step_on_every_benchmark_row(self, variant):
        for name, dim, particles, limit, _, _ in BENCHMARK_ROWS:
            objective = make_objective(name, dim, Bounds.symmetric(limit, dim))
            for seed in range(3):
                config = SwarmConfig(dim, particles, objective.bounds, variant=variant, seed=seed)
                swarm = Swarm(config, objective)
                for _ in range(config.iterations):
                    swarm.step()
                    assert (attractors(swarm) == swarm.gbest_position).all()

    def test_contracted_swarm_pulls_to_a_gbest_the_archive_refused(self):
        # The swarm lies on a line, so every fit is singular and no probe
        # moves the gbest. A particle then finds a better point within the
        # archive's duplicate radius of a stored one: the archive refuses it,
        # so the archive's best lags the gbest, and the swarm still pulls to
        # the gbest.
        objective = make_objective("sphere", 2)
        swarm = Swarm(sphere_config(variant=VARIANT_SURROGATE, iterations=2), objective)
        line = np.column_stack([np.arange(1.0, 7.0) * 1e-3, np.zeros(6)])
        swarm.positions = line.copy()
        swarm.step()
        assert swarm.fallback_counts[FALLBACK_SINGULAR_SYSTEM] == 1
        np.testing.assert_array_equal(swarm.gbest_position, line[0])
        contracted = line.copy()
        contracted[0, 0] -= 4e-13
        swarm.positions = contracted.copy()
        swarm.step()
        assert swarm.fallback_counts[FALLBACK_SINGULAR_SYSTEM] == 2
        stored = swarm.archive.best()
        np.testing.assert_array_equal(stored.position, line[0])
        assert math.dist(stored.position, contracted[0]) <= DUPLICATE_EPS
        assert swarm.gbest_value == objective.evaluate(contracted[0]) < stored.value
        np.testing.assert_array_equal(swarm.gbest_position, contracted[0])
        assert (attractors(swarm) == contracted[0]).all()


class TestRunTables:
    """The per-run tables built at start-up equal the per-iteration forms."""

    def test_tables_equal_schedule_and_per_iteration_draws(self):
        objective = make_objective("sphere", 3)
        config = SwarmConfig(
            dimension=3,
            n_particles=5,
            bounds=objective.bounds,
            iterations=37,
            seed=2**64 + 8,
        )
        swarm = Swarm(config, objective)
        rng = np.random.Generator(np.random.Philox(key=8))
        shape = (config.n_particles, 3)
        positions = rng.uniform(config.bounds.lo, config.bounds.hi, size=shape)
        v0 = schedule(0, config).vmax
        velocities = rng.uniform(-v0, v0, size=shape)
        assert swarm.positions.tobytes() == positions.tobytes()
        assert swarm.velocities.tobytes() == velocities.tobytes()
        assert len(swarm._omega) == len(swarm._vmax) == len(swarm._pulls) == 37
        for k in range(config.iterations):
            sched = schedule(k, config)
            assert swarm._omega[k] == sched.omega
            assert swarm._vmax[k] == sched.vmax
            r = rng.uniform(size=(2, config.n_particles, 1))
            # The tables spread a shared draw over the dimensions.
            for table, expected in zip(swarm._pulls[k], (sched.c1 * r[0], sched.c2 * r[1])):
                expected = np.broadcast_to(expected, shape)
                assert table.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_step_past_the_last_iteration_is_rejected(self):
        swarm = Swarm(sphere_config(iterations=2), make_objective("sphere", 2))
        swarm.step()
        swarm.step()
        with pytest.raises(ValueError):
            swarm.step()
        assert swarm.evaluations == 12


class TestParticleView:
    def test_snapshot_reflects_engine_state(self):
        config = sphere_config(lookback=4, iterations=30, seed=2, vmax0=1e6)
        objective = make_objective("sphere", 2)
        swarm = Swarm(config, objective)
        fired = 0
        for k in range(config.iterations):
            # a twin of the state before the step, at tau = 1
            unit = copy.deepcopy(swarm)
            unit.config = replace(config, tau=1.0)
            scales = step_multipliers(swarm, unit)
            views = [particle_view(swarm, i) for i in range(config.n_particles)]
            assert [view.omega_scale for view in views] == scales, k
            fired += scales.count(config.tau)
        assert fired > 0
        particle = particle_view(swarm, 3)
        np.testing.assert_array_equal(particle.position, swarm.positions[3])
        np.testing.assert_array_equal(particle.velocity, swarm.velocities[3])
        np.testing.assert_array_equal(particle.best_position, pbest_positions(swarm)[3])
        assert particle.best_value == swarm.pbest_values[3]
        # the history window holds the last lookback+1 values, newest last
        window = swarm._values[-(config.lookback + 1) :]
        assert list(particle.value_history) == [values[3] for values in window]
        # mutating the snapshot leaves the engine untouched
        particle.position[0] = 99.0
        assert swarm.positions[3, 0] != 99.0


def assert_same_state(swarm: Swarm, twin: Swarm):
    np.testing.assert_array_equal(swarm.positions, twin.positions)
    np.testing.assert_array_equal(swarm.velocities, twin.velocities)
    np.testing.assert_array_equal(pbest_positions(swarm), pbest_positions(twin))
    np.testing.assert_array_equal(swarm.gbest_position, twin.gbest_position)
    assert swarm.trace == twin.trace
    assert swarm.evaluations == twin.evaluations
    assert swarm.fallback_counts == twin.fallback_counts


class TestStateAliasing:
    """The step moves ``positions`` and ``velocities`` in place and makes
    ``gbest_position`` a fresh array each time it moves. A caller may rebind
    either state array, and the step then works on the new one."""

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_rebound_state_traces_as_an_untouched_twin(self, variant):
        objective = make_objective("griewank", 2)
        config = sphere_config(bounds=objective.bounds, iterations=120, variant=variant, seed=31)
        swarm, twin = Swarm(config, objective), Swarm(config, objective)
        for k in range(config.iterations):
            if k % 3 == 0:
                swarm.positions = swarm.positions.copy()
            if k % 4 == 0:
                swarm.velocities = swarm.velocities.copy()
            swarm.step()
            twin.step()
            assert_same_state(swarm, twin)

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_held_gbest_positions_keep_their_bits(self, variant):
        objective = make_objective("ackley", 2)
        config = sphere_config(bounds=objective.bounds, iterations=80, variant=variant, seed=32)
        swarm = Swarm(config, objective)
        held = []
        velocities = swarm.velocities
        for _ in range(config.iterations):
            swarm.step()
            if not held or swarm.gbest_position is not held[-1][0]:
                held.append((swarm.gbest_position, swarm.gbest_position.copy()))
        assert len(held) > 5
        for position, bits in held:
            np.testing.assert_array_equal(position, bits)
        # the velocities move in place, so a caller keeping them copies them
        assert swarm.velocities is velocities
        record = run(config, objective, timing=False)
        final = record.final_position.copy()
        np.testing.assert_array_equal(record.final_position, swarm.gbest_position)
        run(config, objective, timing=False)
        np.testing.assert_array_equal(record.final_position, final)

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_copy_of_a_dropped_swarm_rebinds_to_a_recycled_array(self, variant):
        # The copy outlives the swarm it was made from, and its positions
        # are rebound to a new array, which CPython often places at the
        # address (the id) of the dropped swarm's positions array.
        objective = make_objective("sphere", 2)
        config = sphere_config(iterations=20, variant=variant, seed=33)
        swarm, twin = Swarm(config, objective), Swarm(config, objective)
        for _ in range(3):
            swarm.step()
            twin.step()
        copied = copy.deepcopy(swarm)
        dropped = id(swarm.positions)
        del swarm
        spare = []
        for _ in range(1000):
            spare.append(np.empty_like(copied.positions))
            if id(spare[-1]) == dropped:
                break
        spare[-1][...] = copied.positions
        copied.positions = spare[-1]
        for _ in range(config.iterations - 3):
            copied.step()
            twin.step()
            assert_same_state(copied, twin)


class TestRun:
    def test_same_seed_is_bit_identical(self):
        objective = make_objective("griewank", 2)
        config = sphere_config(
            bounds=objective.bounds, variant=VARIANT_SURROGATE, iterations=60, seed=11
        )
        a = run(config, objective, timing=False)
        b = run(config, objective, timing=False)
        np.testing.assert_array_equal(a.best_value_trace, b.best_value_trace)
        np.testing.assert_array_equal(a.final_position, b.final_position)
        assert a.final_value == b.final_value
        assert a.evaluations == b.evaluations
        assert a.fallback_counts == b.fallback_counts
        assert a.wall_time == b.wall_time == 0.0

    def test_dimension_mismatch_fails_before_any_evaluation(self):
        objective = make_objective("sphere", 3)
        calls = {"count": 0}

        def counting(x):
            calls["count"] += 1
            return 0.0

        probe = Objective(
            name="probe", dimension=3, bounds=Bounds.symmetric(10.0, 3), evaluate=counting
        )
        with pytest.raises(ValueError):
            run(sphere_config(), probe, timing=False)
        assert calls["count"] == 0
        del objective

    def test_config_box_must_equal_objective_box(self):
        # Particles are clipped to the config box and proposals to the
        # objective's, so two different boxes would let a run leave the first.
        box = Bounds.from_pairs([[2.0, 5.0], [2.0, 5.0]])
        with pytest.raises(ValueError, match="bounds"):
            Swarm(sphere_config(bounds=box), make_objective("sphere", 2))
        # Equal values are enough; the objects need not be the same.
        objective = make_objective("sphere", 2, Bounds.from_pairs(box.to_pairs()))
        for seed in range(5):
            config = sphere_config(
                bounds=box, variant=VARIANT_SURROGATE, iterations=60, seed=seed
            )
            assert box.contains(run(config, objective, timing=False).final_position)

    def test_single_iteration_counts(self):
        objective = make_objective("sphere", 2)
        standard = run(
            sphere_config(iterations=1, seed=42), objective, timing=False
        )
        assert standard.best_value_trace.shape == (1,)
        assert standard.evaluations == 6
        surrogate = run(
            sphere_config(iterations=1, seed=42, variant=VARIANT_SURROGATE),
            objective,
            timing=False,
        )
        assert surrogate.best_value_trace.shape == (1,)
        assert surrogate.evaluations == 7  # the accepted attractor evaluation

    def test_sphere_surrogate_reaches_tight_tolerance(self):
        objective = make_objective("sphere", 2)
        for seed in (0, 1, 2):
            config = sphere_config(variant=VARIANT_SURROGATE, seed=seed)
            record = run(config, objective, timing=False)
            assert record.final_value <= 1e-6

    def test_trace_nonincreasing_and_final_matches(self):
        rng = np.random.default_rng(7)
        for name in ("sphere", "ackley", "flower", "griewank"):
            for variant in (VARIANT_STANDARD, VARIANT_SURROGATE):
                objective = make_objective(name, 2)
                config = SwarmConfig(
                    dimension=2,
                    n_particles=int(rng.integers(2, 9)),
                    bounds=objective.bounds,
                    iterations=40,
                    variant=variant,
                    seed=int(rng.integers(0, 1000)),
                )
                record = run(config, objective, timing=False)
                trace = record.best_value_trace
                assert np.all(np.diff(trace) <= 0)
                assert record.final_value == trace[-1]

    @pytest.mark.parametrize("name", ["sphere", "ackley"])
    def test_tiny_box_runs_the_surrogate_variant_as_the_standard_one(self, name):
        # Every point of a +-1e-300 box lies within the archive's duplicate
        # radius of the first, so the archive never holds enough points to fit.
        box = Bounds.symmetric(1e-300, 2)
        objective = make_objective(name, 2, box)
        for seed in range(5):
            config = sphere_config(bounds=box, iterations=20, seed=seed)
            standard = run(config, objective, timing=False)
            config = sphere_config(bounds=box, iterations=20, seed=seed, variant=VARIANT_SURROGATE)
            surrogate = run(config, objective, timing=False)
            assert surrogate.best_value_trace.tobytes() == standard.best_value_trace.tobytes()
            assert surrogate.final_position.tobytes() == standard.final_position.tobytes()
            assert surrogate.evaluations == standard.evaluations
            assert surrogate.fallback_counts["too_few_points"] == 20
            assert sum(surrogate.fallback_counts.values()) == 20

    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    @pytest.mark.parametrize(
        "name, dimension, pairs",
        [
            ("sphere", 6, None),
            ("flower", 5, None),
            # A box far from the origin, one of whose sides is 1e-6 wide.
            ("sphere", 2, [[1e5, 1e5 + 1e-6], [-1.0, 1.0]]),
            # So narrow that the archive, which merges points closer than its
            # duplicate radius, never holds enough of them to fit.
            ("ackley", 2, [[-5e-14, 5e-14], [-5e-14, 5e-14]]),
        ],
        ids=["sphere_6d", "flower_5d", "sphere_thin_far_box", "ackley_1e-13_box"],
    )
    def test_hostile_geometry_keeps_the_run_invariants(self, name, dimension, pairs, variant):
        # Only invariants: no value or fallback count is pinned.
        bounds = None if pairs is None else Bounds.from_pairs(pairs)
        objective = make_objective(name, dimension, bounds)
        config = SwarmConfig(
            dimension=dimension,
            n_particles=required_points(dimension),
            bounds=objective.bounds,
            iterations=40,
            variant=variant,
            seed=3,
        )
        record = run(config, objective, timing=False)
        trace = record.best_value_trace
        assert np.all(np.diff(trace) <= 0)
        assert record.final_value == trace[-1] == float(objective.evaluate(record.final_position))
        assert np.all(objective.bounds.lo <= record.final_position)
        assert np.all(record.final_position <= objective.bounds.hi)
        per_iteration = config.n_particles * config.iterations
        assert per_iteration <= record.evaluations <= per_iteration + config.iterations

    def test_record_wall_time_positive_when_timed(self):
        objective = make_objective("sphere", 2)
        record = run(sphere_config(iterations=5), objective)
        assert record.wall_time > 0


class TestStateInvariants:
    def test_positions_and_velocities_feasible_after_every_step(self):
        rng = np.random.default_rng(2024)
        checked = 0
        trial = 0
        while checked < 10_000:
            trial += 1
            dim = int(rng.integers(1, 4))
            limit = float(rng.uniform(0.5, 50.0))
            objective = make_objective(
                str(rng.choice(["sphere", "ackley", "flower", "griewank"])),
                dim,
                Bounds.symmetric(limit, dim),
            )
            config = SwarmConfig(
                dimension=dim,
                n_particles=int(rng.integers(1, 12)),
                bounds=objective.bounds,
                iterations=12,
                variant=str(rng.choice([VARIANT_STANDARD, VARIANT_SURROGATE])),
                seed=trial,
            )
            swarm = Swarm(config, objective)
            for k in range(config.iterations):
                vmax = schedule(k, config).vmax
                swarm.step()
                assert np.all(swarm.positions >= config.bounds.lo - 0.0)
                assert np.all(swarm.positions <= config.bounds.hi + 0.0)
                assert np.all(np.abs(swarm.velocities) <= vmax)
                checked += swarm.positions.size

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["sphere", "ackley", "flower", "griewank"]),
        dim=st.integers(1, 3),
        n_particles=st.integers(1, 10),
        iterations=st.integers(1, 25),
        variant=st.sampled_from([VARIANT_STANDARD, VARIANT_SURROGATE]),
        lookback=st.integers(1, 10),
        centers=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        half_widths=st.lists(st.floats(0.01, 50.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_invariants_over_drawn_configs(
        self, name, dim, centers, half_widths, **fields
    ):
        # Off-origin boxes: the minimum may lie outside the box.
        center, half = np.array(centers[:dim]), np.array(half_widths[:dim])
        objective = make_objective(name, dim, Bounds(center - half, center + half))
        config = SwarmConfig(dimension=dim, bounds=objective.bounds, **fields)
        calls = []

        def counting(x):
            calls.append(1)
            return objective.evaluate(x)

        counted = Objective(name, dim, objective.bounds, evaluate=counting)
        record = run(config, counted, timing=False)
        assert record.evaluations == len(calls)
        counts = record.fallback_counts
        # One evaluation per particle per iteration, plus one per surrogate
        # call that got as far as a new probe.
        probes = counts[FALLBACK_NONE] + counts[FALLBACK_NON_IMPROVING]
        assert record.evaluations == config.n_particles * config.iterations + probes
        surrogate_calls = config.iterations if config.variant == VARIANT_SURROGATE else 0
        assert sum(counts.values()) == surrogate_calls
        final = float(objective.evaluate(record.final_position))
        assert record.final_value == record.best_value_trace[-1] == final
        assert np.all(np.diff(record.best_value_trace) <= 0)
        assert np.all(objective.bounds.lo <= record.final_position)
        assert np.all(record.final_position <= objective.bounds.hi)
        again = run(config, objective, timing=False)
        assert again.best_value_trace.tobytes() == record.best_value_trace.tobytes()
        assert again.final_position.tobytes() == record.final_position.tobytes()

    def test_forced_fallback_matches_standard_bitwise(self):
        objective = make_objective("sphere", 2)
        for seed in range(5):
            base = dict(
                dimension=2,
                n_particles=5,
                bounds=objective.bounds,
                iterations=40,
                seed=seed,
            )
            standard = Swarm(SwarmConfig(**base, variant=VARIANT_STANDARD), objective)
            # An archive no run can fill: every surrogate call falls back.
            forced = Swarm(SwarmConfig(**base, variant=VARIANT_SURROGATE), objective)
            forced.archive = Archive(10**9)
            for _ in range(40):
                standard.step()
                forced.step()
                np.testing.assert_array_equal(standard.positions, forced.positions)
                np.testing.assert_array_equal(standard.velocities, forced.velocities)
            assert standard.trace == forced.trace
            assert standard.evaluations == forced.evaluations
            assert forced.fallback_counts["too_few_points"] == 40


def reference_step(state, objective, config, k, draws):
    """Per-particle reference of one iteration, built on the op surface."""
    positions, velocities, pbest_pos, pbest_val, histories, gbest = state[:6]
    n_particles = config.n_particles
    sched = schedule(k, config)
    values = []
    for i in range(n_particles):
        value = float(objective.evaluate(positions[i]))
        if not math.isfinite(value):
            value = math.inf
        values.append(value)
        if state[6] is not None:
            state[6].observe(positions[i], value)
    for i in range(n_particles):
        if values[i] < pbest_val[i]:
            pbest_val[i] = values[i]
            pbest_pos[i] = positions[i].copy()
        histories[i].append(values[i])
    best_i = min(range(n_particles), key=lambda i: values[i])
    if values[best_i] < gbest[1]:
        gbest[0] = positions[best_i].copy()
        gbest[1] = values[best_i]
    archive = state[6]
    if archive is not None and archive.size == archive.capacity:
        # The stored set's probe, fitted and evaluated at every step: no memo.
        points, stored = archive.sorted_points()
        _, probe = surrogate_attractor(points, stored, config.bounds)
        if probe is not None:
            value = float(state[7].evaluate(probe))
            if not math.isfinite(value):
                value = math.inf
            archive.observe(probe, value)
            if value < gbest[1]:
                gbest[0] = probe.copy()
                gbest[1] = value
    attractor = gbest[0]
    new_velocities = []
    new_positions = []
    for i in range(n_particles):
        particle = Particle(
            position=positions[i],
            velocity=velocities[i],
            best_position=pbest_pos[i],
            best_value=pbest_val[i],
            value_history=histories[i],
        )
        particle.omega_scale = safeguard(particle, k, config)
        r1, r2 = draws[0, i, 0], draws[1, i, 0]
        velocity = update_velocity(particle, attractor, sched, _StubRng([r1, r2]))
        new_velocities.append(velocity)
        new_positions.append(clip_to_bounds(positions[i] + velocity, config.bounds))
    return (
        [p.copy() for p in new_positions],
        [v.copy() for v in new_velocities],
        pbest_pos,
        pbest_val,
        histories,
        gbest,
        archive,
        state[7],
    ), gbest[1]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("variant", [VARIANT_STANDARD, VARIANT_SURROGATE])
    def test_vectorized_engine_equals_per_particle_ops(self, variant):
        objective = make_objective("griewank", 2)
        config = SwarmConfig(
            dimension=2,
            n_particles=6,
            bounds=objective.bounds,
            iterations=80,
            variant=variant,
            seed=99,
        )
        swarm = Swarm(config, objective)

        # replay the engine's documented stream layout
        rng = np.random.Generator(np.random.Philox(key=config.seed))
        positions = rng.uniform(
            config.bounds.lo, config.bounds.hi, size=(config.n_particles, 2)
        )
        v0 = schedule(0, config).vmax
        velocities = rng.uniform(-v0, v0, size=(config.n_particles, 2))
        archive = (
            Archive(required_points(2)) if variant == VARIANT_SURROGATE else None
        )
        state = (
            [p.copy() for p in positions],
            [v.copy() for v in velocities],
            [p.copy() for p in positions],
            [math.inf] * config.n_particles,
            [deque(maxlen=config.lookback + 1) for _ in range(config.n_particles)],
            [positions[0].copy(), math.inf],
            archive,
            objective,
        )
        for k in range(config.iterations):
            draws = rng.uniform(size=(2, config.n_particles, 1))
            state, ref_best = reference_step(list(state), objective, config, k, draws)
            swarm.step()
            np.testing.assert_array_equal(swarm.positions, np.stack(state[0]))
            np.testing.assert_array_equal(swarm.velocities, np.stack(state[1]))
            assert swarm.trace[-1] == ref_best
