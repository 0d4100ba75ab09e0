"""Engine semantics: schedules, safeguard, velocity rule, steps, runs.

The vectorized engine is checked against a per-particle transcription of the
update rules (``Particle``, ``safeguard``, ``update_velocity``) defined here.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswarm.archive import Archive, ArchiveEntry
from qswarm.objectives import Bounds, Objective, clip_to_bounds, make_objective
from qswarm.surrogate import (
    FALLBACK_NON_IMPROVING,
    FALLBACK_NONE,
    required_points,
    surrogate_attractor,
)
from qswarm.swarm import (
    VARIANT_STANDARD,
    VARIANT_SURROGATE,
    ScheduleState,
    Swarm,
    SwarmConfig,
    _stagnation_multipliers,
    run,
    schedule,
)


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
    per_dimension: bool = False,
) -> np.ndarray:
    """New velocity for one particle, clipped to the current speed cap.

    Draws r1 then r2 from ``rng``: one shared U[0,1] value each by default,
    or one per dimension with ``per_dimension=True``. The inertia term uses
    ``particle.omega_scale``, which carries the safeguard result.
    """
    x = particle.position
    n = x.size if per_dimension else 1
    r1 = rng.uniform(size=n)
    r2 = rng.uniform(size=n)
    v = (
        sched.omega * particle.omega_scale * particle.velocity
        + sched.c1 * r1 * (particle.best_position - x)
        + sched.c2 * r2 * (np.asarray(attractor, dtype=float) - x)
    )
    return np.clip(v, -sched.vmax, sched.vmax)


def particle_view(swarm: Swarm, i: int) -> Particle:
    """Snapshot of particle ``i`` of the engine in per-particle form."""
    lookback = swarm.config.lookback
    k = swarm.iteration
    depth = min(k, lookback + 1)
    history = deque(
        (swarm._history[j % (lookback + 1)][i] for j in range(k - depth, k)),
        maxlen=lookback + 1,
    )
    return Particle(
        position=swarm.positions[i].copy(),
        velocity=swarm.velocities[i].copy(),
        best_position=swarm.pbest_positions[i].copy(),
        best_value=float(swarm.pbest_values[i]),
        value_history=history,
        omega_scale=float(swarm.omega_scale[i]),
    )


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

    def test_out_of_range_iteration_rejected(self):
        config = sphere_config()
        with pytest.raises(ValueError):
            schedule(-1, config)
        with pytest.raises(ValueError):
            schedule(config.iterations + 1, config)


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

    def test_vectorized_helper_matches_scalar_op(self):
        config = sphere_config(lookback=1)
        rng = np.random.default_rng(13)
        current = rng.uniform(-2, 2, size=200)
        past = rng.uniform(-2, 2, size=200)
        past[::17] = 0.0
        # every pair of non-finite, zero and extreme values as well
        edge = [math.inf, -math.inf, math.nan, 0.0, 1.0, -2.5, 1e308, -1e308]
        current = current.tolist() + [now for now in edge for _ in edge]
        past = past.tolist() + [then for _ in edge for then in edge]
        vector = _stagnation_multipliers(current, past, config.tau, config.gamma_floor)
        for now, then, got in zip(current, past, vector):
            particle = particle_with_history([then, now], lookback=1)
            assert got == safeguard(particle, 1, config), (now, then)


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

    @pytest.mark.parametrize("per_dimension", [False, True])
    def test_matches_transcription_oracle_on_random_states(self, per_dimension):
        rng = np.random.default_rng(101)
        sched = ScheduleState(omega=0.6, c1=2.5, c2=2.2, vmax=3.0)
        for _ in range(2500):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-5, 5, size=n)
            v = rng.uniform(-5, 5, size=n)
            pbest = rng.uniform(-5, 5, size=n)
            attractor = rng.uniform(-5, 5, size=n)
            scale = float(rng.uniform(0.5, 1.5))
            draws = rng.uniform(size=2 * (n if per_dimension else 1)).tolist()
            particle = Particle(
                position=x.copy(),
                velocity=v.copy(),
                best_position=pbest.copy(),
                best_value=0.0,
                value_history=deque(),
                omega_scale=scale,
            )
            got = update_velocity(
                particle, attractor, sched, _StubRng(list(draws)), per_dimension
            )
            if per_dimension:
                r1 = np.array(draws[:n])
                r2 = np.array(draws[n:])
            else:
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
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "variant": "hybrid"})
        with pytest.raises(ValueError):
            SwarmConfig(**{**good, "bounds": Bounds.symmetric(1.0, 3)})
        for name in ("omega0", "c1_0", "c2_0", "vmax0", "tau", "gamma_floor"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    SwarmConfig(**{**good, name: value})

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
        swarm.pbest_positions = np.zeros((1, 2))
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


class TestRunTables:
    """The per-run tables built at start-up equal the per-iteration forms."""

    @pytest.mark.parametrize("per_dimension", [False, True])
    def test_tables_equal_schedule_and_per_iteration_draws(self, per_dimension):
        objective = make_objective("sphere", 3)
        config = SwarmConfig(
            dimension=3,
            n_particles=5,
            bounds=objective.bounds,
            iterations=37,
            seed=2**64 + 8,
            per_dimension_draws=per_dimension,
        )
        swarm = Swarm(config, objective)
        rng = np.random.Generator(np.random.Philox(key=8))
        shape = (config.n_particles, 3)
        positions = rng.uniform(config.bounds.lo, config.bounds.hi, size=shape)
        v0 = schedule(0, config).vmax
        velocities = rng.uniform(-v0, v0, size=shape)
        assert swarm.positions.tobytes() == positions.tobytes()
        assert swarm.velocities.tobytes() == velocities.tobytes()
        r_dims = 3 if per_dimension else 1
        assert len(swarm._omega) == len(swarm._vmax) == len(swarm._pulls) == 37
        for k in range(config.iterations):
            sched = schedule(k, config)
            assert swarm._omega[k] == sched.omega
            assert swarm._vmax[k] == sched.vmax
            r = rng.uniform(size=(2, config.n_particles, r_dims))
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
        config = sphere_config(lookback=4, iterations=30, seed=2)
        objective = make_objective("sphere", 2)
        swarm = Swarm(config, objective)
        for _ in range(7):
            swarm.step()
        particle = particle_view(swarm, 3)
        np.testing.assert_array_equal(particle.position, swarm.positions[3])
        np.testing.assert_array_equal(particle.velocity, swarm.velocities[3])
        np.testing.assert_array_equal(particle.best_position, swarm.pbest_positions[3])
        assert particle.best_value == swarm.pbest_values[3]
        assert particle.omega_scale == swarm.omega_scale[3]
        # the history window holds the last lookback+1 values, newest last
        assert len(particle.value_history) == config.lookback + 1
        assert particle.value_history[-1] == swarm._history[6 % (config.lookback + 1)][3]
        # mutating the snapshot leaves the engine untouched
        particle.position[0] = 99.0
        assert swarm.positions[3, 0] != 99.0


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
                per_dimension_draws=bool(rng.integers(0, 2)),
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
        per_dimension_draws=st.booleans(),
        lookback=st.integers(1, 10),
        archive_capacity=st.none() | st.integers(1, 12),
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
            forced = Swarm(
                SwarmConfig(
                    **base, variant=VARIANT_SURROGATE, archive_capacity=10**9
                ),
                objective,
            )
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
    if archive is None:
        attractor = gbest[0]
    else:
        result = surrogate_attractor(
            archive, state[7], ArchiveEntry(gbest[1], gbest[0])
        )
        attractor = result.x_min
        if not result.used_fallback:
            gbest[0] = result.x_min.copy()
            gbest[1] = result.f_min
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
