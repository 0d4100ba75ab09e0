"""Quadratic fitting, analytic minimization, and the attractor policy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qswarm import surrogate
from qswarm.archive import Archive, ArchiveEntry
from qswarm.objectives import Bounds, Objective, clip_to_bounds, make_objective
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE
from qswarm.surrogate import (
    FALLBACK_NON_IMPROVING,
    FALLBACK_NONE,
    FALLBACK_REASONS,
    FALLBACK_SINGULAR_QUADRATIC,
    FALLBACK_SINGULAR_SYSTEM,
    FALLBACK_TOO_FEW_POINTS,
    QuadraticModel,
    SingularMatrixError,
    SurrogateResult,
    build_design_matrix,
    fit,
    minimize,
    required_points,
    solve_pivoted,
    surrogate_attractor,
)


def random_spd_quadratic(rng, dim, cond=100.0):
    """Ground-truth quadratic with SPD quadratic term of bounded condition."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.exp(rng.uniform(0.0, math.log(cond), size=dim))
    quad = basis @ np.diag(eigs) @ basis.T
    quad = 0.5 * (quad + quad.T)
    linear = rng.normal(size=dim)
    const = float(rng.normal())
    return QuadraticModel(const=const, linear=linear, quad=quad)


def sample_points(rng, dim, count, max_design_cond=1e8):
    """Random sample layouts rejected until the design matrix is usable."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(count, dim))
        if np.linalg.cond(build_design_matrix(pts)) < max_design_cond:
            return pts


class TestRequiredPoints:
    def test_known_counts(self):
        assert required_points(1) == 3
        assert required_points(2) == 6
        assert required_points(3) == 10
        assert required_points(4) == 15

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            required_points(0)
        with pytest.raises(ValueError):
            required_points(-3)


class TestDesignMatrix:
    def test_one_dimensional_rows(self):
        m = build_design_matrix([[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(m, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])

    def test_two_dimensional_column_order(self):
        x, y = 2.0, 3.0
        points = [[x, y], [0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
        m = build_design_matrix(points)
        np.testing.assert_array_equal(m[0], [1, x, y, x * x, x * y, y * y])

    def test_random_entries_match_products(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            count = required_points(dim)
            pts = rng.uniform(-5, 5, size=(count, dim))
            m = build_design_matrix(pts)
            for row in range(count):
                col = 1 + dim
                for i in range(dim):
                    for j in range(i, dim):
                        assert m[row, col] == pts[row, i] * pts[row, j]
                        col += 1

    def test_wrong_point_count_is_an_error(self):
        with pytest.raises(ValueError):
            build_design_matrix([[0.0, 0.0], [1.0, 1.0]])


SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_PROBE = """
import sys
import qswarm.cli
from qswarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig, make_objective, run
print("import", "scipy" in sys.modules)
objective = make_objective("sphere", 2)
for variant in (VARIANT_STANDARD, VARIANT_SURROGATE):
    config = SwarmConfig(
        dimension=2, n_particles=6, bounds=objective.bounds, iterations=20, variant=variant
    )
    run(config, objective)
    print(variant, "scipy" in sys.modules)
"""


def _fresh_python(code: str) -> list[str]:
    """Words a fresh interpreter prints; this one has long loaded scipy
    through other tests."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()


def test_scipy_loads_at_the_first_surrogate_fit():
    assert _fresh_python(SCIPY_PROBE) == [
        "import", "False",
        VARIANT_STANDARD, "False",
        VARIANT_SURROGATE, "True",
    ]


FIRST_RUN_PROBE = """
import sys, time, types
import qswarm.swarm
from qswarm import VARIANT_SURROGATE, SwarmConfig, make_objective, run

def watched_clock():
    print("clock", "scipy" in sys.modules)
    return time.perf_counter()

qswarm.swarm.time = types.SimpleNamespace(perf_counter=watched_clock)
objective = make_objective("ackley", 2)
config = SwarmConfig(
    dimension=2, n_particles=20, bounds=objective.bounds, variant=VARIANT_SURROGATE
)
first = run(config, objective).wall_time
second = run(config, objective).wall_time
print("walls", first, second)
"""


def test_first_timed_surrogate_run_does_not_time_the_scipy_import():
    words = _fresh_python(FIRST_RUN_PROBE)
    # Each timed run reads the clock twice; scipy is in place at the first read.
    assert words[:8] == ["clock", "True"] * 4
    first, second = (float(w) for w in words[9:])
    # The import takes some 0.3 s; a run of this size some 0.05 s.
    assert first < 2 * second + 0.1


class TestSolvePivoted:
    def test_agrees_with_numpy_solve(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
            b = rng.normal(size=6)
            np.testing.assert_allclose(solve_pivoted(a, b), np.linalg.solve(a, b), rtol=1e-10)

    def test_rejects_singular(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_pivoted(a, np.ones(2))
        with pytest.raises(SingularMatrixError):
            solve_pivoted(np.zeros((2, 2)), np.ones(2))


class TestFit:
    def test_recovers_parabola_in_1d(self):
        points = [[-1.0], [0.0], [2.0]]
        values = [x[0] ** 2 for x in points]
        model = fit(points, values)
        assert model.const == pytest.approx(0.0, abs=1e-12)
        assert model.linear[0] == pytest.approx(0.0, abs=1e-12)
        assert model.quad[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_sphere_is_its_own_surrogate(self):
        rng = np.random.default_rng(21)
        pts = sample_points(rng, 2, 6)
        values = [float(p @ p) for p in pts]
        model = fit(pts, values)
        assert model.const == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(model.linear, 0.0, atol=1e-8)
        np.testing.assert_allclose(model.quad, np.eye(2), atol=1e-8)

    def test_round_trip_recovers_random_quadratics(self):
        rng = np.random.default_rng(33)
        for dim in (1, 2, 3, 4):
            for _ in range(25):
                truth = random_spd_quadratic(rng, dim)
                pts = sample_points(rng, dim, required_points(dim))
                values = [truth(p) for p in pts]
                model = fit(pts, values)
                scale = max(abs(truth.const), np.abs(truth.linear).max(), np.abs(truth.quad).max())
                assert abs(model.const - truth.const) <= 1e-6 * scale
                np.testing.assert_allclose(model.linear, truth.linear, atol=1e-6 * scale)
                np.testing.assert_allclose(model.quad, truth.quad, atol=1e-6 * scale)

    def test_interpolates_fitting_points(self):
        rng = np.random.default_rng(55)
        for dim in (1, 2, 3):
            pts = sample_points(rng, dim, required_points(dim))
            values = [float(np.sin(p).sum() + p @ p) for p in pts]
            model = fit(pts, values)
            for p, v in zip(pts, values):
                assert model(p) == pytest.approx(v, rel=1e-8, abs=1e-10)

    def test_quad_exactly_symmetric(self):
        rng = np.random.default_rng(60)
        pts = sample_points(rng, 3, required_points(3))
        values = rng.normal(size=len(pts))
        model = fit(pts, values)
        np.testing.assert_array_equal(model.quad, model.quad.T)

    def test_collinear_points_are_singular(self):
        t = np.linspace(0.0, 1.0, 6)
        pts = np.column_stack([t, 2.0 * t])  # all six on a line
        with pytest.raises(SingularMatrixError):
            fit(pts, np.ones(6))

    def test_count_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            fit([[0.0, 0.0]] * 6, [0.0] * 5)


class TestMinimize:
    def test_identity_bowl(self):
        model = QuadraticModel(0.0, np.zeros(3), np.eye(3))
        np.testing.assert_allclose(minimize(model), np.zeros(3), atol=1e-14)

    def test_complete_the_square(self):
        # (x - 3)^2 = 9 - 6x + x^2
        model = QuadraticModel(9.0, np.array([-6.0]), np.array([[1.0]]))
        assert minimize(model)[0] == pytest.approx(3.0, rel=1e-12)

    def test_gradient_vanishes_at_minimizer(self):
        rng = np.random.default_rng(44)
        for dim in (1, 2, 3, 4):
            for _ in range(25):
                model = random_spd_quadratic(rng, dim)
                x_min = minimize(model)
                gradient = model.linear + 2.0 * model.quad @ x_min
                assert np.linalg.norm(gradient) <= 1e-8 * max(1.0, np.linalg.norm(model.linear))

    def test_singular_quadratic_term(self):
        model = QuadraticModel(0.0, np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            minimize(model)


def archive_from(points, values, capacity):
    archive = Archive(capacity)
    for p, v in zip(points, values):
        archive.observe(np.asarray(p, dtype=float), float(v))
    return archive


class TestSurrogateAttractor:
    def test_sphere_archive_proposes_origin(self):
        rng = np.random.default_rng(70)
        objective = make_objective("sphere", 2)
        pts = sample_points(rng, 2, 6) * 5.0
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
        worst = max(archive.values())
        result = surrogate_attractor(archive, objective, ArchiveEntry(worst, pts[0]))
        assert not result.used_fallback
        assert result.fallback_reason == FALLBACK_NONE
        np.testing.assert_allclose(result.x_min, np.zeros(2), atol=1e-8)
        assert result.f_min == pytest.approx(0.0, abs=1e-14)
        # the evaluated point was offered back to the archive
        assert archive.best().value == result.f_min

    def test_too_few_points_falls_back_to_global_best(self):
        objective = make_objective("sphere", 2)
        pts = [np.array([float(i), 1.0]) for i in range(5)]
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
        global_best = ArchiveEntry(0.5, np.array([0.25, 0.25]))
        result = surrogate_attractor(archive, objective, global_best)
        assert result.used_fallback
        assert result.fallback_reason == FALLBACK_TOO_FEW_POINTS
        np.testing.assert_array_equal(result.x_min, global_best.position)
        assert result.f_min == global_best.value

    def test_partially_filled_large_capacity_falls_back(self):
        # capacity above the observation count forces the fallback even when
        # enough points exist for the fit: the archive must be full first
        objective = make_objective("sphere", 2)
        rng = np.random.default_rng(71)
        pts = rng.uniform(-1.0, 1.0, size=(10, 2))
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 1000)
        best = archive.best()
        result = surrogate_attractor(archive, objective, best)
        assert result.fallback_reason == FALLBACK_TOO_FEW_POINTS

    def test_singular_geometry_falls_back_to_archive_best(self):
        objective = make_objective("sphere", 2)
        t = np.linspace(0.1, 1.0, 6)
        pts = np.column_stack([t, t])  # collinear
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
        result = surrogate_attractor(archive, objective, archive.best())
        assert result.fallback_reason == FALLBACK_SINGULAR_SYSTEM
        best = archive.best()
        np.testing.assert_array_equal(result.x_min, best.position)
        assert result.f_min == best.value

    def test_affine_archive_values_fall_back_to_archive_best(self):
        # Affine samples leave no usable curvature: the fitted quadratic term
        # is rounding noise, so whatever the proposal is, it cannot improve
        # and the attractor falls back to the archive best.
        rng = np.random.default_rng(72)
        objective = make_objective("sphere", 2)
        pts = sample_points(rng, 2, 6)
        values = [1.0 + 2.0 * p[0] - 0.5 * p[1] for p in pts]  # affine data
        archive = Archive(6)
        for p, v in zip(pts, values):
            archive.observe(p, v)
        best = archive.best()
        result = surrogate_attractor(archive, objective, best)
        assert result.used_fallback
        assert result.fallback_reason in (
            FALLBACK_SINGULAR_QUADRATIC,
            FALLBACK_NON_IMPROVING,
        )
        np.testing.assert_array_equal(result.x_min, best.position)

    def test_non_improving_branch_on_local_basin(self):
        # Archive clustered in a Ackley local basin away from the origin: the
        # surrogate minimizer stays in the basin, so it cannot improve on a
        # global best near the true optimum.
        rng = np.random.default_rng(73)
        objective = make_objective("ackley", 2)
        cloud = rng.uniform(1.6, 2.4, size=(200, 2))
        values = [objective.evaluate(p) for p in cloud]
        archive = archive_from(cloud, values, 6)

        strong_best = ArchiveEntry(1e-9, np.zeros(2))
        result = surrogate_attractor(archive, objective, strong_best)
        assert result.used_fallback
        assert result.fallback_reason == FALLBACK_NON_IMPROVING
        best = archive.best()
        np.testing.assert_array_equal(result.x_min, best.position)
        assert result.f_min == best.value

        # with a weak incumbent the same archive yields an accepted attractor
        weak_best = ArchiveEntry(1e9, np.zeros(2))
        accepted = surrogate_attractor(archive, objective, weak_best)
        assert not accepted.used_fallback
        assert accepted.f_min == pytest.approx(
            objective.evaluate(accepted.x_min), rel=1e-14
        )
        assert accepted.f_min < weak_best.value

    def test_attractor_value_never_exceeds_global_best(self):
        rng = np.random.default_rng(74)
        objective = make_objective("griewank", 2)
        for _ in range(50):
            count = int(rng.integers(1, 12))
            pts = rng.uniform(-100, 100, size=(count, 2))
            archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
            best = archive.best()
            result = surrogate_attractor(archive, objective, best)
            assert result.f_min <= best.value
            if not result.used_fallback:
                assert result.f_min < best.value  # strict when accepted

    def test_total_on_any_nonempty_archive(self):
        rng = np.random.default_rng(75)
        objective = make_objective("flower", 2)
        for trial in range(100):
            count = int(rng.integers(1, 15))
            pts = rng.uniform(-100, 100, size=(count, 2))
            archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
            result = surrogate_attractor(archive, objective, archive.best())
            assert isinstance(result, SurrogateResult)
            assert np.all(np.isfinite(result.x_min))

    def test_empty_archive_falls_back_to_global_best(self):
        objective = make_objective("sphere", 2)
        global_best = ArchiveEntry(3.0, np.array([1.0, 1.0]))
        archive = Archive(6)
        result = surrogate_attractor(archive, objective, global_best)
        assert result.fallback_reason == FALLBACK_TOO_FEW_POINTS
        assert not result.evaluated
        np.testing.assert_array_equal(result.x_min, global_best.position)
        assert result.f_min == global_best.value
        assert archive.size == 0

    def test_evaluated_matches_the_objective_calls(self):
        rng = np.random.default_rng(77)
        calls = []

        def counting(x):
            calls.append(1)
            return float(x @ x)

        objective = Objective("probe", 2, Bounds.symmetric(10.0, 2), evaluate=counting)
        seen = set()
        for trial in range(200):
            count = int(rng.integers(0, 9))
            # Collinear layouts make the fit singular; the rest propose.
            pts = rng.uniform(-5, 5, size=(count, 2)) * (1.0, trial % 3 != 0)
            archive = archive_from(pts, [p @ p for p in pts], 6)
            # The sphere fit is exact, so only a negative best rejects it.
            best = ArchiveEntry(float(rng.uniform(-5, 50)), np.zeros(2))
            calls.clear()
            result = surrogate_attractor(archive, objective, best)
            assert len(calls) == result.evaluated
            seen.add(result.fallback_reason)
        assert seen >= {
            FALLBACK_NONE,
            FALLBACK_TOO_FEW_POINTS,
            FALLBACK_SINGULAR_SYSTEM,
            FALLBACK_NON_IMPROVING,
        }

    def test_out_of_bounds_minimizer_is_clipped_before_evaluation(self):
        # data from a bowl centered outside the box: the proposal lands on
        # the boundary and the evaluation happens at the clipped point
        objective = make_objective("sphere", 2)  # bounds [-10, 10]^2
        rng = np.random.default_rng(76)
        pts = sample_points(rng, 2, 6) + np.array([9.5, 0.0])
        center = np.array([25.0, 0.0])
        values = [float((p - center) @ (p - center)) for p in pts]
        archive = Archive(6)
        for p, v in zip(pts, values):
            archive.observe(p, v)
        result = surrogate_attractor(archive, objective, ArchiveEntry(1e9, np.zeros(2)))
        assert not result.used_fallback
        assert result.x_min[0] == pytest.approx(10.0)
        assert result.f_min == pytest.approx(objective.evaluate(result.x_min), rel=1e-14)


class TestResultValidation:
    def test_flag_must_mirror_reason(self):
        for reason in FALLBACK_REASONS:
            result = SurrogateResult(np.zeros(2), 0.0, reason)
            assert result.used_fallback == (reason != FALLBACK_NONE)
            proposed = reason in (FALLBACK_NONE, FALLBACK_NON_IMPROVING)
            assert result.evaluated == proposed
        with pytest.raises(ValueError):
            SurrogateResult(np.zeros(2), 0.0, "because")


class TestProposalMemo:
    """The proposal is refit only when the archive stores a point or the
    bounds change; hits must reproduce a fresh fit bit for bit."""

    @staticmethod
    def bowl_archive():
        # samples of a bowl centered at (1, 2), inside the [-10, 10]^2 box
        rng = np.random.default_rng(80)
        pts = sample_points(rng, 2, 6)
        center = np.array([1.0, 2.0])
        return archive_from(pts, [float((p - center) @ (p - center)) for p in pts], 6)

    @staticmethod
    def flat_objective(bounds, evaluations):
        # a probe value far above every archived value is never stored
        def evaluate(x):
            evaluations.append(np.array(x))
            return 1e6

        return Objective("flat", bounds.dimension, bounds, evaluate)

    @staticmethod
    def counting_fit(monkeypatch):
        calls = []
        real = surrogate.fit

        def wrapped(points, values):
            calls.append(1)
            return real(points, values)

        monkeypatch.setattr(surrogate, "fit", wrapped)
        return calls

    @staticmethod
    def fresh_proposal(archive, bounds):
        points, values = archive.sorted_points()
        return clip_to_bounds(minimize(fit(np.stack(points), values)), bounds)

    def test_hit_skips_fit_and_matches_fresh_fit(self, monkeypatch):
        archive = self.bowl_archive()
        evaluations = []
        objective = self.flat_objective(Bounds.symmetric(10.0, 2), evaluations)
        fits = self.counting_fit(monkeypatch)
        weak_best = ArchiveEntry(1e9, np.zeros(2))
        first = surrogate_attractor(archive, objective, weak_best)
        version = archive.version
        second = surrogate_attractor(archive, objective, weak_best)
        assert archive.version == version
        assert len(fits) == 1
        assert len(evaluations) == 2  # a hit still evaluates the proposal
        assert not second.used_fallback
        assert second.f_min == 1e6
        assert np.array_equal(second.x_min, first.x_min)
        assert np.array_equal(second.x_min, self.fresh_proposal(archive, objective.bounds))
        assert not second.x_min.flags.writeable

    def test_stored_observation_invalidates(self, monkeypatch):
        archive = self.bowl_archive()
        objective = self.flat_objective(Bounds.symmetric(10.0, 2), [])
        fits = self.counting_fit(monkeypatch)
        weak_best = ArchiveEntry(1e9, np.zeros(2))
        first = surrogate_attractor(archive, objective, weak_best)
        assert archive.observe(np.array([1.5, 2.5]), 0.0)
        second = surrogate_attractor(archive, objective, weak_best)
        assert len(fits) == 2
        assert np.array_equal(second.x_min, self.fresh_proposal(archive, objective.bounds))
        assert not np.array_equal(second.x_min, first.x_min)

    def test_different_bounds_recompute(self, monkeypatch):
        archive = self.bowl_archive()
        wide = self.flat_objective(Bounds.symmetric(10.0, 2), [])
        narrow = self.flat_objective(Bounds.symmetric(1.5, 2), [])
        fits = self.counting_fit(monkeypatch)
        weak_best = ArchiveEntry(1e9, np.zeros(2))
        surrogate_attractor(archive, wide, weak_best)
        clipped = surrogate_attractor(archive, narrow, weak_best)
        assert len(fits) == 2
        assert clipped.x_min[1] == 1.5
        assert np.array_equal(clipped.x_min, self.fresh_proposal(archive, narrow.bounds))

    def test_cached_singular_reason_returns_archive_best(self, monkeypatch):
        objective = make_objective("sphere", 2)
        t = np.linspace(0.1, 1.0, 6)
        pts = np.column_stack([t, t])  # collinear
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
        fits = self.counting_fit(monkeypatch)
        results = [surrogate_attractor(archive, objective, archive.best()) for _ in range(2)]
        assert len(fits) == 1
        best = archive.best()
        for result in results:
            assert result.fallback_reason == FALLBACK_SINGULAR_SYSTEM
            np.testing.assert_array_equal(result.x_min, best.position)
            assert result.f_min == best.value
