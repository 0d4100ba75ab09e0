"""Objective functions, bounds, and registry behavior.

Each objective is checked against an independently written single-expression
oracle on random points, plus hand-computed spot values.
"""

import math

import numpy as np
import pytest

from qswarm.objectives import (
    Bounds,
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

# Independent one-expression oracles (kept deliberately separate from the
# package implementations).


def oracle_sphere(xs):
    return sum(v * v for v in xs)


def oracle_flower(xs):
    return sum(math.log(abs(v) + 1.0) for v in xs)


def oracle_ackley(xs):
    n = len(xs)
    return (
        -20.0 * math.exp(-0.2 * math.sqrt(sum(v * v for v in xs) / n))
        - math.exp(sum(math.cos(2.0 * math.pi * v) for v in xs) / n)
        + 20.0
        + math.e
    )


def oracle_griewank(xs):
    return (
        sum(v * v for v in xs) / 4000.0
        - math.prod(math.cos(v / math.sqrt(i)) for i, v in enumerate(xs, 1))
        + 1.0
    )


ORACLES = {
    eval_sphere: oracle_sphere,
    eval_flower: oracle_flower,
    eval_ackley: oracle_ackley,
    eval_griewank: oracle_griewank,
}


class TestSpotValues:
    def test_sphere_origin(self):
        assert eval_sphere(np.zeros(2)) == 0.0

    def test_sphere_123(self):
        assert eval_sphere(np.array([1.0, 2.0, 3.0])) == 14.0

    def test_flower_origin(self):
        assert eval_flower(np.zeros(2)) == 0.0

    def test_flower_log_units(self):
        x = np.array([math.e - 1.0, math.e - 1.0])
        assert eval_flower(x) == pytest.approx(2.0, rel=1e-14)

    def test_flower_mixed_coordinates(self):
        x = np.array([math.e**2 - 1.0, 0.0, math.e - 1.0])
        assert eval_flower(x) == pytest.approx(3.0, rel=1e-14)

    def test_ackley_origin(self):
        assert eval_ackley(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_ackley_ones(self):
        # frozen from the oracle above
        assert eval_ackley(np.ones(2)) == pytest.approx(3.6253849384403627, rel=1e-14)

    def test_ackley_far_corner(self):
        corner = np.array([32.768, 32.768])
        value = eval_ackley(corner)
        assert value == pytest.approx(21.570311151282485, rel=1e-14)
        assert value > eval_ackley(np.ones(2))

    def test_griewank_origin(self):
        assert eval_griewank(np.zeros(2)) == 0.0

    def test_griewank_far_corner(self):
        assert eval_griewank(np.array([600.0, 600.0])) == pytest.approx(
            180.01205465052828, rel=1e-14
        )


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "func,limit",
        [(eval_sphere, 10.0), (eval_flower, 100.0), (eval_ackley, 32.768), (eval_griewank, 600.0)],
    )
    def test_matches_oracle_on_random_points(self, func, limit):
        rng = np.random.default_rng(1234)
        oracle = ORACLES[func]
        for dim in (1, 2, 3, 5):
            points = rng.uniform(-limit, limit, size=(300, dim))
            for x in points:
                expected = oracle(x.tolist())
                assert func(x) == pytest.approx(expected, rel=1e-12)

    def test_sphere_random_square_and_sum(self):
        rng = np.random.default_rng(99)
        for x in rng.uniform(-10, 10, size=(100, 2)):
            assert eval_sphere(x) == pytest.approx(oracle_sphere(x.tolist()), rel=1e-12)

    def test_griewank_nonnegative_on_box(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-600, 600, size=(100, 2)):
            value = eval_griewank(x)
            assert value >= 0.0
            assert value == pytest.approx(oracle_griewank(x.tolist()), rel=1e-12)


class TestLandscapeProperties:
    @pytest.mark.parametrize(
        "func,limit",
        [(eval_sphere, 10.0), (eval_flower, 100.0), (eval_ackley, 32.768), (eval_griewank, 600.0)],
    )
    def test_positive_away_from_origin(self, func, limit):
        rng = np.random.default_rng(42)
        x = rng.uniform(-limit, limit, size=(10_000, 2))
        x = x[np.any(x != 0.0, axis=1)]
        values = np.array([func(p) for p in x])
        assert np.all(values > 0.0)

    @pytest.mark.parametrize("func", [eval_sphere, eval_flower])
    def test_even_symmetry(self, func):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-50, 50, size=(200, 3)):
            assert func(x) == pytest.approx(func(-x), rel=1e-14)

    def test_evaluate_accepts_plain_sequences(self):
        assert eval_sphere([3, 4]) == 25.0


class TestBoundsAndClipping:
    def test_clip_identity_on_feasible(self):
        bounds = Bounds.symmetric(10.0, 2)
        np.testing.assert_array_equal(clip_to_bounds([5.0, 5.0], bounds), [5.0, 5.0])

    def test_clip_saturates_per_coordinate(self):
        bounds = Bounds.symmetric(10.0, 2)
        np.testing.assert_array_equal(clip_to_bounds([15.0, -12.0], bounds), [10.0, -10.0])

    def test_clip_random_respects_range_and_minmax_oracle(self):
        bounds = Bounds.from_pairs([[-2.0, 3.0], [0.5, 1.5], [-10.0, -1.0]])
        rng = np.random.default_rng(3)
        for x in rng.uniform(-20, 20, size=(500, 3)):
            clipped = clip_to_bounds(x, bounds)
            assert np.all(clipped >= bounds.lo) and np.all(clipped <= bounds.hi)
            oracle = np.array(
                [min(max(v, lo), hi) for v, lo, hi in zip(x, bounds.lo, bounds.hi)]
            )
            np.testing.assert_array_equal(clipped, oracle)

    def test_clip_idempotent(self):
        bounds = Bounds.symmetric(1.0, 4)
        rng = np.random.default_rng(11)
        for x in rng.uniform(-5, 5, size=(200, 4)):
            once = clip_to_bounds(x, bounds)
            np.testing.assert_array_equal(clip_to_bounds(once, bounds), once)

    def test_clip_batches(self):
        bounds = Bounds.symmetric(1.0, 2)
        batch = np.array([[2.0, 0.0], [-3.0, 0.5]])
        np.testing.assert_array_equal(
            clip_to_bounds(batch, bounds), [[1.0, 0.0], [-1.0, 0.5]]
        )

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0]), np.array([1.0]))  # lo == hi
        with pytest.raises(ValueError):
            Bounds(np.array([2.0]), np.array([1.0]))  # lo > hi
        with pytest.raises(ValueError):
            Bounds(np.array([]), np.array([]))  # zero dimensions
        with pytest.raises(ValueError):
            Bounds.symmetric(-1.0, 2)
        with pytest.raises(ValueError):
            Bounds(np.array([-np.inf]), np.array([1.0]))  # infinite end
        with pytest.raises(ValueError, match="width"):
            # Both ends are finite, but hi - lo overflows to inf.
            Bounds.from_pairs([[-1e308, 1e308], [-1.0, 1.0]])

    def test_bounds_pairs_round_trip(self):
        pairs = [[-1.0, 2.0], [0.0, 5.0]]
        assert Bounds.from_pairs(pairs).to_pairs() == pairs


class TestRegistry:
    def test_names(self):
        assert objective_names() == ("ackley", "flower", "griewank", "sphere")

    def test_case_insensitive_lookup(self):
        obj = make_objective("SPHERE", 2)
        assert obj.name == "sphere"
        assert obj.evaluate is eval_sphere

    def test_default_bounds_match_suite(self):
        for name, limit in [("sphere", 10.0), ("flower", 100.0), ("ackley", 32.768), ("griewank", 600.0)]:
            bounds = default_bounds(name, 2)
            np.testing.assert_array_equal(bounds.lo, [-limit, -limit])
            np.testing.assert_array_equal(bounds.hi, [limit, limit])

    def test_unknown_name_is_an_error_listing_valid_names(self):
        with pytest.raises(UnknownObjectiveError) as err:
            make_objective("rosenbrok", 2)
        message = str(err.value)
        for name in objective_names():
            assert name in message

    def test_box_without_the_origin_is_allowed(self):
        bounds = Bounds.from_pairs([[2.0, 5.0], [2.0, 5.0]])
        obj = make_objective("sphere", 2, bounds)
        assert obj.bounds is bounds
        assert not bounds.contains(np.zeros(2))
        assert obj.evaluate(np.array([2.0, 3.0])) == 13.0
