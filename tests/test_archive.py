"""Archive semantics against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswarm.archive import Archive, ArchiveEntry


def fill(archive, values):
    for i, v in enumerate(values):
        archive.observe((float(i), 0.0), v)
    return archive


class TestObserve:
    def test_keeps_smallest_six_ascending(self):
        archive = fill(Archive(6), range(1, 11))
        assert sorted(archive.sorted_points()[1]) == [1, 2, 3, 4, 5, 6]

    def test_keeps_smallest_six_descending(self):
        archive = fill(Archive(6), range(10, 0, -1))
        assert sorted(archive.sorted_points()[1]) == [1, 2, 3, 4, 5, 6]

    def test_matches_sort_take_oracle_on_random_stream(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0, 1, size=10_000).tolist()
        archive = Archive(10)
        for i, v in enumerate(values):
            archive.observe((float(i), float(i)), v)
        assert sorted(archive.sorted_points()[1]) == sorted(values)[:10]

    def test_ties_with_worst_leave_archive_unchanged(self):
        archive = fill(Archive(3), [1.0, 2.0, 3.0])
        assert not archive.observe((9.0, 9.0), 3.0)  # equal to worst: rejected
        assert sorted(archive.sorted_points()[1]) == [1.0, 2.0, 3.0]

    def test_nonfinite_values_rejected(self):
        archive = fill(Archive(3), [1.0, 2.0])
        for bad in (math.nan, math.inf, -math.inf):
            assert not archive.observe((5.0, 5.0), bad)
        assert archive.size == 2

    def test_near_duplicate_positions_rejected_even_if_improving(self):
        archive = Archive(3)
        archive.observe((1.0, 1.0), 5.0)
        assert not archive.observe((1.0, 1.0 + 1e-13), 0.5)
        assert archive.sorted_points()[1] == [5.0]
        # beyond the epsilon the improvement is taken
        assert archive.observe((1.0, 1.0 + 1e-6), 0.5)

    def test_worst_never_increases_under_observation(self):
        rng = np.random.default_rng(3)
        archive = Archive(5)
        worst_values = []
        for i, v in enumerate(rng.uniform(0, 100, size=500)):
            archive.observe((float(i), -float(i)), v)
            if archive.size == archive.capacity:
                worst_values.append(archive.sorted_points()[1][-1])
        assert all(b <= a for a, b in zip(worst_values, worst_values[1:]))

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="^capacity must be >= 1$"):
            Archive(0)
        # Neither truncated nor read as 1: a capacity is an int, and no bool.
        for value in (2.5, 2.0, True, np.bool_(True), "3", None):
            with pytest.raises(ValueError, match="^capacity must be an int"):
                Archive(value)
        assert Archive(np.int64(3)).capacity == 3


class TestMemo:
    """``observe`` returns True exactly when it stores the offer; the swarm's
    probe memo keys on that result."""

    def test_every_stored_offer_clears_it_while_filling_and_replacing(self):
        archive = Archive(3)
        for i, v in enumerate([5.0, 4.0, 3.0, 2.0, 1.0]):
            assert archive.observe((float(i), 0.0), v)
            assert archive.sorted_points()[1][0] == v

    def test_rejected_offers_leave_it_unchanged(self):
        archive = fill(Archive(3), [1.0, 2.0, 3.0])
        state = archive.sorted_points()
        assert not archive.observe((9.0, 9.0), 3.0)  # ties the worst
        assert not archive.observe((9.0, 9.0), 7.0)  # worse than the worst
        for bad in (math.nan, math.inf, -math.inf):
            assert not archive.observe((9.0, 9.0), bad)
        assert not archive.observe((0.0, 1e-13), 0.5)  # near-duplicate of (0, 0)
        assert archive.sorted_points() == state

    def test_near_duplicate_rejected_while_filling(self):
        archive = Archive(3)
        archive.observe((1.0, 1.0), 5.0)
        assert not archive.observe((1.0, 1.0), 0.5)
        assert not archive.observe((2.0, 2.0), math.nan)
        assert archive.sorted_points() == ([(1.0, 1.0)], [5.0])


class TestOwnsItsPoints:
    def test_mutating_an_offered_array_leaves_the_archive_unchanged(self):
        archive = Archive(3)
        offered = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        for value, x in zip([1.0, 2.0], offered):
            assert archive.observe(x, value)
        for x in offered:
            x[:] = 99.0
        points, values = archive.sorted_points()
        assert [tuple(p) for p in points] == [(1.0, 2.0), (3.0, 4.0)]
        assert tuple(archive.best().position) == (1.0, 2.0)
        # Nor does mutating what best() returned.
        archive.best().position[:] = 99.0
        assert tuple(archive.best().position) == (1.0, 2.0)


class TestBest:
    def test_returns_minimum(self):
        archive = Archive(4)
        for value, point in [(3.0, (3.0, 0.0)), (1.0, (1.0, 0.0)), (2.0, (2.0, 0.0))]:
            archive.observe(point, value)
        best = archive.best()
        assert best.value == 1.0
        assert tuple(best.position) == (1.0, 0.0)

    def test_singleton(self):
        archive = Archive(4)
        archive.observe((7.0,), 7.0)
        assert archive.best().value == 7.0

    def test_matches_min_scan_oracle_on_random_streams(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            archive = Archive(6)
            values = rng.uniform(-5, 5, size=40)
            for i, v in enumerate(values):
                archive.observe((float(i), float(2 * i)), v)
            assert archive.best().value == min(values)

    def test_empty_archive_has_no_best_entry(self):
        with pytest.raises(LookupError):
            Archive(3).best()


class TestSortedPoints:
    def test_empty_archive_gives_empty_lists(self):
        assert Archive(3).sorted_points() == ([], [])

    def test_best_first_with_parallel_values(self):
        archive = Archive(3)
        archive.observe((2.0, 2.0), 2.0)
        archive.observe((1.0, 1.0), 1.0)
        points, values = archive.sorted_points()
        assert values == [1.0, 2.0]
        assert tuple(points[0]) == (1.0, 1.0)
        assert tuple(points[1]) == (2.0, 2.0)

    def test_already_sorted_stream_preserved(self):
        archive = fill(Archive(4), [1.0, 2.0, 3.0, 4.0])
        _, values = archive.sorted_points()
        assert values == [1.0, 2.0, 3.0, 4.0]

    def test_nondecreasing_and_matches_sort_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            archive = Archive(8)
            stream = rng.uniform(0, 1, size=50)
            for i, v in enumerate(stream):
                archive.observe((float(i),), v)
            _, values = archive.sorted_points()
            assert values == sorted(values)
            assert values == sorted(stream)[:8]

    def test_first_point_is_best(self):
        rng = np.random.default_rng(37)
        archive = Archive(5)
        for i, v in enumerate(rng.uniform(0, 1, size=30)):
            archive.observe((float(i), float(i)), v)
        points, values = archive.sorted_points()
        best = archive.best()
        assert values[0] == best.value
        assert tuple(points[0]) == tuple(best.position)


class TestTieOrder:
    def test_earliest_of_tied_worst_entries_is_evicted(self):
        archive = Archive(3)
        for i, v in enumerate([2.0, 5.0, 5.0]):
            archive.observe((float(i),), v)
        assert archive.observe((3.0,), 1.0)
        points, values = archive.sorted_points()
        assert values == [1.0, 2.0, 5.0]
        assert [tuple(p) for p in points] == [(3.0,), (0.0,), (2.0,)]

    def test_ties_are_ordered_by_observation(self):
        archive = Archive(4)
        for i, v in enumerate([3.0, 1.0, 3.0, 1.0]):
            archive.observe((float(i),), v)
        points, values = archive.sorted_points()
        assert values == [1.0, 1.0, 3.0, 3.0]
        assert [tuple(p) for p in points] == [(1.0,), (3.0,), (0.0,), (2.0,)]
        assert tuple(archive.best().position) == (1.0,)


class _OracleArchive:
    """Brute-force reference: keep stored entries unordered, sort on demand."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # (value, observation number, position)
        self.observed = 0

    def worst(self):
        return max(self.entries, key=lambda e: (e[0], -e[1]))

    def ordered(self):
        return sorted(self.entries, key=lambda e: e[:2])

    def observe(self, x, fx):
        full = len(self.entries) == self.capacity
        if not math.isfinite(fx) or (full and not fx < self.worst()[0]):
            return False
        if any(math.dist(x, e[2]) <= 1e-12 for e in self.entries):
            return False
        if full:
            self.entries.remove(self.worst())
        self.observed += 1
        self.entries.append((fx, self.observed, x))
        return True


# Few distinct positions and values, so ties and near-duplicates are common.
_offers = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3).map(float), st.integers(0, 3).map(float)),
        st.one_of(
            st.integers(-3, 3).map(float),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
    ),
    max_size=60,
)


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), offers=_offers)
    def test_tie_heavy_streams_match_brute_force(self, capacity, offers):
        archive = Archive(capacity)
        oracle = _OracleArchive(capacity)
        for x, fx in offers:
            before = archive.sorted_points()
            stored = archive.observe(x, fx)
            assert stored == oracle.observe(x, fx)
            # True exactly when the stored set changes.
            assert stored == (archive.sorted_points() != before)
            if not oracle.entries:
                with pytest.raises(LookupError):
                    archive.best()
                assert archive.sorted_points() == ([], [])
                continue
            ordered = oracle.ordered()
            points, values = archive.sorted_points()
            assert values == [e[0] for e in ordered]
            assert [tuple(p) for p in points] == [e[2] for e in ordered]
            best = archive.best()
            assert (best.value, tuple(best.position)) == (ordered[0][0], ordered[0][2])

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), offers=_offers)
    def test_offers_at_or_above_the_admission_value_are_refused(self, capacity, offers):
        # A caller may skip these offers without changing the archive.
        archive = Archive(capacity)
        oracle = _OracleArchive(capacity)
        for x, fx in offers:
            full = len(oracle.entries) == capacity
            assert archive.admission == (oracle.worst()[0] if full else math.inf)
            admission, state = archive.admission, archive.sorted_points()
            stored = archive.observe(x, fx)
            assert stored == oracle.observe(x, fx)
            if not fx < admission:
                assert not stored
                assert archive.sorted_points() == state


class TestEntry:
    def test_entry_fields(self):
        entry = ArchiveEntry(1.5, np.array([1.0, 2.0]))
        assert entry.value == 1.5
        np.testing.assert_array_equal(entry.position, [1.0, 2.0])
