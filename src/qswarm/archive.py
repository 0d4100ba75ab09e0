"""Bounded store of the best-performing (value, position) pairs seen so far.

Entries are kept in three parallel lists ordered best-first by value, ties
in observation order, so the best entry is the first and the surrogate's
interpolation set is a plain copy. Capacity is fixed at construction; once
full, a new observation displaces the worst entry (the earliest observed of
the tied worst ones) only when it strictly improves on it.

Two deliberate filtering rules beyond plain top-k selection:

* Ties with the current worst entry are rejected (strict improvement only),
  so duplicates do not churn into the interpolation set.
* An observation whose position lies within Euclidean distance
  ``DUPLICATE_EPS`` of a stored entry is rejected even if its value improves,
  because duplicate rows make the downstream interpolation matrix singular.

Positions are stored as handed in and must not be mutated by the caller
afterwards. The store is not synchronized; each optimization run owns its own
instance.

``version`` counts stored observations, so two reads with equal versions see
the same stored set, and an offer refused at one version is refused again at
that version. ``admission`` is the value an offer must beat to be stored:
the worst stored value once the store is full, else ``inf``. An offer at or
above it is refused, so a caller may skip it without changing the archive.
A consumer that derives data from that set keeps it in ``memo`` together
with the version it was derived at (the surrogate keeps its fit's record
there).

An empty archive has no best entry: ``best()`` raises :class:`IndexError`, a
:class:`LookupError`, and ``sorted_points()`` returns two empty lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

DUPLICATE_EPS = 1e-12


class ArchiveEntry(NamedTuple):
    value: float
    position: np.ndarray


class Archive:
    """Best-first store of the ``capacity`` lowest-valued entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.version = 0  # bumped on every stored observation, never otherwise
        self.admission = math.inf  # worst stored value once full, else inf
        self.memo = None  # consumer-owned cache, valid only for the version it names
        self._values: list[float] = []
        self._positions: list = []
        self._points: list[tuple[float, ...]] = []  # float tuples, for math.dist

    @property
    def size(self) -> int:
        return len(self._values)

    def observe(self, x, fx: float) -> bool:
        """Offer one (position, value) observation; returns True if stored.

        Non-finite values are rejected, leaving the archive unchanged: they
        signal an invalid evaluation upstream, not a candidate entry.
        """
        fx = float(fx)
        if not math.isfinite(fx) or not fx < self.admission:
            return False
        values = self._values
        full = len(values) >= self.capacity
        point = tuple(np.asarray(x, dtype=float).tolist())
        for other in self._points:
            if math.dist(point, other) <= DUPLICATE_EPS:
                return False
        if full:
            # The earliest observed of the tied worst entries.
            i = bisect_left(values, values[-1])
            del values[i], self._positions[i], self._points[i]
        i = bisect_right(values, fx)
        values.insert(i, fx)
        self._positions.insert(i, x)
        self._points.insert(i, point)
        if len(values) >= self.capacity:
            self.admission = values[-1]
        self.version += 1
        return True

    def best(self) -> ArchiveEntry:
        """The stored entry with the best value (ties: earliest observed)."""
        return ArchiveEntry(self._values[0], self._positions[0])

    def sorted_points(self) -> tuple[list[np.ndarray], list[float]]:
        """All stored positions ordered best-first, plus parallel values."""
        return list(self._positions), list(self._values)
