"""Bounded store of the best-performing (value, position) pairs seen so far.

Entries are kept in two parallel lists ordered best-first by value, ties
in observation order, so the best entry is the first. The surrogate fits
once the archive is full, on all its points, which it reads as a plain
copy; its archive's capacity is the interpolation point count. Capacity is
fixed at construction; once full, a new observation displaces the worst
entry (the earliest observed of the tied worst ones) only when it strictly
improves on it.

Two deliberate filtering rules beyond plain top-k selection:

* Ties with the current worst entry are rejected (strict improvement only),
  so duplicates do not churn into the interpolation set.
* An observation whose position lies within Euclidean distance
  ``DUPLICATE_EPS`` of a stored entry is rejected even if its value improves,
  because duplicate rows make the downstream interpolation matrix singular.
  The best stored entry can therefore lag a swarm's global best once the
  swarm has contracted below that radius; the swarm pulls to its own global
  best, never to the archive's.

The archive owns its coordinates: it stores each position as a tuple of
floats when the offer is stored, so a caller may reuse or overwrite the
array it offered. The store is not synchronized; each optimization run owns
its own instance.

``admission`` is the value an offer must beat to be stored: the worst
stored value once the store is full, else ``inf``. An offer at or above it
is refused, so a caller may skip it without changing the archive.
``observe`` returns True exactly when it stores the offer, so a caller that
keeps a note on the stored set (the swarm's probe memo) drops it then.

The swarm reads the stored set through ``sorted_points()`` alone; the
callers of ``best()`` are tests and ``perfbench``'s tracer. An empty
archive has no best entry: ``best()`` raises :class:`IndexError`, a
:class:`LookupError`, and ``sorted_points()`` returns two empty lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from .objectives import require_int

DUPLICATE_EPS = 1e-12


class ArchiveEntry(NamedTuple):
    value: float
    position: np.ndarray


class Archive:
    """Best-first store of the ``capacity`` lowest-valued entries."""

    def __init__(self, capacity: int):
        require_int("capacity", capacity, minimum=1)
        self.capacity = int(capacity)
        self.admission = math.inf  # worst stored value once full, else inf
        self._values: list[float] = []
        self._points: list[tuple[float, ...]] = []  # the positions, as math.dist takes them

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
            del values[i], self._points[i]
        i = bisect_right(values, fx)
        values.insert(i, fx)
        self._points.insert(i, point)
        if len(values) >= self.capacity:
            self.admission = values[-1]
        return True

    def best(self) -> ArchiveEntry:
        """The stored entry with the best value (ties: earliest observed)."""
        return ArchiveEntry(self._values[0], np.array(self._points[0]))

    def sorted_points(self) -> tuple[list[tuple[float, ...]], list[float]]:
        """All stored positions ordered best-first, as float tuples, plus
        parallel values."""
        return list(self._points), list(self._values)
