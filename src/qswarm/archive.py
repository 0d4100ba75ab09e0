"""Bounded store of the best-performing (value, position) pairs seen so far.

The store is a binary heap ordered so the *worst* retained entry sits at the
root, which makes the replace-worst decision a single comparison. Capacity is
fixed at construction; once full, a new observation displaces the worst entry
only when it strictly improves on it.

Two deliberate filtering rules beyond plain top-k selection:

* Ties with the current worst entry are rejected (strict improvement only),
  so duplicates do not churn into the interpolation set.
* An observation whose position lies within Euclidean distance
  ``duplicate_eps`` of a stored entry is rejected even if its value improves,
  because duplicate rows make the downstream interpolation matrix singular.

Positions are stored as handed in and must not be mutated by the caller
afterwards. The store is not synchronized; each optimization run owns its own
instance.

``version`` counts stored observations, so two reads with equal versions see
the same stored set. Consumers that derive data from that set (the surrogate
proposal) cache it in ``memo`` keyed on the version.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class EmptyArchiveError(LookupError):
    """Raised when querying the best entry of an empty archive."""


class ArchiveEntry(NamedTuple):
    value: float
    position: np.ndarray


class _Node:
    __slots__ = ("priority", "seq", "value", "position", "point")

    def __init__(self, priority, seq, value, position, point):
        self.priority = priority
        self.seq = seq
        self.value = value
        self.position = position
        self.point = point  # tuple of floats, for duplicate-distance checks


class Archive:
    """Worst-on-top priority store of the ``capacity`` best entries.

    ``sense`` is ``"min"`` (default) or ``"max"``. The instrumentation
    counter ``comparisons`` tallies every value-ordering comparison the heap
    performs, which lets tests confirm the per-observation cost stays
    logarithmic in the capacity.
    """

    def __init__(self, capacity: int, sense: str = "min", duplicate_eps: float = 1e-12):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.capacity = int(capacity)
        self.sense = sense
        self.duplicate_eps = float(duplicate_eps)
        self.comparisons = 0
        self.version = 0  # bumped on every stored observation, never otherwise
        self.memo = None  # consumer-owned cache, valid only for the version it names
        self._heap: list[_Node] = []
        self._seq = 0

    @property
    def size(self) -> int:
        return len(self._heap)

    @property
    def worst(self) -> ArchiveEntry:
        """The entry that the next improving observation would displace."""
        if not self._heap:
            raise EmptyArchiveError("archive is empty")
        root = self._heap[0]
        return ArchiveEntry(root.value, root.position)

    def observe(self, x, fx: float) -> bool:
        """Offer one (position, value) observation; returns True if stored.

        Non-finite values are rejected, leaving the archive unchanged: they
        signal an invalid evaluation upstream, not a candidate entry.
        """
        fx = float(fx)
        if not math.isfinite(fx):
            return False
        # Worst-on-top: for minimization the root carries the largest value,
        # so order the heap on -value; for maximization on +value.
        priority = -fx if self.sense == "min" else fx
        heap = self._heap
        if len(heap) >= self.capacity:
            self.comparisons += 1
            if not priority > heap[0].priority:  # must strictly beat the worst
                return False
            if self._near_duplicate(x):
                return False
            heap[0] = self._make_node(priority, fx, x)
            self._sift_down(0)
        else:
            if self._near_duplicate(x):
                return False
            heap.append(self._make_node(priority, fx, x))
            self._sift_up(len(heap) - 1)
        self.version += 1
        return True

    def best(self) -> ArchiveEntry:
        """The stored entry with the best value (ties: earliest observed)."""
        if not self._heap:
            raise EmptyArchiveError("archive is empty")
        top = self._heap[0]
        for node in self._heap[1:]:
            if (node.priority, -node.seq) > (top.priority, -top.seq):
                top = node
        return ArchiveEntry(top.value, top.position)

    def sorted_points(self) -> tuple[list[np.ndarray], list[float]]:
        """All stored positions ordered best-first, plus parallel values."""
        if not self._heap:
            raise EmptyArchiveError("archive is empty")
        ordered = sorted(self._heap, key=lambda nd: (-nd.priority, nd.seq))
        return [nd.position for nd in ordered], [nd.value for nd in ordered]

    def values(self) -> list[float]:
        """Stored values in unspecified order (for set-level checks)."""
        return [nd.value for nd in self._heap]

    # -- internals ---------------------------------------------------------

    def _make_node(self, priority, fx, x):
        self._seq += 1
        return _Node(priority, self._seq, fx, x, tuple(map(float, x)))

    def _near_duplicate(self, x) -> bool:
        point = tuple(map(float, x))
        eps = self.duplicate_eps
        for node in self._heap:
            if math.dist(point, node.point) <= eps:
                return True
        return False

    def _lt(self, a: _Node, b: _Node) -> bool:
        self.comparisons += 1
        return (a.priority, a.seq) < (b.priority, b.seq)

    def _sift_up(self, pos: int):
        heap = self._heap
        node = heap[pos]
        while pos > 0:
            parent_pos = (pos - 1) >> 1
            parent = heap[parent_pos]
            if self._lt(node, parent):
                heap[pos] = parent
                pos = parent_pos
            else:
                break
        heap[pos] = node

    def _sift_down(self, pos: int):
        heap = self._heap
        end = len(heap)
        node = heap[pos]
        while True:
            child = 2 * pos + 1
            if child >= end:
                break
            right = child + 1
            if right < end and self._lt(heap[right], heap[child]):
                child = right
            if self._lt(heap[child], node):
                heap[pos] = heap[child]
                pos = child
            else:
                break
        heap[pos] = node
