"""Benchmark objective functions, box bounds, and the objective registry.

All objectives are minimization problems with their global minimum of 0 at
the origin. Evaluations are deterministic pure functions of the input point,
so they are safe to call from any number of concurrent workers.

The evaluators are written with scalar ``math`` arithmetic rather than numpy
reductions: points here have a handful of coordinates and the optimizer calls
these millions of times, where per-call numpy overhead dominates. Each
reads its coordinates inline, ``x.tolist()`` for an ndarray and the float of
each item otherwise: a helper function for the read cost 20-30 ns a call,
3-9% of an evaluation of two coordinates (2-vCPU Xeon, CPython 3.11).
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Refuse ``value`` for the count or seed ``name`` unless it is an
    integer, numpy's included, and at least ``minimum`` when one is given;
    a bool is refused, though it subclasses int."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


_REALS = (float, int, np.floating, np.integer)


def require_finite(name: str, value) -> float:
    """``value`` as a float; refuse it for the number ``name`` unless it is
    an int or float, numpy's included, that a double holds finitely. A bool
    is refused, and so are NaN, ±inf and an int too large for a double."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a double
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, not {reprlib.repr(value)}")


@dataclass(frozen=True, eq=False)
class Bounds:
    """Per-dimension box bounds.

    ``lo`` and ``hi`` are length-n arrays with ``lo[j] < hi[j]`` everywhere,
    every end a finite number (see :func:`require_finite`), stored as a
    float64, and every width ``hi[j] - lo[j]`` is a finite double.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # Each end is checked as the object it is, before any conversion.
        lo, hi = (np.atleast_1d(np.asarray(end, dtype=object)) for end in (self.lo, self.hi))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if lo.size < 1:
            raise ValueError("bounds need at least one dimension")
        lo, hi = (
            np.array([require_finite(f"{name}[{j}]", v) for j, v in enumerate(ends)])
            for name, ends in (("lo", lo), ("hi", hi))
        )
        # A finite box can be too wide for a double; its width is then inf,
        # which may not warn.
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.isfinite(width).all():
            raise ValueError("bounds and their widths hi - lo must be finite")
        if not np.all(lo < hi):
            raise ValueError("every dimension needs lo < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.size

    @classmethod
    def symmetric(cls, limit: float, dimension: int) -> "Bounds":
        """Box [-limit, +limit] in every dimension."""
        require_int("dimension", dimension, minimum=1)
        limit = require_finite("limit", limit)
        if limit <= 0:
            raise ValueError("limit must be positive")
        return cls(np.full(dimension, -limit), np.full(dimension, limit))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "Bounds":
        """Build from a sequence of (lo, hi) pairs, one per dimension."""
        arr = np.asarray(pairs, dtype=object)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected a sequence of (lo, hi) pairs")
        return cls(arr[:, 0], arr[:, 1])

    def to_pairs(self) -> list[list[float]]:
        return [[float(a), float(b)] for a, b in zip(self.lo, self.hi)]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))


def clip_to_bounds(x, bounds: Bounds) -> np.ndarray:
    """Force every coordinate of ``x`` into [lo, hi].

    Identity on feasible points. Accepts a single point of shape (n,) or a
    batch of shape (m, n).
    """
    out = np.maximum(np.asarray(x, dtype=float), bounds.lo)
    return np.minimum(out, bounds.hi, out=out)


@dataclass(frozen=True, eq=False)
class Objective:
    """A named minimization problem on a box domain.

    ``evaluate`` maps a point in R^n to a scalar and must be deterministic.
    The box may be any box; it need not hold the minimum.
    """

    name: str
    dimension: int
    bounds: Bounds
    evaluate: Callable[[np.ndarray], float]

    def __post_init__(self):
        require_int("dimension", self.dimension, minimum=1)
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension does not match objective dimension")


def eval_sphere(x) -> float:
    """Sum of squared coordinates. Convex, minimum 0 at the origin."""
    xs = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
    total = 0.0
    for v in xs:
        total += v * v
    return total


def eval_flower(x) -> float:
    """Sum of log(|x_j| + 1) over coordinates.

    Quasi-convex with a sharp basin at the origin and flattening slopes
    outward; minimum 0 at the origin.
    """
    xs = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
    total = 0.0
    for v in xs:
        total += math.log(abs(v) + 1.0)
    return total


_ACKLEY_A = 20.0
_ACKLEY_B = 0.2
_ACKLEY_C = 2.0 * math.pi


def eval_ackley(x) -> float:
    """Ackley function with the standard constants a=20, b=0.2, c=2*pi.

    Highly multimodal: many local minima surround the global minimum of 0
    at the origin.
    """
    xs = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
    n = len(xs)
    sq = 0.0
    cs = 0.0
    for v in xs:
        sq += v * v
        cs += math.cos(_ACKLEY_C * v)
    return (
        -_ACKLEY_A * math.exp(-_ACKLEY_B * math.sqrt(sq / n))
        - math.exp(cs / n)
        + _ACKLEY_A
        + math.e
    )


def eval_griewank(x) -> float:
    """Griewank function: quadratic bowl plus an oscillating cosine product.

    Uses the standard 1-based sqrt(i) denominator inside the product.
    Minimum 0 at the origin.
    """
    xs = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
    sq = 0.0
    prod = 1.0
    for i, v in enumerate(xs, start=1):
        sq += v * v
        prod *= math.cos(v / math.sqrt(i))
    return sq / 4000.0 - prod + 1.0


# Registry: evaluator plus the default symmetric box limit used by the CLI.
_REGISTRY: dict[str, tuple[Callable, float]] = {
    "sphere": (eval_sphere, 10.0),
    "flower": (eval_flower, 100.0),
    "ackley": (eval_ackley, 32.768),
    "griewank": (eval_griewank, 600.0),
}


def objective_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _lookup(name: str) -> tuple[str, Callable, float]:
    """Registry key, evaluator and default box limit for ``name``; a name
    that is no str is unknown."""
    key = name.lower() if isinstance(name, str) else None
    if key not in _REGISTRY:
        raise ValueError(
            f"objective {name!r} is unknown; valid names: {', '.join(objective_names())}"
        )
    return (key, *_REGISTRY[key])


def default_bounds(name: str, dimension: int) -> Bounds:
    """The default symmetric box for a registered objective."""
    _, _, limit = _lookup(name)
    return Bounds.symmetric(limit, dimension)


def make_objective(name: str, dimension: int, bounds: Optional[Bounds] = None) -> Objective:
    """Look up an objective by name (case-insensitive).

    Unknown names raise :class:`ValueError` rather than silently
    defaulting. When ``bounds`` is omitted the registry default box is used.
    """
    key, evaluate, _ = _lookup(name)
    if bounds is None:
        bounds = default_bounds(key, dimension)
    return Objective(
        name=key,
        dimension=dimension,
        bounds=bounds,
        evaluate=evaluate,
    )
