"""Quadratic interpolation surrogate and its analytic minimizer.

A quadratic in n variables,

    q(x) = const + linear . x + x . quad @ x        (quad symmetric),

has 1 + n + n(n+1)/2 = (n+1)(n+2)/2 independent coefficients, so exactly that
many distinct sample points determine it. The coefficients come from solving
the square interpolation system built by :func:`build_design_matrix`; the
stationary point follows from setting the gradient to zero, i.e. solving
``2 * quad @ x = -linear``.

Linear systems are solved by dense LU factorization with partial pivoting
(LAPACK ``getrf``/``getrs``). Singularity is declared deterministically: the
solve fails when any pivot magnitude drops below ``PIVOT_RTOL`` times the
largest absolute entry of the matrix. No explicit inverse is ever formed.
SciPy, which supplies the LAPACK routines, is imported by
:func:`load_lapack` on first use: a surrogate run calls it before its clock
starts, so importing the package, and any run of the standard variant, never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .archive import Archive, ArchiveEntry
from .objectives import Bounds, Objective, clip_to_bounds

# Scaled pivot threshold for declaring a matrix singular.
PIVOT_RTOL = 1e-10

FALLBACK_NONE = "none"
FALLBACK_TOO_FEW_POINTS = "too_few_points"
FALLBACK_SINGULAR_SYSTEM = "singular_system"
FALLBACK_SINGULAR_QUADRATIC = "singular_quadratic"
FALLBACK_NON_IMPROVING = "non_improving"

FALLBACK_REASONS = (
    FALLBACK_NONE,
    FALLBACK_TOO_FEW_POINTS,
    FALLBACK_SINGULAR_SYSTEM,
    FALLBACK_SINGULAR_QUADRATIC,
    FALLBACK_NON_IMPROVING,
)


class SingularMatrixError(ArithmeticError):
    """A pivot of the LU factorization fell below the scaled threshold."""


@cache
def load_lapack():
    """(dgetrf, dgetrs), importing scipy.linalg on the first call."""
    from scipy.linalg import lapack

    return lapack.dgetrf, lapack.dgetrs


def solve_pivoted(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by partially pivoted LU.

    Raises :class:`SingularMatrixError` when any pivot magnitude is smaller
    than ``PIVOT_RTOL * max|matrix|``, which flags collinear or otherwise
    degenerate geometry deterministically.
    """
    a = np.array(matrix, dtype=float, order="F")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        raise SingularMatrixError("matrix is zero or non-finite")
    dgetrf, dgetrs = load_lapack()
    lu, piv, info = dgetrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in LU factorization argument {-info}")
    if info > 0 or np.abs(lu.diagonal()).min() < PIVOT_RTOL * scale:
        raise SingularMatrixError("pivot below threshold; system is singular")
    x, info = dgetrs(lu, piv, np.asarray(rhs, dtype=float))
    if info != 0:
        raise ValueError(f"illegal value in triangular solve argument {-info}")
    return x


def required_points(dimension: int) -> int:
    """Number of distinct samples that uniquely determine the quadratic."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return (dimension + 1) * (dimension + 2) // 2


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Coefficients of the interpolating quadratic.

    ``quad`` is exactly symmetric by construction: each fitted cross-product
    coefficient is split evenly between the two mirrored entries.
    """

    const: float
    linear: np.ndarray
    quad: np.ndarray

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.const + self.linear @ x + x @ self.quad @ x)


@dataclass(frozen=True, eq=False)
class SurrogateResult:
    """Attractor proposed for the swarm, with fallback diagnostics.

    ``f_min`` is the actual objective value at ``x_min``, never the surrogate
    prediction.
    """

    x_min: np.ndarray
    f_min: float
    fallback_reason: str

    def __post_init__(self):
        if self.fallback_reason not in FALLBACK_REASONS:
            raise ValueError(f"unknown fallback reason {self.fallback_reason!r}")

    @property
    def used_fallback(self) -> bool:
        """True unless the surrogate minimizer was accepted."""
        return self.fallback_reason != FALLBACK_NONE

    @property
    def evaluated(self) -> bool:
        """True when the call evaluated the objective once, at its proposal:
        every call that gets as far as a proposal does, accepted or not."""
        return self.fallback_reason in (FALLBACK_NONE, FALLBACK_NON_IMPROVING)


@cache
def _product_pairs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, of the cross-product columns in column
    order, plus the weight that maps each fitted coefficient to a symmetric
    matrix entry (1 on the diagonal, 0.5 on the two mirrored entries)."""
    rows, cols = np.triu_indices(dim)
    weights = np.where(rows == cols, 1.0, 0.5)
    for arr in (rows, cols, weights):
        arr.flags.writeable = False
    return rows, cols, weights


def build_design_matrix(points) -> np.ndarray:
    """Square interpolation matrix, one row per sample point.

    Column order: the constant 1, the n coordinates, then the products
    x_i * x_j for i <= j (outer index i, inner j running from i to n).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    count, dim = pts.shape
    need = required_points(dim)
    if count != need:
        raise ValueError(f"expected {need} points for dimension {dim}, got {count}")
    m = np.empty((count, need))
    m[:, 0] = 1.0
    m[:, 1 : dim + 1] = pts
    rows, cols, _ = _product_pairs(dim)
    np.multiply(pts[:, rows], pts[:, cols], out=m[:, dim + 1 :])
    return m


def fit(points, values) -> QuadraticModel:
    """Interpolate the quadratic through exactly ``required_points(n)`` samples.

    The system is solved in centered, whitened coordinates (principal cloud
    axes scaled to unit extent) and the coefficients are mapped back exactly.
    This keeps the pivot-based singularity test a statement about the sample
    *geometry* (collinear or otherwise degenerate layouts) rather than the
    cluster scale: tightly clustered, strongly anisotropic samples around a
    good point are the normal late state of a converging swarm and must
    still fit cleanly.

    Raises :class:`SingularMatrixError` when the geometry is degenerate.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    count, dim = pts.shape
    if vals.shape != (count,):
        raise ValueError("values must be a vector matching the point count")
    # z = W (x - center); exactly degenerate directions map to zero columns,
    # which the pivot test flags.
    center = pts.mean(axis=0)
    centered = pts - center
    _, sigma, vt = np.linalg.svd(centered, full_matrices=False)
    top = sigma.max()
    sigma = np.where(sigma > top * 1e-15, sigma, 1.0) if top > 0 else np.ones(dim)
    w = vt / sigma[:, None]  # rows: principal directions over their extents
    matrix = build_design_matrix(centered @ w.T)
    theta = solve_pivoted(matrix, vals)
    lin_z = theta[1 : dim + 1]
    rows, cols, weights = _product_pairs(dim)
    entries = weights * theta[dim + 1 :]
    quad_z = np.empty((dim, dim))
    quad_z[rows, cols] = entries
    quad_z[cols, rows] = entries
    # Map q(z) = theta0 + lin_z.z + z.quad_z@z back to raw coordinates.
    lin_w = w.T @ lin_z
    quad = w.T @ quad_z @ w
    quad = 0.5 * (quad + quad.T)  # erase rounding asymmetry from the products
    quad_center = quad @ center
    linear = lin_w - 2.0 * quad_center
    const = float(theta[0] - lin_w @ center + center @ quad_center)
    return QuadraticModel(const=const, linear=linear, quad=quad)


def minimize(model: QuadraticModel) -> np.ndarray:
    """Unique stationary point of the quadratic, from a gradient-zero solve.

    Solves ``quad @ y = linear`` and returns ``-y / 2``; raises
    :class:`SingularMatrixError` when the quadratic term is singular.
    """
    y = solve_pivoted(model.quad, model.linear)
    return -0.5 * y


def surrogate_attractor(
    archive: Archive, objective: Objective, global_best: ArchiveEntry
) -> SurrogateResult:
    """Propose the swarm attractor from the archived best samples.

    Fit the quadratic to the archive, minimize it analytically, clip the
    minimizer to the bounds, and evaluate the actual objective there. The
    evaluated point is offered back to the archive. The minimizer is accepted
    only when its actual value strictly improves on ``global_best``;
    otherwise, and on any degeneracy, the result falls back to a known best
    point. Fallbacks are ordinary results, never errors: an archive holding
    fewer points than the fit needs, an empty one included, falls back to
    ``global_best`` as ``too_few_points``.

    The proposal (clipped minimizer or degeneracy reason) is a function of
    the stored set and the bounds alone, so it is refit only when the archive
    has stored a point since the last call or the bounds differ. Every call
    still evaluates the proposal and offers it to the archive, so results are
    identical to refitting every call. A proposal ``x_min`` is read-only.
    """
    need = required_points(objective.dimension)
    if archive.size < need or archive.size < archive.capacity:
        # Not enough material yet: fall back to the overall best solution.
        return SurrogateResult(
            x_min=np.asarray(global_best.position, dtype=float),
            f_min=float(global_best.value),
            fallback_reason=FALLBACK_TOO_FEW_POINTS,
        )
    x_min = _proposal(archive, objective.bounds, need)
    if isinstance(x_min, str):
        return _archive_fallback(archive, x_min)
    f_min = float(objective.evaluate(x_min))
    archive.observe(x_min, f_min)  # rejects non-finite values itself
    if f_min < global_best.value:
        return SurrogateResult(x_min=x_min, f_min=f_min, fallback_reason=FALLBACK_NONE)
    return _archive_fallback(archive, FALLBACK_NON_IMPROVING)


def _proposal(archive: Archive, bounds: Bounds, need: int):
    """Clipped surrogate minimizer, or the fallback reason when degenerate.

    Cached in ``archive.memo`` under the archive version and the bounds
    object; a hit skips the sort, the fit and the solve.
    """
    memo = archive.memo
    if memo is not None and memo[0] == archive.version and memo[1] is bounds:
        return memo[2]
    points, values = archive.sorted_points()
    try:
        model = fit(np.stack(points[:need]), values[:need])
    except SingularMatrixError:
        proposal = FALLBACK_SINGULAR_SYSTEM
    else:
        try:
            x_min = minimize(model)
        except SingularMatrixError:
            proposal = FALLBACK_SINGULAR_QUADRATIC
        else:
            proposal = clip_to_bounds(x_min, bounds)
            proposal.flags.writeable = False  # shared by every hit
    archive.memo = (archive.version, bounds, proposal)
    return proposal


def _archive_fallback(archive: Archive, reason: str) -> SurrogateResult:
    best = archive.best()
    return SurrogateResult(
        x_min=np.asarray(best.position, dtype=float),
        f_min=float(best.value),
        fallback_reason=reason,
    )
