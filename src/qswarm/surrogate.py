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
The whitening SVD is LAPACK ``gesdd``, the driver behind ``np.linalg.svd``,
called directly, and the largest entry comes from ``lange``. SciPy supplies
these LAPACK routines from its extension module ``scipy.linalg._flapack``,
which :func:`load_lapack` loads on first use without importing the
``scipy.linalg`` package: a surrogate run calls it before its clock starts,
so importing the package, and any run of the standard variant, never loads
scipy.

The fit works on arrays of 3 to 15 rows, where each numpy call costs more
than its arithmetic, so the kernel makes few of them: a refit that solves
makes 38 numpy and LAPACK calls, counting every numpy function, method,
operator and index expression and each LAPACK routine (about 53 before the
design matrix, the pivot test and the scalar checks were trimmed), and
``minimize`` makes 7 more. Scalars it tests (the extents, the pivots, the
constant) are read out as Python floats. It keeps the floating-point
operations of the textbook form (``mean``, ``np.linalg.svd``, an LU solve of
the design matrix) in the same order, so its results are those of that form
bit for bit.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

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
FALLBACK_REPEATED = "repeated"

FALLBACK_REASONS = (
    FALLBACK_NONE,
    FALLBACK_TOO_FEW_POINTS,
    FALLBACK_SINGULAR_SYSTEM,
    FALLBACK_SINGULAR_QUADRATIC,
    FALLBACK_NON_IMPROVING,
    FALLBACK_REPEATED,
)


class SingularMatrixError(ArithmeticError):
    """The sample geometry or the system is degenerate: a pivot of the LU
    factorization fell below the scaled threshold, a point or value is not
    finite, or the SVD did not converge."""


@cache
def load_lapack():
    """(dgesdd, dgetrf, dgetrs, dlange) from scipy's f2py LAPACK extension.

    The first call imports the top-level ``scipy`` package, which runs
    scipy's own start-up, and then loads the one extension module
    ``scipy.linalg._flapack`` under its canonical name, without the
    ``scipy.linalg`` package. An entry already in ``sys.modules`` is reused,
    so the routines are the objects ``scipy.linalg.lapack`` exports, in
    either import order (a ``scipy.linalg`` imported later lacks only the
    private attribute ``_flapack``). Raises :class:`ImportError` naming the
    folder searched when the extension is not there.
    """
    import scipy

    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        folder = os.path.join(scipy.__path__[0], "linalg")
        loader = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(folder, loader).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension in {folder}", name=name)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.dgesdd, module.dgetrf, module.dgetrs, module.dlange


def solve_pivoted(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by partially pivoted LU.

    Raises :class:`SingularMatrixError` when any pivot magnitude is smaller
    than ``PIVOT_RTOL * max|matrix|``, which flags collinear or otherwise
    degenerate geometry deterministically.
    """
    return _solve_in_place(np.array(matrix, dtype=float, order="F"), rhs)


def _solve_in_place(a: np.ndarray, rhs) -> np.ndarray:
    """:func:`solve_pivoted` on a Fortran-ordered float matrix ``a``, which
    the factorization overwrites."""
    _, dgetrf, dgetrs, dlange = load_lapack()
    scale = dlange("M", a)  # max |a_ij|, exactly; NaN when an entry is NaN
    if scale == 0.0 or not math.isfinite(scale):
        raise SingularMatrixError("matrix is zero or non-finite")
    lu, piv, info = dgetrf(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in LU factorization argument {-info}")
    if info > 0 or _pivot_below(lu.diagonal().tolist(), PIVOT_RTOL * scale):
        raise SingularMatrixError("pivot below threshold; system is singular")
    x, info = dgetrs(lu, piv, rhs)
    if info != 0:
        raise ValueError(f"illegal value in triangular solve argument {-info}")
    return x


def _pivot_below(diagonal: list[float], threshold: float) -> bool:
    """``np.minimum.reduce(np.abs(diagonal)) < threshold`` on a list. That
    minimum is NaN when any pivot is NaN, which fails the test; Python's
    ``min`` keeps a NaN only in first place, hence the second check."""
    pivots = list(map(abs, diagonal))
    return min(pivots) < threshold and not any(map(math.isnan, pivots))


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
    prediction. ``repeated`` is the ``non_improving`` result of a proposal
    already evaluated against the same archive, found without evaluating it.
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
        every call that gets as far as a new probe does, accepted or not."""
        return self.fallback_reason in (FALLBACK_NONE, FALLBACK_NON_IMPROVING)


@cache
def _index_tables(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the fit: a column of ones and the two column
    indices into ``[1, x]`` whose product is each design matrix column ((0, 0)
    for the constant, (0, i) for x_i, (i, j) for x_i * x_j, i <= j); and for
    every entry (i, j) of the symmetric quadratic term, the index of its
    coefficient in the fitted vector and the weight that maps the coefficient
    to the entry (1 on the diagonal, 0.5 on the two mirrored entries)."""
    rows, cols = np.triu_indices(dim)
    left = np.concatenate((np.zeros(dim + 1, dtype=np.intp), rows + 1))
    right = np.concatenate((np.arange(dim + 1), cols + 1))
    entry = np.empty((dim, dim), dtype=np.intp)
    entry[rows, cols] = entry[cols, rows] = np.arange(dim + 1, left.size)
    weight = np.where(rows == cols, 1.0, 0.5)[entry - dim - 1]
    tables = (np.ones((left.size, 1)), left, right, entry, weight)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def build_design_matrix(points) -> np.ndarray:
    """Square interpolation matrix, one row per sample point.

    Column order: the constant 1, the n coordinates, then the products
    x_i * x_j for i <= j (outer index i, inner j running from i to n). The
    matrix is Fortran-ordered, so the LU factorization runs in it in place.
    """
    return _design_matrix(_as_points(points))


def _design_matrix(pts: np.ndarray) -> np.ndarray:
    # Every column is a product of two columns of [1, x]; 1 * 1 and 1 * x_i
    # are exact, so the first n + 1 columns hold 1 and x bit for bit.
    ones, left, right, _, _ = _index_tables(pts.shape[1])
    ext = np.concatenate((ones, pts), axis=1)
    return np.multiply(ext.take(left, axis=1), ext.take(right, axis=1), order="F")


def _as_points(points) -> np.ndarray:
    """``points`` as a float array of ``required_points(n)`` rows of n."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array, one row per point")
    count, dim = pts.shape
    need = required_points(dim)
    if count != need:
        raise ValueError(f"expected {need} points for dimension {dim}, got {count}")
    return pts


def fit(points, values) -> QuadraticModel:
    """Interpolate the quadratic through exactly ``required_points(n)`` samples.

    The system is solved in centered, whitened coordinates (principal cloud
    axes scaled to unit extent) and the coefficients are mapped back exactly.
    This keeps the pivot-based singularity test a statement about the sample
    *geometry* (collinear or otherwise degenerate layouts) rather than the
    cluster scale: tightly clustered, strongly anisotropic samples around a
    good point are the normal late state of a converging swarm and must
    still fit cleanly.

    Raises :class:`SingularMatrixError` when the geometry is degenerate, a
    point or value is not finite, or the SVD does not converge.
    """
    pts = _as_points(points)
    vals = np.asarray(values, dtype=float)
    count, dim = pts.shape
    if vals.shape != (count,):
        raise ValueError("values must be a vector matching the point count")
    if not all(map(math.isfinite, pts.ravel().tolist() + vals.tolist())):
        raise SingularMatrixError("a point or value is not finite")
    # z = W (x - center); exactly degenerate directions map to zero columns,
    # which the pivot test flags. The centre is what ``mean`` computes.
    center = np.add.reduce(pts, axis=0) / count
    centered = pts - center
    dgesdd = load_lapack()[0]
    _, sigma, vt, info = dgesdd(centered, 1, 0)  # compute_uv=1, full_matrices=0
    if info < 0:
        raise ValueError(f"illegal value in SVD argument {-info}")
    if info > 0:
        raise SingularMatrixError("SVD did not converge")
    # sigma is in descending order, so the floor changes nothing when the
    # smallest value clears it.
    extents = sigma.tolist()
    top = extents[0]
    if not extents[-1] > top * 1e-15:
        sigma = np.where(sigma > top * 1e-15, sigma, 1.0) if top > 0 else np.ones(dim)
    # rows: principal directions over their extents. LAPACK's vt is
    # Fortran-ordered; a C-ordered w keeps the products below on the BLAS
    # path, and so the bits, of np.linalg.svd's output.
    w = np.divide(vt, sigma[:, None], order="C")
    wt = w.T
    theta = _solve_in_place(_design_matrix(centered @ wt), vals)
    lin_z = theta[1 : dim + 1]
    _, _, _, entry, weight = _index_tables(dim)
    quad_z = theta.take(entry) * weight
    # Map q(z) = theta0 + lin_z.z + z.quad_z@z back to raw coordinates.
    lin_w = wt @ lin_z
    quad = wt @ quad_z @ w
    quad = 0.5 * (quad + quad.T)  # erase rounding asymmetry from the products
    quad_center = quad @ center
    linear = lin_w - 2.0 * quad_center
    const = theta.item(0) - float(lin_w @ center) + float(center @ quad_center)
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
    minimizer to the bounds, and evaluate the actual objective there; a
    non-finite value counts as ``inf``, as a particle's does. The evaluated
    point is offered back to the archive. The minimizer is accepted only
    when its actual value strictly improves on ``global_best``; otherwise,
    and on any degeneracy, the result falls back to a known best point.
    Fallbacks are ordinary results, never errors: an archive holding fewer
    points than the fit needs, an empty one included, falls back to
    ``global_best`` as ``too_few_points``.

    The proposal (clipped minimizer or degeneracy reason) is a function of the
    stored set and the bounds alone, so it is refit only when the archive has
    stored a point since the last call or the bounds differ. A probe the
    archive refused keeps its value there. A later call that meets it with a
    ``global_best`` the value does not beat falls back as ``repeated`` without
    evaluating or offering it: the archive would refuse it again, so the
    fallback is the same; the last fallback result is kept there too and
    returned again for its reason. For a deterministic objective, results thus
    equal refitting and evaluating every call, with fewer evaluations. The
    memo lives on the archive and keys on neither the objective nor an
    evaluation count, so an archive must serve one deterministic objective:
    never share it across objectives. A proposal ``x_min`` is read-only.
    """
    need = required_points(objective.dimension)
    size = archive.size
    if size < need or size < archive.capacity:
        # Not enough material yet: fall back to the overall best solution.
        return SurrogateResult(
            x_min=np.asarray(global_best.position, dtype=float),
            f_min=float(global_best.value),
            fallback_reason=FALLBACK_TOO_FEW_POINTS,
        )
    x_min, seen = _proposal(archive, objective.bounds, need)
    if isinstance(x_min, str):
        return _archive_fallback(archive, x_min)
    if seen is not None and not seen < global_best.value:
        return _archive_fallback(archive, FALLBACK_REPEATED)
    f_min = float(objective.evaluate(x_min))
    if not math.isfinite(f_min):
        f_min = math.inf
    if not archive.observe(x_min, f_min):
        archive.memo = (*archive.memo[:3], f_min, None)
    if f_min < global_best.value:
        return SurrogateResult(x_min=x_min, f_min=f_min, fallback_reason=FALLBACK_NONE)
    return _archive_fallback(archive, FALLBACK_NON_IMPROVING)


def _proposal(archive: Archive, bounds: Bounds, need: int):
    """Clipped surrogate minimizer, or the fallback reason when degenerate,
    and the value of its probe if the archive has refused it (else None).

    Cached in ``archive.memo`` under the archive version and the bounds
    object; a hit skips the sort, the fit and the solve. The memo is
    ``(version, bounds, proposal, probe value, last fallback result)``.
    """
    memo = archive.memo
    if memo is not None and memo[0] == archive.version and memo[1] is bounds:
        return memo[2], memo[3]
    points, values = archive.sorted_points()
    try:
        model = fit(np.array(points[:need]), values[:need])
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
    archive.memo = (archive.version, bounds, proposal, None, None)
    return proposal, None


def _archive_fallback(archive: Archive, reason: str) -> SurrogateResult:
    """The archive's best entry as a fallback for ``reason``. At one archive
    version it is the same result, so the memo keeps the last one."""
    memo = archive.memo
    last = memo[4]
    if last is not None and last.fallback_reason == reason and memo[0] == archive.version:
        return last
    best = archive.best()
    result = SurrogateResult(
        x_min=np.asarray(best.position, dtype=float),
        f_min=float(best.value),
        fallback_reason=reason,
    )
    if memo[0] == archive.version:
        archive.memo = (*memo[:4], result)
    return result
