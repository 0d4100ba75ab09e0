"""Quadratic interpolation surrogate and its analytic minimizer.

A quadratic in n variables,

    q(x) = const + linear . x + x . quad @ x        (quad symmetric),

has 1 + n + n(n+1)/2 = (n+1)(n+2)/2 independent coefficients, so exactly that
many distinct sample points determine it. The coefficients come from solving
the square interpolation system whose row for a point x holds 1, the x_i and
the products x_i * x_j (i <= j); the stationary point follows from setting
the gradient to zero, i.e. solving ``2 * quad @ x = -linear``. That point is
all the probe needs, so a fitted model keeps ``linear`` and ``quad`` and
drops ``const``.

Linear systems are solved by dense LU factorization with partial pivoting
(LAPACK ``gesv``, which factors and solves in one call). Singularity is
declared deterministically: the solve fails when any pivot magnitude drops
below ``PIVOT_RTOL`` times the largest absolute entry of the matrix. No
explicit inverse is ever formed.
The whitening SVD is LAPACK ``gesdd``, the driver behind ``np.linalg.svd``,
called directly, and the largest entry comes from ``lange``. SciPy supplies
these LAPACK routines from its extension module ``scipy.linalg._flapack``,
which :func:`load_lapack` loads on first use without importing the
``scipy`` or ``scipy.linalg`` packages: a surrogate run calls it before its
clock starts, so importing the package, and any run of the standard variant,
never loads scipy.

The fit works on arrays of 3 to 15 rows, where each numpy call costs more
than its arithmetic, so the kernel makes few of them: a refit that solves
makes 34 numpy and LAPACK calls, counting every numpy function, method,
operator and index expression and each LAPACK routine, and ``minimize``
makes 6 more. Scalars it tests (the extents and the pivots) are read out as
Python floats. It keeps the floating-point operations of the textbook form
(``mean``, ``np.linalg.svd``, an LU solve of the design matrix) in the same
order, so its results are those of that form bit for bit.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple, Optional

import numpy as np

from .objectives import Bounds, clip_to_bounds, require_int

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
    """(dgesdd, dgesv, dlange) from scipy's f2py LAPACK extension.

    The first call finds scipy's folder through the import system's spec
    lookup, which executes no part of the ``scipy`` package, and loads the
    one extension module ``scipy.linalg._flapack`` from it under its
    canonical name; the extension needs only numpy. An entry already in
    ``sys.modules`` is reused, so the routines are the objects
    ``scipy.linalg.lapack`` exports, in either import order (a
    ``scipy.linalg`` imported later lacks only the private attribute
    ``_flapack``). Raises :class:`ImportError` naming ``scipy`` when it is
    not installed, and naming the folder searched when the extension is not
    there.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        package = find_spec("scipy")
        if package is None:
            raise ImportError("no scipy package to load LAPACK from", name="scipy")
        folder = os.path.join(package.submodule_search_locations[0], "linalg")
        loader = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(folder, loader).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension in {folder}", name=name)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.dgesdd, module.dgesv, module.dlange


def _solve_in_place(a: np.ndarray, rhs) -> np.ndarray:
    """Solve ``a @ x = rhs`` by partially pivoted LU, overwriting the
    Fortran-ordered float matrix ``a``.

    Raises :class:`SingularMatrixError` when any pivot magnitude is smaller
    than ``PIVOT_RTOL * max|a|``, which flags collinear or otherwise
    degenerate geometry deterministically.
    """
    _, dgesv, dlange = load_lapack()
    scale = dlange("M", a)  # max |a_ij|, exactly; NaN when an entry is NaN
    if scale == 0.0 or not math.isfinite(scale):
        raise SingularMatrixError("matrix is zero or non-finite")
    # The factorization and the solve are getrf's and getrs's; the solve of
    # a system the pivot test rejects is discarded.
    lu, _, x, info = dgesv(a, rhs, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in LU solve argument {-info}")
    if info > 0 or _pivot_below(lu.diagonal().tolist(), PIVOT_RTOL * scale):
        raise SingularMatrixError("pivot below threshold; system is singular")
    return x


def _pivot_below(diagonal: list[float], threshold: float) -> bool:
    """``np.minimum.reduce(np.abs(diagonal)) < threshold`` on a list. That
    minimum is NaN when any pivot is NaN, which fails the test; Python's
    ``min`` keeps a NaN only in first place, hence the second check."""
    pivots = list(map(abs, diagonal))
    return min(pivots) < threshold and not any(map(math.isnan, pivots))


def required_points(dimension: int) -> int:
    """Number of distinct samples that uniquely determine the quadratic."""
    require_int("dimension", dimension, minimum=1)
    return (dimension + 1) * (dimension + 2) // 2


class QuadraticModel(NamedTuple):
    """The linear and quadratic coefficients of the interpolating quadratic;
    its minimizer does not depend on the constant term, which is not kept.

    ``quad`` is exactly symmetric by construction: each fitted cross-product
    coefficient is split evenly between the two mirrored entries.
    """

    linear: np.ndarray
    quad: np.ndarray


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


def _design_matrix(pts: np.ndarray) -> np.ndarray:
    """Square interpolation matrix, one row per sample point of ``pts``.

    Column order: the constant 1, the n coordinates, then the products
    x_i * x_j for i <= j (outer index i, inner j running from i to n). The
    matrix is Fortran-ordered, so the LU factorization runs in it in place.
    """
    # Every column is a product of two columns of [1, x]; 1 * 1 and 1 * x_i
    # are exact, so the first n + 1 columns hold 1 and x bit for bit.
    ones, left, right, _, _ = _index_tables(pts.shape[1])
    ext = np.concatenate((ones, pts), axis=1)
    return np.multiply(ext.take(left, axis=1), ext.take(right, axis=1), order="F")


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
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array, one row per point")
    count, dim = pts.shape
    need = required_points(dim)
    if count != need:
        raise ValueError(f"expected {need} points for dimension {dim}, got {count}")
    vals = np.asarray(values, dtype=float)
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
    # smallest value clears it; when every extent is 0, it makes them all 1.
    extents = sigma.tolist()
    floor = extents[0] * 1e-15
    if not extents[-1] > floor:
        sigma = np.where(sigma > floor, sigma, 1.0)
    # rows: principal directions over their extents. LAPACK's vt is
    # Fortran-ordered; a C-ordered w keeps the products below on the BLAS
    # path, and so the bits, of np.linalg.svd's output.
    w = np.divide(vt, sigma[:, None], order="C")
    wt = w.T
    theta = _solve_in_place(_design_matrix(centered @ wt), vals)
    lin_z = theta[1 : dim + 1]
    _, _, _, entry, weight = _index_tables(dim)
    quad_z = theta.take(entry) * weight
    # Map lin_z.z + z.quad_z@z back to raw coordinates.
    lin_w = wt @ lin_z
    quad = wt @ quad_z @ w
    quad = 0.5 * (quad + quad.T)  # erase rounding asymmetry from the products
    linear = lin_w - 2.0 * (quad @ center)
    return QuadraticModel(linear=linear, quad=quad)


def minimize(model: QuadraticModel) -> np.ndarray:
    """Unique stationary point of the quadratic, from a gradient-zero solve.

    Solves ``quad @ y = linear`` and returns ``-y / 2``; raises
    :class:`SingularMatrixError` when the quadratic term is singular.
    """
    y = _solve_in_place(np.array(model.quad, dtype=float, order="F"), model.linear)
    return -0.5 * y


def surrogate_attractor(points, values, bounds: Bounds) -> tuple[str, Optional[np.ndarray]]:
    """Propose the iteration's probe point from the stored samples alone.

    Fits the quadratic through ``points`` and ``values``, best first, so
    ``points[0]`` is the best stored point; takes its stationary point and
    clips it to ``bounds``. Returns ``("none", point)``, or
    ``("singular_system", None)`` when the fit is degenerate and
    ``("singular_quadratic", None)`` when its quadratic term is singular.
    Neither is an error; a point count other than ``required_points(n)``
    is: :func:`fit` raises :class:`ValueError` naming both counts. The
    proposal evaluates nothing and leaves its inputs unchanged, so equal
    inputs propose the same bits; the swarm evaluates, memoizes and
    accepts the point (see :mod:`qswarm.swarm`).
    """
    reason = FALLBACK_SINGULAR_SYSTEM
    try:
        model = fit(points, values)
        reason = FALLBACK_SINGULAR_QUADRATIC
        return FALLBACK_NONE, clip_to_bounds(minimize(model), bounds)
    except SingularMatrixError:
        return reason, None
