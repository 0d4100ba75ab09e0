"""Quadratic fitting, analytic minimization, and the attractor policy."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qswarm import surrogate
from qswarm.archive import Archive, ArchiveEntry
from qswarm.objectives import Bounds, Objective, clip_to_bounds, make_objective
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE
from qswarm.surrogate import (
    FALLBACK_NON_IMPROVING,
    FALLBACK_NONE,
    FALLBACK_REASONS,
    FALLBACK_REPEATED,
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

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_equals_the_column_by_column_construction(self, dim, data):
        # Signed zeros, subnormals and coordinates whose products near the
        # top of the double range must come out bit for bit.
        count = required_points(dim)
        coordinate = st.one_of(
            st.floats(-1e150, 1e150),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]),
        )
        pts = np.array(data.draw(st.lists(coordinate, min_size=count * dim, max_size=count * dim)))
        pts = pts.reshape(count, dim)
        columns = [np.ones(count), *pts.T]
        columns += [pts[:, i] * pts[:, j] for i in range(dim) for j in range(i, dim)]
        expected = np.column_stack(columns)
        m = build_design_matrix(pts)
        assert m.flags.f_contiguous
        assert m.tobytes(order="F") == expected.tobytes(order="F")


SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_PROBE = """
import sys
import qswarm.cli
from qswarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig, make_objective, run

def loaded():
    return [name in sys.modules for name in ("scipy", "scipy.linalg", "scipy.linalg._flapack")]

print("import", *loaded())
objective = make_objective("sphere", 2)
for variant in (VARIANT_STANDARD, VARIANT_SURROGATE):
    config = SwarmConfig(
        dimension=2, n_particles=6, bounds=objective.bounds, iterations=20, variant=variant
    )
    run(config, objective)
    print(variant, *loaded())
"""


def _fresh_python(code: str, *args: str) -> list[str]:
    """Words a fresh interpreter prints; this one has long loaded scipy
    through other tests."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    ).stdout.split()


def test_scipy_loads_at_the_first_surrogate_fit():
    # Columns: scipy, scipy.linalg, scipy.linalg._flapack. A surrogate run
    # loads the LAPACK extension alone, never the scipy.linalg package.
    assert _fresh_python(SCIPY_PROBE) == [
        "import", "False", "False", "False",
        VARIANT_STANDARD, "False", "False", "False",
        VARIANT_SURROGATE, "True", "False", "True",
    ]


FIRST_RUN_PROBE = """
import sys, time, types
import qswarm.swarm
from qswarm import VARIANT_SURROGATE, SwarmConfig, make_objective, run

def watched_clock():
    names = ("scipy", "scipy.linalg._flapack", "scipy.linalg")
    print("clock", *(name in sys.modules for name in names))
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
    # Each timed run reads the clock twice; scipy and its LAPACK extension are
    # in place at the first read, and the scipy.linalg package is not loaded.
    assert words[:16] == ["clock", "True", "True", "False"] * 4
    first, second = (float(w) for w in words[17:])
    # Loading the extension takes some 15 ms (importing scipy.linalg took
    # some 0.3 s); a run of this size takes some 0.05 s.
    assert first < 2 * second + 0.1


LAPACK_IDENTITY_PROBE = """
import sys
from qswarm.surrogate import load_lapack
if sys.argv[1] == "before":
    from scipy.linalg import lapack
routines = load_lapack()
from scipy.linalg import lapack
print(*(mine is getattr(lapack, name) for mine, name in zip(routines, sys.argv[2:])))
"""

ROUTINES = ("dgesdd", "dgetrf", "dgetrs", "dlange")


@pytest.mark.parametrize("scipy_linalg", ["before", "after"])
def test_load_lapack_returns_the_routines_of_scipy_linalg_lapack(scipy_linalg):
    # Importing scipy.linalg before or after the load finds one extension
    # module, so the kernel calls the very routines scipy.linalg.lapack exports.
    words = _fresh_python(LAPACK_IDENTITY_PROBE, scipy_linalg, *ROUTINES)
    assert words == ["True"] * len(ROUTINES)


def test_missing_lapack_extension_names_the_folder(tmp_path, monkeypatch):
    import scipy

    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    surrogate.load_lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            surrogate.load_lapack()
        assert "scipy.linalg._flapack" not in sys.modules
    finally:
        surrogate.load_lapack.cache_clear()


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

    @settings(max_examples=500, deadline=None)
    @given(
        diagonal=st.lists(
            st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
            min_size=1,
            max_size=15,
        ),
        threshold=st.floats(0.0, 1e300),
    )
    def test_pivot_test_is_numpys_nan_propagating_minimum(self, diagonal, threshold):
        expected = bool(np.minimum.reduce(np.abs(np.array(diagonal))) < threshold)
        assert surrogate._pivot_below(diagonal, threshold) == expected

    # Finite matrices near the double range whose LU overflows: the U
    # diagonal holds -inf, or -inf and then NaN.
    BIG = 1.5e308
    OVERFLOWING_LU = {
        "inf": [[1.0, BIG], [0.5, -BIG]],
        "nan": [[1.0, BIG, BIG], [0.5, -BIG, -BIG], [0.5, -BIG, BIG]],
    }

    @pytest.mark.parametrize("kind", OVERFLOWING_LU)
    def test_overflowing_lu_keeps_the_numpy_pivot_decision(self, kind):
        a = np.array(self.OVERFLOWING_LU[kind], order="F")
        _, dgetrf, _, dlange = surrogate.load_lapack()
        diagonal = dgetrf(a.copy(order="F"))[0].diagonal()
        assert math.isinf(diagonal[1]) and math.isnan(diagonal[-1]) == (kind == "nan")
        threshold = surrogate.PIVOT_RTOL * dlange("M", a)
        singular = bool(np.minimum.reduce(np.abs(diagonal)) < threshold)
        assert surrogate._pivot_below(diagonal.tolist(), threshold) == singular
        assert singular == (kind == "inf")
        if singular:
            with pytest.raises(SingularMatrixError):
                solve_pivoted(a, np.ones(len(a)))
        else:
            assert np.isnan(solve_pivoted(a, np.ones(len(a)))).any()


def reference_fit(points, values) -> QuadraticModel:
    """``fit`` in its textbook form: ``mean``, ``np.linalg.svd``, a C-ordered
    design matrix copied into a Fortran one, and ``max|a|`` from numpy. The
    kernel must do the same floating-point operations in the same order, so
    its output must equal this one byte for byte."""
    from scipy.linalg import lapack

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    dim = pts.shape[1]
    center = pts.mean(axis=0)
    centered = pts - center
    _, sigma, vt = np.linalg.svd(centered, full_matrices=False)
    top = sigma.max()
    sigma = np.where(sigma > top * 1e-15, sigma, 1.0) if top > 0 else np.ones(dim)
    w = vt / sigma[:, None]
    z = centered @ w.T
    columns = [np.ones(len(z)), *z.T]
    columns += [z[:, i] * z[:, j] for i in range(dim) for j in range(i, dim)]
    a = np.array(np.column_stack(columns), order="F")
    scale = float(np.abs(a).max())
    if scale == 0.0 or not math.isfinite(scale):
        raise SingularMatrixError("zero or non-finite design matrix")
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    if info > 0 or np.abs(lu.diagonal()).min() < surrogate.PIVOT_RTOL * scale:
        raise SingularMatrixError("pivot below threshold")
    theta, _ = lapack.dgetrs(lu, piv, vals)
    quad_z = np.empty((dim, dim))
    k = dim + 1
    for i in range(dim):
        for j in range(i, dim):
            quad_z[i, j] = quad_z[j, i] = theta[k] * (1.0 if i == j else 0.5)
            k += 1
    lin_w = w.T @ theta[1 : dim + 1]
    quad = w.T @ quad_z @ w
    quad = 0.5 * (quad + quad.T)
    quad_center = quad @ center
    linear = lin_w - 2.0 * quad_center
    const = float(theta[0] - lin_w @ center + center @ quad_center)
    return QuadraticModel(const=const, linear=linear, quad=quad)


CLOUD_SHAPES = [(3, 1), (6, 2), (10, 3), (15, 4)]
CLOUD_KINDS = ["random", "clustered", "anisotropic", "collinear"]


def point_cloud(kind, shape, seed) -> np.ndarray:
    """Sample layouts the swarm produces: spread out, clustered at 1e-9
    around a point, stretched 1e6:1, or all on one line."""
    rng = np.random.default_rng(seed)
    count, dim = shape
    offset = rng.uniform(-10.0, 10.0, size=dim)
    if kind == "random":
        return offset + rng.uniform(-5.0, 5.0, size=shape)
    if kind == "clustered":
        return offset + 1e-9 * rng.normal(size=shape)
    if kind == "anisotropic":
        return offset + rng.normal(size=shape) * np.geomspace(1e6, 1.0, dim)
    return offset + np.outer(rng.uniform(-1.0, 1.0, size=count), rng.normal(size=dim))


clouds = st.tuples(
    st.sampled_from(CLOUD_KINDS), st.sampled_from(CLOUD_SHAPES), st.integers(0, 2**32 - 1)
)

NUMERICS_BROKEN = (
    "{what} no longer agree bit for bit. A numpy or scipy upgrade broke the "
    "equivalence the surrogate kernel relies on, so runs no longer match "
    "tests/reference_runs.json. Take the declared-numerics-change route in "
    "ROADMAP.md: name the change and re-record the reference digests."
)


class TestLapackEquivalence:
    """The kernel calls LAPACK through scipy; the textbook form calls
    ``np.linalg.svd`` and numpy reductions. Both must give the same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(cloud=clouds)
    def test_gesdd_returns_the_bytes_of_numpy_svd(self, cloud):
        pts = point_cloud(*cloud)
        centered = pts - pts.mean(axis=0)
        _, sigma, vt = np.linalg.svd(centered, full_matrices=False)
        dgesdd = surrogate.load_lapack()[0]
        _, l_sigma, l_vt, info = dgesdd(centered, compute_uv=1, full_matrices=0)
        assert info == 0
        same = sigma.tobytes() == l_sigma.tobytes() and vt.tobytes() == l_vt.tobytes()
        assert same, NUMERICS_BROKEN.format(what="np.linalg.svd and scipy's dgesdd")

    @settings(max_examples=200, deadline=None)
    @given(cloud=clouds, value_seed=st.integers(0, 2**32 - 1))
    def test_fit_returns_the_bytes_of_the_textbook_form(self, cloud, value_seed):
        pts = point_cloud(*cloud)
        values = np.random.default_rng(value_seed).normal(size=len(pts))
        try:
            expected = reference_fit(pts, values)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                fit(pts, values)
            return
        model = fit(pts, values)
        same = (
            np.float64(model.const).tobytes() == np.float64(expected.const).tobytes()
            and model.linear.tobytes() == expected.linear.tobytes()
            and model.quad.tobytes() == expected.quad.tobytes()
        )
        assert same, NUMERICS_BROKEN.format(what="fit and its textbook form")

    def test_dlange_is_the_largest_magnitude(self):
        dlange = surrogate.load_lapack()[3]
        rng = np.random.default_rng(9)
        for shape in CLOUD_SHAPES:
            count = shape[0]
            magnitude = 10.0 ** rng.integers(-300, 300)
            a = np.asfortranarray(rng.normal(size=(count, count)) * magnitude)
            assert dlange("M", a) == float(np.abs(a).max())
            a[count // 2, -1] = np.nan
            assert math.isnan(dlange("M", a))


class TestHostileInput:
    """A non-finite sample or a failed SVD is a degenerate fit: fit raises
    SingularMatrixError and warns nothing, and the proposal falls back."""

    @staticmethod
    def bowl():
        rng = np.random.default_rng(90)
        pts = sample_points(rng, 2, 6)
        return pts, [float(p @ p) for p in pts]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, bad):
        pts, values = self.bowl()
        pts[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                fit(pts, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, bad):
        pts, values = self.bowl()
        values[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                fit(pts, values)

    @staticmethod
    def stub_gesdd(monkeypatch, info):
        real = surrogate.load_lapack()

        def gesdd(a, *args, **kwargs):
            u, sigma, vt, _ = real[0](a, *args, **kwargs)
            return u, sigma, vt, info

        monkeypatch.setattr(surrogate, "load_lapack", lambda: (gesdd, *real[1:]))

    def test_svd_that_does_not_converge_is_singular(self, monkeypatch):
        pts, values = self.bowl()
        fit(pts, values)
        self.stub_gesdd(monkeypatch, 1)
        with pytest.raises(SingularMatrixError):
            fit(pts, values)

    def test_illegal_svd_argument_is_a_value_error(self, monkeypatch):
        pts, values = self.bowl()
        self.stub_gesdd(monkeypatch, -4)
        with pytest.raises(ValueError):
            fit(pts, values)

    def test_failed_svd_falls_back_as_singular_system(self, monkeypatch):
        pts, values = self.bowl()
        archive = archive_from(pts, values, 6)
        self.stub_gesdd(monkeypatch, 2)
        objective = make_objective("sphere", 2)
        result = surrogate_attractor(archive, objective, archive.best())
        assert result.fallback_reason == FALLBACK_SINGULAR_SYSTEM
        np.testing.assert_array_equal(result.x_min, archive.best().position)

    def test_nan_point_falls_back_as_singular_system(self):
        pts, values = self.bowl()
        pts[4] = math.nan  # the archive takes any position with a finite value
        archive = archive_from(pts, values, 6)
        assert archive.size == 6
        objective = make_objective("sphere", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = surrogate_attractor(archive, objective, archive.best())
        assert result.fallback_reason == FALLBACK_SINGULAR_SYSTEM
        np.testing.assert_array_equal(result.x_min, archive.best().position)


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


def term_size(model: QuadraticModel, x) -> float:
    """|const| + |linear|.|x| + |x|.|quad|.|x|: the size of the terms whose
    sum is model(x), which bounds the rounding error of evaluating it."""
    x = np.abs(x)
    return abs(model.const) + np.abs(model.linear) @ x + x @ np.abs(model.quad) @ x


class TestAffineInvariance:
    """Fitting the images ``A x + t`` of the points, with ``A`` a rotation
    times a scale, gives the mapped model and the mapped minimizer.

    The fit whitens its points, so both clouds reach the same whitened design
    matrix up to column signs; the two fits differ only by rounding in the
    whitening, the solve and the map back to raw coordinates. Over 3,000
    clouds the worst gaps were 8e-14 of the term size (models) and 3e-12
    (minimizers, after the condition number of ``quad``); 1e-9 leaves two
    decades for the geometries hypothesis finds."""

    RTOL = 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    def test_fit_of_mapped_points_is_the_mapped_model(self, dim, seed, log_scale, shift):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(required_points(dim), dim))
        values = rng.normal(size=len(pts))
        rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scale = 10.0**log_scale
        a, t = scale * rotation, np.array(shift[:dim])
        try:
            model = fit(pts, values)
            mapped = fit(pts @ a.T + t, values)
        except SingularMatrixError:
            assume(False)
        probes = np.vstack([pts, rng.uniform(-1.0, 1.0, size=(5, dim))])
        for x in probes:
            y = a @ x + t
            gap = abs(mapped(y) - model(x))
            assert gap <= self.RTOL * (term_size(model, x) + term_size(mapped, y))
        try:
            x_min, y_min = minimize(model), minimize(mapped)
        except SingularMatrixError:
            assume(False)
        size = np.abs(t).max() + scale * max(1.0, np.abs(x_min).max())
        gap = np.abs(y_min - (a @ x_min + t)).max()
        assert gap <= self.RTOL * np.linalg.cond(model.quad) * size


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
            # A probe the archive stores moves the next proposal; one it
            # refuses (a duplicate of the stored one, here) comes back.
            for _ in range(3):
                calls.clear()
                result = surrogate_attractor(archive, objective, best)
                assert len(calls) == result.evaluated
                seen.add(result.fallback_reason)
        assert seen >= {
            FALLBACK_NONE,
            FALLBACK_TOO_FEW_POINTS,
            FALLBACK_SINGULAR_SYSTEM,
            FALLBACK_NON_IMPROVING,
            FALLBACK_REPEATED,
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
        repeated = SurrogateResult(np.zeros(2), 0.0, FALLBACK_REPEATED)
        assert repeated.used_fallback and not repeated.evaluated
        assert FALLBACK_REASONS[-1] == FALLBACK_REPEATED
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

    def test_refused_probe_is_not_evaluated_again(self, monkeypatch):
        archive = self.bowl_archive()
        evaluations = []
        objective = self.flat_objective(Bounds.symmetric(10.0, 2), evaluations)
        fits = self.counting_fit(monkeypatch)
        strong_best = archive.best()  # the probe's 1e6 does not beat it
        first = surrogate_attractor(archive, objective, strong_best)
        assert first.fallback_reason == FALLBACK_NON_IMPROVING
        assert len(evaluations) == 1
        version = archive.version
        points, values = archive.sorted_points()
        second = surrogate_attractor(archive, objective, strong_best)
        assert second.fallback_reason == FALLBACK_REPEATED
        assert not second.evaluated
        assert len(evaluations) == 1
        assert len(fits) == 1
        assert archive.version == version
        again_points, again_values = archive.sorted_points()
        assert again_values == values
        assert all(a is b for a, b in zip(again_points, points))
        # exactly the result that evaluating the probe again would give
        assert second.x_min.tobytes() == first.x_min.tobytes()
        assert second.f_min == first.f_min

    @pytest.mark.parametrize("bad", [-math.inf, math.nan, math.inf])
    def test_non_finite_probe_value_counts_as_inf(self, bad):
        archive = self.bowl_archive()
        calls = []

        def evaluate(x):
            calls.append(1)
            return bad

        objective = Objective("holed", 2, Bounds.symmetric(10.0, 2), evaluate)
        weak_best = ArchiveEntry(1e9, np.zeros(2))
        version = archive.version
        first = surrogate_attractor(archive, objective, weak_best)
        assert first.fallback_reason == FALLBACK_NON_IMPROVING
        assert first.f_min == archive.best().value
        assert archive.version == version
        # The probe is kept as inf, which beats no incumbent, not even inf.
        second = surrogate_attractor(archive, objective, ArchiveEntry(math.inf, np.zeros(2)))
        assert second.fallback_reason == FALLBACK_REPEATED
        assert len(calls) == 1

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

    def test_fallback_is_kept_until_the_archive_changes(self, monkeypatch):
        objective = make_objective("sphere", 2)
        t = np.linspace(0.1, 1.0, 6)
        pts = np.column_stack([t, t])  # collinear
        archive = archive_from(pts, [objective.evaluate(p) for p in pts], 6)
        bests = []
        real_best = Archive.best

        def counting_best(self):
            bests.append(1)
            return real_best(self)

        monkeypatch.setattr(Archive, "best", counting_best)
        incumbent = ArchiveEntry(1e9, np.zeros(2))
        first, second = (surrogate_attractor(archive, objective, incumbent) for _ in range(2))
        assert second is first and len(bests) == 1
        # A better point on the same line: still singular, with a new best.
        assert archive.observe(np.array([0.05, 0.05]), 0.005)
        third = surrogate_attractor(archive, objective, incumbent)
        assert third is not first and len(bests) == 2
        assert third.fallback_reason == FALLBACK_SINGULAR_SYSTEM
        assert third.x_min.tolist() == [0.05, 0.05] and third.f_min == 0.005
