"""Recorded run digests: the engine's output must not change by a single bit.

Each run is pinned by two sha256 digests, so a change to what a run counts
cannot hide whether its path moved:

* ``trajectory``: the best-value trace, the final position, the final value
  and ``nonfinite_iterations`` (empty on the benchmark rows);
* ``counts``: the evaluation count and the sorted fallback counts.

Both variants run on every benchmark row for seeds 0-4 and must reproduce
the digests in ``reference_runs.json``.

The option cases cover the engine branches the benchmark rows leave
untouched: a short lookback and an objective that returns NaN or inf on
part of the box.

The kernel digests in ``reference_kernel.json`` pin what the run digests
only see through its effect on the swarm: the full output of every
surrogate fit (``linear`` and ``quad`` bytes, or the singular system) and
of every minimize (the stationary point, or the singular quadratic), for
the surrogate variant on every benchmark row and every option case, seeds
0-1.

The surrogate digests hold only within one OpenBLAS kernel family, so
each reference file holds one digest set per family, keyed by the family's
core name in ``KERNEL_FAMILIES``. A process checks the set of the family its
OpenBLAS cores belong to; a core outside the map fails the check, naming
the core. The standard-variant digests are the same under every family and
are kept once, in the ``all_families`` set. Each set records, under
``envelope``, what its digests depend on besides the code: the numpy and
scipy versions and, for a family's set, the core name each one's bundled
OpenBLAS picked at recording. A digest mismatch names the first envelope
field that differs from the recording; the test fails either way.

A change that alters numerics or counts on purpose re-records both files,
once per family, with

    PYTHONPATH=src python tests/test_reference_runs.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_reference_runs.py

(the first on a host whose OpenBLAS picks the SkylakeX kernels), which
print every digest that changed, and says so in its change notes.
"""

import ctypes
import hashlib
import json
import math
from pathlib import Path

import pytest

from qswarm import surrogate
from qswarm.cli import BENCHMARK_ROWS
from qswarm.objectives import Bounds, Objective, make_objective
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE, VARIANTS, Swarm, SwarmConfig, run

REFERENCE_FILE = Path(__file__).with_name("reference_runs.json")
KERNEL_FILE = Path(__file__).with_name("reference_kernel.json")
SEEDS = range(5)
OPTION_SEEDS = range(3)
KERNEL_SEEDS = range(2)
ENVELOPE = "envelope"

# Envelope fields, in the order a mismatch message searches them, and for
# each OpenBLAS core name the package that bundles the library and the
# library's core-name symbol.
OPENBLAS_CORES = {
    "numpy_openblas_core": ("numpy", "scipy_openblas_get_corename64_"),
    "scipy_openblas_core": ("scipy", "scipy_openblas_get_corename"),
}
ENVELOPE_FIELDS = ("numpy", "scipy", *OPENBLAS_CORES)
# OpenBLAS core name -> the kernel family whose digests it reproduces.
KERNEL_FAMILIES = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Zen": "Haswell"}
FAMILIES = sorted(set(KERNEL_FAMILIES.values()))
ALL_FAMILIES = "all_families"  # the set of kernel-independent digests


def openblas_core(package: str, symbol: str) -> str:
    """The core name that the OpenBLAS in the wheel's ``<package>.libs``
    folder picked in this process, through ctypes; ``unknown`` when there
    is no such library or it lacks the symbol."""
    root = Path(__import__(package).__file__).parents[1]
    for library in sorted(root.joinpath(f"{package}.libs").glob("*openblas*")):
        try:
            corename = getattr(ctypes.CDLL(str(library)), symbol)
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def envelope() -> dict[str, str]:
    """This process's numpy and scipy versions and OpenBLAS core names."""
    found = {package: __import__(package).__version__ for package in ("numpy", "scipy")}
    found.update((field, openblas_core(*where)) for field, where in OPENBLAS_CORES.items())
    return found


def kernel_family(here: dict) -> str:
    """The kernel family of both OpenBLAS cores of the envelope ``here``.

    Raises :class:`LookupError` naming a core outside ``KERNEL_FAMILIES``,
    or both cores when they belong to two families.
    """
    cores = [here[field] for field in OPENBLAS_CORES]
    for core in cores:
        if core not in KERNEL_FAMILIES:
            raise LookupError(
                f"OpenBLAS core {core!r} belongs to no recorded kernel family; "
                f"digests are recorded for the cores {sorted(KERNEL_FAMILIES)}"
            )
    if len({KERNEL_FAMILIES[core] for core in cores}) > 1:
        raise LookupError(f"the OpenBLAS cores {cores} belong to two kernel families")
    return KERNEL_FAMILIES[cores[0]]


def envelope_note(recorded: dict) -> str:
    """Why recorded digests may not hold here: the first field of the
    recorded envelope that differs from this process's, or that none does."""
    here = envelope()
    for field in ENVELOPE_FIELDS:
        if field in recorded and recorded[field] != here[field]:
            return (
                f"envelope field {field!r} differs: recorded {recorded[field]!r}, "
                f"here {here[field]!r}; the digests are exact only within one envelope"
            )
    return "the envelope matches the recording, so the code changed the digests"


def assert_recorded(path: Path, key: str, digests) -> None:
    """``digests`` must equal those recorded under ``key`` in ``path``, in
    the ``all_families`` set or else in the set of this process's kernel
    family; a mismatch names the first envelope field that differs."""
    reference = json.loads(path.read_text(encoding="utf-8"))
    recorded = reference.get(ALL_FAMILIES, {})
    if key not in recorded:
        recorded = reference[kernel_family(envelope())]
    assert digests == recorded[key], envelope_note(recorded[ENVELOPE])


def run_digests(record) -> dict[str, str]:
    trajectory = hashlib.sha256()
    trajectory.update(record.best_value_trace.tobytes())
    trajectory.update(record.final_position.tobytes())
    trajectory.update(repr(record.final_value).encode())
    trajectory.update(repr(record.nonfinite_iterations).encode())
    counts = hashlib.sha256()
    counts.update(repr(record.evaluations).encode())
    counts.update(repr(sorted(record.fallback_counts.items())).encode())
    return {"trajectory": trajectory.hexdigest(), "counts": counts.hexdigest()}


def holed_sphere(x) -> float:
    """Sphere that is NaN for x0 > 6, -inf for x0 < -8 and +inf for x1 < -7."""
    if x[0] > 6.0:
        return math.nan
    if x[0] < -8.0:
        return -math.inf
    if x[1] < -7.0:
        return math.inf
    return float(x[0] * x[0] + x[1] * x[1])


# case -> (objective, dimension, particles, box limit, SwarmConfig overrides)
OPTION_CASES = {
    "lookback_3": ("griewank", 2, 6, 600.0, {"lookback": 3}),
    "nonfinite": ("holed", 2, 6, 10.0, {}),
}


def option_objective(case) -> Objective:
    name, dimension, _, limit, _ = OPTION_CASES[case]
    bounds = Bounds.symmetric(limit, dimension)
    if name == "holed":
        return Objective("holed", dimension, bounds, evaluate=holed_sphere)
    return make_objective(name, dimension, bounds)


def option_digests(variant, case) -> dict[str, dict[str, str]]:
    _, dimension, particles, _, overrides = OPTION_CASES[case]
    objective = option_objective(case)
    bounds = objective.bounds
    digests = {}
    for seed in OPTION_SEEDS:
        config = SwarmConfig(
            dimension=dimension,
            n_particles=particles,
            bounds=bounds,
            iterations=200,
            variant=variant,
            seed=seed,
            **overrides,
        )
        digests[str(seed)] = run_digests(run(config, objective, timing=False))
    return digests


def row_digests(variant, name, dimension, particles, limit) -> dict[str, dict[str, str]]:
    bounds = Bounds.symmetric(limit, dimension)
    objective = make_objective(name, dimension, bounds)
    digests = {}
    for seed in SEEDS:
        config = SwarmConfig(
            dimension=dimension,
            n_particles=particles,
            bounds=bounds,
            iterations=200,
            variant=variant,
            seed=seed,
        )
        digests[str(seed)] = run_digests(run(config, objective, timing=False))
    return digests


def row_key(variant, name, dimension) -> str:
    return f"{variant}/{name}_{dimension}d"


CASES = [
    pytest.param(variant, row[:4], id=row_key(variant, row[0], row[1]))
    for variant in VARIANTS
    for row in BENCHMARK_ROWS
]


@pytest.mark.parametrize("variant,row", CASES)
def test_runs_match_recorded_digests(variant, row):
    name, dimension, _, _ = row
    assert_recorded(REFERENCE_FILE, row_key(variant, name, dimension), row_digests(variant, *row))


def option_key(variant, case) -> str:
    return f"{variant}/option:{case}"


@pytest.mark.parametrize(
    "variant,case",
    [
        pytest.param(variant, case, id=option_key(variant, case))
        for variant in VARIANTS
        for case in OPTION_CASES
    ],
)
def test_option_runs_match_recorded_digests(variant, case):
    assert_recorded(REFERENCE_FILE, option_key(variant, case), option_digests(variant, case))


def variant_keys(variant) -> set[str]:
    keys = {row_key(variant, row[0], row[1]) for row in BENCHMARK_ROWS}
    return keys | {option_key(variant, case) for case in OPTION_CASES}


def test_reference_file_holds_exactly_the_cases_run_here():
    # A deleted case must take its digests along; a case without digests
    # fails here, without running the engine. Standard-variant digests are
    # kept once, surrogate digests once per family.
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    assert set(reference) == {ALL_FAMILIES, *FAMILIES}
    assert set(reference[ALL_FAMILIES]) == variant_keys(VARIANT_STANDARD) | {ENVELOPE}
    for family in FAMILIES:
        assert set(reference[family]) == variant_keys(VARIANT_SURROGATE) | {ENVELOPE}


@pytest.mark.parametrize("name", ["reference_runs", "reference_kernel", "reference_artifacts"])
def test_reference_file_records_the_envelope(name):
    # Each family's set was recorded under a core of that family.
    reference = json.loads(REFERENCE_FILE.with_name(f"{name}.json").read_text(encoding="utf-8"))
    assert set(reference) - {ALL_FAMILIES} == set(FAMILIES)
    for family in FAMILIES:
        recorded = reference[family][ENVELOPE]
        assert set(recorded) == set(ENVELOPE_FIELDS)
        assert kernel_family(recorded) == family
    if ALL_FAMILIES in reference:
        assert set(reference[ALL_FAMILIES][ENVELOPE]) == {"numpy", "scipy"}


def kernel_digests(objective, particles, overrides=None) -> dict[str, str]:
    """Per seed, a sha256 over the output of every ``fit`` and ``minimize``
    call of a surrogate run, in call order, plus the number of fits.

    Both names are replaced where ``surrogate.surrogate_attractor`` looks
    them up, the module globals, as the benchmark's tracer does.
    """
    real_fit, real_minimize = surrogate.fit, surrogate.minimize
    digests = {}
    for seed in KERNEL_SEEDS:
        h = hashlib.sha256()
        fits = 0

        def recording_fit(points, values):
            nonlocal fits
            fits += 1
            try:
                model = real_fit(points, values)
            except surrogate.SingularMatrixError:
                h.update(surrogate.FALLBACK_SINGULAR_SYSTEM.encode())
                raise
            h.update(model.linear.tobytes())
            h.update(model.quad.tobytes())
            return model

        def recording_minimize(model):
            try:
                x = real_minimize(model)
            except surrogate.SingularMatrixError:
                h.update(surrogate.FALLBACK_SINGULAR_QUADRATIC.encode())
                raise
            h.update(x.tobytes())
            return x

        config = SwarmConfig(
            dimension=objective.dimension,
            n_particles=particles,
            bounds=objective.bounds,
            iterations=200,
            variant=VARIANT_SURROGATE,
            seed=seed,
            **(overrides or {}),
        )
        surrogate.fit, surrogate.minimize = recording_fit, recording_minimize
        try:
            run(config, objective, timing=False)
        finally:
            surrogate.fit, surrogate.minimize = real_fit, real_minimize
        digests[str(seed)] = f"{fits}:{h.hexdigest()}"
    return digests


def row_kernel_digests(name, dimension, particles, limit) -> dict[str, str]:
    bounds = Bounds.symmetric(limit, dimension)
    return kernel_digests(make_objective(name, dimension, bounds), particles)


def option_kernel_digests(case) -> dict[str, str]:
    _, _, particles, _, overrides = OPTION_CASES[case]
    return kernel_digests(option_objective(case), particles, overrides)


@pytest.mark.parametrize(
    "row", [pytest.param(row[:4], id=f"{row[0]}_{row[1]}d") for row in BENCHMARK_ROWS]
)
def test_kernel_outputs_match_recorded_digests(row):
    name, dimension, _, _ = row
    assert_recorded(KERNEL_FILE, f"{name}_{dimension}d", row_kernel_digests(*row))


@pytest.mark.parametrize("case", [pytest.param(case, id=f"option:{case}") for case in OPTION_CASES])
def test_option_kernel_outputs_match_recorded_digests(case):
    assert_recorded(KERNEL_FILE, f"option:{case}", option_kernel_digests(case))


def test_nonfinite_case_hits_every_hole():
    # The NaN, -inf and +inf regions must all be sampled, or the case
    # would pin nothing about the non-finite path.
    bounds = Bounds.symmetric(10.0, 2)
    seen = set()

    def recording(x):
        value = holed_sphere(x)
        if not math.isfinite(value):
            seen.add(repr(value))
        return value

    objective = Objective(name="holed", dimension=2, bounds=bounds, evaluate=recording)
    for seed in OPTION_SEEDS:
        config = SwarmConfig(dimension=2, n_particles=6, bounds=bounds, seed=seed)
        run(config, objective, timing=False)
    assert seen == {"nan", "-inf", "inf"}


@pytest.mark.parametrize("variant", VARIANTS)
def test_nonfinite_iterations_are_those_of_a_nonfinite_particle_value(variant, monkeypatch):
    # The objective records, per step, the values it returned in call order:
    # the particles' first, then the surrogate probe's, if one was made. A
    # run flags exactly the steps where some particle's value was NaN, -inf
    # or +inf.
    bounds = Bounds.symmetric(10.0, 2)
    steps = []
    real_step = Swarm.step

    def step(swarm):
        steps.append([])
        real_step(swarm)

    def recording(x):
        value = holed_sphere(x)
        steps[-1].append(value)
        return value

    monkeypatch.setattr(Swarm, "step", step)
    objective = Objective(name="holed", dimension=2, bounds=bounds, evaluate=recording)
    seen = set()
    for seed in range(5):
        config = SwarmConfig(dimension=2, n_particles=6, bounds=bounds, variant=variant, seed=seed)
        steps.clear()
        record = run(config, objective, timing=False)
        assert len(steps) == config.iterations
        flagged = set()
        for k, values in enumerate(steps):
            bad = [repr(value) for value in values[: config.n_particles] if not math.isfinite(value)]
            seen.update(bad)
            if bad:
                flagged.add(k)
        assert flagged
        assert record.nonfinite_iterations == tuple(sorted(flagged))
    assert seen == {"nan", "-inf", "inf"}


def leaf_digests(tree: dict, prefix: str = "") -> dict[str, str]:
    """Every digest of a nested reference dict, keyed by its path."""
    leaves = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            leaves.update(leaf_digests(value, f"{prefix}{key} "))
        else:
            leaves[prefix + key] = value
    return leaves


def rewrite(path: Path, recorded: dict, shared: dict | None = None) -> None:
    """Write ``recorded`` to ``path`` as the set of this process's kernel
    family, and ``shared``, when given, as the ``all_families`` set, each
    with this process's envelope; keep the other families' sets. Print the
    envelope and every digest or envelope field that changed."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    here = envelope()
    family = kernel_family(here)
    new = {**old, family: {ENVELOPE: here, **recorded}}
    if shared is not None:
        versions = {field: here[field] for field in ("numpy", "scipy")}
        new[ALL_FAMILIES] = {ENVELOPE: versions, **shared}
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    was, now = leaf_digests(old), leaf_digests(new)
    changed = sorted(leaf for leaf in was.keys() | now.keys() if was.get(leaf) != now.get(leaf))
    rows = len(recorded) + len(shared or {})
    print(f"wrote {rows} rows ({family} family) to {path}; {len(changed)} entries changed")
    print("  envelope: " + ", ".join(f"{field} {here[field]}" for field in ENVELOPE_FIELDS))
    for line in changed:
        print(f"  changed: {line}")


def variant_digests(variant) -> dict:
    digests = {
        row_key(variant, row[0], row[1]): row_digests(variant, *row[:4]) for row in BENCHMARK_ROWS
    }
    digests.update((option_key(variant, case), option_digests(variant, case)) for case in OPTION_CASES)
    return digests


if __name__ == "__main__":
    rewrite(REFERENCE_FILE, variant_digests(VARIANT_SURROGATE), variant_digests(VARIANT_STANDARD))
    kernel = {f"{row[0]}_{row[1]}d": row_kernel_digests(*row[:4]) for row in BENCHMARK_ROWS}
    kernel.update((f"option:{case}", option_kernel_digests(case)) for case in OPTION_CASES)
    rewrite(KERNEL_FILE, kernel)
