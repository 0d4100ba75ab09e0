"""The names that the perfbench harness wraps or imports from qswarm exist.

perfbench patches engine methods and module functions by name from outside
the package, so a rename there shows up only as a failed benchmark run.
"""

import importlib.util
from pathlib import Path

import qswarm
import qswarm.cli
import qswarm.experiments

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_engine_targets_exist_and_are_callable():
    targets = load_tracing().engine_targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr}"


def test_names_the_benchmark_driver_uses_exist():
    exported = (
        "Bounds", "SwarmConfig", "VARIANT_STANDARD", "VARIANT_SURROGATE", "make_objective", "run"
    )
    for module, attr in [
        *((qswarm, name) for name in exported),
        (qswarm.cli, "main"),
        (qswarm.cli, "BENCHMARK_ROWS"),
        (qswarm.cli, "run_batch"),
        (qswarm.cli, "write_runs_csv"),
        (qswarm.cli, "write_trace_csv"),
        (qswarm.cli, "write_comparison_csv"),
        (qswarm.experiments, "run"),
        (qswarm.experiments, "summarize_records"),
        (qswarm.experiments, "RUNS_HEADER"),
    ]:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
