"""The names that the perfbench harness wraps or imports from qswarm exist.

perfbench patches engine methods and module functions by name from outside
the package, so a rename there shows up only as a failed benchmark run.
"""

import importlib.util
import inspect
import os
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


def test_run_batch_keeps_the_signature_the_benchmark_wraps():
    # perfbench replaces qswarm.cli.run_batch with a wrapper of this
    # signature that passes all three arguments on by position.
    params = inspect.signature(qswarm.cli.run_batch).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("spec", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("objective", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
        ("timing", inspect.Parameter.POSITIONAL_OR_KEYWORD, True),
    ]


def test_a_run_replaced_before_main_reaches_every_pooled_run(tmp_path, monkeypatch):
    """perfbench installs its traced ``run`` and ``run_batch`` and then calls
    ``cli.main``; the pool workers must fork after that. One real pool of 2
    workers serves the whole invocation."""
    real_run, real_batch = qswarm.experiments.run, qswarm.cli.run_batch
    records = []

    def tagged_run(config, objective, timing=True):
        record = real_run(config, objective, timing)
        record.worker_pid = os.getpid()
        return record

    def recording_batch(spec, objective=None, timing=True):
        results = real_batch(spec, objective, timing)
        records.extend(r for result in results.values() for r in result.records)
        return results

    monkeypatch.setattr(qswarm.experiments, "run", tagged_run)
    monkeypatch.setattr(qswarm.cli, "run_batch", recording_batch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["benchmark", "--runs", "1", "--jobs", "2", "--no-timing", "--out", str(tmp_path)]
    assert qswarm.cli.main(argv) == 0
    assert len(records) == 2 * len(qswarm.cli.BENCHMARK_ROWS)
    pids = {vars(record).get("worker_pid") for record in records}
    assert None not in pids and os.getpid() not in pids
    assert len(pids) <= 2
