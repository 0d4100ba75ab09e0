"""The names that the perfbench harness wraps or imports from qswarm exist.

perfbench patches engine methods and module functions by name from outside
the package, so a rename there shows up only as a failed benchmark run.
"""

import importlib.util
import inspect
import os
from pathlib import Path

import numpy as np

import qswarm
import qswarm.cli
import qswarm.experiments
import qswarm.surrogate
import qswarm.swarm
from qswarm.archive import Archive
from qswarm.objectives import Bounds, Objective

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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["benchmark", "--runs", "1", "--jobs", "2", "--no-timing", "--out", str(tmp_path)]
    assert qswarm.cli.main(argv) == 0
    assert len(records) == 2 * len(qswarm.cli.BENCHMARK_ROWS)
    pids = {vars(record).get("worker_pid") for record in records}
    assert None not in pids and os.getpid() not in pids
    assert len(pids) <= 2


def test_the_hooks_the_benchmark_times_are_reached(tmp_path, monkeypatch):
    """perfbench times CSV writing and statistics by replacing these names
    and reads its spans by them, so each must still be called through them."""
    calls = dict.fromkeys(("write_runs_csv", "write_comparison_csv", "summarize_records"), 0)

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(qswarm.cli, "write_runs_csv")
    count(qswarm.cli, "write_comparison_csv")
    count(qswarm.experiments, "summarize_records")
    argv = ["benchmark", "--runs", "1", "--no-timing", "--out", str(tmp_path)]
    assert qswarm.cli.main(argv) == 0
    rows = len(qswarm.cli.BENCHMARK_ROWS)
    assert calls == {"write_runs_csv": rows, "write_comparison_csv": 1, "summarize_records": 2 * rows}


def test_the_surrogate_layers_the_tracer_wraps_are_reached(monkeypatch):
    """perfbench's ``surrogate.fit`` and ``surrogate.minimize`` spans come from
    wrappers on these module globals. A step that refits must reach each once
    and a memo hit neither, or ``--trace 1`` would time nothing or the wrong
    thing."""
    calls = {"fit": 0, "minimize": 0}

    def count(name):
        real = getattr(qswarm.surrogate, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(qswarm.surrogate, name, counting)

    count("fit")
    count("minimize")
    archive = Archive(6)
    for x, y in [(0, 0), (1, 0), (0, 1), (-1, 0.5), (0.5, -1), (1, 1)]:
        archive.observe(np.array([x, y], dtype=float), float(x * x + y * y))
    bounds = Bounds.symmetric(10.0, 2)
    # A value above every archived one is never stored: the particle's
    # offers and the first step's probe leave the archive unchanged, so the
    # second step hits the memo.
    objective = Objective("flat", 2, bounds, lambda x: 1e6)
    config = qswarm.SwarmConfig(2, 1, bounds, iterations=2, variant=qswarm.VARIANT_SURROGATE)
    swarm = qswarm.swarm.Swarm(config, objective)
    swarm.archive = archive
    swarm.step()
    assert calls == {"fit": 1, "minimize": 1}
    swarm.step()
    assert calls == {"fit": 1, "minimize": 1}
    assert swarm.fallback_counts["non_improving"] == swarm.fallback_counts["repeated"] == 1


def test_a_surrogate_step_still_offers_particles_to_the_archive(monkeypatch):
    """perfbench's ``archive.*`` metrics come from a wrapper on
    ``Archive.observe``. The step skips only offers the archive would refuse,
    so a surrogate run must still offer particles, some of them stored,
    besides the probe. The step offers the particles before it asks for the
    proposal and the probe after it, one offer per evaluated probe."""
    phase = {"step": False, "proposed": False}
    particle_offers, probe_offers = [], []

    def step(self):
        phase.update(step=True, proposed=False)
        try:
            return real_step(self)
        finally:
            phase["step"] = False

    def proposal(*args, **kwargs):
        result = real_proposal(*args, **kwargs)
        phase["proposed"] = True
        return result

    def recording_observe(self, x, fx):
        stored = real_observe(self, x, fx)
        assert phase["step"]
        (probe_offers if phase["proposed"] else particle_offers).append(stored)
        return stored

    real_step, real_proposal, real_observe = (
        qswarm.swarm.Swarm.step,
        qswarm.swarm.surrogate_attractor,
        Archive.observe,
    )
    monkeypatch.setattr(qswarm.swarm.Swarm, "step", step)
    monkeypatch.setattr(qswarm.swarm, "surrogate_attractor", proposal)
    monkeypatch.setattr(Archive, "observe", recording_observe)
    objective = qswarm.make_objective("sphere", 2)
    config = qswarm.SwarmConfig(
        dimension=2,
        n_particles=6,
        bounds=objective.bounds,
        iterations=30,
        variant=qswarm.VARIANT_SURROGATE,
    )
    record = qswarm.run(config, objective, timing=False)
    assert any(particle_offers)
    counts = record.fallback_counts
    assert len(probe_offers) == counts["none"] + counts["non_improving"] > 0


def test_the_benchmark_checks_pass_on_runs_of_every_row():
    """perfbench counts a run as failed when ``check_record`` finds a problem
    in it, and that check derives the evaluation count from the fallback
    counts by its own copy of the probe's evaluation rule. A change to the
    rule must fail here rather than in a benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", TRACING.with_name("checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    for name, dimension, particles, limit, _, _ in qswarm.cli.BENCHMARK_ROWS:
        objective = qswarm.make_objective(name, dimension, Bounds.symmetric(limit, dimension))
        for variant in qswarm.swarm.VARIANTS:
            config = qswarm.SwarmConfig(dimension, particles, objective.bounds, variant=variant)
            record = qswarm.run(config, objective, timing=False)
            assert checks.check_record(config, objective, record) == [], (name, dimension, variant)
