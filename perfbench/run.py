#!/usr/bin/env python3
"""qswarm benchmark: three closed-loop workloads, one result line.

    python3 perfbench/run.py --workload std_suite --seed 7 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``std_suite``    every row of ``qswarm.cli.BENCHMARK_ROWS``, standard
                   variant, one in-process ``qswarm.run`` after another in
                   each of two client interpreters, one per core;
* ``qs_suite``     the same rows and seeds, surrogate variant;
* ``paper_cli_j2`` ``qswarm benchmark --runs 32 --jobs 2 --no-timing`` as a
                   subprocess, both variants, all CSV artifacts.

``--trace 0`` reports the end-to-end metrics of untraced runs; in-process
times are scaled to a reference host speed (see CALIB_REF_MS). ``--trace 1``
runs each round (invocation) untraced and then with tracing wrappers
installed, alternating, and reports the per-layer metrics. Every run is checked; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread here and in every child, so the benchmark never
# runs more threads than the machine has cores. Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("std_suite", "qs_suite", "paper_cli_j2")
ITERATIONS = 200  # per run, as `qswarm benchmark` uses
SOLVED_TOL = 1e-6  # every objective has its minimum 0 at the origin
SETUP_PROBES = 8
# In-process workloads run in this many client interpreters at once, one per
# core of the 2-core reference machine, as paper_cli_j2 runs 2 pool workers,
# and in SHIFTS consecutive sets of fresh clients. With one core busy and
# one idle the host's speed swings far more between executions than with
# both busy, and a single interpreter keeps its own speed (layout luck) for
# its whole life, so the median round time is taken over 10 interpreters.
CLIENTS = 2
SHIFTS = 5
STREAMS = CLIENTS * SHIFTS
CALIB_REPEATS = 3
# In-process clients time a short calibration loop after every round and
# report times scaled to a host that runs that loop in CALIB_REF_MS (its
# median on the reference machine with both cores busy). The host's speed
# swings up to 2x in spells longer than one execution, and the engine's
# round time moves with the loop's, so the scaled times vary less between
# executions than the raw ones, which are printed beside them.
ROUND_CALIB_LOOPS = 50_000
CALIB_REF_MS = 7.0
WARMUP_S = 0.5
# Runs per row and variant in one CLI invocation. A power of two, so that
# invocation i at base seed (seed ^ i*N) runs exactly seeds seed ^ (i*N + j).
# Interpreter start, imports and the 12 process pools cost about 0.7-0.8 s
# per invocation on the reference machine (an N = 1 invocation takes
# 0.86-0.97 s): about 9% of an N = 32 invocation (8.6-9.1 s), against 6% at
# N = 50 and 30% at N = 8. N = 64 would leave too few invocations per run.
CLI_RUNS = 32
CLI_JOBS = 2
# solved_ratio and evals_per_run come from the first rounds (CLI: the first
# invocations) of the seed sequence, and at least that many always run, so
# they depend on the seed and the code but not on the machine's speed.
ACCURACY_ROUNDS = {"std_suite": 150, "qs_suite": 40, "paper_cli_j2": 1}

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "solved_ratio": "ratio",
    "evals_per_run": "count",
}


class BenchmarkRefused(RuntimeError):
    """The benchmark cannot vouch for its numbers and reports none."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as in-process client number K (see in_process_end_to_end).
    parser.add_argument("--client", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- host and set-up measurements ---------------------------------------------


def calibrate_ms(loops=200_000) -> float:
    """Time of a fixed pure-Python loop: how fast the host runs us right now."""
    start = perf_counter()
    total = 0.0
    for i in range(loops):
        total += (i * 0.5) % 7.0
    return (perf_counter() - start) * 1e3


def setup_probes():
    """Set-up seconds and package import seconds, from fresh interpreters.

    Probes start CLIENTS at a time, so set-up is timed with every core busy,
    as the workloads run. A first single probe is discarded: it may compile
    bytecode or fill the page cache, which later starts do not pay.
    """
    setup, imports = [], []
    batches = [1] + [CLIENTS] * (SETUP_PROBES // CLIENTS)
    for k, size in enumerate(batches):
        start = perf_counter()
        procs = [
            subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE, text=True, cwd=ROOT)
            for _ in range(size)
        ]
        ready = [(proc.stdout.readline(), perf_counter() - start) for proc in procs]
        for proc, (line, elapsed) in zip(procs, ready):
            with proc:
                proc.stdout.read()
            if proc.returncode != 0 or not line.startswith("ready "):
                raise BenchmarkRefused("set-up probe failed")
            if k:
                setup.append(elapsed)
                imports.append(float(line.split()[1]))
    return setup, imports


def finish(proc, start):
    """Read the child's one piped stream, reap it, and return
    (output, peak RSS MiB of its largest process, wall seconds).

    ``os.wait4`` gives this child's own resource use, including the workers
    it reaped, and nothing of this process or of other children.
    """
    pipe = proc.stdout or proc.stderr
    output = pipe.read()
    pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return output, usage.ru_maxrss / 1024.0, perf_counter() - start


def p90(values) -> float:
    # "inclusive" interpolates inside the sample; the default extrapolates
    # past the maximum when there are fewer than ten values.
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


# -- in-process workloads -------------------------------------------------------


def suite_rows():
    from qswarm import Bounds, make_objective
    from qswarm.cli import BENCHMARK_ROWS

    return [
        (make_objective(name, dim, Bounds.symmetric(limit, dim)), particles)
        for name, dim, particles, limit, *_ in BENCHMARK_ROWS
    ]


def suite_variant(workload):
    from qswarm import VARIANT_STANDARD, VARIANT_SURROGATE

    return VARIANT_STANDARD if workload == "std_suite" else VARIANT_SURROGATE


class Rounds:
    """Round j runs every row once with seed ^ j; runs are timed singly.

    Runs are checked after the round's clock stops and then dropped; only
    the first ``sample_runs`` keep (final value, evaluations), or None when
    they failed. So this process's memory barely grows with the number of runs
    a faster engine completes. ``on_record`` sees every record that raised
    nothing. With ``calibrate``, each round is followed by a calibration
    loop whose time goes to ``calib_ms``.
    """

    def __init__(self, rows, variant, seed, run_fn, on_record=None, sample_runs=0, calibrate=False):
        from qswarm import SwarmConfig

        self.make_config = SwarmConfig
        self.rows, self.variant, self.seed = rows, variant, seed
        self.run_fn, self.on_record = run_fn, on_record
        self.sample_runs = sample_runs
        self.calibrate = calibrate
        self.calib_ms = []
        self.outcomes = []
        self.attempted = 0
        self.failed = 0
        self.run_s = []
        self.round_s = []

    def run(self, j):
        from checks import check_record

        done = []
        start = perf_counter()
        for objective, particles in self.rows:
            config = self.make_config(
                dimension=objective.dimension,
                n_particles=particles,
                bounds=objective.bounds,
                iterations=ITERATIONS,
                variant=self.variant,
                seed=self.seed ^ j,
            )
            t0 = perf_counter()
            try:
                outcome = self.run_fn(config, objective)
            except Exception as err:  # counted as a failed run below
                outcome = err
            self.run_s.append(perf_counter() - t0)
            done.append((config, objective, outcome))
        self.round_s.append(perf_counter() - start)
        if self.calibrate:
            self.calib_ms.append(calibrate_ms(ROUND_CALIB_LOOPS))

        for config, objective, outcome in done:
            self.attempted += 1
            if isinstance(outcome, Exception):
                problems = [f"raised {outcome!r}"]
            else:
                problems = check_record(config, objective, outcome)
                if self.on_record:
                    self.on_record(outcome)
            if problems:
                self.failed += 1
                if self.failed <= 5:
                    print(f"check failed (seed={config.seed}, {objective.name}): {problems}", file=sys.stderr)
            if len(self.outcomes) < self.sample_runs:
                self.outcomes.append(None if problems else (outcome.final_value, outcome.evaluations))

    def run_until(self, deadline, min_rounds, first=0, step=1):
        """Rounds first, first + step, ... until the deadline, at least min_rounds."""
        j = first
        while (j - first) // step < min_rounds or perf_counter() < deadline:
            self.run(j)
            j += step


def accuracy(sample):
    """(solved_ratio, evals_per_run) over (final value, evaluations) pairs.

    Zero when every run failed; ``correct`` is false then anyway.
    """
    if not sample:
        return 0.0, 0.0
    solved = sum(final <= SOLVED_TOL for final, _ in sample)
    return solved / len(sample), statistics.fmean(evals for _, evals in sample)


def warm_up(rows, variant, seed):
    from qswarm import run

    Rounds(rows, variant, seed, run).run_until(perf_counter() + WARMUP_S, 1)


def client(args) -> dict:
    """In-process client ``args.client``: rounds client, client + STREAMS, ...

    Together the clients run rounds 0, 1, 2, ..., and between them always
    the first ACCURACY_ROUNDS, whose outcomes make the accuracy sample.
    """
    from qswarm import run

    rows = suite_rows()
    variant = suite_variant(args.workload)
    warm_up(rows, variant, args.seed)
    sample_rounds = len(range(args.client, ACCURACY_ROUNDS[args.workload], STREAMS))
    timed = Rounds(rows, variant, args.seed, run, sample_runs=sample_rounds * len(rows), calibrate=True)
    timed.run_until(perf_counter() + args.seconds, sample_rounds, args.client, STREAMS)
    return {
        "attempted": timed.attempted,
        "failed": timed.failed,
        "runs_per_round": len(rows),
        "round_s": timed.round_s,
        "run_s": timed.run_s,
        "calib_ms": timed.calib_ms,
        "outcomes": timed.outcomes,
    }


def in_process_end_to_end(args, setup):
    reports, rss = [], []
    for shift in range(SHIFTS):
        start = perf_counter()
        procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--client", str(shift * CLIENTS + k),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds / SHIFTS)],
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
            )
            for k in range(CLIENTS)
        ]
        for proc in procs:
            output, peak, _ = finish(proc, start)
            if proc.returncode != 0:
                raise BenchmarkRefused(f"in-process client exited {proc.returncode}")
            reports.append(json.loads(output))
            rss.append(peak)

    # Every time is scaled by CALIB_REF_MS over the calibration that followed
    # its round. CLIENTS rounds ran side by side at any time, so the
    # workload's rate is CLIENTS times the runs in a round over the median
    # round time.
    per_round = reports[0]["runs_per_round"]
    round_s, run_s, raw_round_s, raw_run_s = [], [], [], []
    for r in reports:
        scales = [CALIB_REF_MS / c for c in r["calib_ms"]]
        round_s += [t * k for t, k in zip(r["round_s"], scales)]
        run_s += [t * scales[n // per_round] for n, t in enumerate(r["run_s"])]
        raw_round_s += r["round_s"]
        raw_run_s += r["run_s"]
    rate = CLIENTS * per_round / statistics.median(round_s)
    print(
        f"unscaled runs_per_s {CLIENTS * per_round / statistics.median(raw_round_s):.6g} "
        f"run_ms_p50 {statistics.median(raw_run_s) * 1e3:.6g} run_ms_p90 {p90(raw_run_s) * 1e3:.6g}; "
        f"round calib_ms median {statistics.median(c for r in reports for c in r['calib_ms']):.4g}"
    )
    sample = [tuple(o) for r in reports for o in r["outcomes"] if o is not None]
    solved, evals = accuracy(sample)
    metrics = {
        "runs_per_s": (rate, len(round_s)),
        "run_ms_p50": (statistics.median(run_s) * 1e3, len(run_s)),
        "run_ms_p90": (p90(run_s) * 1e3, len(run_s)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (max(rss), len(rss)),
        "solved_ratio": (solved, len(sample)),
        "evals_per_run": (evals, len(sample)),
    }
    return sum(r["attempted"] for r in reports), sum(r["failed"] for r in reports), metrics


def add_fallbacks(reasons, record):
    for reason, count in record.fallback_counts.items():
        reasons[reason] = reasons.get(reason, 0) + count


def in_process_traced(args):
    from qswarm import run
    from tracing import SPANS_ATTR, Tracer, engine_targets, patched

    rows = suite_rows()
    variant = suite_variant(args.workload)
    warm_up(rows, variant, args.seed)
    tracer = Tracer()
    reasons = {}

    def on_record(record):
        tracer.merge(vars(record).pop(SPANS_ATTR))
        add_fallbacks(reasons, record)

    untraced = Rounds(rows, variant, args.seed, run)
    traced = Rounds(rows, variant, args.seed, lambda c, o: tracer.traced_run(run, c, o), on_record)
    # Each round runs untraced, then traced, so host drift hits both alike.
    deadline = perf_counter() + args.seconds
    j = 0
    while j < 1 or perf_counter() < deadline:
        untraced.run(j)
        with patched(tracer, engine_targets()):
            traced.run(j)
        j += 1

    attempted = untraced.attempted + traced.attempted
    overhead = sum(traced.round_s) / sum(untraced.round_s)
    return attempted, untraced.failed + traced.failed, tracer.stats, reasons, overhead, None


# -- the CLI workload -----------------------------------------------------------


def cli_argv(seed, jobs, out):
    return [
        "benchmark",
        "--runs", str(CLI_RUNS),
        "--jobs", str(jobs),
        "--no-timing",
        "--seed", str(seed),
        "--out", str(out),
    ]


def cli_seed(seed, i):
    return seed ^ (i * CLI_RUNS)


def run_cli_subprocess(argv, cwd):
    """(wall seconds, peak RSS MiB of the CLI or its largest worker); NaN wall on failure."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qswarm.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
    )
    stderr, rss, elapsed = finish(proc, start)
    if proc.returncode != 0:
        print(f"qswarm benchmark exited {proc.returncode}: {stderr.strip()}", file=sys.stderr)
        return float("nan"), rss
    return elapsed, rss


def run_reference(args, reference, cwd):
    if math.isnan(run_cli_subprocess(cli_argv(cli_seed(args.seed, 0), 1, reference), cwd)[0]):
        raise BenchmarkRefused("the --jobs 1 reference invocation failed")


def cli_checks(args, tmp, invocations, reference):
    """Check every invocation's artifacts; returns (attempted, failed, runs).

    ``invocations`` are (index, output dir) pairs; ``reference`` is a
    ``--jobs 1`` output at the seed of invocation 0, which the first
    ``--jobs 2`` output must match byte for byte. ``runs`` holds the parsed
    runs.csv rows of each checked invocation, in order.
    """
    from checks import check_cli_output, identical_trees
    from qswarm.cli import BENCHMARK_ROWS

    differ = identical_trees(reference, invocations[0][1])
    if differ:
        raise BenchmarkRefused(f"--jobs {CLI_JOBS} artifacts differ from --jobs 1: {differ}")

    per_invocation = 2 * CLI_RUNS * len(BENCHMARK_ROWS)
    attempted, failed, runs = 0, 0, []
    for i, out in invocations:
        attempted += per_invocation
        bad, parsed = check_cli_output(out, BENCHMARK_ROWS, CLI_RUNS, cli_seed(args.seed, i), ITERATIONS)
        failed += bad
        runs.append(parsed)

    failed += recompute_mismatches(args, runs[0])
    return attempted, failed, runs


def recompute_mismatches(args, first) -> int:
    """Worker results of invocation 0, run j=0, must equal in-process runs."""
    from checks import row_slug
    from qswarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig, run

    mismatches = 0
    for objective, particles in suite_rows():
        rows = first.get(row_slug(objective.name, objective.dimension), [])
        for k, variant in enumerate((VARIANT_STANDARD, VARIANT_SURROGATE)):
            if len(rows) <= k * CLI_RUNS:
                continue  # already counted as failed by the CSV checks
            config = SwarmConfig(
                dimension=objective.dimension,
                n_particles=particles,
                bounds=objective.bounds,
                iterations=ITERATIONS,
                variant=variant,
                seed=cli_seed(args.seed, 0),
            )
            record = run(config, objective, timing=False)
            row = rows[k * CLI_RUNS]
            if (float(row["final_value"]), int(row["evaluations"])) != (record.final_value, record.evaluations):
                print(f"worker result differs from in-process run: {objective.name} {variant}", file=sys.stderr)
                mismatches += 1
    return mismatches


def cli_end_to_end(args, setup, tmp):
    reference = tmp / "jobs1"
    # Untimed: the byte-identity reference, which also warms the page cache.
    run_reference(args, reference, tmp)
    walls, rss, invocations = [], [], []
    deadline = perf_counter() + args.seconds
    i = 0
    while i < ACCURACY_ROUNDS["paper_cli_j2"] or perf_counter() < deadline:
        out = tmp / f"inv{i}"
        wall, peak = run_cli_subprocess(cli_argv(cli_seed(args.seed, i), CLI_JOBS, out), tmp)
        walls.append(wall)
        rss.append(peak)
        invocations.append((i, out))
        i += 1

    attempted, failed, runs = cli_checks(args, tmp, invocations, reference)
    ok_walls = [w for w in walls if not math.isnan(w)]
    if not ok_walls:
        raise BenchmarkRefused("every qswarm benchmark invocation failed")
    per_invocation = attempted // len(invocations)  # runs in one invocation
    amortised_ms = [w * 1e3 / per_invocation for w in ok_walls]
    sample = [
        (float(row["final_value"]), int(row["evaluations"]))
        for parsed in runs[: ACCURACY_ROUNDS["paper_cli_j2"]]
        for rows in parsed.values()
        for row in rows
    ]
    solved, evals = accuracy(sample)
    metrics = {
        "runs_per_s": (per_invocation / statistics.median(ok_walls), len(ok_walls)),
        "run_ms_p50": (statistics.median(amortised_ms), len(ok_walls)),
        "run_ms_p90": (p90(amortised_ms), len(ok_walls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (max(rss), len(rss)),
        "solved_ratio": (solved, len(sample)),
        "evals_per_run": (evals, len(sample)),
    }
    return attempted, failed, metrics


def cli_in_process(argv) -> float:
    import qswarm.cli

    start = perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = qswarm.cli.main(argv)
    elapsed = perf_counter() - start
    if code != 0:
        raise BenchmarkRefused(f"qswarm benchmark exited {code}")
    return elapsed


def cli_traced(args, tmp):
    import qswarm.cli
    import qswarm.experiments
    from checks import identical_trees
    from tracing import SPANS_ATTR, TOTAL, Tracer, engine_targets, patched

    # Untimed: the byte-identity reference, run in this process so that the
    # invocations below start warm.
    reference = tmp / "jobs1"
    cli_in_process(cli_argv(cli_seed(args.seed, 0), 1, reference))

    tracer = Tracer()
    reasons, batch_s, dispatch = {}, [], []
    real_run, real_batch = qswarm.experiments.run, qswarm.cli.run_batch

    def run_batch(spec, objective=None, timing=True):
        start = perf_counter()
        results = real_batch(spec, objective, timing)
        wall = perf_counter() - start
        run_s = 0.0
        for result in results.values():
            for record in result.records:
                spans = vars(record).pop(SPANS_ATTR, None)
                if spans is None:
                    raise BenchmarkRefused("pool workers ran untraced; tracing needs the fork start method")
                tracer.merge(spans)
                run_s += spans["run"][TOTAL]
                add_fallbacks(reasons, record)
        batch_s.append(wall)
        dispatch.append(wall - run_s / spec.jobs)
        return results

    targets = engine_targets() + [
        (qswarm.experiments, "summarize_records", "experiments.summarize_records", False),
        (qswarm.cli, "write_runs_csv", "experiments.csv_write", False),
        (qswarm.cli, "write_trace_csv", "experiments.csv_write", False),
        (qswarm.cli, "write_comparison_csv", "experiments.csv_write", False),
    ]
    replacements = [
        # Looked up by the pool's task function, also in forked workers.
        (qswarm.experiments, "run", lambda c, o, timing=True: tracer.traced_run(real_run, c, o, timing)),
        (qswarm.cli, "run_batch", run_batch),
    ]
    # Each invocation runs untraced, then traced, so host drift hits both alike.
    untraced, traced = [], []  # (index, output dir, wall seconds)
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        i = len(traced)
        out = tmp / f"inv{i}"
        untraced.append((i, out, cli_in_process(cli_argv(cli_seed(args.seed, i), CLI_JOBS, out))))
        out = tmp / f"traced{i}"
        with patched(tracer, targets, replacements):
            traced.append((i, out, cli_in_process(cli_argv(cli_seed(args.seed, i), CLI_JOBS, out))))

    dirs = [(i, out) for i, out, _ in untraced + traced]
    attempted, failed, _ = cli_checks(args, tmp, dirs, reference)
    if identical_trees(untraced[0][1], traced[0][1]):
        raise BenchmarkRefused("tracing changed the artifacts")
    overhead = sum(wall for *_, wall in traced) / sum(wall for *_, wall in untraced)
    n = len(traced)
    per_invocation = {
        "run_batch_s": sum(batch_s) / n,
        "dispatch_overhead_s": sum(dispatch) / n,
        "summarize_records_ms": tracer.stats["experiments.summarize_records"][TOTAL] * 1e3 / n,
        "csv_write_ms": tracer.stats["experiments.csv_write"][TOTAL] * 1e3 / n,
    }
    return attempted, failed, tracer.stats, reasons, overhead, per_invocation


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(stats, reasons, overhead, experiments, import_s, calib):
    from qswarm.surrogate import (
        FALLBACK_NON_IMPROVING,
        FALLBACK_NONE,
        FALLBACK_SINGULAR_QUADRATIC,
        FALLBACK_SINGULAR_SYSTEM,
    )
    from tracing import CALLS, SELF, STORED, TOTAL

    empty = [0, 0.0, 0.0, 0]
    runs = stats.get("run", empty)[CALLS]
    run_s = stats.get("run", empty)[TOTAL]

    def per_run(name):
        return stats.get(name, empty)[CALLS] / runs if runs else 0.0

    def us_per_call(name, slot=TOTAL):
        entry = stats.get(name, empty)
        return entry[slot] / entry[CALLS] * 1e6 if entry[CALLS] else 0.0

    def share(*names):
        return sum(stats.get(n, empty)[SELF] for n in names) / run_s if run_s else 0.0

    iterations = sum(reasons.values())

    def reason_ratio(reason):
        return reasons.get(reason, 0) / iterations if iterations else 0.0

    observe = stats.get("archive.observe", empty)
    experiments = experiments or dict.fromkeys(
        ("run_batch_s", "dispatch_overhead_s", "summarize_records_ms", "csv_write_ms"), 0.0
    )
    return {
        "objectives.evaluate.calls": (per_run("objectives.evaluate"), "calls/run"),
        "objectives.evaluate.us_per_call": (us_per_call("objectives.evaluate"), "us"),
        "objectives.evaluate.share": (share("objectives.evaluate"), "ratio"),
        "swarm.init.us_per_call": (us_per_call("swarm.init"), "us"),
        "swarm.step.calls": (per_run("swarm.step"), "calls/run"),
        "swarm.step.self_us_per_call": (us_per_call("swarm.step", SELF), "us"),
        "swarm.share": (share("swarm.init", "swarm.step"), "ratio"),
        "surrogate.attractor.calls": (per_run("surrogate.attractor"), "calls/run"),
        "surrogate.attractor.self_us_per_call": (us_per_call("surrogate.attractor", SELF), "us"),
        "surrogate.fit.us_per_call": (us_per_call("surrogate.fit"), "us"),
        "surrogate.minimize.us_per_call": (us_per_call("surrogate.minimize"), "us"),
        "surrogate.share": (share("surrogate.attractor", "surrogate.fit", "surrogate.minimize"), "ratio"),
        "surrogate.accept_ratio": (reason_ratio(FALLBACK_NONE), "ratio"),
        "surrogate.fallback.singular_system_ratio": (reason_ratio(FALLBACK_SINGULAR_SYSTEM), "ratio"),
        "surrogate.fallback.singular_quadratic_ratio": (reason_ratio(FALLBACK_SINGULAR_QUADRATIC), "ratio"),
        "surrogate.fallback.non_improving_ratio": (reason_ratio(FALLBACK_NON_IMPROVING), "ratio"),
        "archive.observe.calls": (per_run("archive.observe"), "calls/run"),
        "archive.observe.us_per_call": (us_per_call("archive.observe"), "us"),
        "archive.observe.stored_ratio": (observe[STORED] / observe[CALLS] if observe[CALLS] else 0.0, "ratio"),
        "archive.sorted_points.us_per_call": (us_per_call("archive.sorted_points"), "us"),
        "archive.share": (share("archive.observe", "archive.sorted_points", "archive.best"), "ratio"),
        "experiments.run_batch_s": (experiments["run_batch_s"], "s"),
        "experiments.dispatch_overhead_s": (experiments["dispatch_overhead_s"], "s"),
        "experiments.summarize_records_ms": (experiments["summarize_records_ms"], "ms"),
        "experiments.csv_write_ms": (experiments["csv_write_ms"], "ms"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "host.calib_ms": (statistics.median(calib), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# -- entry point --------------------------------------------------------------------


def benchmark(args, tmp):
    calib = [calibrate_ms() for _ in range(CALIB_REPEATS)]
    setup, import_s = setup_probes()
    if args.trace:
        if args.workload == "paper_cli_j2":
            outcome = cli_traced(args, tmp)
        else:
            outcome = in_process_traced(args)
        attempted, failed, stats, reasons, overhead, experiments = outcome
    elif args.workload == "paper_cli_j2":
        attempted, failed, measured = cli_end_to_end(args, setup, tmp)
    else:
        attempted, failed, measured = in_process_end_to_end(args, setup)
    calib += [calibrate_ms() for _ in range(CALIB_REPEATS)]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"host.calib_ms before {statistics.median(calib[:CALIB_REPEATS]):.2f} after {statistics.median(calib[CALIB_REPEATS:]):.2f}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} runs)")
    if args.trace:
        table = [
            (name, value, unit, "")
            for name, (value, unit) in layer_metrics(stats, reasons, overhead, experiments, import_s, calib).items()
        ]
    else:
        table = [
            (name, value, END_TO_END_UNITS[name], f"n={samples}")
            for name, (value, samples) in measured.items()
        ]
    for name, value, unit, note in table:
        print(f"{name:<44} {value:14.6g} {unit:<9} {note}".rstrip())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in table},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.client is not None:
        sys.path.insert(0, str(SRC))
        print(json.dumps(client(args)))
        return 0
    if not (SRC / "qswarm" / "__init__.py").is_file():
        print(f"error: no qswarm package under {SRC}; run from a qswarm checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    tmp = scratch / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep every file this run and its children write inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    try:
        result = benchmark(args, tmp)
    except BenchmarkRefused as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
