"""Command-line interface: single runs, batches, and the benchmark suite.

``qswarm run`` executes one configuration (from flags or a JSON config file)
and writes its artifacts to a fresh output directory: ``config.echo.json``
(the effective configuration with all defaults applied), ``runs.csv``,
``trace_<variant>.csv`` per variant, and ``comparison.csv`` when both
variants run. Re-running from the echoed config reproduces the same CSVs.

``qswarm benchmark`` runs the full six-configuration comparison suite (both
variants on every row) and emits the comparison table plus per-row pass/fail
against directional accuracy thresholds.

Exit codes: 0 success, 2 invalid configuration (the message names the
offending key), 1 runtime failure. Floats in CSVs carry 17 significant
digits so artifacts can be diffed byte-wise; pass ``--no-timing`` to zero
the wall-clock columns when byte-stable output is required.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .experiments import (
    BatchSpec,
    compare,
    comparison_table_text,
    run_batch,
    shared_pool,
    write_comparison_csv,
    write_runs_csv,
    write_trace_csv,
)
from .objectives import Bounds, UnknownObjectiveError, default_bounds, objective_names
from .surrogate import required_points
from .swarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


# Config-file parameter key -> SwarmConfig field ("S" is the paper's name for
# the stagnation lookback). Defaults come from the SwarmConfig fields.
_PARAM_FIELDS = {
    "omega0": "omega0",
    "c1_0": "c1_0",
    "c2_0": "c2_0",
    "vmax0": "vmax0",
    "S": "lookback",
    "tau": "tau",
    "gamma_floor": "gamma_floor",
}
_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SwarmConfig)}
DEFAULT_PARAMS = {key: _FIELD_DEFAULTS[name] for key, name in _PARAM_FIELDS.items()}

CONFIG_KEYS = (
    "objective",
    "dimension",
    "bounds",
    "particles",
    "iterations",
    "runs",
    "seed",
    "variant",
    "params",
)

VARIANT_LABELS = {VARIANT_STANDARD: "standard", VARIANT_SURROGATE: "qs"}
# --variant choice -> the variants it runs.
VARIANT_RUNS = {
    "standard": (VARIANT_STANDARD,),
    "qs": (VARIANT_SURROGATE,),
    "both": (VARIANT_STANDARD, VARIANT_SURROGATE),
}
VARIANT_CHOICES = tuple(VARIANT_RUNS)

# The paper's protocol: runs per variant on each benchmark row.
PAPER_RUNS = 400

# Benchmark suite: objective, dimension, particles, box limit, and the
# directional accuracy gate comparing median final values of the variants.
BENCHMARK_ROWS = (
    ("ackley", 2, 6, 32.768, "lt", 0.1),
    ("griewank", 2, 6, 600.0, "lt", 1.0),
    ("sphere", 2, 6, 10.0, "le", 2.0),
    ("sphere", 3, 10, 10.0, "lt", 0.1),
    ("flower", 2, 6, 100.0, "lt", 0.01),
    ("flower", 3, 10, 100.0, "lt", 0.01),
)


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(f"invalid value for {key!r}: {message}")


# JSON true and false load as bool, a subclass of int; neither is a count or
# a coefficient.
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Finite, too: Python's json reads NaN and Infinity, and a huge int has no double.
def _is_number(value) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in data:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("invalid value for 'params': must be an object")
    for key in params:
        if key not in DEFAULT_PARAMS:
            raise ConfigError(f"unknown config key: 'params.{key}'")
    return data


def effective_config(file_cfg: dict, overrides: dict) -> dict:
    """Merge file config and flag overrides, apply defaults, validate."""
    cfg = dict(file_cfg)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value

    objective = cfg.get("objective")
    _require(isinstance(objective, str) and objective, "objective", "a name is required")
    objective = objective.lower()
    if objective not in objective_names():
        raise ConfigError(
            f"invalid value for 'objective': unknown objective {objective!r}; "
            f"valid names: {', '.join(objective_names())}"
        )

    dimension = cfg.get("dimension", 2)
    _require(_is_int(dimension) and dimension >= 1, "dimension", "need an int >= 1")

    bounds_pairs = cfg.get("bounds")
    if bounds_pairs is None:
        bounds = default_bounds(objective, dimension)
    else:
        try:
            bounds = Bounds.from_pairs(bounds_pairs)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"invalid value for 'bounds': {err}") from err
        numbers = all(_is_number(v) for pair in bounds_pairs for v in pair)
        _require(numbers, "bounds", "need numbers")
        _require(
            bounds.dimension == dimension,
            "bounds",
            f"got {bounds.dimension} pairs for dimension {dimension}",
        )

    particles = cfg.get("particles")
    if particles is None:
        particles = required_points(dimension)
    _require(_is_int(particles) and particles >= 1, "particles", "need an int >= 1")

    iterations = cfg.get("iterations", _FIELD_DEFAULTS["iterations"])
    _require(_is_int(iterations) and iterations >= 1, "iterations", "need an int >= 1")

    runs = cfg.get("runs", 1)
    _require(_is_int(runs) and runs >= 1, "runs", "need an int >= 1")

    seed = cfg.get("seed", 0)
    _require(_is_int(seed), "seed", "need an int")

    variant = cfg.get("variant", "both")
    _require(variant in VARIANT_CHOICES, "variant", f"must be one of {VARIANT_CHOICES}")

    params = dict(DEFAULT_PARAMS)
    params.update(cfg.get("params", {}))
    for key in _PARAM_FIELDS:
        if key == "S":
            continue
        value = params[key]
        _require(_is_number(value), f"params.{key}", "need a finite number")
        params[key] = float(value)
    _require(
        _is_int(params["S"]) and params["S"] >= 1, "params.S", "need an int >= 1"
    )
    _require(params["tau"] > 0, "params.tau", "must be positive")
    _require(params["gamma_floor"] > 0, "params.gamma_floor", "must be positive")

    return {
        "objective": objective,
        "dimension": dimension,
        "bounds": bounds.to_pairs(),
        "particles": particles,
        "iterations": iterations,
        "runs": runs,
        "seed": seed,
        "variant": variant,
        "params": params,
    }


def resolve_out_dir(out_flag) -> Path:
    if out_flag:
        path = Path(out_flag)
    else:
        root = Path(os.environ.get("QSWARM_OUT", "."))
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d_%H%M%S_%f")
        path = root / f"qswarm_{stamp}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_batch(out_dir: Path, spec: BatchSpec, results, suffix: str = "", traces: bool = True):
    """Write ``runs<suffix>.csv`` and, with ``traces``, one
    ``trace<suffix>_<label>.csv`` per variant."""
    write_runs_csv(out_dir / f"runs{suffix}.csv", spec, results)
    if traces:
        for variant in spec.variants:
            label = VARIANT_LABELS[variant]
            write_trace_csv(out_dir / f"trace{suffix}_{label}.csv", results[variant].summary)


def cmd_run(args) -> int:
    _require(args.jobs >= 1, "--jobs", "need an int >= 1")
    file_cfg = load_config_file(args.config) if args.config else {}
    # Each flag's dest is its config key; bounds and params have no flag.
    cfg = effective_config(file_cfg, {key: getattr(args, key, None) for key in CONFIG_KEYS})

    out_dir = resolve_out_dir(args.out)
    with open(out_dir / "config.echo.json", "w", encoding="utf-8") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)
        handle.write("\n")

    spec = BatchSpec(
        objective=cfg["objective"],
        dimension=cfg["dimension"],
        n_particles=cfg["particles"],
        n_runs=cfg["runs"],
        variants=VARIANT_RUNS[cfg["variant"]],
        bounds=Bounds.from_pairs(cfg["bounds"]),
        iterations=cfg["iterations"],
        base_seed=cfg["seed"],
        jobs=args.jobs,
        params={name: cfg["params"][key] for key, name in _PARAM_FIELDS.items()},
    )
    results = run_batch(spec, timing=not args.no_timing)

    _write_batch(out_dir, spec, results)

    for variant in spec.variants:
        summary = results[variant].summary
        print(
            f"{cfg['objective']} {cfg['dimension']}D [{VARIANT_LABELS[variant]}] "
            f"runs={summary.n_runs} mean={summary.mean:.6e} median={summary.q50:.6e} "
            f"log_median={summary.log_median:.6e}"
        )
    if len(spec.variants) == 2:
        row = compare(spec, results)
        write_comparison_csv(out_dir / "comparison.csv", [row])
        print()
        print(comparison_table_text([row]), end="")
    print(f"artifacts written to {out_dir}")
    return 0


def _gate_passes(median_qs: float, median_std: float, op: str, ratio: float) -> bool:
    limit = ratio * median_std
    return median_qs <= limit if op == "le" else median_qs < limit


def _gate_text(op: str, ratio: float) -> str:
    sign = "<=" if op == "le" else "<"
    if ratio == 1.0:
        return f"median(qs) {sign} median(std)"
    return f"median(qs) {sign} {ratio:g} * median(std)"


def cmd_benchmark(args) -> int:
    _require(args.runs >= 1, "--runs", "need an int >= 1")
    _require(args.jobs >= 1, "--jobs", "need an int >= 1")
    out_dir = resolve_out_dir(args.out)
    if args.runs != PAPER_RUNS:
        print(f"note: {args.runs} runs per variant (reduced statistical power; reference protocol is {PAPER_RUNS})")
    rows = []
    # Every row asks for the same number of workers, so one pool runs the suite.
    with shared_pool():
        for name, dimension, particles, limit, *_ in BENCHMARK_ROWS:
            spec = BatchSpec(
                objective=name,
                dimension=dimension,
                n_particles=particles,
                n_runs=args.runs,
                bounds=Bounds.symmetric(limit, dimension),
                iterations=_FIELD_DEFAULTS["iterations"],
                base_seed=args.seed,
                jobs=args.jobs,
            )
            results = run_batch(spec, timing=not args.no_timing)
            rows.append(compare(spec, results))
            _write_batch(out_dir, spec, results, f"_{name}_{dimension}d", args.emit_traces)

    write_comparison_csv(out_dir / "comparison.csv", rows)
    table = comparison_table_text(rows)
    with open(out_dir / "comparison.txt", "w", encoding="utf-8") as handle:
        handle.write(table)
    print(table)
    for (name, dimension, _, _, op, ratio), row in zip(BENCHMARK_ROWS, rows):
        verdict = "PASS" if _gate_passes(row.median_qs, row.median_std, op, ratio) else "FAIL"
        print(
            f"{verdict}: {name} {dimension}D: {_gate_text(op, ratio)} "
            f"[median qs={row.median_qs:.3e}, std={row.median_std:.3e}]"
        )
    print(f"artifacts written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qswarm",
        description="Particle swarm optimization with a quadratic-surrogate attractor variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration (single run or batch)")
    run_p.add_argument("--objective", help=f"one of: {', '.join(objective_names())}")
    run_p.add_argument("--dim", type=int, dest="dimension", metavar="DIM", help="problem dimension (default 2)")
    run_p.add_argument("--particles", type=int, help="swarm size (default: interpolation point count)")
    run_p.add_argument("--iterations", type=int, help=f"iterations per run (default {_FIELD_DEFAULTS['iterations']})")
    run_p.add_argument("--runs", type=int, help="independent runs per variant (default 1)")
    run_p.add_argument("--seed", type=int, help="base seed; run j uses base XOR j (default 0)")
    run_p.add_argument("--variant", choices=VARIANT_CHOICES, help="default: both")
    run_p.add_argument("--config", help="JSON config file (flags override its values)")
    run_p.add_argument("--out", help="output directory (default: $QSWARM_OUT/<timestamp>)")
    run_p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    run_p.add_argument("--no-timing", action="store_true", help="zero wall-time columns for byte-stable output")
    run_p.set_defaults(func=cmd_run)

    bench = sub.add_parser("benchmark", help="run the full six-row comparison suite")
    bench.add_argument("--runs", type=int, default=PAPER_RUNS, help=f"runs per variant per row (default {PAPER_RUNS})")
    bench.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    bench.add_argument("--out", help="output directory (default: $QSWARM_OUT/<timestamp>)")
    bench.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    bench.add_argument("--emit-traces", action="store_true", help="also write per-row trace band CSVs")
    bench.add_argument("--no-timing", action="store_true", help="zero wall-time columns for byte-stable output")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownObjectiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
