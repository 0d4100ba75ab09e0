#!/usr/bin/env python3
"""Record a baseline: repeat run.py over several seeds and summarize the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed of SEEDS (seed-major, so a slow spell of the host is spread over
the workloads) and ``run.py --trace 1`` once, at the first seed. For each end-to-end metric it
reports the median, the quartiles and the spread (q3 - q1) / median, and
flags a spread above a third of the metric's bound. The output also records
the machine: core count, CPU model and library versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(1, 11))


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


def run_once(workload, seed, seconds, trace):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct\n{proc.stderr}")
    return result, wall


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = list(SEEDS)

    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result, wall = run_once(workload, seed, seconds, 0)
            walls[workload].append(wall)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)

    report = {
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        entry = {
            "run_wall_s": walls[workload],
            "end_to_end": {
                name: summarize(vals, bounds[name]) for name, vals in values[workload].items()
            },
        }
        traced, wall = run_once(workload, seeds[0], seconds, 1)
        entry["traced_run_wall_s"] = wall
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

        print(f"\n{workload}  (run wall {min(walls[workload]):.1f}-{max(walls[workload]):.1f} s)")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  SPREAD > bound/3"
            print(
                f"  {name:<16} median {s['median']:12.6g} {units[name]:<6} "
                f"spread {s['spread']:7.4f}  bound {s['bound']}{flag}"
            )

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
