#!/usr/bin/env python3
"""Alternated benchmark pairs between two qswarm checkouts.

Runs ``perfbench/run.py`` once in a parent checkout and once in a change
checkout for every seed, parent first in the 1st, 3rd, ... pair and second
in the others, so a slow drift of the host's speed hits both sides alike.
Each side runs its own ``perfbench/run.py`` from its own directory.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload std_suite --seeds 101 102 103 --seconds 25 \\
        --label lean_iteration --claim runs_per_s

The pairs go into ``BENCH_<label>.json`` (``--out`` names another file) in
the schema of the committed ``BENCH_*.json`` files: under
``workloads.<workload>`` the seeds, per end-to-end metric the parent and
change medians and quartiles (linear percentiles of the per-pair values),
the number of pairs the change won, and every pair's raw metrics. An
existing file keeps its other workloads and top-level fields. With
``--trace 1`` each pair is one traced execution per side, stored under
``traced.<workload>`` with the per-layer metrics.

For every end-to-end metric it prints, and stores under
``workloads.<workload>.no_regression``, whether the change stays within the
metric's ``bound`` from ``BENCHMARK.json``: ``worse`` when the change's
median is worse than the parent's by more than the bound, relative to the
parent's median; ``unresolved`` when the parent's quartile spread exceeds
the bound, relative to its median, unless every change run beats every
parent run; ``within bound`` otherwise.

``--claim METRIC`` prints the verdict for one end-to-end metric: the change
must win at least 9 of 10 pairs (the same share of any pair count), and its
median must beat the parent's by more than the parent's quartile spread,
with no more failed runs than the parent. The exit code is 0 when the pairs ran, whatever the verdict.

When an execution exits non-zero, prints nothing, or ends its stdout with
a line that is not a result (a JSON object with ``attempted``, ``failed``
and ``metrics``), no further one runs: the file gets the pairs finished so
far and, under ``failure``, the failing side, its seed, its exit code and
the tail of its stderr, led by the bad line if there was one, and the exit
code is 1.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values) -> dict:
    return {"median": percentile(values, 50), "q1": percentile(values, 25), "q3": percentile(values, 75)}


class SideFailed(Exception):
    """A ``perfbench/run.py`` execution that exited non-zero, printed
    nothing or printed no result; its ``args`` are the exit code and the
    tail of its stderr."""


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` execution; its last stdout line as a dict.
    Raises :class:`SideFailed` when the execution fails."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SideFailed(proc.returncode, proc.stderr[-2000:])
    try:
        result = json.loads(lines[-1])
        flat = {"attempted": result["attempted"], "failed": result["failed"]}
        flat.update({name: entry["value"] for name, entry in result["metrics"].items()})
    except (ValueError, LookupError, TypeError, AttributeError) as error:
        note = f"malformed result line ({error!r}): {lines[-1][:500]}\n"
        raise SideFailed(proc.returncode, note + proc.stderr[-2000:]) from error
    return flat


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None, "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    return info


def summarize(pairs: dict, directions: dict, bounds: dict) -> tuple[dict, dict, dict]:
    """Per-metric quartiles of each side, the change's win count and the
    no-regression result."""
    summary, wins, checks = {}, {}, {}
    for name, better in directions.items():
        rows = [pair for pair in pairs.values() if name in pair["parent"] and name in pair["change"]]
        if not rows:
            continue
        parent = [pair["parent"][name] for pair in rows]
        change = [pair["change"][name] for pair in rows]
        summary[name] = {"parent": quartiles(parent), "change": quartiles(change)}
        sign = 1.0 if better == "higher" else -1.0
        wins[name] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        checks[name] = no_regression(better, bounds[name], summary[name], parent, change)
    return summary, wins, checks


def _relative(difference: float, base: float) -> float:
    if base:
        return difference / abs(base)
    return 0.0 if difference == 0 else math.copysign(math.inf, difference)


def no_regression(better: str, bound: float, summary: dict, parent: list, change: list) -> dict:
    """Whether the change stays within ``bound`` on one metric, given both
    sides' quartiles and per-pair values."""
    sign = 1.0 if better == "higher" else -1.0
    base, median = summary["parent"]["median"], summary["change"]["median"]
    gain = _relative(median - base if better == "higher" else base - median, base)
    spread = _relative(summary["parent"]["q3"] - summary["parent"]["q1"], base)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if gain < -bound:
        result = "worse"
    elif spread > bound and not dominates:
        result = "unresolved"
    else:
        result = "within bound"
    return {"bound": bound, "gain": gain, "parent_spread": spread, "dominates": dominates, "result": result}


def verdict(metric: str, better: str, summary: dict, wins: int, pairs: dict) -> str:
    count = len(pairs)
    failed = {side: sum(pair[side]["failed"] for pair in pairs.values()) for side in ("parent", "change")}
    parent, change = summary["parent"], summary["change"]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    relative = gain / abs(parent["median"]) if parent["median"] else math.nan
    ok = wins >= math.ceil(WIN_SHARE * count) and gain > spread and failed["change"] <= failed["parent"]
    text = (
        f"{metric} {parent['median']:.6g} -> {change['median']:.6g} ({relative:+.1%}), "
        f"better in {wins} of {count} pairs; median difference {gain:.4g} "
        f"against the parent's quartile spread {spread:.4g}; failed runs "
        f"{failed['parent']} -> {failed['change']}: {'PASS' if ok else 'FAIL'}"
    )
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the change checkout")
    parser.add_argument("--claim", help="end-to-end metric whose verdict is printed")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    if args.claim is not None and args.claim not in directions:
        parser.error(f"--claim must be one of {sorted(directions)}")
    out = args.out or args.change / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("label", args.label)
    record["recorded"] = datetime.date.today().isoformat()
    record["machine"] = machine()
    record.setdefault(
        "command", f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0"
    )

    pairs, failure = {}, None
    for j, seed in enumerate(args.seeds):
        parent_first = j % 2 == 0
        sides = ("parent", "change") if parent_first else ("change", "parent")
        pair = {}
        try:
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = {"first": side == sides[0], **run_side(checkout, args.workload, seed, args.seconds, args.trace)}
        except SideFailed as error:
            exit_code, stderr_tail = error.args
            failure = {"side": side, "seed": seed, "exit_code": exit_code, "stderr_tail": stderr_tail}
            break
        pairs[str(seed)] = {"parent": pair["parent"], "change": pair["change"]}
        line = {side: pair[side].get(args.claim) for side in ("parent", "change")} if args.claim else {}
        print(f"pair {j + 1}/{len(args.seeds)} seed {seed}: {line}", file=sys.stderr, flush=True)

    if failure is not None:
        group = record.setdefault("traced" if args.trace else "workloads", {})
        group[args.workload] = {"seeds": args.seeds, "pairs": pairs, "failure": failure}
    elif args.trace:
        traced = record.setdefault("traced", {})
        traced[args.workload] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed <s> --seconds {args.seconds:g} --trace 1",
            "pairs": pairs,
        }
    else:
        summary, wins, checks = summarize(pairs, directions, bounds)
        workloads = record.setdefault("workloads", {})
        workloads[args.workload] = {
            "seeds": args.seeds,
            "summary": summary,
            "change_better_pairs": wins,
            "no_regression": checks,
            "pairs": pairs,
        }
        for name, check in checks.items():
            print(
                f"{args.workload} {name}: {summary[name]['parent']['median']:.6g} -> "
                f"{summary[name]['change']['median']:.6g} (gain {check['gain']:+.1%}), parent spread "
                f"{check['parent_spread']:.1%} of its median, bound {check['bound']:.0%}: {check['result']}"
            )
        if args.claim is not None:
            text = verdict(args.claim, directions[args.claim], summary[args.claim], wins[args.claim], pairs)
            record["claim"] = f"{args.claim} on {args.workload}"
            record["claim_result"] = text
            print(text)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if failure is not None:
        print(
            f"the {failure['side']} side failed at seed {failure['seed']}, exit code "
            f"{failure['exit_code']}; {len(pairs)} finished pairs kept\n{failure['stderr_tail']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
