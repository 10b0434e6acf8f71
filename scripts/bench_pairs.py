#!/usr/bin/env python3
"""Compare the end-to-end benchmark metrics of two checkouts over
alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 5] [--seconds 28]
        [--workload NAME ...]

Each pair runs the benchmark command of PARENT_DIR's BENCHMARK.json
(`perfbench/run.py`, untraced) once in each checkout on every workload it
names, or only on the workloads given by `--workload` (repeatable: with
`--workload conj3` the pairs take about a third of the time of all
three workloads); the side that runs first alternates from pair to pair.  For each
workload and end-to-end metric the table gives both medians, the parent's
quartiles q1-q3, and the number of pairs in which the change read better
(ties count for neither side).  A metric reads

- "worse" when the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
- "unresolved" when the parent's spread (q3 - q1, over its median) exceeds
  the bound and not every run of the change reads better than every run of
  the parent;
- "ok" otherwise.

Each run's result line goes to standard error as it ends, and each side's
failed operations and `correct` flags are totalled per workload.  The
script writes nothing into either checkout beyond what the benchmark
itself leaves there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict | None:
    """The benchmark's result object for one untraced run, or None when
    the run exits non-zero or prints no result."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    sign = 1 if better == "lower" else -1
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "worse"
    if (q3 - q1) > bound * abs(med_p):
        if sign > 0 and max(change) < min(parent) or sign < 0 and min(change) > max(parent):
            return "ok"
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this workload (repeatable; default: every workload)")
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(workloads))
        if unknown:
            ap.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json names "
                     f"{', '.join(workloads)}")
        workloads = [w for w in workloads if w in args.workload]
    metrics = spec["end_to_end"]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    # results[workload][side] -> one result object (or None) per pair
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for p in range(args.pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                res = run_once(checkouts[side], spec["command"], w, args.seed, args.seconds)
                results[w][side].append(res)
                shown = {m["name"]: round(res["metrics"][m["name"]]["value"], 4)
                         for m in metrics} if res else "failed"
                print(f"pair {p + 1} {w} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"{args.pairs} pairs, seed {args.seed}, --seconds {args.seconds:g}")
    for w in workloads:
        print(f"\n{w}")
        for side in SIDES:
            runs = results[w][side]
            done = [r for r in runs if r]
            print(f"  {side}: {len(done)}/{len(runs)} runs, failed operations "
                  f"{sum(r['failed'] for r in done)}/{sum(r['attempted'] for r in done)}, "
                  f"correct in {sum(bool(r['correct']) for r in done)}")
        print(f"  {'metric':12s} {'parent':>10s} {'change':>10s} {'parent q1-q3':>21s}"
              f" {'wins':>6s} {'bound':>6s}  verdict")
        for m in metrics:
            name, better, bound = m["name"], m["better"], m["bound"]
            pairs = [(a, b) for a, b in zip(results[w]["parent"], results[w]["change"]) if a and b]
            if not pairs:
                print(f"  {name:12s} no pair with both runs done")
                continue
            par = [a["metrics"][name]["value"] for a, _ in pairs]
            chg = [b["metrics"][name]["value"] for _, b in pairs]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - q) < 0 for q, c in zip(par, chg))
            q1, med_p, q3 = quartiles(par)
            print(f"  {name:12s} {med_p:10.4g} {statistics.median(chg):10.4g}"
                  f" {q1:10.4g}-{q3:<10.4g} {wins:>3d}/{len(pairs):<2d} {bound:6.2f}"
                  f"  {verdict(par, chg, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
