"""braidtrace benchmark: one closed-loop caller deciding braid questions.

Usage, from the repository root:

    python3 perfbench/run.py --workload build|isotopy|conj3 --seed N \
        --seconds S --trace 0|1

The command starts fresh interpreters, so no `lru_cache` carries over
between runs:

- SETUP_PROBES set-up probes, each importing the modules the workload calls
  and warming `embedding.letter_geometry` for every (n, slot, sign) it uses;
  `setup_s` is their median;
- with --trace 0, one worker that runs whole rounds of the workload's
  seeded operation stream, one operation at a time, and checks every answer.
  The number of rounds is fixed by S (grid.ROUND_S), so a seed always gives
  the same operations: about S seconds of operation time at the commit that
  added the benchmark, and at least MIN_OPS operations;
- with --trace 1, an untraced and a traced worker on the same seed, each
  doing the rounds of S/2, plus one probe under `-X importtime`.  The
  traced worker wraps the layer functions (see tracing.py); per-layer self
  times and counts are per operation, and the overhead compares the two
  workers on the operations both ran.

The last line of standard output is the result object; everything above it
is for people: input properties of the seed, failure reasons and every
metric with its unit.  Failed operations (wrong verdict, INCONCLUSIVE, a
failed check, any exception) are counted in `failed`, and their latency is
taken as infinite.  `correct` is false when any operation fails other than
by the one known defect (workloads.KNOWN_DEFECT), or when the traced and the
untraced worker disagree on an output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import grid
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# modules each workload calls; the strand counts it warms come from grid
SETUP_MODULES = {
    "build": ("braidtrace.tracegraph", "braidtrace.serialize", "braidtrace.checks"),
    "isotopy": ("braidtrace.tracegraph", "braidtrace.equivalence"),
    "conj3": ("braidtrace.threebraid",),
}
SETUP_PROBES = 3
# a run needs this many operations, so that at least 10 latencies lie beyond
# p90; peak RSS is read when the last of them ends, so that it measures a
# fixed amount of work (conj3's lru_caches grow with every operation)
MIN_OPS = 100
# wall-clock cap on the timed loops of one run, which must end within 180 s
LOOP_DEADLINE_S = 110
CHILD_TIMEOUT_S = 150
REPORTED_FAILURES = 10


def warm_geometry(strand_counts) -> None:
    from braidtrace.embedding import letter_geometry

    for n in strand_counts:
        for slot in range(1, n):
            for sign in (1, -1):
                letter_geometry(n, slot, sign)


# ---------------------------------------------------------------------------
# Child roles


def probe(workload: str) -> dict:
    t0 = perf_counter()
    for name in SETUP_MODULES[workload]:
        importlib.import_module(name)
    t1 = perf_counter()
    warm_geometry(grid.strand_counts(workload))
    t2 = perf_counter()
    return {"import_s": t1 - t0, "warm_s": t2 - t1}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_op(wl, op, tracer):
    """Run one operation: (timed seconds, failure reason or "", digest, result)."""
    dt = 0.0
    try:
        inputs = wl.prepare(op)
        with tracer.op() if tracer is not None else nullcontext():
            t0 = perf_counter()
            try:
                result = wl.execute(op, inputs)
            finally:
                dt = perf_counter() - t0
        reason, digest = wl.verify(op, result)
        return dt, reason, digest, result
    except Exception as ex:  # any exception is a failed operation
        return dt, f"{type(ex).__name__}: {ex}", type(ex).__name__, None


def worker(workload: str, seed: int, seconds: float, trace: bool, deadline_s: float) -> dict:
    """Run round(seconds / grid.ROUND_S) whole rounds of the workload, and
    more if they hold fewer than MIN_OPS operations.  Rounds not done when
    the wall-clock deadline passes fail the run.  Whole rounds keep the
    input mix the same for every seed."""
    import resource

    import workloads as wl

    warm_geometry(grid.strand_counts(workload))
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        from braidtrace import threebraid

        tracer.install()
        cache_before = threebraid._reduced_graph_cached.cache_info()

    latencies: list[float] = []   # inf for failed operations
    digests: list[str] = []
    reasons: Counter[str] = Counter()
    unexpected = 0  # failures other than wl.KNOWN_DEFECT
    failed_ops: list[str] = []
    hist: Counter[str] = Counter()
    kinds: Counter[str] = Counter()
    reach = nondeg = levels = 0
    rss_mb = None
    timed = 0.0
    target = max(1, round(seconds / grid.ROUND_S[workload]))
    done = 0
    start = perf_counter()
    for batch in wl.rounds(workload, seed):
        if done >= target and len(latencies) >= MIN_OPS:
            break
        if perf_counter() - start > deadline_s:
            sys.exit(f"{done} of {target} rounds ({len(latencies)} operations) done"
                     f" before the {deadline_s:g} s deadline")
        done += 1
        for op in batch:
            hist[f"{op.n},{op.l}"] += 1
            kinds[op.kind if op.positive is None else f"{op.kind}:{'pos' if op.positive else 'neg'}"] += 1
            dt, reason, digest, result = run_op(wl, op, tracer)
            timed += dt
            digests.append(digest)
            if reason:
                latencies.append(math.inf)
                reasons[reason.split(":")[0]] += 1
                unexpected += reason != wl.KNOWN_DEFECT
                if len(failed_ops) < REPORTED_FAILURES:
                    failed_ops.append(f"{op} -> {reason}")
            else:
                latencies.append(dt)
            if op.kind == "isotopy" and result is not None:
                r, k, m = wl.isotopy_properties(op, result)
                reach += r
                nondeg += k
                levels += m
            if len(latencies) == MIN_OPS:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "latencies": [x if math.isfinite(x) else None for x in latencies],
        "timed_s": timed,
        "digests": digests,
        "reasons": dict(reasons),
        "unexpected_failures": unexpected,
        "failed_ops": failed_ops,
        "hist": dict(sorted(hist.items(), key=lambda kv: tuple(map(int, kv[0].split(","))))),
        "kinds": dict(sorted(kinds.items())),
        "isotopy": {"reach": reach, "nondeg_levels": nondeg, "levels": levels},
        "rss_mb": rss_mb,
        "layers": None,
    }
    if tracer is not None:
        tracer.remove()
        cache_after = threebraid._reduced_graph_cached.cache_info()
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        out["layers"] = layer_metrics(tracer, len(latencies), timed, hits, misses)
    return out


def layer_metrics(tr, ops: int, timed: float, hits: int, misses: int) -> dict:
    """Per-operation self times and counts of one traced worker."""

    def per_op(x: float) -> float:
        return x / ops

    def s(*names: str) -> float:
        return per_op(sum(tr.self_s[n] for n in names))

    def calls(name: str) -> float:
        return per_op(tr.calls[name])

    def count(name: str) -> float:
        return per_op(tr.counts[name])

    decisions = tr.calls["equivalence.isotopic"]
    m = {
        "embedding.strand_paths_s": (s("embedding.strand_paths"), "s/op"),
        "tracegraph.build_s": (s("tracegraph.build_trace_graph"), "s/op"),
        "tracegraph.build_calls": (calls("tracegraph.build_trace_graph"), "count/op"),
        "tracegraph.vertices_built": (count("tracegraph.vertices_built"), "count/op"),
        "tracegraph.read_fiber_s": (s("tracegraph.read_fiber"), "s/op"),
        "tracegraph.read_fiber_calls": (calls("tracegraph.read_fiber"), "count/op"),
        "checks.run_structure_checks_s": (s("checks.run_structure_checks"), "s/op"),
        "serialize.to_json_s": (s("serialize.graph_to_document", "serialize.canonical_json"), "s/op"),
        "serialize.json_bytes": (count("serialize.json_bytes"), "B/op"),
        "equivalence.reduce_s": (s("equivalence.reduce"), "s/op"),
        "equivalence.reduce_calls": (calls("equivalence.reduce"), "count/op"),
        "equivalence.trihedra_eliminated": (count("equivalence.trihedra_eliminated"), "count/op"),
        "equivalence.isotopic_s": (s("equivalence.isotopic"), "s/op"),
        "equivalence.candidates_tried": (count("equivalence.candidates_tried"), "count/op"),
        "levels.attractor_profile_s": (s("levels.attractor_profile"), "s/op"),
        "levels.maximal_profile_s": (s("levels.maximal_profile"), "s/op"),
        "levels.maximal_profile_calls": (calls("levels.maximal_profile"), "count/op"),
        "levels.profiles_per_decision": (
            tr.calls["levels.maximal_profile"] / decisions if decisions else 0.0, "ratio"),
        "levels.is_degenerate_s": (s("levels.is_degenerate"), "s/op"),
        "levels.maximal_class_s": (s("levels.maximal_class", "levels.cycle_classes"), "s/op"),
        "levels.simple_cycles_s": (s("levels.simple_cycles"), "s/op"),
        "levels.cycles_enumerated": (count("levels.cycles_enumerated"), "count/op"),
        "levels.cycle_budget_errors": (
            per_op(tr.raised[("levels.simple_cycles", "CycleBudgetError")]), "count/op"),
        "threebraid.conjugate_3braids_s": (s("threebraid.conjugate_3braids"), "s/op"),
        "threebraid.cyclic_invariant_s": (s("threebraid.cyclic_invariant"), "s/op"),
        "threebraid.reduced_graph_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "threebraid.inconclusive": (count("threebraid.inconclusive"), "count/op"),
        "oracle.conjugator_search_s": (s("oracle.conjugator_search"), "s/op"),
        "oracle.conjugator_search_calls": (calls("oracle.conjugator_search"), "count/op"),
        "trace.unaccounted_s": (per_op(timed - tr.top_s), "s/op"),
        "trace.op_s": (per_op(timed), "s/op"),
    }
    by_module: Counter[str] = Counter()
    for name, v in tr.self_s.items():
        by_module[name.split(".")[0]] += v
    for module in tracing.LAYERS:
        m[f"share.{module}"] = (by_module[module] / timed, "ratio")
    m["share.unaccounted"] = ((timed - tr.top_s) / timed, "ratio")
    return m


# ---------------------------------------------------------------------------
# Orchestration


def run_child(args: list[str], python_flags: tuple[str, ...] = ()) -> tuple[dict, str]:
    cmd = [sys.executable, *python_flags, str(HERE / "run.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark child timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark child failed with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in an
    `-X importtime` log."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[2].rstrip()
        stripped = name.lstrip()
        if stripped == "scipy" or stripped.startswith("scipy."):
            rows.append((len(name) - len(stripped), int(parts[1])))
    if not rows:
        return 0.0
    depth = min(d for d, _ in rows)
    return sum(us for d, us in rows if d == depth) / 1e6


def summarize(w: dict) -> dict:
    lat = sorted(math.inf if x is None else x for x in w["latencies"])
    failed = sum(1 for x in lat if math.isinf(x))
    return {
        "attempted": len(lat),
        "failed": failed,
        "p50_ms": percentile(lat, 0.5) * 1e3,
        "p90_ms": percentile(lat, 0.9) * 1e3,
        "ops_per_s": (len(lat) - failed) / w["timed_s"],
    }


def print_properties(workload: str, seed: int, w: dict) -> None:
    attempted = len(w["latencies"])
    print(f"workload {workload}, seed {seed}: {attempted} operations, one caller, closed loop")
    print("  operations by kind: " + ", ".join(f"{k} {v}" for k, v in w["kinds"].items()))
    print("  (n,l) histogram: " + " ".join(f"{k}:{v}" for k, v in w["hist"].items()))
    if workload == "isotopy":
        iso = w["isotopy"]
        pairs = sum(w["kinds"].values())
        print(f"  pairs reaching maximal_profile: {iso['reach']}/{pairs}"
              f" = {iso['reach'] / pairs:.3f}")
        if iso["levels"]:
            print(f"  non-degenerate levels among them: {iso['nondeg_levels']}/{iso['levels']}"
                  f" = {iso['nondeg_levels'] / iso['levels']:.3f}")
    if w["reasons"]:
        print("  failure reasons: " + ", ".join(f"{k} x{v}" for k, v in w["reasons"].items()))
        for line in w["failed_ops"]:
            print(f"    {line}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")


def orchestrate(args) -> int:
    common = ["--workload", args.workload]
    probes = [run_child(["--role", "probe", *common])[0] for _ in range(SETUP_PROBES)]
    setup = {
        "setup_s": statistics.median(p["import_s"] + p["warm_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "warm_s": statistics.median(p["warm_s"] for p in probes),
    }
    run = [*common, "--seed", str(args.seed)]
    if not args.trace:
        w, _ = run_child(["--role", "worker", *run, "--seconds", str(args.seconds),
                          "--deadline", str(LOOP_DEADLINE_S)])
        print_properties(args.workload, args.seed, w)
        summ = summarize(w)
        correct = w["unexpected_failures"] == 0
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "op_p50_ms": (summ["p50_ms"], "ms"),
            "op_p90_ms": (summ["p90_ms"], "ms"),
            "ops_per_s": (summ["ops_per_s"], "1/s"),
            "peak_rss_mb": (w["rss_mb"], "MB"),
        }
    else:
        half = str(args.seconds / 2)
        deadline = str(LOOP_DEADLINE_S / 2)
        plain, _ = run_child(["--role", "worker", *run, "--seconds", half,
                              "--deadline", deadline])
        w, _ = run_child(["--role", "worker", *run, "--seconds", half,
                          "--trace", "1", "--deadline", deadline])
        _, log = run_child(["--role", "probe", *common], python_flags=("-X", "importtime"))
        print_properties(args.workload, args.seed, w)
        summ = summarize(w)
        if args.workload == "isotopy":
            pairs = sum(w["kinds"].values())
            traced_reach = w["layers"]["levels.maximal_profile_calls"][0] * pairs / 2
            print(f"  pairs reaching maximal_profile, traced: {traced_reach:g}/{pairs}")
            if round(traced_reach) != w["isotopy"]["reach"]:
                print("  the reach share above no longer follows isotopic's gates")
        k = min(len(plain["latencies"]), len(w["latencies"]))
        agree = plain["digests"][:k] == w["digests"][:k]
        if not agree:
            print("  traced and untraced workers disagree on an output")
        correct = agree and plain["unexpected_failures"] == w["unexpected_failures"] == 0
        traced_s = sum(x for x in w["latencies"][:k] if x is not None)
        plain_s = sum(x for x in plain["latencies"][:k] if x is not None)
        metrics = {
            "setup.import_s": (setup["import_s"], "s"),
            "setup.scipy_import_s": (scipy_import_s(log), "s"),
            "setup.geometry_warm_s": (setup["warm_s"], "s"),
            **{name: tuple(v) for name, v in w["layers"].items()},
            "trace.ops": (float(summ["attempted"]), "count"),
            "trace.overhead_ratio": (traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio"),
        }
    fail_ratio = summ["failed"] / summ["attempted"]
    print_metrics(f"metrics ({'traced' if args.trace else 'untraced'}):", metrics)
    print(f"  {'fail_ratio':44s} {fail_ratio:.6g} ratio ({summ['failed']}/{summ['attempted']})")
    unbounded = [name for name, (v, _) in metrics.items() if not math.isfinite(v)]
    if unbounded:
        # a failed operation's latency is infinite; too many failures leave
        # no finite percentile to report
        print(f"no finite value for {', '.join(unbounded)}: too many failed operations",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=grid.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, default=LOOP_DEADLINE_S, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "braidtrace" / "__init__.py").is_file():
        print(f"braidtrace sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role == "probe":
        print(json.dumps(probe(args.workload)))
        return 0
    if args.role == "worker":
        print(json.dumps(worker(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.deadline)))
        return 0
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
