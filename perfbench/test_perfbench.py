"""Self-test of the benchmark.

Tracing must not change what the program computes, and must leave no
wrapper behind.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grid  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

OPS = 9


def outputs(workload, seed, tracer=None):
    """(failure reason, digest) per operation, plus the JSON text of builds."""
    out = []
    for op in itertools.islice(wl.operations(workload, seed), OPS):
        inputs = wl.prepare(op)
        if tracer is None:
            result = wl.execute(op, inputs)
        else:
            with tracer.op():
                result = wl.execute(op, inputs)
        out.append((wl.verify(op, result), result[1] if op.kind == "build" else None))
    return out


@pytest.mark.parametrize("workload", grid.WORKLOADS)
def test_tracing_changes_no_output(workload):
    plain = outputs(workload, 11)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = outputs(workload, 11, tracer)
    finally:
        tracer.remove()
    assert traced == plain
    assert tracing.find_wrappers() == []
    assert sum(tracer.calls.values()) > 0


def test_every_binding_is_wrapped_and_restored():
    from braidtrace import cli, equivalence, levels, threebraid, tracegraph
    from braidtrace.embedding import strand_paths

    bindings = [
        (threebraid, "reduce_graph", equivalence.reduce),
        (threebraid, "build_trace_graph", tracegraph.build_trace_graph),
        (tracegraph, "strand_paths", strand_paths),
        (cli, "build_trace_graph", tracegraph.build_trace_graph),
        (levels, "simple_cycles", levels.simple_cycles),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, attr, _ in bindings:
            assert getattr(getattr(mod, attr), "__bench_span__", None), f"{mod.__name__}.{attr}"
    finally:
        tracer.remove()
    for mod, attr, original in bindings:
        assert getattr(mod, attr) is original
    assert tracing.find_wrappers() == []


def test_known_answers_are_consistent():
    ops = list(itertools.islice(wl.operations("conj3", 3), 84))
    assert ops == list(itertools.islice(wl.operations("conj3", 3), 84))
    assert ops != list(itertools.islice(wl.operations("conj3", 4), 84))
    for op in ops:
        a, b = op.words
        assert wl.cycle_type(3, a) == wl.cycle_type(3, b)
        assert (wl.exponent_sum(a) == wl.exponent_sum(b)) == op.positive
    assert sum(op.positive for op in ops) == len(ops) // 2


def test_reach_share_follows_isotopic():
    tracer = tracing.Tracer()
    tracer.install()
    reach = 0
    try:
        for op in itertools.islice(wl.operations("isotopy", 5), 3 * OPS):
            inputs = wl.prepare(op)
            with tracer.op():
                result = wl.execute(op, inputs)
            reach += wl.isotopy_properties(op, result)[0]
    finally:
        tracer.remove()
    assert reach > 0
    assert tracer.calls["levels.maximal_profile"] == 2 * reach


def test_a_seed_fixes_the_work_of_a_run():
    # one round holds fewer than MIN_OPS pairs, so the worker adds rounds
    runs = [run.worker("isotopy", 5, grid.ROUND_S["isotopy"], False, 60.0) for _ in range(2)]
    assert len(runs[0]["latencies"]) == len(runs[1]["latencies"]) >= run.MIN_OPS
    assert runs[0]["digests"] == runs[1]["digests"]
    assert runs[0]["reasons"] == runs[1]["reasons"]
