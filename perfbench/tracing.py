"""Span tracing of braidtrace's layers from outside the program.

`Tracer.install` replaces each layer function listed in `LAYERS` with a
timing wrapper at every module-level binding inside the `braidtrace`
package: the defining module and every module that imported the name
(`threebraid` binds `reduce` as `reduce_graph`, `cli` and `checks` import
names, `levels` calls its own helpers through module globals).
`Tracer.remove` puts every original back.

Spans are recorded only inside `Tracer.op()`, so work the benchmark does
between timed operations (input generation, answer checks) is not
attributed to any layer.  A span's self time is its duration minus the
durations of the spans it caused; `top_s` is the time covered by
outermost spans, so op time minus `top_s` is the time no layer accounts
for.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> layer functions wrapped in it; children are listed so that the
# self time of their callers excludes them
LAYERS = {
    "embedding": ("strand_paths",),
    "tracegraph": ("build_trace_graph", "read_fiber"),
    "checks": ("run_structure_checks",),
    "serialize": ("graph_to_document", "canonical_json"),
    "equivalence": ("reduce", "isotopic"),
    "levels": (
        "attractor_profile",
        "maximal_profile",
        "is_degenerate",
        "maximal_class",
        "cycle_classes",
        "simple_cycles",
    ),
    "threebraid": ("conjugate_3braids", "cyclic_invariant"),
    "oracle": ("conjugator_search",),
}


def _count_build(tr, args, result):
    tr.counts["tracegraph.vertices_built"] += len(result.vertices)


def _count_json(tr, args, result):
    tr.counts["serialize.json_bytes"] += len(result.encode())


def _count_reduce(tr, args, result):
    tr.counts["equivalence.trihedra_eliminated"] += (
        args[0].num_vertices - result.num_vertices
    ) // 2


def _count_isotopic(tr, args, result):
    tr.counts["equivalence.candidates_tried"] += result.candidates_tried


def _count_cycles(tr, args, result):
    tr.counts["levels.cycles_enumerated"] += len(result)


def _count_verdict(tr, args, result):
    if result.verdict.value == "inconclusive":
        tr.counts["threebraid.inconclusive"] += 1


HOOKS = {
    "tracegraph.build_trace_graph": _count_build,
    "serialize.canonical_json": _count_json,
    "equivalence.reduce": _count_reduce,
    "equivalence.isotopic": _count_isotopic,
    "levels.simple_cycles": _count_cycles,
    "threebraid.conjugate_3braids": _count_verdict,
}


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "braidtrace" or name.startswith("braidtrace."))
    ]


def find_wrappers() -> list[str]:
    """Bindings in braidtrace modules that still hold a tracing wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _package_modules()
        for attr, val in vars(m).items()
        if getattr(val, "__bench_span__", None) is not None
    ]


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self.top_s = 0.0
        self.recording = False
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                tracer.raised[(name, type(ex).__name__)] += 1
                raise
            finally:
                dur = perf_counter() - t0
                tracer.self_s[name] += dur - stack.pop()
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dur
                else:
                    tracer.top_s += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__bench_span__ = name
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for mod_name, fnames in LAYERS.items():
            mod = importlib.import_module(f"braidtrace.{mod_name}")
            for fname in fnames:
                fn = getattr(mod, fname)
                targets[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def remove(self) -> None:
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)

    @contextmanager
    def op(self):
        """Record spans for the duration of one timed operation."""
        self._stack.clear()
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
