"""Aggregated structural checks for a built trace graph.

Everything the counting and position lemmas promise, runnable on one word:
used by the `check` CLI subcommand, the test suite, and the acceptance
sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import levels as lv
from .embedding import t_over, wrap_pm_pi
from .oracle import brute_counts, expected_circle_count
from .tracegraph import TraceGraph, _level_at, read_word_at, symmetry_involution

TWO_PI = 2 * math.pi
INJECTIVITY_SAMPLES = 24  # samples per pass circle of the injectivity check
INJECTIVITY_TOL = 1e-5    # (z, t) distance below which two samples coincide


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    warning: bool = False  # findings that do not fail the suite


def run_structure_checks(g: TraceGraph) -> list[CheckResult]:
    out = []
    w = g.word
    n, l = g.n, len(w)

    exp_v = 2 * l * (n - 2)
    out.append(
        CheckResult(
            "triple-vertex count 2l(n-2)",
            g.num_vertices == exp_v,
            f"{g.num_vertices} vs {exp_v}",
        )
    )

    exp_c = expected_circle_count(w)
    nc = len(g.circles)
    out.append(
        CheckResult(
            "trace-circle count and bounds",
            nc == exp_c and n - 1 <= nc <= n * (n - 1),
            f"{nc} vs {exp_c}",
        )
    )

    rep = brute_counts(g)
    out.append(CheckResult("independent recount", rep.ok, rep.detail))

    mono = all(e.dz > 0 for e in g.edges.values())
    integral = all(
        abs(sum(g.edges[e].dz for e in c.edges) - c.dz_total) < 1e-6
        and c.dz_total >= 1
        for c in g.circles.values()
    )
    out.append(CheckResult("circles z-monotone with integer winding", mono and integral))

    try:
        symmetry_involution(g)
        sym_ok, sym_detail = True, ""
    except Exception as ex:  # reported, not raised
        sym_ok, sym_detail = False, str(ex)
    # a reduced graph pairs only the edges whose partners survived
    lvl_ok = all(
        g.edges[p].level == n - g.edges[e].level for e, p in g.edge_partner.items()
    )
    unpaired = sum(1 for e in g.edges if e not in g.edge_partner)
    out.append(CheckResult("t+pi symmetry with label reversal", sym_ok, sym_detail))
    out.append(CheckResult("symmetry maps level k to n-k", lvl_ok,
                           f"{unpaired} of {len(g.edges)} edges unpaired"))

    local_ok, local_detail = _local_structure(g)
    out.append(CheckResult("vertex local structure (levels, middle circle)", local_ok, local_detail))

    att_ok, att_detail, warnings = _attractor_checks(g)
    out.append(CheckResult("right attractors per level", att_ok, att_detail))
    for wmsg in warnings:
        out.append(CheckResult("attractor class primitivity", False, wmsg, warning=True))

    if g.paths is not None:
        rb = read_word_at(g, 0.0)
        out.append(CheckResult("time-zero fiber reads back the word", rb.letters == w.letters))
        out.append(CheckResult("level subgraphs project injectively (sampled)",
                               _sampled_injectivity(g)))
    return out


def _local_structure(g: TraceGraph) -> tuple[bool, str]:
    for v in g.vertices.values():
        if len(v.below) != 3 or len(v.above) != 3:
            return False, f"vertex {v.id} lacks 3+3 edge ends"
        bl = [g.edges[e].level for e in v.below]
        al = [g.edges[e].level for e in v.above]
        if not (bl[0] == bl[2] and al[0] == al[2] and bl[1] == al[0] and al[1] == bl[0]):
            return False, f"vertex {v.id} level pattern {bl}/{al}"
        if abs(bl[0] - bl[1]) != 1:
            return False, f"vertex {v.id} level step is not +-1"
        mid = g.edges[v.below[1]]
        if mid.head_pair is not None and set(mid.head_pair) != {v.strands[0], v.strands[2]}:
            return False, f"vertex {v.id} middle circle is not the distant pair"
    return True, ""


def _attractor_checks(g: TraceGraph) -> tuple[bool, str, list[str]]:
    warnings = []
    for k in range(1, g.n):
        s = lv.level_subgraph(g, k)
        if not s.edges:
            return False, f"level {k} subgraph is empty", warnings
        ats = s.attractors
        if not ats:
            return False, f"level {k} has no right attractor", warnings
        used = set()
        for a in ats:
            if a.homology[0] <= 0:
                return False, f"level {k} attractor has q <= 0", warnings
            verts = set()
            for e in a.edges:
                edge = g.edges[e]
                if edge.tail is not None:
                    verts.update((edge.tail, edge.head))
            if used & verts:
                return False, f"level {k} attractors share a vertex", warnings
            used |= verts
            q, r = a.homology
            if math.gcd(q, abs(r)) != 1:
                warnings.append(f"level {k} attractor class {a.homology} not primitive")
    return True, "", warnings


def _sampled_injectivity(g: TraceGraph) -> bool:
    """Look for same-level coincidences in (z, t) away from vertices among
    the samples of `_injectivity_samples`."""
    for pts in _injectivity_samples(g).values():
        pts.sort()
        for p1, p2 in zip(pts, pts[1:]):
            if (
                abs(p1[0] - p2[0]) < INJECTIVITY_TOL
                and abs(wrap_pm_pi(p1[1] - p2[1])) < INJECTIVITY_TOL
                and p1[2] != p2[2]
            ):
                return False
    return True


def _injectivity_samples(g: TraceGraph) -> dict[int, list]:
    """level -> (z, t, pair) samples of the crossing curves, INJECTIVITY_SAMPLES
    heights per pass circle, leaving out those near a vertex: within 0.02
    in z and 0.2 in t.  Each height's track positions, resting slots and
    nearby vertices (by bisection on the z-sorted vertices) are read once."""
    paths = g.paths
    vertex_spots = sorted((v.z, v.t) for v in g.vertices.values())
    spot_z = [vz for vz, _ in vertex_spots]
    samples: dict[int, list] = {}
    for i in range(INJECTIVITY_SAMPLES):
        z = (i + 0.5) / INJECTIVITY_SAMPLES
        pos = paths.positions_at(z)
        slots = paths.resting_slots(z)
        near = vertex_spots[bisect_left(spot_z, z - 0.03):bisect_right(spot_z, z + 0.03)]
        near_t = [vt for vz, vt in near if abs(z - vz) < 0.02]
        for a, b in g.pass_circle:
            t = t_over(pos[a - 1], pos[b - 1])
            if any(abs(wrap_pm_pi(t - vt)) < 0.2 for vt in near_t):
                continue
            lvl = _level_at(g.n, slots, pos, a, b, z)
            samples.setdefault(lvl, []).append((z, t, (a, b)))
    return samples
