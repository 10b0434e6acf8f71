"""Trace codes, isotopy recognition, and trihedral reduction.

Two embedded labelled trace graphs are isotopic in the thickened torus
exactly when their codes (vertex triplets + attractor classes + maximal
classes) agree for some choice of base points on trace circles and of the
cyclic marking representatives, possibly after the time shift by pi that
reverses all markings and inverts levels.  `isotopic` reads each graph
once, into its `trace_code`, and from then on compares codes only: each
candidate relabels the second code, and its base points are resolved one
circle at a time.  Circles are globally distinguished by their markings,
so matching only has to resolve one base offset per circle; offsets
propagate through shared vertices, which keeps the search linear per
anchor candidate while staying equivalent to the full product enumeration
(the tests keep that enumeration as their reference).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from . import levels as lv
from .tracegraph import (
    Marking,
    TraceCircle,
    TraceEdge,
    TraceGraph,
    TraceVertex,
    _resting_level,
    pair_partners,
)

# ---------------------------------------------------------------------------
# Trace codes


TripletEntry = tuple[Marking, int, int]  # (circle marking, index along circle, level)
Triplet = tuple[TripletEntry, TripletEntry, TripletEntry]


@dataclass(frozen=True)
class TraceCode:
    """The three-piece fingerprint of an embedded labelled trace graph.

    piece1 holds one vertex triplet per vertex, in the graph's vertex
    order.  An entry's index is the vertex's visit on that circle, so the
    triplets also record which vertex each circle meets in turn: the
    isotopy decision matches base points from the code alone.
    free_circles lists each vertex-free circle as (marking, level,
    (dz_total, dt_winding)); the loop's level is part of the code.
    Equality compares codes for fixed choices; `isotopic` searches the
    choices.
    """

    piece1: tuple[Triplet, ...]
    piece2: tuple[tuple[tuple[int, int], ...], ...]      # per level, sorted attractor classes
    piece3: tuple[Optional[tuple[int, int]], ...]        # per level, maximal class or None
    free_circles: tuple[tuple[Marking, int, tuple[int, int]], ...]  # vertex-free circles

    def __eq__(self, other):
        return (
            isinstance(other, TraceCode)
            and sorted(self.piece1) == sorted(other.piece1)
            and self.piece2 == other.piece2
            and self.piece3 == other.piece3
            and sorted(self.free_circles) == sorted(other.free_circles)
        )

    def __hash__(self):
        return hash((
            tuple(sorted(self.piece1)), self.piece2, self.piece3, tuple(sorted(self.free_circles))
        ))

    def markings(self) -> set[Marking]:
        """The marking of every circle of the graph."""
        out = {m for m, _, _ in self.free_circles}
        out.update(m for trip in self.piece1 for m, _, _ in trip)
        return out


def circle_positions(g: TraceGraph) -> dict[int, int]:
    """edge -> its position along its circle (`TraceCircle.edges` order)."""
    return {eid: x for c in g.circles.values() for x, eid in enumerate(c.edges)}


def vertex_triplet(g: TraceGraph, v: TraceVertex, position: dict[int, int]) -> Triplet:
    """The ordered triplet of a vertex: its three lower branches in
    increasing local t, each as (circle marking, visit index from the
    circle's first edge, level of the entering edge).  `position` is
    `circle_positions(g)`."""
    out = []
    for eid in v.below:
        e = g.edges[eid]
        c = g.circles[e.circle]
        idx = (position[eid] + 1) % len(c.edges) + 1
        out.append((c.marking, idx, e.level))
    return tuple(out)


def trace_code(g: TraceGraph) -> TraceCode:
    """The trace code for the construction's base points and marking
    representatives.

    Levels k <= n - k are built first.  The t+pi shift maps level k to
    level n - k; when the graph's pairing carries the one onto the other
    (`_pairing_carries`), that map is an isomorphism of level subgraphs
    that keeps every vertex's edge order (so the upward walk's successor
    rule) and every cycle's class, and level n - k takes level k's
    profiles.  Otherwise level n - k is built too.  Each built level
    serves both profiles."""
    n = g.n
    position = circle_positions(g)
    piece1 = tuple(vertex_triplet(g, v, position) for v in g.vertices.values())
    by_level: dict[int, set[int]] = {}
    for e in g.edges.values():
        by_level.setdefault(e.level, set()).add(e.id)
    built = {k: lv.level_subgraph(g, k) for k in range(1, n // 2 + 1)}
    source = {}  # level n - k -> k, for the levels read from their mirror
    for k in range(n // 2 + 1, n):
        if _pairing_carries(g, built[n - k], by_level.get(k, set())):
            source[k] = n - k
        else:
            built[k] = lv.level_subgraph(g, k)
    levels = [built[k] for k in sorted(built)]
    att = lv.attractor_profile(levels)
    mx = lv.maximal_profile(levels)
    piece2 = tuple(att[source.get(k, k)] for k in range(1, n))
    piece3 = tuple(mx[source.get(k, k)] for k in range(1, n))
    free = []
    for c in g.circles.values():
        e = g.edges[c.edges[0]]
        if e.tail is None:
            free.append((c.marking, e.level, (c.dz_total, c.dt_winding)))
    return TraceCode(piece1, piece2, piece3, tuple(sorted(free)))


def _pairing_carries(g: TraceGraph, s: lv.LevelSubgraph, mirror: set[int]) -> bool:
    """True when `edge_partner` and `vertex_partner` carry level subgraph s
    onto the level whose edges are `mirror`: a bijection of the edges that
    maps tails and heads through the vertex pairing and loops to loops,
    keeps every vertex's below and above order within the level, and keeps
    every edge's dz and dt within 1e-9 (so every cycle's class).  It
    compares displacements, not the edges' integer lift classes, because
    the pairing swaps each t0 lift with its t0 + pi partner: a partner
    edge's class is the edge's plus (0, (sigma(head) - sigma(tail))/2),
    sigma being +1 at a t0 lift and -1 at a t0 + pi lift."""
    ep, vp = g.edge_partner, g.vertex_partner
    if len(s.edges) != len(mirror):
        return False
    image = set()
    for eid in s.edges:
        pid = ep.get(eid)
        if pid not in mirror:
            return False
        image.add(pid)
        e, p = g.edges[eid], g.edges[pid]
        if (e.tail is None) != (p.tail is None):
            return False
        if e.tail is not None and (p.tail != vp.get(e.tail) or p.head != vp.get(e.head)):
            return False
        if abs(e.dz - p.dz) > 1e-9 or abs(e.dt - p.dt) > 1e-9:
            return False
    if len(image) != len(mirror):
        return False
    for vid in s.vertices:
        pv = g.vertices[vp[vid]]
        if [ep[e] for e in s.down_of[vid]] != [e for e in pv.below if e in mirror]:
            return False
        if [ep[e] for e in s.up_of[vid]] != [e for e in pv.above if e in mirror]:
            return False
    return True


def _read_under(
    tc: TraceCode, n: int, lengths: tuple[int, ...],
    shifts: dict[frozenset, int], invert: bool,
) -> tuple[tuple[Triplet, ...], tuple]:
    """Piece 1 and the free circles of a code read under one candidate:
    each mixed marking shifted by its family's cyclic shift, then, when
    inverted, every marking reversed and level k read as n - k."""
    def relabel(m: Marking) -> Marking:
        if m.i != m.j:
            gcd = math.gcd(lengths[m.i - 1], lengths[m.j - 1])
            extra = shifts.get(frozenset((m.i, m.j)), 0)
            m = Marking(m.i, m.j, (m.k - 1 + extra) % gcd + 1)
        return m.reversed(lengths) if invert else m

    marks = {m: relabel(m) for m in tc.markings()}
    lvl = (lambda k: n - k) if invert else (lambda k: k)
    piece1 = tuple(
        tuple((marks[m], i, lvl(l)) for m, i, l in trip) for trip in tc.piece1
    )
    free = tuple(sorted((marks[m], lvl(l), w) for m, l, w in tc.free_circles))
    return piece1, free


# ---------------------------------------------------------------------------
# Isotopy decision


@dataclass
class IsotopyResult:
    equal: bool
    witness: Optional[dict] = None
    flags: tuple[str, ...] = ()
    per_circle_vertices: tuple[int, ...] = ()
    choice_product: int = 1
    choice_bound: int = 0
    candidates_tried: int = 0

    def __bool__(self) -> bool:
        return self.equal


def isotopic(g1: TraceGraph, g2: TraceGraph) -> IsotopyResult:
    """Decide isotopy of two labelled trace graphs in the thickened torus.

    After the count gates (cycle lengths, vertex count, sorted per-circle
    vertex counts) each graph is read once, into its trace code.  Pieces 2
    and 3 must agree level by level, or with level k read as n - k for the
    label-reversing, level-inverting reading that corresponds to the time
    shift by pi.  A candidate then fixes that reading and a cyclic marking
    shift per mixed component family; it relabels G2's code, whose free
    circles must equal G1's and whose base points are matched circle by
    circle.
    """
    if g1.n != g2.n:
        raise ValueError(f"strand counts differ: {g1.n} vs {g2.n}")

    counts = sorted(k for k in g1.vertex_count_per_circle().values() if k)
    l_bound = max(len(g1.word), len(g2.word), 1)
    bound = (6 * l_bound) ** (g1.n * g1.n - g1.n)
    product = 1
    for k in counts:
        product *= k
    result = IsotopyResult(
        False, per_circle_vertices=tuple(counts),
        choice_product=product, choice_bound=bound,
    )

    if g1.cycles.lengths != g2.cycles.lengths or len(g1.vertices) != len(g2.vertices):
        return result
    if sorted(g1.vertex_count_per_circle().values()) != sorted(
        g2.vertex_count_per_circle().values()
    ):
        return result

    tc1, tc2 = trace_code(g1), trace_code(g2)
    n, lengths = g1.n, g1.cycles.lengths
    if all(m is None for m in tc1.piece3):
        result.flags = ("all-levels-degenerate",)
    fams = _mixed_families(tc1, lengths)
    tried = 0
    for invert in (False, True):
        step = -1 if invert else 1
        if tc1.piece2 != tc2.piece2[::step] or tc1.piece3 != tc2.piece3[::step]:
            continue
        for shifts in _shift_assignments(fams):
            tried += 1
            piece1, free = _read_under(tc2, n, lengths, shifts, invert)
            if free != tc1.free_circles:
                continue
            match = _match_piece1(tc1.piece1, piece1)
            if match is not None:
                result.equal = True
                result.witness = {
                    "marking_shifts": {tuple(sorted(f)): s for f, s in shifts.items()},
                    "level_inversion": invert,
                    "base_offsets": match,
                }
                result.candidates_tried = tried
                return result
    result.candidates_tried = tried
    return result


def _mixed_families(tc: TraceCode, lengths: tuple[int, ...]) -> list[tuple[frozenset, int]]:
    """(family, gcd of its component lengths) per mixed component pair."""
    fams = {
        frozenset((m.i, m.j)): math.gcd(lengths[m.i - 1], lengths[m.j - 1])
        for m in tc.markings() if m.i != m.j
    }
    return sorted(fams.items(), key=lambda kv: sorted(kv[0]))


def _shift_assignments(fams) -> Iterator[dict[frozenset, int]]:
    """Every shift per family, the first family's varying fastest; each
    dict lists the families last first (witness key order)."""
    fams = fams[::-1]
    for shifts in itertools.product(*(range(g) for _, g in fams)):
        yield {fam: s for (fam, _), s in zip(fams, shifts)}


def _code_visits(piece1: tuple[Triplet, ...]) -> dict[Marking, list[int]]:
    """marking -> the vertex (its position in piece1) at each visit of that
    circle, read from the triplets' visit indices."""
    at: dict[Marking, dict[int, int]] = {}
    for v, trip in enumerate(piece1):
        for m, i, _ in trip:
            at.setdefault(m, {})[i - 1] = v
    return {m: [d[x] for x in range(len(d))] for m, d in at.items()}


def _match_piece1(trip1: tuple[Triplet, ...], trip2: tuple[Triplet, ...]) -> Optional[dict]:
    """Find base offsets for G2's circles making every vertex triplet match
    G1's (with G1 based at zero); None if impossible."""
    visits1, visits2 = _code_visits(trip1), _code_visits(trip2)
    if {m: len(vs) for m, vs in visits1.items()} != {
        m: len(vs) for m, vs in visits2.items()
    }:
        return None
    # the least marking not yet placed anchors its circle component: the
    # components of smaller markings were placed whole before it
    offsets: dict[Marking, int] = {}
    for anchor in sorted(visits1):
        if anchor in offsets:
            continue
        for o in range(len(visits1[anchor])):
            found = _propagate(trip1, trip2, visits1, visits2, anchor, o)
            if found is not None:
                offsets.update(found)
                break
        else:
            return None
    return {str(mk): off for mk, off in sorted(offsets.items())}


def _propagate(
    trip1, trip2, visits1, visits2, anchor: Marking, offset: int
) -> Optional[dict]:
    """BFS from an anchored circle offset; returns marking -> offset for the
    whole incidence component, or None on any mismatch.  Triplet entries pin
    each vertex's visit coordinates on all three of its circles, so equality
    here is equivalent to full-product code equality on the component."""
    known: dict[Marking, int] = {anchor: offset}
    queue = [anchor]
    while queue:
        m = queue.pop()
        off = known[m]
        vs1, vs2 = visits1[m], visits2[m]
        K = len(vs1)
        for x, v1 in enumerate(vs1):
            for (m1, i1, l1), (m2, i2, l2) in zip(trip1[v1], trip2[vs2[(x + off) % K]]):
                if m1 != m2 or l1 != l2:
                    return None
                need = (i2 - i1) % len(visits1[m1])
                if m1 in known:
                    if known[m1] != need:
                        return None
                else:
                    known[m1] = need
                    queue.append(m1)
    return known


# ---------------------------------------------------------------------------
# Trihedra and reduction


@dataclass(frozen=True)
class Trihedron:
    vertices: tuple[int, int]
    edges: tuple[int, ...]


def find_embedded_trihedra(g: TraceGraph) -> list[Trihedron]:
    """All embedded theta subgraphs: vertex pairs joined by >= 3 parallel
    edges, one trihedron per 3-subset.  Edge interiors are vertex-free by
    construction (edges are arcs between consecutive vertices), so every
    such subgraph is embedded."""
    groups: dict[frozenset, list[int]] = {}
    for e in g.edges.values():
        if e.tail is None or e.tail == e.head:
            continue
        groups.setdefault(frozenset((e.tail, e.head)), []).append(e.id)
    out = []
    for ends, eids in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        if len(eids) >= 3:
            v1, v2 = sorted(ends)
            for triple in itertools.combinations(sorted(eids), 3):
                out.append(Trihedron((v1, v2), triple))
    return out


class NotEliminable(ValueError):
    pass


def _validate_trihedron(g: TraceGraph, t: Trihedron) -> list[tuple[int, int, int]]:
    """Check that eliminating t is the inverse of a trihedral move; returns
    (edge, predecessor, successor) per connecting edge, in `t.edges` order.
    The three predecessors are all of the bottom vertex's `below`, the three
    successors all of the top vertex's `above`, so every edge at t's two
    vertices is in the plan.  Each arc's neighbours on its circle are read
    from the rotation data by the continuation rule (`TraceVertex`).

    A move creates two vertices joined by three short parallel arcs, so a
    removable trihedron must be contractible (any two of its edges cobound
    a disc in the torus: equal lift displacements) and its arcs carry the
    two-adjacent-levels pattern of a triple vertex, never a single level.
    """
    if len(t.edges) != 3:
        raise NotEliminable("a trihedron has exactly three edges")
    circles = {g.edges[e].circle for e in t.edges}
    if len(circles) != 3:
        raise NotEliminable("trihedron edges must lie on three distinct circles")
    e0, e1, e2 = (g.edges[e] for e in t.edges)
    if not (e0.tail == e1.tail == e2.tail and e0.head == e1.head == e2.head):
        raise NotEliminable("trihedron arcs must run jointly from one vertex to the other")
    if e0.tail == e0.head or {e0.tail, e0.head} != set(t.vertices):
        raise NotEliminable("edge does not join the trihedron vertices")
    for a, b in ((e0, e1), (e0, e2), (e1, e2)):
        if abs(a.dz - b.dz) > 1e-6 or abs(a.dt - b.dt) > 1e-6:
            raise NotEliminable("trihedron edges do not cobound discs")
    if e0.level == e1.level == e2.level:
        raise NotEliminable("trihedron arcs all carry one level")
    bottom = g.vertices[e0.tail]
    top = g.vertices[e0.head]
    if set(bottom.above) != set(t.edges) or set(top.below) != set(t.edges):
        raise NotEliminable("rotation data inconsistent: arcs do not fill one side")
    if bottom.above != top.below:
        raise NotEliminable("rotation data inconsistent: arrival order differs")
    plan = []
    for eid in t.edges:
        j = bottom.above.index(eid)
        pred, succ = bottom.below[2 - j], top.above[2 - j]
        ep, es = g.edges[pred], g.edges[succ]
        if ep.level != es.level:
            raise NotEliminable(
                f"outside levels disagree on circle {g.edges[eid].circle}: {ep.level} vs {es.level}"
            )
        if pred != succ and (ep.tail in t.vertices or es.head in t.vertices):
            raise NotEliminable("outside edge folds back into the trihedron")
        plan.append((eid, pred, succ))
    return plan


def is_eliminable(g: TraceGraph, t: Trihedron) -> bool:
    try:
        _validate_trihedron(g, t)
        return True
    except NotEliminable:
        return False


def eliminate_trihedron(g: TraceGraph, t: Trihedron) -> TraceGraph:
    """Remove the trihedron's two vertices and three edges, splicing each of
    the three circles through them into a single edge with summed lift
    displacements, and pair the survivors again (`pair_partners`).  The
    outside levels per circle must agree."""
    plan = _validate_trihedron(g, t)
    g = g.copy()
    _eliminate_inplace(g, t, plan, max(g.edges))
    pair_partners(g)
    return g


def _eliminate_inplace(
    g: TraceGraph, t: Trihedron, plan: list[tuple[int, int, int]], last_id: int
) -> None:
    """Eliminate trihedron t in place along `plan`, the list that
    `_validate_trihedron` returned for t on g: the caller validates, once.
    `last_id` is the largest edge id of g; the spliced edges take the ids
    after it, in plan order.  The plan names every edge removed.  Records
    are shared with the graph's copies, so changed ones are replaced, never
    mutated.  The t+pi pairing is left stale for the caller to rebuild.

    A circle whose only outside edge is pred == succ closes into a
    vertex-free loop.  The loop takes the level its strand pairs share in
    the canonical placement, where track a rests at slot a
    (`_resting_level(n, a, b)` over the circle's `pass_circle` pairs).
    Every vertex-free circle of a built graph has that level, because the
    fibre at z = 0 is the canonical placement and a circle without vertices
    never changes level; so the level does not depend on which trihedron
    closed the loop, and the t+pi law level(e') = n - level(e) holds.  The
    outside edge's level would: when the last two vertices of a 3-braid
    graph go, both same-direction triples of the three remaining circles
    are eliminable and give opposite outside levels.  If the strand pairs
    disagreed on the canonical level (not seen in any reduction so far),
    the loop would keep the outside edge's level.
    """
    v1, v2 = t.vertices
    new_id = last_id
    for eid, pred, succ in plan:
        e = g.edges[eid]
        c = g.circles[e.circle]
        ep, es = g.edges[pred], g.edges[succ]
        new_id += 1
        if pred == succ:
            # the circle had only this edge outside; it closes into a loop
            levels = {_resting_level(g.n, a, b) for (a, b), cid in g.pass_circle.items()
                      if cid == c.id}
            merged = TraceEdge(
                new_id, None, None, ep.dz + e.dz, ep.dt + e.dt,
                levels.pop() if len(levels) == 1 else ep.level, c.id, e.pair,
            )
            g.edges[new_id] = merged
            del g.edges[eid], g.edges[pred]
            g.circles[c.id] = _with_edges(c, (new_id,))
        else:
            merged = TraceEdge(
                new_id, ep.tail, es.head,
                ep.dz + e.dz + es.dz, ep.dt + e.dt + es.dt,
                ep.level, c.id, e.pair,
                tail_pair=ep.tail_pair, head_pair=es.head_pair,
            )
            g.edges[new_id] = merged
            # rewire rotation data at the surviving endpoints
            for vid, old in ((ep.tail, pred), (es.head, succ)):
                v = g.vertices[vid]
                g.vertices[vid] = TraceVertex(
                    v.id, v.z, v.t, v.strands, v.letter, v.spectator_slot,
                    tuple(new_id if x == old else x for x in v.below),
                    tuple(new_id if x == old else x for x in v.above),
                )
            del g.edges[eid], g.edges[pred], g.edges[succ]
            # keep cyclic order: the merged edge takes pred's position
            ordered = list(c.edges)
            k = ordered.index(eid)
            K = len(ordered)
            ordered[(k - 1) % K] = new_id
            for x in sorted((k, (k + 1) % K), reverse=True):
                del ordered[x]
            g.circles[c.id] = _with_edges(c, tuple(ordered))
    del g.vertices[v1], g.vertices[v2]


def _with_edges(c: TraceCircle, edges: tuple[int, ...]) -> TraceCircle:
    return TraceCircle(c.id, c.marking, c.diff, c.comp_pair, edges, c.dz_total, c.dt_winding)


def reduce(
    g: TraceGraph,
    rng=None,
) -> TraceGraph:
    """Eliminate embedded trihedra until none remain.  Deterministic order
    (the pair with the smallest vertex id first) unless an rng is given, in
    which case the elimination order is random.  The builder numbers
    vertices in increasing (z, t): letter by letter, a letter's trisecants
    by increasing window parameter, the lift at t0 before its t0 + pi
    partner; reduction never renumbers a vertex.  So the smallest id is the
    lexicographically smallest vertex coordinates.

    Parallel edges are indexed by end pair.  A splice plan holds every edge
    at its two vertices, so each group it meets goes whole: the plan's
    groups are dropped, the spliced edges indexed, and `hot` changed in
    place, as a seeded order shuffles it in its iteration order.  A loop
    the reduction closes takes its level in the splice
    (`_eliminate_inplace`).  The t+pi pairing of the survivors is read
    once, at the end (`pair_partners`).
    """
    original = g.num_vertices
    work = g.copy()

    pair_edges: dict[frozenset, set[int]] = {}
    hot: set[frozenset] = set()  # pairs with >= 3 parallel edges

    def index(eids):
        for eid in eids:
            e = work.edges[eid]
            if e.tail is not None and e.tail != e.head:
                key = frozenset((e.tail, e.head))
                group = pair_edges.setdefault(key, set())
                group.add(eid)
                if len(group) >= 3:
                    hot.add(key)

    index(work.edges)

    def eliminable_in(key: frozenset):
        """The first eliminable trihedron on the pair, with its splice plan."""
        v1, v2 = sorted(key)
        for triple in itertools.combinations(sorted(pair_edges[key]), 3):
            t = Trihedron((v1, v2), triple)
            try:
                return t, _validate_trihedron(work, t)
            except NotEliminable:
                pass
        return None

    # a splice adds one edge on each of its three distinct circles and
    # removes none of them, so afterwards the largest id is its last one
    last_id = max(work.edges, default=-1)

    while True:
        candidates = list(hot)
        if rng is None:
            candidates.sort(key=min)
        else:
            rng.shuffle(candidates)
        chosen = None
        for key in candidates:
            chosen = eliminable_in(key)
            if chosen is not None:
                break
        if chosen is None:
            break
        t, plan = chosen
        dead = {frozenset((work.edges[x].tail, work.edges[x].head)) for r in plan for x in r}
        _eliminate_inplace(work, t, plan, last_id)
        for key in dead:
            del pair_edges[key]
            hot.discard(key)
        index(range(last_id + 1, last_id + 4))
        last_id += 3
    work.reduced_from = original
    pair_partners(work)
    return work


def equivalent_up_to_trihedral(g1: TraceGraph, g2: TraceGraph) -> IsotopyResult:
    """Equivalence up to isotopy in the thickened torus and trihedral moves:
    isotopy of the reduced graphs."""
    return isotopic(reduce(g1), reduce(g2))
