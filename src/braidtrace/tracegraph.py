"""The embedded labelled trace graph of a closed braid.

For every ordered pair of strands there is one closed crossing-time curve
in the (z, t) torus (the opposite order is its t+pi shift); triple
vertices sit where the two arcs of an exchange window become collinear
with a spectator slot.  Trace circles are the orbits of ordered strand
pairs under the closure permutation.  Every edge carries its exact lift
displacement (dz, dt) and its level; every vertex stores the local
t-order of its six edge ends, which is the only data later "left/right/
middle" decisions consult.

The builder assembles a word's graph from per-letter tile constants, each
a function of (n, slot, sign) alone, and every float it stores is the
double the direct computation gives:

- `_vertex_tile` holds a letter's triple vertices as read from
  `letter_geometry`; its z offset (1 + s)/3 and second lift t0 + pi are
  the expressions the direct computation evaluates.  It also holds each
  pass's level: the level of its ordered pair on the edge that leaves the
  vertex upward.  Levels change only at vertices, so after a pair's last
  pass in a window that is `_resting_level` at the slots after the window,
  and between two trisecants of the moving pair it is the x-rank midway.
- `LetterGeometry.sight_angles` holds the direction from a spectator slot
  to a mover at s = 0 and s = 1.  A pass that reaches a window's start or
  end has s = (ws - ws)/(we - ws) = 0.0 or (we - ws)/(we - ws) = 1.0 with
  no rounding, so the constant is the value the same expression gives
  there.
- `_resting_level`: outside every exchange window each track rests at a
  slot point, so the level of a pair there is an integer function of
  (n, slot of a, slot of b).
- Edges are assembled from visit ends.  For n >= 3 every exchange window
  in which one of a pair's tracks moves holds a visit of that pair (the
  window has a trisecant with each spectator, and its two lifts pass every
  ordered pair of the three tracks), so an edge spans at most the end of
  its tail's window and the start of its head's, and a vertex-free circle
  never moves (dt 0.0).  `_visit_end` reads a visit's s from its walk
  coordinate and evaluates one `eta(s)` or sight angle for both edges at
  the visit.  An edge across windows adds its tail's part and its head's
  part; one inside a window joins two trisecants of the moving pair and
  takes the difference of their angles.  On two strands there are no
  vertices, and every window turns a loop by its letter's sign * pi.

Fibers are read from tiles of the same kind.  `_fiber_tile(n, slot, sign,
t)` holds the crossings of a letter's window in the fiber at t: each one's
window parameter s (the root where the moving chord, or the sight line
from a spectator slot to a mover, points along pi/2 - t), its over and
under strands named by their slots at the window's start, its x-rank
level and the rotated-x velocity difference whose sign is the crossing's.
`read_fiber` maps the slots to tracks and sets z = ws + s*(we - ws) for
window [ws, we].  The roots do not depend on the word, so z is the double
that solving the same root afresh for the letter at m gives.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from operator import itemgetter
from typing import Iterator, Optional

from . import embedding as emb
from .embedding import (
    EVENT_SEP,
    GenericityError,
    StrandPathSet,
    letter_geometry,
    rot_x,
    rot_y,
    slot_angles,
    strand_paths,
    t_over,
    wrap_pm_pi,
)
from .words import BraidWord, CycleStructure, cycle_structure, permutation

TWO_PI = 2.0 * math.pi
SYMMETRY_TOL = 1e-6  # coordinate match of a vertex and its t+pi partner
FIBER_TOL = 1e-9     # singular-fiber and crossing-separation tolerance


class SingularFiberError(RuntimeError):
    pass


@dataclass(frozen=True, order=True)
class Marking:
    """Trace-circle marking (i,j)[k] by ordered closure components.

    For i == j, k is the well-defined index difference along the component;
    for i != j, k is a representative of the cyclic choice.
    """

    i: int
    j: int
    k: int

    def reversed(self, component_lengths: tuple[int, ...]) -> "Marking":
        if self.i == self.j:
            n_i = component_lengths[self.i - 1]
            return Marking(self.i, self.j, n_i - self.k)
        return Marking(self.j, self.i, self.k)

    def __str__(self) -> str:
        return f"({self.i}{self.j})[{self.k}]"


@dataclass
class TraceVertex:
    id: int
    z: float
    t: float
    strands: tuple[int, int, int]  # tracks by decreasing rotated y at this lift
    letter: int
    spectator_slot: int
    below: tuple[int, ...] = ()  # edge ids entering from below, increasing local t
    above: tuple[int, ...] = ()  # edge ids leaving upward, increasing local t


@dataclass
class TraceEdge:
    id: int
    tail: Optional[int]  # None for a vertex-free circle's closed loop
    head: Optional[int]
    dz: float
    dt: float
    level: int
    circle: int
    pair: tuple[int, int]  # ordered component pair (over, under); constant on the circle
    tail_pair: Optional[tuple[int, int]] = None  # ordered track pair at the tail visit
    head_pair: Optional[tuple[int, int]] = None


@dataclass
class TraceCircle:
    id: int
    marking: Marking
    diff: int                  # raw index difference behind the marking
    comp_pair: tuple[int, int]
    edges: tuple[int, ...]     # cyclic; edges[k] runs from visit k to visit k+1
    dz_total: int
    dt_winding: int            # total dt = dt_winding * 2*pi


@dataclass
class TraceGraph:
    n: int
    word: BraidWord
    cycles: CycleStructure
    vertices: dict[int, TraceVertex]
    edges: dict[int, TraceEdge]
    circles: dict[int, TraceCircle]
    vertex_partner: dict[int, int]
    edge_partner: dict[int, int]
    circle_partner: dict[int, int]
    pass_circle: dict[tuple[int, int], int]
    paths: Optional[StrandPathSet] = None
    reduced_from: Optional[int] = None  # original vertex count, set by reduction

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def vertex_count_per_circle(self) -> dict[int, int]:
        out = {}
        for cid, c in self.circles.items():
            if c.edges and self.edges[c.edges[0]].tail is None:
                out[cid] = 0
            else:
                out[cid] = len(c.edges)
        return out

    def copy(self) -> "TraceGraph":
        """A copy that shares the vertex, edge and circle records: a record
        is never mutated once its graph is returned (a change replaces
        it), so only the dicts are copied."""
        return replace(
            self,
            vertices=dict(self.vertices),
            edges=dict(self.edges),
            circles=dict(self.circles),
            vertex_partner=dict(self.vertex_partner),
            edge_partner=dict(self.edge_partner),
            circle_partner=dict(self.circle_partner),
            pass_circle=dict(self.pass_circle),
        )


def component_indexing(cs: CycleStructure) -> dict[int, int]:
    """strand -> 0-based position along its component, starting at the
    smallest strand and following the closure orientation."""
    idx = {}
    for cyc in cs.cycles:
        for a, s in enumerate(cyc):
            idx[s] = a
    return idx


# ---------------------------------------------------------------------------
# Construction


@dataclass
class _Visit:
    z: float                 # pass z while collecting, walk z on circles
    vertex: int
    slope: float
    pair: tuple[int, int]    # ordered track pair of the pass
    m: int                   # the exchange window (letter) of the vertex
    level: int               # of the pair on the edge leaving upward


def build_trace_graph(w: BraidWord) -> TraceGraph:
    paths = strand_paths(w)
    cs = cycle_structure(w)
    perm = permutation(w)
    idx_in_comp = component_indexing(cs)
    l = len(w)
    n = w.n

    vertices: dict[int, TraceVertex] = {}
    vertex_partner: dict[int, int] = {}
    pass_visits: dict[tuple[int, int], list[_Visit]] = {}

    vid = 0
    for m in range(l):
        geom = paths.geoms[m]
        a_mv, b_mv = paths.movers(m)  # tracks at slots i, i+1 (symbols u, v)
        occ = paths.occ[m]
        for spectator_slot, z_in_slab, lifts in _vertex_tile(geom.n, geom.slot, geom.sign):
            tracks = (a_mv, b_mv, occ[spectator_slot - 1])
            z_star = (m + z_in_slab) / l
            for t_star, y_order, passes in lifts:
                vertices[vid] = TraceVertex(vid, z_star, t_star, y_order(tracks), m, spectator_slot)
                for top, low, slope, level in passes:
                    pair = (tracks[top], tracks[low])
                    pass_visits.setdefault(pair, []).append(
                        _Visit(z_star, vid, slope, pair, m, level)
                    )
                vid += 1
            vertex_partner[vid - 2] = vid - 1
            vertex_partner[vid - 1] = vid - 2

    _assert_event_separation(vertices)
    for visits in pass_visits.values():
        visits.sort(key=lambda vv: vv.z)

    # trace circles: orbits of ordered track pairs under the closure permutation
    circles: dict[int, TraceCircle] = {}
    edges: dict[int, TraceEdge] = {}
    pass_circle: dict[tuple[int, int], int] = {}
    circle_visits: dict[int, list[_Visit]] = {}

    cid = 0
    eid = 0
    all_pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    for start in all_pairs:
        if start in pass_circle:
            continue
        orbit = []
        cur = start
        while True:
            orbit.append(cur)
            pass_circle[cur] = cid
            cur = (perm[cur[0] - 1], perm[cur[1] - 1])
            if cur == start:
                break

        visits: list[_Visit] = []
        for p, pair in enumerate(orbit):
            for vv in pass_visits.get(pair, ()):
                visits.append(_Visit(p + vv.z, vv.vertex, vv.slope, vv.pair, vv.m, vv.level))
        circle_visits[cid] = visits

        comp_pair = (cs.component_of[start[0] - 1], cs.component_of[start[1] - 1])
        if comp_pair[0] == comp_pair[1]:
            n_i = cs.lengths[comp_pair[0] - 1]
            diff = (idx_in_comp[start[0]] - idx_in_comp[start[1]]) % n_i
        else:
            g = math.gcd(cs.lengths[comp_pair[0] - 1], cs.lengths[comp_pair[1] - 1])
            diff = (idx_in_comp[start[0]] - idx_in_comp[start[1]]) % g

        orbit_len = len(orbit)
        total = float(orbit_len)
        edge_ids = []
        if not visits:
            # for n >= 3 no window moves the pair's tracks (module docstring)
            dt = 0.0
            if n == 2:
                for _ in orbit:
                    for _, sign in w.letters:
                        dt += sign * math.pi
            winding = _round_winding(dt, f"circle of pair {start}")
            level = _resting_level(n, *start)
            edges[eid] = TraceEdge(eid, None, None, total, dt, level, cid, comp_pair)
            edge_ids.append(eid)
            eid += 1
        else:
            K = len(visits)
            ends = [_visit_end(paths, l, vv) for vv in visits]
            dt_sum = 0.0
            for k in range(K):
                src = visits[k]
                dst = visits[(k + 1) % K]
                window, angle, _, tail = ends[k]
                dst_window, dst_angle, head, _ = ends[(k + 1) % K]
                if k + 1 < K:
                    dz = dst.z - src.z
                else:
                    dz = total - src.z + dst.z
                if k + 1 < K and window == dst_window:
                    # two trisecants of the moving pair, whose turn is < pi
                    dt = 0.0 + -(dst_angle - angle)
                else:
                    # no window where the pair moves lies between the two
                    # visits (module docstring)
                    dt = 0.0 + tail + head
                edges[eid] = TraceEdge(
                    eid, src.vertex, dst.vertex, dz, dt, src.level, cid, comp_pair,
                    tail_pair=src.pair, head_pair=dst.pair,
                )
                dt_sum += dt
                edge_ids.append(eid)
                eid += 1
            winding = _round_winding(dt_sum, f"circle of pair {start}")

        circles[cid] = TraceCircle(
            cid, Marking(comp_pair[0], comp_pair[1], 0), diff, comp_pair,
            tuple(edge_ids), orbit_len, winding,
        )
        cid += 1

    # vertex rotation data: below ends in increasing local t = decreasing slope
    incid: dict[int, list[tuple[float, int, int]]] = {v: [] for v in vertices}
    for c in circles.values():
        visits = circle_visits[c.id]
        K = len(visits)
        for k, vv in enumerate(visits):
            incid[vv.vertex].append((vv.slope, c.edges[(k - 1) % K], c.edges[k]))
    for vkey, items in incid.items():
        v = vertices[vkey]
        v.below = tuple(e for _, e, _ in sorted(items, key=lambda x: -x[0]))
        v.above = tuple(e for _, _, e in sorted(items, key=lambda x: x[0]))

    # t+pi partners: a circle's partner carries the reversed ordered pairs
    circle_partner = {
        pass_circle[pair]: pass_circle[(pair[1], pair[0])] for pair in pass_circle
    }
    graph = TraceGraph(
        n, w, cs, vertices, edges, circles,
        vertex_partner, {}, circle_partner, pass_circle,
        paths=paths,
    )
    pair_partners(graph)
    _assign_markings(graph)
    return graph


def _circle_visits(g: TraceGraph, c: TraceCircle) -> list[int]:
    """Vertex of each junction along the circle; visit k is the tail of
    edges[k].  Empty for vertex-free circles."""
    if c.edges and g.edges[c.edges[0]].tail is None:
        return []
    return [g.edges[e].tail for e in c.edges]


def pair_partners(g: TraceGraph) -> None:
    """The t+pi pairing of the graph's vertices and edges, read from its
    vertex pairing and circle pairing.

    Vertex pairs with a missing end are dropped.  A circle's edges pair
    with its partner circle's at the first cyclic shift that carries every
    visit to its vertex's partner; a vertex-free circle pairs with a
    vertex-free partner.  On a built graph every vertex and edge is
    paired.  Overlapping trihedra let a reduction keep different vertices
    on the two symmetric sides (the results are isotopic, not pointwise
    symmetric), so there records without a literal partner drop out of
    the pairing."""
    g.vertex_partner = {
        a: b for a, b in g.vertex_partner.items() if a in g.vertices and b in g.vertices
    }
    edge_partner = {}
    for c in g.circles.values():
        pc = g.circles[g.circle_partner[c.id]]
        visits = _circle_visits(g, c)
        pvisits = _circle_visits(g, pc)
        if not visits:
            if not pvisits and len(pc.edges) == len(c.edges) == 1:
                edge_partner[c.edges[0]] = pc.edges[0]
            continue
        if any(v not in g.vertex_partner for v in visits):
            continue
        expected = [g.vertex_partner[v] for v in visits]
        K = len(visits)
        if len(pvisits) != K:
            continue
        for s in range(K):
            if all(pvisits[(x + s) % K] == expected[x] for x in range(K)):
                for x in range(K):
                    edge_partner[c.edges[x]] = pc.edges[(x + s) % K]
                break
    g.edge_partner = edge_partner


@lru_cache(maxsize=None)
def _vertex_tile(n: int, slot: int, sign: int) -> tuple:
    """The triple vertices of letter (slot, sign) on n strands, with its
    strands named by index into (u, v, spectator): per trisecant, the
    spectator slot, the z offset in the slab in units of the slab, and for
    each time lift (t0, then t0 + pi) its t, a getter of its strands by
    decreasing rotated y, and the (top, low, slope, level) of its three
    passes, the level being that of the pass's ordered pair on the edge
    leaving the vertex upward."""
    geom = letter_geometry(n, slot, sign)
    name = {"u": 0, "v": 1, "spec": 2}
    events = geom.trisecants  # increasing s
    tile = []
    for k, ev in enumerate(events):
        slope = {frozenset(name[x] for x in key): val for key, val in ev.slopes.items()}
        s_next = events[k + 1].s if k + 1 < len(events) else None
        after = (slot + 1, slot, ev.spectator_slot)  # resting slots after the window
        order0 = tuple(name[x] for x in ev.y_order_t0)
        lifts = []
        for t_star, order in ((ev.t0, order0), (ev.t0 + math.pi, order0[::-1])):
            top, mid, low = order
            passes = tuple(
                (x, y, slope[frozenset((x, y))], _pass_level(geom, after, x, y, ev.s, s_next))
                for x, y in ((top, mid), (mid, low), (top, low))
            )
            lifts.append((t_star, itemgetter(*order), passes))
        tile.append((ev.spectator_slot, (1.0 + ev.s) / 3.0, tuple(lifts)))
    return tuple(tile)


def _pass_level(geom, after: tuple, x: int, y: int, s: float, s_next: Optional[float]) -> int:
    """Level of the ordered pair (x, y) of (u, v, spectator) after its pass
    at the trisecant at s.  Levels change only at vertices.  The moving
    pair passes again at the next trisecant s_next of the window, so up to
    there its level is the x-rank midway; after a pair's last pass in the
    window it is the level at the resting slots `after`."""
    if 2 in (x, y) or s_next is None:
        return _resting_level(geom.n, after[x], after[y])
    s_mid = (s + s_next) / 2
    pts = list(slot_angles(geom.n).points)
    pts[geom.slot - 1], pts[geom.slot] = geom.u(s_mid), geom.v(s_mid)
    ia, ib = geom.slot - 1 + x, geom.slot - 1 + y
    level = _x_rank(pts, ia, ib, t_over(pts[ia], pts[ib]))
    if level is None:
        raise GenericityError(f"level sample at s={s_mid} hits a collinearity, n={geom.n}")
    return level


def _assert_event_separation(vertices: dict[int, TraceVertex]) -> None:
    evs = sorted((v.z, v.t, v.id) for v in vertices.values())
    for a in range(len(evs)):
        b = a + 1
        while b < len(evs) and evs[b][0] - evs[a][0] < EVENT_SEP:
            if abs(wrap_pm_pi(evs[b][1] - evs[a][1])) < EVENT_SEP:
                raise GenericityError(
                    f"vertices {evs[a][2]} and {evs[b][2]} closer than {EVENT_SEP}"
                )
            b += 1


def _round_winding(dt: float, what: str) -> int:
    w = dt / TWO_PI
    r = round(w)
    if abs(w - r) > 1e-6:
        raise GenericityError(f"t-displacement of {what} is not a 2*pi multiple: {dt}")
    return r


def _visit_end(paths: StrandPathSet, l: int, vv: _Visit) -> tuple:
    """The ends of a circle visit's exchange window, read once per visit:
    ((pass, window), its angle, the t-displacement from the window's start
    to the visit, and from the visit to the window's end).

    The angle is `eta(s)` for a moving pair and the sight angle from the
    spectator slot for a mover-spectator pair, with s read from the walk
    coordinate; a window end is the tile constant for s = 0 or 1.  The
    moving pair's direction turns by sign * pi over the window, and the
    sight-line cone is narrower than pi, so a mover-spectator part is the
    principal wrap of its turn.  A visit on the end of its window raises
    GenericityError."""
    p, m = int(vv.z), vv.m
    ws, we = m / l + 1 / (3 * l), m / l + 2 / (3 * l)  # paths.window(m)
    s = (vv.z - p - ws) / (we - ws)
    if not 0.0 < s < 1.0:
        raise GenericityError(f"vertex {vv.vertex} lies on the end of exchange window {m}")
    geom = paths.geoms[m]
    mv = paths.movers(m)
    a, b = vv.pair
    if a in mv and b in mv:
        e = geom.eta(s)
        return (p, m), e, -e, -(-geom.sign * math.pi - e)
    mover_track, other = (a, b) if a in mv else (b, a)
    sym = "u" if mover_track == mv[0] else "v"
    slot = paths.pos_of[m][other - 1]
    theta = geom._sight_angle(sym, slot, s)
    start, end = geom.sight_angles[sym, slot]
    return (p, m), theta, -wrap_pm_pi(theta - start), -wrap_pm_pi(end - theta)


def _level_of_pair(paths: StrandPathSet, a: int, b: int, z: float) -> int:
    """Level of the crossing of tracks a, b at height z: its x-order position
    in the diagram rotated to the pair's own over-lift, the frame of a point
    of the trace graph."""
    slots = paths.resting_slots(z)
    if slots is not None:
        return _resting_level(paths.n, slots[a - 1], slots[b - 1])
    pos = paths.positions_at(z)
    level = _x_rank(pos, a - 1, b - 1, t_over(pos[a - 1], pos[b - 1]))
    if level is None:
        raise GenericityError(f"level sample at z={z} hits a collinearity for pair ({a},{b})")
    return level


def _x_rank(points, ia: int, ib: int, t: float) -> Optional[int]:
    """1 + the number of points other than points[ia], points[ib] left of
    points[ia] in the frame rotated by t (`rot_x`); None when one of them
    is within 1e-9 of it."""
    c, s = math.cos(t), math.sin(t)
    xa = points[ia][0] * c - points[ia][1] * s
    level = 1
    for k, p in enumerate(points):
        if k == ia or k == ib:
            continue
        x = p[0] * c - p[1] * s
        if abs(x - xa) < 1e-9:
            return None
        if x < xa:
            level += 1
    return level


@lru_cache(maxsize=None)
def _resting_level(n: int, slot_a: int, slot_b: int) -> int:
    """`_level_of_pair` of tracks resting at slots slot_a, slot_b in the
    pair's own over-lift frame, where every other track rests at one of
    the other slots."""
    pts = slot_angles(n).points
    level = _x_rank(pts, slot_a - 1, slot_b - 1, t_over(pts[slot_a - 1], pts[slot_b - 1]))
    if level is None:
        raise GenericityError(f"level sample hits a collinearity for slots ({slot_a},{slot_b})")
    return level


def _assign_markings(graph: TraceGraph) -> None:
    """Default marking representatives.

    Same-component circles carry their well-defined difference index.  For a
    mixed family the cyclic shift is anchored so that the family's first
    circle met at the t=0 fiber (scanning z upward) gets [1]; families that
    never meet that fiber fall back to the smallest raw difference.

    The t=0 fiber is the diagram of the word, one crossing per letter, of
    its two movers, in letter order; so the anchor is read from the
    letters: the first letter whose movers lie in the family's two
    components.  Either circle of the movers gives the same shift, since
    the index difference of a pair is constant mod gcd along its orbit and
    the partner circle's is its negative.
    """
    cs = graph.cycles
    by_family: dict[frozenset, list[TraceCircle]] = {}
    for c in graph.circles.values():
        i, j = c.comp_pair
        if i == j:
            graph.circles[c.id] = replace(c, marking=Marking(i, j, c.diff))
        else:
            by_family.setdefault(frozenset((i, j)), []).append(c)
    if not by_family:
        return

    first_seen: dict[frozenset, TraceCircle] = {}
    for m in range(graph.paths.length):
        c = graph.circles[graph.pass_circle[graph.paths.movers(m)]]
        fam = frozenset(c.comp_pair)
        if len(fam) == 2 and fam not in first_seen:
            first_seen[fam] = c
    for fam, members in by_family.items():
        i, j = sorted(fam)
        g = math.gcd(cs.lengths[i - 1], cs.lengths[j - 1])
        anchor = first_seen.get(fam)
        if anchor is not None:
            shift = anchor.diff if anchor.comp_pair == (i, j) else (-anchor.diff) % g
        else:
            shift = min(c.diff for c in members if c.comp_pair == (i, j))
        for c in members:
            if c.comp_pair == (i, j):
                k = ((c.diff - shift) % g) + 1
            else:
                k = ((-c.diff - shift) % g) + 1
            graph.circles[c.id] = replace(
                c, marking=Marking(c.comp_pair[0], c.comp_pair[1], k)
            )


# ---------------------------------------------------------------------------
# Symmetry involution as a checked operation


def symmetry_involution(graph: TraceGraph) -> dict[int, int]:
    """Match each vertex to its t -> t+pi partner by coordinates; verify the
    construction pairing and the marking reversal rules.  The partner is
    the first vertex in graph order within SYMMETRY_TOL in z and t, sought
    among the vertices a bisection by z finds near v."""
    pairing: dict[int, int] = {}
    verts = list(graph.vertices.values())
    by_z = sorted(range(len(verts)), key=lambda k: verts[k].z)
    keys = [verts[k].z for k in by_z]
    for v in verts:
        target_t = (v.t + math.pi) % TWO_PI
        z_lo, z_hi = v.z - 2 * SYMMETRY_TOL, v.z + 2 * SYMMETRY_TOL
        near = by_z[bisect_left(keys, z_lo):bisect_right(keys, z_hi)]
        match = min((k for k in near if abs(verts[k].z - v.z) < SYMMETRY_TOL
                     and abs(wrap_pm_pi(verts[k].t - target_t)) < SYMMETRY_TOL), default=None)
        if match is None:
            raise GenericityError(f"vertex {v.id} has no t+pi partner within {SYMMETRY_TOL}")
        pairing[v.id] = verts[match].id
    for a, b in pairing.items():
        if a == b or pairing[b] != a:
            raise GenericityError("symmetry pairing is not a fixed-point-free involution")
        if graph.vertex_partner[a] != b:
            raise GenericityError("coordinate pairing disagrees with construction pairing")
    lengths = graph.cycles.lengths
    for cid, pcid in graph.circle_partner.items():
        m = graph.circles[cid].marking
        pm = graph.circles[pcid].marking
        if pm != m.reversed(lengths):
            raise GenericityError(f"marking {m} does not reverse to {pm}")
    return pairing


# ---------------------------------------------------------------------------
# Fibers


@dataclass(frozen=True)
class FiberCrossing:
    z: float
    t: float
    over: int
    under: int
    comp_pair: tuple[int, int]
    marking: Marking
    level: int
    sign: int
    circle: int


def singular_t_values(paths: StrandPathSet) -> list[tuple[float, str]]:
    """t values (mod pi) at which the fiber is not generic."""
    out = []
    pts = paths.placement.points
    n = paths.n
    for p in range(n):
        for q in range(p + 1, n):
            t0, _ = emb.crossing_time(pts[p], pts[q])
            out.append((t0, f"stationary pair at slots ({p + 1},{q + 1})"))
    seen = set()
    for m in range(paths.length):
        key = paths.word.letters[m]
        if key in seen:
            continue
        seen.add(key)
        geom = paths.geoms[m]
        for ev in geom.trisecants:
            out.append(
                (ev.t0, f"triple vertex (letter slot {key[0]}, spectator {ev.spectator_slot})")
            )
        for ex in geom.extrema:
            out.append(
                (ex.t0, f"tangency extremum (letter slot {key[0]}, spectator {ex.spectator_slot})")
            )
    return out


def read_fiber(g: TraceGraph, t: float) -> list[FiberCrossing]:
    """Crossings of the diagram of the braid rotated by t, sorted by z."""
    paths = g.paths
    if paths is None:
        raise ValueError("graph was built without strand paths")
    t = t % TWO_PI
    for t_bad, reason in singular_t_values(paths):
        if abs(wrap_pm_pi(2 * (t - t_bad))) / 2 < FIBER_TOL:
            raise SingularFiberError(f"t={t:.6f} is singular: {reason}")

    component_of = g.cycles.component_of
    crossings = []
    n, l = paths.n, paths.length
    for m, (slot, sign) in enumerate(paths.word.letters):
        occ = paths.occ[m]
        ws, we = paths.window(m)
        for s, x, y, x_level, y_level, dv in _fiber_tile(n, slot, sign, t):
            over, under = occ[x - 1], occ[y - 1]
            a, b = sorted((over, under))
            z = ws + s * (we - ws)
            level = x_level if over == a else y_level
            if level is None:
                raise GenericityError(
                    f"level sample at z={z} hits a collinearity for pair ({a},{b})"
                )
            if abs(3 * l * dv) < FIBER_TOL:  # dv per unit s; s runs 3l times as fast as z
                raise SingularFiberError(
                    f"crossing of ({a},{b}) at z={z:.9f} has no transversal sign"
                )
            cid = g.pass_circle[(over, under)]
            crossings.append(FiberCrossing(
                z, t, over, under, (component_of[over - 1], component_of[under - 1]),
                g.circles[cid].marking, level, 1 if dv > 0 else -1, cid,
            ))
    crossings.sort(key=lambda c: c.z)
    for c1, c2 in zip(crossings, crossings[1:]):
        if c2.z - c1.z < FIBER_TOL:
            raise SingularFiberError(f"two crossings share z={c1.z:.9f}")
    return crossings


@lru_cache(maxsize=1024)
def _fiber_tile(n: int, slot: int, sign: int, t: float) -> tuple:
    """The crossings of letter (slot, sign)'s window on n strands in the
    fiber at t, t in [0, 2pi): per crossing its window parameter s, its
    over and under strands named by their slots at the window's start, the
    x-rank level measured from the over and from the under strand (None
    where another point is within 1e-9), and the rotated-x velocity of the
    over strand minus the under strand's, per unit s.  At a root the two
    strands' rotated x differ by up to about 1e-10, so both levels are
    kept: `read_fiber` takes the one of the lower-numbered track.

    The moving pair crosses once, where the chord points along pi/2 - t
    mod pi; a mover and a spectator cross where the sight angle does, on
    each monotone piece between the pair's tangency extrema."""
    geom = letter_geometry(n, slot, sign)
    pts = slot_angles(n).points
    tau = math.pi / 2 - t  # target chord direction mod pi
    roots = [(slot, slot + 1, geom.solve_direction(tau))]
    for spec in range(1, n + 1):
        if spec in (slot, slot + 1):
            continue
        for sym, mover in (("u", slot), ("v", slot + 1)):
            exts = sorted(
                ex.s for ex in geom.extrema if ex.mover == sym and ex.spectator_slot == spec
            )
            splits = [0.0] + exts + [1.0]
            theta = partial(geom._sight_angle, sym, spec)
            for s_lo, s_hi in zip(splits, splits[1:]):
                roots.extend(
                    (mover, spec, s) for s in _solve_monotone_theta(theta, s_lo, s_hi, tau)
                )
    tile = []
    for a, b, s in roots:
        at = list(pts)
        at[slot - 1], at[slot] = geom.u(s), geom.v(s)
        vel = {slot: geom.u_velocity(s), slot + 1: geom.v_velocity(s)}
        over, under = (a, b) if rot_y(at[a - 1], t) > rot_y(at[b - 1], t) else (b, a)
        tile.append((
            s, over, under,
            _x_rank(at, over - 1, under - 1, t), _x_rank(at, under - 1, over - 1, t),
            rot_x(vel.get(over, (0.0, 0.0)), t) - rot_x(vel.get(under, (0.0, 0.0)), t),
        ))
    return tuple(tile)


def _solve_monotone_theta(theta, s_lo: float, s_hi: float, tau: float) -> Iterator[float]:
    """Roots of theta(s) = tau (mod pi) on a monotone piece with swing < pi.
    Interior roots only; boundary hits are singular fibers, rejected upstream."""
    th1 = theta(s_lo)
    u_hi = wrap_pm_pi(theta(s_hi) - th1)
    c0 = (tau - th1) % math.pi
    for c in (c0, c0 - math.pi):
        if (0.0 < c < u_hi) or (u_hi < c < 0.0):
            yield emb.brentq(lambda s: wrap_pm_pi(theta(s) - th1) - c, s_lo, s_hi)


def read_word_at(g: TraceGraph, t: float) -> BraidWord:
    """The braid word read off the fiber at angle t: letters are the
    (level, sign) of its crossings in z order.  At t=0 this is the input."""
    return BraidWord(g.n, tuple((c.level, c.sign) for c in read_fiber(g, t)))
