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
  the expressions the direct computation evaluates.
- `LetterGeometry.sight_angles` holds the direction from a spectator slot
  to a mover at s = 0 and s = 1.  A pass that reaches a window's start or
  end has s = (ws - ws)/(we - ws) = 0.0 or (we - ws)/(we - ws) = 1.0 with
  no rounding, so the constant is the value the same expression gives
  there, and each edge's dt keeps its addends and their order.
- `_resting_level`: outside every exchange window each track rests at a
  slot point, so the level of a pair there is an integer function of
  (n, slot of a, slot of b).
- `StrandPathSet.moving` lists the windows in which a pair's tracks move;
  `_delta_t_along` skips only windows that add nothing and visits the
  others in increasing m, as a scan of every window would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Optional

from . import embedding as emb
from .embedding import (
    EVENT_SEP,
    GenericityError,
    StrandPathSet,
    letter_geometry,
    rot_y,
    slot_angles,
    strand_paths,
    t_over,
    wrap_pi,
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
                for top, low, slope in passes:
                    pair = (tracks[top], tracks[low])
                    pass_visits.setdefault(pair, []).append(_Visit(z_star, vid, slope, pair))
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
                visits.append(_Visit(p + vv.z, vv.vertex, vv.slope, vv.pair))
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
            dt = _delta_t_along(paths, orbit, 0.0, total)
            winding = _round_winding(dt, f"circle of pair {start}")
            level = _level_at_walk(paths, orbit, total / 2)
            edges[eid] = TraceEdge(eid, None, None, total, dt, level, cid, comp_pair)
            edge_ids.append(eid)
            eid += 1
        else:
            K = len(visits)
            dt_sum = 0.0
            for k in range(K):
                src = visits[k]
                dst = visits[(k + 1) % K]
                if k + 1 < K:
                    dz = dst.z - src.z
                    dt = _delta_t_along(paths, orbit, src.z, dst.z)
                    mid_walk = src.z + dz / 2
                else:
                    dz = total - src.z + dst.z
                    dt = _delta_t_along(paths, orbit, src.z, total) + _delta_t_along(
                        paths, orbit, 0.0, dst.z
                    )
                    mid_walk = (src.z + dz / 2) % total
                level = _level_at_walk(paths, orbit, mid_walk)
                edges[eid] = TraceEdge(
                    eid, src.vertex, dst.vertex, dz, dt, level, cid, comp_pair,
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
    decreasing rotated y, and the (top, low, slope) of its three passes."""
    name = {"u": 0, "v": 1, "spec": 2}
    tile = []
    for ev in letter_geometry(n, slot, sign).trisecants:
        slope = {frozenset(name[x] for x in key): val for key, val in ev.slopes.items()}
        order0 = tuple(name[x] for x in ev.y_order_t0)
        lifts = []
        for t_star, order in ((ev.t0, order0), (ev.t0 + math.pi, order0[::-1])):
            top, mid, low = order
            passes = tuple(
                (x, y, slope[frozenset((x, y))]) for x, y in ((top, mid), (mid, low), (top, low))
            )
            lifts.append((t_star, itemgetter(*order), passes))
        tile.append((ev.spectator_slot, (1.0 + ev.s) / 3.0, tuple(lifts)))
    return tuple(tile)


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


def _delta_t_along(
    paths: StrandPathSet, orbit: list[tuple[int, int]], w1: float, w2: float
) -> float:
    """Exact t-displacement along a circle between walk coordinates w1 <= w2
    (walk = pass index + z).  Only exchange windows of the pair's own tracks
    contribute; everything else is stationary.  Those windows come from
    `paths.moving`, in increasing m."""
    l = paths.length
    if l == 0 or w1 >= w2:
        return 0.0
    moving, geoms, pos_of = paths.moving, paths.geoms, paths.pos_of
    total = 0.0
    for p in range(int(w1), min(int(math.ceil(w2)), len(orbit))):
        a, b = orbit[p]
        lo = max(w1 - p, 0.0)
        hi = min(w2 - p, 1.0)
        if lo >= hi:
            continue
        m_lo = max(0, int(lo * l) - 1)
        m_hi = min(l, int(hi * l) + 2)
        windows = moving[a, b]
        for m in windows[bisect_left(windows, m_lo):bisect_left(windows, m_hi)]:
            ws, we = m / l + 1 / (3 * l), m / l + 2 / (3 * l)  # paths.window(m)
            if we <= lo or ws >= hi:
                continue
            s1 = max((max(lo, ws) - ws) / (we - ws), 0.0)
            s2 = min((min(hi, we) - ws) / (we - ws), 1.0)
            geom = geoms[m]
            mv = paths.movers(m)
            if a in mv and b in mv:
                total += geom.moving_pair_delta_t(s1, s2)
            else:
                mover_track, other = (a, b) if a in mv else (b, a)
                sym = "u" if mover_track == mv[0] else "v"
                total += geom.mover_spectator_delta_t(sym, pos_of[m][other - 1], s1, s2)
    return total


def _level_at_walk(paths: StrandPathSet, orbit, walk: float) -> int:
    p = int(walk) % len(orbit)
    a, b = orbit[p]
    return _level_of_pair(paths, a, b, walk - int(walk))


def _level_of_pair(paths: StrandPathSet, a: int, b: int, z: float, t: float | None = None) -> int:
    """Level of the crossing of tracks a, b at height z: its x-order position
    in the rotated diagram.  With t omitted, the frame is the pair's own
    over-lift (the right frame for a point of the trace graph); fiber reads
    pass their own rotation angle."""
    if t is None:
        slots = paths.resting_slots(z)
        if slots is not None:
            return _resting_level(paths.n, slots[a - 1], slots[b - 1])
    pos = paths.positions_at(z)
    pa, pb = pos[a - 1], pos[b - 1]
    if t is None:
        t = t_over(pa, pb)
    level = _x_rank(pos, a - 1, b - 1, t)
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
    marking: Optional[Marking]
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


def _paths_of(g) -> StrandPathSet:
    if isinstance(g, StrandPathSet):
        return g
    if g.paths is None:
        raise ValueError("graph was built without strand paths")
    return g.paths


def read_fiber(g, t: float) -> list[FiberCrossing]:
    """Crossings of the diagram of the braid rotated by t, sorted by z."""
    paths = _paths_of(g)
    graph = g if isinstance(g, TraceGraph) else None
    t = t % TWO_PI
    for t_bad, reason in singular_t_values(paths):
        if abs(wrap_pm_pi(2 * (t - t_bad))) / 2 < FIBER_TOL:
            raise SingularFiberError(f"t={t:.6f} is singular: {reason}")

    cs = cycle_structure(paths.word)
    crossings = []
    n = paths.n
    tau = math.pi / 2 - t  # target chord direction mod pi
    for m in range(paths.length):
        mv = paths.movers(m)
        geom = paths.geoms[m]
        ws, we = paths.window(m)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if a not in mv and b not in mv:
                    continue
                if a in mv and b in mv:
                    z = ws + geom.solve_direction(tau) * (we - ws)
                    crossings.append(_fiber_crossing_at(paths, graph, cs, a, b, z, t))
                else:
                    mover_track, other = (a, b) if a in mv else (b, a)
                    sym = "u" if mover_track == mv[0] else "v"
                    slot = paths.pos_of[m][other - 1]
                    spt = paths.placement.points[slot - 1]
                    f = geom.u if sym == "u" else geom.v
                    theta = lambda s, f=f, spt=spt: math.atan2(
                        f(s)[1] - spt[1], f(s)[0] - spt[0]
                    )
                    exts = sorted(
                        ex.s for ex in geom.extrema
                        if ex.mover == sym and ex.spectator_slot == slot
                    )
                    splits = [0.0] + exts + [1.0]
                    for s_lo, s_hi in zip(splits, splits[1:]):
                        for s_root in _solve_monotone_theta(theta, s_lo, s_hi, tau):
                            z = ws + s_root * (we - ws)
                            crossings.append(
                                _fiber_crossing_at(paths, graph, cs, a, b, z, t)
                            )
    crossings.sort(key=lambda c: c.z)
    for c1, c2 in zip(crossings, crossings[1:]):
        if c2.z - c1.z < FIBER_TOL:
            raise SingularFiberError(f"two crossings share z={c1.z:.9f}")
    return crossings


def _solve_monotone_theta(theta, s_lo: float, s_hi: float, tau: float) -> Iterator[float]:
    """Roots of theta(s) = tau (mod pi) on a monotone piece with swing < pi.
    Interior roots only; boundary hits are singular fibers, rejected upstream."""
    th1 = theta(s_lo)
    u_hi = wrap_pm_pi(theta(s_hi) - th1)
    c0 = (tau - th1) % math.pi
    for c in (c0, c0 - math.pi):
        if (0.0 < c < u_hi) or (u_hi < c < 0.0):
            yield emb.brentq(lambda s: wrap_pm_pi(theta(s) - th1) - c, s_lo, s_hi)


def _fiber_crossing_at(
    paths: StrandPathSet,
    graph: Optional[TraceGraph],
    cs: CycleStructure,
    a: int, b: int, z: float, t: float,
) -> FiberCrossing:
    pa = paths.track_position(a, z)
    pb = paths.track_position(b, z)
    over, under = (a, b) if rot_y(pa, t) > rot_y(pb, t) else (b, a)
    level = _level_of_pair(paths, a, b, z, t)
    va = _rot_x_velocity(paths, over, z, t)
    vb = _rot_x_velocity(paths, under, z, t)
    if abs(va - vb) < FIBER_TOL:
        raise SingularFiberError(f"crossing of ({a},{b}) at z={z:.9f} has no transversal sign")
    sign = 1 if va > vb else -1
    comp_pair = (cs.component_of[over - 1], cs.component_of[under - 1])
    if graph is not None:
        cid = graph.pass_circle[(over, under)]
        marking = graph.circles[cid].marking
    else:
        cid = -1
        marking = None
    return FiberCrossing(z, t, over, under, comp_pair, marking, level, sign, cid)


def _rot_x_velocity(paths: StrandPathSet, track: int, z: float, t: float) -> float:
    vx, vy = paths.track_velocity(track, z)
    return vx * math.cos(t) - vy * math.sin(t)


def read_word_at(g, t: float) -> BraidWord:
    """The braid word read off the fiber at angle t: letters are the
    (level, sign) of its crossings in z order.  At t=0 this is the input."""
    paths = _paths_of(g)
    crossings = read_fiber(g, t)
    return BraidWord(paths.n, tuple((c.level, c.sign) for c in crossings))


@dataclass(frozen=True)
class GaussDiagram:
    """Chord diagram of a fiber: marked points on the component circles paired
    by crossings; the two endpoints of a crossing carry reversed labels."""

    points: tuple[tuple[int, float, int, Marking], ...]  # (component, position, crossing, label)
    chords: tuple[tuple[int, int], ...]


def gauss_diagram(g, t: float) -> GaussDiagram:
    paths = _paths_of(g)
    cs = cycle_structure(paths.word)
    idx = component_indexing(cs)
    lengths = cs.lengths
    crossings = read_fiber(g, t)
    raw = []
    for ci, cr in enumerate(crossings):
        mk = cr.marking if cr.marking is not None else Marking(*cr.comp_pair, 0)
        for track, label in ((cr.over, mk), (cr.under, mk.reversed(lengths))):
            comp = cs.component_of[track - 1]
            position = (idx[track] + cr.z) / lengths[comp - 1]
            raw.append((comp, position, ci, label))
    order = sorted(range(len(raw)), key=lambda p: (raw[p][0], raw[p][1]))
    rank = {p: r for r, p in enumerate(order)}
    chords = []
    for ci in range(len(crossings)):
        ends = [rank[p] for p in range(len(raw)) if raw[p][2] == ci]
        chords.append((ends[0], ends[1]))
    return GaussDiagram(tuple(raw[p] for p in order), tuple(chords))
