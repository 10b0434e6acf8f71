"""Level subgraphs, right attractors, and homology of their cycles.

A level subgraph is trivalent: at each of its vertices one edge goes down
and two go up, or vice versa.  Orienting all edges upward, the walk that
always leaves a two-up vertex through the end on the smaller-t side (the
right side once the torus is drawn with its horizontal axis opposite to
the time circle) is eventually periodic; its limit cycles are the right
attractors.  Homology classes live in Z^2 as (vertical winding, winding
opposite to the time circle) = (sum dz, -sum dt / 2pi).

Every class is read from the level's integer lift offsets, computed once
by `level_subgraph`: a spanning forest's (z, t) potentials lift each
vertex to the Z^2 cover, an edge's offset is the class of its lift, and
the class of any cycle is the signed sum of its edges' offsets.
Attractors, degeneracy, the class polygon and the reference cycle search
all sum those integers.

Maximal classes are read from a polygon, not from a cycle enumeration.
A unit circulation of a level is an integer flow with values in
{-1, 0, 1} and conservation at every vertex; its class is the signed sum
of its edges' lift offsets, and P is the convex, centrally symmetric
polygon of the classes of real circulations bounded by 1 on every edge.

1. At a trivalent vertex a unit circulation uses 0 or 2 edges, so it is
   a vertex-disjoint union of oriented simple cycles (closed loops and
   self loops are free +-1 components).
2. Disjoint essential simple curves on the torus are parallel, so a unit
   circulation whose class c is primitive contains a simple cycle of
   class c; a simple cycle's own class is primitive or 0.
3. The incidence matrix is totally unimodular, so P has integral
   vertices, and every lattice point of P is the class of a unit
   circulation (face potentials on a cellular supergraph obey difference
   constraints with integer bounds).

So the non-trivial simple-cycle classes, oriented canonically, are
exactly the canonical primitive lattice points of P.  P itself comes from
max-gain unit circulations, a polynomial support oracle; circulations
with homology constraints on surface graphs are studied by Chambers,
Erickson and Nayyeri, "Homology flows, cohomology cuts", SIAM J. Comput.
41 (2012).

The simple-cycle enumeration (`simple_cycles`, `cycle_classes`, its
`CYCLE_BUDGET` and `CycleBudgetError`) is only the tests' reference.  It
stays in this module because the benchmark under `perfbench/` binds those
names: its tracer wraps both searches and counts the listed cycles and
the budget errors.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .tracegraph import TraceGraph

TWO_PI = 2.0 * math.pi

CYCLE_BUDGET = 10**6


class CycleBudgetError(RuntimeError):
    pass


class DegenerateSubgraphError(ValueError):
    pass


HomologyClass = tuple[int, int]


@dataclass(frozen=True)
class LevelSubgraph:
    level: int
    graph: TraceGraph
    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    down_of: dict  # vertex -> tuple of level-k edges descending from it, increasing t
    up_of: dict    # vertex -> tuple of level-k edges rising from it, increasing t
    loops: tuple[int, ...]  # closed-loop edges (vertex-free circles) of this level
    offsets: dict  # edge -> integer lift offset, for every edge off the spanning forest

    @cached_property
    def attractors(self) -> tuple["RightAttractor", ...]:
        """`right_attractors` of this level, computed once."""
        return tuple(right_attractors(self))


@dataclass(frozen=True)
class RightAttractor:
    edges: tuple[int, ...]  # cyclic, all traversed upward
    homology: HomologyClass


def level_subgraph(g: TraceGraph, k: int) -> LevelSubgraph:
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"level {k} out of range 1..{g.n - 1}")
    edges = tuple(sorted(e.id for e in g.edges.values() if e.level == k))
    eset = set(edges)
    down_of = {}
    up_of = {}
    vertices = []
    for v in g.vertices.values():
        down = tuple(e for e in v.below if e in eset)
        up = tuple(e for e in v.above if e in eset)
        if not down and not up:
            continue
        if len(down) + len(up) != 3 or not (len(down) in (1, 2)):
            raise ValueError(
                f"vertex {v.id} violates trivalence in level {k}: "
                f"{len(down)} down, {len(up)} up"
            )
        vertices.append(v.id)
        down_of[v.id] = down
        up_of[v.id] = up
    loops = tuple(e for e in edges if g.edges[e].tail is None)
    return LevelSubgraph(
        k, g, edges, tuple(vertices), down_of, up_of, loops,
        _lift_offsets(g, edges, vertices),
    )


def _lift_offsets(
    g: TraceGraph, edges: tuple[int, ...], vertices: list[int]
) -> dict[int, HomologyClass]:
    """Integer lift offsets of the edges that leave a spanning forest of a
    level subgraph (closed loops and self loops included).

    The forest's (z, t) potentials fix a lift of every vertex to the Z^2
    cover; an edge's offset is the class of its lift from its tail's lift
    to its head's.  Forest edges have offset (0, 0) and are left out, the
    others' offsets are the classes of their fundamental cycles, and the
    class of any cycle is the signed sum of its edges' offsets."""
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in vertices}
    for e in edges:
        te, he = g.edges[e].tail, g.edges[e].head
        if te is not None and te != he:
            adj[te].append((e, he, 1))
            adj[he].append((e, te, -1))
    pot: dict[int, tuple[float, float]] = {}
    in_tree: set[int] = set()
    for start in vertices:
        if start in pot:
            continue
        pot[start] = (0.0, 0.0)
        stack = [start]
        while stack:
            v = stack.pop()
            for e, other, d in adj[v]:
                if other in pot or e in in_tree:
                    continue
                edge = g.edges[e]
                pot[other] = (pot[v][0] + d * edge.dz, pot[v][1] + d * edge.dt)
                in_tree.add(e)
                stack.append(other)
    offsets: dict[int, HomologyClass] = {}
    for e in edges:
        if e in in_tree:
            continue
        edge = g.edges[e]
        z, t = edge.dz, edge.dt
        if edge.tail is not None:
            z += pot[edge.tail][0] - pot[edge.head][0]
            t += pot[edge.tail][1] - pot[edge.head][1]
        u, w = z, -t / TWO_PI
        ru, rw = round(u), round(w)
        assert abs(u - ru) < 1e-6 and abs(w - rw) < 1e-6, "cycle class is not integral"
        offsets[e] = (ru, rw)
    return offsets


def right_attractors(s: LevelSubgraph) -> list[RightAttractor]:
    """All limit cycles of the deterministic upward walk, plus every
    vertex-free circle of the level; pairwise disjoint, vertical winding > 0."""
    g = s.graph

    def successor(e: int) -> int:
        head = g.edges[e].head
        ups = s.up_of[head]
        # v.above is ordered by increasing local t; right = smaller t
        return ups[0]

    attractors = []
    seen_cycle_edges = set()
    state: dict[int, int] = {}  # 0 in progress, 1 done
    for start in s.edges:
        if g.edges[start].tail is None or start in state:
            continue
        path = []
        pos = {}
        e = start
        while e not in state and e not in pos:
            pos[e] = len(path)
            path.append(e)
            e = successor(e)
        if e in pos:  # new limit cycle
            cyc = path[pos[e]:]
            m = cyc.index(min(cyc))
            cyc = cyc[m:] + cyc[:m]
            offsets = [s.offsets.get(x, (0, 0)) for x in cyc]
            cls = (sum(u for u, _ in offsets), sum(w for _, w in offsets))
            assert cls[0] > 0, "attractor must wind positively in z"
            assert not seen_cycle_edges & set(cyc)
            seen_cycle_edges.update(cyc)
            attractors.append(RightAttractor(tuple(cyc), cls))
        for x in path:
            state[x] = 1
    for e in s.loops:
        cls = s.offsets[e]
        assert cls[0] > 0
        attractors.append(RightAttractor((e,), cls))
    attractors.sort(key=lambda a: a.edges)
    return attractors


def simple_cycles(
    s: LevelSubgraph, budget: int = CYCLE_BUDGET
) -> list[list[tuple[int, int]]]:
    """All simple cycles of the level subgraph as directed edge lists
    (edge id, +1 upward / -1 downward), each listed once; the
    (budget + 1)-th cycle raises CycleBudgetError.

    Closed loops and self loops come first, in edge order.  Every other
    cycle comes from a DFS rooted at its smallest vertex that leaves the
    root through one edge and closes only through an edge of larger id, so
    each cycle is walked in one direction and a root's last edge starts no
    walk.  Exponential in the worst case; only the tests call it, as the
    reference enumeration."""
    g = s.graph
    found: list[list[tuple[int, int]]] = []

    def emit(cycle: list[tuple[int, int]]) -> None:
        if len(found) == budget:
            raise CycleBudgetError(f"cycle enumeration exceeded budget {budget}")
        found.append(cycle)

    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in s.vertices}
    for e in s.edges:
        te, he = g.edges[e].tail, g.edges[e].head
        if te is None or te == he:
            emit([(e, 1)])
        else:
            adj[te].append((e, he, 1))
            adj[he].append((e, te, -1))

    path: list[tuple[int, int]] = []
    visited: set[int] = set()

    def dfs(root: int, first: int, v: int) -> None:
        for e, other, d in adj[v]:
            if other == root:
                if e > first:
                    emit(path + [(e, d)])
            elif other > root and other not in visited:
                visited.add(other)
                path.append((e, d))
                dfs(root, first, other)
                path.pop()
                visited.remove(other)

    for root in sorted(adj):
        starts = [a for a in adj[root] if a[1] > root]
        for first, other, d in starts[:-1]:
            visited = {root, other}
            path = [(first, d)]
            dfs(root, first, other)
    return found


def cycle_classes(s: LevelSubgraph, budget: int = CYCLE_BUDGET) -> set[HomologyClass]:
    """Homology classes of all simple cycles, oriented canonically; the class
    (0,0) marks trivial cycles (they bound discs in the torus).  Each
    `simple_cycles` cycle's class is the signed sum of its edges' lift
    offsets.  The tests' reference for `simple_cycle_classes`, which the
    decision reads instead."""
    out: set[HomologyClass] = set()
    for cycle in simple_cycles(s, budget):
        u = w = 0
        for e, d in cycle:
            du, dw = s.offsets.get(e, (0, 0))
            u += d * du
            w += d * dw
        out.add((u, w) if (u, w) >= (0, 0) else (-u, -w))
    return out


def is_degenerate(s: LevelSubgraph) -> bool:
    """True when all non-trivial cycle classes are pairwise dependent.

    Decided from the lift offsets, the classes of the fundamental cycles of
    a spanning forest and of the closed loops and self loops: these are
    simple cycles themselves and span the class lattice, so the simple-cycle
    classes have rank >= 2 exactly when the offsets do."""
    base: Optional[HomologyClass] = None
    for cls in s.offsets.values():
        if cls == (0, 0):
            continue
        if base is None:
            base = cls
        elif base[0] * cls[1] - base[1] * cls[0] != 0:
            return False
    return True


def _max_circulation(
    adj: list[list[tuple[int, int, int]]], gains: list[int], flow: list[int]
) -> None:
    """Raise `flow` in place to a unit circulation of maximum gain.

    adj[v] lists (edge, other end, +1 from the edge's tail or -1 from its
    head); an edge can take one more unit in direction d while
    d * flow[edge] < 1, at gain d * gains[edge].  Cycle cancelling from
    the given circulation: a label-correcting Bellman-Ford search for a
    positive residual cycle, one unit pushed around each cycle found.  A
    relaxation of v -> w when w is an ancestor of v closes a positive
    cycle (each label is at most its parent's plus the arc gain), so the
    predecessor chain is walked on every relaxation and the cycle is taken
    the moment it appears; the chain stays a forest, whose labels are
    bounded, so the search ends when no positive cycle is left."""
    nv = len(adj)
    while True:
        dist = [0] * nv
        pred: list[Optional[tuple[int, int, int]]] = [None] * nv
        queued = [True] * nv
        queue = deque(range(nv))
        cycle = None
        while queue and cycle is None:
            v = queue.popleft()
            queued[v] = False
            dv = dist[v]
            for e, w, d in adj[v]:
                if d * flow[e] == 1:
                    continue
                nd = dv + d * gains[e]
                if nd <= dist[w]:
                    continue
                x = v
                while x != w and pred[x] is not None:
                    x = pred[x][0]
                if x == w:
                    cycle = [(e, d)]
                    x = v
                    while x != w:
                        x, e2, d2 = pred[x]
                        cycle.append((e2, d2))
                    break
                dist[w] = nd
                pred[w] = (v, e, d)
                if not queued[w]:
                    queued[w] = True
                    queue.append(w)
        if cycle is None:
            return
        for e, d in cycle:
            flow[e] += d


def _cross(o: HomologyClass, a: HomologyClass, b: HomologyClass) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _class_polygon(s: LevelSubgraph) -> list[HomologyClass]:
    """Vertices of the class polygon P of the level, counterclockwise (one
    or two points when P is a point or a segment).

    The support oracle sigma(y) is the class of a max-gain unit
    circulation for the integer gains <y, offset_e>, warm-started from the
    previous optimum.  The arc of P's boundary from sigma(1,0) through
    sigma(0,1) to -sigma(1,0) is gift-wrapped: a chord is refined along
    its outward normal until the oracle finds nothing beyond it.  P is
    centrally symmetric, so that arc and its mirror image span it."""
    g = s.graph
    index = {v: i for i, v in enumerate(s.vertices)}
    adj: list[list[tuple[int, int, int]]] = [[] for _ in s.vertices]
    arcs: list[HomologyClass] = []  # offsets of the edges between vertices
    free: list[HomologyClass] = []  # offsets of closed loops and self loops
    for e in s.edges:
        te, he = g.edges[e].tail, g.edges[e].head
        off = s.offsets.get(e, (0, 0))
        if te is None or te == he:
            free.append(off)
        else:
            adj[index[te]].append((len(arcs), index[he], 1))
            adj[index[he]].append((len(arcs), index[te], -1))
            arcs.append(off)
    flow = [0] * len(arcs)

    def support(y: HomologyClass) -> HomologyClass:
        _max_circulation(adj, [y[0] * u + y[1] * w for u, w in arcs], flow)
        u = sum(f * c[0] for f, c in zip(flow, arcs))
        w = sum(f * c[1] for f, c in zip(flow, arcs))
        for cu, cw in free:
            gain = y[0] * cu + y[1] * cw
            if gain:
                d = 1 if gain > 0 else -1
                u, w = u + d * cu, w + d * cw
        return (u, w)

    a = support((1, 0))
    chain = [a]
    todo = [(-a[0], -a[1]), support((0, 1))]
    while todo:
        p, b = chain[-1], todo[-1]
        normal = (b[1] - p[1], p[0] - b[0])
        c = support(normal) if b != p else p
        if normal[0] * (c[0] - p[0]) + normal[1] * (c[1] - p[1]) > 0:
            todo.append(c)
        else:
            chain.append(todo.pop())
    points = sorted(set(chain) | {(-u, -w) for u, w in chain})
    if len(points) <= 2:
        return points

    def half(seq) -> list[HomologyClass]:
        out: list[HomologyClass] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(points)[:-1] + half(reversed(points))[:-1]


def simple_cycle_classes(s: LevelSubgraph) -> set[HomologyClass]:
    """Homology classes of the non-trivial simple cycles, oriented
    canonically (u > 0, or u = 0 and w > 0): the canonical primitive
    lattice points of the class polygon (see the module docstring)."""
    poly = _class_polygon(s)
    top_u = max(u for u, _ in poly)
    top_w = max(abs(w) for _, w in poly)
    sides = list(zip(poly, poly[1:] + poly[:1]))
    out = set()
    for u in range(top_u + 1):
        lo, hi = -top_w, top_w
        for (au, aw), (bu, bw) in sides:
            # inside or on the side: du * (w - aw) >= dw * (u - au)
            du, dw = bu - au, bw - aw
            r = dw * (u - au)
            if du > 0:
                lo = max(lo, aw - (-r // du))
            elif du < 0:
                hi = min(hi, aw + r // du)
            elif r > 0:
                hi = lo - 1
        if u == 0:
            lo = max(lo, 1)
        for w in range(lo, hi + 1):
            if math.gcd(u, w) == 1:
                out.add((u, w))
    return out


def maximal_class(s: LevelSubgraph, attractor_class: HomologyClass) -> HomologyClass:
    """The maximal homology class of a non-degenerate level subgraph: among
    non-trivial cycle classes, maximise M = u/q - w/r (M = w when r = 0),
    breaking ties by the vertical number u.  M is compared exactly, by
    integers: M * q * |r| = (u*r - w*q) * sign(r), and q > 0.

    The classes are `simple_cycle_classes`, the canonical primitive
    lattice points of the level's class polygon: a unit circulation is a
    disjoint union of simple cycles, disjoint essential cycles on the
    torus are parallel, and the polygon's lattice points are all classes
    of unit circulations (module docstring; Chambers, Erickson and
    Nayyeri 2012).

    Some class has M != 0: the attractor class has M = 0, so M = 0 is the
    line through it, and a non-degenerate level has a class off that line."""
    if is_degenerate(s):
        raise DegenerateSubgraphError("degenerate level subgraph has no maximal class")
    q, r = attractor_class
    assert q > 0

    def m_key(c: HomologyClass) -> int:
        u, w = c
        if r == 0:
            return w
        return (u * r - w * q) if r > 0 else (w * q - u * r)

    keyed = [(m_key(c), c[0], c) for c in simple_cycle_classes(s)]
    return max(k for k in keyed if k[0] != 0)[2]


def attractor_profile(levels: list[LevelSubgraph]) -> dict[int, tuple[HomologyClass, ...]]:
    """Sorted attractor classes per level (the trace code's second piece)."""
    return {s.level: tuple(sorted(a.homology for a in s.attractors)) for s in levels}


def maximal_profile(levels: list[LevelSubgraph]) -> dict[int, Optional[HomologyClass]]:
    """Maximal class per level; None marks a degenerate level (the trace
    code's third piece omits those)."""
    out = {}
    for s in levels:
        if is_degenerate(s):
            out[s.level] = None
        else:
            attractor = min(a.homology for a in s.attractors)
            out[s.level] = maximal_class(s, attractor)
    return out
