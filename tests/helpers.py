"""Independent brute-force oracles and corpus utilities for the tests.

The cycle enumerators here deliberately use different algorithms from the
package (Johnson's blocked search on the directed double cover, and plain
edge-subset enumeration for tiny graphs) so that agreement is meaningful.
The base-point search of the isotopy decision is checked against a walk of
the full product of base offsets, the 3-braid invariants against a Burau
ball partition and random rewriting, and the relabelled 3-braid profile
against the profile of each rebuilt conjugate.  The builder's
t-displacement, the canonical JSON writer and the t+pi vertex matcher are
checked against their earlier, plainer forms: a scan of every exchange
window, a level read from every track's position, a writer that
dispatches by isinstance and a match of every vertex against every vertex.
The t+pi edge pairing of a built graph is checked against the builder's
earlier pairing of pass visits by their rank along the reversed pair.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Optional

from braidtrace import equivalence as eq
from braidtrace.embedding import GenericityError, rot_x, t_over, wrap_pm_pi
from braidtrace.levels import CYCLE_BUDGET, simple_cycles
from braidtrace.oracle import Laurent, _ball_elements, burau3, mat_key, mat_mul
from braidtrace.threebraid import TripletColumn, cyclic_invariant, minimal_rotation
from braidtrace.tracegraph import SYMMETRY_TOL
from braidtrace.words import (
    BraidWord,
    concatenate,
    free_reduce,
    invert,
    linking_number,
    random_word,
)

TWO_PI = 2.0 * math.pi


def _arc_adjacency(s):
    g = s.graph
    adj = {v: [] for v in s.vertices}
    loops = []
    selfloops = []
    for e in s.edges:
        te, he = g.edges[e].tail, g.edges[e].head
        if te is None:
            loops.append(e)
        elif te == he:
            selfloops.append(e)
        else:
            adj[te].append((e, he, 1))
            adj[he].append((e, te, -1))
    return adj, loops, selfloops


def _cls(g, edges):
    """Oriented class of a directed edge cycle, entries (edge id, +-1),
    summed in floating point from the edges' lift displacements: the
    reference for the package's integer lift-offset classes."""
    u = sum(d * g.edges[e].dz for e, d in edges)
    w = -sum(d * g.edges[e].dt for e, d in edges) / TWO_PI
    ru, rw = round(u), round(w)
    assert abs(u - ru) < 1e-6 and abs(w - rw) < 1e-6
    if ru < 0 or (ru == 0 and rw < 0):
        ru, rw = -ru, -rw
    return (ru, rw)


def johnson_cycle_classes(s) -> set[tuple[int, int]]:
    """Oriented homology classes of all simple cycles, via Johnson's blocked
    search over directed arcs (each undirected cycle is found in both
    directions; classes orient canonically so the set is unaffected)."""
    g = s.graph
    adj, loops, selfloops = _arc_adjacency(s)
    classes = {_cls(g, [(e, 1)]) for e in loops}
    classes |= {_cls(g, [(e, 1)]) for e in selfloops}

    vertices = sorted(adj)
    for idx, start in enumerate(vertices):
        allowed = set(vertices[idx:])
        blocked = {v: False for v in allowed}
        bsets = {v: set() for v in allowed}
        path = []

        def unblock(v):
            blocked[v] = False
            for w in list(bsets[v]):
                bsets[v].discard(w)
                if blocked[w]:
                    unblock(w)

        def circuit(v) -> bool:
            found = False
            blocked[v] = True
            for e, w, d in adj[v]:
                if w not in allowed:
                    continue
                if w == start:
                    if len(path) == 1 and path[0][0] == e:
                        continue  # same edge back and forth is not a cycle
                    classes.add(_cls(g, path + [(e, d)]))
                    found = True
                elif not blocked[w]:
                    path.append((e, d))
                    if circuit(w):
                        found = True
                    path.pop()
            if found:
                unblock(v)
            else:
                for e, w, d in adj[v]:
                    if w in allowed:
                        bsets[w].add(v)
            return found

        for e, w, d in adj[start]:
            if w == start or w not in allowed:
                continue
            path.append((e, d))
            circuit(w)
            path.pop()
            for v in allowed:
                blocked[v] = False
                bsets[v].clear()
    return classes


def subset_cycle_classes(s) -> set[tuple[int, int]]:
    """Homology classes of all simple cycles by checking every edge subset;
    exponential, for tiny subgraphs only."""
    g = s.graph
    plain = []
    classes = set()
    for e in s.edges:
        te, he = g.edges[e].tail, g.edges[e].head
        if te is None or te == he:
            classes.add(_cls(g, [(e, 1)]))
        else:
            plain.append(e)
    m = len(plain)
    assert m <= 20, "subset oracle is for tiny graphs"
    for mask in range(1, 1 << m):
        edges = [plain[i] for i in range(m) if mask >> i & 1]
        deg: dict[int, int] = {}
        for e in edges:
            deg[g.edges[e].tail] = deg.get(g.edges[e].tail, 0) + 1
            deg[g.edges[e].head] = deg.get(g.edges[e].head, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        if not _connected(g, edges):
            continue
        classes.add(_cls(g, _orient_cycle(g, edges)))
    return classes


def _connected(g, edges) -> bool:
    verts = {g.edges[edges[0]].tail, g.edges[edges[0]].head}
    pool = list(edges[1:])
    changed = True
    while changed and pool:
        changed = False
        for e in list(pool):
            te, he = g.edges[e].tail, g.edges[e].head
            if te in verts or he in verts:
                verts.update((te, he))
                pool.remove(e)
                changed = True
    return not pool


def _orient_cycle(g, edges):
    """Walk a degree-2 edge set into a directed traversal."""
    incident: dict[int, list[int]] = {}
    for e in edges:
        incident.setdefault(g.edges[e].tail, []).append(e)
        incident.setdefault(g.edges[e].head, []).append(e)
    e0 = edges[0]
    walk = [(e0, 1)]
    used = {e0}
    cur = g.edges[e0].head
    while len(walk) < len(edges):
        nxt = next(e for e in incident[cur] if e not in used)
        used.add(nxt)
        if g.edges[nxt].tail == cur:
            walk.append((nxt, 1))
            cur = g.edges[nxt].head
        else:
            walk.append((nxt, -1))
            cur = g.edges[nxt].tail
    return walk


def brute_maximal_class(s, attractor_class, classes=None):
    """Maximal homology class recomputed from an independent cycle sweep."""
    q, r = attractor_class
    if classes is None:
        classes = johnson_cycle_classes(s)
    nontrivial = [c for c in classes if c != (0, 0)]
    assert nontrivial

    def m_value(c):
        if r == 0:
            return Fraction(c[1])
        return Fraction(c[0], q) - Fraction(c[1], r)

    nonzero = [c for c in nontrivial if m_value(c) != 0]
    best = max(m_value(c) for c in nonzero)
    return max((c for c in nonzero if m_value(c) == best), key=lambda c: c[0])


def is_degenerate_by_enumeration(s, budget: int = CYCLE_BUDGET) -> bool:
    """Degeneracy decided over an explicit simple-cycle sweep."""
    base = None
    for cyc in simple_cycles(s, budget):
        cls = _cls(s.graph, cyc)
        if cls == (0, 0):
            continue
        if base is None:
            base = cls
        elif base[0] * cls[1] - base[1] * cls[0] != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Isotopy by the full product of base points


def isotopy_by_full_product(g1, g2) -> Optional[dict]:
    """The witness of `equivalence.isotopic`, found by walking every tuple
    of base offsets instead of propagating one anchor offset.

    Candidates (inversion, then marking shifts) come in the decision's
    order.  For each, the offset tuples of G2's circles, in sorted marking
    order, are walked lexicographically; a prefix is left as soon as one of
    its circles visits a vertex whose triplet, read at the assigned
    offsets, differs from G1's.  The first complete tuple is the
    lexicographically least, which is the decision's too: within one
    circle component every offset follows from the smallest marking's.
    """
    if (
        g1.cycles.lengths != g2.cycles.lengths
        or sorted(g1.vertex_count_per_circle().values())
        != sorted(g2.vertex_count_per_circle().values())
    ):
        return None
    tc1, tc2 = eq.trace_code(g1), eq.trace_code(g2)
    n, lengths = g1.n, g1.cycles.lengths
    for invert in (False, True):
        step = -1 if invert else 1
        if tc1.piece2 != tc2.piece2[::step] or tc1.piece3 != tc2.piece3[::step]:
            continue
        for shifts in eq._shift_assignments(eq._mixed_families(tc1, lengths)):
            piece1, free = eq._read_under(tc2, n, lengths, shifts, invert)
            if free != tc1.free_circles:
                continue
            offsets = _full_product_offsets(tc1.piece1, piece1)
            if offsets is not None:
                return {
                    "marking_shifts": {tuple(sorted(f)): s for f, s in shifts.items()},
                    "level_inversion": invert,
                    "base_offsets": offsets,
                }
    return None


def _full_product_offsets(trip1, trip2) -> Optional[dict]:
    visits1, visits2 = eq._code_visits(trip1), eq._code_visits(trip2)
    if {m: len(v) for m, v in visits1.items()} != {m: len(v) for m, v in visits2.items()}:
        return None
    order = sorted(visits1)
    offs = {}

    def holds(m, x) -> Optional[bool]:
        """Whether visit x of circle m matches; None while an offset it
        needs is unassigned."""
        v1 = visits1[m][x]
        v2 = visits2[m][(x + offs[m]) % len(visits1[m])]
        for (m1, i1, l1), (m2, i2, l2) in zip(trip1[v1], trip2[v2]):
            if m1 != m2 or l1 != l2:
                return False
            if m2 not in offs:
                return None
            if (i2 - offs[m2] - 1) % len(visits2[m2]) + 1 != i1:
                return False
        return True

    def walk(depth) -> bool:
        if depth == len(order):
            return True
        m = order[depth]
        for o in range(len(visits1[m])):
            offs[m] = o
            if all(
                holds(mm, x) is not False
                for mm in order[: depth + 1] for x in range(len(visits1[mm]))
            ) and walk(depth + 1):
                return True
        del offs[m]
        return False

    return {str(m): offs[m] for m in order} if walk(0) else None


# ---------------------------------------------------------------------------
# Burau ball partition and word rewriting (3-braid references)


def conjugacy_classes_within_ball(words, max_len: int = 8) -> list[list[int]]:
    """Partition indices of the given B_3 words into classes connected by a
    conjugator of length <= max_len.  One ball sweep per class representative."""
    mats = [burau3(w) for w in words]
    ball = [mw for _, mw in _ball_elements(max_len)]
    untouched = set(range(len(words)))
    classes = []
    while untouched:
        rep = min(untouched)
        mrep = mats[rep]
        orbit_keys = {mat_key(mat_mul(mw, mat_mul(mrep, inverse2(mw)))) for mw in ball}
        members = [i for i in untouched if mat_key(mats[i]) in orbit_keys]
        for i in members:
            untouched.discard(i)
        classes.append(members)
    return classes


def inverse2(m):
    """Inverse of a 2x2 Laurent matrix with unit determinant +-t^k."""
    a, b = m[0]
    c, d = m[1]
    det = a * d - b * c
    items = det.coeffs
    assert len(items) == 1, "burau determinant must be a monomial"
    (e, coeff), = items.items()
    assert coeff in (1, -1)
    inv_det = Laurent({-e: coeff})
    return (
        (d * inv_det, -b * inv_det),
        (-c * inv_det, a * inv_det),
    )


def rewrite_once(w: BraidWord, rng) -> BraidWord:
    """Apply one random braid-group rewriting that fixes the group element:
    far commutation, the braid relation, or insertion of a cancelling pair."""
    letters = list(w.letters)
    moves = []
    for p in range(len(letters) - 1):
        (i, si), (j, sj) = letters[p], letters[p + 1]
        if abs(i - j) >= 2:
            moves.append(("swap", p))
        if si == sj and abs(i - j) == 1 and p + 2 < len(letters):
            (k, sk) = letters[p + 2]
            if k == i and sk == si and abs(i - j) == 1:
                moves.append(("yb", p))
    for p in range(len(letters) + 1):
        moves.append(("ins", p))
    kind, p = moves[rng.randrange(len(moves))]
    if kind == "swap":
        letters[p], letters[p + 1] = letters[p + 1], letters[p]
    elif kind == "yb":
        # s_i s_j s_i -> s_j s_i s_j for |i-j| = 1, common sign
        (i, s), (j, _), _ = letters[p], letters[p + 1], letters[p + 2]
        letters[p: p + 3] = [(j, s), (i, s), (j, s)]
    else:
        g = rng.randrange(1, w.n)
        s = rng.choice((1, -1))
        letters[p:p] = [(g, s), (g, -s)]
    return BraidWord(w.n, tuple(letters))


def random_rewrite(w: BraidWord, rng, steps: int = 4) -> BraidWord:
    out = w
    for _ in range(steps):
        out = rewrite_once(out, rng)
    return out


def reconstruct_partner_column(col: TripletColumn) -> TripletColumn:
    """The column of the reversed pair, reconstructed from the t+pi symmetry:
    partner vertices keep their t-order, every marking reverses."""
    raw = tuple(
        tuple((j, i) for i, j in trip) for trip in col.raw
    )
    return TripletColumn((col.pair[1], col.pair[0]), raw, minimal_rotation(raw))


# the positive lifts 1, s1, s2, s1 s2, s2 s1, s1 s2 s1 of the permutations of
# three strands, in the order conjugate_3braids tries them
RELABEL_WORDS = (
    (),
    ((1, 1),),
    ((2, 1),),
    ((1, 1), (2, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (2, 1), (1, 1)),
)


def rebuilt_profile(p: BraidWord, rho_letters) -> tuple:
    """Linking number and canonical (1,2) column of free_reduce(rho p rho^-1),
    read from the conjugate's own reduced graph."""
    rho = BraidWord(3, rho_letters)
    cand = free_reduce(concatenate(concatenate(rho, p), invert(rho)))
    return linking_number(cand, 1, 2), cyclic_invariant(cand).canonical


def scanned_symmetry_involution(graph) -> dict[int, int]:
    """symmetry_involution as it was: every vertex matched against every
    vertex in graph order, then the same pairing and marking checks."""
    pairing = {}
    verts = list(graph.vertices.values())
    for v in verts:
        target_t = (v.t + math.pi) % TWO_PI
        match = None
        for u in verts:
            if abs(u.z - v.z) < SYMMETRY_TOL and abs(wrap_pm_pi(u.t - target_t)) < SYMMETRY_TOL:
                match = u
                break
        if match is None:
            raise GenericityError(f"vertex {v.id} has no t+pi partner within {SYMMETRY_TOL}")
        pairing[v.id] = match.id
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


def ranked_edge_partner(graph) -> dict[int, int]:
    """The t+pi edge pairing of a built graph as the builder once read it.

    The visits of one ordered track pair lie together along its circle, in
    increasing z, and the t+pi shift keeps z, so the visit of rank r of a
    pair is paired with the visit of rank r of the reversed pair; the edge
    leaving one is paired with the edge leaving the other.  Vertex-free
    circles pair their single edges."""
    leaving: dict[tuple[tuple[int, int], int], int] = {}
    ranked: list[tuple[int, tuple[int, int], int]] = []
    for c in graph.circles.values():
        rank: dict[tuple[int, int], int] = {}
        for e in c.edges:
            pair = graph.edges[e].tail_pair
            if pair is None:
                continue
            r = rank.get(pair, 0)
            rank[pair] = r + 1
            leaving[pair, r] = e
            ranked.append((e, pair, r))
    partner = {
        c.edges[0]: graph.circles[graph.circle_partner[c.id]].edges[0]
        for c in graph.circles.values()
        if graph.edges[c.edges[0]].tail is None
    }
    for e, (a, b), r in ranked:
        partner[e] = leaving[(b, a), r]
    return partner


def golden_words():
    """The seeded B2-B6 words whose builds the golden hashes pin."""
    rng = random.Random(20261018)
    words = [BraidWord(n) for n in range(2, 7)]
    for n in range(2, 7):
        for l in (1, 2, 4, 8, 12, 16, 24):
            for _ in range(2):
                words.append(random_word(n, l, rng))
    return words


def wide_words():
    """Seeded B7 and B8 words: most exchange windows move neither track of a
    given pair."""
    rng = random.Random(808)
    return [random_word(n, l, rng) for n in (7, 8) for l in (3, 8, 16) for _ in range(2)]


def full_scan_delta_t(paths, orbit, w1: float, w2: float) -> float:
    """The t-displacement along a circle between walk coordinates w1 <= w2,
    scanning every exchange window near each pass (the builder visits only
    the windows where one of the pair's tracks moves)."""
    l = paths.length
    if l == 0 or w1 >= w2:
        return 0.0
    total = 0.0
    for p in range(int(w1), min(int(math.ceil(w2)), len(orbit))):
        a, b = orbit[p]
        lo = max(w1 - p, 0.0)
        hi = min(w2 - p, 1.0)
        if lo >= hi:
            continue
        m_lo = max(0, int(lo * l) - 1)
        m_hi = min(l, int(hi * l) + 2)
        for m in range(m_lo, m_hi):
            ws, we = paths.window(m)
            if we <= lo or ws >= hi:
                continue
            mv = paths.movers(m)
            if a not in mv and b not in mv:
                continue
            s1 = max((max(lo, ws) - ws) / (we - ws), 0.0)
            s2 = min((min(hi, we) - ws) / (we - ws), 1.0)
            geom = paths.geoms[m]
            if a in mv and b in mv:
                total += geom.moving_pair_delta_t(s1, s2)
            else:
                mover_track, other = (a, b) if a in mv else (b, a)
                sym = "u" if mover_track == mv[0] else "v"
                spt = paths.placement.points[paths.pos_of[m][other - 1] - 1]
                total += _mover_spectator_delta_t(geom, sym, spt, s1, s2)
    return total


def _mover_spectator_delta_t(geom, mover: str, slot_pt, s1: float, s2: float) -> float:
    f = geom.u if mover == "u" else geom.v
    p1, p2 = f(s1), f(s2)
    th1 = math.atan2(p1[1] - slot_pt[1], p1[0] - slot_pt[0])
    th2 = math.atan2(p2[1] - slot_pt[1], p2[0] - slot_pt[0])
    return -wrap_pm_pi(th2 - th1)


def scanned_level(paths, a: int, b: int, z: float) -> int:
    """The level of the crossing of tracks a, b at height z in the pair's
    over-lift frame, scanning every track's position."""
    pa, pb = paths.track_position(a, z), paths.track_position(b, z)
    t = t_over(pa, pb)
    xa = rot_x(pa, t)
    others = (tr for tr in range(1, paths.n + 1) if tr not in (a, b))
    return 1 + sum(rot_x(paths.track_position(tr, z), t) < xa for tr in others)


def reference_fmt(value) -> str:
    """The canonical JSON writer dispatching by isinstance, one json.dumps
    per string and per key."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_fmt(x) for x in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(k)}:{reference_fmt(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialise {type(value)}")
