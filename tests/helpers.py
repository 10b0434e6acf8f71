"""Independent brute-force oracles and corpus utilities for the tests.

The reduced Burau representation is faithful on B_3, so matrix equality
decides the word problem there exactly, with exact integer Laurent
polynomials and no floating point.  It is the tests' reference for the
package's B_3 normal form (`oracle._element_key`) and for the ball and
conjugator search built on it (`burau_ball`, `burau_conjugator_search`).

The cycle enumerators here deliberately use different algorithms from the
package (Johnson's blocked search on the directed double cover, and plain
edge-subset enumeration for tiny graphs) so that agreement is meaningful.
The base-point search of the isotopy decision is checked against a walk of
the full product of base offsets, the 3-braid invariants against a Burau
ball partition, random rewriting and a screen of cheap conjugacy
invariants (exponent sum, cycle type, linking numbers, Burau
characteristic polynomial), and the relabelled 3-braid profile
against the profile of each rebuilt conjugate.  The builder's
t-displacement, the canonical JSON writer and the t+pi vertex matcher are
checked against their earlier, plainer forms: a scan of every exchange
window, a level read from every track's position, a writer that
dispatches by isinstance and a match of every vertex against every vertex.
The fiber reader's per-letter tiles are checked against its earlier
per-pair solve, which read each crossing from track positions and
velocities.
The t+pi edge pairing of a built graph is checked against the builder's
earlier pairing of pass visits by their rank along the reversed pair.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from braidtrace import equivalence as eq
from braidtrace.embedding import GenericityError, rot_x, rot_y, t_over, wrap_pm_pi
from braidtrace.levels import CYCLE_BUDGET, simple_cycles
from braidtrace.threebraid import TripletColumn, cyclic_invariant, minimal_rotation
from braidtrace.tracegraph import (
    FIBER_TOL,
    SYMMETRY_TOL,
    FiberCrossing,
    SingularFiberError,
    _solve_monotone_theta,
    _x_rank,
    singular_t_values,
)
from braidtrace.words import (
    BraidWord,
    concatenate,
    cycle_structure,
    exponent_sum,
    free_reduce,
    invert,
    linking_number,
    random_word,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Laurent polynomials over Z in one variable


class Laurent:
    """Integer Laurent polynomial, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @staticmethod
    def const(c: int) -> "Laurent":
        return Laurent({0: c})

    @staticmethod
    def var(power: int = 1, coeff: int = 1) -> "Laurent":
        return Laurent({power: coeff})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def key(self) -> tuple:
        return tuple(sorted(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{e}")
        return " + ".join(terms)


_ZERO = Laurent()
_ONE = Laurent.const(1)


Matrix = tuple[tuple[Laurent, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(a)
    return tuple(
        tuple(
            sum((a[i][m] * b[m][j] for m in range(k)), _ZERO)
            for j in range(k)
        )
        for i in range(k)
    )


def mat_key(a: Matrix) -> tuple:
    return tuple(entry.key() for row in a for entry in row)


def identity_matrix(k: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(k)) for i in range(k)
    )


# ---------------------------------------------------------------------------
# Reduced Burau for B_3 (faithful)


def _burau3_generators() -> dict[tuple[int, int], Matrix]:
    t = Laurent.var(1)
    tinv = Laurent.var(-1)
    s1 = ((-t, _ONE), (_ZERO, _ONE))
    s2 = ((_ONE, _ZERO), (t, -t))
    s1i = ((-tinv, tinv), (_ZERO, _ONE))
    s2i = ((_ONE, _ZERO), (_ONE, -tinv))
    return {(1, 1): s1, (2, 1): s2, (1, -1): s1i, (2, -1): s2i}


_B3_GENS = _burau3_generators()


def burau3(w: BraidWord) -> Matrix:
    """Reduced Burau matrix of a 3-braid; equality decides the word problem."""
    if w.n != 3:
        raise ValueError(f"burau3 needs n=3, got n={w.n}")
    m = identity_matrix(2)
    for letter in w.letters:
        m = mat_mul(m, _B3_GENS[letter])
    return m


# ---------------------------------------------------------------------------
# Conjugator search in B_3 over the Burau ball

_B3_ALPHABET = ((1, 1), (1, -1), (2, 1), (2, -1))


def burau_ball(max_len: int) -> Iterator[tuple[tuple[tuple[int, int], ...], Matrix]]:
    """Distinct B_3 elements with a shortest(ish) representative word, by BFS.

    Deduplicates on the Burau matrix, which is exact by faithfulness.
    Yields in order of word length, ties broken lexicographically.
    """
    ident = identity_matrix(2)
    seen = {mat_key(ident)}
    frontier: list[tuple[tuple[tuple[int, int], ...], Matrix]] = [((), ident)]
    yield (), ident
    for _ in range(max_len):
        nxt = []
        for word, mat in frontier:
            for letter in _B3_ALPHABET:
                if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
                    continue
                m2 = mat_mul(mat, _B3_GENS[letter])
                key = mat_key(m2)
                if key in seen:
                    continue
                seen.add(key)
                entry = (word + (letter,), m2)
                nxt.append(entry)
                yield entry
        frontier = nxt


def burau_conjugator_search(a: BraidWord, b: BraidWord, max_len: int = 8) -> Optional[BraidWord]:
    """First w (by length, then lexicographic) with w a w^-1 = b in B_3.

    Returns None when no witness exists up to max_len; that means
    "unknown", never "not conjugate".
    """
    if a.n != 3 or b.n != 3:
        raise ValueError("conjugator search is implemented for B_3 only")
    ma, mb = burau3(a), burau3(b)
    for word, mw in burau_ball(max_len):
        # w a w^-1 = b  <=>  w a = b w
        if mat_mul(mw, ma) == mat_mul(mb, mw):
            return BraidWord(3, word)
    return None


# ---------------------------------------------------------------------------
# Cycle enumeration references


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
# Invariant screen: cheap conjugacy invariants, necessary but not sufficient


def burau_unreduced(w: BraidWord) -> Matrix:
    """Unreduced Burau matrix (n x n); a conjugacy-invariant container for n >= 4."""
    t = Laurent.var(1)
    tinv = Laurent.var(-1)
    m = identity_matrix(w.n)
    for i, sign in w.letters:
        g = [[_ONE if a == b else _ZERO for b in range(w.n)] for a in range(w.n)]
        r = i - 1
        if sign > 0:
            g[r][r] = _ONE - t
            g[r][r + 1] = t
            g[r + 1][r] = _ONE
            g[r + 1][r + 1] = _ZERO
        else:
            g[r][r] = _ZERO
            g[r][r + 1] = _ONE
            g[r + 1][r] = tinv
            g[r + 1][r + 1] = _ONE - tinv
        m = mat_mul(m, tuple(tuple(row) for row in g))
    return m


def char_poly(m: Matrix) -> tuple[Laurent, ...]:
    """Coefficients of det(xI - M), degree 0..k, each a Laurent polynomial.

    Cofactor expansion with memoisation on column subsets; fine for k <= 6.
    """
    k = len(m)

    def padd(a, b):
        n = max(len(a), len(b))
        a = list(a) + [_ZERO] * (n - len(a))
        b = list(b) + [_ZERO] * (n - len(b))
        return tuple(x + y for x, y in zip(a, b))

    def pscale(a, c: Laurent):
        return tuple(x * c for x in a)

    @lru_cache(maxsize=None)
    def minor_det(rows: tuple[int, ...], cols: tuple[int, ...]):
        # determinant of the (xI - M) minor, as x-poly with Laurent coefficients
        if not rows:
            return (_ONE,)
        r = rows[0]
        acc: tuple = (_ZERO,)
        for pos, c in enumerate(cols):
            entry_poly = (-m[r][c], _ONE) if r == c else (-m[r][c],)
            sub = minor_det(rows[1:], cols[:pos] + cols[pos + 1:])
            term: tuple = (_ZERO,)
            for d, coeff in enumerate(entry_poly):
                if coeff:
                    term = padd(term, (_ZERO,) * d + tuple(pscale(sub, coeff)))
            if pos % 2 == 1:
                term = pscale(term, Laurent.const(-1))
            acc = padd(acc, term)
        return acc

    idx = tuple(range(k))
    out = minor_det(idx, idx)
    return tuple(out) + (_ZERO,) * (k + 1 - len(out))


@dataclass(frozen=True)
class InvariantScreen:
    """Cheap conjugacy invariants; equal for conjugate braids, labelled non-conclusive.

    Conjugation may relabel the closure components, so linking_numbers is
    not listed by component label: the components are put in order of
    increasing cycle length (the order of cycle_type), and of the orders
    that do so the one giving the lexicographically least tuple
    (lk_12, lk_13, ..., lk_1c, lk_23, ..., lk_(c-1)c) is kept.  Components of
    different lengths are therefore never exchanged.
    """

    exponent_sum: int
    cycle_type: tuple[int, ...]
    linking_numbers: tuple[int, ...]
    burau_char_poly: tuple[tuple, ...]


def _canonical_linking_numbers(w: BraidWord) -> tuple[int, ...]:
    """Pairwise linking numbers in the relabel-invariant order described on
    InvariantScreen."""
    cs = cycle_structure(w)
    labels = range(1, cs.num_components + 1)
    lk = {}
    for i, j in itertools.combinations(labels, 2):
        lk[i, j] = lk[j, i] = linking_number(w, i, j)
    by_length = sorted(cs.lengths)
    return min(
        tuple(lk[a, b] for a, b in itertools.combinations(order, 2))
        for order in itertools.permutations(labels)
        if [cs.lengths[c - 1] for c in order] == by_length
    )


def invariant_screen(w: BraidWord) -> InvariantScreen:
    """Exponent sum, cycle type, canonical linking numbers and the
    characteristic polynomial of the Burau matrix."""
    cs = cycle_structure(w)
    mat = burau3(w) if w.n == 3 else burau_unreduced(w)
    cp = tuple(c.key() for c in char_poly(mat))
    return InvariantScreen(
        exponent_sum(w), tuple(sorted(cs.lengths)), _canonical_linking_numbers(w), cp
    )


# ---------------------------------------------------------------------------
# Burau ball partition and word rewriting (3-braid references)


@lru_cache(maxsize=None)
def _burau_ball_with_inverses(max_len: int) -> tuple[tuple[Matrix, Matrix], ...]:
    """The Burau ball's matrices, each with its inverse, built once per depth."""
    return tuple((mw, inverse2(mw)) for _, mw in burau_ball(max_len))


def conjugacy_classes_within_ball(words, max_len: int = 8) -> list[list[int]]:
    """Partition indices of the given B_3 words into classes connected by a
    conjugator of length <= max_len.  One ball sweep per class representative."""
    mats = [burau3(w) for w in words]
    ball = _burau_ball_with_inverses(max_len)
    untouched = set(range(len(words)))
    classes = []
    while untouched:
        rep = min(untouched)
        mrep = mats[rep]
        orbit_keys = {mat_key(mat_mul(mw, mat_mul(mrep, inv))) for mw, inv in ball}
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


_PURE_BLOCKS = (((1, 1), (1, 1)), ((2, 1), (2, 1)), ((1, -1), (1, -1)), ((2, -1), (2, -1)))


def pure_word_of_length(l, seed) -> BraidWord:
    """A seeded pure 3-braid word of length l (l even) made of the squares
    s1^2, s2^2, s1^-2 and s2^-2, no square next to its inverse: the words
    of criterion 10."""
    rng = random.Random(seed)
    letters = []
    prev = None
    while len(letters) < l:
        b = rng.randrange(4)
        (i, s), _ = _PURE_BLOCKS[b]
        if prev is not None and _PURE_BLOCKS[prev][0] == (i, -s):
            continue
        letters.extend(_PURE_BLOCKS[b])
        prev = b
    return BraidWord(3, tuple(letters))


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
    """The t-displacement along a circle between walk coordinates w1 <= w2
    (walk = pass index + z), summed over every exchange window near each
    pass in increasing m.  The builder reads each edge's dt from the ends
    of the windows that hold its two visits."""
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
                total += moving_pair_delta_t(geom, s1, s2)
            else:
                mover_track, other = (a, b) if a in mv else (b, a)
                sym = "u" if mover_track == mv[0] else "v"
                spt = paths.placement.points[paths.pos_of[m][other - 1] - 1]
                total += _mover_spectator_delta_t(geom, sym, spt, s1, s2)
    return total


def moving_pair_delta_t(geom, s1: float, s2: float) -> float:
    """Exact t-displacement of the moving-pair curve of a letter over
    [s1, s2]: minus the turn of `eta`, which runs from 0 to -sign*pi."""
    if s1 == 0.0 and s2 == 1.0:
        return geom.sign * math.pi
    e1 = geom.eta(s1) if s1 > 0.0 else 0.0
    e2 = geom.eta(s2) if s2 < 1.0 else -geom.sign * math.pi
    return -(e2 - e1)


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


def reference_read_fiber(g, t: float):
    """`tracegraph.read_fiber` as it solved each fiber before the per-letter
    fiber tiles: every track pair of every letter, its roots solved on each
    call, and every crossing's over strand, level and sign read from the
    track positions and velocities at its z."""
    paths = g.paths
    if paths is None:
        raise ValueError("graph was built without strand paths")
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
                    crossings.append(_reference_crossing_at(g, cs, a, b, z, t))
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
                            crossings.append(_reference_crossing_at(g, cs, a, b, z, t))
    crossings.sort(key=lambda c: c.z)
    for c1, c2 in zip(crossings, crossings[1:]):
        if c2.z - c1.z < FIBER_TOL:
            raise SingularFiberError(f"two crossings share z={c1.z:.9f}")
    return crossings


def _reference_crossing_at(g, cs, a: int, b: int, z: float, t: float) -> FiberCrossing:
    paths = g.paths
    pa = paths.track_position(a, z)
    pb = paths.track_position(b, z)
    over, under = (a, b) if rot_y(pa, t) > rot_y(pb, t) else (b, a)
    pos = paths.positions_at(z)
    level = _x_rank(pos, a - 1, b - 1, t)
    if level is None:
        raise GenericityError(f"level sample at z={z} hits a collinearity for pair ({a},{b})")
    va = _rot_x_velocity(paths, over, z, t)
    vb = _rot_x_velocity(paths, under, z, t)
    if abs(va - vb) < FIBER_TOL:
        raise SingularFiberError(f"crossing of ({a},{b}) at z={z:.9f} has no transversal sign")
    sign = 1 if va > vb else -1
    comp_pair = (cs.component_of[over - 1], cs.component_of[under - 1])
    cid = g.pass_circle[(over, under)]
    return FiberCrossing(z, t, over, under, comp_pair, g.circles[cid].marking, level, sign, cid)


def _rot_x_velocity(paths, track: int, z: float, t: float) -> float:
    vx, vy = _track_velocity(paths, track, z)
    return vx * math.cos(t) - vy * math.sin(t)


def _track_velocity(paths, track: int, z: float) -> tuple[float, float]:
    """d(position)/dz; scaled by 3l inside exchange windows."""
    l = paths.length
    if l == 0:
        return (0.0, 0.0)
    z = z % 1.0
    m = min(int(z * l), l - 1)
    frac = z * l - m
    if frac < 1 / 3 or frac >= 2 / 3:
        return (0.0, 0.0)
    pos = paths.pos_of[m][track - 1]
    i = paths.word.letters[m][0]
    s = 3 * frac - 1
    scale = 3 * l
    if pos == i:
        vx, vy = paths.geoms[m].u_velocity(s)
    elif pos == i + 1:
        vx, vy = paths.geoms[m].v_velocity(s)
    else:
        return (0.0, 0.0)
    return (vx * scale, vy * scale)
