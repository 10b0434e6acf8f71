"""Independent ground truth at desk scale.

The reduced Burau representation is faithful on B_3, so matrix equality
decides the word problem there exactly; a breadth-first conjugator search
on top of it gives a semi-decision for conjugacy.  Everything here uses
exact integer Laurent polynomials, no floating point.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .words import BraidWord, cycle_structure, free_reduce, permutation

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
# Reduced Burau for B_3 (faithful) and unreduced Burau for general n


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
    from functools import lru_cache

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
    from .words import linking_number

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
    from .words import exponent_sum

    cs = cycle_structure(w)
    mat = burau3(w) if w.n == 3 else burau_unreduced(w)
    cp = tuple(c.key() for c in char_poly(mat))
    return InvariantScreen(
        exponent_sum(w), tuple(sorted(cs.lengths)), _canonical_linking_numbers(w), cp
    )


# ---------------------------------------------------------------------------
# Conjugator search in B_3

_B3_ALPHABET = ((1, 1), (1, -1), (2, 1), (2, -1))


def _ball_elements(max_len: int) -> Iterator[tuple[tuple[tuple[int, int], ...], Matrix]]:
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


def conjugator_search(a: BraidWord, b: BraidWord, max_len: int = 8) -> Optional[BraidWord]:
    """First w (by length, then lexicographic) with w a w^-1 = b in B_3.

    Returns None when no witness exists up to max_len; that means
    "unknown", never "not conjugate".
    """
    if a.n != 3 or b.n != 3:
        raise ValueError("conjugator search is implemented for B_3 only")
    ma, mb = burau3(a), burau3(b)
    for word, mw in _ball_elements(max_len):
        # w a w^-1 = b  <=>  w a = b w
        if mat_mul(mw, ma) == mat_mul(mb, mw):
            return BraidWord(3, word)
    return None


# ---------------------------------------------------------------------------
# Brute-force recount of trace-graph structure


@dataclass
class CountReport:
    vertices: int
    circles: int
    per_circle_vertices: tuple[int, ...]
    expected_vertices: int
    expected_circles: int
    ok: bool
    detail: str = ""


def expected_circle_count(w: BraidWord) -> int:
    import math as _m

    lengths = cycle_structure(w).lengths
    total = sum(x - 1 for x in lengths)
    for a, b in itertools.combinations(lengths, 2):
        total += 2 * _m.gcd(a, b)
    return total


def brute_counts(graph) -> CountReport:
    """Re-traverse a trace graph from raw incidence data only and compare the
    counts against the closed formulas.

    Straight-through continuation at a vertex is recovered from the stored
    rotation data: the i-th lower end in slope order continues as the i-th
    upper end in slope order, without consulting the graph's own circle ids.
    """
    w = graph.word
    # continuation map on (edge, endpoint) flags
    succ: dict[int, int] = {}
    for v in graph.vertices.values():
        below = v.below  # edge ids, increasing local t below = decreasing slope
        above = v.above  # edge ids, increasing local t above = increasing slope
        assert len(below) == 3 and len(above) == 3
        for i in range(3):
            succ[below[i]] = above[2 - i]
    visited: set[int] = set()
    circles = 0
    per_circle = []
    for e0 in sorted(succ):
        if e0 in visited:
            continue
        circles += 1
        count = 0
        e = e0
        while e not in visited:
            visited.add(e)
            count += 1
            e = succ[e]
        per_circle.append(count)
    # closed loops (vertex-free circles) are separate
    loops = sum(1 for e in graph.edges.values() if e.tail is None)
    circles += loops
    nv = len(graph.vertices)
    exp_v = 2 * len(w) * (w.n - 2)
    exp_c = expected_circle_count(w)
    ok = nv == exp_v and circles == exp_c and sum(per_circle) == 3 * nv
    detail = ""
    if not ok:
        detail = (
            f"vertices {nv} (expect {exp_v}), circles {circles} (expect {exp_c}), "
            f"sum k_i {sum(per_circle)} (expect {3 * nv})"
        )
    return CountReport(nv, circles, tuple(sorted(per_circle)), exp_v, exp_c, ok, detail)
