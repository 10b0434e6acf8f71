"""Independent ground truth at desk scale.

The reduced Burau representation is faithful on B_3, so matrix equality
decides the word problem there exactly; it uses exact integer Laurent
polynomials, no floating point.

`conjugate_b3` decides conjugacy in B_3 exactly, with no search.  Modulo
its centre <Delta^2>, B_3 is PSL(2,Z) = Z/2 * Z/3, generated by
x = s1 s2 s1 and y = s1 s2.  In a free product, two cyclically reduced
elements are conjugate exactly when one is a cyclic rotation of the other
(Magnus, Karrass and Solitar, Combinatorial Group Theory, section 4.1), and
Delta^2 has exponent sum 6, so two 3-braids are conjugate exactly when
their cyclically reduced images are rotations of each other and their
exponent sums are equal.  The trace-graph decision in `threebraid` is
checked against it.

The breadth-first conjugator search over the Burau ball (`conjugator_search`,
`_ball_elements`) finds a conjugator up to a length bound and so only
semi-decides; the tests use it as a second reference, and the benchmark's
tracing binds `conjugator_search` by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .words import BraidWord, cycle_structure, exponent_sum

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
# Exact conjugacy in B_3

# images of the letters modulo the centre, as syllables of Z/2 * Z/3 =
# <x, y | x^2, y^3>: "x" is x, "y" is y and "Y" is y^2
_MOD_CENTRE = {(1, 1): "Yx", (2, 1): "xY", (1, -1): "xy", (2, -1): "yx"}
# product of two syllables of one factor; "" is the identity
_SYLLABLE_PRODUCT = {"xx": "", "yy": "Y", "yY": "", "Yy": "", "YY": "y"}


def _same_factor(u: str, v: str) -> bool:
    return (u == "x") == (v == "x")


def _cyclically_reduced_mod_centre(w: BraidWord) -> str:
    """Syllables of a cyclically reduced conjugate of w's image in Z/2 * Z/3."""
    stack: list[str] = []
    for syllable in "".join(_MOD_CENTRE[letter] for letter in w.letters):
        if stack and _same_factor(stack[-1], syllable):
            syllable = _SYLLABLE_PRODUCT[stack.pop() + syllable]
        if syllable:
            stack.append(syllable)
    # conjugate the last syllable onto the first while they share a factor
    i, j = 0, len(stack)
    while j - i > 1 and _same_factor(stack[i], stack[j - 1]):
        j -= 1
        product = _SYLLABLE_PRODUCT[stack[j] + stack[i]]
        if product:
            stack[i] = product
        else:
            i += 1
    return "".join(stack[i:j])


def conjugate_b3(a: BraidWord, b: BraidWord) -> bool:
    """Exact conjugacy in B_3: equal exponent sums, and cyclically reduced
    images modulo the centre that are rotations of each other."""
    if a.n != 3 or b.n != 3:
        raise ValueError("conjugate_b3 works in B_3")
    if exponent_sum(a) != exponent_sum(b):
        return False
    u = _cyclically_reduced_mod_centre(a)
    v = _cyclically_reduced_mod_centre(b)
    # one character per syllable, so v is a rotation of u exactly when it
    # is as long and occurs in u written twice
    return len(u) == len(v) and v in u + u


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
