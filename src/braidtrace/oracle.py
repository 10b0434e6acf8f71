"""Independent ground truth at desk scale.

One normal form answers every question about B_3 here.  Modulo its centre
<Delta^2>, B_3 is PSL(2,Z) = Z/2 * Z/3, generated by x = s1 s2 s1 and
y = s1 s2; a word's image reduces by a stack to the free product's normal
form, an alternating string of syllables.  Delta^2 has exponent sum 6, so
the normal form together with the exponent sum decides equality in B_3
exactly (`_element_key`).  In a free product, two cyclically reduced
elements are conjugate exactly when one is a cyclic rotation of the other
(Magnus, Karrass and Solitar, Combinatorial Group Theory, section 4.1), so
two 3-braids are conjugate exactly when their cyclically reduced images
are rotations of each other and their exponent sums are equal
(`conjugate_b3`, no search).  The trace-graph decision in `threebraid` is
checked against it.

The breadth-first conjugator search over the ball of B_3 elements
(`conjugator_search`, `_ball_elements`) deduplicates and compares by the
same key.  It finds a conjugator up to a length bound and so only
semi-decides; the tests use its witnesses, and the benchmark's tracing
binds `conjugator_search` by name.  The tests check all of these against
an independent reference, the faithful reduced Burau representation of
B_3 with exact integer polynomial entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .words import BraidWord, cycle_structure, exponent_sum

# ---------------------------------------------------------------------------
# The normal form of B_3 modulo its centre

# images of the letters modulo the centre, as syllables of Z/2 * Z/3 =
# <x, y | x^2, y^3>: "x" is x, "y" is y and "Y" is y^2
_MOD_CENTRE = {(1, 1): "Yx", (2, 1): "xY", (1, -1): "xy", (2, -1): "yx"}
# product of two syllables of one factor; "" is the identity
_SYLLABLE_PRODUCT = {"xx": "", "yy": "Y", "yY": "", "Yy": "", "YY": "y"}


def _same_factor(u: str, v: str) -> bool:
    return (u == "x") == (v == "x")


def _reduced_mod_centre(letters: Sequence[tuple[int, int]]) -> list[str]:
    """Syllables of the normal form of the letters' image in Z/2 * Z/3."""
    stack: list[str] = []
    for syllable in "".join(_MOD_CENTRE[letter] for letter in letters):
        if stack and _same_factor(stack[-1], syllable):
            syllable = _SYLLABLE_PRODUCT[stack.pop() + syllable]
        if syllable:
            stack.append(syllable)
    return stack


def _element_key(letters: Sequence[tuple[int, int]]) -> tuple[str, int]:
    """Normal form modulo the centre and exponent sum: equal exactly for
    words of one element of B_3."""
    return "".join(_reduced_mod_centre(letters)), sum(s for _, s in letters)


def _cyclically_reduced_mod_centre(w: BraidWord) -> str:
    """Syllables of a cyclically reduced conjugate of w's image in Z/2 * Z/3."""
    stack = _reduced_mod_centre(w.letters)
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
# Conjugator search in B_3

_B3_ALPHABET = ((1, 1), (1, -1), (2, 1), (2, -1))


def _ball_elements(max_len: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Distinct B_3 elements with a shortest(ish) representative word, by BFS.

    Deduplicates on `_element_key`, which is exact.  Yields in order of
    word length, ties broken lexicographically.
    """
    seen = {_element_key(())}
    frontier: list[tuple[tuple[int, int], ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for letter in _B3_ALPHABET:
                if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
                    continue
                entry = word + (letter,)
                key = _element_key(entry)
                if key in seen:
                    continue
                seen.add(key)
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
    for word in _ball_elements(max_len):
        # w a w^-1 = b  <=>  w a = b w
        if _element_key(word + a.letters) == _element_key(b.letters + word):
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
    lengths = cycle_structure(w).lengths
    total = sum(x - 1 for x in lengths)
    for a, b in itertools.combinations(lengths, 2):
        total += 2 * math.gcd(a, b)
    return total


def brute_counts(graph) -> CountReport:
    """Re-traverse a trace graph from raw incidence data only and compare the
    counts against the closed formulas.

    Each edge's successor is read from the stored rotation data by the
    continuation rule of `TraceVertex`, without consulting the graph's own
    circle ids.
    """
    w = graph.word
    succ: dict[int, int] = {}
    for v in graph.vertices.values():
        assert len(v.below) == 3 and len(v.above) == 3
        for i in range(3):
            succ[v.below[i]] = v.above[2 - i]
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
