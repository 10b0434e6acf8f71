"""Cyclic invariants of 3-braids and the conjugacy decisions built on them.

For a pure 3-braid the trace circles are labelled by plain ordered
component pairs, and the column of vertex triplets read along one circle
of the reduced trace graph, together with one linking number, classifies
the closure up to conjugacy with ordered components.  Arbitrary 3-braids
reduce to the pure case by raising both to a common power that kills the
permutation, which is sound because roots in braid groups are unique up to
conjugacy (Gonzalez-Meneses 2003), and by trying the six component
relabelings.  A relabeling needs no new graph: conjugating a pure braid p
by a lift of the permutation pi only renames the closure's components
(component j of the conjugate is component pi(j) of p), and the linking
number and the column are invariants of the ordered closure.  So the
conjugate's invariants are exactly those of components pi(1), pi(2) in
p's own reduced graph, with pi(j) renamed j.

`conjugate_3braids` tests the cheapest sound invariants first and names
the first one that differs on a negative verdict:

1. cycle type: conjugate braids induce conjugate permutations;
2. linking numbers: the three pairwise linking numbers of the pure powers,
   read in one pass over each word; a relabeling whose triple differs
   cannot match the profile of gate 3, because that profile classifies
   the ordered closure and linking numbers are invariants of it;
3. cyclic column: the profile read from the reduced trace graphs, for the
   relabelings that passed gate 2 only, so a decision that stops at gate 1
   or 2 builds no graph.

Every decision is checked against the exact B_3 conjugacy test
`oracle.conjugate_b3`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from . import oracle
from .equivalence import reduce as reduce_graph
from .tracegraph import build_trace_graph
from .words import (
    BraidWord,
    cycle_structure,
    free_reduce,
    is_pure,
    linking_number,
    linking_numbers,
    power,
    pure_power_exponent,
)

Triplet = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def minimal_rotation(seq: tuple) -> tuple:
    """Lexicographically minimal rotation (Booth's algorithm)."""
    n = len(seq)
    if n == 0:
        return seq
    s = seq + seq
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return seq[k:] + seq[:k]


@dataclass(frozen=True)
class TripletColumn:
    """Cyclic column of ordered marking triplets along one trace circle."""

    pair: tuple[int, int]
    raw: tuple[Triplet, ...]
    canonical: tuple[Triplet, ...]

    def __len__(self) -> int:
        return len(self.raw)

    def cyclically_equal(self, other: "TripletColumn") -> bool:
        return self.canonical == other.canonical


def cyclic_invariant(w: BraidWord, pair: tuple[int, int] = (1, 2)) -> TripletColumn:
    """The cyclic invariant of a pure 3-braid, read along the trace circle
    of the given ordered component pair in the reduced trace graph.

    Each vertex on the circle contributes the ordered triplet of the
    markings of the three circles through it, left to right below the
    vertex; the column is defined up to cyclic rotation and is returned
    both raw and in its lexicographically minimal rotation.
    """
    if w.n != 3 or not is_pure(w):
        raise ValueError("cyclic_invariant needs a pure 3-braid")
    if not {*pair} <= {1, 2, 3} or pair[0] == pair[1]:
        raise ValueError(f"pair {pair} is not two of the components 1, 2, 3")
    return _column(w, pair, {1: 1, 2: 2, 3: 3})


# A decision reads 0 or 2 reduced graphs: none when the cycle type or the
# linking numbers already differ, else b's power once and a's power under
# each relabeling that passed the linking gate; repeats across decisions are
# rare, so two entries keep the hits without holding thousands of graphs.
@lru_cache(maxsize=2)
def _reduced_graph_cached(letters: tuple[tuple[int, int], ...]):
    g = build_trace_graph(BraidWord(3, letters))
    return reduce_graph(g)


def _column(sub: BraidWord, pair: tuple[int, int], relabel: dict) -> TripletColumn:
    r = _reduced_graph_cached(sub.letters)
    target = next((c for c in r.circles.values() if c.comp_pair == pair), None)
    assert target is not None, "pure 3-braid must have all six circles"
    raw = []
    if r.edges[target.edges[0]].tail is not None:
        for eid in target.edges:
            below = r.vertices[r.edges[eid].tail].below
            raw.append(tuple((relabel[i], relabel[j]) for i, j in (r.edges[e].pair for e in below)))
    raw = tuple(raw)
    out_pair = (relabel[pair[0]], relabel[pair[1]])
    return TripletColumn(out_pair, raw, minimal_rotation(raw))


def conjugate_pure_ordered(a: BraidWord, b: BraidWord) -> bool:
    """Complete conjugacy test for pure 3-braids with ordered components:
    the linking number of components 1,2 and the cyclic invariant of the
    (1,2) circle decide."""
    for w in (a, b):
        if w.n != 3 or not is_pure(w):
            raise ValueError("conjugate_pure_ordered needs pure 3-braids")
    return _profile(a) == _profile(b)


def _profile(p: BraidWord, perm: tuple[int, int, int] = (1, 2, 3)) -> tuple:
    """Linking number and canonical (1,2) column of the conjugate of the
    pure 3-braid p by a lift of perm, read from p's own reduced graph."""
    relabel = {c: j + 1 for j, c in enumerate(perm)}
    column = _column(p, (perm[0], perm[1]), relabel)
    return linking_number(p, perm[0], perm[1]), column.canonical


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"


@dataclass(frozen=True)
class Conjugacy3Result:
    verdict: Verdict
    relabeling: Optional[tuple[int, ...]] = None  # witness permutation of components
    power: int = 1
    # on FALSE, the first gate that differed: "cycle type", "linking
    # numbers" or "cyclic column"; None on TRUE
    mismatch: Optional[str] = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.TRUE


# the permutations of the positive lifts 1, s1, s2, s1 s2, s2 s1, s1 s2 s1
_PERMUTATIONS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1))


def _linking_triple(lk: dict, perm: tuple[int, int, int]) -> tuple[int, int, int]:
    """(lk_12, lk_13, lk_23) of the conjugate of a pure 3-braid by a lift of
    perm, from the braid's own linking numbers lk."""
    p0, p1, p2 = perm
    return lk[p0, p1], lk[p0, p2], lk[p1, p2]


def conjugate_3braids(a: BraidWord, b: BraidWord) -> Conjugacy3Result:
    """Conjugacy decision for arbitrary 3-braids.

    Braids are conjugate exactly when a common pure power is (Gonzalez-Meneses
    2003), so both are raised to the order of their permutations, after the
    cycle types were found equal.  The relabelings of a's power are taken in
    the order of the positive lifts 1, s1, s2, s1 s2, s2 s1, s1 s2 s1, and
    only those under which its three linking numbers equal those of b's
    power are kept; no reduced graph is built unless one is kept.  The pure
    ordered test then runs against each kept relabeling, read from a's one
    reduced graph; the first match is the witness.  A relabeling dropped by
    the linking gate cannot match, since linking numbers are invariants of
    the ordered closure, so the witness is the first match over all six.
    A FALSE result names the first gate that differed.  Every verdict is
    checked against `oracle.conjugate_b3`; a disagreement raises
    RuntimeError.
    """
    if a.n != 3 or b.n != 3:
        raise ValueError("conjugate_3braids works in B_3")
    result = Conjugacy3Result(Verdict.FALSE, mismatch="cycle type")
    if tuple(sorted(cycle_structure(a).lengths)) == tuple(
        sorted(cycle_structure(b).lengths)
    ):
        k = math.lcm(pure_power_exponent(a), pure_power_exponent(b))
        pa = free_reduce(power(a, k))
        pb = free_reduce(power(b, k))
        lk_a, lk_b = linking_numbers(pa), linking_numbers(pb)
        target = lk_b[1, 2], lk_b[1, 3], lk_b[2, 3]
        kept = [p for p in _PERMUTATIONS if _linking_triple(lk_a, p) == target]
        perm, mismatch = None, "linking numbers"
        if kept:
            prof_b = _profile(pb)
            perm = next((p for p in kept if _profile(pa, p) == prof_b), None)
            mismatch = None if perm else "cyclic column"
        result = Conjugacy3Result(Verdict.TRUE if perm else Verdict.FALSE, perm, k, mismatch)
    exact = oracle.conjugate_b3(a, b)
    if bool(result) != exact:
        raise RuntimeError(
            f"3-braid conjugacy of '{a}' and '{b}': the trace-graph invariant "
            f"says {result.verdict.value}, the exact B3 check says {str(exact).lower()}"
        )
    return result
