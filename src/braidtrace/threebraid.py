"""Cyclic invariants of 3-braids and the conjugacy decisions built on them.

For a pure 3-braid the trace circles are labelled by plain ordered
component pairs, and the column of vertex triplets read along one circle
of the reduced trace graph, together with one linking number, classifies
the closure up to conjugacy with ordered components.  Arbitrary 3-braids
reduce to the pure case by raising to the power that kills the
permutation and enumerating the six component relabelings.
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
    concatenate,
    cycle_structure,
    free_reduce,
    invert,
    is_pure,
    linking_number,
    permutation,
    power,
    pure_power_exponent,
    subbraid,
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


def cyclic_invariant(
    w: BraidWord,
    pair: tuple[int, int] = (1, 2),
    components: Optional[tuple[int, int, int]] = None,
) -> TripletColumn:
    """The cyclic invariant of the 3-subbraid on the chosen components,
    read along the trace circle of the given ordered component pair in the
    reduced trace graph.

    Each vertex on the circle contributes the ordered triplet of the
    markings of the three circles through it, left to right below the
    vertex; the column is defined up to cyclic rotation and is returned
    both raw and in its lexicographically minimal rotation.
    """
    if components is None:
        if w.n != 3:
            raise ValueError("components must be chosen for n != 3")
        sub = w
        relabel = {1: 1, 2: 2, 3: 3}
    else:
        comps = tuple(sorted(components))
        if len(set(comps)) != 3:
            raise ValueError("need three distinct components")
        sub = subbraid(w, set(comps))
        relabel = {i + 1: comps[i] for i in range(3)}
    if sub.n != 3 or not is_pure(sub):
        raise ValueError("the chosen 3-subbraid is not a pure 3-braid")
    back = {v: k for k, v in relabel.items()}
    if pair[0] not in back or pair[1] not in back or pair[0] == pair[1]:
        raise ValueError(f"pair {pair} is not within the chosen components")
    return _column(sub, (back[pair[0]], back[pair[1]]), relabel)


@lru_cache(maxsize=4096)
def _reduced_graph_cached(letters: tuple[tuple[int, int], ...]):
    g = build_trace_graph(BraidWord(3, letters))
    return reduce_graph(g)


def _column(sub: BraidWord, pair: tuple[int, int], relabel: dict) -> TripletColumn:
    r = _reduced_graph_cached(sub.letters)
    target = None
    for c in r.circles.values():
        if c.comp_pair == pair:
            target = c
            break
    assert target is not None, "pure 3-braid must have all six circles"
    raw = []
    if r.edges[target.edges[0]].tail is not None:
        for eid in target.edges:
            v = r.vertices[r.edges[eid].tail]
            trip = []
            for below in v.below:
                i, j = r.edges[below].pair
                trip.append((relabel[i], relabel[j]))
            raw.append(tuple(trip))
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
    if linking_number(a, 1, 2) != linking_number(b, 1, 2):
        return False
    return cyclic_invariant(a).cyclically_equal(cyclic_invariant(b))


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Conjugacy3Result:
    verdict: Verdict
    relabeling: Optional[tuple[int, ...]] = None  # witness permutation of components
    power: int = 1
    oracle_witness: Optional[BraidWord] = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.TRUE


# positive lifts of the six permutations of three strands
_RELABEL_WORDS = (
    (),
    ((1, 1),),
    ((2, 1),),
    ((1, 1), (2, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (2, 1), (1, 1)),
)


def conjugate_3braids(
    a: BraidWord, b: BraidWord, oracle_depth: int = 4
) -> Conjugacy3Result:
    """Conjugacy decision for arbitrary 3-braids.

    Braids are conjugate exactly when a common pure power is, so both are
    raised to the order of their permutations and the pure ordered test
    runs against every component relabeling.  A negative invariant verdict
    is cross-checked against the conjugator search; a surviving oracle
    witness downgrades the answer to inconclusive rather than patching it.
    """
    if a.n != 3 or b.n != 3:
        raise ValueError("conjugate_3braids works in B_3")
    if tuple(sorted(cycle_structure(a).lengths)) != tuple(
        sorted(cycle_structure(b).lengths)
    ):
        return Conjugacy3Result(Verdict.FALSE)
    k = pure_power_exponent(a)
    k = k * pure_power_exponent(b) // math.gcd(k, pure_power_exponent(b))
    pa = free_reduce(power(a, k))
    pb = free_reduce(power(b, k))
    prof_b = _pure_profile(pb.letters)
    for rho_letters in _RELABEL_WORDS:
        rho = BraidWord(3, rho_letters)
        cand = free_reduce(concatenate(concatenate(rho, pa), invert(rho)))
        if _pure_profile(cand.letters) == prof_b:
            return Conjugacy3Result(Verdict.TRUE, permutation(rho), k)
    witness = oracle.conjugator_search(a, b, oracle_depth)
    if witness is not None:
        return Conjugacy3Result(Verdict.INCONCLUSIVE, None, k, witness)
    return Conjugacy3Result(Verdict.FALSE, None, k)


@lru_cache(maxsize=8192)
def _pure_profile(letters: tuple[tuple[int, int], ...]):
    w = BraidWord(3, letters)
    return (linking_number(w, 1, 2), cyclic_invariant(w).canonical)
