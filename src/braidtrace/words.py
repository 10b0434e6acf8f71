"""Braid words and their elementary combinatorial invariants.

A braid word on n strands is a sequence of signed generator letters
(i, sign) with 1 <= i <= n-1.  Letters act left to right, i.e. from the
bottom of the braid to the top; the induced permutation of word `ab` is
perm(b) o perm(a).  Closure components are labelled by the smallest
strand index occurring in each permutation cycle, in ascending order,
which makes "ordered components" deterministic everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_n, letters (index, sign) with sign = +-1."""

    n: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"strand count must be >= 2, got {self.n}")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.n - 1:
                raise ValueError(f"letter index {idx} out of range for n={self.n}")
            if sign not in (-1, 1):
                raise ValueError(f"letter sign must be +-1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "<empty>"
        return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in self.letters)


Permutation = tuple[int, ...]
"""images[i-1] is the image of i; a bijection on {1..n}."""


@dataclass(frozen=True)
class CycleStructure:
    cycles: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    component_of: tuple[int, ...]  # strand -> component label (1-based index i-1)

    @property
    def num_components(self) -> int:
        return len(self.cycles)


class WordSyntaxError(ValueError):
    pass


def _parse_seq(tokens: list[str], pos: int) -> tuple[list[tuple[int, int]], int]:
    out: list[tuple[int, int]] = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == ")":
            return out, pos
        if tok == "(":
            inner, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise WordSyntaxError("unbalanced parenthesis")
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos].startswith("^"):
                power = _parse_power(tokens[pos])
                pos += 1
            out.extend(_repeat(inner, power))
            continue
        if tok.startswith("s"):
            pos += 1
            base = tok
            power = 1
            if "^" in base:
                base, _, exp = base.partition("^")
                power = _parse_power("^" + exp)
            try:
                idx = int(base[1:])
            except ValueError:
                raise WordSyntaxError(f"malformed token {tok!r}") from None
            if idx < 1:
                raise WordSyntaxError(f"generator index must be >= 1 in {tok!r}")
            out.extend(_repeat([(idx, 1)], power))
            continue
        raise WordSyntaxError(f"unexpected token {tok!r}")
    return out, pos


def _parse_power(text: str) -> int:
    try:
        return int(text[1:])
    except ValueError:
        raise WordSyntaxError(f"malformed power {text!r}") from None


def _repeat(letters: list[tuple[int, int]], power: int) -> list[tuple[int, int]]:
    if power == 0:
        return []
    if power < 0:
        letters = [(i, -s) for i, s in reversed(letters)]
        power = -power
    return letters * power


def parse_word(text: str, n: int | None = None) -> BraidWord:
    """Parse a generator word like ``"s1 s2^-1 (s1 s2)^3"``.

    Tokens are whitespace separated; ``^k`` powers and parenthesised
    repetition are expanded at parse time.  If n is not given it is
    inferred as 1 + max generator index (so the empty word needs an
    explicit n).
    """
    spaced = text.replace("(", " ( ").replace(")", " ) ")
    tokens = spaced.split()
    letters, pos = _parse_seq(tokens, 0)
    if pos != len(tokens):
        raise WordSyntaxError("unbalanced parenthesis")
    if n is None:
        if not letters:
            raise WordSyntaxError("empty word needs an explicit strand count")
        n = 1 + max(i for i, _ in letters)
    return BraidWord(n, tuple(letters))


def permutation(w: BraidWord) -> Permutation:
    """Permutation induced on strand endpoints, letters acting left to right."""
    occ = list(range(1, w.n + 1))  # occ[p-1] = strand currently at position p
    for i, _ in w.letters:
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    images = [0] * w.n
    for p, strand in enumerate(occ, start=1):
        images[strand - 1] = p
    return tuple(images)


def perm_order(p: Permutation) -> int:
    order = 1
    for c in _perm_cycles(p):
        order = order * len(c) // math.gcd(order, len(c))
    return order


def _perm_cycles(p: Permutation) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            cyc.append(x)
            x = p[x - 1]
        cycles.append(tuple(cyc))
    return cycles


def cycle_structure(w: BraidWord) -> CycleStructure:
    """Cycles of the induced permutation; components labelled by smallest strand."""
    cycles = sorted(_perm_cycles(permutation(w)), key=min)
    component_of = [0] * w.n
    for label, cyc in enumerate(cycles, start=1):
        for s in cyc:
            component_of[s - 1] = label
    return CycleStructure(tuple(cycles), tuple(len(c) for c in cycles), tuple(component_of))


def strand_positions(w: BraidWord) -> Iterator[tuple[int, ...]]:
    """Yield the occupancy vector (strand at each position) before every letter
    and once more after the last letter."""
    occ = list(range(1, w.n + 1))
    for i, _ in w.letters:
        yield tuple(occ)
        occ[i - 1], occ[i] = occ[i], occ[i - 1]
    yield tuple(occ)


def exponent_sum(w: BraidWord) -> int:
    return sum(s for _, s in w.letters)


def linking_numbers(w: BraidWord) -> dict[tuple[int, int], int]:
    """Linking numbers of every ordered pair (i, j) of distinct closure
    components, read in one walk over the word: half the signed sum of the
    crossings between strands of the two components (symmetric in i, j)."""
    cs = cycle_structure(w)
    comp = cs.component_of
    m = cs.num_components
    totals = [[0] * (m + 1) for _ in range(m + 1)]
    occ = list(range(w.n))
    for k, sign in w.letters:
        a, b = comp[occ[k - 1]], comp[occ[k]]
        if a != b:
            totals[a][b] += sign
        occ[k - 1], occ[k] = occ[k], occ[k - 1]
    lk = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            total = totals[i][j] + totals[j][i]
            assert total % 2 == 0, "mixed crossing sum of distinct closed components must be even"
            lk[i, j] = lk[j, i] = total // 2
    return lk


def linking_number(w: BraidWord, i: int, j: int) -> int:
    """Linking number of closure components i and j (i != j), read from
    `linking_numbers`."""
    lk = linking_numbers(w)
    if (i, j) not in lk:
        m = cycle_structure(w).num_components
        raise ValueError(f"invalid component pair ({i}, {j}) for {m} components")
    return lk[i, j]


def concatenate(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} vs {b.n}")
    return BraidWord(a.n, a.letters + b.letters)


def invert(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, tuple((i, -s) for i, s in reversed(w.letters)))


def power(w: BraidWord, k: int) -> BraidWord:
    if k < 0:
        return power(invert(w), -k)
    return BraidWord(w.n, w.letters * k)


def free_reduce(w: BraidWord) -> BraidWord:
    out: list[tuple[int, int]] = []
    for letter in w.letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return BraidWord(w.n, tuple(out))


def garside_delta(n: int) -> BraidWord:
    """The positive half twist (s1)(s2 s1)...(s_{n-1} ... s1); its square is central."""
    if n < 2:
        raise ValueError("garside_delta needs n >= 2")
    letters = []
    for k in range(1, n):
        letters.extend((i, 1) for i in range(k, 0, -1))
    return BraidWord(n, tuple(letters))


def pure_power_exponent(w: BraidWord) -> int:
    """Smallest k >= 1 with power(w, k) pure: the order of the permutation."""
    return perm_order(permutation(w))


def is_pure(w: BraidWord) -> bool:
    return permutation(w) == tuple(range(1, w.n + 1))


def subbraid(w: BraidWord, keep: Iterable[int]) -> BraidWord:
    """Word induced on the strands of the kept closure components.

    Tracks strand positions through w and keeps exactly the letters whose two
    crossing strands both belong to kept components, re-indexed among the kept
    strands.
    """
    cs = cycle_structure(w)
    keep = set(keep)
    if not keep or not keep <= set(range(1, cs.num_components + 1)):
        raise ValueError(f"invalid component labels {sorted(keep)}")
    kept_strand = [cs.component_of[s - 1] in keep for s in range(1, w.n + 1)]
    m = sum(kept_strand)
    letters = []
    occ = list(range(1, w.n + 1))
    for k, sign in w.letters:
        a, b = occ[k - 1], occ[k]
        if kept_strand[a - 1] and kept_strand[b - 1]:
            # position of the crossing among kept strands only
            pos = sum(1 for p in range(k - 1) if kept_strand[occ[p] - 1]) + 1
            letters.append((pos, sign))
        occ[k - 1], occ[k] = occ[k], occ[k - 1]
    if m < 2:
        raise ValueError("kept components span fewer than 2 strands")
    return BraidWord(m, tuple(letters))


def iter_reduced_words(n: int, length: int) -> Iterator[BraidWord]:
    """All freely reduced words of exactly the given length in B_n."""
    alphabet = [(i, s) for i in range(1, n) for s in (1, -1)]

    def rec(prefix: list[tuple[int, int]]):
        if len(prefix) == length:
            yield BraidWord(n, tuple(prefix))
            return
        for letter in alphabet:
            if prefix and prefix[-1][0] == letter[0] and prefix[-1][1] == -letter[1]:
                continue
            prefix.append(letter)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def random_word(n: int, length: int, rng) -> BraidWord:
    """Random freely reduced word of the given length."""
    letters: list[tuple[int, int]] = []
    alphabet = [(i, s) for i in range(1, n) for s in (1, -1)]
    while len(letters) < length:
        cand = rng.choice(alphabet)
        if letters and letters[-1][0] == cand[0] and letters[-1][1] == -cand[1]:
            continue
        letters.append(cand)
    return BraidWord(n, tuple(letters))
