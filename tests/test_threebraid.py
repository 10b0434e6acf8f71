import hashlib
import random

import pytest
from helpers import (
    RELABEL_WORDS,
    conjugacy_classes_within_ball,
    random_rewrite,
    rebuilt_conjugate,
    rebuilt_profile,
    reconstruct_partner_column,
    reference_conjugate_3braids,
)

from braidtrace import cli
from braidtrace import threebraid as tb
from braidtrace.oracle import conjugate_b3
from braidtrace.threebraid import (
    Verdict,
    conjugate_3braids,
    conjugate_pure_ordered,
    cyclic_invariant,
    minimal_rotation,
)
from braidtrace.words import (
    BraidWord,
    concatenate,
    cycle_structure,
    exponent_sum,
    free_reduce,
    invert,
    is_pure,
    iter_reduced_words,
    linking_numbers,
    parse_word,
    permutation,
    power,
    pure_power_exponent,
    random_word,
)

BORRO_A = "(s1 s2^-1)^3"
BORRO_B = "s1^2 s2^2 s1^-2 s2^-2"

# sha256 of decision_rendering(), recorded while conjugate_3braids still
# cross-checked negative verdicts with a Burau-ball conjugator search (at
# depth 1 for the exhaustive pairs, 4 for the seeded ones); that search found
# no conjugator on any of these 3,109 pairs
DECISIONS_SHA256 = "9351f758c5d3b56e8fa32eac8c3a6eda774a28f7804cfe6e043dfa76275fc93b"


def conjugate(w, by):
    return free_reduce(concatenate(concatenate(by, w), invert(by)))


def decision_pairs() -> list[tuple[BraidWord, BraidWord]]:
    """Every ordered pair of freely reduced B3 words of length <= 3, then
    300 seeded pairs of length 1-10, half conjugate by construction."""
    words = [w for l in range(4) for w in iter_reduced_words(3, l)]
    runs = [(a, b) for a in words for b in words]
    rng = random.Random(2713)
    for _ in range(300):
        a = random_word(3, rng.randint(1, 10), rng)
        if rng.random() < 0.5:
            b = conjugate(a, random_word(3, rng.randint(1, 4), rng))
        else:
            b = random_word(3, rng.randint(1, 10), rng)
        runs.append((a, b))
    return runs


def decision(r) -> tuple:
    return r.verdict.value, r.relabeling, r.power


def decision_rendering() -> list[str]:
    """(verdict, relabeling, power) of every pair of decision_pairs()."""
    return [repr(decision(conjugate_3braids(a, b))) for a, b in decision_pairs()]


def non_conjugate_pairs(count: int = 300) -> list[tuple[BraidWord, BraidWord]]:
    """Seeded B3 pairs of length 2-10 with equal exponent sums and cycle
    types that the exact check calls non-conjugate."""
    rng = random.Random(26)
    pairs = []
    while len(pairs) < count:
        a = random_word(3, rng.randint(2, 10), rng)
        b = random_word(3, rng.randint(2, 10), rng)
        if (exponent_sum(a) == exponent_sum(b)
                and sorted(cycle_structure(a).lengths) == sorted(cycle_structure(b).lengths)
                and not conjugate_b3(a, b)):
            pairs.append((a, b))
    return pairs


class TestMinimalRotation:
    def test_plain(self):
        assert minimal_rotation((3, 1, 2)) == (1, 2, 3)
        assert minimal_rotation(()) == ()
        assert minimal_rotation((2, 1, 2, 1)) == (1, 2, 1, 2)

    def test_agrees_with_naive(self, rng):
        for _ in range(50):
            seq = tuple(rng.randrange(4) for _ in range(rng.randint(1, 9)))
            naive = min(seq[i:] + seq[:i] for i in range(len(seq)))
            assert minimal_rotation(seq) == naive


class TestCyclicInvariant:
    def test_trivial_braid_empty_column(self):
        col = cyclic_invariant(BraidWord(3))
        assert len(col) == 0

    def test_borromean_pair_agree(self):
        c1 = cyclic_invariant(parse_word(BORRO_A, 3))
        c2 = cyclic_invariant(parse_word(BORRO_B, 3))
        assert c1.cyclically_equal(c2)

    def test_borromean_nonempty(self):
        assert len(cyclic_invariant(parse_word(BORRO_A, 3))) > 0

    def test_trihedron_triplet_appears(self):
        # the theta vertices of the second Borromean graph are encoded by
        # (12)(13)(23) and (23)(13)(12): extremes swapped around a common middle
        raw = cyclic_invariant(parse_word(BORRO_A, 3)).raw
        assert ((1, 2), (1, 3), (2, 3)) in raw
        assert ((2, 3), (1, 3), (1, 2)) in raw

    def test_non_pure_rejected(self):
        with pytest.raises(ValueError):
            cyclic_invariant(parse_word("s1", 3))

    def test_invariance_under_rotation_and_rewriting(self, rng):
        pure = [w for l in range(0, 6) for w in iter_reduced_words(3, l) if is_pure(w)]
        base = cyclic_invariant
        for w in pure:
            col = base(w).canonical
            # cyclic rotation of a pure word by a pure prefix keeps labels
            for cut in range(1, len(w)):
                if not is_pure(BraidWord(3, w.letters[:cut])):
                    continue
                rot = BraidWord(3, w.letters[cut:] + w.letters[:cut])
                assert base(rot).canonical == col, (w, cut)
            assert base(free_reduce(w)).canonical == col
        # braid-relation rewrites on a sample
        for _ in range(8):
            w = pure[rng.randrange(len(pure))]
            rw = random_rewrite(w, rng, steps=3)
            assert base(rw).canonical == base(w).canonical

    def test_partner_reconstruction(self):
        w = parse_word(BORRO_A, 3)
        for pair in ((1, 2), (1, 3), (2, 3)):
            direct = cyclic_invariant(w, (pair[1], pair[0]))
            rebuilt = reconstruct_partner_column(cyclic_invariant(w, pair))
            assert rebuilt.canonical == direct.canonical


class TestConjugatePureOrdered:
    def test_borromean_pair(self):
        a = parse_word(BORRO_A, 3)
        b = parse_word(BORRO_B, 3)
        assert conjugate_pure_ordered(a, b)

    def test_vs_trivial(self):
        assert not conjugate_pure_ordered(parse_word(BORRO_A, 3), BraidWord(3))

    def test_pure_conjugation(self, rng):
        pure = [w for l in range(0, 5) for w in iter_reduced_words(3, l) if is_pure(w)]
        conjs = [w for w in pure if 0 < len(w) <= 4]
        for _ in range(8):
            w = pure[rng.randrange(len(pure))]
            by = conjs[rng.randrange(len(conjs))]
            assert conjugate_pure_ordered(w, conjugate(w, by)), (w, by)

    def test_rejects_non_pure(self):
        with pytest.raises(ValueError):
            conjugate_pure_ordered(parse_word("s1", 3), parse_word("s1", 3))

    def test_distinguishes_linking(self):
        assert not conjugate_pure_ordered(
            parse_word("s1^2", 3), parse_word("s1^4", 3)
        )


class TestConjugate3Braids:
    def test_generators_conjugate(self):
        res = conjugate_3braids(parse_word("s1", 3), parse_word("s2", 3))
        assert res.verdict is Verdict.TRUE

    def test_reflexive(self):
        for text in ("s1", BORRO_A, "s1 s2"):
            w = parse_word(text, 3)
            assert conjugate_3braids(w, w).verdict is Verdict.TRUE

    def test_opposite_signs_differ(self):
        res = conjugate_3braids(parse_word("s1", 3), parse_word("s1^-1", 3))
        assert res.verdict is Verdict.FALSE

    def test_cycle_type_screen(self):
        res = conjugate_3braids(parse_word("s1", 3), parse_word("s1 s2", 3))
        assert res.verdict is Verdict.FALSE

    def test_conjugation_by_arbitrary_words(self, rng):
        words = [w for l in range(1, 4) for w in iter_reduced_words(3, l)]
        for _ in range(6):
            w = words[rng.randrange(len(words))]
            by = words[rng.randrange(len(words))]
            res = conjugate_3braids(w, conjugate(w, by))
            assert res.verdict is Verdict.TRUE, (w, by)

    def test_golden_decisions(self):
        text = "\n".join(decision_rendering())
        assert hashlib.sha256(text.encode()).hexdigest() == DECISIONS_SHA256

    def test_witness_order_is_that_of_the_positive_lifts(self):
        assert tb._PERMUTATIONS == tuple(
            permutation(BraidWord(3, rho)) for rho in RELABEL_WORDS
        )

    def test_agrees_with_oracle_exhaustively_short(self):
        words = [w for l in range(0, 3) for w in iter_reduced_words(3, l)]
        classes = conjugacy_classes_within_ball(words, 6)
        cls_of = {}
        for ci, members in enumerate(classes):
            for m in members:
                cls_of[m] = ci
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                verdict = conjugate_3braids(a, b).verdict
                if cls_of[i] == cls_of[j]:
                    assert verdict is Verdict.TRUE, (a, b)
                else:
                    assert verdict is not Verdict.TRUE, (a, b)


class TestRelabeledProfile:
    """The profile of a conjugate read from the pure braid's own reduced
    graph against the profile of the rebuilt conjugate."""

    @staticmethod
    def pure_words():
        rng = random.Random(808)
        words = [BraidWord(3), parse_word("(s1 s2)^3", 3), parse_word(BORRO_A, 3),
                 parse_word("s1^2 s2^2", 3), parse_word("s1^2 s2^-2 s1^2", 3)]
        while len(words) < 30:
            w = random_word(3, rng.randint(1, 6), rng)
            words.append(free_reduce(power(w, pure_power_exponent(w))))
        return words

    def test_profile_equals_rebuilt_conjugate(self):
        for p in self.pure_words():
            for rho, perm in zip(RELABEL_WORDS, tb._PERMUTATIONS):
                assert tb._profile(p, perm) == rebuilt_profile(p, rho), (p, perm)

    def test_witness_is_first_matching_lift(self):
        several = 0
        for p in self.pure_words():
            for rho in RELABEL_WORDS:
                b = conjugate(p, BraidWord(3, rho))
                target = rebuilt_profile(b, ())
                matching = [
                    permutation(BraidWord(3, r)) for r in RELABEL_WORDS
                    if rebuilt_profile(p, r) == target
                ]
                several += len(matching) > 1
                res = conjugate_3braids(p, b)
                assert res.verdict is Verdict.TRUE
                assert res.relabeling == matching[0], (p, rho)
        assert several > 0


class TestReducedGraphCache:
    """The reduced-graph cache serves the reads inside one decision."""

    def test_holds_one_decisions_graphs(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_word(3, rng.randint(4, 12), rng)
            if rng.random() < 0.5:
                b = conjugate(a, random_word(3, rng.randint(1, 4), rng))
            else:
                b = random_word(3, rng.randint(4, 12), rng)
            conjugate_3braids(a, b)
        assert tb._reduced_graph_cached.cache_info().currsize <= 2

    def test_invariants_read_one_graph(self, capsys):
        tb._reduced_graph_cached.cache_clear()
        assert cli.main(["invariants", "--word", BORRO_A, "--strands", "3"]) == 0
        assert "C_23:" in capsys.readouterr().out
        info = tb._reduced_graph_cached.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestLinkingGate:
    """Linking numbers gate the relabelings before any trace graph is read."""

    def test_ungated_decision_agrees_on_the_golden_pairs(self):
        for a, b in decision_pairs():
            got = conjugate_3braids(a, b)
            assert decision(got) == decision(reference_conjugate_3braids(a, b)), (a, b)

    def test_ungated_decision_agrees_on_non_conjugate_pairs(self):
        by_column = 0
        for a, b in non_conjugate_pairs():
            got = conjugate_3braids(a, b)
            assert decision(got) == decision(reference_conjugate_3braids(a, b)), (a, b)
            lk_a, lk_b = (linking_numbers(free_reduce(power(w, got.power))) for w in (a, b))
            kept = any(tb._linking_triple(lk_a, p) == (lk_b[1, 2], lk_b[1, 3], lk_b[2, 3])
                       for p in tb._PERMUTATIONS)
            assert got.mismatch == ("cyclic column" if kept else "linking numbers"), (a, b)
            by_column += kept
        # pairs that pass the linking gate keep the graph path covered
        assert by_column > 0

    def test_no_graph_when_linking_numbers_differ(self):
        tb._reduced_graph_cached.cache_clear()
        res = conjugate_3braids(parse_word("s1^2", 3), parse_word("s1^4", 3))
        assert (res.verdict, res.mismatch) == (Verdict.FALSE, "linking numbers")
        assert tb._reduced_graph_cached.cache_info().misses == 0

    def test_triple_equals_linking_numbers_of_the_rebuilt_conjugate(self):
        for p in TestRelabeledProfile.pure_words():
            lk = linking_numbers(p)
            for rho, perm in zip(RELABEL_WORDS, tb._PERMUTATIONS):
                r = linking_numbers(rebuilt_conjugate(p, rho))
                assert tb._linking_triple(lk, perm) == (r[1, 2], r[1, 3], r[2, 3]), (p, perm)

    @pytest.mark.parametrize(
        "a,b,mismatch",
        [
            ("s1", "s2", None),
            ("s1", "s1 s2", "cycle type"),
            ("s1^2", "s1^4", "linking numbers"),
            ("s1^2 s2^2", "s1^2 s2^-2", "linking numbers"),
            ("s1^3 s2^-3 s1 s2^-1", "s1^-1 s2", "cyclic column"),
        ],
    )
    def test_a_negative_verdict_names_its_first_difference(self, a, b, mismatch):
        res = conjugate_3braids(parse_word(a, 3), parse_word(b, 3))
        assert res.mismatch == mismatch
        assert (res.verdict is Verdict.TRUE) == (mismatch is None)
