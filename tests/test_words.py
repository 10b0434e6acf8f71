import random

import pytest
from helpers import reference_linking_number
from hypothesis import given
from hypothesis import strategies as st

from braidtrace.words import (
    BraidWord,
    WordSyntaxError,
    concatenate,
    cycle_structure,
    exponent_sum,
    free_reduce,
    garside_delta,
    invert,
    is_pure,
    iter_reduced_words,
    linking_number,
    linking_numbers,
    parse_word,
    permutation,
    power,
    pure_power_exponent,
    random_word,
    subbraid,
)

BORROMEAN = "s1 s2^-1 s1 s2^-1 s1 s2^-1"


def words(n=4, max_len=6):
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return st.builds(
        lambda ls: BraidWord(n, tuple(ls)), st.lists(letter, max_size=max_len)
    )


class TestParse:
    def test_tokenization(self):
        w = parse_word(BORROMEAN, 3)
        assert w.letters == ((1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, -1))

    def test_empty_word_with_declared_n(self):
        assert parse_word("", 3) == BraidWord(3)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            parse_word("s3", 3)

    def test_inferred_strand_count(self):
        assert parse_word("s2").n == 3

    def test_powers_and_groups(self):
        assert parse_word("(s1 s2^-1)^3", 3) == parse_word(BORROMEAN, 3)
        assert parse_word("s1^-2", 2).letters == ((1, -1), (1, -1))
        assert parse_word("(s1 s2)^-1", 3).letters == ((2, -1), (1, -1))

    def test_malformed(self):
        for bad in ("x1", "s", "(s1", "s1)", "s1^x"):
            with pytest.raises(WordSyntaxError):
                parse_word(bad, 3)


class TestPermutation:
    def test_single_transposition(self):
        assert permutation(BraidWord(2, ((1, 1),))) == (2, 1)

    def test_borromean_is_pure(self):
        assert permutation(parse_word(BORROMEAN, 3)) == (1, 2, 3)

    def test_empty_is_identity(self):
        assert permutation(BraidWord(3)) == (1, 2, 3)

    @given(words(), words())
    def test_composition_left_to_right(self, a, b):
        pa, pb = permutation(a), permutation(b)
        pab = permutation(concatenate(a, b))
        assert pab == tuple(pb[pa[i] - 1] for i in range(a.n))


class TestCycles:
    def test_s1_in_b3(self):
        cs = cycle_structure(BraidWord(3, ((1, 1),)))
        assert cs.lengths == (2, 1)
        assert cs.num_components == 2
        assert cs.component_of == (1, 1, 2)

    def test_pure_braid(self):
        cs = cycle_structure(parse_word(BORROMEAN, 3))
        assert cs.lengths == (1, 1, 1)

    def test_knot_closure(self):
        cs = cycle_structure(parse_word("s1 s2", 3))
        assert cs.lengths == (3,)


class TestLinking:
    def test_hopf(self):
        assert linking_number(BraidWord(2, ((1, 1), (1, 1))), 1, 2) == 1

    def test_borromean(self):
        w = parse_word(BORROMEAN, 3)
        assert linking_number(w, 1, 2) == 0
        assert linking_number(w, 1, 3) == 0
        assert linking_number(w, 2, 3) == 0

    def test_empty(self):
        assert linking_number(BraidWord(3), 1, 2) == 0

    def test_invalid_component(self):
        for i, j in ((1, 1), (0, 1), (1, 4)):
            with pytest.raises(ValueError, match="invalid component pair"):
                linking_number(BraidWord(3), i, j)
        with pytest.raises(ValueError, match="for 1 components"):
            linking_number(parse_word("s1 s2", 3), 1, 2)

    def test_table_equals_per_pair_walk(self):
        rng = random.Random(26)
        pure = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            w = random_word(n, rng.randint(0, 12), rng)
            if rng.random() < 0.5:
                w = free_reduce(power(w, pure_power_exponent(w)))
            m = cycle_structure(w).num_components
            pure += m == n
            expected = {
                (i, j): reference_linking_number(w, i, j)
                for i in range(1, m + 1) for j in range(1, m + 1) if i != j
            }
            assert linking_numbers(w) == expected, w
        assert pure >= 100

    @given(words(3, 6))
    def test_invariant_under_free_reduction(self, w):
        cs = cycle_structure(w)
        if cs.num_components < 2:
            return
        assert linking_number(w, 1, 2) == linking_number(free_reduce(w), 1, 2)
        assert exponent_sum(w) == exponent_sum(free_reduce(w))


class TestExponentSum:
    def test_balanced(self):
        assert exponent_sum(parse_word(BORROMEAN, 3)) == 0

    def test_delta(self):
        assert exponent_sum(garside_delta(3)) == 3

    def test_empty(self):
        assert exponent_sum(BraidWord(4)) == 0


class TestGarsideDelta:
    def test_n3_half_twist(self):
        assert garside_delta(3).letters == ((1, 1), (2, 1), (1, 1))

    def test_n2(self):
        assert garside_delta(2).letters == ((1, 1),)

    def test_n4_word(self):
        d = garside_delta(4)
        assert len(d) == 6
        assert d.letters == ((1, 1), (2, 1), (1, 1), (3, 1), (2, 1), (1, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conjugation_flips_generators(self, n):
        # Delta s_i Delta^-1 = s_{n-i}, checked on permutations here and via
        # the Burau oracle in test_oracle
        d = garside_delta(n)
        for i in range(1, n):
            lhs = concatenate(concatenate(d, BraidWord(n, ((i, 1),))), invert(d))
            assert permutation(lhs) == permutation(BraidWord(n, ((n - i, 1),)))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            garside_delta(1)


class TestGroupOps:
    def test_power_length(self):
        assert len(power(parse_word("s1 s2^-1", 3), 3)) == 6

    def test_free_reduce(self):
        w = parse_word("s1 s1^-1 s2", 3)
        assert free_reduce(w).letters == ((2, 1),)

    def test_invert(self):
        assert invert(parse_word("s1 s2", 3)).letters == ((2, -1), (1, -1))

    def test_mismatched_strands(self):
        with pytest.raises(ValueError):
            concatenate(BraidWord(2), BraidWord(3))

    @given(words())
    def test_free_reduce_idempotent(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)

    @given(words())
    def test_inverse_cancels(self, w):
        assert len(free_reduce(concatenate(w, invert(w)))) == 0


class TestPurePower:
    def test_three_cycle(self):
        assert pure_power_exponent(parse_word("s1 s2", 3)) == 3

    def test_pure_word(self):
        assert pure_power_exponent(parse_word(BORROMEAN, 3)) == 1

    def test_transposition(self):
        assert pure_power_exponent(BraidWord(3, ((1, 1),))) == 2

    def test_exhaustive_small(self):
        for n in (2, 3, 4):
            for l in range(0, 7 if n < 4 else 5):
                for w in iter_reduced_words(n, l):
                    assert is_pure(power(w, pure_power_exponent(w)))


class TestSubbraid:
    def test_disjoint_letter_dropped(self):
        w = parse_word("s1 s3", 4)
        sub = subbraid(w, {1})  # component 1 = strands {1,2}
        assert sub == BraidWord(2, ((1, 1),))

    def test_strand_tracking(self):
        # middle letter of s1 s2 s1 crosses strands 1 and 3
        w = parse_word("s1 s2 s1", 3)
        cs = cycle_structure(w)
        assert cs.component_of == (1, 2, 1)
        sub = subbraid(w, {1})
        assert sub == BraidWord(2, ((1, 1),))

    def test_keep_all_components(self):
        w = parse_word("s1 s2^-1 s1", 3)
        m = cycle_structure(w).num_components
        assert subbraid(w, set(range(1, m + 1))) == w

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            subbraid(parse_word("s1", 3), {5})

    @given(words(4, 5))
    def test_full_keep_commutes_with_reduction(self, w):
        m = cycle_structure(w).num_components
        allc = set(range(1, m + 1))
        assert free_reduce(subbraid(w, allc)) == free_reduce(w)
