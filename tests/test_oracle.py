import pytest
from helpers import (
    Laurent,
    burau3,
    burau_ball,
    burau_conjugator_search,
    burau_unreduced,
    char_poly,
    conjugacy_classes_within_ball,
    identity_matrix,
    invariant_screen,
    mat_key,
    mat_mul,
    random_rewrite,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtrace import cli, oracle
from braidtrace import threebraid as tb
from braidtrace.oracle import conjugate_b3, conjugator_search
from braidtrace.tracegraph import build_trace_graph
from braidtrace.words import (
    BraidWord,
    concatenate,
    free_reduce,
    garside_delta,
    invert,
    iter_reduced_words,
    parse_word,
    random_word,
)


def b3_words(max_len=6):
    letter = st.tuples(st.integers(1, 2), st.sampled_from((1, -1)))
    return st.builds(
        lambda ls: BraidWord(3, tuple(ls)), st.lists(letter, max_size=max_len)
    )


class TestLaurent:
    def test_arithmetic(self):
        t = Laurent.var(1)
        one = Laurent.const(1)
        assert (t + one) * (t - one) == t * t - one
        assert (t * Laurent.var(-1)) == one

    def test_hash_eq(self):
        assert hash(Laurent({2: 3})) == hash(Laurent({2: 3}))
        assert Laurent({0: 0}) == Laurent()


class TestBurau3:
    def test_braid_relation(self):
        assert burau3(parse_word("s1 s2 s1", 3)) == burau3(parse_word("s2 s1 s2", 3))

    def test_inverse_pair(self):
        assert burau3(parse_word("s1 s1^-1", 3)) == identity_matrix(2)

    def test_generators_differ(self):
        assert burau3(parse_word("s1", 3)) != burau3(parse_word("s2", 3))

    def test_rejects_other_strand_counts(self):
        with pytest.raises(ValueError):
            burau3(BraidWord(4))

    @given(b3_words(4), b3_words(4))
    def test_homomorphism(self, a, b):
        assert burau3(concatenate(a, b)) == mat_mul(burau3(a), burau3(b))

    @given(b3_words(5))
    @settings(max_examples=40)
    def test_invariant_under_rewriting(self, w):
        import random

        rng = random.Random(99)
        assert burau3(random_rewrite(w, rng, steps=3)) == burau3(w)


class TestBurauUnreduced:
    @pytest.mark.parametrize("n", [3, 4])
    def test_delta_conjugation(self, n):
        d = garside_delta(n)
        for i in range(1, n):
            lhs = concatenate(concatenate(d, BraidWord(n, ((i, 1),))), invert(d))
            rhs = BraidWord(n, ((n - i, 1),))
            assert burau_unreduced(lhs) == burau_unreduced(rhs)

    def test_char_poly_is_conjugacy_invariant(self):
        a = parse_word("s1 s2 s3", 4)
        w = parse_word("s2 s1^-1", 4)
        b = concatenate(concatenate(w, a), invert(w))
        assert char_poly(burau_unreduced(a)) == char_poly(burau_unreduced(b))


class TestConjugatorSearch:
    def test_identity_pair(self):
        w = parse_word("s1 s2", 3)
        found = conjugator_search(w, w, 2)
        assert found is not None and len(found) == 0

    def test_s1_s2(self):
        found = conjugator_search(parse_word("s1", 3), parse_word("s2", 3), 3)
        assert found is not None and len(found) <= 3
        # the witness really conjugates
        lhs = concatenate(concatenate(found, parse_word("s1", 3)), invert(found))
        assert burau3(lhs) == burau3(parse_word("s2", 3))

    def test_unknown_for_nonconjugate(self):
        assert conjugator_search(parse_word("s1", 3), parse_word("s1 s1", 3), 4) is None

    def test_monotone_in_depth(self):
        a, b = parse_word("s1", 3), parse_word("s2", 3)
        w2 = conjugator_search(a, b, 2)
        w4 = conjugator_search(a, b, 4)
        assert w2 is not None and w4 is not None and w2 == w4

    def test_class_partition(self):
        ws = [parse_word(x, 3) for x in ("s1", "s2", "s1^-1", "s1 s1", "")]
        classes = conjugacy_classes_within_ball(ws, 4)
        as_sets = sorted(tuple(c) for c in classes)
        assert as_sets == [(0, 1), (2,), (3,), (4,)]


class TestInvariantScreen:
    def test_conjugates_agree(self):
        a = parse_word("(s1 s2^-1)^3", 3)
        w = parse_word("s2 s1", 3)
        b = concatenate(concatenate(w, a), invert(w))
        assert invariant_screen(a) == invariant_screen(b)

    def test_relabelling_conjugates_agree(self):
        # conjugation by the half twist exchanges components 1 and 3
        a, b = parse_word("s1^2", 3), parse_word("s2^2", 3)
        assert conjugator_search(a, b, 3) is not None
        assert invariant_screen(a) == invariant_screen(b)

    def test_components_of_unequal_length_are_never_exchanged(self):
        # B4, cycle type (1, 1, 2): the half twist conjugates s1 s2^2 to
        # s3 s2^2, both linking the 2-cycle to a fixed strand; s1 s3^2 links
        # the two fixed strands instead, with the same multiset of numbers
        a = parse_word("s1 s2^2", 4)
        b = parse_word("s3 s2^2", 4)
        c = parse_word("s1 s3^2", 4)
        assert invariant_screen(a) == invariant_screen(b)
        assert invariant_screen(a).cycle_type == invariant_screen(c).cycle_type
        assert sorted(invariant_screen(a).linking_numbers) == sorted(
            invariant_screen(c).linking_numbers
        )
        assert invariant_screen(a).linking_numbers != invariant_screen(c).linking_numbers

    def test_distinguishes_exponent_sum(self):
        assert invariant_screen(parse_word("s1", 3)) != invariant_screen(
            parse_word("s1^-1", 3)
        )


class TestConjugateB3:
    def test_agrees_with_trace_decision_on_all_short_pairs(self):
        # every ordered pair of freely reduced words with l <= 4; the trace
        # decision raises on disagreement, and the count was recorded before
        # the decision was checked against conjugate_b3
        words = [w for l in range(5) for w in iter_reduced_words(3, l)]
        conjugate = 0
        for a in words:
            for b in words:
                exact = conjugate_b3(a, b)
                assert bool(tb.conjugate_3braids(a, b)) == exact, (a, b)
                conjugate += exact
        assert (len(words), conjugate) == (161, 1537)

    def test_ball_classes_are_conjugate(self):
        words = [w for l in range(4) for w in iter_reduced_words(3, l)]
        for cls in conjugacy_classes_within_ball(words, 6):
            for i in cls:
                for j in cls:
                    assert conjugate_b3(words[i], words[j]), (words[i], words[j])

    def test_seeded_conjugates(self, rng):
        for _ in range(200):
            a = random_word(3, rng.randint(1, 24), rng)
            beta = random_word(3, rng.randint(0, 6), rng)
            b = free_reduce(concatenate(concatenate(beta, a), invert(beta)))
            assert conjugate_b3(a, b), (a, beta)

    def test_full_twist_is_not_trivial(self):
        # equal images modulo the centre: only the exponent sum tells them apart
        full_twist = concatenate(garside_delta(3), garside_delta(3))
        assert oracle._cyclically_reduced_mod_centre(full_twist) == ""
        assert not conjugate_b3(full_twist, BraidWord(3))
        assert conjugate_b3(full_twist, parse_word("(s1 s2)^3", 3))

    def test_small_cases(self):
        assert conjugate_b3(parse_word("s1", 3), parse_word("s2", 3))
        assert not conjugate_b3(parse_word("s1", 3), parse_word("s1^-1", 3))
        assert not conjugate_b3(parse_word("s1 s2", 3), parse_word("s1^2", 3))
        with pytest.raises(ValueError):
            conjugate_b3(BraidWord(4), BraidWord(4))

    def test_disagreement_fails_loudly(self, monkeypatch, capsys):
        exact = oracle.conjugate_b3
        monkeypatch.setattr(oracle, "conjugate_b3", lambda a, b: not exact(a, b))
        for a, b in (("s1", "s2"), ("s1", "s1^-1")):
            with pytest.raises(RuntimeError, match="exact B3 check"):
                tb.conjugate_3braids(parse_word(a, 3), parse_word(b, 3))
            assert cli.main(["conj3", "--a", a, "--b", b]) == 2
            assert "exact B3 check" in capsys.readouterr().err


class TestElementKeyAgainstBurau:
    """The normal form modulo the centre with the exponent sum, and the
    ball and conjugator search built on it, against the faithful Burau
    representation."""

    def test_word_problem_partition(self):
        words = [w for l in range(7) for w in iter_reduced_words(3, l)]
        by_key, by_burau = {}, {}
        for i, w in enumerate(words):
            by_key.setdefault(oracle._element_key(w.letters), []).append(i)
            by_burau.setdefault(mat_key(burau3(w)), []).append(i)
        assert (len(words), len(by_burau)) == (1457, 577)
        assert sorted(by_key.values()) == sorted(by_burau.values())

    def test_ball_matches_burau_ball(self):
        ball = list(oracle._ball_elements(7))
        assert ball == [word for word, _ in burau_ball(7)]
        assert len(ball) == 1233

    def test_witnesses_match_burau_search(self, rng):
        found = 0
        for i in range(300):
            a = random_word(3, rng.randint(1, 8), rng)
            if i % 2 == 0:
                beta = random_word(3, rng.randint(0, 5), rng)
                b = free_reduce(concatenate(concatenate(beta, a), invert(beta)))
            else:
                b = random_word(3, rng.randint(1, 8), rng)
            witness = conjugator_search(a, b, 5)
            assert witness == burau_conjugator_search(a, b, 5), (a, b)
            found += witness is not None
        assert found == 161

    def test_full_twist_is_not_the_identity(self):
        # both normal forms are empty: only the exponent sum tells them apart
        full_twist = concatenate(garside_delta(3), garside_delta(3))
        assert oracle._element_key(full_twist.letters) == ("", 6)
        assert oracle._element_key(()) == ("", 0)
        assert burau3(full_twist) != identity_matrix(2)


class TestBruteCounts:
    @pytest.mark.parametrize(
        "text,n",
        [("s1", 3), ("s1 s2", 3), ("(s1 s2^-1)^3", 3), ("s2 s3 s3 s2", 4), ("s1", 2)],
    )
    def test_agreement(self, text, n):
        g = build_trace_graph(parse_word(text, n))
        rep = oracle.brute_counts(g)
        assert rep.ok, rep.detail
        assert sum(rep.per_circle_vertices) == 3 * rep.vertices

    def test_pure_b3_has_six_circles(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        assert oracle.brute_counts(g).circles == 6

    def test_b2_no_vertices(self):
        g = build_trace_graph(parse_word("s1", 2))
        rep = oracle.brute_counts(g)
        assert rep.circles == 1 and rep.vertices == 0
