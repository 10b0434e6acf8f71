import hashlib
import random
from dataclasses import replace

import pytest
from helpers import (
    _level_closed_loops,
    _reference_eliminate_inplace,
    golden_words,
    invariant_screen,
    isotopy_by_full_product,
    pure_word_of_length,
    reference_reduce,
    reference_trace_code,
    reference_validate_trihedron,
    wide_words,
)

from braidtrace import equivalence as eq
from braidtrace import levels as lv
from braidtrace import oracle
from braidtrace.checks import run_structure_checks
from braidtrace.serialize import canonical_json, graph_to_document
from braidtrace.tracegraph import build_trace_graph, pair_partners
from braidtrace.words import (
    BraidWord,
    concatenate,
    free_reduce,
    invert,
    is_pure,
    iter_reduced_words,
    parse_word,
    power,
    pure_power_exponent,
    random_word,
)


def conjugate(w, by):
    return free_reduce(concatenate(concatenate(by, w), invert(by)))


# sha256 of the sorted decision_rendering(), recorded before isotopic
# compared trace codes instead of rebuilding vertex triplets per candidate
DECISIONS_SHA256 = "09562d8ffddb9f50ad12bbb6197279c6cbf8c1c68d398f5f024ed9abd96853c3"


def decision_pairs():
    """Rotation pairs that match only under a non-zero marking shift, then
    seeded B3-B6 words each against a cyclic rotation and a random word."""
    rng = random.Random(2713)
    shifted = [
        ("s3^-1 s5 s1 s4^-1", "s5 s1 s4^-1 s3^-1", 6),
        ("s3^-1 s5 s1", "s1 s3^-1 s5", 6),
        ("s5^-1 s2^-1", "s2^-1 s5^-1", 6),
        ("s3 s1 s2^-1 s5^-1", "s2^-1 s5^-1 s3 s1", 6),
        ("s1^-1 s4", "s4 s1^-1", 5),
        ("s2 s4", "s4 s2", 5),
    ]
    pairs = [(parse_word(a, n), parse_word(b, n)) for a, b, n in shifted]
    for k in range(75):
        n = 3 + k % 4
        l = rng.randint(1, 6 if n == 3 else 4)
        w = random_word(n, l, rng)
        cut = rng.randrange(l + 1)
        pairs.append((w, BraidWord(n, w.letters[cut:] + w.letters[:cut])))
        pairs.append((w, random_word(n, l, rng)))
    return pairs


def decision_rendering() -> list[str]:
    """(equal, witness, candidates_tried, flags) per pair, every other pair
    reduced (the second graph in a seeded order)."""
    lines = []
    for k, (a, b) in enumerate(decision_pairs()):
        g1, g2 = build_trace_graph(a), build_trace_graph(b)
        if k % 2:
            g1, g2 = eq.reduce(g1), eq.reduce(g2, rng=random.Random(k))
        try:
            res = eq.isotopic(g1, g2)
            lines.append(f"{k} {(res.equal, res.witness, res.candidates_tried, res.flags)!r}")
        except Exception as ex:
            lines.append(f"{k} {type(ex).__name__}")
    return sorted(lines)


# sha256 of reduced_bytes(), recorded when the builder began to read each
# visit end at its vertex's own trisecant s, which moved edge dt (and the
# dt a splice sums) in the written digits and no other field
REDUCED_BYTES_SHA256 = "fbd0be1ac15f2ee4a2bf67d925b7545b657a5a3d18c13033024c2296efe6eed5"


def reduced_bytes() -> str:
    """canonical_json of each golden and wide word's graph reduced in the
    default order and in three seeded orders, then with the first
    eliminable trihedron eliminated."""
    docs = []
    for w in golden_words() + wide_words():
        g = build_trace_graph(w)
        for rng in (None, random.Random(1), random.Random(2), random.Random(3)):
            docs.append(canonical_json(graph_to_document(eq.reduce(g, rng=rng))))
        t = next((t for t in eq.find_embedded_trihedra(g) if eq.is_eliminable(g, t)), None)
        if t is not None:
            docs.append(canonical_json(graph_to_document(eq.eliminate_trihedron(g, t))))
    return "".join(docs)


class TestTraceCode:
    def test_triplet_count(self):
        g = build_trace_graph(parse_word("s1", 3))
        tc = eq.trace_code(g)
        assert len(tc.piece1) == 2

    def test_empty_word_code(self):
        g = build_trace_graph(BraidWord(3))
        tc = eq.trace_code(g)
        assert tc.piece1 == ()
        assert len(tc.piece2) == 2  # levels 1 and 2 both present
        assert all(tc.piece2)
        assert len(tc.free_circles) == 6

    def test_codes_equal_reflexive(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        assert eq.trace_code(g) == eq.trace_code(g)

    def test_equal_codes_hash_alike(self):
        # equality ignores the order of piece1 and free_circles, so the hash
        # must too
        a = eq.trace_code(build_trace_graph(parse_word("s1 s2^-1 s3 s2", 4)))
        b = replace(a, piece1=a.piece1[::-1], free_circles=a.free_circles[::-1])
        assert a.piece1 != b.piece1 and a == b
        assert hash(a) == hash(b) and len({a, b}) == 1


def code_pieces(tc):
    return (tc.piece1, tc.piece2, tc.piece3, tc.free_circles)


@pytest.fixture()
def built_levels(monkeypatch):
    """The levels `level_subgraph` builds, in call order."""
    calls = []
    original = lv.level_subgraph

    def counting(g, k):
        calls.append(k)
        return original(g, k)

    monkeypatch.setattr(lv, "level_subgraph", counting)
    return calls


class TestMirroredLevels:
    """`trace_code` takes level n - k's profiles from level k when the t+pi
    pairing carries one onto the other; the reference builds every level."""

    def test_codes_match_the_all_levels_reference(self):
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            for h in (g, eq.reduce(g), eq.reduce(g, rng=random.Random(7))):
                assert code_pieces(eq.trace_code(h)) == code_pieces(reference_trace_code(h)), w

    def test_built_b3_graph_builds_only_level_one(self, built_levels):
        eq.trace_code(build_trace_graph(parse_word("s1 s2^-1 s1 s2 s2", 3)))
        assert built_levels == [1]

    @pytest.mark.parametrize(
        "text", ["s1 s2 s1 s2 s1^-1 s2", "s1 s2 s1 s2^-1 s1^-1 s2", "s1^-1 s2^-1 s1 s1 s2^-1 s1"]
    )
    def test_asymmetric_reduction_builds_the_mirror_level(self, text, built_levels):
        # reduction kept vertices whose t+pi partners it removed
        g = eq.reduce(build_trace_graph(parse_word(text, 3)))
        tc = eq.trace_code(g)
        assert built_levels == [1, 2]
        assert code_pieces(tc) == code_pieces(reference_trace_code(g))

    @pytest.mark.parametrize("change", ["drop", "swap", "dt", "order"])
    def test_broken_pairing_builds_the_mirror_level(self, change, built_levels):
        g = build_trace_graph(parse_word("s1 s2^-1 s3 s2 s1", 4))
        eq.trace_code(g)
        assert built_levels == [1, 2]
        e1, e2 = sorted(e for e in g.edges if g.edges[e].level == 1)[:2]
        if change == "drop":
            del g.edge_partner[e1]
        elif change == "swap":
            g.edge_partner[e1], g.edge_partner[e2] = g.edge_partner[e2], g.edge_partner[e1]
        elif change == "dt":
            p = g.edges[g.edge_partner[e1]]
            g.edges[p.id] = replace(p, dt=p.dt + 1e-7)
        else:
            # a level-3 vertex with two level-3 edges above swaps them
            v = next(
                v for v in g.vertices.values()
                if sum(g.edges[e].level == 3 for e in v.above) == 2
            )
            g.vertices[v.id] = replace(v, above=v.above[::-1])
        built_levels.clear()
        tc = eq.trace_code(g)
        assert built_levels == [1, 2, 3]
        assert code_pieces(tc) == code_pieces(reference_trace_code(g))


class TestIsotopic:
    def test_reflexive(self):
        for text, n in (("s1", 3), ("s1 s2^-1", 3), ("s2 s3 s3 s2", 4), ("", 2)):
            w = parse_word(text, n) if text else BraidWord(n)
            g = build_trace_graph(w)
            assert eq.isotopic(g, g)

    def test_borromean_vs_trivial(self):
        g1 = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        g2 = build_trace_graph(BraidWord(3))
        assert not eq.isotopic(g1, g2)

    def test_cyclic_word_rotation_of_knot(self):
        a = build_trace_graph(parse_word("s1 s2^-1", 3))
        b = build_trace_graph(parse_word("s2^-1 s1", 3))
        res = eq.isotopic(a, b)
        assert res and res.witness is not None

    def test_symmetric_on_samples(self, rng):
        for _ in range(4):
            w1 = random_word(3, rng.randint(1, 4), rng)
            w2 = random_word(3, rng.randint(1, 4), rng)
            g1, g2 = build_trace_graph(w1), build_trace_graph(w2)
            assert bool(eq.isotopic(g1, g2)) == bool(eq.isotopic(g2, g1))

    def test_pruned_equals_full_product(self, rng):
        pairs = [
            ("s1 s2^-1", "s2^-1 s1", 3),
            ("s1 s2", "s2 s1", 3),
            ("s1 s1", "s1 s1", 3),
            ("s1 s2", "s1 s2^-1", 3),
            # isotopic only under the marking shift {(1,2): 1}
            ("s3^-1 s5 s1 s4^-1", "s5 s1 s4^-1 s3^-1", 6),
        ]
        for ta, tb, n in pairs:
            a = build_trace_graph(parse_word(ta, n))
            b = build_trace_graph(parse_word(tb, n))
            assert eq.isotopic(a, b).witness == isotopy_by_full_product(a, b)

    def test_golden_decisions(self):
        text = "\n".join(decision_rendering())
        assert hashlib.sha256(text.encode()).hexdigest() == DECISIONS_SHA256

    def test_mismatched_strand_counts(self):
        with pytest.raises(ValueError):
            eq.isotopic(build_trace_graph(BraidWord(2)), build_trace_graph(BraidWord(3)))


class TestTrihedra:
    def test_borromean_second_graph_has_the_couple(self, borromean_graphs):
        _, g2 = borromean_graphs
        ths = [t for t in eq.find_embedded_trihedra(g2) if eq.is_eliminable(g2, t)]
        assert len(ths) == 2
        # the couple is symmetric under t -> t+pi
        (t1, t2) = ths
        assert {g2.vertex_partner[v] for v in t1.vertices} == set(t2.vertices)

    def test_no_multi_edges_no_trihedra(self):
        g = build_trace_graph(parse_word("s1", 3))
        assert eq.find_embedded_trihedra(g) == []

    def test_four_parallel_edges_are_not_eliminable(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        ths = eq.find_embedded_trihedra(g)
        assert ths and all(not eq.is_eliminable(g, t) for t in ths)

    def test_trihedron_vertex_triplets_match_theta_pattern(self, borromean_graphs):
        # through a theta the two outer circles swap sides: the triplets of
        # its two vertices have equal middles and swapped extremes
        _, g2 = borromean_graphs
        from braidtrace.equivalence import vertex_triplet

        for t in eq.find_embedded_trihedra(g2):
            if not eq.is_eliminable(g2, t):
                continue
            v1, v2 = (g2.vertices[v] for v in t.vertices)
            position = eq.circle_positions(g2)
            m1 = [m for m, _, _ in vertex_triplet(g2, v1, position)]
            m2 = [m for m, _, _ in vertex_triplet(g2, v2, position)]
            assert m1[1] == m2[1]
            assert {m1[0], m1[2]} == {m2[0], m2[2]}


def _records(g):
    """Every record of g and its t+pi pairing: the fields a document holds."""
    return (g.vertices, g.edges, g.circles, g.vertex_partner, g.edge_partner,
            g.circle_partner, g.pass_circle)


class TestEliminate:
    def test_removal_arithmetic(self, borromean_graphs):
        _, g2 = borromean_graphs
        t = next(t for t in eq.find_embedded_trihedra(g2) if eq.is_eliminable(g2, t))
        g3 = eq.eliminate_trihedron(g2, t)
        assert g3.num_vertices == g2.num_vertices - 2
        assert len(g3.edges) == len(g2.edges) - 6
        assert len(g3.circles) == len(g2.circles)

    def test_circle_markings_unchanged(self, borromean_graphs):
        _, g2 = borromean_graphs
        t = next(t for t in eq.find_embedded_trihedra(g2) if eq.is_eliminable(g2, t))
        g3 = eq.eliminate_trihedron(g2, t)
        assert {str(c.marking) for c in g3.circles.values()} == {
            str(c.marking) for c in g2.circles.values()
        }

    def test_circle_windings_preserved(self, borromean_graphs):
        _, g2 = borromean_graphs
        t = next(t for t in eq.find_embedded_trihedra(g2) if eq.is_eliminable(g2, t))
        g3 = eq.eliminate_trihedron(g2, t)
        for cid in g2.circles:
            assert g2.circles[cid].dz_total == g3.circles[cid].dz_total
            assert g2.circles[cid].dt_winding == g3.circles[cid].dt_winding

    def test_partners_name_survivors(self):
        # the t+pi pairing is read again after the splice: no entry names
        # a deleted record, and paired edges keep the level law
        spliced = 0
        for l in range(6):
            for w in iter_reduced_words(3, l):
                g = build_trace_graph(w)
                for t in eq.find_embedded_trihedra(g):
                    if not eq.is_eliminable(g, t):
                        continue
                    h = eq.eliminate_trihedron(g, t)
                    vp, ep = h.vertex_partner, h.edge_partner
                    assert set(vp) | set(vp.values()) <= set(h.vertices), w
                    assert set(ep) | set(ep.values()) <= set(h.edges), w
                    assert all(h.edges[p].level == 3 - h.edges[e].level for e, p in ep.items())
                    spliced += 1
        assert spliced
        # one trihedron of a t+pi couple leaves its partner's vertices
        # unpaired; eliminating the other one pairs every survivor again
        g = build_trace_graph(parse_word("s1 s2 s1^-1", 3))
        t = next(t for t in eq.find_embedded_trihedra(g) if eq.is_eliminable(g, t))
        h = eq.eliminate_trihedron(g, t)
        assert h.vertex_partner == {2: 3, 3: 2} and h.edge_partner == {}
        (t,) = [t for t in eq.find_embedded_trihedra(h) if eq.is_eliminable(h, t)]
        h = eq.eliminate_trihedron(h, t)
        assert set(h.vertex_partner) == set(h.vertices) == {2, 3}
        assert set(h.edge_partner) == set(h.edges)

    def test_validation_matches_the_circle_reading(self):
        # the rotation data gives each arc the neighbours its circle's edge
        # tuple gives; walk from each golden and wide word by eliminating
        # the first eliminable trihedron, and compare on every trihedron of
        # every graph reached; the reference splice levels closed loops
        # after it, as reduction once did, and its records must be equal
        # exactly, which gives equal documents
        graphs = trihedra = eliminable = 0
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            while g is not None:
                graphs += 1
                first = None
                for t in eq.find_embedded_trihedra(g):
                    trihedra += 1
                    try:
                        want = reference_validate_trihedron(g, t)
                    except eq.NotEliminable:
                        want = None
                    try:
                        got = eq._validate_trihedron(g, t)
                    except eq.NotEliminable:
                        got = None
                    assert got == want, (w, t)
                    if got is None:
                        continue
                    eliminable += 1
                    v1, v2 = (g.vertices[v] for v in t.vertices)
                    at_ends = {*v1.below, *v1.above, *v2.below, *v2.above}
                    assert at_ends == {x for row in got for x in row}, (w, t)
                    h = eq.eliminate_trihedron(g, t)
                    ref = g.copy()
                    _reference_eliminate_inplace(ref, t, want, max(g.edges))
                    _level_closed_loops(ref)
                    pair_partners(ref)
                    assert _records(h) == _records(ref), (w, t)
                    first = first or h
                g = first
        assert (graphs, trihedra, eliminable) == (243, 1395, 520)

    def test_not_eliminable_raises(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        t = eq.find_embedded_trihedra(g)[0]
        with pytest.raises(eq.NotEliminable):
            eq.eliminate_trihedron(g, t)


class TestReduce:
    def test_golden_reduced_bytes(self):
        digest = hashlib.sha256(reduced_bytes().encode()).hexdigest()
        assert digest == REDUCED_BYTES_SHA256

    def test_one_validation_per_elimination(self, monkeypatch):
        # reduce splices the plan that found the trihedron eliminable
        validate = eq._validate_trihedron
        plans = []

        def counting(g, t):
            plan = validate(g, t)
            plans.append(t)
            return plan

        monkeypatch.setattr(eq, "_validate_trihedron", counting)
        rng = random.Random(1414)
        words = [pure_word_of_length(400, 400_000)]  # criterion 10's l = 400
        for _ in range(10):
            w = random_word(3, rng.randint(4, 24), rng)
            words.append(free_reduce(power(w, pure_power_exponent(w))))
        eliminated = 0
        for w in words:
            g = build_trace_graph(w)
            plans.clear()
            r = eq.reduce(g)
            assert len(plans) == (g.num_vertices - r.num_vertices) // 2, w
            eliminated += len(plans)
        assert eliminated

    def test_reduce_matches_reference(self):
        # reduce drops whole pair groups named by the splice plan; the
        # reference takes each removed edge out of its group in turn
        rng = random.Random(1818)
        words = [random_word(rng.randint(4, 6), rng.randint(4, 10), rng) for _ in range(40)]
        for _ in range(20):
            w = random_word(3, rng.randint(4, 24), rng)
            words.append(free_reduce(power(w, pure_power_exponent(w))))
        words.append(pure_word_of_length(200, 200_000))  # criterion 10's l = 200
        eliminated = 0
        for w in words:
            g = build_trace_graph(w)
            for seed in (None, 1, 2, 3):
                rngs = (None, None) if seed is None else (random.Random(seed), random.Random(seed))
                got, want = eq.reduce(g, rng=rngs[0]), reference_reduce(g, rng=rngs[1])
                assert canonical_json(graph_to_document(got)) == canonical_json(
                    graph_to_document(want)
                ), (w, seed)
                eliminated += g.num_vertices - got.num_vertices
        assert eliminated

    def test_repeated_elimination_ends_isotopic_to_reduce(self):
        # eliminate_trihedron levels the loops it closes as reduce does, so
        # eliminating the first eliminable trihedron until none is left
        # ends where reduce ends, up to isotopy
        chains = 0
        for n, top in ((3, 5), (4, 3)):
            for w in (w for l in range(top + 1) for w in iter_reduced_words(n, l)):
                g = h = build_trace_graph(w)
                while t := next(
                    (t for t in eq.find_embedded_trihedra(h) if eq.is_eliminable(h, t)), None
                ):
                    h = eq.eliminate_trihedron(h, t)
                if h is not g:
                    chains += 1
                    assert eq.isotopic(h, eq.reduce(g)), w
        assert chains == 174

    def test_already_reduced_fixpoint(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        r = eq.reduce(g)
        assert r.num_vertices == g.num_vertices
        assert r.reduced_from == g.num_vertices

    def test_borromean_pair_reduces_to_isotopic(self, borromean_graphs):
        g1, g2 = borromean_graphs
        r1, r2 = eq.reduce(g1), eq.reduce(g2)
        assert (r1.num_vertices, r2.num_vertices) == (12, 12)
        assert eq.isotopic(r1, r2)

    def test_nonpure_graph_with_loops_reduces_to_itself(self):
        # TG(s1 in B_3) has two connecting edges plus loops, no theta
        g = build_trace_graph(parse_word("s1", 3))
        r = eq.reduce(g)
        assert r.num_vertices == 2
        assert len(r.edges) == len(g.edges)

    def test_random_orders_agree(self, borromean_graphs):
        _, g2 = borromean_graphs
        rng = random.Random(5)
        results = [eq.reduce(g2, rng=rng) for _ in range(4)] + [eq.reduce(g2)]
        for r in results[1:]:
            assert eq.isotopic(results[0], r)

    # words whose reduction closes loops: all 12 vertices of a word for the
    # inverse full twist go, and the 16 vertices of the far-commuting
    # conjugating letter s2 go while those of s4^-2 stay.  The first 40
    # seeds include orders in which loops that kept their last outside
    # edge's level got opposite levels or broke the t+pi law.
    CLOSING = pytest.mark.parametrize(
        "text,n,left", [("s1^-2 s2^-1 s1^-2 s2^-1", 3, 0), ("s2 s4^-2 s2^-1", 6, 16)]
    )
    SEEDS = range(40)

    @CLOSING
    def test_closed_loops_isotopic_in_every_order(self, text, n, left):
        g = build_trace_graph(parse_word(text, n))
        base = eq.reduce(g)
        assert base.num_vertices == left
        for seed in self.SEEDS:
            assert eq.isotopic(base, eq.reduce(g, rng=random.Random(seed))), seed

    @CLOSING
    def test_closed_loops_keep_the_level_law(self, text, n, left):
        # vertex count and read-back do not apply to a reduced graph; the
        # t+pi law must, over the rebuilt edge pairing
        g = build_trace_graph(parse_word(text, n))
        for seed in self.SEEDS:
            r = eq.reduce(g, rng=random.Random(seed))
            assert set(r.edge_partner) == set(r.edges), seed
            (law,) = [
                c for c in run_structure_checks(r)
                if c.name == "symmetry maps level k to n-k"
            ]
            assert law.ok, seed

    @pytest.mark.parametrize(
        "text", ["s1^-1 s2^-1 s1 s2^-1 s1", "s2 s1 s2^-1 s1 s2^-1", "s1 s2 s1 s2 s1^-1 s2"]
    )
    def test_level_law_over_a_partial_pairing(self, text):
        # reduction keeps different vertices on the two t+pi sides, so
        # some surviving edges have no partner; the law is read over the
        # paired ones and the unpaired ones are counted
        r = eq.reduce(build_trace_graph(parse_word(text, 3)))
        unpaired = sum(1 for e in r.edges if e not in r.edge_partner)
        assert unpaired > 0
        (law,) = [
            c for c in run_structure_checks(r)
            if c.name == "symmetry maps level k to n-k"
        ]
        assert law.ok
        assert law.detail == f"{unpaired} of {len(r.edges)} edges unpaired"

    @pytest.mark.parametrize(
        "a,b,n",
        [
            ("s2 s1 s2 s1^-1 s2^-1 s1^-1", "", 3),        # the trivial braid
            ("(s1^-1 s2^-1)^3", "(s2^-1 s1^-1)^3", 3),    # two words for one braid
        ],
    )
    def test_words_for_one_braid_reduce_alike(self, a, b, n):
        ga = build_trace_graph(parse_word(a, n))
        gb = build_trace_graph(parse_word(b, n) if b else BraidWord(n))
        assert eq.equivalent_up_to_trihedral(ga, gb)

    def test_input_graph_unchanged(self):
        # reduction shares the input's records with its working copy, so
        # no record may change in place, in any elimination order
        rng = random.Random(1729)
        checked = 0
        while checked < 12:
            n = 3 + checked % 4
            g = build_trace_graph(random_word(n, rng.randint(4, 10), rng))
            before = canonical_json(graph_to_document(g))
            if eq.reduce(g).num_vertices == g.num_vertices:
                continue
            for seed in range(5):
                eq.reduce(g, rng=random.Random(seed))
            assert canonical_json(graph_to_document(g)) == before
            checked += 1

    def test_monotone_and_symmetric(self, borromean_graphs):
        _, g2 = borromean_graphs
        r = eq.reduce(g2)
        assert r.num_vertices <= g2.num_vertices
        from braidtrace.tracegraph import symmetry_involution

        symmetry_involution(r)


class TestEquivalentUpToTrihedral:
    def test_borromean_benchmark(self, borromean_graphs):
        g1, g2 = borromean_graphs
        assert eq.equivalent_up_to_trihedral(g1, g2)

    def test_borromean_vs_trivial(self, borromean_graphs):
        g1, _ = borromean_graphs
        assert not eq.equivalent_up_to_trihedral(g1, build_trace_graph(BraidWord(3)))

    def test_pure_conjugate_of_borromean_word(self):
        w = parse_word("(s1 s2^-1)^3", 3)
        by = parse_word("s1^2", 3)
        assert is_pure(by)
        a, b = build_trace_graph(w), build_trace_graph(conjugate(w, by))
        assert eq.equivalent_up_to_trihedral(a, b)

    def test_cyclic_rotation_of_knot_word(self):
        # knot closures carry no component labels, so any cyclic rotation
        # of the word yields an isotopic trace graph
        a = build_trace_graph(parse_word("s1 s2", 3))
        b = build_trace_graph(parse_word("s2 s1", 3))
        assert eq.equivalent_up_to_trihedral(a, b)

    def test_component_relabeling_is_out_of_scope(self):
        # cyclic rotation by a non-pure prefix permutes closure components;
        # the labelled comparison legitimately refuses (conj3 handles it)
        a = build_trace_graph(parse_word("s1 s2 s1", 3))
        b = build_trace_graph(parse_word("s1 s1 s2", 3))
        assert a.cycles.lengths != b.cycles.lengths
        assert not eq.isotopic(a, b)

    def test_pure_conjugation_invariance_3braids(self, rng):
        base = [w for w in iter_reduced_words(3, 4) if is_pure(w)]
        conjs = [w for w in iter_reduced_words(3, 2) if is_pure(w)]
        for _ in range(5):
            w = base[rng.randrange(len(base))]
            by = conjs[rng.randrange(len(conjs))]
            a = build_trace_graph(w)
            b = build_trace_graph(conjugate(w, by))
            assert eq.equivalent_up_to_trihedral(a, b), (w, by)

    def test_soundness_vs_oracle_small(self):
        # any true verdict on 3-braids must be confirmed conjugate by Burau
        words = [w for l in range(0, 3) for w in iter_reduced_words(3, l)]
        for a in words:
            for b in words:
                if eq.equivalent_up_to_trihedral(
                    build_trace_graph(a), build_trace_graph(b)
                ):
                    assert oracle.conjugator_search(a, b, 6) is not None

    def test_n4_true_verdicts_imply_invariants(self, rng):
        for _ in range(4):
            w = random_word(4, rng.randint(1, 4), rng)
            by = random_word(4, rng.randint(1, 2), rng)
            cw = conjugate(w, by)
            res = eq.equivalent_up_to_trihedral(
                build_trace_graph(w), build_trace_graph(cw)
            )
            if res:
                assert invariant_screen(w) == invariant_screen(cw)
