import hashlib
import itertools
import random

import pytest
from helpers import (
    _cls,
    brute_maximal_class,
    is_degenerate_by_enumeration,
    johnson_cycle_classes,
    subset_cycle_classes,
)

from braidtrace import equivalence as eq
from braidtrace import levels as lv
from braidtrace.equivalence import reduce
from braidtrace.tracegraph import build_trace_graph
from braidtrace.words import iter_reduced_words, parse_word, random_word

# frozen witnesses from scripts/scan_nondegenerate.py
NONDEG_WITNESS = ("s1 s2", 4, 2)       # word, strands, level with two independent classes
NONDEG_WITNESS_R0 = ("s1 s3", 4, 1)    # attractor class (1,0): the r=0 branch of M


class TestLevelSubgraph:
    def test_b2_whole_graph_no_vertices(self):
        g = build_trace_graph(parse_word("s1 s1", 2))
        s = lv.level_subgraph(g, 1)
        assert set(s.edges) == set(g.edges)
        assert s.vertices == ()
        assert len(s.loops) == 2

    def test_b3_levels_partition_edges(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        s1, s2 = lv.level_subgraph(g, 1), lv.level_subgraph(g, 2)
        assert sorted(s1.edges + s2.edges) == sorted(g.edges)

    def test_b4_far_levels_share_no_vertex(self):
        g = build_trace_graph(parse_word("s2 s3 s3 s2", 4))
        s1, s3 = lv.level_subgraph(g, 1), lv.level_subgraph(g, 3)
        assert not set(s1.vertices) & set(s3.vertices)

    def test_trivalence(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        for k in (1, 2):
            s = lv.level_subgraph(g, k)
            for v in s.vertices:
                down, up = len(s.down_of[v]), len(s.up_of[v])
                assert down + up == 3 and down in (1, 2)

    def test_out_of_range(self):
        g = build_trace_graph(parse_word("s1", 3))
        with pytest.raises(ValueError):
            lv.level_subgraph(g, 3)


class TestRightAttractors:
    def test_vertex_free_circles_are_attractors(self):
        g = build_trace_graph(parse_word("s1 s1", 2))
        ats = lv.right_attractors(lv.level_subgraph(g, 1))
        assert len(ats) == 2
        assert {a.homology for a in ats} == {(1, -1)}

    def test_positive_vertical_winding(self):
        for text, n in (("s1", 3), ("(s1 s2^-1)^3", 3), ("s2 s3 s3 s2", 4)):
            g = build_trace_graph(parse_word(text, n))
            for k in range(1, n):
                for a in lv.right_attractors(lv.level_subgraph(g, k)):
                    assert a.homology[0] > 0

    def test_walks_merge(self):
        # deterministic successor map: the attractor set never depends on
        # where the walk starts, and attractors are pairwise vertex-disjoint
        g = build_trace_graph(parse_word("s1 s2 s1 s2^-1", 3))
        for k in (1, 2):
            s = lv.level_subgraph(g, k)
            ats = lv.right_attractors(s)
            seen = set()
            for a in ats:
                verts = {g.edges[e].tail for e in a.edges if g.edges[e].tail is not None}
                assert not verts & seen
                seen |= verts

    def test_once_per_level(self, monkeypatch):
        # the attractor profile and the maximal profile of a non-degenerate
        # level share one walk
        calls = []
        walk = lv.right_attractors
        monkeypatch.setattr(lv, "right_attractors", lambda s: calls.append(s.level) or walk(s))
        g = build_trace_graph(parse_word(NONDEG_WITNESS[0], NONDEG_WITNESS[1]))
        levels = [lv.level_subgraph(g, k) for k in range(1, g.n)]
        lv.attractor_profile(levels)
        assert lv.maximal_profile(levels)[NONDEG_WITNESS[2]] is not None
        assert sorted(calls) == list(range(1, g.n))
        assert [s.attractors for s in levels] == [tuple(walk(s)) for s in levels]


class TestCycleClasses:
    def test_single_cycle_subgraph_degenerate(self):
        g = build_trace_graph(parse_word("s1", 2))
        s = lv.level_subgraph(g, 1)
        assert len(lv.simple_cycles(s)) == 1
        assert lv.is_degenerate(s)

    def test_vertex_free_subgraph_degenerate(self):
        g = build_trace_graph(parse_word("s1 s1", 2))
        assert lv.is_degenerate(lv.level_subgraph(g, 1))

    def test_nondegenerate_witness(self):
        text, n, k = NONDEG_WITNESS
        g = build_trace_graph(parse_word(text, n))
        s = lv.level_subgraph(g, k)
        assert not lv.is_degenerate(s)
        classes = lv.cycle_classes(s) - {(0, 0)}
        a, *rest = sorted(classes)
        assert any(a[0] * c[1] - a[1] * c[0] != 0 for c in rest)

    def test_rank_shortcut_matches_enumeration(self):
        for l in range(0, 5):
            for w in iter_reduced_words(3, l):
                g = build_trace_graph(w)
                for k in (1, 2):
                    s = lv.level_subgraph(g, k)
                    assert lv.is_degenerate(s) == is_degenerate_by_enumeration(s)

    def test_budget_error(self):
        text, n, k = NONDEG_WITNESS
        g = build_trace_graph(parse_word(text, n))
        s = lv.level_subgraph(g, k)
        with pytest.raises(lv.CycleBudgetError):
            lv.simple_cycles(s, budget=1)

    def test_class_sets_match_independent_enumerations(self):
        for text, n in (("s1 s2", 4), ("s1 s2^-1 s1", 3), ("s2 s3 s3 s2", 4)):
            g = build_trace_graph(parse_word(text, n))
            for k in range(1, n):
                s = lv.level_subgraph(g, k)
                mine = {_cls(g, c) for c in lv.simple_cycles(s)}
                assert mine == johnson_cycle_classes(s)
                if len(s.edges) <= 16:
                    assert mine == subset_cycle_classes(s)


class TestCycleSearchDifferential:
    # reduced graphs of random words from the isotopy benchmark's cells
    CELLS = [(3, l) for l in range(6, 11)] + [(n, l) for n in (4, 5, 6) for l in (4, 5)]
    # sha256 of repr((simple_cycles(s), sorted(cycle_classes(s)))), one line
    # per level, over reduced_levels and then both levels of every freely
    # reduced B3 word of length <= 4 (458 levels, 30,939 cycles), recorded
    # while the search still restarted with pruning past a node cap
    LISTING_SHA256 = "04ad01f3e394f01ee22c860a5288fafa6499a435b525c9398eedaa9dea5d1fab"

    @pytest.fixture(scope="class")
    def reduced_levels(self):
        rng = random.Random(808)
        out = []
        for _ in range(4):
            for n, l in self.CELLS:
                g = reduce(build_trace_graph(random_word(n, l, rng)))
                out += [lv.level_subgraph(g, k) for k in range(1, n)]
        return out

    def test_classes_match_johnson(self, reduced_levels):
        # degenerate levels included: the polygon is then a segment or a point
        for s in reduced_levels:
            reference = johnson_cycle_classes(s)
            assert lv.cycle_classes(s) == reference
            assert lv.simple_cycle_classes(s) == reference - {(0, 0)}

    def test_maximal_class_matches_brute_force(self, reduced_levels):
        nondeg = [s for s in reduced_levels if not lv.is_degenerate(s)]
        assert nondeg
        for s in nondeg:
            att = sorted({a.homology for a in lv.right_attractors(s)})[0]
            assert lv.maximal_class(s, att) == brute_maximal_class(s, att)

    def test_attractor_classes_match_float_sums(self, reduced_levels):
        for s in reduced_levels:
            for a in lv.right_attractors(s):
                assert a.homology == _cls(s.graph, [(e, 1) for e in a.edges])

    def test_cycles_are_distinct_edge_sets(self, reduced_levels):
        for s in reduced_levels:
            cycles = lv.simple_cycles(s)
            assert len({frozenset(e for e, _ in c) for c in cycles}) == len(cycles)

    def test_listing_digest(self, reduced_levels):
        h = hashlib.sha256()
        levels = list(reduced_levels)
        for l in range(5):
            for w in iter_reduced_words(3, l):
                g = build_trace_graph(w)
                levels += [lv.level_subgraph(g, k) for k in (1, 2)]
        for s in levels:
            h.update(repr((lv.simple_cycles(s), sorted(lv.cycle_classes(s)))).encode() + b"\n")
        assert h.hexdigest() == self.LISTING_SHA256

    def test_budget_threshold_is_the_cycle_count(self, reduced_levels):
        for s in reduced_levels:
            n_cycles = len(lv.simple_cycles(s))
            for search in (lv.simple_cycles, lv.cycle_classes):
                search(s, budget=n_cycles)
                with pytest.raises(lv.CycleBudgetError):
                    search(s, budget=n_cycles - 1)


class TestClassPolygon:
    # level 1 of B3 s1 s2^-1: P is a hexagon whose lattice points include
    # classes no simple cycle has
    WITNESS = ("s1 s2^-1", 3, 1)

    @pytest.fixture(scope="class")
    def witness(self):
        text, n, k = self.WITNESS
        return lv.level_subgraph(build_trace_graph(parse_word(text, n)), k)

    def test_classes_are_the_canonical_primitive_points(self, witness):
        expected = {(0, 1), (1, -1), (1, 0), (1, 1)}
        assert lv.simple_cycle_classes(witness) == expected
        assert johnson_cycle_classes(witness) - {(0, 0)} == expected

    def test_polygon_is_the_hexagon(self, witness):
        poly = lv._class_polygon(witness)
        assert sorted(poly) == sorted([(2, 0), (-2, 0), (1, 1), (-1, -1), (-1, 1), (1, -1)])

    def test_closed_walk_class_outside_the_polygon(self, witness):
        # (1,2) = (0,1) + (1,1) is the class of a closed walk through two
        # cycles that share vertices; it lies outside P and no simple cycle has it
        poly = lv._class_polygon(witness)
        assert any(lv._cross(a, b, (1, 2)) < 0 for a, b in zip(poly, poly[1:] + poly[:1]))
        assert (1, 2) not in johnson_cycle_classes(witness)

    def test_vertex_is_two_disjoint_cycles(self, witness):
        # the vertex (2,0) is no simple cycle's class: it is the class of
        # two vertex-disjoint (1,0) cycles
        g = witness.graph
        assert (2, 0) in lv._class_polygon(witness)
        assert (2, 0) not in johnson_cycle_classes(witness)
        ones = [
            {g.edges[e].tail for e, _ in c}
            for c in lv.simple_cycles(witness)
            if _cls(g, c) == (1, 0)
        ]
        assert any(not a & b for a, b in itertools.combinations(ones, 2))


class TestScaling:
    # the isotopy cells of ROADMAP's Baseline, drawn in this order from
    # random.Random(7); simple-cycle enumeration took 14-45 s on B3 l=20,
    # B5 l=10 and B6 l=10, and ran out of its cycle budget on B3 l=40,
    # B4 l=20 and B5 l=15
    CELLS = ((3, 20), (3, 40), (4, 10), (4, 20), (5, 10), (5, 15), (6, 10))
    # maximal profiles the enumeration produced
    PROFILES = {
        (3, 20): {1: (1, 3), 2: (1, 3)},
        (4, 10): {1: (2, 1), 2: (2, -1), 3: (2, 1)},
        (5, 10): {1: (2, 1), 2: (4, -1), 3: (4, -1), 4: (2, 1)},
        (6, 10): {1: (1, 2), 2: (3, 1), 3: (4, -1), 4: (3, 1), 5: (1, 2)},
    }

    def test_baseline_isotopy_cells(self):
        rng = random.Random(7)
        for n, l in self.CELLS:
            g = reduce(build_trace_graph(random_word(n, l, rng)))
            assert eq.isotopic(g, g).equal, (n, l)
            if (n, l) in self.PROFILES:
                levels = [lv.level_subgraph(g, k) for k in range(1, n)]
                assert lv.maximal_profile(levels) == self.PROFILES[n, l], (n, l)


class TestMaximalClass:
    def test_degenerate_input_rejected(self):
        g = build_trace_graph(parse_word("s1", 2))
        s = lv.level_subgraph(g, 1)
        with pytest.raises(lv.DegenerateSubgraphError):
            lv.maximal_class(s, (1, -1))

    def test_r_zero_maximises_w(self):
        text, n, k = NONDEG_WITNESS_R0
        g = build_trace_graph(parse_word(text, n))
        s = lv.level_subgraph(g, k)
        ats = {a.homology for a in lv.right_attractors(s)}
        assert ats == {(1, 0)}
        got = lv.maximal_class(s, (1, 0))
        classes = lv.cycle_classes(s) - {(0, 0)}
        best_w = max(w for _, w in classes if w != 0)
        assert got[1] == best_w
        assert got[0] == max(u for u, w in classes if w == best_w)

    def test_agrees_with_brute_force_on_witness(self):
        text, n, k = NONDEG_WITNESS
        g = build_trace_graph(parse_word(text, n))
        s = lv.level_subgraph(g, k)
        att = sorted({a.homology for a in lv.right_attractors(s)})[0]
        assert lv.maximal_class(s, att) == brute_maximal_class(s, att)

    def test_integer_order_is_the_rational_order(self, monkeypatch):
        # maximal_class compares M = u/q - w/r by cross-multiplied integers;
        # the reference compares Fractions, on class sets with r < 0, r = 0
        # and r > 0 attractors and with ties in M
        text, n, k = NONDEG_WITNESS
        s = lv.level_subgraph(build_trace_graph(parse_word(text, n)), k)
        rng = random.Random(2713)
        checked = 0
        for _ in range(400):
            att = (rng.randint(1, 5), rng.randint(-5, 5))
            classes = {(rng.randint(0, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 8))}
            classes.discard((0, 0))
            if not classes:
                continue
            monkeypatch.setattr(lv, "simple_cycle_classes", lambda s, classes=classes: classes)
            try:
                want = brute_maximal_class(s, att, classes)
            except ValueError:  # every class has M = 0
                continue
            assert lv.maximal_class(s, att) == want, (att, classes)
            checked += 1
        assert checked > 300

    def test_profiles_levels_complete(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        levels = [lv.level_subgraph(g, k) for k in (1, 2)]
        att = lv.attractor_profile(levels)
        assert sorted(att) == [1, 2]
        assert all(att[k] for k in att)
        mx = lv.maximal_profile(levels)
        assert mx == {1: (1, 3), 2: (1, 3)}


class TestSymmetryOfLevels:
    def test_level_subgraphs_swap_under_involution(self):
        g = build_trace_graph(parse_word("s2 s3 s3 s2", 4))
        for k in range(1, 4):
            s = lv.level_subgraph(g, k)
            imgs = {g.edge_partner[e] for e in s.edges}
            assert imgs == set(lv.level_subgraph(g, 4 - k).edges)
