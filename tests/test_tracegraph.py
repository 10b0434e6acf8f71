import hashlib
import math
import random
from dataclasses import replace

import pytest
from helpers import (
    full_scan_delta_t,
    golden_words,
    ranked_edge_partner,
    reference_read_fiber,
    scanned_level,
    scanned_symmetry_involution,
    wide_words,
)

from braidtrace import equivalence as eq
from braidtrace import oracle
from braidtrace.checks import run_structure_checks
from braidtrace.embedding import GenericityError, strand_paths, wrap_pm_pi
from braidtrace.tracegraph import (
    Marking,
    SingularFiberError,
    _level_of_pair,
    build_trace_graph,
    read_fiber,
    read_word_at,
    singular_t_values,
    symmetry_involution,
)
from braidtrace.words import (
    BraidWord,
    iter_reduced_words,
    parse_word,
    permutation,
    random_word,
)

# sha256 over float.hex of every vertex z, t and edge dz, dt (with the edge
# level) of golden_words() and wide_words(), as built before the builder
# read tile constants and visited only the windows where a track moves
GOLDEN_FLOATS_SHA256 = "9ac89c9cf4ad8c4988ae4479058e131e3443e879238cec36dfef7b07edc72de1"


def builder_floats_digest(words) -> str:
    h = hashlib.sha256()
    for w in words:
        g = build_trace_graph(w)
        for v in sorted(g.vertices.values(), key=lambda v: v.id):
            h.update(f"v {v.z.hex()} {v.t.hex()}\n".encode())
        for e in sorted(g.edges.values(), key=lambda e: e.id):
            h.update(f"e {e.dz.hex()} {e.dt.hex()} {e.level}\n".encode())
    return h.hexdigest()


def pass_orbits(w: BraidWord) -> list[list[tuple[int, int]]]:
    """Orbits of ordered track pairs under the closure permutation, in the
    builder's order."""
    perm = permutation(w)
    seen, out = set(), []
    for a in range(1, w.n + 1):
        for b in range(1, w.n + 1):
            orbit, cur = [], (a, b)
            while a != b and cur not in seen:
                seen.add(cur)
                orbit.append(cur)
                cur = (perm[cur[0] - 1], perm[cur[1] - 1])
            if orbit:
                out.append(orbit)
    return out


class TestCounts:
    def test_single_letter_b3(self):
        g = build_trace_graph(parse_word("s1", 3))
        assert g.num_vertices == 2

    def test_b2_knot(self):
        g = build_trace_graph(parse_word("s1", 2))
        assert g.num_vertices == 0
        assert len(g.circles) == 1

    def test_b2_hopf(self):
        # sigma_1^2 closes to the Hopf link: pure, so N = n(n-1) = 2
        g = build_trace_graph(parse_word("s1 s1", 2))
        assert g.num_vertices == 0
        assert len(g.circles) == 2

    def test_b4_pure_example(self):
        g = build_trace_graph(parse_word("s2 s3 s3 s2", 4))
        assert g.num_vertices == 16
        assert len(g.circles) == 12

    def test_b5_mixed_cycle_lengths(self):
        # cycles (2,3): N = 1 + 2 + 2 gcd(2,3) = 5
        w = parse_word("s1 s3 s4", 5)
        g = build_trace_graph(w)
        assert oracle.expected_circle_count(w) == 5
        assert len(g.circles) == 5

    def test_exhaustive_counts_small(self):
        for n, lmax in ((2, 6), (3, 6), (4, 4)):
            for l in range(0, lmax + 1):
                for w in iter_reduced_words(n, l):
                    g = build_trace_graph(w)
                    assert g.num_vertices == 2 * l * (n - 2)
                    nc = len(g.circles)
                    assert nc == oracle.expected_circle_count(w)
                    assert n - 1 <= nc <= n * (n - 1)


class TestCircles:
    def test_pure_b3_markings(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        marks = sorted(str(c.marking) for c in g.circles.values())
        assert marks == ["(12)[1]", "(13)[1]", "(21)[1]", "(23)[1]", "(31)[1]", "(32)[1]"]

    def test_knot_markings(self):
        g = build_trace_graph(parse_word("s1 s2", 3))
        marks = sorted((c.marking.i, c.marking.j, c.marking.k) for c in g.circles.values())
        assert marks == [(1, 1, 1), (1, 1, 2)]

    def test_circle_windings_are_integral(self):
        for text, n in (("s1 s2^-1", 3), ("s2 s3 s3 s2", 4), ("s1 s1", 2)):
            g = build_trace_graph(parse_word(text, n))
            for c in g.circles.values():
                dz = sum(g.edges[e].dz for e in c.edges)
                dt = sum(g.edges[e].dt for e in c.edges)
                assert dz == pytest.approx(c.dz_total, abs=1e-9)
                assert c.dz_total >= 1
                assert dt == pytest.approx(c.dt_winding * 2 * math.pi, abs=1e-6)

    def test_edges_monotone(self):
        g = build_trace_graph(parse_word("s1 s2^-1 s1", 3))
        assert all(e.dz > 0 for e in g.edges.values())

    def test_mixed_marking_ranges(self):
        w = parse_word("s1 s3 s4", 5)  # components of sizes 2 and 3
        g = build_trace_graph(w)
        for c in g.circles.values():
            i, j = c.comp_pair
            if i == j:
                n_i = g.cycles.lengths[i - 1]
                assert 1 <= c.marking.k <= n_i - 1
            else:
                gcd = math.gcd(g.cycles.lengths[i - 1], g.cycles.lengths[j - 1])
                assert 1 <= c.marking.k <= gcd


class TestBuilderFloats:
    def test_golden_floats(self):
        assert builder_floats_digest(golden_words() + wide_words()) == GOLDEN_FLOATS_SHA256

    def test_edge_dt_is_the_full_scan(self):
        # every edge's dt is the sum over every exchange window of its walk
        # span; a circle's closing edge wraps through walk 0
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            for cid, orbit in enumerate(pass_orbits(w)):
                total = float(len(orbit))
                edge_ids = g.circles[cid].edges
                for eid in edge_ids:
                    e = g.edges[eid]
                    if e.tail is None:
                        want = full_scan_delta_t(g.paths, orbit, 0.0, total)
                    else:
                        w1 = orbit.index(e.tail_pair) + g.vertices[e.tail].z
                        w2 = orbit.index(e.head_pair) + g.vertices[e.head].z
                        if eid == edge_ids[-1]:
                            want = (full_scan_delta_t(g.paths, orbit, w1, total)
                                    + full_scan_delta_t(g.paths, orbit, 0.0, w2))
                        else:
                            want = full_scan_delta_t(g.paths, orbit, w1, w2)
                    assert e.dt.hex() == want.hex(), (w, eid)

    def test_levels_match_the_track_scan(self):
        # outside every exchange window each track rests at a slot point, and
        # the level memoized by slots equals the level scanned from positions
        for w in golden_words()[::3] + wide_words():
            paths = strand_paths(w)
            l = len(w)
            resting = [0.25, 0.75] if l == 0 else [(m + f) / l for m in range(l) for f in (0.0, 0.2, 0.7)]
            moving = [(m + f) / l for m in range(l) for f in (0.4, 0.6)]
            for z in resting + moving:
                assert (paths.resting_slots(z) is not None) == (z in resting)
                for a in range(1, w.n + 1):
                    for b in range(1, w.n + 1):
                        if a != b:
                            assert _level_of_pair(paths, a, b, z) == scanned_level(paths, a, b, z)

    def test_edge_levels_are_the_midpoint_scan(self):
        # an edge across windows takes the resting level after its tail's
        # window; levels change only at vertices, so that is the level the
        # track scan gives at the edge's midpoint walk
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            for cid, orbit in enumerate(pass_orbits(w)):
                total = float(len(orbit))
                for eid in g.circles[cid].edges:
                    e = g.edges[eid]
                    if e.tail is None:
                        mid = total / 2
                    else:
                        walk = orbit.index(e.tail_pair) + g.vertices[e.tail].z
                        mid = (walk + e.dz / 2) % total
                    a, b = orbit[int(mid)]
                    assert e.level == scanned_level(g.paths, a, b, mid - int(mid)), (w, eid)

    def test_positions_at_is_every_track_position(self):
        w = parse_word("s1 s2^-1 s3 s2", 4)
        paths = strand_paths(w)
        for k in range(97):
            z = k / 96
            assert paths.positions_at(z) == [paths.track_position(tr, z) for tr in range(1, 5)]


class TestLevels:
    def test_s2_crossing_at_level_2(self):
        g = build_trace_graph(parse_word("s2", 3))
        fiber = read_fiber(g, 0.0)
        assert [c.level for c in fiber] == [2]

    def test_b2_single_level(self):
        g = build_trace_graph(parse_word("s1 s1^-1 s1", 2))
        assert {e.level for e in g.edges.values()} == {1}

    def test_vertex_level_pattern(self):
        g = build_trace_graph(parse_word("s1", 3))
        patterns = set()
        for v in g.vertices.values():
            below = tuple(g.edges[e].level for e in v.below)
            above = tuple(g.edges[e].level for e in v.above)
            patterns.add((below, above))
        assert patterns == {((1, 2, 1), (2, 1, 2)), ((2, 1, 2), (1, 2, 1))}


class TestSymmetry:
    def test_two_vertices_swap(self):
        g = build_trace_graph(parse_word("s1", 3))
        pairing = symmetry_involution(g)
        (a, b), = {tuple(sorted(kv)) for kv in pairing.items()}
        assert {a, b} == set(g.vertices)

    def test_pure_labels_reverse(self):
        g = build_trace_graph(parse_word("(s1 s2^-1)^3", 3))
        for cid, pcid in g.circle_partner.items():
            m, pm = g.circles[cid].marking, g.circles[pcid].marking
            assert (pm.i, pm.j) == (m.j, m.i)

    def test_knot_marking_reversal(self):
        g = build_trace_graph(parse_word("s1 s2", 3))
        for cid, pcid in g.circle_partner.items():
            m, pm = g.circles[cid].marking, g.circles[pcid].marking
            assert pm.k == 3 - m.k  # [m] -> [n-m]

    def test_levels_flip(self):
        g = build_trace_graph(parse_word("s2 s3 s3 s2", 4))
        for e in g.edges.values():
            assert g.edges[g.edge_partner[e.id]].level == 4 - e.level

    def test_edge_pairing_matches_visit_ranks(self):
        # the builder pairs edges through its vertex pairing, as reduction
        # does; the reference pairs pass visits by rank along each pair
        rng = random.Random(3164)
        seeded = [random_word(n, rng.randint(1, 16), rng) for n in (3, 4, 5, 6) for _ in range(20)]
        for w in golden_words() + seeded:
            g = build_trace_graph(w)
            assert g.edge_partner == ranked_edge_partner(g), w
            assert len(g.edge_partner) == len(g.edges)

    @staticmethod
    def outcome(match, g):
        try:
            return "pairing", match(g)
        except GenericityError as ex:
            return "raises", str(ex)

    def test_matcher_agrees_with_full_scan(self):
        # built and reduced graphs; reduction can keep a vertex whose t+pi
        # partner it eliminated, and then both must name the same vertex
        partial = ["s1^-1 s2^-1 s1 s2^-1 s1", "s2 s1 s2^-1 s1 s2^-1", "s1 s2 s1 s2 s1^-1 s2"]
        graphs = []
        for w in golden_words()[::2] + [parse_word(text, 3) for text in partial]:
            g = build_trace_graph(w)
            graphs += [g, eq.reduce(g), eq.reduce(g, rng=random.Random(len(w)))]
        raised = 0
        for g in graphs:
            got = self.outcome(symmetry_involution, g)
            assert got == self.outcome(scanned_symmetry_involution, g), g.word
            raised += got[0] == "raises"
        assert 0 < raised < len(graphs)

    def test_matcher_agrees_on_moved_vertices(self):
        # a vertex pair moved onto another pair: every vertex has a
        # candidate, but the pairing is not an involution; moved off by less
        # than the tolerance a vertex still matches, by more it does not
        w = parse_word("s1 s3^-1 s2 s2 s3 s1^-1", 4)
        ids = sorted(build_trace_graph(w).vertices)
        outcomes = set()
        for k, vid in enumerate(ids):
            other = ids[(k + 3) % len(ids)]
            for dz, dt in ((0.0, 0.0), (5e-7, 0.0), (0.0, 5e-7), (2e-6, 0.0), (0.0, 0.1)):
                g = build_trace_graph(w)
                if other in (vid, g.vertex_partner[vid]):
                    continue
                for moved, onto, ddz, ddt in ((vid, g.vertex_partner[other], dz, dt),
                                              (g.vertex_partner[vid], other, 0.0, 0.0)):
                    at = g.vertices[onto]
                    g.vertices[moved] = replace(g.vertices[moved], z=at.z + ddz, t=at.t + ddt)
                got = self.outcome(symmetry_involution, g)
                assert got == self.outcome(scanned_symmetry_involution, g), (vid, dz, dt)
                outcomes.add(got[1] if got[0] == "raises" else "pairing")
        assert len(outcomes) >= 3, outcomes

    def test_first_candidate_in_graph_order(self):
        # vertices 0-3 placed so that 2 has candidates 1 and 3 and 3 has
        # candidates 0 and 2; only the first in graph order gives the
        # involution 0-3, 1-2, which the construction pairing then names
        g = build_trace_graph(parse_word("s1 s3^-1 s2 s2 s3 s1^-1", 4))
        z0, t0 = g.vertices[0].z, g.vertices[0].t
        for vid, dz, dt in ((2, 0.0, 0.0), (0, 1.5e-6, 0.0),
                            (1, -0.5e-6, math.pi), (3, 0.75e-6, math.pi)):
            g.vertices[vid] = replace(g.vertices[vid], z=z0 + dz, t=(t0 + dt) % (2 * math.pi))
        g.vertex_partner.update({0: 3, 3: 0, 1: 2, 2: 1})
        pairing = symmetry_involution(g)
        assert pairing == scanned_symmetry_involution(g)
        assert {v: pairing[v] for v in range(4)} == {0: 3, 1: 2, 2: 1, 3: 0}


class TestFibers:
    def test_crossing_count_at_zero(self):
        for text in ("s1", "s1 s2^-1", "(s1 s2^-1)^3"):
            w = parse_word(text, 3)
            g = build_trace_graph(w)
            assert len(read_fiber(g, 0.0)) == len(w)

    def test_levels_and_signs_at_zero(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        fiber = read_fiber(g, 0.0)
        assert [(c.level, c.sign) for c in fiber] == [(1, 1), (2, -1)]

    def test_readback_identity(self):
        for text, n in (("s1 s2^-1", 3), ("", 3), ("s2 s3 s3 s2", 4), ("s1^-1 s1^-1", 2)):
            w = parse_word(text, n) if text else BraidWord(n)
            g = build_trace_graph(w)
            assert read_word_at(g, 0.0) == w

    def test_singular_fiber_raises_with_reason(self):
        g = build_trace_graph(parse_word("s1", 3))
        t_bad = next(t for t, reason in singular_t_values(g.paths) if "triple" in reason)
        with pytest.raises(SingularFiberError, match="triple vertex"):
            read_fiber(g, t_bad)

    def test_count_changes_at_events(self):
        # +-0 across a triple vertex, +-2 across a tangency extremum
        g = build_trace_graph(parse_word("s1 s2^-1 s2^-1", 3))
        eps = 1e-4
        for t0, reason in singular_t_values(g.paths):
            lo = len(read_fiber(g, t0 - eps))
            hi = len(read_fiber(g, t0 + eps))
            if "triple" in reason:
                assert lo == hi
            elif "extremum" in reason:
                assert abs(lo - hi) == 2

    def test_single_letter_fiber_at_zero_is_one_crossing_of_its_movers(self):
        # the builder reads each mixed family's marking anchor from the
        # letters, because the t=0 fiber is the word's diagram: within a
        # letter's window the movers follow that letter's geometry and every
        # other strand rests at its slot, so one-letter words cover it
        for n in range(2, 9):
            for slot in range(1, n):
                for sign in (1, -1):
                    g = build_trace_graph(BraidWord(n, ((slot, sign),)))
                    (crossing,) = read_fiber(g, 0.0)
                    assert {crossing.over, crossing.under} == set(g.paths.movers(0))

    def test_nine_strands_refused_before_building(self):
        # the supported strand range ends at 8; beyond it some letters have
        # no generic geometry, so the build stops at once with one error
        with pytest.raises(ValueError, match="strand range"):
            build_trace_graph(parse_word("s1", 9))

    def test_generic_fiber_word_conjugate_to_input(self, rng):
        w = parse_word("s1 s2^-1", 3)
        g = build_trace_graph(w)
        for _ in range(3):
            t = rng.uniform(0.3, 6.0)
            try:
                fw = read_word_at(g, t)
            except SingularFiberError:
                continue
            witness = oracle.conjugator_search(w, fw, 6)
            assert witness is not None


def fiber_outcome(read, g, t):
    """The crossings read at t, or the class of the error the read raised."""
    try:
        return read(g, t)
    except (ValueError, RuntimeError) as ex:
        return type(ex)


class TestFiberTiles:
    """`read_fiber` reads each letter's crossings from a per-letter tile; the
    reference solves every track pair on each call from positions and
    velocities.  Both give the same crossings, z and t to the bit, or
    raise the same error class."""

    def assert_same_fiber(self, g, t):
        want = fiber_outcome(reference_read_fiber, g, t)
        got = fiber_outcome(read_fiber, g, t)
        assert got == want, (g.word, t)
        if isinstance(want, list):
            assert [(c.z.hex(), c.t.hex()) for c in got] == [(c.z.hex(), c.t.hex()) for c in want]
        return want

    def test_generic_fibers_match_the_per_pair_solve(self):
        rng = random.Random(2713)
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            assert self.assert_same_fiber(g, 0.0) == read_fiber(g, 0.0)
            for _ in range(4):
                self.assert_same_fiber(g, rng.uniform(0.0, 2 * math.pi))

    def test_near_singular_fibers_match_the_per_pair_solve(self):
        rng = random.Random(808)
        outcomes = set()
        for n in (2, 3, 4, 5):
            for _ in range(20):
                g = build_trace_graph(random_word(n, rng.randint(1, 8), rng))
                for t_bad, _ in singular_t_values(g.paths)[:12]:
                    for eps in (1e-4, -1e-4, 2e-9, -2e-9):
                        want = self.assert_same_fiber(g, t_bad + eps)
                        outcomes.add(want if isinstance(want, type) else list)
        assert list in outcomes


class TestLocalStructure:
    @pytest.mark.parametrize(
        "text,n", [("s1", 3), ("s2^-1", 4), ("(s1 s2^-1)^3", 3), ("s2 s3 s3 s2", 4)]
    )
    def test_full_check_suite(self, text, n):
        g = build_trace_graph(parse_word(text, n))
        for r in run_structure_checks(g):
            assert r.ok or r.warning, f"{text}: {r.name}: {r.detail}"

    def test_middle_circle_is_distant_pair(self):
        g = build_trace_graph(parse_word("s2 s3 s3 s2", 4))
        for v in g.vertices.values():
            mid = g.edges[v.below[1]]
            assert set(mid.head_pair) == {v.strands[0], v.strands[2]}

    def test_random_words_pass_checks(self, rng):
        for _ in range(6):
            n = rng.choice((3, 4, 5))
            w = random_word(n, rng.randint(1, 6), rng)
            g = build_trace_graph(w)
            for r in run_structure_checks(g):
                assert r.ok or r.warning, f"{w}: {r.name}: {r.detail}"
