import math

import pytest
from helpers import moving_pair_delta_t, track_position

from braidtrace import embedding as emb
from braidtrace.embedding import (
    GENERICITY_MARGIN,
    GenericityError,
    brentq,
    bump_amplitude,
    crossing_time,
    letter_geometry,
    slot_angles,
    strand_paths,
    t_over,
)
from braidtrace.tracegraph import _fiber_tile, build_trace_graph, read_fiber
from braidtrace.words import BraidWord, parse_word


class TestSlotAngles:
    def test_n3_values(self):
        sp = slot_angles(3)
        assert sp.angles == pytest.approx((math.pi, math.pi / 2, 0.0))
        assert [p[0] for p in sp.points] == pytest.approx([-1.0, 0.0, 1.0])

    def test_n2(self):
        assert slot_angles(2).angles == pytest.approx((math.pi, 0.0))

    def test_chord_directions_distinct_mod_pi(self):
        pts = slot_angles(3).points
        dirs = {
            round(math.atan2(pts[j][1] - pts[i][1], pts[j][0] - pts[i][0]) % math.pi, 9)
            for i in range(3)
            for j in range(i + 1, 3)
        }
        assert len(dirs) == 3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_margins_across_range(self, n):
        sp = slot_angles(n)
        xs = [p[0] for p in sp.points]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert sp.report.worst() >= GENERICITY_MARGIN
        assert sp.report.worst() >= 10 * 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            slot_angles(9)
        with pytest.raises(ValueError):
            slot_angles(1)


class TestCrossingTime:
    def test_slot_pair_example(self):
        t0, t1 = crossing_time((-1.0, 0.0), (0.0, 1.0))
        assert t0 == pytest.approx(math.pi / 4)
        assert t1 == pytest.approx(5 * math.pi / 4)

    def test_vertical_chord(self):
        assert crossing_time((0.0, 0.0), (0.0, 1.0)) == pytest.approx((0.0, math.pi))

    def test_swap_symmetry(self):
        p, q = (-1.0, 0.0), (0.0, 1.0)
        assert crossing_time(p, q) == pytest.approx(crossing_time(q, p))
        # over/under exchanges: the over lift differs by pi
        assert (t_over(p, q) - t_over(q, p)) % (2 * math.pi) == pytest.approx(math.pi)

    def test_coincident_points(self):
        with pytest.raises(ValueError):
            crossing_time((0.5, 0.5), (0.5, 0.5))


class TestStrandPaths:
    def test_exchange_window_placement(self):
        ps = strand_paths(parse_word("s1", 3))
        lo, hi = ps.window(0)
        assert (lo, hi) == pytest.approx((1 / 3, 2 / 3))
        assert ps.movers(0) == (1, 2)

    def test_windows_pairwise_disjoint(self):
        ps = strand_paths(parse_word("s1 s2 s1", 3))
        spans = [ps.window(m) for m in range(3)]
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2

    def test_exchange_arcs_never_meet(self):
        # u - v = (1-2s) c - 2 eps delta sin(pi s) n never vanishes
        g = letter_geometry(3, 1, 1)
        for k in range(101):
            s = k / 100
            u, v = g.u(s), g.v(s)
            assert math.hypot(u[0] - v[0], u[1] - v[1]) > 1e-9

    def test_stationary_outside_windows(self):
        ps = strand_paths(parse_word("s1", 3))
        pts = ps.placement.points
        for z in (0.1, 0.9):
            for tr in (1, 2, 3):
                assert track_position(ps, tr, z) in pts

    def test_exchange_swaps_slots(self):
        ps = strand_paths(parse_word("s1", 3))
        assert track_position(ps, 1, 0.9) == ps.placement.points[1]
        assert track_position(ps, 2, 0.9) == ps.placement.points[0]

    def test_empty_word_all_vertical(self):
        ps = strand_paths(BraidWord(3))
        for z in (0.0, 0.3, 0.77):
            assert ps.positions_at(z) == list(ps.placement.points)

    def test_bump_amplitude_within_clearance(self):
        # delta must stay below half the distance from each chord to every
        # other slot point
        for n in (3, 4, 5, 6):
            delta = bump_amplitude(n)
            pts = slot_angles(n).points
            for i in range(n - 1):
                a, b = pts[i], pts[i + 1]
                for k in range(n):
                    if k in (i, i + 1):
                        continue
                    px, py = pts[k]
                    vx, vy = b[0] - a[0], b[1] - a[1]
                    s = max(0.0, min(1.0, ((px - a[0]) * vx + (py - a[1]) * vy) / (vx * vx + vy * vy)))
                    d = math.hypot(px - a[0] - s * vx, py - a[1] - s * vy)
                    assert delta < d / 2


class TestLetterGeometry:
    def test_trisecant_count(self):
        for n, slot in ((3, 1), (4, 2), (5, 3)):
            g = letter_geometry(n, slot, 1)
            assert len(g.trisecants) == n - 2

    def test_moving_pair_sweep_is_sign_pi(self):
        for sign in (1, -1):
            g = letter_geometry(4, 2, sign)
            assert moving_pair_delta_t(g, 0.0, 1.0) == pytest.approx(sign * math.pi)

    def test_trisecant_middle_is_a_mover(self):
        for n in (3, 4, 5):
            for slot in range(1, n):
                for sign in (1, -1):
                    g = letter_geometry(n, slot, sign)
                    for ev in g.trisecants:
                        assert ev.y_order_t0[1] in ("u", "v")


class TestBrentq:
    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(emb, "BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: x**3 - 0.3, 0.0, 1.0)


class TestBrentqMatchesScipy:
    """The port returns scipy's double for every root the program solves."""

    def test_every_root_up_to_eight_strands(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        port = emb.brentq
        roots = []

        def both(f, a, b):
            ours = port(f, a, b)
            ref = optimize.brentq(f, a, b, xtol=emb.ROOT_TOL)
            assert ours.hex() == float(ref).hex(), (a, b)
            roots.append(ours)
            return ours

        monkeypatch.setattr(emb, "brentq", both)
        emb.letter_geometry.cache_clear()
        events = 0
        for n in range(2, 9):
            for slot in range(1, n):
                for sign in (1, -1):
                    g = letter_geometry(n, slot, sign)
                    events += len(g.trisecants) + len(g.extrema)
        assert len(roots) == events > 0

        # one word with every letter; each fibre crossing is one root: at
        # t = 0 only the mover pairs cross, at t = 1.9 mover-spectator pairs too
        spectator_roots = 0
        for n in range(2, 9):
            w = BraidWord(n, tuple((i, e) for e in (1, -1) for i in range(1, n)))
            g = build_trace_graph(w)
            roots.clear()
            _fiber_tile.cache_clear()
            assert len(read_fiber(g, 0.0)) == len(roots) == len(w)
            roots.clear()
            _fiber_tile.cache_clear()
            assert len(read_fiber(g, 1.9)) == len(roots) >= len(w)
            spectator_roots += len(roots) - len(w)
        assert spectator_roots > 0
