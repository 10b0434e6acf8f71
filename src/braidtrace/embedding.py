"""Canonical geometric representative of a closed braid in the solid torus.

Strands sit at fixed slot points on the unit circle, placed at angles
2^(1-j)*pi so that no two chords are parallel; each letter exchanges two
adjacent slots inside the middle third of its own z-slab along a pair of
sinusoidally bumped arcs.  The key property of the bump: the moving chord
between the two exchanging strands keeps its midpoint fixed and its
direction sweeps monotonically through exactly pi, so each spectator slot
is crossed by the moving line exactly once per half-turn.  That yields one
meridional trisecant per letter per spectator, i.e. 2*l*(n-2) triple
vertices after taking both time lifts.

All geometry is double precision; event coordinates are asserted to be
separated by EVENT_SEP and failures raise GenericityError instead of
perturbing anything silently.  Every event is the root of a bracketed
function along one exchange window, found by `brentq`, an in-package port
of scipy's Brent solver that returns the same doubles, so the package
needs no numerical library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .words import BraidWord, strand_positions

TWO_PI = 2.0 * math.pi
ROOT_TOL = 1e-10       # z-root tolerance for event solving
EVENT_SEP = 1e-6       # minimum separation of distinct events
GENERICITY_MARGIN = 1e-8  # >= 10x the 1e-9 comparison tolerance
BRENT_RTOL = 4 * sys.float_info.epsilon
BRENT_MAXITER = 100


class GenericityError(RuntimeError):
    """A degeneracy was detected; the construction refuses to guess."""


def wrap_2pi(t: float) -> float:
    return t % TWO_PI


def wrap_pi(t: float) -> float:
    return t % math.pi


def wrap_pm_pi(t: float) -> float:
    """Wrap into (-pi, pi]."""
    t = (t + math.pi) % TWO_PI
    return t - math.pi if t != 0.0 else math.pi


def brentq(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    A step-for-step port of scipy's C ``brentq`` (Brent 1973), with its
    relative tolerance 4*eps and its 100-iteration limit, so every root is
    the same double scipy's ``brentq(f, a, b, xtol=ROOT_TOL)`` returns.
    Like scipy it raises ValueError when the bracket has one sign or f
    returns NaN, and RuntimeError when it does not converge.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    def negative(y: float) -> bool:  # C signbit
        return math.copysign(1.0, y) < 0

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {BRENT_MAXITER} iterations, value is {xcur}")


def crossing_time(p: tuple[float, float], q: tuple[float, float]) -> tuple[float, float]:
    """The two rotation angles in [0, 2pi) at which p and q align vertically
    under the projection that forgets y.  The first lift lies in [0, pi)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    if dx * dx + dy * dy < 1e-18:
        raise ValueError("coincident points have no crossing time")
    t0 = wrap_pi(math.pi / 2 - math.atan2(dy, dx))
    return t0, t0 + math.pi


def t_over(p: tuple[float, float], q: tuple[float, float]) -> float:
    """The unique t in [0, 2pi) aligning p, q vertically with p on top."""
    return wrap_2pi(math.pi / 2 - math.atan2(p[1] - q[1], p[0] - q[0]))


def rot_x(p: tuple[float, float], t: float) -> float:
    return p[0] * math.cos(t) - p[1] * math.sin(t)


def rot_y(p: tuple[float, float], t: float) -> float:
    return p[0] * math.sin(t) + p[1] * math.cos(t)


@dataclass(frozen=True)
class GenericityReport:
    min_chord_direction_gap: float
    min_midpoint_collinearity: float
    min_trisecant_separation: float
    min_x_gap: float

    def worst(self) -> float:
        return min(
            self.min_chord_direction_gap,
            self.min_midpoint_collinearity,
            self.min_trisecant_separation,
            self.min_x_gap,
        )


@dataclass(frozen=True)
class SlotPlacement:
    """The n slot points on the unit circle and their genericity margins."""

    n: int
    angles: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    report: GenericityReport


@lru_cache(maxsize=None)
def slot_angles(n: int) -> SlotPlacement:
    # from n = 9 on, letter_geometry finds no generic geometry for some letters
    if not 2 <= n <= 8:
        raise ValueError(f"supported strand range is 2..8, got {n}")
    angles = tuple(2.0 ** (1 - j) * math.pi for j in range(1, n)) + (0.0,)
    pts = tuple((math.cos(a), math.sin(a)) for a in angles)
    xs = [p[0] for p in pts]
    assert all(xs[i] < xs[i + 1] for i in range(n - 1)), "slot x order broken"

    dirs = sorted(
        math.atan2(pts[j][1] - pts[i][1], pts[j][0] - pts[i][0]) % math.pi
        for i in range(n)
        for j in range(i + 1, n)
    )
    if len(dirs) > 1:
        gaps = [dirs[k + 1] - dirs[k] for k in range(len(dirs) - 1)]
        gaps.append(dirs[0] + math.pi - dirs[-1])
    else:
        gaps = [math.pi]

    mid_margin = math.inf
    tri_margin = math.inf
    for i in range(n - 1):
        mx = (pts[i][0] + pts[i + 1][0]) / 2
        my = (pts[i][1] + pts[i + 1][1]) / 2
        chord_dir = math.atan2(pts[i + 1][1] - pts[i][1], pts[i + 1][0] - pts[i][0]) % math.pi
        spec_dirs = []
        for a in range(n):
            for b in range(a + 1, n):
                if a in (i, i + 1) and b in (i, i + 1):
                    continue
                cross = (pts[b][0] - pts[a][0]) * (my - pts[a][1]) - (
                    pts[b][1] - pts[a][1]
                ) * (mx - pts[a][0])
                mid_margin = min(mid_margin, abs(cross))
        for j in range(n):
            if j in (i, i + 1):
                continue
            d = math.atan2(pts[j][1] - my, pts[j][0] - mx) % math.pi
            spec_dirs.append(d)
            tri_margin = min(tri_margin, abs(wrap_pm_pi(2 * (d - chord_dir))) / 2)
        spec_dirs.sort()
        for k in range(len(spec_dirs) - 1):
            tri_margin = min(tri_margin, spec_dirs[k + 1] - spec_dirs[k])
        if len(spec_dirs) > 1:
            tri_margin = min(tri_margin, spec_dirs[0] + math.pi - spec_dirs[-1])

    x_gap = min(xs[i + 1] - xs[i] for i in range(n - 1)) if n >= 2 else math.inf
    report = GenericityReport(min(gaps), mid_margin, tri_margin, x_gap)
    if report.worst() < GENERICITY_MARGIN:
        raise GenericityError(f"slot placement for n={n} has margin {report.worst():.3e}")
    return SlotPlacement(n, angles, pts, report)


def _dist_point_segment(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    s = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    cx, cy = ax + s * vx, ay + s * vy
    return math.hypot(px - cx, py - cy)


def _dist_segment_line(a, b, p, q) -> float:
    """Distance from segment [a,b] to the full line through p, q; the segment
    is assumed not to cross the line (convex position of slots)."""
    ux, uy = q[0] - p[0], q[1] - p[1]
    L = math.hypot(ux, uy)

    def d(pt):
        return abs(ux * (pt[1] - p[1]) - uy * (pt[0] - p[0])) / L

    return min(d(a), d(b))


@lru_cache(maxsize=None)
def bump_amplitude(n: int) -> float:
    """delta: 0.1x the clearance between each exchange chord and everything it
    must not touch (other slots, lines through other slot pairs, and the
    x-gaps that keep the time-zero diagram clean)."""
    placement = slot_angles(n)
    pts = placement.points
    clearance = placement.report.min_x_gap
    for i in range(n - 1):
        a, b = pts[i], pts[i + 1]
        for k in range(n):
            if k in (i, i + 1):
                continue
            clearance = min(clearance, _dist_point_segment(pts[k], a, b))
        for p in range(n):
            for q in range(p + 1, n):
                if p in (i, i + 1) or q in (i, i + 1):
                    continue
                clearance = min(clearance, _dist_segment_line(a, b, pts[p], pts[q]))
    delta = 0.1 * clearance
    if delta <= 0:
        raise GenericityError(f"no positive bump amplitude for n={n}")
    return delta


# ---------------------------------------------------------------------------
# Per-letter geometry, independent of the word (cache key: n, slot, sign)


@dataclass(frozen=True)
class TrisecantEvent:
    spectator_slot: int   # 1-based slot position
    s: float              # window parameter in (0, 1)
    line_angle: float     # world direction of the trisecant line
    t0: float             # lift in [0, pi); the other lift is t0 + pi
    y_order_t0: tuple[str, str, str]  # symbols 'u', 'v', 'spec' by decreasing rotated y at t0
    slopes: dict          # unordered symbol pair -> dt/ds at the event


@dataclass(frozen=True)
class ExtremumEvent:
    mover: str            # 'u' or 'v'
    spectator_slot: int
    s: float
    t0: float             # t value mod pi


@dataclass(frozen=True)
class LetterGeometry:
    n: int
    slot: int             # i: exchanges slots i, i+1
    sign: int
    delta: float
    chord: tuple[float, float]
    chord_len: float
    normal: tuple[float, float]
    chord_angle: float
    trisecants: tuple[TrisecantEvent, ...]
    extrema: tuple[ExtremumEvent, ...]
    # (mover, spectator slot) -> direction from the slot point to the mover
    # at s = 0 and at s = 1: tile constants, by the expression used at any s
    sight_angles: dict[tuple[str, int], tuple[float, float]]

    def u(self, s: float) -> tuple[float, float]:
        pts = slot_angles(self.n).points
        qi = pts[self.slot - 1]
        bump = self.sign * self.delta * math.sin(math.pi * s)
        return (
            qi[0] + s * self.chord[0] + bump * self.normal[0],
            qi[1] + s * self.chord[1] + bump * self.normal[1],
        )

    def v(self, s: float) -> tuple[float, float]:
        pts = slot_angles(self.n).points
        qi1 = pts[self.slot]
        bump = self.sign * self.delta * math.sin(math.pi * s)
        return (
            qi1[0] - s * self.chord[0] - bump * self.normal[0],
            qi1[1] - s * self.chord[1] - bump * self.normal[1],
        )

    def u_velocity(self, s: float) -> tuple[float, float]:
        k = self.sign * self.delta * math.pi * math.cos(math.pi * s)
        return (self.chord[0] + k * self.normal[0], self.chord[1] + k * self.normal[1])

    def v_velocity(self, s: float) -> tuple[float, float]:
        ux, uy = self.u_velocity(s)
        return (-ux, -uy)

    def eta(self, s: float) -> float:
        """Chord-frame direction of v-u; monotone, runs from 0 to -sign*pi."""
        return math.atan2(
            -2.0 * self.sign * self.delta * math.sin(math.pi * s),
            (1.0 - 2.0 * s) * self.chord_len,
        )

    def solve_direction(self, direction: float) -> float:
        """The window parameter s at which the chord from u to v points along
        `direction` mod pi.  The direction sweeps exactly pi per window, so
        there is one root; the window ends are left out because there the
        chord is the stationary one."""
        target = (direction - self.chord_angle) % math.pi
        if self.sign > 0:
            target -= math.pi  # eta runs 0 .. -pi
        return brentq(lambda s: self.eta(s) - target, 1e-15, 1.0 - 1e-15)

    def _sight_angle(self, mover: str, slot: int, s: float) -> float:
        x, y = self.u(s) if mover == "u" else self.v(s)
        slot_pt = slot_angles(self.n).points[slot - 1]
        return math.atan2(y - slot_pt[1], x - slot_pt[0])


def _slope_mover_spectator(geom: LetterGeometry, mover: str, slot_pt, s: float) -> float:
    f, fv = (geom.u, geom.u_velocity) if mover == "u" else (geom.v, geom.v_velocity)
    p = f(s)
    vel = fv(s)
    gx, gy = p[0] - slot_pt[0], p[1] - slot_pt[1]
    return -(gx * vel[1] - gy * vel[0]) / (gx * gx + gy * gy)


def _slope_moving_pair(geom: LetterGeometry, s: float) -> float:
    h = (1 - 2 * s) * math.pi * math.cos(math.pi * s) + 2 * math.sin(math.pi * s)
    wx = (1 - 2 * s) * geom.chord_len
    wy = -2 * geom.sign * geom.delta * math.sin(math.pi * s)
    return 2 * geom.sign * geom.delta * geom.chord_len * h / (wx * wx + wy * wy)


@lru_cache(maxsize=None)
def letter_geometry(n: int, slot: int, sign: int) -> LetterGeometry:
    placement = slot_angles(n)
    pts = placement.points
    qi, qi1 = pts[slot - 1], pts[slot]
    chord = (qi1[0] - qi[0], qi1[1] - qi[1])
    clen = math.hypot(*chord)
    normal = (-chord[1] / clen, chord[0] / clen)
    chord_angle = math.atan2(chord[1], chord[0])
    delta = bump_amplitude(n)
    mid = ((qi[0] + qi1[0]) / 2, (qi[1] + qi1[1]) / 2)

    geom = LetterGeometry(
        n, slot, sign, delta, chord, clen, normal, chord_angle, (), (), {}
    )

    # trisecants: the moving line through the fixed midpoint sweeps every
    # direction mod pi exactly once; solve eta(s) = spectator direction
    events = []
    for j in range(1, n + 1):
        if j in (slot, slot + 1):
            continue
        beta = math.atan2(pts[j - 1][1] - mid[1], pts[j - 1][0] - mid[0])
        try:
            s_star = geom.solve_direction(beta)
        except ValueError as ex:
            raise GenericityError(
                f"trisecant bracket failed for n={n} slot={slot} spectator={j}"
            ) from ex
        line_angle = beta
        t0 = wrap_pi(math.pi / 2 - line_angle)
        u_pt, v_pt, s_pt = geom.u(s_star), geom.v(s_star), pts[j - 1]
        ys = sorted(
            (("u", rot_y(u_pt, t0)), ("v", rot_y(v_pt, t0)), ("spec", rot_y(s_pt, t0))),
            key=lambda kv: -kv[1],
        )
        order = tuple(k for k, _ in ys)
        yvals = [y for _, y in ys]
        if yvals[0] - yvals[1] < EVENT_SEP or yvals[1] - yvals[2] < EVENT_SEP:
            raise GenericityError(f"trisecant y-order degenerate, n={n} slot={slot}")
        slopes = {
            frozenset(("u", "v")): _slope_moving_pair(geom, s_star),
            frozenset(("u", "spec")): _slope_mover_spectator(geom, "u", s_pt, s_star),
            frozenset(("v", "spec")): _slope_mover_spectator(geom, "v", s_pt, s_star),
        }
        vals = sorted(slopes.values())
        if vals[1] - vals[0] < EVENT_SEP or vals[2] - vals[1] < EVENT_SEP:
            raise GenericityError(f"trisecant slopes degenerate, n={n} slot={slot}")
        events.append(TrisecantEvent(j, s_star, line_angle, t0, order, slopes))
    events.sort(key=lambda e: e.s)
    for a, b in zip(events, events[1:]):
        if b.s - a.s < EVENT_SEP:
            raise GenericityError(f"two trisecants too close in one window, n={n}")

    # tangency extrema of mover-spectator curves (Reidemeister II events)
    extrema = []
    for mover in ("u", "v"):
        f, fv = (geom.u, geom.u_velocity) if mover == "u" else (geom.v, geom.v_velocity)
        for j in range(1, n + 1):
            if j in (slot, slot + 1):
                continue
            spt = pts[j - 1]

            def g(s):
                p = f(s)
                vel = fv(s)
                return (p[0] - spt[0]) * vel[1] - (p[1] - spt[1]) * vel[0]

            samples = [k / 32 for k in range(33)]
            vals = [g(s) for s in samples]
            for k in range(32):
                if vals[k] == 0.0 or vals[k] * vals[k + 1] < 0:
                    s_ext = brentq(g, samples[k], samples[k + 1])
                    p = f(s_ext)
                    t0 = wrap_pi(math.pi / 2 - math.atan2(p[1] - spt[1], p[0] - spt[0]))
                    extrema.append(ExtremumEvent(mover, j, s_ext, t0))

    sight_angles = {
        (mover, j): (geom._sight_angle(mover, j, 0.0), geom._sight_angle(mover, j, 1.0))
        for mover in ("u", "v")
        for j in range(1, n + 1)
        if j not in (slot, slot + 1)
    }
    return LetterGeometry(
        n, slot, sign, delta, chord, clen, normal, chord_angle,
        tuple(events), tuple(extrema), sight_angles,
    )


# ---------------------------------------------------------------------------
# Strand paths of a whole word


@dataclass
class StrandPathSet:
    """Piecewise strand paths z -> disk point for the canonical embedding.

    Letter m (0-based) occupies the slab [m/l, (m+1)/l); its exchange is
    confined to the middle third of the slab.
    """

    word: BraidWord
    placement: SlotPlacement
    delta: float
    occ: tuple[tuple[int, ...], ...]       # occupancy before each letter, plus top
    pos_of: tuple[tuple[int, ...], ...]    # pos_of[m][track-1] = slot position
    geoms: tuple[LetterGeometry, ...]

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def length(self) -> int:
        return len(self.word)

    def window(self, m: int) -> tuple[float, float]:
        l = self.length
        return (m / l + 1 / (3 * l), m / l + 2 / (3 * l))

    def movers(self, m: int) -> tuple[int, int]:
        i = self.word.letters[m][0]
        return self.occ[m][i - 1], self.occ[m][i]

    def track_position(self, track: int, z: float) -> tuple[float, float]:
        l = self.length
        pts = self.placement.points
        if l == 0:
            return pts[track - 1]
        z = z % 1.0
        m = min(int(z * l), l - 1)
        frac = z * l - m
        pos = self.pos_of[m][track - 1]
        i = self.word.letters[m][0]
        if frac < 1 / 3:
            return pts[pos - 1]
        if frac >= 2 / 3:
            return pts[self.pos_of[m + 1][track - 1] - 1]
        if pos == i:
            return self.geoms[m].u(3 * frac - 1)
        if pos == i + 1:
            return self.geoms[m].v(3 * frac - 1)
        return pts[pos - 1]

    def _slab(self, z: float) -> tuple[int, float]:
        """(m, fraction of slab m) at height z, for a non-empty word."""
        l = len(self.word.letters)
        z = z % 1.0
        m = min(int(z * l), l - 1)
        return m, z * l - m

    def resting_slots(self, z: float) -> Optional[tuple[int, ...]]:
        """pos_of at height z when z lies outside every exchange window, so
        that every track rests at a slot point; None inside a window."""
        if not self.word.letters:
            return self.pos_of[0]
        m, frac = self._slab(z)
        if frac < 1 / 3:
            return self.pos_of[m]
        if frac >= 2 / 3:
            return self.pos_of[m + 1]
        return None

    def positions_at(self, z: float) -> list[tuple[float, float]]:
        """Every track's `track_position` at z, indexed by track - 1."""
        pts = self.placement.points
        slots = self.resting_slots(z)
        if slots is not None:
            return [pts[p - 1] for p in slots]
        m, frac = self._slab(z)
        i = self.word.letters[m][0]
        out = [pts[p - 1] for p in self.pos_of[m]]
        out[self.occ[m][i - 1] - 1] = self.geoms[m].u(3 * frac - 1)
        out[self.occ[m][i] - 1] = self.geoms[m].v(3 * frac - 1)
        return out


def strand_paths(w: BraidWord) -> StrandPathSet:
    """Build the canonical strand paths for a word (empty words allowed)."""
    placement = slot_angles(w.n)
    occ = tuple(strand_positions(w))
    pos_of = []
    for vec in occ:
        inv = [0] * w.n
        for p, tr in enumerate(vec, start=1):
            inv[tr - 1] = p
        pos_of.append(tuple(inv))
    geoms = tuple(letter_geometry(w.n, i, s) for i, s in w.letters)
    return StrandPathSet(w, placement, bump_amplitude(w.n), occ, tuple(pos_of), geoms)
