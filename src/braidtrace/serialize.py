"""Trace graph documents: canonical JSON and DOT export.

The JSON writer is deterministic byte for byte: `graph_to_document` holds
each float at 12 significant digits (an integral one as an int), and
`canonical_json` is the stdlib encoder with sorted keys, compact separators,
ASCII output and no NaN, for documents with string keys only.  The encoder
prints a rounded float as its shortest repr, the digits of ".12g", except
-0.0 (written 0), subnormals and magnitudes of 1e12 or more; no graph holds
these, as z lies in [0, 1), t in [0, 2*pi), dz and dt are small sums and
the builder never makes -0.0.  A non-finite float raises ValueError.

Loading a document rebuilds a TraceGraph carrying all combinatorial data
(rotation systems, levels, markings, displacements); fiber operations need
the original strand paths and are not available on loaded graphs.  A
circle's marking must name its own component pair, with a mixed pair's
cyclic index in 1..gcd, as on every built graph: the isotopy decision reads
a circle's family and shift range from its marking.  A document is refused
with a SchemaError naming the fault when it lacks a key or a record field,
has a document, section, record list or record of the wrong JSON shape, a
field value or map key of the wrong JSON type, a number that is not finite,
a word that is no braid word, a strand, level or component label out of
the word's range, or a coordinate or displacement out of bounds: z in
[0, 1], t in [0, 2*pi] (both widened by 1e-9 for the 12-digit rounding),
|dz| <= n^2 and |dt| <= 2*pi*n^2*(l + 1) for a word of length l.  Built and
reduced graphs stay well inside; a larger displacement would only slow or
overflow the isotopy decision.  It is refused too when its incidence,
rotation data and circles disagree, as reduction and the isotopy decision
read each from the others: a vertex whose `below` or `above` does not list
three distinct edges, or lists one whose head (below) or tail (above) is
another vertex; an edge with ends missing from its tail's `above` or its
head's `below`; an edge in no circle's edges, in two, or in one other than
its own circle's; a circle with no edges, or a vertex-free one with more
than one; or a circle whose consecutive edges (cyclically) break the
continuation rule of `TraceVertex`.  An edge may run from a vertex to
itself, and then sits in both of its lists.
"""

from __future__ import annotations

import json
import math
import re

from . import __version__ as TOOL_VERSION
from .embedding import EVENT_SEP, GENERICITY_MARGIN, ROOT_TOL
from .tracegraph import Marking, TraceCircle, TraceEdge, TraceGraph, TraceVertex
from .words import BraidWord, cycle_structure

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def _num(x: float) -> float | int:
    """x at 12 significant digits, as an int when that value is integral."""
    r = float(f"{x:.12g}")
    return int(r) if r.is_integer() else r


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def graph_to_document(g: TraceGraph) -> dict:
    word = {"n": g.n, "letters": [[i, s] for i, s in g.word.letters]}
    vertices = [
        {
            "id": v.id,
            "z": _num(v.z),
            "t": _num(v.t),
            "strands": list(v.strands),
            "letter": v.letter,
            "spectator_slot": v.spectator_slot,
            "below": list(v.below),
            "above": list(v.above),
        }
        for v in sorted(g.vertices.values(), key=lambda v: v.id)
    ]
    edges = [
        {
            "id": e.id,
            "tail": e.tail,
            "head": e.head,
            "dz": _num(e.dz),
            "dt": _num(e.dt),
            "level": e.level,
            "circle": e.circle,
            "over_under": list(e.pair),
            "tail_pair": list(e.tail_pair) if e.tail_pair else None,
            "head_pair": list(e.head_pair) if e.head_pair else None,
        }
        for e in sorted(g.edges.values(), key=lambda e: e.id)
    ]
    circles = [
        {
            "id": c.id,
            "marking": [c.marking.i, c.marking.j, c.marking.k],
            "diff": c.diff,
            "comp_pair": list(c.comp_pair),
            "edges": list(c.edges),
            "dz_total": c.dz_total,
            "dt_winding": c.dt_winding,
        }
        for c in sorted(g.circles.values(), key=lambda c: c.id)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "word": word,
        "vertices": vertices,
        "edges": edges,
        "circles": circles,
        "symmetry": {
            "vertices": {str(k): v for k, v in g.vertex_partner.items()},
            "edges": {str(k): v for k, v in g.edge_partner.items()},
            "circles": {str(k): v for k, v in g.circle_partner.items()},
        },
        "pass_circle": {f"{a},{b}": c for (a, b), c in g.pass_circle.items()},
        "reduced_from": g.reduced_from,
        "provenance": {
            "tool": "braidtrace",
            "version": TOOL_VERSION,
            "tolerances": {
                "event_separation": _num(EVENT_SEP),
                "root": _num(ROOT_TOL),
                "genericity_margin": _num(GENERICITY_MARGIN),
            },
        },
    }


_DOCUMENT_KEYS = ("word", "vertices", "edges", "circles", "symmetry", "pass_circle")
# each record field's JSON type: an integer (never a boolean), a finite
# number, an integer array, or one of a fixed length ("ints:3"); "?" admits
# null; a word after a space names the word's range its integers lie in,
# or the closed interval a number lies in
_RECORD_FIELDS = {
    "vertex": {
        "id": "int", "z": "num z", "t": "num t", "strands": "ints:3 strand", "letter": "int",
        "spectator_slot": "int", "below": "ints", "above": "ints",
    },
    "edge": {
        "id": "int", "tail": "int?", "head": "int?", "dz": "num dz", "dt": "num dt",
        "level": "int level", "circle": "int", "over_under": "ints:2 component",
        "tail_pair": "ints:2? strand", "head_pair": "ints:2? strand",
    },
    "circle": {
        "id": "int", "marking": "ints:3", "diff": "int", "comp_pair": "ints:2 component",
        "edges": "ints", "dz_total": "int", "dt_winding": "int",
    },
}
_COUNT_WORDS = {"2": "two", "3": "three"}
_ID_KEY = re.compile(r"([0-9]+)")
_PAIR_KEY = re.compile(r"([0-9]+),([0-9]+)")


def _expect(value, kind: type, what: str):
    """value, when it is of kind (dict or list); SchemaError naming it otherwise."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise SchemaError(f"{what}: expected {expected}, got {type(value).__name__}")
    return value


def _require(record: dict, keys, what: str) -> None:
    """Raise SchemaError when record is not an object, or naming the first
    of keys that it lacks."""
    _expect(record, dict, what)
    for key in keys:
        if key not in record:
            raise SchemaError(f"{what}: missing field {key!r}")


def _check_field(value, spec: str, what: str, field: str, ranges: dict | None = None) -> None:
    """Raise SchemaError naming what's field unless value has the JSON type
    of spec, and its integers lie in the range, or its number in the
    interval, that spec names in ranges (see `_RECORD_FIELDS`)."""
    spec, _, domain = spec.partition(" ")
    if value is None and spec.endswith("?"):
        return
    kind, _, size = spec.rstrip("?").partition(":")
    null = " or null" if spec.endswith("?") else ""
    if kind == "int" and type(value) is not int:
        raise SchemaError(f"{what}: {field} must be an integer{null}")
    if kind == "num" and type(value) not in (int, float):
        raise SchemaError(f"{what}: {field} must be a number{null}")
    if type(value) is float and not math.isfinite(value):
        raise SchemaError(f"{what}: {field} must be finite, got {value}")
    if kind == "ints":
        ints = type(value) is list and all(type(x) is int for x in value)
        if size and not (ints and len(value) == int(size)):
            count = _COUNT_WORDS[size]
            raise SchemaError(f"{what}: {field} needs {count} entries, all integers{null}")
        if not ints:
            raise SchemaError(f"{what}: {field} must be an array of integers{null}")
    if domain and kind == "num":
        lo, hi = ranges[domain]
        if not lo <= value <= hi:
            raise SchemaError(f"{what}: {field} lies outside [{lo:.12g}, {hi:.12g}]")
    elif domain:
        allowed = ranges[domain]
        for x in value if kind == "ints" else (value,):
            if x not in allowed:
                span = f"{allowed.start}..{allowed.stop - 1}"
                raise SchemaError(f"{what}: {field} holds {x}, not a {domain} in {span}")


def _records(doc: dict, key: str, kind: str, ranges: dict) -> list[dict]:
    """The records of doc[key], each checked to carry every field of its
    kind with its JSON type and range; a record is named by its id, or by
    its position without one."""
    for k, rec in enumerate(_expect(doc[key], list, key)):
        _require(rec, ("id",), f"{kind} at position {k}")
        _require(rec, _RECORD_FIELDS[kind], f"{kind} {rec['id']}")
        for field, spec in _RECORD_FIELDS[kind].items():
            _check_field(rec[field], spec, f"{kind} {rec['id']}", field, ranges)
    return doc[key]


def _int_map(value, what: str, key_pattern: re.Pattern) -> dict:
    """The object value as {key: integer}, each key read as the int, or the
    tuple of ints, of key_pattern's digit groups; SchemaError naming what on
    a key that does not match or a value that is not an integer."""
    out = {}
    for key, v in _expect(value, dict, what).items():
        m = key_pattern.fullmatch(key)
        if m is None:
            raise SchemaError(f"{what}: key {key!r} does not parse")
        _check_field(v, "int", what, f"value of {key!r}")
        parts = tuple(map(int, m.groups()))
        out[parts if len(parts) > 1 else parts[0]] = v
    return out


def document_to_graph(doc: dict) -> TraceGraph:
    _expect(doc, dict, "document")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    _require(doc, _DOCUMENT_KEYS, "document")
    _require(doc["word"], ("n", "letters"), "word")
    _require(doc["symmetry"], ("vertices", "edges", "circles"), "symmetry")
    _check_field(doc["word"]["n"], "int", "word", "n")
    for k, letter in enumerate(_expect(doc["word"]["letters"], list, "word letters")):
        _check_field(letter, "ints:2", "word", f"letter {k}")
    _check_field(doc.get("reduced_from"), "int?", "document", "reduced_from")
    try:
        word = BraidWord(doc["word"]["n"], tuple((i, s) for i, s in doc["word"]["letters"]))
    except ValueError as exc:
        raise SchemaError(f"word: {exc}") from exc
    cycles = cycle_structure(word)
    n, labels = word.n, len(cycles.lengths)
    ranges = {"strand": range(1, n + 1), "level": range(1, n), "component": range(1, labels + 1)}
    dt = 2 * math.pi * n * n * (len(word) + 1)
    ranges.update(z=(-1e-9, 1 + 1e-9), t=(-1e-9, 2 * math.pi + 1e-9))
    ranges.update(dz=(-n * n, n * n), dt=(-dt, dt))
    vertices = {}
    for v in _records(doc, "vertices", "vertex", ranges):
        vertices[v["id"]] = TraceVertex(
            v["id"], v["z"], v["t"], tuple(v["strands"]), v["letter"],
            v["spectator_slot"], tuple(v["below"]), tuple(v["above"]),
        )
    edges = {}
    for e in _records(doc, "edges", "edge", ranges):
        edges[e["id"]] = TraceEdge(
            e["id"], e["tail"], e["head"], e["dz"], e["dt"], e["level"],
            e["circle"], tuple(e["over_under"]),
            tuple(e["tail_pair"]) if e["tail_pair"] else None,
            tuple(e["head_pair"]) if e["head_pair"] else None,
        )
    circles = {}
    for c in _records(doc, "circles", "circle", ranges):
        circles[c["id"]] = TraceCircle(
            c["id"], Marking(*c["marking"]), c["diff"], tuple(c["comp_pair"]),
            tuple(c["edges"]), c["dz_total"], c["dt_winding"],
        )
    partners = [
        _int_map(doc["symmetry"][kind], f"symmetry {kind}", _ID_KEY)
        for kind in ("vertices", "edges", "circles")
    ]
    pass_circle = _int_map(doc["pass_circle"], "pass_circle", _PAIR_KEY)
    _check_references(vertices, edges, circles, partners, pass_circle)
    _check_incidence(vertices, edges, circles)
    for c in circles.values():
        _check_marking(c, cycles.lengths)
    return TraceGraph(
        word.n,
        word,
        cycles,
        vertices,
        edges,
        circles,
        *partners,
        pass_circle,
        paths=None,
        reduced_from=doc.get("reduced_from"),
    )


def _check_references(vertices, edges, circles, partners, pass_circle) -> None:
    """Raise SchemaError naming the first record that refers to a missing one."""
    for v in vertices.values():
        if not {*v.below, *v.above} <= edges.keys():
            raise SchemaError(f"vertex {v.id} references missing edges")
    for e in edges.values():
        if (e.tail, e.head) != (None, None) and not {e.tail, e.head} <= vertices.keys():
            raise SchemaError(f"edge {e.id}: tail and head must both be vertices or both null")
        if e.circle not in circles:
            raise SchemaError(f"edge {e.id} references missing circle {e.circle}")
    for c in circles.values():
        if not set(c.edges) <= edges.keys():
            raise SchemaError(f"circle {c.id} references missing edges")
    kinds = ("vertex", vertices), ("edge", edges), ("circle", circles)
    for (kind, records), pairing in zip(kinds, partners):
        for a, b in pairing.items():
            if a not in records or b not in records:
                raise SchemaError(f"symmetry pairs {kind} {a} with {b}, a missing {kind}")
    for pair, cid in pass_circle.items():
        if cid not in circles:
            raise SchemaError(f"pass_circle {pair} references missing circle {cid}")


def _check_incidence(vertices, edges, circles) -> None:
    """Raise SchemaError naming the first record whose incidence, rotation
    data and circle edges disagree.  Every reference resolves
    (`_check_references`)."""
    for v in vertices.values():
        for side, end in (("below", "head"), ("above", "tail")):
            ids = getattr(v, side)
            if len(ids) != 3 or len(set(ids)) != 3:
                raise SchemaError(f"vertex {v.id}: {side} must list three distinct edges")
            for x in ids:
                if getattr(edges[x], end) != v.id:
                    raise SchemaError(f"vertex {v.id}: {side} edge {x} has another {end}")
    home = {}
    for c in circles.values():
        for x in c.edges:
            if x in home:
                raise SchemaError(f"edge {x} lies in circles {home[x]} and {c.id}")
            home[x] = c.id
    for e in edges.values():
        if e.tail is not None and (e.id not in vertices[e.tail].above
                                   or e.id not in vertices[e.head].below):
            raise SchemaError(f"edge {e.id} is missing from its tail's above or its head's below")
        if e.id not in home:
            raise SchemaError(f"edge {e.id} lies in no circle's edges")
        if home[e.id] != e.circle:
            raise SchemaError(f"edge {e.id} lies in circle {home[e.id]}, not its circle {e.circle}")
    for c in circles.values():
        if not c.edges:
            raise SchemaError(f"circle {c.id} has no edges")
        if len(c.edges) > 1 and any(edges[x].tail is None for x in c.edges):
            raise SchemaError(f"circle {c.id}: a vertex-free circle holds exactly one edge")
        for x, nxt in zip(c.edges, c.edges[1:] + c.edges[:1]):
            v = vertices.get(edges[x].head)  # the continuation rule of `TraceVertex`
            if v is not None and nxt != v.above[2 - v.below.index(x)]:
                raise SchemaError(f"circle {c.id}: edge {nxt} does not continue edge {x}")


def _check_marking(c: TraceCircle, lengths: tuple[int, ...]) -> None:
    m = c.marking
    if (m.i, m.j) != c.comp_pair:
        raise SchemaError(f"circle {c.id}: marking {m} does not match components {c.comp_pair}")
    if m.i != m.j and not 1 <= m.k <= math.gcd(lengths[m.i - 1], lengths[m.j - 1]):
        raise SchemaError(f"circle {c.id}: marking {m} has a cyclic index out of range")


_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


def to_dot(g: TraceGraph) -> str:
    """Deterministic DOT rendering on the (z, t) torus: vertices positioned by
    coordinates, edges coloured by circle and labelled by level."""
    lines = ["digraph tracegraph {"]
    lines.append('  graph [label="trace graph of %s on %d strands"];' % (g.word, g.n))
    for v in sorted(g.vertices.values(), key=lambda v: v.id):
        lines.append(
            f'  v{v.id} [shape=point,pos="{v.t:.6f},{v.z:.6f}!",'
            f'xlabel="v{v.id}"];'
        )
    loop_anchor = 0
    for c in sorted(g.circles.values(), key=lambda c: c.id):
        color = _PALETTE[c.id % len(_PALETTE)]
        for eid in c.edges:
            e = g.edges[eid]
            label = f"{c.marking} L{e.level}"
            if e.tail is None:
                lines.append(
                    f'  loop{loop_anchor} [shape=plaintext,label="{label} '
                    f'(dz={e.dz:.0f},dt_winding={c.dt_winding})",'
                    f'fontcolor="{color}"];'
                )
                loop_anchor += 1
            else:
                lines.append(
                    f'  v{e.tail} -> v{e.head} [color="{color}",label="{label}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
