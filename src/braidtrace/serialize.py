"""Trace graph documents: canonical JSON and DOT export.

The JSON writer is deterministic byte for byte: keys sorted, floats at 12
significant digits.  Loading a document rebuilds a TraceGraph carrying all
combinatorial data (rotation systems, levels, markings, displacements);
fiber operations need the original strand paths and are not available on
loaded graphs.  A circle's marking must name its own component pair, with a
mixed pair's cyclic index in 1..gcd, as on every built graph: the isotopy
decision reads a circle's family and shift range from its marking.  A
document that lacks a key or a record field is refused with a SchemaError
naming it.
"""

from __future__ import annotations

import json
import math

from . import __version__ as TOOL_VERSION
from .embedding import EVENT_SEP, GENERICITY_MARGIN, ROOT_TOL
from .tracegraph import Marking, TraceCircle, TraceEdge, TraceGraph, TraceVertex
from .words import BraidWord, cycle_structure

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls
_INT_ONLY = {int}
_STR_ONLY = {str}
# dict key tuple (insertion order) -> (sorted keys, their encoded "key:" prefixes),
# for dicts of at most _SHAPE_KEYS keys: every record has at most 10, while the
# index maps of larger graphs are longer and rarely repeat their key order.
# The first _SHAPE_CACHE shapes are kept, so memory stays bounded.
_SHAPE_KEYS = 12
_SHAPE_CACHE = 16
_shapes: dict[tuple, tuple[list, list[str]]] = {}


def _fmt(value) -> str:
    """Dispatch on the exact type; None, booleans, subclasses, dicts with
    other than string keys and unsupported types take `_fmt_any`."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is float:
        return f"{value:.12g}"
    if kind is str:
        return _encode_str(value)
    if kind is list or kind is tuple:
        if {*map(type, value)} == _INT_ONLY:
            return "[" + ",".join(map(str, value)) + "]"
        return "[" + ",".join([_fmt(x) for x in value]) + "]"
    if kind is dict:
        return _fmt_dict(value)
    return _fmt_any(value)


def _fmt_dict(value: dict) -> str:
    if not value or {*map(type, value)} != _STR_ONLY:
        return _fmt_any(value)
    if len(value) > _SHAPE_KEYS:
        keys = sorted(value)
        prefixes = [_encode_str(k) + ":" for k in keys]
    else:
        shape = tuple(value)
        hit = _shapes.get(shape)
        if hit is None:
            keys = sorted(shape)
            hit = (keys, [_encode_str(k) + ":" for k in keys])
            if len(_shapes) < _SHAPE_CACHE:
                _shapes[shape] = hit
        keys, prefixes = hit
    return "{" + ",".join([p + _fmt(value[k]) for k, p in zip(keys, prefixes)]) + "}"


def _fmt_any(value) -> str:
    """The writer by isinstance, for what `_fmt` does not dispatch; raises
    TypeError on a type JSON cannot hold."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialise {type(value)}")


def canonical_json(doc: dict) -> str:
    return _fmt(doc) + "\n"


def graph_to_document(g: TraceGraph) -> dict:
    word = {"n": g.n, "letters": [[i, s] for i, s in g.word.letters]}
    vertices = [
        {
            "id": v.id,
            "z": v.z,
            "t": v.t,
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
            "dz": e.dz,
            "dt": e.dt,
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
                "event_separation": EVENT_SEP,
                "root": ROOT_TOL,
                "genericity_margin": GENERICITY_MARGIN,
            },
        },
    }


_DOCUMENT_KEYS = ("word", "vertices", "edges", "circles", "symmetry", "pass_circle")
_RECORD_FIELDS = {
    "vertex": ("id", "z", "t", "strands", "letter", "spectator_slot", "below", "above"),
    "edge": (
        "id", "tail", "head", "dz", "dt", "level", "circle",
        "over_under", "tail_pair", "head_pair",
    ),
    "circle": ("id", "marking", "diff", "comp_pair", "edges", "dz_total", "dt_winding"),
}


def _require(record: dict, keys, what: str) -> None:
    """Raise SchemaError naming the first of keys that record lacks."""
    for key in keys:
        if key not in record:
            raise SchemaError(f"{what}: missing field {key!r}")


def _records(doc: dict, key: str, kind: str) -> list[dict]:
    """The records of doc[key], each checked to carry every field of its
    kind; a record is named by its id, or by its position without one."""
    for k, rec in enumerate(doc[key]):
        _require(rec, ("id",), f"{kind} at position {k}")
        _require(rec, _RECORD_FIELDS[kind], f"{kind} {rec['id']}")
    return doc[key]


def document_to_graph(doc: dict) -> TraceGraph:
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    _require(doc, _DOCUMENT_KEYS, "document")
    _require(doc["word"], ("n", "letters"), "word")
    _require(doc["symmetry"], ("vertices", "edges", "circles"), "symmetry")
    word = BraidWord(doc["word"]["n"], tuple((i, s) for i, s in doc["word"]["letters"]))
    vertices = {}
    for v in _records(doc, "vertices", "vertex"):
        vertices[v["id"]] = TraceVertex(
            v["id"], v["z"], v["t"], tuple(v["strands"]), v["letter"],
            v["spectator_slot"], tuple(v["below"]), tuple(v["above"]),
        )
    edges = {}
    for e in _records(doc, "edges", "edge"):
        edges[e["id"]] = TraceEdge(
            e["id"], e["tail"], e["head"], e["dz"], e["dt"], e["level"],
            e["circle"], tuple(e["over_under"]),
            tuple(e["tail_pair"]) if e["tail_pair"] else None,
            tuple(e["head_pair"]) if e["head_pair"] else None,
        )
    circles = {}
    for c in _records(doc, "circles", "circle"):
        circles[c["id"]] = TraceCircle(
            c["id"], Marking(*c["marking"]), c["diff"], tuple(c["comp_pair"]),
            tuple(c["edges"]), c["dz_total"], c["dt_winding"],
        )
    partners = [
        {int(k): v for k, v in doc["symmetry"][kind].items()}
        for kind in ("vertices", "edges", "circles")
    ]
    pass_circle = {}
    for key, cid in doc["pass_circle"].items():
        a, b = key.split(",")
        pass_circle[(int(a), int(b))] = cid
    _check_references(vertices, edges, circles, partners, pass_circle)
    cycles = cycle_structure(word)
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


def _check_marking(c: TraceCircle, lengths: tuple[int, ...]) -> None:
    m = c.marking
    if (m.i, m.j) != c.comp_pair or not all(1 <= x <= len(lengths) for x in c.comp_pair):
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
                    f'(dz={e.dz:.0f},w={-round(e.dt / 6.283185307179586)})",'
                    f'fontcolor="{color}"];'
                )
                loop_anchor += 1
            else:
                lines.append(
                    f'  v{e.tail} -> v{e.head} [color="{color}",label="{label}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
