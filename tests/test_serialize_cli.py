import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import golden_words, reference_fmt, wide_words

import braidtrace
from braidtrace import serialize
from braidtrace import cli
from braidtrace import equivalence as eq
from braidtrace.embedding import EVENT_SEP, GENERICITY_MARGIN, ROOT_TOL
from braidtrace.serialize import (
    SchemaError,
    _num,
    canonical_json,
    document_to_graph,
    graph_to_document,
    to_dot,
)
from braidtrace.tracegraph import build_trace_graph, read_word_at
from braidtrace.words import BraidWord, parse_word, random_word

# sha256 of the canonical_json documents of golden_words(), one per line,
# recorded when the builder began to read each visit end at its vertex's
# own trisecant s, which moved edge dt in the written digits
GOLDEN_SHA256 = "9894c52420b96545b43b363d0f51b88a4e1b2903a3646157599428a98f8f7c92"
# sha256 of to_dot of golden_words(), each built and then reduced, recorded
# when loop labels began to print the circle's dt_winding with its own sign
GOLDEN_DOT_SHA256 = "42614cddc807363f041134b6d1fd7c94ce73ca87b128bf91ef7d74737aa8cfe5"


def _put(value, *path):
    """A corruption of a document: the entry at path set to value."""
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return corrupt


def _rekey(path, key):
    """A corruption of a document: the first key of the map at path renamed."""
    def corrupt(doc):
        target = doc
        for part in path:
            target = target[part]
        target[key] = target.pop(next(iter(target)))
        return doc
    return corrupt


class TestDocuments:
    @pytest.mark.parametrize(
        "text,n", [("s1", 3), ("", 2), ("(s1 s2^-1)^3", 3), ("s2 s3 s3 s2", 4)]
    )
    def test_round_trip_bytes(self, text, n):
        g = build_trace_graph(parse_word(text, n) if text else BraidWord(n))
        first = canonical_json(graph_to_document(g))
        loaded = document_to_graph(json.loads(first))
        second = canonical_json(graph_to_document(loaded))
        assert first == second

    def test_loaded_graph_is_equivalent(self):
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        loaded = document_to_graph(json.loads(canonical_json(graph_to_document(g))))
        assert loaded.pass_circle == g.pass_circle
        assert loaded.vertex_partner == g.vertex_partner
        assert {e: loaded.edges[e].level for e in loaded.edges} == {
            e: g.edges[e].level for e in g.edges
        }
        assert eq.isotopic(g, loaded)

    def test_loaded_graph_supports_reduction(self, borromean_graphs):
        _, g2 = borromean_graphs
        loaded = document_to_graph(json.loads(canonical_json(graph_to_document(g2))))
        assert eq.reduce(loaded).num_vertices == 12

    def test_version_has_one_source(self):
        # the document's tool version is the package's, which the project
        # metadata declares
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
            declared = tomllib.load(f)["project"]["version"]
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        assert doc["provenance"]["version"] == serialize.TOOL_VERSION == declared
        assert braidtrace.__version__ == declared

    def test_schema_version_checked(self):
        g = build_trace_graph(parse_word("s1", 3))
        doc = graph_to_document(g)
        doc["schema"] = 99
        with pytest.raises(SchemaError):
            document_to_graph(doc)

    def test_referential_integrity_checked(self):
        g = build_trace_graph(parse_word("s1", 3))
        doc = graph_to_document(g)
        doc["edges"] = doc["edges"][:-1]
        with pytest.raises(SchemaError):
            document_to_graph(doc)

    def test_edge_ends_must_be_vertices(self):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        e = next(e for e in doc["edges"] if e["tail"] is not None)
        e["head"] = 999
        with pytest.raises(SchemaError, match=f"edge {e['id']}: tail and head"):
            document_to_graph(doc)
        e["head"] = None  # a vertex-free loop has neither end
        with pytest.raises(SchemaError, match=f"edge {e['id']}: tail and head"):
            document_to_graph(doc)

    def test_vertex_edges_must_exist(self):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        v = doc["vertices"][1]
        v["above"][2] = 999
        with pytest.raises(SchemaError, match=f"vertex {v['id']} references missing edges"):
            document_to_graph(doc)

    def test_edge_circle_must_exist(self):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        e = doc["edges"][2]
        e["circle"] = 999
        with pytest.raises(SchemaError, match=f"edge {e['id']} references missing circle 999"):
            document_to_graph(doc)

    @pytest.mark.parametrize(
        "kind,record", [("vertices", "vertex"), ("edges", "edge"), ("circles", "circle")]
    )
    def test_symmetry_must_name_records(self, kind, record):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        key = next(iter(doc["symmetry"][kind]))
        doc["symmetry"][kind][key] = 999
        with pytest.raises(SchemaError, match=f"symmetry pairs {record} {key} with 999"):
            document_to_graph(doc)

    def test_pass_circle_must_exist(self):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        key = next(iter(doc["pass_circle"]))
        doc["pass_circle"][key] = 999
        with pytest.raises(SchemaError, match="pass_circle .* references missing circle 999"):
            document_to_graph(doc)

    @pytest.mark.parametrize(
        "key", ["word", "vertices", "edges", "circles", "symmetry", "pass_circle"]
    )
    def test_missing_top_level_key(self, key):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        del doc[key]
        with pytest.raises(SchemaError, match=f"document: missing field '{key}'"):
            document_to_graph(doc)

    @pytest.mark.parametrize(
        "kind,record,field",
        [("vertices", "vertex", "below"), ("edges", "edge", "dt"), ("circles", "circle", "edges")],
    )
    def test_missing_record_field(self, kind, record, field):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        rec = doc[kind][1]
        del rec[field]
        with pytest.raises(SchemaError, match=f"{record} {rec['id']}: missing field '{field}'"):
            document_to_graph(doc)
        del rec["id"]
        with pytest.raises(SchemaError, match=f"{record} at position 1: missing field 'id'"):
            document_to_graph(doc)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda doc: [doc], "document: expected an object, got list"),
            (lambda doc: {**doc, "word": "s1"}, "word: expected an object, got str"),
            (lambda doc: {**doc, "symmetry": []}, "symmetry: expected an object, got list"),
            (lambda doc: {**doc, "vertices": doc["vertices"][:1] + ["v"]},
             "vertex at position 1: expected an object, got str"),
            (lambda doc: {**doc, "edges": [7] + doc["edges"]},
             "edge at position 0: expected an object, got int"),
            (lambda doc: {**doc, "circles": [None]}, "circle at position 0: expected an object"),
            (lambda doc: {**doc, "circles": {}}, "circles: expected an array, got dict"),
            (lambda doc: {**doc, "circles": [{**doc["circles"][0], "marking": [1, 1]}]},
             "circle 0: marking needs three entries"),
            (_rekey(("pass_circle",), "12"), "pass_circle: key '12' does not parse"),
            (_rekey(("symmetry", "vertices"), "x"), "symmetry vertices: key 'x' does not parse"),
            (_put([1], "word", "letters", 0), "word: letter 0 needs two entries"),
            (_put(5, "vertices", 0, "strands"), "vertex 0: strands needs three entries"),
            (_put(5, "edges", 0, "over_under"), "edge 0: over_under needs two entries"),
            (_put(5, "circles", 0, "edges"), "circle 0: edges must be an array of integers"),
            (_put(None, "vertices", 0, "below"), "vertex 0: below must be an array of integers"),
            (_put("3", "word", "n"), "word: n must be an integer"),
            (_put("1", "edges", 0, "level"), "edge 0: level must be an integer"),
            (_put("x", "edges", 0, "dz"), "edge 0: dz must be a number"),
            (_put([1], "edges", 0, "tail_pair"), "edge 0: tail_pair needs two entries.*or null"),
            (_put(True, "edges", 0, "level"), "edge 0: level must be an integer"),
            (_put([1, "2", 1], "circles", 0, "marking"), "circle 0: marking needs three entries"),
        ],
        ids=[
            "document", "word", "symmetry", "vertex", "edge", "circle", "circles", "marking",
            "pass_circle-key", "symmetry-key", "letter", "strands", "over_under",
            "circle-edges", "below", "n", "level", "dz", "tail_pair", "bool-level",
            "marking-entry",
        ],
    )
    def test_malformed_document_refused(self, corrupt, message):
        doc = corrupt(graph_to_document(build_trace_graph(parse_word("s1", 3))))
        with pytest.raises(SchemaError, match=message):
            document_to_graph(doc)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (_put(float("nan"), "vertices", 0, "z"), "vertex 0: z must be finite"),
            (_put(float("inf"), "vertices", 0, "t"), "vertex 0: t must be finite"),
            (_put(float("inf"), "edges", 0, "dz"), "edge 0: dz must be finite"),
            (_put(float("-inf"), "edges", 0, "dt"), "edge 0: dt must be finite"),
            (_put(1, "word", "n"), "word: strand count must be >= 2"),
            (_put([5, 1], "word", "letters", 0), "word: letter index 5 out of range"),
            (_put([1, 0], "word", "letters", 1), "word: letter sign must be"),
            (_put([7, 8, 9], "vertices", 0, "strands"), "vertex 0: strands holds 7, not a strand"),
            (_put([1, 0], "edges", 0, "tail_pair"), "edge 0: tail_pair holds 0, not a strand"),
            (_put([4, 1], "edges", 0, "head_pair"), "edge 0: head_pair holds 4, not a strand"),
            (_put([7, 8], "edges", 0, "over_under"),
             "edge 0: over_under holds 7, not a component in 1..1"),
            (_put(0, "edges", 0, "level"), "edge 0: level holds 0, not a level in 1..2"),
            (_put(9, "edges", 0, "level"), "edge 0: level holds 9, not a level in 1..2"),
            (_put([1, 2], "circles", 0, "comp_pair"),
             "circle 0: comp_pair holds 2, not a component in 1..1"),
            (_put(-0.01, "vertices", 0, "z"), r"vertex 0: z lies outside \[-1e-09, 1.000000001\]"),
            (_put(6.3, "vertices", 0, "t"), r"vertex 0: t lies outside \[-1e-09, 6.28318530818\]"),
            (_put(1e308, "edges", 0, "dt"), r"edge 0: dt lies outside \[-169.646003294, "),
            (_put(10**400, "edges", 0, "dz"), r"edge 0: dz lies outside \[-9, 9\]"),
        ],
        ids=[
            "nan-z", "inf-t", "inf-dz", "minus-inf-dt", "n", "letter-index", "letter-sign",
            "strands", "tail_pair", "head_pair", "over_under", "level-0", "level-9", "comp_pair",
            "z", "t", "huge-dt", "huge-int-dz",
        ],
    )
    def test_out_of_range_refused(self, corrupt, message):
        # the B3 word s1 s2 closes to one component; JSON reads NaN and
        # Infinity (and 1e400 as inf), so the loaded document can hold them;
        # a finite dt of 1e308 kept isotopic(g, g) running for minutes, and
        # an integer dz of 10**400 overflowed it
        g = build_trace_graph(parse_word("s1 s2", 3))
        doc = corrupt(json.loads(canonical_json(graph_to_document(g))))
        with pytest.raises(SchemaError, match=message):
            document_to_graph(doc)

    def test_marking_names_its_components(self):
        # B3 s1 has components of lengths 2 and 1; swap i and j in the
        # marking of one mixed circle, leaving its comp_pair
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        c = next(c for c in doc["circles"] if c["comp_pair"] == [1, 2])
        c["marking"] = [2, 1, c["marking"][2]]
        with pytest.raises(SchemaError, match="does not match components"):
            document_to_graph(doc)

    def test_mixed_marking_index_in_range(self):
        doc = graph_to_document(build_trace_graph(parse_word("s1", 3)))
        c = next(c for c in doc["circles"] if c["comp_pair"] == [1, 2])
        c["marking"][2] = 2  # gcd(2, 1) = 1 cyclic choice
        with pytest.raises(SchemaError, match="out of range"):
            document_to_graph(doc)

    def test_loaded_graph_reads_no_fiber(self):
        # a document holds no strand paths, so there is no fiber to read
        g = build_trace_graph(parse_word("s1 s2^-1", 3))
        loaded = document_to_graph(json.loads(canonical_json(graph_to_document(g))))
        with pytest.raises(ValueError, match="built without strand paths"):
            read_word_at(loaded, 0.0)

    def test_built_and_reduced_documents_load(self):
        # the coordinate and displacement bounds leave room for real graphs,
        # and the incidence checks for an edge that runs from a vertex to
        # itself, and so sits in both of that vertex's lists
        self_loops = 0
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            for h in (g, eq.reduce(g)):
                text = canonical_json(graph_to_document(h))
                loaded = document_to_graph(json.loads(text))
                assert canonical_json(graph_to_document(loaded)) == text, w
                self_loops += any(e.tail == e.head is not None for e in h.edges.values())
        assert self_loops

    def test_golden_bytes(self):
        h = hashlib.sha256()
        for w in golden_words():
            h.update(canonical_json(graph_to_document(build_trace_graph(w))).encode() + b"\n")
        assert h.hexdigest() == GOLDEN_SHA256

    def test_dot_deterministic(self):
        g = build_trace_graph(parse_word("s1 s2", 3))
        assert to_dot(g) == to_dot(g)
        assert to_dot(g).startswith("digraph")

    def test_golden_dot_bytes(self):
        h = hashlib.sha256()
        for w in golden_words():
            g = build_trace_graph(w)
            h.update(to_dot(g).encode() + to_dot(eq.reduce(g)).encode())
        assert h.hexdigest() == GOLDEN_DOT_SHA256

    def test_dot_loop_labels_carry_dt_winding(self):
        # each vertex-free loop is labelled with its circle's dt_winding,
        # sign included, in circle id order
        turning = 0
        for w in golden_words() + wide_words():
            g = build_trace_graph(w)
            for h in (g, eq.reduce(g)):
                loops = [
                    c for _, c in sorted(h.circles.items()) if h.edges[c.edges[0]].tail is None
                ]
                labels = re.findall(r",dt_winding=(-?[0-9]+)\)", to_dot(h))
                assert labels == [str(c.dt_winding) for c in loops], w
                turning += sum(c.dt_winding != 0 for c in loops)
        assert turning


def _tampered(text: str, n: int, change):
    """The document of the built word, changed in place by change."""
    doc = graph_to_document(build_trace_graph(parse_word(text, n) if text else BraidWord(n)))
    change(doc)
    return doc


def _swap_first_two(doc):
    c = doc["circles"][0]["edges"]
    c[0], c[1] = c[1], c[0]


def _swap_first(side: str):
    """Swap the first edges of side ("below" or "above") of vertices 0 and 1."""
    def change(doc):
        a, b = doc["vertices"][0][side], doc["vertices"][1][side]
        a[0], b[0] = b[0], a[0]
    return change


def _extra_edge(doc):
    doc["edges"].append({**doc["edges"][0], "id": 999})
    doc["circles"][0]["edges"].append(999)


def _move_loop(source: int, target: int):
    """Move circle source's edge into circle target's edges."""
    def change(doc):
        (eid,) = doc["circles"][source]["edges"]
        doc["circles"][source]["edges"] = []
        doc["circles"][target]["edges"].append(eid)
        doc["edges"][eid]["circle"] = target
    return change


class TestIncidence:
    """The loader refuses documents whose incidence, rotation data and
    circle edges disagree."""

    # in B4 s1 s2^-1 s3 s2 s1, circle 0 runs through edges 0..9 and circle 1
    # through 10..19
    WORD = ("s1 s2^-1 s3 s2 s1", 4)

    @pytest.mark.parametrize(
        "change,message",
        [
            # each of these three once loaded: isotopic(h, h) raised a bare
            # KeyError (1, then 9) and isotopic(h, g) answered False
            (_put(1, "edges", 0, "circle"), "edge 0 lies in circle 0, not its circle 1"),
            (_put(list(range(9)), "circles", 0, "edges"), "edge 9 lies in no circle's edges"),
            (_swap_first_two, "circle 0: edge 0 does not continue edge 1"),
            (_put([0, 0, 1], "vertices", 0, "below"), "vertex 0: below must list three distinct"),
            (_put([0, 1], "vertices", 0, "above"), "vertex 0: above must list three distinct"),
            (_swap_first("below"), r"vertex 0: below edge \d+ has another head"),
            (_swap_first("above"), r"vertex 0: above edge \d+ has another tail"),
            (_extra_edge, "edge 999 is missing from its tail's above or its head's below"),
            (_put(list(range(10, 20)) + [0], "circles", 1, "edges"),
             "edge 0 lies in circles 0 and 1"),
        ],
        ids=[
            "edge-circle", "dropped-edge", "swapped-edges", "repeated-below", "short-above",
            "below-head", "above-tail", "unlisted-edge", "two-circles",
        ],
    )
    def test_disagreement_refused(self, change, message):
        doc = _tampered(*self.WORD, change)
        with pytest.raises(SchemaError, match=message):
            document_to_graph(doc)

    def test_circles_of_loops(self):
        # the empty B3 word has six vertex-free circles, circle c holding edge c
        with pytest.raises(SchemaError, match="circle 0: a vertex-free circle holds exactly"):
            document_to_graph(_tampered("", 3, _move_loop(5, 0)))
        with pytest.raises(SchemaError, match="circle 0 has no edges"):
            document_to_graph(_tampered("", 3, _move_loop(0, 5)))

    def test_compare_names_the_record(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_tampered(*self.WORD, _put(1, "edges", 0, "circle"))))
        r = run_cli("compare", str(a), str(a))
        assert r.returncode == 2
        assert "edge 0 lies in circle 0, not its circle 1" in r.stderr


class TestWriter:
    """canonical_json against the isinstance-dispatch reference writer."""

    def test_built_and_reduced_documents(self):
        # the reference writes each float of the graph unrounded at .12g
        rng = random.Random(11)
        words = golden_words() + wide_words()
        words += [random_word(n, rng.randint(0, 10), rng) for n in rng.choices(range(2, 9), k=200)]
        for w in words:
            g = build_trace_graph(w)
            for h in (g, eq.reduce(g), eq.reduce(g, rng=random.Random(7))):
                expected = reference_fmt(_unrounded_document(h)) + "\n"
                assert canonical_json(graph_to_document(h)) == expected, w

    def test_synthetic_documents(self):
        class Count(int):
            pass

        class Name(str):
            pass

        docs = [
            None, True, False, 0, -7, 2**70, Count(3), "", "plain", Name("sub"),
            'quote " and backslash \\', "non-ASCII: \u00e9 \u00df \u6f22 \U0001f600", "\x00\n\t",
            [], (), {}, [[]], {"e": {}},
            [None, True, False, 1, "s", [], {}, (1, (2, [3]))],
            [1, True, 2], (1, 2, 3), [[1, 2], [3, 4]],
            {"b": 1, "a": [1, 2], "\u00e9": "\u00fc", 'q"': None, "z\\": True},
            {str(k): k for k in range(20)},
            {f"k{k:02}": [k, str(k)] for k in range(13)},
            {"nested": {"x": {"y": {}}}, "t": (True, None), "f": [False]},
        ]
        for doc in docs:
            assert canonical_json(doc) == reference_fmt(doc) + "\n", doc

    def test_floats_at_twelve_digits(self):
        for x in (1.5, 1e-300, 1e-05, 9.9999999999995e-05, math.pi, -3 * math.pi, 1 / 3, 2.0,
                  123456.0):
            assert json.dumps(_num(x)) == format(x, ".12g"), x
        assert canonical_json([_num(-0.0)]) == "[0]\n"
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": x})

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", {"a": [1, object()]}, [(1, {2})]])
    def test_unsupported_type_raises(self, bad):
        with pytest.raises(TypeError):
            reference_fmt(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)


def _unrounded_document(g) -> dict:
    """graph_to_document(g) with every float field read back from g."""
    doc = graph_to_document(g)
    for rec in doc["vertices"]:
        rec["z"], rec["t"] = g.vertices[rec["id"]].z, g.vertices[rec["id"]].t
    for rec in doc["edges"]:
        rec["dz"], rec["dt"] = g.edges[rec["id"]].dz, g.edges[rec["id"]].dt
    doc["provenance"]["tolerances"] = {
        "event_separation": EVENT_SEP, "root": ROOT_TOL, "genericity_margin": GENERICITY_MARGIN,
    }
    return doc


def _refuse_constant(name: str):
    raise ValueError(f"document holds the non-finite number {name}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "braidtrace", *args], capture_output=True, text=True
    )


class TestCli:
    def test_build_and_vertex_count(self, tmp_path):
        out = tmp_path / "a.json"
        r = run_cli("build", "--word", "s1", "--strands", "3", "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert len(doc["vertices"]) == 2

    def test_build_empty_word(self, tmp_path):
        out = tmp_path / "e.json"
        r = run_cli("build", "--word", "", "--strands", "2", "--out", str(out))
        assert r.returncode == 0
        assert json.loads(out.read_text())["vertices"] == []

    def test_build_bad_word_exits_2(self, tmp_path):
        r = run_cli("build", "--word", "s9", "--strands", "3",
                    "--out", str(tmp_path / "x.json"))
        assert r.returncode == 2

    def test_compare_modes_and_exit_codes(self, tmp_path):
        a, b, t = (tmp_path / x for x in ("a.json", "b.json", "t.json"))
        run_cli("build", "--word", "(s1 s2^-1)^3", "--out", str(a))
        run_cli("build", "--word", "s1^2 s2^2 s1^-2 s2^-2", "--out", str(b))
        run_cli("build", "--word", "", "--strands", "3", "--out", str(t))
        r = run_cli("compare", str(a), str(b), "--mode", "trihedral")
        assert r.returncode == 0
        assert "k_i" in r.stdout and "bound" in r.stdout
        r = run_cli("compare", str(a), str(t), "--mode", "trihedral")
        assert r.returncode == 1
        r = run_cli("compare", str(a), str(b), "--mode", "isotopy")
        assert r.returncode == 1  # unreduced graphs differ by the two thetas

    def test_trihedral_miss_is_not_called_inequivalent(self, tmp_path):
        # the same braid, but trihedral moves alone do not relate the two
        # graphs; trihedral equivalence is incomplete, so a miss proves nothing
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("build", "--word", "s1 s2 s1", "--out", str(a))
        run_cli("build", "--word", "s2 s1 s2", "--out", str(b))
        r = run_cli("compare", str(a), str(b), "--mode", "trihedral")
        assert r.returncode == 1
        assert "no trihedral relation found" in r.stdout
        assert "not equivalent" not in r.stdout

    def test_compare_dangling_edge_exits_2(self, tmp_path):
        a = tmp_path / "a.json"
        run_cli("build", "--word", "s1 s2", "--out", str(a))
        doc = json.loads(a.read_text())
        doc["edges"][0]["head"] = 999
        a.write_text(json.dumps(doc))
        r = run_cli("compare", str(a), str(a))
        assert r.returncode == 2
        assert f"edge {doc['edges'][0]['id']}: tail and head" in r.stderr

    def test_compare_missing_key_exits_2(self, tmp_path):
        a = tmp_path / "a.json"
        run_cli("build", "--word", "s1 s2", "--out", str(a))
        doc = json.loads(a.read_text())
        del doc["pass_circle"]
        a.write_text(json.dumps(doc))
        r = run_cli("compare", str(a), str(a))
        assert r.returncode == 2
        assert "document: missing field 'pass_circle'" in r.stderr

    def test_compare_mismatched_strands_exits_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("build", "--word", "s1", "--strands", "2", "--out", str(a))
        run_cli("build", "--word", "s1", "--strands", "3", "--out", str(b))
        assert run_cli("compare", str(a), str(b)).returncode == 2

    def test_conj3(self):
        r = run_cli("conj3", "--a", "(s1 s2^-1)^3", "--b", "s1^2 s2^2 s1^-2 s2^-2")
        assert r.returncode == 0 and "true" in r.stdout
        r = run_cli("conj3", "--a", "(s1 s2^-1)^3", "--b", "")
        assert r.returncode == 1
        r = run_cli("conj3", "--a", "s1", "--b", "s2")
        assert r.returncode == 0

    @pytest.mark.parametrize(
        "a,b,code",
        [("s1 s2", "s1^-1 s2^-1", 1), ("s1^2 s2^2", "s1^2 s2^-2", 1), ("s1", "s2", 0)],
    )
    def test_conj3_prints_exact_cross_check(self, capsys, a, b, code):
        assert cli.main(["conj3", "--a", a, "--b", b]) == code
        out = capsys.readouterr().out
        assert "exact B3 cross-check" in out and "agrees" in out

    @pytest.mark.parametrize(
        "a,b,line",
        [("s1", "s1 s2", "cycle type"), ("s1^2", "s1^4", "linking numbers"),
         ("s1^3 s2^-3 s1 s2^-1", "s1^-1 s2", "cyclic column")],
    )
    def test_conj3_prints_first_difference(self, capsys, a, b, line):
        assert cli.main(["conj3", "--a", a, "--b", b]) == 1
        assert f"first difference: {line}\n" in capsys.readouterr().out

    def test_conj3_true_names_no_difference(self, capsys):
        assert cli.main(["conj3", "--a", "s1", "--b", "s2"]) == 0
        assert "first difference" not in capsys.readouterr().out

    def test_conj3_oracle_depth_flag_is_gone(self):
        r = run_cli("conj3", "--a", "s1", "--b", "s2", "--oracle-depth", "4")
        assert r.returncode == 2
        assert "--oracle-depth" in r.stderr

    def test_invariants_empty_word(self):
        r = run_cli("invariants", "--word", "", "--strands", "3")
        assert r.returncode == 0
        assert "lk_12 = 0" in r.stdout
        assert "C_12: []" in r.stdout

    def test_check_ok(self):
        r = run_cli("check", "--word", "s2 s1^-1 s3", "--strands", "4")
        assert r.returncode == 0
        assert "result: ok" in r.stdout

    def test_export_dot(self, tmp_path):
        a = tmp_path / "a.json"
        run_cli("build", "--word", "s1", "--strands", "3", "--out", str(a))
        r1 = run_cli("export", str(a))
        r2 = run_cli("export", str(a))
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith("digraph")


def test_cli_loads_no_numerics_library():
    src = os.path.dirname(os.path.dirname(braidtrace.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import braidtrace.checks, braidtrace.cli, braidtrace.equivalence, braidtrace.threebraid\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy', 'fractions', 'decimal')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
