import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import golden_words, reference_fmt

import braidtrace
from braidtrace import serialize
from braidtrace import cli
from braidtrace import equivalence as eq
from braidtrace.serialize import (
    SchemaError,
    canonical_json,
    document_to_graph,
    graph_to_document,
    to_dot,
)
from braidtrace.tracegraph import build_trace_graph, read_word_at
from braidtrace.words import BraidWord, parse_word, random_word

# sha256 of the canonical_json documents of golden_words(), one per line,
# as written before the in-package root solver replaced scipy's brentq
GOLDEN_SHA256 = "a605741507d1f38ee49e94fafda26952df25d21d210bf8722771eab76e39b637"


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

    def test_golden_bytes(self):
        h = hashlib.sha256()
        for w in golden_words():
            h.update(canonical_json(graph_to_document(build_trace_graph(w))).encode() + b"\n")
        assert h.hexdigest() == GOLDEN_SHA256

    def test_dot_deterministic(self):
        g = build_trace_graph(parse_word("s1 s2", 3))
        assert to_dot(g) == to_dot(g)
        assert to_dot(g).startswith("digraph")


class TestWriter:
    """canonical_json against the isinstance-dispatch reference writer."""

    def test_built_and_reduced_documents(self):
        for w in golden_words()[::2]:
            g = build_trace_graph(w)
            for h in (g, eq.reduce(g)):
                doc = graph_to_document(h)
                assert canonical_json(doc) == reference_fmt(doc) + "\n"

    def test_synthetic_documents(self):
        class Count(int):
            pass

        class Name(str):
            pass

        docs = [
            None, True, False, 0, -7, 2**70, Count(3), 1.5, -0.0, 1e-300,
            float("inf"), float("nan"), "", "plain", Name("sub"),
            'quote " and backslash \\', "non-ASCII: \u00e9 \u00df \u6f22 \U0001f600", "\x00\n\t",
            [], (), {}, [[]], {"e": {}},
            [None, True, False, 1, 2.5, "s", [], {}, (1, (2, [3]))],
            [1, True, 2], [1, 2.0], (1, 2, 3), [[1, 2], [3, 4]],
            {"b": 1, "a": [1, 2], "\u00e9": "\u00fc", 'q"': None, "z\\": True},
            {str(k): k for k in range(20)},
            {f"k{k:02}": [k, float(k), str(k)] for k in range(13)},
            {"nested": {"x": {"y": {}}}, "t": (True, None), "f": [False]},
            {3: "int keys", 1: "a"},
        ]
        for doc in docs:
            assert canonical_json(doc) == reference_fmt(doc) + "\n", doc

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", {"a": [1, object()]}, [(1, {2})]])
    def test_unsupported_type_raises(self, bad):
        with pytest.raises(TypeError):
            reference_fmt(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)

    def test_shape_cache_is_bounded(self):
        rng = random.Random(11)
        words = set()
        while len(words) < 200:
            n = rng.choice((2, 3, 4, 5))
            words.add(random_word(n, rng.randint(0, 6), rng))
        shapes = set()
        for w in sorted(words, key=str):
            doc = graph_to_document(build_trace_graph(w))
            assert canonical_json(doc) == reference_fmt(doc) + "\n"
            shapes |= _small_dict_shapes(doc)
        assert len(shapes) > 16  # the index maps of small graphs alone would overflow it
        assert len(serialize._shapes) <= 16


def _small_dict_shapes(value) -> set:
    if isinstance(value, dict):
        out = {tuple(value)} if len(value) <= 12 else set()
        for v in value.values():
            out |= _small_dict_shapes(v)
        return out
    if isinstance(value, list):
        return set().union(*map(_small_dict_shapes, value))
    return set()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "braidtrace", *args], capture_output=True, text=True
    )


class TestCli:
    def test_build_and_vertex_count(self, tmp_path):
        out = tmp_path / "a.json"
        r = run_cli("build", "--word", "s1", "--strands", "3", "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
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
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
