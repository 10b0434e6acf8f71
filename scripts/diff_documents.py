#!/usr/bin/env python3
"""Compare the trace-graph documents and isotopy verdicts of two checkouts.

    python3 scripts/diff_documents.py PARENT_DIR CHANGE_DIR [--seed 41] [--words 300]

Each checkout, in a fresh interpreter on its own `src/` and `tests/`,
builds the golden and wide words of `tests/helpers.py` and `--words` B3-B8
words of length 1-40 drawn from `random.Random(--seed)`, then reduces each
graph in the default order and with `random.Random(3)`, and eliminates each
eliminable trihedron of the built graph on its own (`eliminate_trihedron`).
Every graph, built, reduced and singly eliminated, is written as a canonical
JSON document, and each word's verdict
`isotopic(reduce(g), reduce(g, random.Random(3)))` is kept.

The report gives how many documents differ byte for byte, how many still
differ once the float fields (vertex z and t, edge dz and dt) are removed,
how many verdicts differ, and the largest change of each float field with
the number of records it moved in; a word whose two sides eliminate a
different number of trihedra counts all its documents as structural
differences.  The exit status is 1 on a structural or verdict difference
and 0 otherwise, so a change that only moves float bits passes.  Bytecode
writing is off in the children: the script writes nothing into either
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FLOATS = {"vertices": ("z", "t"), "edges": ("dz", "dt")}

# one JSON line per word: its letters, its documents (built, the two
# reductions, then one per eliminable trihedron) and its verdict
CHILD = """
import json, random, sys
checkout, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [checkout + "/src", checkout + "/tests"]
from helpers import golden_words, wide_words
from braidtrace.equivalence import eliminate_trihedron, find_embedded_trihedra, is_eliminable
from braidtrace.equivalence import isotopic, reduce
from braidtrace.serialize import canonical_json, graph_to_document
from braidtrace.tracegraph import build_trace_graph
from braidtrace.words import random_word
rng = random.Random(seed)
words = golden_words() + wide_words()
for _ in range(count):
    n = rng.randint(3, 8)
    words.append(random_word(n, rng.randint(1, 40), rng))
for w in words:
    g = build_trace_graph(w)
    a, b = reduce(g), reduce(g, random.Random(3))
    singles = [eliminate_trihedron(g, t) for t in find_embedded_trihedra(g) if is_eliminable(g, t)]
    docs = [canonical_json(graph_to_document(x)) for x in (g, a, b, *singles)]
    print(json.dumps({"word": [w.n, w.letters], "docs": docs, "isotopic": bool(isotopic(a, b))}))
"""


def emit(checkout: Path, seed: int, count: int, out: Path) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with out.open("w") as f:
        subprocess.run([sys.executable, "-c", CHILD, str(checkout.resolve()), str(seed), str(count)],
                       stdout=f, env=env, check=True)


def strip_floats(doc: dict) -> dict:
    out = dict(doc)
    for key, fields in FLOATS.items():
        out[key] = [{k: v for k, v in r.items() if k not in fields} for r in doc[key]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--words", type=int, default=300)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / f"{side}.jsonl" for side in SIDES}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            emit(checkout, args.seed, args.words, outs[side])
        words = docs = byte_diff = struct_diff = verdict_diff = 0
        largest = {f: 0.0 for fields in FLOATS.values() for f in fields}
        moved = dict.fromkeys(largest, 0)
        records = dict.fromkeys(largest, 0)
        with outs["parent"].open() as fp, outs["change"].open() as fc:
            for line_p, line_c in zip(fp, fc, strict=True):
                p, c = json.loads(line_p), json.loads(line_c)
                words += 1
                verdict_diff += p["isotopic"] != c["isotopic"]
                if p["word"] != c["word"] or len(p["docs"]) != len(c["docs"]):
                    struct_diff += max(len(p["docs"]), len(c["docs"]))
                    continue
                for text_p, text_c in zip(p["docs"], c["docs"], strict=True):
                    docs += 1
                    if text_p == text_c:
                        continue
                    byte_diff += 1
                    dp, dc = json.loads(text_p), json.loads(text_c)
                    if strip_floats(dp) != strip_floats(dc):
                        struct_diff += 1
                        continue
                    for key, fields in FLOATS.items():
                        for rp, rc in zip(dp[key], dc[key]):
                            for f in fields:
                                change = abs(rc[f] - rp[f])
                                largest[f] = max(largest[f], change)
                                moved[f] += change > 0
                                records[f] += 1

    print(f"{words} words, {docs} documents (built, reduced, reduced with random.Random(3),"
          " and each single elimination of the built graph)")
    print(f"documents that differ byte for byte: {byte_diff}")
    print(f"documents that differ once z, t, dz and dt are removed: {struct_diff}")
    print(f"isotopic(reduce(g), reduce(g, random.Random(3))) verdicts that differ: {verdict_diff}")
    print("largest change of each float field (records moved of records compared"
          " in byte-different documents):")
    for f, change in largest.items():
        print(f"  {f:2s} {change:.3g} ({moved[f]} of {records[f]})")
    return 1 if struct_diff or verdict_diff else 0


if __name__ == "__main__":
    sys.exit(main())
