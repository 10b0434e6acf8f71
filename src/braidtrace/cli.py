"""Command-line interface.

Exit codes follow one contract everywhere: 0 for success or a positive
verdict, 1 for a negative verdict, 2 for errors (parse failures, schema
mismatches).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import equivalence as eq
from . import threebraid as tb
from .checks import run_structure_checks
from .serialize import canonical_json, document_to_graph, graph_to_document, to_dot
from .tracegraph import build_trace_graph
from .words import BraidWord, cycle_structure, is_pure, linking_numbers, parse_word


def _parse(args) -> BraidWord:
    return parse_word(args.word, args.strands)


def cmd_build(args) -> int:
    w = _parse(args)
    g = build_trace_graph(w)
    doc = graph_to_document(g)
    with open(args.out, "w") as fh:
        fh.write(canonical_json(doc))
    print(
        f"wrote {args.out}: {len(g.vertices)} vertices, "
        f"{len(g.edges)} edges, {len(g.circles)} circles"
    )
    return 0


def cmd_compare(args) -> int:
    with open(args.a) as fh:
        g1 = document_to_graph(json.load(fh))
    with open(args.b) as fh:
        g2 = document_to_graph(json.load(fh))
    if g1.n != g2.n:
        print(f"strand counts differ: {g1.n} vs {g2.n}", file=sys.stderr)
        return 2
    if args.mode == "trihedral":
        g1 = eq.reduce(g1)
        g2 = eq.reduce(g2)
        print(f"reduced to {g1.num_vertices} and {g2.num_vertices} vertices")
    res = eq.isotopic(g1, g2)
    ks = res.per_circle_vertices
    print(f"per-circle vertex counts k_i = {list(ks)}")
    print(f"base-point choices k_1*...*k_N = {res.choice_product}"
          f" (bound (6l)^(n^2-n) = {res.choice_bound})")
    print(f"candidates tried: {res.candidates_tried}")
    for flag in res.flags:
        print(f"note: {flag}")
    if res.equal:
        print("equivalent")
        print(f"witness: {res.witness}")
        return 0
    if args.mode == "trihedral":
        # trihedral equivalence is incomplete: a miss is not a proof
        print("no trihedral relation found")
    else:
        print("not equivalent")
    return 1


def cmd_conj3(args) -> int:
    a = parse_word(args.a, 3)
    b = parse_word(args.b, 3)
    # conjugate_3braids raises when the exact check disagrees with its verdict
    res = tb.conjugate_3braids(a, b)
    print(f"verdict: {res.verdict.value}")
    if res:
        print(f"witness relabeling: {res.relabeling} (power {res.power})")
    else:
        print(f"first difference: {res.mismatch}")
    print("exact B3 cross-check (Z/2 * Z/3 normal form and exponent sum): agrees")
    return 0 if res else 1


def cmd_invariants(args) -> int:
    w = _parse(args)
    m = cycle_structure(w).num_components
    lk = linking_numbers(w)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            print(f"lk_{i}{j} = {lk[i, j]}")
    if w.n == 3 and is_pure(w):
        for pair in ((1, 2), (1, 3), (2, 3)):
            col = tb.cyclic_invariant(w, pair)
            pretty = " ".join(
                "(" + "".join(f"{i}{j}," for i, j in trip).rstrip(",") + ")"
                for trip in col.canonical
            )
            print(f"C_{pair[0]}{pair[1]}: [{pretty}]")
    else:
        print("cyclic invariants: need a pure 3-braid (use conj3 for the general case)")
    return 0


def cmd_check(args) -> int:
    w = _parse(args)
    g = build_trace_graph(w)
    results = run_structure_checks(g)
    hard_fail = False
    for r in results:
        status = "ok" if r.ok else ("warn" if r.warning else "FAIL")
        line = f"[{status}] {r.name}"
        if r.detail and not r.ok:
            line += f" ({r.detail})"
        print(line)
        if not r.ok and not r.warning:
            hard_fail = True
    print("result:", "FAIL" if hard_fail else "ok")
    return 1 if hard_fail else 0


def cmd_export(args) -> int:
    with open(args.file) as fh:
        g = document_to_graph(json.load(fh))
    dot = to_dot(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="braidtrace",
        description="trace graphs of closed braids: build, compare, decide conjugacy",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a trace graph and write its JSON document")
    b.add_argument("--word", required=True)
    b.add_argument("--strands", type=int, default=None)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("compare", help="decide equivalence of two trace graph documents")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--mode", choices=("isotopy", "trihedral"), default="isotopy")
    c.set_defaults(func=cmd_compare)

    j = sub.add_parser("conj3", help="decide conjugacy of two 3-braids")
    j.add_argument("--a", required=True)
    j.add_argument("--b", required=True)
    j.set_defaults(func=cmd_conj3)

    i = sub.add_parser("invariants", help="print linking numbers and cyclic invariants")
    i.add_argument("--word", required=True)
    i.add_argument("--strands", type=int, default=None)
    i.set_defaults(func=cmd_invariants)

    k = sub.add_parser("check", help="run the structural invariant suite on one word")
    k.add_argument("--word", required=True)
    k.add_argument("--strands", type=int, default=None)
    k.set_defaults(func=cmd_check)

    e = sub.add_parser("export", help="export a trace graph document as DOT")
    e.add_argument("file")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
