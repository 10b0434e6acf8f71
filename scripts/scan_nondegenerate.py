#!/usr/bin/env python3
"""Scan short B_4 words for level subgraphs with two independent cycle
classes (non-degenerate levels), printing the witnesses.

The first hits become frozen fixtures in the test suite.
"""

import argparse

from braidtrace import levels as lv
from braidtrace.tracegraph import build_trace_graph
from braidtrace.words import iter_reduced_words


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--strands", type=int, default=4)
    ap.add_argument("--max-length", type=int, default=6)
    ap.add_argument("--limit", type=int, default=10, help="stop after this many hits")
    args = ap.parse_args()

    hits = 0
    scanned = 0
    for length in range(1, args.max_length + 1):
        for w in iter_reduced_words(args.strands, length):
            scanned += 1
            g = build_trace_graph(w)
            for k in range(1, g.n):
                s = lv.level_subgraph(g, k)
                if lv.is_degenerate(s):
                    continue
                classes = sorted(lv.simple_cycle_classes(s))
                ats = [a.homology for a in lv.right_attractors(s)]
                mx = lv.maximal_class(s, sorted(set(ats))[0])
                print(
                    f"word={w} level={k} attractors={ats} "
                    f"classes={classes} maximal={mx}"
                )
                hits += 1
                if hits >= args.limit:
                    print(f"scanned {scanned} words")
                    return
    print(f"scanned {scanned} words, {hits} non-degenerate levels")


if __name__ == "__main__":
    main()
