"""Frozen isomorphism outputs on every small graph.

``golden/isomorphism_maps.jsonl`` holds, for each graph of the networkx
atlas on at most 6 vertices (209 graphs, 0 vertices included), the
relabelling applied to it, the bijection ``find_isomorphism(g, relabelled)``
returns, and ``automorphism_count(g)``.  The bijection is one of many valid
ones, so this pins the kernel's placement order and candidate order, not
just correctness.  Run this file as a script to print the records the
current code produces.
"""

import json
import random
import sys
from pathlib import Path

from gasketlab import LabeledGraph
from gasketlab.isomorphism import automorphism_count, find_isomorphism

from conftest import atlas_graphs

GOLDEN = Path(__file__).resolve().parent / "golden" / "isomorphism_maps.jsonl"


def records() -> list[dict]:
    out = []
    for index, g in enumerate(atlas_graphs()):
        perm = list(g.vertices())
        random.Random(index).shuffle(perm)
        relabelled = LabeledGraph.from_edges(
            g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges()]
        )
        out.append(
            {
                "atlas": index,
                "edges": [list(e) for e in g.edges()],
                "perm": perm,
                "isomorphism": list(find_isomorphism(g, relabelled)),
                "automorphisms": automorphism_count(g),
            }
        )
    return out


def test_isomorphism_outputs_match_the_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert records() == expected


if __name__ == "__main__":
    for record in records():
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
