import random
from itertools import permutations
from math import factorial

import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from gasketlab import DomainError, LabeledGraph, gnp_sample
from gasketlab.catalog import named_graph
from gasketlab.isomorphism import automorphism_count, find_isomorphism, is_isomorphic
from gasketlab.sierpinski import build

from conftest import nx_isomorphic, to_nx


def aut_by_permutation_scan(g: LabeledGraph) -> int:
    edges = set(g.edges())

    def keeps_edges(p):
        for i, j in edges:
            a, b = p[i - 1], p[j - 1]
            if (min(a, b), max(a, b)) not in edges:
                return False
        return True

    return sum(1 for p in permutations(range(1, g.n + 1)) if keeps_edges(p))


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: LabeledGraph.complete(3), 6),
        (lambda: LabeledGraph.from_edges(3, [(1, 2), (2, 3)]), 2),
        (lambda: build(2).graph, 6),
        (lambda: LabeledGraph.empty(4), 24),
    ],
)
def test_automorphism_counts(make, expected):
    g = make()
    assert automorphism_count(g) == expected
    assert aut_by_permutation_scan(g) == expected


def test_automorphism_size_guard():
    with pytest.raises(DomainError, match="limited to 16 vertices, got 17"):
        automorphism_count(LabeledGraph.empty(17))
    assert automorphism_count(LabeledGraph.empty(16)) == factorial(16)


def graph_by_rule(n: int, adjacent) -> LabeledGraph:
    return LabeledGraph.from_edges(
        n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if adjacent(a - 1, b - 1)]
    )


def copies_of_complete(t: int, s: int) -> LabeledGraph:
    return graph_by_rule(t * s, lambda a, b: a // s == b // s)


def complement(g: LabeledGraph) -> LabeledGraph:
    return graph_by_rule(g.n, lambda a, b: not g.has_edge(a + 1, b + 1))


PETERSEN = graph_by_rule(10, lambda a, b: (
    a < 5 and b == a + 5 or b < 5 and (b - a) % 5 in (1, 4) or a >= 5 and (b - a) % 5 in (2, 3)
))

# closed forms on 8-16 vertices: the group orders of well-known graphs
CLOSED_FORMS = {
    "S3": (build(3).graph, 6),
    "Q4": (graph_by_rule(16, lambda a, b: (a ^ b).bit_count() == 1), 384),
    "rook 4x4": (graph_by_rule(16, lambda a, b: a // 4 == b // 4 or a % 4 == b % 4), 1152),
    "Petersen": (PETERSEN, 120),
    "C16": (named_graph("C16"), 32),
    "P14": (named_graph("P14"), 2),
    "E16": (LabeledGraph.empty(16), factorial(16)),
    "K16": (LabeledGraph.complete(16), factorial(16)),
    "K8,8": (graph_by_rule(16, lambda a, b: a < 8 <= b), 2 * factorial(8) ** 2),
    **{
        f"{t}K{s}": (copies_of_complete(t, s), factorial(s) ** t * factorial(t))
        for t, s in [(8, 2), (4, 4), (2, 8), (5, 3), (3, 5), (4, 2)]
    },
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_automorphism_count_matches_closed_forms(name):
    g, expected = CLOSED_FORMS[name]
    assert automorphism_count(g) == expected
    assert automorphism_count(complement(g)) == expected


def test_automorphism_count_matches_networkx_on_8_to_16_vertices():
    rng = random.Random(28)
    for _ in range(60):
        n, p = rng.randint(8, 16), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = gnp_sample(n, p, rng.getrandbits(64))
        matcher = GraphMatcher(to_nx(g), to_nx(g))
        assert automorphism_count(g) == sum(1 for _ in matcher.isomorphisms_iter())


def test_isomorphism_agrees_with_networkx_on_random_pairs():
    for seed in range(40):
        a = gnp_sample(7, 0.5, seed)
        b = gnp_sample(7, 0.5, seed + 1000)
        assert is_isomorphic(a, b) == nx_isomorphic(a, b)


def test_isomorphism_finds_explicit_relabeling():
    a = build(2).graph
    # relabel by an arbitrary permutation and recover a witness mapping
    perm = (4, 2, 6, 1, 5, 3)
    b = LabeledGraph.from_edges(6, [(perm[i - 1], perm[j - 1]) for i, j in a.edges()])
    mapping = find_isomorphism(a, b)
    assert mapping is not None
    for i, j in a.edges():
        assert b.has_edge(mapping[i - 1], mapping[j - 1])
