"""Differential tests: the induced-embedding kernel and the factored coloring
cover against the slow paths they replaced (kept in conftest) and networkx."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from gasketlab import LabeledGraph, gnp_sample
from gasketlab.isomorphism import automorphism_count, find_isomorphism
from gasketlab.ramsey import _root_plans, find_induced_occurrences, is_host

from conftest import (
    oracle_automorphism_count,
    oracle_find_isomorphism,
    oracle_is_host,
    oracle_occurrences,
    to_nx,
)


@st.composite
def graphs(draw, min_n=0, max_n=8, max_edges=None):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    if max_edges is not None:
        edges = edges[:max_edges]
    return LabeledGraph.from_edges(n, edges)


@st.composite
def relabeled(draw, g):
    perm = draw(st.permutations(range(1, g.n + 1)))
    return LabeledGraph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges()])


def nx_occurrences(g, pattern):
    matcher = GraphMatcher(to_nx(g), to_nx(pattern))
    return sorted({tuple(sorted(m)) for m in matcher.subgraph_isomorphisms_iter()})


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), graphs(max_n=5), st.sampled_from([1, 2, 5, None]))
def test_occurrences_match_scan_and_networkx(g, pattern, limit):
    found = find_induced_occurrences(g, pattern, limit=limit)
    assert found == oracle_occurrences(g, pattern, limit=limit)
    if pattern.n == 0:
        assert found == [()]
    elif pattern.n > g.n:
        assert found == []
    else:
        assert found == nx_occurrences(g, pattern)[:limit]


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=4, max_n=10), st.integers(2, 5), st.sampled_from([1, 5, None]))
def test_occurrences_of_edgeless_and_complete_patterns(g, k, limit):
    for pattern in (LabeledGraph.empty(k), LabeledGraph.complete(k)):
        assert find_induced_occurrences(g, pattern, limit=limit) == oracle_occurrences(
            g, pattern, limit=limit
        )


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9), graphs(min_n=2, max_n=4), graphs(min_n=1, max_n=3))
def test_occurrences_of_disconnected_patterns(g, a, b):
    pattern = LabeledGraph.from_edges(
        a.n + b.n, list(a.edges()) + [(i + a.n, j + a.n) for i, j in b.edges()]
    )
    assert find_induced_occurrences(g, pattern) == oracle_occurrences(g, pattern)


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_search_roots_are_the_automorphism_orbit_minima(pattern):
    orbit_min = {v: v for v in pattern.vertices()}
    for auto in GraphMatcher(to_nx(pattern), to_nx(pattern)).isomorphisms_iter():
        for v, w in auto.items():
            orbit_min[w] = min(orbit_min[w], v)
    assert [order[0] for order, _ in _root_plans(pattern)] == sorted(set(orbit_min.values()))


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (2, 3), (3, 4), (4, 5)],  # P5: the centre has the degree of its neighbours
        [(1, 2), (2, 3), (3, 4), (3, 5)],  # chair
        [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)],  # bull
        [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)],  # triangle with a tail
    ],
)
def test_occurrences_of_patterns_with_equal_degrees_in_distinct_orbits(edges):
    pattern = LabeledGraph.from_edges(5, edges)
    for seed in range(6):
        g = gnp_sample(9, 0.4, seed)
        assert find_induced_occurrences(g, pattern) == oracle_occurrences(g, pattern)


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(max_n=8))
def test_find_isomorphism_valid_and_none_exactly_when_oracle_none(data, a):
    b = data.draw(st.one_of(relabeled(a), graphs(min_n=a.n, max_n=a.n)))
    mapping = find_isomorphism(a, b)
    assert (mapping is None) == (oracle_find_isomorphism(a, b) is None)
    if mapping is not None:
        assert sorted(mapping) == list(range(1, a.n + 1))
        for i, j in combinations(range(1, a.n + 1), 2):
            assert a.has_edge(i, j) == b.has_edge(mapping[i - 1], mapping[j - 1])


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7))
def test_automorphism_count_matches_backtracker(g):
    assert automorphism_count(g) == oracle_automorphism_count(g)


@settings(max_examples=200, deadline=None)
@given(
    graphs(min_n=2, max_n=8, max_edges=16),
    st.sampled_from(["K2", "K3", "P3", "E2", "C4", "claw", "K4", "P3+K1"]),
)
def test_is_host_matches_single_cover(g, name):
    pattern = {
        "K2": LabeledGraph.complete(2),
        "K3": LabeledGraph.complete(3),
        "P3": LabeledGraph.from_edges(3, [(1, 2), (2, 3)]),
        "E2": LabeledGraph.empty(2),
        "C4": LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        "claw": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),
        "K4": LabeledGraph.complete(4),
        "P3+K1": LabeledGraph.from_edges(4, [(1, 2), (2, 3)]),
    }[name]
    cert = is_host(g, pattern)
    assert (cert.verified, cert.colorings_checked, cert.witness) == oracle_is_host(g, pattern)


def test_gasket_host_factors_into_one_cover_per_subgasket():
    # S3's twelve triangles form three edge-sharing components, one per
    # sub-gasket S2: three 2^9-bit covers decide the 2^27 colorings
    from gasketlab.sierpinski import build

    s3 = build(3).graph
    k3 = LabeledGraph.complete(3)
    assert len(find_induced_occurrences(s3, k3)) == 12
    cert = is_host(s3, k3)
    assert cert.colorings_checked == 2**27
    assert (cert.verified, cert.colorings_checked, cert.witness) == oracle_is_host(s3, k3)
