import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from gasketlab import (
    DomainError,
    LabeledGraph,
    connected_components,
    decode,
    disjoint_union,
    encode,
    gnp_sample,
    induced_subgraph,
    is_ordered_occurrence,
    named_graph,
    pair_at,
    pos,
)
from gasketlab import sierpinski
from gasketlab.io import JSON_VERTEX_MAX
from gasketlab.rng import derive_seed

from conftest import nx_isomorphic


def test_encode_trivial_cases(k3, path3):
    assert encode(k3).bits == "111"
    assert encode(LabeledGraph.empty(3)).bits == "000"
    assert encode(path3).bits == "101"


def test_decode_trivial_cases(k3, path3):
    assert decode("111", 3) == k3
    assert decode("000", 3) == LabeledGraph.empty(3)
    assert decode("101", 3) == path3


def test_decode_length_mismatch_names_lengths():
    with pytest.raises(DomainError, match="3"):
        decode("1111", 3)


def test_decode_rejects_a_negative_vertex_count():
    with pytest.raises(DomainError, match="n >= 0"):
        decode("101", -1)


@given(st.integers(2, 12), st.data())
@settings(max_examples=60)
def test_codec_roundtrip_both_ways(n, data):
    bits = data.draw(st.text(alphabet="01", min_size=comb(n, 2), max_size=comb(n, 2)))
    g = decode(bits, n)
    assert encode(g).bits == bits
    assert decode(encode(g), n) == g


@given(st.integers(2, 30))
@settings(max_examples=30)
def test_pos_is_a_bijection(n):
    seen = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = pos(i, j, n)
            assert pair_at(p, n) == (i, j)
            seen.add(p)
    assert seen == set(range(1, comb(n, 2) + 1))


def test_pair_at_inverts_pos_at_every_position_up_to_60_vertices():
    for n in range(61):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        positions = list(range(1, comb(n, 2) + 1))
        assert [pos(i, j, n) for i, j in pairs] == positions
        assert [pair_at(p, n) for p in positions] == pairs


def test_pair_at_answers_at_once_for_a_huge_n():
    start = time.perf_counter()
    assert pair_at(comb(10**7, 2), 10**7) == (10**7 - 1, 10**7)
    assert time.perf_counter() - start < 0.1  # a walk over the rows took about a second
    for n in (10**12, 2**64 + 3):
        last = comb(n, 2)
        assert [pair_at(p, n) for p in (1, n - 1, n)] == [(1, 2), (1, n), (2, 3)]
        assert [pair_at(p, n) for p in (last - 2, last - 1, last)] == [
            (n - 2, n - 1), (n - 2, n), (n - 1, n)]
        assert pos(*pair_at(last // 3, n), n) == last // 3


def test_graph_invariants_rejected():
    with pytest.raises(DomainError, match="self-loop"):
        LabeledGraph.from_edges(3, [(1, 1)])
    with pytest.raises(DomainError, match="out of range"):
        LabeledGraph.from_edges(3, [(1, 4)])
    # duplicate edges collapse to one
    assert LabeledGraph.from_edges(2, [(1, 2), (2, 1)]).edge_count == 1


@pytest.mark.parametrize(
    "edge", [(1,), (1, 2, 3), 5, ("a", 2), (1.5, 2), (1, 2.0), ("1", "2"), (None, 1)]
)
def test_from_edges_rejects_edges_that_are_not_pairs_of_integer_labels(edge):
    with pytest.raises(DomainError, match="pair of integer labels"):
        LabeledGraph.from_edges(3, [(1, 2), edge])


def test_from_edges_takes_any_pair_of_integer_labels():
    g = LabeledGraph.from_edges(3, [[1, 2], (3, 2), iter((1, 3))])
    assert g == LabeledGraph.complete(3)


def test_pair_at_rejects_a_negative_vertex_count():
    with pytest.raises(DomainError, match="n >= 0"):
        pair_at(1, -5)
    with pytest.raises(DomainError, match="position"):
        pair_at(1, 0)


def test_induced_subgraph_cases(k3, path3):
    assert induced_subgraph(LabeledGraph.complete(4), (1, 2, 3)) == k3
    assert induced_subgraph(path3, (1, 3)) == LabeledGraph.empty(2)
    with pytest.raises(DomainError):
        induced_subgraph(k3, (1, 5))


def test_induced_subgasket_is_isomorphic_to_generator():
    s3 = sierpinski.build(3)
    s2 = sierpinski.build(2)
    for subset in sierpinski.subgaskets(s3, 2):
        assert nx_isomorphic(induced_subgraph(s3.graph, subset), s2.graph)


def test_is_ordered_occurrence(k3, path3):
    assert is_ordered_occurrence(LabeledGraph.complete(4), (1, 2, 3), k3)
    assert not is_ordered_occurrence(path3, (1, 2, 3), k3)
    with pytest.raises(DomainError, match="size"):
        is_ordered_occurrence(k3, (1, 2), k3)


def test_occurrence_of_own_induced_subgraph_always_holds():
    g = gnp_sample(12, 0.5, 3)
    subset = (2, 3, 5, 8, 11)
    assert is_ordered_occurrence(g, subset, induced_subgraph(g, subset))


def test_connected_components_cases(k3):
    two_parts = LabeledGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
    assert connected_components(two_parts) == ((1, 2, 3), (4, 5))
    assert connected_components(LabeledGraph.complete(6)) == (tuple(range(1, 7)),)
    assert connected_components(LabeledGraph.empty(4)) == ((1,), (2,), (3,), (4,))


def test_disjoint_union_cases(k3):
    u = disjoint_union(k3, LabeledGraph.complete(2))
    assert u.n == 5
    assert sorted(u.edges()) == [(1, 2), (1, 3), (2, 3), (4, 5)]
    assert disjoint_union(LabeledGraph.empty(2), LabeledGraph.empty(2)) == LabeledGraph.empty(4)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
@settings(max_examples=40)
def test_union_edge_additivity_and_components(n1, n2, seed):
    g1 = gnp_sample(n1, 0.4, seed)
    g2 = gnp_sample(n2, 0.6, seed + 1)
    u = disjoint_union(g1, g2)
    assert u.edge_count == g1.edge_count + g2.edge_count
    shifted = tuple(
        tuple(v + g1.n for v in comp) for comp in connected_components(g2)
    )
    assert connected_components(u) == connected_components(g1) + shifted


def test_gnp_endpoints():
    assert gnp_sample(5, 0.0, 99) == LabeledGraph.empty(5)
    assert gnp_sample(5, 1.0, 99) == LabeledGraph.complete(5)
    with pytest.raises(DomainError, match="probability"):
        gnp_sample(5, 1.5, 0)


@pytest.mark.parametrize("n", [2.0, "3", None, 3.5])
def test_gnp_rejects_a_non_integer_vertex_count(n):
    with pytest.raises(DomainError, match="vertex count must be an integer"):
        gnp_sample(n, 0.5, 0)


@pytest.mark.parametrize("p", ["0.5", None, 0.5j, [0.5]])
def test_gnp_rejects_a_non_real_probability(p):
    with pytest.raises(DomainError, match="real number"):
        gnp_sample(3, p, 0)


def test_gnp_deterministic_and_seed_sensitive():
    assert gnp_sample(16, 0.5, 7) == gnp_sample(16, 0.5, 7)
    assert gnp_sample(16, 0.5, 7) != gnp_sample(16, 0.5, 8)


def test_gnp_mean_edges_matches_binomial_expectation():
    total = sum(
        gnp_sample(64, 0.5, derive_seed(0, "edges", i)).edge_count for i in range(1000)
    )
    mean = total / 1000
    assert abs(mean - 1008) / 1008 < 0.03


def test_decode_rejects_characters_other_than_bits():
    for text in ("1x0", "0 1", "01\n", "222"):
        with pytest.raises(DomainError, match="'0' and '1'"):
            decode(text, 3)


@pytest.mark.parametrize(
    "kind, cap", [("E", JSON_VERTEX_MAX), ("P", JSON_VERTEX_MAX), ("C", JSON_VERTEX_MAX), ("K", 447)]
)
def test_named_graph_over_its_size_cap_is_rejected_before_building(kind, cap, monkeypatch):
    """E, P and C hold at most JSON_VERTEX_MAX vertices; K447 is the largest
    complete graph with at most that many edges."""
    assert named_graph(f"{kind}{cap}").n == cap

    def refuse(*_):
        raise AssertionError("the graph was built")

    for builder in ("complete", "empty", "from_edges"):
        monkeypatch.setattr(LabeledGraph, builder, refuse)
    for name in (f"{kind}{cap + 1}", f"{kind}{10**6}", kind + "9" * 5000):
        with pytest.raises(DomainError, match="cap|too large"):
            named_graph(name)
