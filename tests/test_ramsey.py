from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from gasketlab import (
    DomainError,
    LabeledGraph,
    ResourceLimitError,
    connected_components,
    gnp_sample,
)
from gasketlab.experiments import sample_pattern_free
from gasketlab.ramsey import (
    bounds_report,
    construct_union,
    find_induced_occurrences,
    has_mono_induced,
    induced_ramsey_oracle,
    is_host,
    poly_exp_crossover_level,
    split_union,
)
from gasketlab.rng import derive_seed
from gasketlab.sierpinski import build, subgaskets

from conftest import nx_isomorphic


K3 = LabeledGraph.complete(3)
K6 = LabeledGraph.complete(6)


def all_red(g: LabeledGraph) -> dict:
    return {e: "red" for e in g.edges()}


def test_find_occurrences_complete_cases():
    assert len(find_induced_occurrences(K6, K3)) == comb(6, 3)
    g = gnp_sample(9, 0.5, 1)
    singles = find_induced_occurrences(g, LabeledGraph.complete(1))
    assert singles == [(v,) for v in range(1, 10)]


def test_find_occurrences_in_gasket():
    from gasketlab import induced_subgraph

    s3 = build(3)
    s2 = build(2).graph
    found = find_induced_occurrences(s3.graph, s2)
    # exhaustive scan over all C(15,6) = 5005 subsets finds exactly the
    # three canonical sub-gaskets (value frozen from a networkx oracle run)
    assert found == subgaskets(s3, 2)
    for subset in found:
        assert nx_isomorphic(induced_subgraph(s3.graph, subset), s2)


def test_find_occurrences_respects_limit_and_order():
    found = find_induced_occurrences(K6, K3, limit=5)
    assert found == sorted(found)[:5] and len(found) == 5


def test_find_occurrences_rejects_large_pattern():
    with pytest.raises(DomainError, match="16"):
        find_induced_occurrences(LabeledGraph.empty(20), LabeledGraph.empty(17))


def test_complete_pattern_induced_equals_ordinary():
    for seed in range(10):
        g = gnp_sample(8, 0.5, seed)
        for pattern in (K3, LabeledGraph.complete(4)):
            found = set(find_induced_occurrences(g, pattern))
            cliques = {
                s
                for s in combinations(range(1, 9), pattern.n)
                if all(g.has_edge(a, b) for a, b in combinations(s, 2))
            }
            assert found == cliques


def test_has_mono_induced_cases(path3):
    assert has_mono_induced(K6, all_red(K6), K3)
    assert not has_mono_induced(
        path3, {(1, 2): "red", (2, 3): "blue"}, K3
    )
    with pytest.raises(DomainError, match="total"):
        has_mono_induced(K3, {(1, 2): "red"}, K3)


def test_all_red_coloring_detects_containment():
    for seed in range(10):
        g = gnp_sample(7, 0.4, seed)
        contains = bool(find_induced_occurrences(g, K3, limit=1))
        assert has_mono_induced(g, all_red(g), K3) == contains


def test_pentagon_coloring_has_no_mono_triangle():
    k5 = LabeledGraph.complete(5)
    pentagon = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    coloring = {
        e: ("red" if e in pentagon else "blue") for e in k5.edges()
    }
    assert not has_mono_induced(k5, coloring, K3)


def test_is_host_k6_k3_verified():
    cert = is_host(K6, K3)
    assert cert.verified
    assert cert.colorings_checked == 2**15 == 32768
    assert cert.witness is None


def test_is_host_k5_k3_fails_with_complementary_cycles():
    cert = is_host(LabeledGraph.complete(5), K3)
    assert not cert.verified
    witness = cert.witness
    reds = [e for e, c in witness.items() if c == "red"]
    blues = [e for e, c in witness.items() if c == "blue"]
    assert len(reds) == len(blues) == 5
    for edge_set in (reds, blues):
        half = LabeledGraph.from_edges(5, edge_set)
        assert all(half.degree(v) == 2 for v in half.vertices())
        assert len(connected_components(half)) == 1  # a single 5-cycle
    assert not has_mono_induced(LabeledGraph.complete(5), witness, K3)


def test_is_host_k3_k3_false():
    cert = is_host(K3, K3)
    assert not cert.verified  # any mixed coloring of one triangle works


def test_is_host_edge_budget():
    with pytest.raises(ResourceLimitError, match="28"):
        is_host(LabeledGraph.complete(9), K3)  # 36 edges


def test_is_host_monotone_on_complete_hosts():
    assert is_host(K6, K3).verified
    assert is_host(LabeledGraph.complete(7), K3).verified


def test_edgeless_pattern_vacuous_host():
    pattern = LabeledGraph.empty(2)
    cert = is_host(LabeledGraph.empty(2), pattern)
    assert cert.verified and cert.colorings_checked == 1


def test_oracle_over_complete_hosts():
    result = induced_ramsey_oracle(K3, [LabeledGraph.complete(i) for i in range(2, 8)])
    assert result.host.n == 6  # classical two-color triangle threshold
    assert [c.verified for c in result.certificates] == [False] * 4 + [True]
    for cert in result.certificates[:-1]:
        assert cert.witness is not None
        assert not has_mono_induced(cert.host, cert.witness, K3)


def test_oracle_k2_and_not_found():
    k2 = LabeledGraph.complete(2)
    assert induced_ramsey_oracle(k2, [k2]).host == k2
    result = induced_ramsey_oracle(K3, [LabeledGraph.complete(4)])
    assert result.found_index is None and result.host is None


def test_construct_union_roles():
    empty3 = LabeledGraph.empty(3)
    construction = construct_union(empty3, K6)
    assert construction.graph.n == 9
    assert construction.g1_vertices == (1, 2, 3)
    assert construction.g2_vertices == (4, 5, 6, 7, 8, 9)
    comps = connected_components(construction.graph)
    assert ((4, 5, 6, 7, 8, 9)) in comps


def test_split_union_modes_and_degenerate_cases():
    empty4 = LabeledGraph.empty(4)
    union = construct_union(empty4, K6).graph
    for mode in ("fast", "proof-faithful"):
        result = split_union(union, K3, mode=mode)
        assert result.g1_vertices == (1, 2, 3, 4)
        assert result.g2_vertices == (5, 6, 7, 8, 9, 10)
    solo = split_union(K6, K3, mode="fast")
    assert solo.g1_vertices == () and solo.g2_vertices == tuple(range(1, 7))
    with pytest.raises(DomainError, match="mode"):
        split_union(K6, K3, mode="bogus")


def test_split_union_proof_faithful_budget():
    big = gnp_sample(10, 0.9, 3)  # one dense component, way over 5 edges
    with pytest.raises(ResourceLimitError, match="fast"):
        split_union(big, K3, mode="proof-faithful", max_edges=5)


def test_split_union_random_instances_recover_partition():
    for i in range(15):
        n1 = 3 + derive_seed(1001, "n1", i) % 10
        g1 = sample_pattern_free(n1, 0.25, K3, derive_seed(1001, "g1", i))
        union = construct_union(g1, K6)
        fast = split_union(union.graph, K3, mode="fast")
        slow = split_union(union.graph, K3, mode="proof-faithful")
        assert fast.g1_vertices == slow.g1_vertices == union.g1_vertices
        assert fast.g2_vertices == slow.g2_vertices == union.g2_vertices


def test_bounds_report_values():
    s2 = build(2).graph
    report = bounds_report(s2, c=1.0, c_d=3.0)
    assert report.pattern_size == 6 and report.max_degree == 4
    assert report.luczak_rodl == 6**3 == 216
    assert report.incompressible_lower == pytest.approx(2**2.5)
    assert report.incompressible_lower < report.incompressible_upper
    assert report.chvatal == pytest.approx(6 * 2 ** (4 * 2.0))
    with pytest.raises(DomainError, match="positive"):
        bounds_report(s2, c=0.0, c_d=3.0)


def test_poly_exp_crossover_levels():
    assert poly_exp_crossover_level(3) == 3
    # terminates and is monotone over integer exponents 1..10
    values = [poly_exp_crossover_level(c) for c in range(1, 11)]
    assert values == [2, 3, 3, 4, 4, 4, 4, 4, 5, 5]
    assert poly_exp_crossover_level(Fraction(5, 2)) == 3


@pytest.mark.parametrize("limit", [0, -2])
def test_find_occurrences_rejects_limit_below_one(limit):
    with pytest.raises(DomainError, match="limit must be >= 1"):
        find_induced_occurrences(LabeledGraph.complete(5), K3, limit=limit)


def test_find_occurrences_limit_stops_inside_smallest_vertex_groups():
    k5 = LabeledGraph.complete(5)
    everything = find_induced_occurrences(k5, K3)
    assert everything == list(combinations(range(1, 6), 3))
    for limit in range(1, len(everything) + 2):
        assert find_induced_occurrences(k5, K3, limit=limit) == everything[:limit]
