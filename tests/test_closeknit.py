from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import (
    DomainError,
    LabeledGraph,
    ResourceLimitError,
    connected_components,
    gnp_sample,
    induced_subgraph,
)
from gasketlab.closeknit import (
    _connected_groups_from,
    _ratio_at_least,
    family_scan,
    internal_degree,
    is_rk_closeknit,
    min_ratio,
)
from gasketlab.sierpinski import build

from conftest import oracle_connected_groups_from, oracle_is_rk_closeknit, oracle_min_ratio


def test_internal_degree_cases(k3):
    assert internal_degree(k3, (1, 2, 3), (1, 2, 3)) == 3
    assert internal_degree(k3, (1,), (1, 2, 3)) == 2
    assert internal_degree(k3, (1,), (1,)) == 0
    with pytest.raises(DomainError, match="subset"):
        internal_degree(k3, (1, 2), (1,))


def test_min_ratio_k3(k3):
    report = min_ratio(k3, (1, 2, 3))
    assert report.min_ratio == Fraction(1, 2)
    assert report.argmin == (1, 2, 3)
    assert min_ratio(k3, (1,)).min_ratio == 0


def test_min_ratio_interior_triangle_of_s3():
    s3 = build(3).graph
    triangle = (2, 4, 5)  # all three vertices have degree 4
    assert all(s3.degree(v) == 4 for v in triangle)
    report = min_ratio(s3, triangle)
    assert report.min_ratio == Fraction(1, 4)
    assert report.argmin == triangle


def test_min_ratio_rejects_isolated_and_oversized():
    lonely = LabeledGraph.from_edges(3, [(1, 2)])
    with pytest.raises(DomainError, match="isolated"):
        min_ratio(lonely, (1, 3))
    with pytest.raises(ResourceLimitError, match="20"):
        min_ratio(LabeledGraph.complete(21), tuple(range(1, 22)))


@given(st.integers(3, 9), st.integers(0, 10**6), st.data())
@settings(max_examples=50, deadline=None)
def test_min_ratio_matches_brute_force_oracle(n, seed, data):
    g = gnp_sample(n, 0.6, seed)
    if any(g.degree(v) == 0 for v in g.vertices()):
        return
    size = data.draw(st.integers(1, n))
    group = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:size]))
    expected_ratio, expected_argmin = oracle_min_ratio(g, group)
    report = min_ratio(g, group)
    assert report.min_ratio == expected_ratio
    assert report.argmin == expected_argmin


def _graph(kind: str, n: int, seed: int) -> LabeledGraph:
    """Complete graphs, cycles, and v ~ v+2 (mod n) cycles, which for even n
    are two interleaved cycles, give many tied subset ratios."""
    if kind == "complete":
        return LabeledGraph.complete(n)
    if kind in ("cycle", "step2"):
        step = 1 if kind == "cycle" else 2
        pairs = {tuple(sorted((v, (v + step - 1) % n + 1))) for v in range(1, n + 1)}
        return LabeledGraph.from_edges(n, sorted(pairs))
    return gnp_sample(n, 0.6, seed)


TIE_HEAVY = ["complete", "cycle", "step2"]


def _draw_group(g: LabeledGraph, data) -> tuple[int, ...] | None:
    """The whole vertex set (where disjoint parts tie) or a random subset."""
    every = frozenset(range(1, g.n + 1))
    members = data.draw(st.one_of(st.just(every), st.sets(st.integers(1, g.n), min_size=1)))
    group = tuple(sorted(members))
    return None if any(g.degree(v) == 0 for v in group) else group


@given(st.sampled_from(TIE_HEAVY), st.integers(3, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_min_ratio_and_argmin_match_oracle_with_ties(kind, n, data):
    g = _graph(kind, n, 0)
    group = _draw_group(g, data)
    report = min_ratio(g, group)
    assert (report.min_ratio, report.argmin) == oracle_min_ratio(g, group)


def test_min_ratio_breaks_ties_lexicographically_not_by_mask_order():
    # two disjoint edges: {1, 3}, {2, 4} and {1, 2, 3, 4} all have ratio 1/2
    g = LabeledGraph.from_edges(4, [(1, 3), (2, 4)])
    report = min_ratio(g, (1, 2, 3, 4))
    assert (report.min_ratio, report.argmin) == (Fraction(1, 2), (1, 2, 3, 4))


@given(
    st.sampled_from(TIE_HEAVY + ["gnp"]), st.integers(3, 10), st.integers(0, 10**6),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_ratio_at_least_matches_exact_minimum(kind, n, seed, data):
    g = _graph(kind, n, seed)
    group = _draw_group(g, data)
    if group is None:
        return
    exact, _ = oracle_min_ratio(g, group)
    eps = Fraction(1, 1000)
    knife_edge = [exact, exact - eps, exact + eps, Fraction(0), Fraction(-1, 3), Fraction(3, 2)]
    for r in knife_edge + [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]:
        assert _ratio_at_least(g, group, r) == (exact >= r), r


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_certification_matches_exact_ratio_oracle(level):
    g = build(level).graph
    for r in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        for k in (3, 6, 8):
            assert is_rk_closeknit(g, r, k) == oracle_is_rk_closeknit(g, r, k), (r, k)


def test_min_ratio_of_whole_connected_graph_is_half():
    for seed in range(25):
        g = gnp_sample(8, 0.4, seed)
        if len(connected_components(g)) != 1:
            continue
        report = min_ratio(g, tuple(range(1, 9)))
        assert report.min_ratio == Fraction(1, 2)
        assert report.argmin == tuple(range(1, 9))


def test_deleting_external_edge_never_decreases_min_ratio():
    checked = 0
    for seed in range(40):
        g = gnp_sample(8, 0.5, seed)
        group = (1, 2, 3, 4)
        if any(g.degree(v) == 0 for v in group):
            continue
        external = [
            (i, j)
            for i, j in g.edges()
            if (i in group) != (j in group) and g.degree(i) > 1 and g.degree(j) > 1
        ]
        if not external:
            continue
        before = min_ratio(g, group).min_ratio
        i, j = external[0]
        trimmed = LabeledGraph.from_edges(
            g.n, [e for e in g.edges() if e != (i, j)]
        )
        assert min_ratio(trimmed, group).min_ratio >= before
        checked += 1
    assert checked > 10


def test_min_ratio_is_isomorphism_invariant():
    import random

    rng = random.Random(4)
    for seed in range(20):
        g = gnp_sample(7, 0.5, seed)
        if any(g.degree(v) == 0 for v in g.vertices()):
            continue
        group = (1, 3, 5, 7)
        perm = list(range(1, 8))
        rng.shuffle(perm)
        relabeled = LabeledGraph.from_edges(
            7, [(perm[i - 1], perm[j - 1]) for i, j in g.edges()]
        )
        mapped_group = tuple(sorted(perm[v - 1] for v in group))
        assert (
            min_ratio(g, group).min_ratio
            == min_ratio(relabeled, mapped_group).min_ratio
        )


def test_connected_group_enumeration_matches_brute_force():
    for seed in range(25):
        g = gnp_sample(7, 0.5, seed)
        for v in (1, 4):
            mine = set(_connected_groups_from(g, v, 4, 10**6))
            reference = set()
            for size in range(1, 5):
                for sub in combinations(range(1, 8), size):
                    if v in sub and len(connected_components(induced_subgraph(g, sub))) == 1:
                        reference.add(sub)
            assert mine == reference


def _yielded_then_error(groups):
    """The groups an enumerator yields in order, then its cap error or None."""
    out = []
    try:
        for group in groups:
            out.append(group)
    except ResourceLimitError as exc:
        return out, str(exc)
    return out, None


def _assert_same_sequences(g):
    for v in g.vertices():
        for k in range(1, 7):
            for cap in (1, 7, 10**6):
                mine = _yielded_then_error(_connected_groups_from(g, v, k, cap))
                reference = _yielded_then_error(oracle_connected_groups_from(g, v, k, cap))
                assert mine == reference, (v, k, cap)
                groups, error = mine
                assert len(groups) <= cap
                if cap == 1 and k > 1 and g.adj[v]:
                    assert groups == [(v,)] and error is not None


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_connected_group_sequence_matches_oracle_on_gaskets(level):
    _assert_same_sequences(build(level).graph)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 13), data=st.data())
def test_connected_group_sequence_matches_oracle_on_random_graphs(n, data):
    pairs = list(combinations(range(1, n + 1), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    _assert_same_sequences(LabeledGraph.from_edges(n, [e for e, on in zip(pairs, present) if on]))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_gaskets_are_quarter_3_closeknit(level):
    result = is_rk_closeknit(build(level).graph, Fraction(1, 4), 3)
    assert result.success
    for v, group in result.witness.items():
        assert v in group and len(group) <= 3
        assert min_ratio(build(level).graph, group).min_ratio >= Fraction(1, 4)


def test_k3_is_half_3_closeknit(k3):
    result = is_rk_closeknit(k3, Fraction(1, 2), 3)
    assert result.success
    assert all(group == (1, 2, 3) for group in result.witness.values())


def test_star_leaf_fails_at_half_with_pairs():
    # center is vertex 4 so the leaves come first in the deterministic scan
    star = LabeledGraph.from_edges(4, [(4, 1), (4, 2), (4, 3)])
    result = is_rk_closeknit(star, Fraction(1, 2), 2)
    assert not result.success
    assert result.failed_vertex == 1
    # the leaf's only nontrivial pair is {leaf, center}: min over subsets is 1/4
    assert min_ratio(star, (1, 4)).min_ratio == Fraction(1, 4)


def test_family_scan_minimal_k_frozen_values():
    graphs = {level: build(level).graph for level in (1, 2, 3, 4)}
    # derived by exhaustive search over connected candidate groups
    assert family_scan(graphs, Fraction(0)) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert family_scan(graphs, Fraction(1, 4)) == {1: 2, 2: 3, 3: 3, 4: 3}
    assert family_scan(graphs, Fraction(1, 3)) == {1: 3, 2: 4, 3: 5, 4: 5}


def test_family_scan_reports_none_when_cap_too_small():
    graphs = {2: build(2).graph}
    assert family_scan(graphs, Fraction(1, 2), k_cap=3) == {2: None}


def test_group_search_resource_guard():
    with pytest.raises(ResourceLimitError, match="cap"):
        is_rk_closeknit(build(4).graph, Fraction(1, 2), 8, groups_cap=50)
