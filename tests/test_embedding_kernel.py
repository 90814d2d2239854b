"""Differential tests: the induced-embedding kernel and the per-component
coloring search against the slow paths they replaced (kept in conftest) and
networkx.  The forward-checking kernel is checked image by image, in
order, against the kernel it replaced, ``oracle_embeddings``."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from gasketlab import LabeledGraph, disjoint_union, gnp_sample
from gasketlab.catalog import named_graph
from gasketlab.isomorphism import automorphism_count, find_isomorphism
from gasketlab.ramsey import (
    _allowed,
    _embeddings,
    _masks,
    _plan,
    _root_plans,
    find_induced_occurrences,
    is_host,
)

from conftest import (
    atlas_graphs,
    oracle_automorphism_count,
    oracle_embeddings,
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


def expanded(found):
    """The embeddings of the kernel's batches: each image completed by each
    bit of its last position's mask, in ascending bit order."""
    for image, last in found:
        assert last > 0
        for b in range(last.bit_length()):
            if last >> b & 1:
                yield [*image, b]


def oracle_steps(ahead):
    """A plan's forward constraints as the (adjacent, apart, lower) steps of
    the kernel they replaced: per position, the earlier positions of its
    neighbours, of its non-neighbours, and of the images it must lie above."""
    steps = [([], [], []) for _ in ahead]
    for t, later in enumerate(ahead):
        for u, kind in later:
            steps[u][kind & 1].append(t)
            if kind & 2:
                steps[u][2].append(t)
    return steps


def pinned_searches(g, pattern):
    """The searches of ``find_induced_occurrences``: each occurrence plan
    with its root pinned to each host vertex s and the rest above s."""
    for order, ahead in _root_plans(pattern):
        allowed = _allowed(g, pattern, order)
        for s in range(g.n):
            if allowed[0] >> s & 1:
                yield ahead, [1 << s] + [mask & (-2 << s) for mask in allowed[1:]]


def assert_kernel_matches_oracle(g, searches):
    """The kernel, its batches expanded, yields the oracle's images in the
    oracle's order, over all ``searches`` in one call and search by search."""
    searches = list(searches)
    rows = g.row_masks()[1:]
    expected = [
        list(image)
        for ahead, allowed in searches
        for image in oracle_embeddings(rows, oracle_steps(ahead), allowed)
    ]
    assert list(expanded(_embeddings(_masks(rows), searches))) == expected
    assert [
        image for search in searches for image in expanded(_embeddings(_masks(rows), [search]))
    ] == expected


def kernel_images(g, pattern):
    """Every image set the kernel yields for the occurrence plans, pinned as
    ``find_induced_occurrences`` pins them, duplicates kept: one per bit of
    each batch's last mask."""
    images = _embeddings(_masks(g.row_masks()[1:]), pinned_searches(g, pattern))
    return [tuple(sorted(b + 1 for b in image)) for image in expanded(images)]


def with_copies(pattern, clones, extra, seed):
    """``pattern`` with ``clones`` of its vertices duplicated (a clone has the
    original's neighbours and a random edge to it, so swapping it in is a
    second copy) and ``extra`` vertices of random edges, all relabelled at
    random."""
    rnd = random.Random(seed)
    k, n = pattern.n, pattern.n + clones + extra
    edges = list(pattern.edges())
    for w, v in enumerate(rnd.sample(list(pattern.vertices()), clones), k + 1):
        edges += [(u, w) for u in pattern.adj[v]] + [(v, w)] * (rnd.random() < 0.5)
    for w in range(k + clones + 1, n + 1):
        edges += [(u, w) for u in range(1, w) if rnd.random() < 0.5]
    perm = rnd.sample(range(1, n + 1), n)
    return LabeledGraph.from_edges(n, [(perm[i - 1], perm[j - 1]) for i, j in edges])


def test_each_copy_is_yielded_once_for_every_small_pattern():
    # every atlas graph on 1-6 vertices, against G(9, 1/2) and a host with
    # copies of it that share all but one or two vertices
    for index, pattern in enumerate(atlas_graphs()[1:]):
        for g in (gnp_sample(9, 0.5, index), with_copies(pattern, min(pattern.n, 2), 1, index)):
            expected = oracle_occurrences(g, pattern)
            assert sorted(kernel_images(g, pattern)) == expected
            assert find_induced_occurrences(g, pattern) == expected


def test_kernel_yields_the_oracle_images_in_order_for_every_small_pattern():
    # the occurrence plans pinned as the search pins them, their roots
    # unpinned, and the twin-ordered plan of isomorphism search
    for index, pattern in enumerate(atlas_graphs()[1:]):
        for g in (gnp_sample(9, 0.5, index), with_copies(pattern, min(pattern.n, 2), 1, index)):
            assert_kernel_matches_oracle(g, pinned_searches(g, pattern))
            for order, ahead in (*_root_plans(pattern), _plan(pattern)):
                assert_kernel_matches_oracle(g, [(ahead, _allowed(g, pattern, order))])


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(min_n=1, max_n=6), graphs(max_n=9))
def test_kernel_yields_the_oracle_images_in_order_for_any_masks(data, pattern, g):
    # any candidate masks, a root pinned or with no candidate, and any
    # extra positions put above earlier ones
    k = pattern.n
    root = data.draw(st.integers(1, k))
    later = [(t, u) for u in range(k) for t in range(u)]
    _, ahead = _plan(pattern, root, data.draw(st.lists(st.sampled_from(later))) if later else ())
    mask = st.integers(0, (1 << g.n) - 1)
    searches = []
    for _ in range(data.draw(st.integers(1, 3))):
        allowed = data.draw(st.lists(mask, min_size=k, max_size=k))
        first = data.draw(st.sampled_from(["free", "pinned", "empty"]))
        if first == "pinned" and g.n:
            allowed[0] = 1 << data.draw(st.integers(0, g.n - 1))
        elif first == "empty":
            allowed[0] = 0
        searches.append((ahead, allowed))
    assert_kernel_matches_oracle(g, searches)


def test_the_empty_pattern_embeds_once():
    assert list(_embeddings([], [((), [])])) == [([], 1)]
    assert list(oracle_embeddings([], [], [])) == [[]]


def test_a_limit_inside_a_batch_keeps_the_first_copies_in_order():
    # a limit can fall inside one last-position mask, and inside a group
    claw = LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    cases = [(named_graph("S2"), gnp_sample(12, 0.5, seed)) for seed in range(2)]
    cases += [(LabeledGraph.complete(3), gnp_sample(10, 0.5, seed)) for seed in range(3)]
    cases += [(claw, with_copies(claw, 3, 3, 5))]
    for pattern, g in cases:
        batches = _embeddings(_masks(g.row_masks()[1:]), pinned_searches(g, pattern))
        assert any(last & (last - 1) for _, last in batches)  # a batch of two or more copies
        full = find_induced_occurrences(g, pattern)
        for m in range(1, len(full) + 1):
            assert find_induced_occurrences(g, pattern, limit=m) == full[:m]


def union_of(*parts):
    pattern = LabeledGraph.empty(0)
    for part in parts:
        pattern = disjoint_union(pattern, part)
    return pattern


@pytest.mark.parametrize(
    "pattern",
    [
        union_of(*[LabeledGraph.complete(2)] * 8),
        union_of(*[LabeledGraph.complete(3)] * 5, LabeledGraph.empty(1)),
        LabeledGraph.from_edges(  # the 4-cube Q4: labels 1 + a and 1 + a + bit
            16, [(1 + a, 1 + a + bit) for a in range(16) for bit in (1, 2, 4, 8) if not a & bit]
        ),
    ],
    ids=["8K2", "5K3+K1", "Q4"],
)
def test_each_copy_is_yielded_once_for_large_symmetric_patterns(pattern):
    for clones, extra in ((1, 1), (2, 2)):
        g = with_copies(pattern, clones, extra, pattern.edge_count)
        expected = oracle_occurrences(g, pattern)
        assert len(expected) >= 2
        assert sorted(kernel_images(g, pattern)) == expected
        assert find_induced_occurrences(g, pattern) == expected


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


@st.composite
def dense_hosts(draw):
    n = draw(st.integers(8, 10))
    pairs = draw(st.permutations(list(combinations(range(1, n + 1), 2))))
    return LabeledGraph.from_edges(n, pairs[: draw(st.integers(17, 22))])


@settings(max_examples=60, deadline=None)
@given(dense_hosts(), st.sampled_from(["K3", "P3", "claw"]))
def test_is_host_matches_single_cover_on_dense_hosts(g, name):
    # past the 16 edges of the test above, where the search tree is deep
    pattern = {
        "K3": LabeledGraph.complete(3),
        "P3": LabeledGraph.from_edges(3, [(1, 2), (2, 3)]),
        "claw": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),
    }[name]
    cert = is_host(g, pattern)
    assert (cert.verified, cert.colorings_checked, cert.witness) == oracle_is_host(g, pattern)


def test_complete_hosts_up_to_the_edge_cap_are_verified_quickly():
    k3 = LabeledGraph.complete(3)
    for n in (7, 8):
        start = time.perf_counter()
        cert = is_host(LabeledGraph.complete(n), k3)
        assert cert.verified and cert.witness is None
        assert cert.colorings_checked == 2 ** (n * (n - 1) // 2)
    assert time.perf_counter() - start < 2.0  # K8: 28 edges, 56 triangles


def test_verified_low_component_is_decided_on_its_own():
    # K6 on 1..6 has no avoiding coloring; the four triangles above it each
    # have six.  Searching the 27 edges as one tree from the highest down
    # would refute K6 once per avoiding coloring of the triangles (6^4).
    k3 = LabeledGraph.complete(3)
    g = LabeledGraph.complete(6)
    for _ in range(4):
        g = disjoint_union(g, k3)
    start = time.perf_counter()
    cert = is_host(g, k3)
    assert cert.verified and cert.witness is None and cert.colorings_checked == 2**27
    assert time.perf_counter() - start < 0.2  # about 1 ms; the one tree takes about 1 s


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
