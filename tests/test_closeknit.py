import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasketlab import (
    DomainError,
    LabeledGraph,
    ResourceLimitError,
    connected_components,
    gnp_sample,
    induced_subgraph,
)
from gasketlab import closeknit
from gasketlab.closeknit import (
    _certify,
    _first_group,
    _max_flow,
    _ratio_test,
    _slack,
    family_scan,
    is_rk_closeknit,
    min_ratio,
)
from gasketlab.catalog import named_graph
from gasketlab.graphs import _needs
from gasketlab.experiments import plant_occurrence
from gasketlab.sierpinski import build

from conftest import (
    grow_connected_group,
    internal_degree,
    oracle_connected_groups_from,
    oracle_family_scan,
    oracle_first_group,
    oracle_is_rk_closeknit,
    oracle_max_flow,
    oracle_min_ratio,
    oracle_min_ratio_blocks,
    oracle_ratio_test,
)


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


def test_certification_rejects_isolated_vertex():
    # refused before any group is examined, wherever the isolated vertex is
    for lonely_vertex, edges in ((1, [(2, 3), (3, 4)]), (4, [(1, 2), (2, 3)])):
        g = LabeledGraph.from_edges(4, edges)
        for r in (Fraction(0), Fraction(1, 4), Fraction(1)):
            for k in (1, 2, 3):
                with pytest.raises(DomainError, match=f"vertex {lonely_vertex} is isolated"):
                    is_rk_closeknit(g, r, k)


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


def _members_and_rows(g: LabeledGraph, order) -> tuple[dict[int, int], list[int]]:
    """A group as ``_first_group`` carries it, members in the given order:
    member -> bit position, and each member's in-group neighbour mask."""
    members = {v: t for t, v in enumerate(order)}
    return members, [sum(1 << members[u] for u in g.adj[v] if u in members) for v in order]


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


@given(st.sampled_from(["S5", "S6"]), st.integers(10, 20), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_min_ratio_matches_block_oracle_on_gasket_groups(name, size, seed):
    g = named_graph(name)
    group = grow_connected_group(g, size, seed)
    report = min_ratio(g, group)
    assert (report.min_ratio, report.argmin) == oracle_min_ratio_blocks(g, group)


@st.composite
def _disjoint_unions(draw) -> LabeledGraph:
    """2-4 complete, cycle or path pieces of 2-5 vertices, relabelled at
    random: pieces of equal ratio tie, so the lexicographically smallest
    minimizer is often a union of separate ones, interleaved by label."""
    edges, n = [], 0
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["complete", "cycle", "path"]))
        k = draw(st.integers(3 if kind == "cycle" else 2, 5))
        if kind == "complete":
            edges += [(n + i, n + j) for i, j in combinations(range(1, k + 1), 2)]
        else:
            edges += [(n + i, n + i + 1) for i in range(1, k)]
            if kind == "cycle":
                edges.append((n + k, n + 1))
        n += k
    label = [0] + draw(st.permutations(range(1, n + 1)))
    return LabeledGraph.from_edges(n, [(label[a], label[b]) for a, b in edges])


@given(_disjoint_unions(), st.data())
@settings(max_examples=150, deadline=None)
def test_min_ratio_matches_block_oracle_on_disjoint_unions(g, data):
    group = _draw_group(g, data)
    report = min_ratio(g, group)
    assert (report.min_ratio, report.argmin) == oracle_min_ratio_blocks(g, group)


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=4, deadline=None)
def test_min_ratio_matches_block_oracle_on_dense_20_vertex_groups(seed, data):
    g = gnp_sample(24, 0.95, seed)
    group = tuple(sorted(data.draw(st.permutations(range(1, 25)))[:20]))
    report = min_ratio(g, group)
    assert (report.min_ratio, report.argmin) == oracle_min_ratio_blocks(g, group)


def test_min_ratio_of_k20_matches_block_oracle():
    k20 = LabeledGraph.complete(20)
    report = min_ratio(k20, range(1, 21))
    assert (report.min_ratio, report.argmin) == oracle_min_ratio_blocks(k20, range(1, 21))
    assert report.min_ratio == Fraction(1, 2)


@pytest.mark.parametrize("label", [1.7, "2", "a", None])
def test_subset_labels_must_be_integers(label):
    k4 = LabeledGraph.complete(4)
    for call in (
        lambda: min_ratio(k4, (label, 3)),
        lambda: induced_subgraph(k4, (label, 3)),
        lambda: plant_occurrence(k4, LabeledGraph.complete(2), (label, 3)),
    ):
        with pytest.raises(DomainError, match=f"subset label {label!r} is not an integer"):
            call()


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
    members, rows = _members_and_rows(g, data.draw(st.permutations(group)))
    eps = Fraction(1, 1000)
    knife_edge = [exact, exact - eps, exact + eps, Fraction(0), Fraction(-1, 3), Fraction(3, 2)]
    for r in knife_edge + [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]:
        assert _ratio_test(g, r)(members, rows) == (exact >= r), r


@st.composite
def _ratio_groups(draw) -> tuple[LabeledGraph, tuple[int, ...]]:
    """A group of 1-14 members: grown connected on S5 or S6, as the
    certificate's search grows its groups, or drawn from a G(n, p) graph."""
    kind = draw(st.sampled_from(["S5", "S6", "gnp"]))
    if kind != "gnp":
        g = named_graph(kind)
        return g, grow_connected_group(g, draw(st.integers(1, 14)), draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 14))
    g = gnp_sample(n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 10**6)))
    group = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    assume(all(g.degree(v) for v in group))
    return g, group


@given(_ratio_groups(), st.data())
@settings(max_examples=150, deadline=None)
def test_ratio_test_matches_the_subset_dp_it_replaced(case, data):
    g, group = case
    exact, _ = oracle_min_ratio_blocks(g, group)
    members, rows = _members_and_rows(g, data.draw(st.permutations(group)))
    eps = Fraction(1, 1000)
    for r in [Fraction(-1, 3), Fraction(0), exact - eps, exact, exact + eps, Fraction(1, 3),
              Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(3, 2)]:
        assert _ratio_test(g, r)(members, rows) == oracle_ratio_test(g, r)(members, rows), r


def _with_leaves(n: int, edges, owners) -> LabeledGraph:
    """Vertices 1..n with ``edges``, and two pendant leaves on each owner."""
    leaves = [(v, n + 1 + 2 * i + j) for i, v in enumerate(owners) for j in (0, 1)]
    return LabeledGraph.from_edges(n + len(leaves), list(edges) + leaves)


def _subset_ratio(g: LabeledGraph, sub, group) -> Fraction:
    return Fraction(internal_degree(g, sub, group), sum(g.degree(v) for v in sub))


# A 4-cycle whose members each have two leaves outside it: ratio 1/4 on the
# whole group, at least 1/3 on every proper subset.
WHOLE_ONLY = (_with_leaves(4, [(1, 2), (2, 3), (3, 4), (1, 4)], (1, 2, 3, 4)), (1, 2, 3, 4))
# Two triangles joined by the edge 3-4, with two leaves on each of 1, 2, 3:
# ratio 7/20 on the whole group and >= 1/2 on each singleton, but 4/13 on the
# triangle {1, 2, 3}.
SUBSET_ONLY = (
    _with_leaves(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)], (1, 2, 3)),
    (1, 2, 3, 4, 5, 6),
)


@pytest.mark.parametrize("g, group, r", [(*WHOLE_ONLY, Fraction(3, 10)),
                                         (*SUBSET_ONLY, Fraction(1, 3))],
                         ids=["whole group only", "proper subset only"])
def test_ratio_test_rejects_on_the_whole_group_and_on_subsets_alike(g, group, r):
    exact, argmin = oracle_min_ratio(g, group)
    whole = _subset_ratio(g, group, group)
    if argmin == group:  # only S' = S is below r
        proper = [sub for size in range(1, len(group)) for sub in combinations(group, size)]
        assert all(_subset_ratio(g, sub, group) >= r for sub in proper)
    else:  # S and every singleton pass, so only a larger proper subset can reject
        assert whole >= r and all(_subset_ratio(g, (v,), group) >= r for v in group)
    assert exact < r
    eps = Fraction(1, 1000)
    knife_edge = [r, exact, exact - eps, exact + eps, whole, whole - eps, whole + eps]
    for order in (group, group[::-1], group[1::2] + group[::2]):
        members, rows = _members_and_rows(g, order)
        for bound in knife_edge + [Fraction(-1, 3), Fraction(0), Fraction(1, 2),
                                   Fraction(3, 5), Fraction(3, 2)]:
            assert _ratio_test(g, bound)(members, rows) == (exact >= bound), (order, bound)


RATIOS = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)]


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_certification_matches_exact_ratio_oracle(level):
    g = build(level).graph
    for r in RATIOS:
        for k in range(1, 9):
            assert is_rk_closeknit(g, r, k) == oracle_is_rk_closeknit(g, r, k), (r, k)


@st.composite
def _connected_graphs(draw) -> LabeledGraph:
    """A random spanning tree on 2..12 vertices plus random extra edges,
    relabelled at random."""
    n = draw(st.sampled_from(range(2, 13)))
    label = [0] + draw(st.permutations(range(1, n + 1)))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    edges |= set(draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n)))
    pairs = {tuple(sorted((label[a], label[b]))) for a, b in edges if a != b}
    return LabeledGraph.from_edges(n, sorted(pairs))


def _result_or_error(certify):
    try:
        return certify()
    except ResourceLimitError as exc:
        return str(exc)


@given(
    g=st.one_of(_connected_graphs(), st.sampled_from([build(lv).graph for lv in (1, 2, 3, 4)])),
    r=st.sampled_from(RATIOS),
    k=st.sampled_from(range(1, 9)),
    cap=st.sampled_from([10**6, 10**6, 10**6, 1, 2, 7, 40, 300]),  # uncapped 3 times in 8
)
@settings(max_examples=300, deadline=None)
def test_certificate_matches_oracle_witness_count_and_failure(g, r, k, cap):
    mine = _result_or_error(lambda: is_rk_closeknit(g, r, k, groups_cap=cap))
    assert mine == _result_or_error(lambda: oracle_is_rk_closeknit(g, r, k, cap))


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


def _walk_every_set(g):
    """A ``slack`` for ``_first_group`` whose bound never fires: with q = 0,
    no own slack and no gain, no subtree is counted instead of walked."""
    return 0, [0] * (g.n + 1), 0


def _examined_then_error(g, v, k, cap):
    """The groups ``_first_group`` examines, in order, then its cap error or
    None.  Its ``accept`` records each group, checks the carried rows against
    ones rebuilt independently, and never accepts."""
    examined = []

    def record(members, rows):
        assert (members, rows) == _members_and_rows(g, list(members))
        examined.append(tuple(sorted(members)))
        return False

    try:
        found, count = _first_group(g, v, k, cap, record, None, None, _walk_every_set(g))
    except ResourceLimitError as exc:
        return examined, str(exc)
    assert found is None and count == len(examined)
    return examined, None


def test_connected_group_enumeration_matches_brute_force():
    for seed in range(25):
        g = gnp_sample(7, 0.5, seed)
        for v in (1, 4):
            mine, _ = _examined_then_error(g, v, 4, 10**6)
            reference = set()
            for size in range(1, 5):
                for sub in combinations(range(1, 8), size):
                    if v in sub and len(connected_components(induced_subgraph(g, sub))) == 1:
                        reference.add(sub)
            assert len(mine) == len(reference) and set(mine) == reference


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
                mine = _examined_then_error(g, v, k, cap)
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


def _searches(g, r, k, cap, need):
    """The searches a certificate makes, in its order, through ``_first_group``
    with the given ``need`` (None: the full search): each one's (found,
    examined), then its cap error if one is raised.  Under a ``need``, every
    group handed to ``accept`` is checked to have every member at its need,
    with the rows ``_first_group`` carries; one ``nin`` serves every search
    and must come back all zero."""
    ratio_test, nin, out, done = _ratio_test(g, r), [0] * (g.n + 1), [], set()

    def accept(members, rows):
        assert (members, rows) == _members_and_rows(g, list(members))
        assert need is None or all(
            row.bit_count() >= need[u] for u, row in zip(members, rows))
        return ratio_test(members, rows)

    for v in g.vertices():
        if v in done:
            continue
        try:
            found, count = _first_group(g, v, k, cap, accept, need, nin, _walk_every_set(g))
        except ResourceLimitError as exc:
            return out + [str(exc)]
        assert not any(nin)
        out.append((found, count))
        if found is None:
            break
        done.update(found)
    return out


@given(
    g=st.one_of(_connected_graphs(), st.sampled_from([build(lv).graph for lv in range(1, 6)])),
    r=st.sampled_from([Fraction(-1, 3), Fraction(0), *RATIOS, Fraction(3, 2)]),
    k=st.sampled_from(range(1, 9)),
    cap=st.sampled_from([1, 2, 7, 40, 300, 10**6]),
)
@settings(max_examples=300, deadline=None)
def test_need_pruned_search_matches_the_full_search(g, r, k, cap):
    need = [math.ceil(r * len(row)) for row in g.adj]
    assert _searches(g, r, k, cap, need) == _searches(g, r, k, cap, None)


@given(
    g=st.one_of(_connected_graphs(), st.sampled_from([build(lv).graph for lv in range(1, 6)])),
    r=st.sampled_from([Fraction(-1, 3), Fraction(0), *RATIOS, Fraction(3, 2)]),
    k=st.sampled_from(range(1, 9)),
    cap=st.sampled_from([1, 2, 7, 40, 300, 10**6]),
    with_need=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_counted_subtrees_match_the_walk(g, r, k, cap, with_need, data):
    """A search that counts the subtrees the ratio test's slack bound rules
    out finds the walk's group, examines as many sets, or raises the walk's
    cap error; after a return ``nin`` is all zero again."""
    v = data.draw(st.sampled_from(g.vertices()), label="v")
    accept, need = _ratio_test(g, r), _needs(g.adj, r) if with_need else None
    nins = [[0] * (g.n + 1) for _ in range(2)]
    mine = _result_or_error(
        lambda: _first_group(g, v, k, cap, accept, need, nins[0], _slack(g, r, k)))
    walked = _result_or_error(lambda: oracle_first_group(g, v, k, cap, accept, need, nins[1]))
    assert mine == walked
    if not isinstance(mine, str):
        assert not any(nins[0]) and not any(nins[1])


@pytest.mark.parametrize("level, examined", [(4, 4_145), (5, 4_289)])
def test_cap_boundary_inside_a_counted_subtree(level, examined):
    """Vertex 11 has no (2/5, 8) group, and the last sets of its search lie
    in a subtree that is counted, not walked: the count still meets the cap
    exactly where the walk does."""
    g, r = build(level).graph, Fraction(2, 5)
    args = (_ratio_test(g, r), _needs(g.adj, r), None, _slack(g, r, 8))
    assert _first_group(g, 11, 8, examined, *args) == (None, examined)
    with pytest.raises(ResourceLimitError, match=f"vertex 11 exceeded cap {examined - 1}$"):
        _first_group(g, 11, 8, examined - 1, *args)
    assert oracle_first_group(g, 11, 8, examined, *args[:2]) == (None, examined)


@pytest.mark.parametrize("level, walked", [(4, 172), (5, 155)])
def test_counted_subtrees_spare_the_ratio_test_half_its_groups(level, walked):
    """A work guard with no timing: on the slow failing search of the
    ``gasket`` benchmark, the slack bound keeps at least half of the groups
    the walk hands to ``accept`` away from it.  With a slack that never
    fires the search walks every set."""
    g, r = build(level).graph, Fraction(2, 5)
    ratio_test, need, seen = _ratio_test(g, r), _needs(g.adj, r), []

    def accept(members, rows):
        seen.append(tuple(members))
        return ratio_test(members, rows)

    walk = _first_group(g, 11, 8, 10**6, accept, need, None, _walk_every_set(g))
    assert walk == (None, 4_145 if level == 4 else 4_289)
    assert len(seen) == walked
    seen.clear()
    _first_group(g, 11, 8, 10**6, accept, need, None, _slack(g, r, 8))
    assert 0 < len(seen) <= walked // 2


def test_certificate_on_a_large_gasket_allocates_no_per_vertex_bit_table():
    g = build(9).graph  # 9,843 vertices
    result = is_rk_closeknit(g, Fraction(1, 4), 3)
    tracemalloc.start()
    try:
        assert is_rk_closeknit(g, Fraction(1, 4), 3) == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.success, result.groups_examined, len(result.witness)) == (True, 20_776, g.n)
    assert len(set(result.witness.values())) == 6_561
    # an n-bit mask per vertex would take n * n / 8 bytes, 12.1 MB here
    assert peak < g.n * g.n // 32


def test_certificate_with_20_member_groups_allocates_no_subset_table():
    g, r = build(6).graph, Fraction(9, 20)
    tracemalloc.start()
    try:
        result = is_rk_closeknit(g, r, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.success, result.groups_examined) == (True, 3_828)
    assert result == oracle_is_rk_closeknit(g, r, 20)
    # a 2^|S|-entry slack table for a 20-member group alone takes tens of MiB
    assert peak < 2**20


@st.composite
def _networks(draw):
    """A flow network of ``min_ratio`` at lambda = a/b: up to 20 members
    with random group edges, degrees at least their in-group degrees, and
    a random lambda, negative, zero and above 1/2 included."""
    m = draw(st.integers(1, 20))
    pairs = list(combinations(range(m), 2))
    edges = [e for e, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    rows = [0] * m
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    deg = [row.bit_count() + draw(st.integers(0 if row else 1, 6)) for row in rows]
    return rows, deg, draw(st.integers(-3, 12)), draw(st.integers(1, 12))


@given(_networks())
@settings(max_examples=200, deadline=None)
def test_bit_row_network_matches_the_list_network(network):
    """``_max_flow`` builds from bit rows the network its callers once built
    from ascending neighbour lists, so it augments along the same paths: the
    residual matrix and the source side are the oracle's."""
    rows, deg, a, b = network
    nbrs = [[j for j in range(len(rows)) if row >> j & 1] for row in rows]
    w = [b * len(row) - 2 * a * d for row, d in zip(nbrs, deg)]
    assert _max_flow(rows, deg, a, b) == oracle_max_flow(nbrs, w, b)


def _counted_flows(monkeypatch) -> list:
    """Each network ``closeknit._max_flow`` is handed from now on, copied."""
    flows, max_flow = [], closeknit._max_flow

    def counted(rows, deg, a, b):
        flows.append((tuple(rows), tuple(deg), a, b))
        return max_flow(rows, deg, a, b)

    monkeypatch.setattr(closeknit, "_max_flow", counted)
    return flows


@pytest.mark.parametrize("level", [5, 6, 7])
def test_certificate_cuts_each_group_shape_once(level, monkeypatch):
    """A work guard with no timing: a successful gasket certificate at
    r = 1/3, k = 8 tests hundreds of groups (365 on S7), but they come in
    a few shapes, and each shape's network is cut once."""
    flows = _counted_flows(monkeypatch)
    assert is_rk_closeknit(build(level).graph, Fraction(1, 3), 8).success
    assert 0 < len(flows) <= 6 and len(set(flows)) == len(flows)


def test_certificate_with_20_member_groups_keeps_one_answer_per_flow(monkeypatch):
    """The ratio test keeps an answer only for a group whose network it cut:
    S6 at (9/20, 20) runs 6 flows.  Keeping one per group it tests would
    hold 131 answers, and the certificate would peak near 124 KiB."""
    g, r = build(6).graph, Fraction(9, 20)
    flows = _counted_flows(monkeypatch)
    result = is_rk_closeknit(g, r, 20)
    assert len(flows) <= 6 and len(set(flows)) == len(flows)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert is_rk_closeknit(g, r, 20) == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 1024


def test_certificates_and_scans_leave_no_cyclic_garbage():
    """The group search's closures are dropped on return, so a certificate
    or a family scan frees everything it made by reference counting."""
    g = build(4).graph
    gc.collect()
    gc.disable()
    try:
        for run in (lambda: is_rk_closeknit(g, Fraction(2, 5), 8),
                    lambda: is_rk_closeknit(g, Fraction(1, 3), 8),
                    lambda: family_scan({4: g}, Fraction(2, 5))):
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


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


SCAN_RATIOS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(9, 20),
               Fraction(1, 2), Fraction(3, 5)]


@pytest.mark.parametrize("r", SCAN_RATIOS, ids=str)
def test_family_scan_matches_the_per_k_scan_on_gaskets(r):
    """The rising-k pass answers what one full certificate per k answers,
    on S1-S5 for every k_cap from 1 to 8."""
    graphs = {level: build(level).graph for level in range(1, 6)}
    for k_cap in range(1, 9):
        assert family_scan(graphs, r, k_cap) == oracle_family_scan(graphs, r, k_cap), k_cap


def _without_isolated(g: LabeledGraph) -> LabeledGraph:
    """g with each isolated vertex v joined to v % n + 1."""
    edges = {(u, v) for u in g.vertices() for v in g.adj[u] if u < v}
    edges |= {tuple(sorted((v, v % g.n + 1))) for v in g.vertices() if not g.adj[v]}
    return LabeledGraph.from_edges(g.n, sorted(edges))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 12),
    st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]),
    st.integers(0, 2**64 - 1),
    st.sampled_from(SCAN_RATIOS),
    st.integers(1, 8),
)
def test_family_scan_matches_the_per_k_scan_on_random_graphs(n, p, seed, r, k_cap):
    g = _without_isolated(gnp_sample(n, p, seed))
    assert family_scan({0: g}, r, k_cap) == oracle_family_scan({0: g}, r, k_cap)


def _per_k_scan(g, r, cap):
    return oracle_family_scan({0: g}, r, 8, cap)[0]


def _rising_scan(g, r, cap):  # family_scan's pass, at a cap of the test's choosing
    k, witness, _, _ = _certify(g, r, 1, 8, cap)
    return k if witness is not None else None


def _scan_or_raise(scan, g, r, cap):
    try:
        return scan(g, r, cap)
    except ResourceLimitError:
        return "raise"


@pytest.mark.parametrize(
    "seed, r, caps, parent, now",
    [
        (4, Fraction(1, 4), range(16, 24), "raise", 4),
        (21, Fraction(1, 3), range(34, 40), 5, "raise"),
    ],
)
def test_family_scan_cap_edge(seed, r, caps, parent, now):
    """The groups cap bounds each (vertex, k) search, and the rising pass
    runs other searches than one certificate per k, so within a few groups
    of the cap an input can answer where the per-k scan raised, or raise
    where it answered.  Two G(12, 0.35) samples show both; at the caps just
    outside these ranges the two scans agree."""
    g = gnp_sample(12, 0.35, seed)
    for cap in caps:
        assert _scan_or_raise(_per_k_scan, g, r, cap) == parent, cap
        assert _scan_or_raise(_rising_scan, g, r, cap) == now, cap
    for cap in (caps.start - 1, caps.stop):
        assert _scan_or_raise(_rising_scan, g, r, cap) == _scan_or_raise(_per_k_scan, g, r, cap)


def test_certification_refuses_non_integer_k_and_non_finite_r():
    s3 = build(3).graph
    with pytest.raises(DomainError, match="k must be an integer"):
        is_rk_closeknit(s3, Fraction(1, 3), 2.5)
    for r in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="r must be a finite rational"):
            is_rk_closeknit(s3, r, 2)


@pytest.mark.parametrize("k_cap", [0, -1, 21, 2.5])
def test_family_scan_refuses_k_cap_outside_the_group_size_range(k_cap):
    with pytest.raises(DomainError, match="k_cap"):
        family_scan({}, Fraction(1, 3), k_cap=k_cap)  # refused before any graph is looked at


def test_family_scan_reports_none_when_cap_too_small():
    graphs = {2: build(2).graph}
    assert family_scan(graphs, Fraction(1, 2), k_cap=3) == {2: None}


def test_group_search_resource_guard():
    with pytest.raises(ResourceLimitError, match="cap"):
        is_rk_closeknit(build(4).graph, Fraction(1, 2), 8, groups_cap=50)
