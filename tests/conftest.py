"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's optimized code paths: ratio
checks use plain Fraction loops over itertools subsets, and isomorphism
checks go through networkx, so frozen expected values never depend on the
implementation they test.  The slow paths that the induced-embedding kernel
and the factored coloring cover replaced are kept here as oracles: the
scan over all C(n,k) subsets with a backtracking isomorphism test, the
backtracking automorphism count, and the single 2^|E|-bit cover.
"""

from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from gasketlab import LabeledGraph, induced_subgraph


def to_nx(g: LabeledGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges())
    return G


def nx_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    return nx.is_isomorphic(to_nx(a), to_nx(b))


def oracle_min_ratio(g: LabeledGraph, group) -> tuple[Fraction, tuple[int, ...]]:
    """Plain brute force over every nonempty subset, smallest-lex tie-break."""
    group = tuple(sorted(group))
    gset = set(group)
    best = None
    arg = None
    for size in range(1, len(group) + 1):
        for sp in combinations(group, size):
            spset = set(sp)
            num = 0
            for i in sp:
                for j in g.neighbors(i):
                    if j in gset and (j not in spset or j > i):
                        num += 1
            den = sum(g.degree(i) for i in sp)
            ratio = Fraction(num, den)
            if best is None or ratio < best or (ratio == best and sp < arg):
                best, arg = ratio, sp
    return best, arg


def oracle_find_isomorphism(a: LabeledGraph, b: LabeledGraph):
    """Backtracking over vertex assignments with degree-compatibility pruning."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return None
    if sorted(a.degree_multiset().items()) != sorted(b.degree_multiset().items()):
        return None
    n = a.n
    deg_a = [0] + [a.degree(v) for v in range(1, n + 1)]
    deg_b = [0] + [b.degree(v) for v in range(1, n + 1)]
    order = sorted(range(1, n + 1), key=lambda v: -deg_a[v])
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def assign(t: int) -> bool:
        if t == n:
            return True
        v = order[t]
        row = a.adj[v]
        for w in range(1, n + 1):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            if all((u in row) == (image[u] in b.adj[w]) for u in order[:t]):
                image[v] = w
                used[w] = True
                if assign(t + 1):
                    return True
                used[w] = False
                image[v] = 0
        return False

    return tuple(image[1:]) if assign(0) else None


def oracle_automorphism_count(g: LabeledGraph) -> int:
    """Counts every degree-compatible assignment that preserves edges."""
    n = g.n
    deg = [0] + [g.degree(v) for v in range(1, n + 1)]
    order = sorted(range(1, n + 1), key=lambda v: -deg[v])
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def assign(t: int) -> int:
        if t == n:
            return 1
        v = order[t]
        row = g.adj[v]
        count = 0
        for w in range(1, n + 1):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((u in row) == (image[u] in g.adj[w]) for u in order[:t]):
                image[v] = w
                used[w] = True
                count += assign(t + 1)
                used[w] = False
                image[v] = 0
        return count

    return assign(0)


def oracle_occurrences(g: LabeledGraph, pattern: LabeledGraph, limit=None):
    """Scan all C(n,k) subsets in lexicographic order; prefilter on induced
    degree multisets, then test isomorphism by backtracking."""
    k = pattern.n
    target = sorted(d for d, cnt in pattern.degree_multiset().items() for _ in range(cnt))
    out = []
    for subset in combinations(range(1, g.n + 1), k):
        sub = induced_subgraph(g, subset)
        if sorted(sub.degree(v) for v in sub.vertices()) != target:
            continue
        if oracle_find_isomorphism(sub, pattern) is not None:
            out.append(subset)
            if limit is not None and len(out) >= limit:
                break
    return out


def oracle_is_host(g: LabeledGraph, pattern: LabeledGraph):
    """(verified, colorings_checked, witness) from one 2^|E|-bit cover.

    Coloring R is the integer whose bit t means edge t is red; a copy with
    edge mask ``mask`` is all blue on the subsets of its complement and all
    red on those shifted by ``mask``.
    """
    edges = list(g.edges())
    m = len(edges)
    edge_index = {e: t for t, e in enumerate(edges)}
    full = (1 << (1 << m)) - 1
    union = 0
    for subset in oracle_occurrences(g, pattern):
        mask = 0
        for a, b in combinations(subset, 2):
            if g.has_edge(a, b):
                mask |= 1 << edge_index[(a, b)]
        blue = 1
        for b in range(m):
            if not (mask >> b & 1):
                blue |= blue << (1 << b)
        union |= blue | (blue << mask)
    if union == full:
        return True, 1 << m, None
    missing = ~union & full
    lowest = (missing & -missing).bit_length() - 1
    witness = {e: ("red" if lowest >> t & 1 else "blue") for t, e in enumerate(edges)}
    return False, 1 << m, witness


@pytest.fixture
def k3() -> LabeledGraph:
    return LabeledGraph.complete(3)


@pytest.fixture
def path3() -> LabeledGraph:
    return LabeledGraph.from_edges(3, [(1, 2), (2, 3)])
