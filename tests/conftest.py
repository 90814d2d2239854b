"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's optimized code paths: ratio
checks use plain Fraction loops over itertools subsets and
``internal_degree``, the d(S', S) count that no library path needs, and
isomorphism checks go through networkx, so frozen expected values never
depend on the implementation they test.  The slow paths that the induced-embedding kernel
and the factored coloring cover replaced are kept here as oracles: the
scan over all C(n,k) subsets with a backtracking isomorphism test, the
backtracking automorphism count, the embedding kernel that checked each
position only when it reached it and yielded every last image one by one, the single 2^|E|-bit cover,
certification by computing each candidate group's exact minimum ratio,
the crossover scan that decides every undecided level by the exact power
(and one by 60-digit logarithms, for levels where that power is too slow),
the one-pass block DP over all 2^|S| subset bitmasks that computed
``min_ratio`` before the parametric minimum cut, the block DP over the
same subsets that decided a certificate's candidate groups before one
minimum cut did, the maximum flow that was handed its neighbour lists and
weights instead of building them from bit rows, and the per-bit and
per-pair loops of the G(n,p) sampler, the canonical flags of a graph
without kept flags, the canonical, graph6 and two-part codecs,
``plant_occurrence`` and ``to_bytes``.  The gasket built from coordinates
(every elementary triangle's edges listed, the points sorted and
labelled, the graph made by ``from_edges``) is kept with the sub-gasket
extraction that read its template off those sorted points.  The
diffusion loop that ran every trial to its horizon, past all-A, is kept too,
as is the family scan that ran one full certificate per k, and so is the
branch-and-forbid connected-group enumerator that tracked a
forbidden set and scanned the frontier list, and the group search that
walked every set, where the library counts a subtree that cannot hold an
accepted group.  The oracles that draw random
words take them from ``oracle_words``, which hashes the SHA-256 blocks as
the ``rng`` docstring states the mapping, not from ``WordStream``.
"""

import hashlib
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from gasketlab import DomainError, LabeledGraph, ResourceLimitError, induced_subgraph, sierpinski
from gasketlab.closeknit import GROUPS_PER_VERTEX_CAP, CloseKnitResult, is_rk_closeknit, min_ratio
from gasketlab.graphs import EdgeBitString, as_subset
from gasketlab.ranking import rank_subset, unrank_permutation, unrank_subset
from gasketlab.twopart import TwoPartEncoding, ordering_index_bits, subset_index_bits


def _collect_offsets(level: int, target: int, r0: int, c0: int, out) -> None:
    if level == target:
        out.append((r0, c0))
        return
    span = 2 ** (level - 2)
    _collect_offsets(level - 1, target, r0, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0 + span, out)


def _coord_edges(level: int):
    """Edges of the triangles at the level-1 offsets, in recursion order."""
    offsets = []
    _collect_offsets(level, 1, 0, 0, offsets)
    edges = []
    for r0, c0 in offsets:
        a, b, c = (r0, c0), (r0 + 1, c0), (r0 + 1, c0 + 1)
        edges += [(a, b), (a, c), (b, c)]
    return edges


def oracle_sierpinski(level: int) -> sierpinski.SierpinskiGraph:
    """The level-``level`` gasket from its coordinates: labels follow the
    sorted points, and ``from_edges`` checks every edge."""
    coord_edges = _coord_edges(level)
    points = sorted({p for e in coord_edges for p in e})
    label = {p: t + 1 for t, p in enumerate(points)}
    graph = LabeledGraph.from_edges(
        len(points), [(label[a], label[b]) for a, b in coord_edges]
    )
    span = 2 ** (level - 1)
    corner_labels = (label[(0, 0)], label[(span, 0)], label[(span, span)])
    coords = {label[p]: p for p in points}
    return sierpinski.SierpinskiGraph(level, graph, coords, corner_labels)


def oracle_subgaskets(s: sierpinski.SierpinskiGraph, sub_level: int) -> list[tuple[int, ...]]:
    """The level-``sub_level`` sub-gaskets, each the sorted level-j points
    placed at its offset."""
    offsets = []
    _collect_offsets(s.level, sub_level, 0, 0, offsets)
    template = sorted({p for e in _coord_edges(sub_level) for p in e})
    label = {coord: v for v, coord in s.coords.items()}
    return [tuple(sorted(label[(r0 + r, c0 + c)] for r, c in template)) for r0, c0 in offsets]


def to_nx(g: LabeledGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges())
    return G


def atlas_graphs(max_n: int = 6) -> list[LabeledGraph]:
    """The networkx atlas graphs on at most ``max_n`` vertices (at most 7),
    labelled 1..n, in atlas order: by vertex count, then edge count."""
    return [
        LabeledGraph.from_edges(a.number_of_nodes(), [(i + 1, j + 1) for i, j in a.edges()])
        for a in graph_atlas_g()
        if a.number_of_nodes() <= max_n
    ]


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


def internal_degree(g: LabeledGraph, sprime, s) -> int:
    """d(S', S): edges {i, j} with i in S' and j in S; internal edges once."""
    s_set = set(as_subset(s, g.n, nonempty=True))
    sp_set = set(as_subset(sprime, g.n, nonempty=True))
    if not sp_set <= s_set:
        raise DomainError("S' must be a subset of S")
    return sum(1 for i in sp_set for j in g.adj[i] if j in s_set and (j not in sp_set or j > i))


def _lex_less(a: int, b: int) -> bool:
    """Whether subset mask a sorts before mask b as a tuple of members.

    At the lowest differing bit lo, the mask holding lo is smaller unless
    the other mask ends there (has no bit above lo)."""
    lo = (a ^ b) & -(a ^ b)
    return b >= lo if a & lo else a < lo


def oracle_min_ratio_blocks(g: LabeledGraph, group) -> tuple[Fraction, tuple[int, ...]]:
    """One pass over all 2^|S| - 1 subset bitmasks, smallest-lex tie-break.

    The masks of block t are {t} | rest for every rest below bit t, and
    d(S' + t, S) = d(S', S) + |N(t) & S| - |N(t) & S'|, so each mask costs
    one popcount; fast enough for groups of 20 vertices."""
    s_tup = tuple(sorted(group))
    num = [0]  # num[mask] = d(S', S)
    den = [0]  # den[mask] = sum of degrees over S'
    best_num, best_den, best = 2, 1, 0  # every ratio is <= 1
    index = {v: t for t, v in enumerate(s_tup)}
    for t, v in enumerate(s_tup):
        nt = sum(1 << index[u] for u in g.adj[v].intersection(index))  # N(t) & S, by index
        in_s, deg, top = nt.bit_count(), len(g.adj[v]), 1 << t
        for rest in range(top):
            x = num[rest] + in_s - (nt & rest).bit_count()
            y = den[rest] + deg
            num.append(x)
            den.append(y)
            cmp = x * best_den - best_num * y
            if cmp < 0 or (cmp == 0 and _lex_less(top | rest, best)):
                best_num, best_den, best = x, y, top | rest
    argmin = tuple(v for t, v in enumerate(s_tup) if best >> t & 1)
    return Fraction(best_num, best_den), argmin


def oracle_max_flow(nbrs: list[list[int]], w: list[int], b: int) -> tuple[list[list[int]], int]:
    """``closeknit._max_flow`` as it was when its callers built the network:
    the residual capacities after a maximum s-t flow, and the group vertices
    s still reaches.

    Nodes 0..m-1 are the group, t = m and s = m + 1; arcs s -> i carry -w_i
    where w_i < 0, i -> t carry w_i where w_i > 0, and each group edge
    carries b both ways.  Augments along shortest paths (BFS) until t is
    unreachable, trying each node's neighbours in the order ``nbrs`` lists
    them.  Entry [i][j] of the returned matrix is the residual capacity of
    the arc i -> j.
    """
    m = len(nbrs)
    t, s = m, m + 1
    r = [[0] * (m + 2) for _ in range(m + 2)]
    for i, row in enumerate(nbrs):
        for j in row:
            r[i][j] = b
        if w[i] < 0:
            r[s][i] = -w[i]
        else:
            r[i][t] = w[i]
    links = [row + [t, s] for row in nbrs] + [list(range(m))] * 2
    while True:
        parent = {s: s}
        queue = [s]
        for u in queue:
            ru = r[u]
            for v in links[u]:
                if ru[v] and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        if t not in parent:
            break
        path, v = [], t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        delta = min(r[u][v] for u, v in path)
        for u, v in path:
            r[u][v] -= delta
            r[v][u] += delta
    return r, sum(1 << v for v in parent if v != s)


def oracle_ratio_test(g: LabeledGraph, r: Fraction):
    """``accept`` for ``_first_group`` by slack over every subset: whether
    min_ratio(g, group) >= r, for a group carried as member -> bit position
    with each member's in-group neighbour mask.

    With r = p/q, slack(S') = q d(S', S) - p vol(S'); S' = S is tried first,
    then the masks of block t, {t} | rest for each rest below bit t, with

        d(S' + t, S) = d(S', S) + |N(t) & S| - |N(t) & S'|,

    answering False at the first negative slack."""
    p, q = r.numerator, r.denominator
    pdeg = [p * len(row) for row in g.adj]

    def accept(members: dict[int, int], rows: list[int]) -> bool:
        if q * sum(map(int.bit_count, rows)) < 2 * sum(map(pdeg.__getitem__, members)):
            return False  # slack(S) < 0: S itself is below r
        slack = [0]
        for v, nt in zip(members, rows):
            gain = q * nt.bit_count() - pdeg[v]  # slack of the singleton
            block = [slack[rest] + gain - q * (nt & rest).bit_count() for rest in range(len(slack))]
            if min(block) < 0:
                return False
            slack += block
        return True

    return accept


def grow_connected_group(g: LabeledGraph, size: int, seed: int) -> tuple[int, ...]:
    """A connected group grown from a random vertex by random frontier
    vertices, as the ``gasket`` benchmark workload grows its groups."""
    rnd = random.Random(seed)
    group = {rnd.randrange(1, g.n + 1)}
    while len(group) < size:
        group.add(rnd.choice(sorted({u for v in group for u in g.adj[v]} - group)))
    return tuple(sorted(group))


def oracle_is_rk_closeknit(
    g: LabeledGraph, r: Fraction, k: int, cap: int = 10**6
) -> CloseKnitResult:
    """The per-vertex candidate loop over ``oracle_connected_groups_from``,
    deciding each group by its exact ``min_ratio(...).min_ratio >= r``."""
    witness: dict[int, tuple[int, ...]] = {}
    examined = 0
    for v in g.vertices():
        if v in witness:
            continue
        for group in oracle_connected_groups_from(g, v, k, cap):
            examined += 1
            if min_ratio(g, group).min_ratio >= r:
                break
        else:
            return CloseKnitResult(r, k, False, None, v, examined)
        for u in group:
            witness.setdefault(u, group)
    return CloseKnitResult(r, k, True, witness, None, examined)


def oracle_family_scan(
    graphs: dict, r: Fraction, k_cap: int = 8, groups_cap: int = GROUPS_PER_VERTEX_CAP
) -> dict:
    """Per graph, the first k = 1, 2, ..., k_cap whose full certificate
    succeeds, or None: one ``is_rk_closeknit`` from scratch per k."""
    ks = range(1, k_cap + 1)
    return {
        key: next((k for k in ks if is_rk_closeknit(graphs[key], r, k, groups_cap).success), None)
        for key in sorted(graphs)
    }


def oracle_connected_groups_from(g: LabeledGraph, v: int, k: int, cap: int):
    """Branch-and-forbid enumeration of the connected sets of size <= k that
    contain v: choosing frontier candidate u forbids every candidate listed
    before u in deeper branches.  Same order and cap error as the library."""
    produced = 0

    def rec(current, ext, forbidden):
        nonlocal produced
        produced += 1
        if produced > cap:
            raise ResourceLimitError(
                f"connected-group search around vertex {v} exceeded cap {cap}"
            )
        yield current
        if len(current) == k:
            return
        cur_set = set(current)
        for idx, u in enumerate(ext):
            new_forbidden = forbidden | set(ext[:idx])
            fresh = sorted(
                w
                for w in g.adj[u]
                if w not in cur_set and w not in new_forbidden and w not in ext
            )
            yield from rec(tuple(sorted(current + (u,))), ext[idx + 1 :] + fresh, new_forbidden)

    yield from rec((v,), sorted(g.adj[v]), set())


def oracle_first_group(g: LabeledGraph, v: int, k: int, cap: int, accept, need=None, nin=None):
    """``closeknit._first_group`` as it was before it counted subtrees that
    hold no acceptable group: the first connected set of size <= k
    containing v that ``accept`` takes, sorted (None if there is none), and
    the number of sets examined, every one of them walked.

    ESU enumeration (Wernicke, "Efficient detection of network motifs",
    2006): group G tries each vertex u of the frontier it was handed
    (ascending labels), and G + u hands on the vertices after u plus u's
    neighbours outside N[G], so no set is examined twice.  The group is
    ``members`` (member -> bit position, in insertion order) with ``rows[t]``
    member t's in-group neighbour mask, and ``nin[w]`` counts w's in-group
    neighbours, so N[G] is the members and the vertices with nin > 0.
    ``accept`` sees only groups whose members u all have nin[u] >= need[u]
    (default 0: every group); ``short`` counts the members below, and a
    group of size k that fails is skipped in its parent's loop before any
    row is built.  Every set is still counted and cap-checked, in order.
    ``nin`` is all zero on entry and on return, so one list serves many
    searches.
    """
    adj, members, rows = g.adj, {}, []
    need = need or [0] * (g.n + 1)
    nin = nin or [0] * (g.n + 1)
    examined = short = 0

    def grow(ext: list[int]) -> tuple[int, ...] | None:
        nonlocal examined, short
        t = len(rows)
        bit, full = 1 << t, t + 1 == k
        for idx, u in enumerate(ext):
            examined += 1
            if examined > cap:
                raise ResourceLimitError(
                    f"connected-group search around vertex {v} exceeded cap {cap}"
                )
            if full and (nin[u] < need[u] or short and short != sum(
                    w in members and nin[w] + 1 == need[w] for w in adj[u])):
                continue  # u, or a member u does not lift to need, is below need
            mask = 0
            for w in adj[u]:
                nin[w] += 1
                if w in members:
                    mask |= 1 << members[w]
                    rows[members[w]] |= bit
                    short -= nin[w] == need[w]
            short += nin[u] < need[u]
            members[u] = t
            rows.append(mask)
            found = None
            if not short and accept(members, rows):
                found = tuple(sorted(members))
            elif not full:
                fresh = sorted([w for w in adj[u] if nin[w] == 1 and w not in members])
                found = grow(ext[idx + 1 :] + fresh)
            del members[u]
            rows.pop()
            short -= nin[u] < need[u]
            for w in adj[u]:
                nin[w] -= 1
                if w in members:
                    rows[members[w]] ^= bit
                    short += nin[w] + 1 == need[w]
            if found is not None:
                return found
        return None

    return grow([v]), examined


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


def oracle_embeddings(rows: list[int], steps, allowed: list[int]):
    """Induced embeddings of a planned pattern into a host, depth first.

    ``rows[b]`` is the neighbour bitmask of host vertex bit b, and
    ``allowed[t]`` the host bits position t may take.  Each embedding is
    yielded as the list of host bits by position, in lexicographic order,
    with each position above the images of the positions its step lists as
    lower; the list is reused, so copy what you keep.  With the plans of
    ``ramsey._root_plans``, pinned as ``ramsey.find_induced_occurrences``
    pins them, every copy is yielded exactly once.
    """
    k = len(steps)
    if not k:  # the empty pattern embeds once
        yield []
        return
    image = [0] * k
    pool = [0] * k  # candidates of each position not tried yet
    pool[0] = allowed[0]
    used = 0
    t = 0
    while t >= 0:
        c = pool[t]
        if not c:  # position t is exhausted: back up one position
            t -= 1
            if t >= 0:
                used ^= 1 << image[t]
            continue
        low = c & -c
        pool[t] = c ^ low
        image[t] = low.bit_length() - 1
        if t + 1 == k:
            yield image
            continue
        used |= low
        t += 1
        adjacent, apart, lower = steps[t]
        c = allowed[t] & ~used
        for q in adjacent:
            c &= rows[image[q]]
        for q in apart:
            c &= ~rows[image[q]]
        for q in lower:
            c &= -2 << image[q]  # only vertices above that position's image
        pool[t] = c


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


def oracle_poly_exp_crossover_level(c_d) -> int | None:
    """Largest level with k^(2p) >= 2^(q(k-1)) for c_d = p/q; a level is
    skipped only when 2^(q(k-1)) exceeds the upper bound 2^(2p bitlen(k)),
    and every other level computes the power."""
    frac = Fraction(c_d)
    p, q = frac.numerator, frac.denominator
    best = None
    level = 1
    while True:
        k = sierpinski.vertex_count(level)
        rhs_bits = q * (k - 1)
        lhs_bits_cap = 2 * p * k.bit_length()
        if rhs_bits > lhs_bits_cap:
            if rhs_bits > 2 * lhs_bits_cap:
                return best
        elif k ** (2 * p) >= 1 << rhs_bits:
            best = level
        level += 1


def oracle_crossover_level_by_logs(c_d, levels=range(1, 40)) -> int | None:
    """Largest level with 2p ln k >= q(k-1) ln 2 for c_d = p/q, both sides in
    60-digit decimal logarithms; fails unless every level is clear of
    equality by far more than the rounding error."""
    frac = Fraction(c_d)
    p, q = frac.numerator, frac.denominator
    best = None
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        for level in levels:
            k = sierpinski.vertex_count(level)
            gap = 2 * p * Decimal(k).ln() - q * (k - 1) * ln2
            assert abs(gap) > Decimal(10) ** -30 * q * k, (c_d, level)
            if gap >= 0:
                best = level
    return best


def oracle_words(seed: int, domain: bytes):
    """The word stream as the ``rng`` docstring states it: word i is bytes
    8*(i%4) .. 8*(i%4)+8 of SHA256(domain || seed_be8 || block_be8), block
    i // 4, as a big-endian int.  Endless; one hash per four words."""
    prefix = domain + seed.to_bytes(8, "big")
    block = 0
    while True:
        digest = hashlib.sha256(prefix + block.to_bytes(8, "big")).digest()
        yield from (int.from_bytes(digest[t : t + 8], "big") for t in range(0, 32, 8))
        block += 1


def oracle_gnp_sample(n: int, p, seed: int) -> LabeledGraph:
    """One 53-bit uniform per pair in canonical order; edge iff uniform < p."""
    words = oracle_words(seed, b"gasketlab-gnp")
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (next(words) >> 11) * 2.0**-53 < p:
                edges.append((i, j))
    return LabeledGraph.from_edges(n, edges)


def oracle_canonical_flags(g: LabeledGraph) -> bytes:
    """The per-pair rule: one ``map`` per row over its neighbour set."""
    n, adj = g.n, g.adj
    return b"".join(bytes(map(adj[i].__contains__, range(i + 1, n + 1))) for i in range(1, n + 1))


def oracle_encode(g: LabeledGraph) -> EdgeBitString:
    out = []
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            out.append("1" if j in g.adj[i] else "0")
    return EdgeBitString(g.n, "".join(out))


def oracle_decode(text: str, n: int) -> LabeledGraph:
    edges = []
    t = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if text[t] == "1":
                edges.append((i, j))
            t += 1
    return LabeledGraph.from_edges(n, edges)


def oracle_g6_size(n: int) -> bytes:
    """N(n) as nauty's ``formats.txt`` states it: n + 63 for n <= 62, else
    126 and the 18-bit n for n <= 258047, else 126, 126 and the 36-bit n;
    each 6-bit group big-endian, plus 63."""
    if n <= 62:
        return bytes([n + 63])
    prefix, bits = (b"~", format(n, "018b")) if n <= 258047 else (b"~~", format(n, "036b"))
    assert len(bits) in (18, 36)
    return prefix + bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))


def oracle_read_g6_size(data: bytes) -> tuple[int, int] | None:
    """(n, offset of the body) as nauty's reader takes them, None if the
    field is cut short: a first byte below 126 is n + 63; after one 126, a
    second byte below 126 starts the three-group form, and another 126
    starts the six-group form."""
    if len(data) < 1:
        return None
    if data[0] < 126:
        return data[0] - 63, 1
    start, offset = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < offset:
        return None
    return int("".join(format(b - 63, "06b") for b in data[start:offset]), 2), offset


def oracle_to_graph6(g: LabeledGraph) -> str:
    """Column-major upper triangle, packed six bits per byte by hand."""
    out = bytearray(oracle_g6_size(g.n))
    acc = nbits = 0
    for j in range(2, g.n + 1):
        for i in range(1, j):
            acc = (acc << 1) | (1 if i in g.adj[j] else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def oracle_from_graph6(text: str) -> LabeledGraph:
    data = text.strip().encode("ascii")
    n, offset = oracle_read_g6_size(data)
    bits = []
    for b in data[offset:]:
        bits.extend(((b - 63) >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    t = 0
    for j in range(2, n + 1):
        for i in range(1, j):
            if bits[t]:
                edges.append((i, j))
            t += 1
    assert not any(bits[t:])
    return LabeledGraph.from_edges(n, edges)


def oracle_plant_occurrence(g: LabeledGraph, pattern: LabeledGraph, subset) -> LabeledGraph:
    sub = as_subset(subset, g.n, nonempty=True)
    inside = set(sub)
    edges = [(i, j) for i, j in g.edges() if not (i in inside and j in inside)]
    edges.extend((sub[a - 1], sub[b - 1]) for a, b in pattern.edges())
    return LabeledGraph.from_edges(g.n, edges)


def oracle_encode_two_part(bits, occurrence, side):
    """Per-pair walk: check each inside pair, copy every other bit."""
    pattern = side.pattern()
    n = side.n
    occ = as_subset(occurrence, n, nonempty=True)
    rank_of = {v: t + 1 for t, v in enumerate(occ)}
    residual = []
    t = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i in rank_of and j in rank_of:
                expected = "1" if pattern.has_edge(rank_of[i], rank_of[j]) else "0"
                if bits.bits[t] != expected:
                    raise DomainError(f"pair ({i},{j}) disagrees")
            else:
                residual.append(bits.bits[t])
            t += 1
    return TwoPartEncoding(
        subset_rank=rank_subset(occ, n),
        perm_rank=0 if side.ordered else None,
        residual="".join(residual),
    )


def oracle_decode_two_part(enc, side) -> EdgeBitString:
    n, k = side.n, side.k
    pattern = side.pattern()
    perm = unrank_permutation(enc.perm_rank, k) if side.ordered else tuple(range(1, k + 1))
    occ = unrank_subset(enc.subset_rank, n, k)
    rank_of = {v: t + 1 for t, v in enumerate(occ)}
    out = []
    r = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i in rank_of and j in rank_of:
                a, b = perm[rank_of[i] - 1], perm[rank_of[j] - 1]
                out.append("1" if pattern.has_edge(a, b) else "0")
            else:
                out.append(enc.residual[r])
                r += 1
    return EdgeBitString(n, "".join(out))


def oracle_to_bytes(enc, side) -> bytes:
    """Header, then every field shifted into one integer a bit at a time."""
    gid = side.generator_id.encode("utf-8")
    header = (
        side.n.to_bytes(4, "big")
        + side.k.to_bytes(4, "big")
        + len(gid).to_bytes(2, "big")
        + gid
        + bytes([1 if side.ordered else 0])
    )
    fields = [(enc.subset_rank, subset_index_bits(side.n, side.k))]
    if side.ordered:
        fields.append((enc.perm_rank, ordering_index_bits(side.k)))
    acc = nbits = 0
    for value, width in fields:
        acc = (acc << width) | value
        nbits += width
    for ch in enc.residual:
        acc = (acc << 1) | (ch == "1")
    nbits += len(enc.residual)
    pad = (-nbits) % 8
    return header + (acc << pad).to_bytes((nbits + pad) // 8, "big")


def oracle_run_to_horizon(g: LabeledGraph, game, config) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Adoption counts after every revision up to the horizon (200*n if None),
    with no stop at all-A, and the final adopters.  Same word-stream order as
    ``diffusion.run``; the best response is a Fraction comparison."""
    r_star = (game.b - game.c) / ((game.a - game.d) + (game.b - game.c))
    words = oracle_words(config.seed, b"gasketlab-diffusion")
    adopters = set(as_subset(config.init_adopters, g.n))
    counts = [len(adopters)]
    horizon = 200 * g.n if config.horizon is None else config.horizon
    for t in range(1, horizon + 1):
        if config.schedule == "round-robin":
            v = (t - 1) % g.n + 1
        else:
            v = next(words) % g.n + 1
        if config.epsilon > 0 and (next(words) >> 11) * 2.0**-53 < config.epsilon:
            plays_a = bool(next(words) & 1)
        else:
            plays_a = Fraction(len(g.adj[v] & adopters), len(g.adj[v])) >= r_star
        if plays_a:
            adopters.add(v)
        else:
            adopters.discard(v)
        counts.append(len(adopters))
    return tuple(counts), tuple(sorted(adopters))


@pytest.fixture
def k3() -> LabeledGraph:
    return LabeledGraph.complete(3)


@pytest.fixture
def path3() -> LabeledGraph:
    return LabeledGraph.from_edges(3, [(1, 2), (2, 3)])
