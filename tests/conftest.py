"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's optimized code paths: ratio
checks use plain Fraction loops over itertools subsets, and isomorphism
checks go through networkx, so frozen expected values never depend on the
implementation they test.  The slow paths that the induced-embedding kernel
and the factored coloring cover replaced are kept here as oracles: the
scan over all C(n,k) subsets with a backtracking isomorphism test, the
backtracking automorphism count, the single 2^|E|-bit cover,
certification by computing each candidate group's exact minimum ratio,
the crossover scan that decides every undecided level by the exact power
(and one by 60-digit logarithms, for levels where that power is too slow),
and the per-bit and per-pair loops of the G(n,p) sampler, the canonical,
graph6 and two-part codecs, ``plant_occurrence`` and ``to_bytes``.  The
diffusion loop that ran every trial to its horizon, past all-A, is kept too,
and so is the branch-and-forbid connected-group enumerator that tracked a
forbidden set and scanned the frontier list.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from gasketlab import DomainError, LabeledGraph, ResourceLimitError, induced_subgraph, sierpinski
from gasketlab.closeknit import CloseKnitResult, _connected_groups_from, min_ratio
from gasketlab.graphs import EdgeBitString, as_subset
from gasketlab.io import _g6_read_size, _g6_size_bytes
from gasketlab.ranking import rank_subset, unrank_permutation, unrank_subset
from gasketlab.rng import WordStream
from gasketlab.twopart import TwoPartEncoding, ordering_index_bits, subset_index_bits


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


def oracle_is_rk_closeknit(g: LabeledGraph, r: Fraction, k: int) -> CloseKnitResult:
    """The per-vertex candidate loop, deciding each group by its exact
    ``min_ratio(...).min_ratio >= r``."""
    witness: dict[int, tuple[int, ...]] = {}
    examined = 0
    for v in g.vertices():
        if v in witness:
            continue
        for group in _connected_groups_from(g, v, k, 10**6):
            examined += 1
            if min_ratio(g, group).min_ratio >= r:
                break
        else:
            return CloseKnitResult(r, k, False, None, v, examined)
        for u in group:
            witness.setdefault(u, group)
    return CloseKnitResult(r, k, True, witness, None, examined)


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
        if level > 1000:
            return best


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


def oracle_gnp_sample(n: int, p, seed: int) -> LabeledGraph:
    """One 53-bit uniform per pair in canonical order; edge iff uniform < p."""
    stream = WordStream(seed, domain=b"gasketlab-gnp")
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (stream.next_word() >> 11) * 2.0**-53 < p:
                edges.append((i, j))
    return LabeledGraph.from_edges(n, edges)


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


def oracle_to_graph6(g: LabeledGraph) -> str:
    """Column-major upper triangle, packed six bits per byte by hand."""
    out = bytearray(_g6_size_bytes(g.n))
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
    n, offset = _g6_read_size(data)
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
    stream = WordStream(config.seed, domain=b"gasketlab-diffusion")
    adopters = set(as_subset(config.init_adopters, g.n))
    counts = [len(adopters)]
    horizon = 200 * g.n if config.horizon is None else config.horizon
    for t in range(1, horizon + 1):
        if config.schedule == "round-robin":
            v = (t - 1) % g.n + 1
        else:
            v = stream.index(g.n) + 1
        if config.epsilon > 0 and stream.uniform() < config.epsilon:
            plays_a = bool(stream.next_word() & 1)
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
