"""Induced-pattern search, exhaustive 2-coloring verification, and the
union/split construction for induced-Ramsey hosts.

Every search runs on one induced-embedding kernel (candidate filtering in
the style of Ullmann and VF2).  Pattern vertices are placed in a
connectivity order; the candidates for each position form a host bitmask:
the vertices of high enough degree, adjacent to the images of the placed
neighbours, non-adjacent to the images of the placed non-neighbours, and
not used yet.  Twins of the pattern (vertices with the same open or the
same closed neighbourhood) are interchangeable, so they are placed in
increasing image order and each image set is reached once per ordering of
the other vertices, not once per permutation of the twins.  Occurrence
search pins the smallest image vertex s, in increasing order, to one
vertex of each automorphism orbit of the pattern and restricts every
other position to vertices above s, so the copies come out grouped by
their smallest vertex and a ``limit`` stops the search early.

A host graph G is *verified* for pattern H when every 2-coloring of E(G)
contains a monochromatic induced copy of H.  For one copy, the colorings
in which it is monochromatic (its edge set all red, or all blue) form an
indicator bitset over coloring space.  Copies are grouped into components,
two copies being joined when they share an edge, so the coloring space is
exactly the product of the components' edge colorings and the colorings
of the edges in no copy, and whether a copy is monochromatic depends only
on its own component's coordinates.  Each component gets a cover of
2^|E_c| bits, the union of its copies' bitsets, and the host is verified
iff some component's cover is full: this decides all 2^|E| colorings
exactly.  On failure the witness is the smallest uncovered coloring
(edges red on the set bits of its index): each component's smallest
uncovered local index deposited on that component's edges, with the free
edges blue.

The split algorithm recovers, from a disjoint union, the part whose
components can host a monochromatic induced copy: a component admits such
a coloring iff it contains an induced copy at all (the one-color coloring
witnesses the forward direction), which is what the fast mode checks
directly and the proof-faithful mode confirms by building the covers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, ResourceLimitError
from .graphs import LabeledGraph, connected_components, disjoint_union, induced_subgraph
from . import sierpinski

__all__ = [
    "HostCertificate",
    "OracleResult",
    "UnionConstruction",
    "SplitResult",
    "BoundsReport",
    "find_induced_occurrences",
    "has_mono_induced",
    "is_host",
    "induced_ramsey_oracle",
    "construct_union",
    "split_union",
    "bounds_report",
    "poly_exp_crossover_level",
]

PATTERN_SIZE_MAX = 16
COLORING_EDGE_BUDGET = 28

TwoColoring = dict[tuple[int, int], str]


# --- the induced-embedding kernel ------------------------------------------


def _twin_keys(pattern: LabeledGraph) -> list:
    """Per vertex (index 0 unused), a key shared exactly by its twins:
    vertices with one open, or one closed, neighbourhood.  Any permutation
    of a twin class is an automorphism; an open neighbourhood never equals
    a closed one, and no vertex has twins of both kinds."""
    adj = pattern.adj
    seen = Counter([adj[v] for v in pattern.vertices()])
    seen.update(adj[v] | {v} for v in pattern.vertices())
    return [
        adj[v] if seen[adj[v]] > 1 else adj[v] | {v} if seen[adj[v] | {v}] > 1 else v
        for v in range(pattern.n + 1)
    ]


def _allowed(g: LabeledGraph, pattern: LabeledGraph, order: list[int]) -> list[int]:
    """Per position of ``order``, the bitmask of the vertices of g whose
    degree is at least that of the pattern vertex placed there."""
    degrees = [len(g.adj[w]) for w in g.vertices()]
    return [sum(1 << b for b, d in enumerate(degrees) if d >= len(pattern.adj[v])) for v in order]


def _plan(pattern: LabeledGraph, root: int | None = None):
    """(order, steps): the placement order of the pattern vertices and, per
    position, the earlier positions of its neighbours, of its
    non-neighbours, and of its latest twin (-1 if none).

    ``root`` (default: a vertex of highest degree) comes first, then always
    the vertex with the most placed neighbours, ties broken by higher degree
    and then smaller label.
    """
    adj, key = pattern.adj, _twin_keys(pattern)
    order = [] if root is None else [root]
    while len(order) < pattern.n:
        placed = set(order)
        order.append(
            min(
                set(pattern.vertices()) - placed,
                key=lambda u: (-len(adj[u] & placed), -len(adj[u]), u),
            )
        )
    steps = [
        (
            [q for q, u in enumerate(order[:t]) if u in adj[v]],
            [q for q, u in enumerate(order[:t]) if u not in adj[v]],
            max([q for q, u in enumerate(order[:t]) if key[u] == key[v]], default=-1),
        )
        for t, v in enumerate(order)
    ]
    return order, steps


def _embeddings(rows: list[int], steps, allowed: list[int]) -> Iterator[list[int]]:
    """Induced embeddings of a planned pattern into a host, depth first.

    ``rows[b]`` is the neighbour bitmask of host vertex bit b, and
    ``allowed[t]`` the host bits position t may take.  Each embedding is
    yielded as the list of host bits by position, in lexicographic order,
    with twins in increasing order; the list is reused, so copy what you
    keep.
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
        adjacent, apart, twin = steps[t]
        c = allowed[t] & ~used
        for q in adjacent:
            c &= rows[image[q]]
        for q in apart:
            c &= ~rows[image[q]]
        if twin >= 0:
            c &= -2 << image[twin]  # only vertices above the twin's image
        pool[t] = c


def _isomorphisms(a: LabeledGraph, b: LabeledGraph) -> Iterator[tuple[list[int], list[int]]]:
    """Isomorphisms a -> b with a's twins in increasing image order, as
    (order, image): image[t] is the 0-based image of vertex order[t], and
    the list is reused between yields.  Every isomorphism is one of these
    followed by a permutation inside a's twin classes."""
    if a.degree_multiset() == b.degree_multiset():
        order, steps = _plan(a)
        for image in _embeddings(b.row_masks()[1:], steps, _allowed(b, a, order)):
            yield order, image


def _root_plans(pattern: LabeledGraph) -> list:
    """The (order, steps) plans rooted at the smallest vertex of each
    automorphism orbit.

    Twins share an orbit, so only the first vertex v of a twin class can
    start one.  It joins the orbit of an earlier root r iff an automorphism
    maps r to one of v's twins: the twin-ordered automorphism that the
    kernel finds maps r to the smallest image of r's class, which is a twin
    of v whenever some automorphism maps r to v.
    """
    key, rows = _twin_keys(pattern), pattern.row_masks()[1:]
    plans: list = []
    for v in pattern.vertices():
        twins = sum(1 << (u - 1) for u in pattern.vertices() if key[u] == key[v])
        if twins & ((1 << (v - 1)) - 1):
            continue  # an earlier twin stands for v
        for order, steps in plans:
            allowed = [twins] + _allowed(pattern, pattern, order)[1:]
            if next(_embeddings(rows, steps, allowed), None) is not None:
                break  # v is in the orbit of this plan's root
        else:
            plans.append(_plan(pattern, v))
    return plans


def find_induced_occurrences(
    g: LabeledGraph, pattern: LabeledGraph, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All vertex subsets inducing a graph isomorphic to ``pattern``.

    Complete up to ``limit`` (at least 1; None for every copy), in
    lexicographic subset order.  The copies are found grouped by their
    smallest vertex s, in increasing order: s is pinned to the root of each
    automorphism orbit of the pattern, every other position is restricted
    to vertices above s, and image sets are deduplicated.  The search stops
    after the first group that reaches ``limit``.
    """
    k = pattern.n
    if k > PATTERN_SIZE_MAX:
        raise DomainError(
            f"pattern has {k} vertices; the search is limited to {PATTERN_SIZE_MAX}"
        )
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be >= 1 (or omitted for every copy), got {limit}")
    if k > g.n:
        return []
    if k == 0:
        return [()]
    rows = g.row_masks()[1:]
    plans = [(steps, _allowed(g, pattern, order)) for order, steps in _root_plans(pattern)]
    out: list[tuple[int, ...]] = []
    for s in range(g.n):
        above = -2 << s
        found = set()
        for steps, allowed in plans:
            if allowed[0] >> s & 1:
                pinned = [1 << s] + [mask & above for mask in allowed[1:]]
                found.update(tuple(sorted(image)) for image in _embeddings(rows, steps, pinned))
        out.extend(tuple(b + 1 for b in image) for image in sorted(found))
        if limit is not None and len(out) >= limit:
            return out[:limit]
    return out


def _copy_edges(g: LabeledGraph, subset: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of g inside the sorted ``subset``, in canonical order."""
    return [
        (a, b) for t, a in enumerate(subset) for b in subset[t + 1 :] if b in g.adj[a]
    ]


def _validate_coloring(g: LabeledGraph, coloring: TwoColoring) -> TwoColoring:
    normalized: TwoColoring = {}
    for (i, j), color in coloring.items():
        if color not in ("red", "blue"):
            raise DomainError(f"color must be 'red' or 'blue', got {color!r}")
        a, b = (i, j) if i < j else (j, i)
        if not g.has_edge(a, b):
            raise DomainError(f"colored pair ({a},{b}) is not an edge")
        normalized[(a, b)] = color
    missing = [e for e in g.edges() if e not in normalized]
    if missing:
        raise DomainError(
            f"coloring must be total on E(G); {len(missing)} edges uncolored, "
            f"first {missing[0]}"
        )
    return normalized


def has_mono_induced(
    g: LabeledGraph, coloring: TwoColoring, pattern: LabeledGraph
) -> bool:
    """True iff some induced copy of ``pattern`` has all its edges one color.

    Non-edges of the copy carry no color constraint.
    """
    col = _validate_coloring(g, coloring)
    for subset in find_induced_occurrences(g, pattern):
        colors = {col[e] for e in _copy_edges(g, subset)}
        if len(colors) <= 1:  # empty = vacuously monochromatic
            return True
    return False


@dataclass(frozen=True)
class HostCertificate:
    host: LabeledGraph
    pattern: LabeledGraph
    verified: bool
    colorings_checked: int
    witness: TwoColoring | None  # a coloring with no monochromatic copy


def _mono_covers(
    g: LabeledGraph, pattern: LabeledGraph, max_edges: int
) -> tuple[list[tuple[int, int]], list[tuple[list[int], int]]]:
    """(edges, parts): one part per component of copies, two copies being
    joined when they share an edge.

    A part is (positions, cover): the indices in ``edges`` of the
    component's edges, ascending, and the 2^len(positions)-bit set whose bit
    r is set iff the local coloring r (bit j red = edge positions[j] red)
    makes some copy of the component monochromatic.  For a copy with local
    edge mask ``mask`` the all-blue colorings are exactly the subsets of the
    complementary edge set - built by doubling a single bit over the free
    edges - and the all-red ones are that same set shifted by ``mask``.
    """
    edges = list(g.edges())
    m = len(edges)
    if m > max_edges:
        raise ResourceLimitError(
            f"host has {m} edges; exhaustive 2-coloring is limited to "
            f"{max_edges} edges (2^{m} colorings)"
        )
    edge_index = {e: t for t, e in enumerate(edges)}
    components: list[list] = []  # [edge mask, copy edge masks]
    for mask in {
        sum(1 << edge_index[e] for e in _copy_edges(g, subset))
        for subset in find_induced_occurrences(g, pattern)
    }:
        component = [mask, [mask]]
        for other in [c for c in components if c[0] & mask]:
            components.remove(other)
            component[0] |= other[0]
            component[1] += other[1]
        components.append(component)
    parts = []
    for joined, copies in components:
        positions = [t for t in range(m) if joined >> t & 1]
        full = (1 << (1 << len(positions))) - 1
        cover = 0
        for copy in copies:
            mask = sum(1 << j for j, t in enumerate(positions) if copy >> t & 1)
            blue = 1  # indicator of {r : r /\ mask = 0}, grown over free edges
            for b in range(len(positions)):
                if not mask >> b & 1:
                    blue |= blue << (1 << b)
            cover |= blue | blue << mask
            if cover == full:
                break
        parts.append((positions, cover))
    return edges, parts


def _coloring_from_index(r: int, edges: list[tuple[int, int]]) -> TwoColoring:
    return {e: ("red" if r >> t & 1 else "blue") for t, e in enumerate(edges)}


def is_host(
    g: LabeledGraph, pattern: LabeledGraph, max_edges: int = COLORING_EDGE_BUDGET
) -> HostCertificate:
    """Verify that every 2-coloring of E(g) has a monochromatic induced copy.

    The coloring space is decided exactly as the product of the copy
    components' covers (see the module docstring); ``colorings_checked`` is
    its size, 2^|E|.  The host is verified iff some component's cover is
    full.  A failure returns the smallest uncovered coloring index as
    witness: each component's smallest uncovered local index deposited on
    its own edges, the edges in no copy blue.
    """
    edges, parts = _mono_covers(g, pattern, max_edges)
    checked = 1 << len(edges)
    witness = 0
    for positions, cover in parts:
        if cover == (1 << (1 << len(positions))) - 1:
            return HostCertificate(g, pattern, True, checked, None)
        lowest = (cover ^ (cover + 1)).bit_length() - 1  # lowest unset bit
        for j, t in enumerate(positions):
            if lowest >> j & 1:
                witness |= 1 << t
    return HostCertificate(g, pattern, False, checked, _coloring_from_index(witness, edges))


@dataclass(frozen=True)
class OracleResult:
    """Smallest verified host within a *declared candidate list*.

    The true induced-Ramsey number minimizes over all graphs; this oracle
    only scopes the given candidates, and says so.
    """

    pattern: LabeledGraph
    found_index: int | None  # index into the candidate list
    host: LabeledGraph | None
    certificates: tuple[HostCertificate, ...]  # failures, then the success


def induced_ramsey_oracle(
    pattern: LabeledGraph,
    hosts: list[LabeledGraph],
    max_edges: int = COLORING_EDGE_BUDGET,
) -> OracleResult:
    certs: list[HostCertificate] = []
    for idx, host in enumerate(hosts):
        cert = is_host(host, pattern, max_edges=max_edges)
        certs.append(cert)
        if cert.verified:
            return OracleResult(pattern, idx, host, tuple(certs))
    return OracleResult(pattern, None, None, tuple(certs))


@dataclass(frozen=True)
class UnionConstruction:
    """Disjoint union with recorded roles: part 1 should be pattern-free,
    part 2 carries the pattern occurrences."""

    graph: LabeledGraph
    g1_vertices: tuple[int, ...]
    g2_vertices: tuple[int, ...]


def construct_union(g1: LabeledGraph, g2: LabeledGraph) -> UnionConstruction:
    union = disjoint_union(g1, g2)
    return UnionConstruction(
        graph=union,
        g1_vertices=tuple(range(1, g1.n + 1)),
        g2_vertices=tuple(range(g1.n + 1, g1.n + g2.n + 1)),
    )


@dataclass(frozen=True)
class SplitResult:
    g1_vertices: tuple[int, ...]
    g2_vertices: tuple[int, ...]
    mode: str  # "fast" | "proof-faithful"


def split_union(
    g: LabeledGraph,
    pattern: LabeledGraph,
    mode: str = "fast",
    max_edges: int = COLORING_EDGE_BUDGET,
) -> SplitResult:
    """Assign each component to part 2 iff it can host a monochromatic
    induced copy of ``pattern``.

    fast: the component contains an induced copy (the one-color coloring
    then witnesses a monochromatic one).  proof-faithful: scan all edge
    2-colorings of the component for one containing a monochromatic induced
    copy.  The two modes agree on every input where both run.
    """
    if mode not in ("fast", "proof-faithful"):
        raise DomainError(f"mode must be 'fast' or 'proof-faithful', got {mode!r}")
    g1: list[int] = []
    g2: list[int] = []
    for component in connected_components(g):
        comp_graph = induced_subgraph(g, component)
        if mode == "fast":
            hosts_copy = bool(find_induced_occurrences(comp_graph, pattern, limit=1))
        else:
            if comp_graph.edge_count > max_edges:
                raise ResourceLimitError(
                    f"component {component[:4]}... has {comp_graph.edge_count} edges, "
                    f"over the proof-faithful budget {max_edges}; use fast mode"
                )
            _, parts = _mono_covers(comp_graph, pattern, max_edges)
            hosts_copy = any(cover for _, cover in parts)
        (g2 if hosts_copy else g1).extend(component)
    return SplitResult(tuple(sorted(g1)), tuple(sorted(g2)), mode)


@dataclass(frozen=True)
class BoundsReport:
    """Host-size bound calculators for a bounded-degree pattern.

    ``chvatal`` is the classical Ramsey bound k 2^(c D log2 D) for max
    degree D; ``luczak_rodl`` is the polynomial induced-Ramsey bound k^c_d.
    Both constants are caller-supplied parameters, not asserted values.
    ``incompressible_lower`` = 2^((k-1)/2) is the exponential host-size
    bound from two-part description-length accounting, and
    ``incompressible_upper`` adds the polynomial bound on top of it.
    """

    pattern_size: int
    max_degree: int
    c: float
    c_d: float
    chvatal: float
    luczak_rodl: float
    incompressible_lower: float
    incompressible_upper: float


def bounds_report(pattern: LabeledGraph, c: float, c_d: float) -> BoundsReport:
    if c <= 0 or c_d <= 0:
        raise DomainError(f"constants must be positive, got c={c}, c_d={c_d}")
    k = pattern.n
    delta = max((pattern.degree(v) for v in pattern.vertices()), default=0)
    exponent = c * delta * math.log2(delta) if delta >= 2 else 0.0
    chvatal = k * 2.0**exponent
    if float(c_d).is_integer():
        luczak_rodl: float = k ** int(c_d)
    else:
        luczak_rodl = float(k) ** c_d
    lower = 2.0 ** ((k - 1) / 2)
    return BoundsReport(
        pattern_size=k,
        max_degree=delta,
        c=float(c),
        c_d=float(c_d),
        chvatal=chvatal,
        luczak_rodl=luczak_rodl,
        incompressible_lower=lower,
        incompressible_upper=lower + luczak_rodl,
    )


def poly_exp_crossover_level(c_d: int | float | Fraction) -> int | None:
    """Largest gasket level whose vertex count k satisfies k^c_d >= 2^((k-1)/2).

    Above the returned level the polynomial host bound k^c_d can never reach
    the exponential lower bound, so only finitely many levels are compatible.
    Comparisons are exact: with c_d = p/q the test is k^(2p) >= 2^(q(k-1)).
    Terminates because the exponential side eventually dominates; the scan
    stops once failure is certain by a doubling margin that only grows with
    the level.
    """
    frac = Fraction(c_d)
    if frac <= 0:
        raise DomainError(f"c_d must be positive, got {c_d}")
    p, q = frac.numerator, frac.denominator
    best: int | None = None
    level = 1
    while True:
        k = sierpinski.vertex_count(level)
        rhs_bits = q * (k - 1)
        lhs_bits_cap = 2 * p * k.bit_length()  # k^(2p) < 2^(2p bitlen(k))
        if rhs_bits > lhs_bits_cap:
            if rhs_bits > 2 * lhs_bits_cap:
                return best  # margin persists for all larger levels
        elif k ** (2 * p) >= 1 << rhs_bits:
            best = level
        level += 1
        if level > 1000:  # unreachable for positive c_d; guards the loop
            return best
