"""Induced-pattern search, exhaustive 2-coloring verification, and the
union/split construction for induced-Ramsey hosts.

Every search runs on the induced-embedding kernel of
:mod:`gasketlab.isomorphism`, which places a pattern's twins in increasing
image order.

Occurrence search pins the smallest image vertex s, in increasing order,
to one vertex r of each automorphism orbit of the pattern and restricts
every other position to vertices above s, so the copies come out grouped
by their smallest vertex and a ``limit`` stops the search early.  The
orbits and the breaking conditions of :mod:`gasketlab.isomorphism` keep
one embedding per copy.  The plans depend only on the pattern and are
kept for the last ``PLAN_CACHE_SIZE`` patterns.

A host graph G is *verified* for pattern H when every 2-coloring of E(G)
contains a monochromatic induced copy of H.  A coloring is an index r (bit
t set = edge t red); it avoids a copy with edge mask ``mask`` iff the copy
is bichromatic, 0 < r & mask < mask.  Copies sharing an edge are joined
into components, so the coloring space is the product of the components'
edge colorings and those of the edges in no copy, and each copy depends
only on its own component's coordinates.  Each component gets one
depth-first search for an avoiding coloring of its edges (hypergraph
2-coloring, Erdos's property B, searched as by Davis, Logemann and
Loveland): edges are colored from the highest position down, blue before
red, and a copy is checked once its lowest edge is colored, so the first
leaf is the component's smallest avoiding index.  The host is verified iff
some component has no leaf, which decides all 2^|E| colorings exactly.
Otherwise the witness is the host's smallest avoiding coloring: the
components' edge sets are disjoint and the index is a sum over them, so it
is the union of their first leaves, with the free edges blue.

The split algorithm recovers, from a disjoint union, the part whose
components can host a monochromatic induced copy.  A component admits
such a coloring iff it contains an induced copy at all: the one-color
coloring makes every copy monochromatic.  Both modes therefore ask for one
copy; the proof-faithful mode first holds each component to the
exhaustive-coloring edge budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, Record, ResourceLimitError, check_int, check_real, shown
from .graphs import (
    LabeledGraph,
    check_graph,
    connected_components,
    disjoint_union,
    induced_subgraph,
)
from .isomorphism import PATTERN_SIZE_MAX, _allowed, _embeddings, _masks, _plan, _symmetry
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

PLAN_CACHE_SIZE = 64  # patterns whose occurrence plans are kept
COLORING_EDGE_BUDGET = 28

TwoColoring = dict[tuple[int, int], str]


# --- occurrence plans ----------------------------------------------------


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _root_plans(pattern: LabeledGraph) -> tuple:
    """The occurrence plans of ``pattern``: per automorphism orbit, an
    (order, ahead) plan rooted at its smallest vertex that also puts each
    position's image above those its breaking conditions name."""
    return tuple(_plan(pattern, r, pairs) for r, _, pairs in _symmetry(pattern)[1])


def find_induced_occurrences(
    g: LabeledGraph, pattern: LabeledGraph, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All vertex subsets inducing a graph isomorphic to ``pattern``.

    Complete up to ``limit`` (at least 1; None for every copy), in
    lexicographic subset order.  The copies are found grouped by their
    smallest vertex s, in increasing order: s is pinned to the root of each
    automorphism orbit of the pattern, every other position is restricted
    to vertices above s, and the breaking conditions leave one embedding
    per copy.  The search stops after the first group that reaches
    ``limit``.
    """
    check_graph(g, "host graph")
    check_graph(pattern, "pattern")
    k = pattern.n
    if k > PATTERN_SIZE_MAX:
        raise DomainError(
            f"pattern has {k} vertices; the search is limited to {PATTERN_SIZE_MAX}"
        )
    if limit is not None:
        limit = check_int(limit, "limit", 1)
    if k > g.n:
        return []
    if k == 0:
        return [()]
    masks = _masks(g.row_masks()[1:])
    plans = [(ahead, _allowed(g, pattern, order)) for order, ahead in _root_plans(pattern)]
    out: list[tuple[int, ...]] = []
    group: list[tuple[int, ...]] = []

    def searches():
        # the kernel asks for the searches of s + 1 only once those of s
        # are done, so the group of s is complete here
        for s in range(g.n):
            above = -2 << s
            for ahead, allowed in plans:
                if allowed[0] >> s & 1:
                    yield ahead, [1 << s] + [mask & above for mask in allowed[1:]]
            out.extend(sorted(group))
            group.clear()
            if limit is not None and len(out) >= limit:
                return

    for image, last in _embeddings(masks, searches()):
        head = [b + 1 for b in image]
        while last:
            low = last & -last
            last ^= low
            group.append(tuple(sorted([*head, low.bit_length()])))
    return out[:limit]


def _copy_edges(g: LabeledGraph, subset: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of g inside the sorted ``subset``, in canonical order."""
    return [
        (a, b) for t, a in enumerate(subset) for b in subset[t + 1 :] if b in g.adj[a]
    ]


def _validate_coloring(g: LabeledGraph, coloring: TwoColoring) -> TwoColoring:
    normalized: TwoColoring = {}
    for key, color in coloring.items():
        if color not in ("red", "blue"):
            raise DomainError(f"color must be 'red' or 'blue', got {color!r}")
        try:
            i, j = (check_int(x, "vertex") for x in key)
        except (TypeError, ValueError):  # DomainError is a ValueError
            raise DomainError(
                f"coloring key {shown(key)} must be a pair of vertex labels"
            ) from None
        a, b = (i, j) if i < j else (j, i)
        if not g.has_edge(a, b):
            raise DomainError(f"colored pair ({shown(a)},{shown(b)}) is not an edge")
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
    check_graph(g, "host graph")
    check_graph(pattern, "pattern")
    col = _validate_coloring(g, coloring)
    for subset in find_induced_occurrences(g, pattern):
        colors = {col[e] for e in _copy_edges(g, subset)}
        if len(colors) <= 1:  # empty = vacuously monochromatic
            return True
    return False


class HostCertificate(Record):
    host: LabeledGraph
    pattern: LabeledGraph
    verified: bool
    colorings_checked: int
    witness: TwoColoring | None  # a coloring with no monochromatic copy


def _smallest_avoiding(joined: int, copies: list[int]) -> int | None:
    """The smallest coloring index r, red only on edges of ``joined``, that
    leaves every copy's edge mask bichromatic, 0 < r & mask < mask; None if
    every coloring makes some copy monochromatic.

    Depth first over the bits of ``joined`` from the highest down, blue (0)
    before red (1), so the leaves come in increasing order; a copy is
    checked at its lowest bit, the last of its edges to be colored.
    """
    checks: dict[int, list[int]] = {}
    for mask in copies:
        if not mask:
            return None  # an edgeless copy is monochromatic in every coloring
        checks.setdefault(mask & -mask, []).append(mask)
    bits = [1 << t for t in reversed(range(joined.bit_length())) if joined >> t & 1]

    def search(j: int, r: int) -> int | None:
        if j == len(bits):
            return r
        for s in (r, r | bits[j]):
            if all(0 < s & mask < mask for mask in checks.get(bits[j], ())):
                found = search(j + 1, s)
                if found is not None:
                    return found
        return None

    return search(0, 0)


def _coloring_from_index(r: int, edges: list[tuple[int, int]]) -> TwoColoring:
    return {e: ("red" if r >> t & 1 else "blue") for t, e in enumerate(edges)}


def is_host(
    g: LabeledGraph, pattern: LabeledGraph, max_edges: int = COLORING_EDGE_BUDGET
) -> HostCertificate:
    """Verify that every 2-coloring of E(g) has a monochromatic induced copy.

    The coloring space is decided exactly, one component of edge-sharing
    copies at a time (see the module docstring); ``colorings_checked`` is
    its size, 2^|E|.  The host is verified iff some component has no
    coloring that leaves all its copies bichromatic.  A failure returns the
    smallest such coloring index as witness: the union of the components'
    smallest avoiding colorings, the edges in no copy blue.
    """
    check_graph(g, "host graph")
    check_graph(pattern, "pattern")
    max_edges = check_int(max_edges, "max_edges")
    edges = list(g.edges())
    m = len(edges)
    if m > max_edges:
        raise ResourceLimitError(
            f"host has {m} edges; exhaustive 2-coloring is limited to "
            f"{shown(max_edges)} edges (2^{m} colorings)"
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
    witness = 0
    for joined, copies in components:
        lowest = _smallest_avoiding(joined, copies)
        if lowest is None:
            return HostCertificate(g, pattern, True, 1 << m, None)
        witness |= lowest
    return HostCertificate(g, pattern, False, 1 << m, _coloring_from_index(witness, edges))


class OracleResult(Record):
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
    check_graph(pattern, "pattern")  # each host is checked by is_host
    certs: list[HostCertificate] = []
    for idx, host in enumerate(hosts):
        cert = is_host(host, pattern, max_edges=max_edges)
        certs.append(cert)
        if cert.verified:
            return OracleResult(pattern, idx, host, tuple(certs))
    return OracleResult(pattern, None, None, tuple(certs))


class UnionConstruction(Record):
    """Disjoint union with recorded roles: part 1 should be pattern-free,
    part 2 carries the pattern occurrences."""

    graph: LabeledGraph
    g1_vertices: tuple[int, ...]
    g2_vertices: tuple[int, ...]


def construct_union(g1: LabeledGraph, g2: LabeledGraph) -> UnionConstruction:
    check_graph(g1, "g1")
    check_graph(g2, "g2")
    union = disjoint_union(g1, g2)
    return UnionConstruction(
        graph=union,
        g1_vertices=tuple(range(1, g1.n + 1)),
        g2_vertices=tuple(range(g1.n + 1, g1.n + g2.n + 1)),
    )


class SplitResult(Record):
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
    induced copy of ``pattern``, that is, iff it contains an induced copy
    (the one-color coloring makes every copy monochromatic).

    Both modes make the same search for one copy; proof-faithful first
    raises :class:`ResourceLimitError` for a component over ``max_edges``
    edges, the budget of an exhaustive 2-coloring check.
    """
    check_graph(g, "host graph")
    check_graph(pattern, "pattern")
    if mode not in ("fast", "proof-faithful"):
        raise DomainError(f"mode must be 'fast' or 'proof-faithful', got {mode!r}")
    max_edges = check_int(max_edges, "max_edges")
    g1: list[int] = []
    g2: list[int] = []
    for component in connected_components(g):
        comp_graph = induced_subgraph(g, component)
        if mode == "proof-faithful" and comp_graph.edge_count > max_edges:
            raise ResourceLimitError(
                f"component {component[:4]}... has {comp_graph.edge_count} edges, "
                f"over the proof-faithful budget {shown(max_edges)}; use fast mode"
            )
        hosts_copy = bool(find_induced_occurrences(comp_graph, pattern, limit=1))
        (g2 if hosts_copy else g1).extend(component)
    return SplitResult(tuple(sorted(g1)), tuple(sorted(g2)), mode)


class BoundsReport(Record):
    """Host-size bound calculators for a bounded-degree pattern.

    ``chvatal`` is the classical Ramsey bound k 2^(c D log2 D) for max
    degree D; ``luczak_rodl`` is the polynomial induced-Ramsey bound k^c_d.
    Both constants are caller-supplied parameters, not asserted values.
    ``incompressible_lower`` = 2^((k-1)/2) is the exponential host-size
    bound from two-part description-length accounting, and
    ``incompressible_upper`` adds the polynomial bound on top of it.  Every
    field is a finite float: a pattern size k (every k >= 2049) or constant
    that would pass the largest float raises DomainError naming it.
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
    check_graph(pattern, "pattern")
    if not (0 < check_real(c, "c") < math.inf and 0 < check_real(c_d, "c_d") < math.inf):
        raise DomainError(
            f"constants must be positive and finite, got c={shown(c, str)}, c_d={shown(c_d, str)}"
        )
    k = pattern.n
    delta = max(map(len, pattern.adj))
    try:
        exponent = c * delta * math.log2(delta) if delta >= 2 else 0.0
        chvatal = k * 2.0**exponent
    except OverflowError as exc:
        raise DomainError(f"c={shown(c, str)} makes 2^(c*D*log2 D) too large for a float") from exc
    try:
        lower = 2.0 ** ((k - 1) / 2)
    except OverflowError as exc:
        raise DomainError(f"pattern size k={k} makes 2^((k-1)/2) too large for a float") from exc
    # k^c_d >= 2^(c_d (bitlen(k) - 1)) cannot be a float once that reaches 2^1024
    if c_d * max(k.bit_length() - 1, 0) >= 1024:
        shown_c_d = shown(c_d, str)
        raise DomainError(f"c_d={shown_c_d} makes k^c_d = {k}^{shown_c_d} too large for a float")
    try:
        if float(c_d).is_integer():
            luczak_rodl: float = k ** int(c_d)
        else:
            luczak_rodl = float(k) ** c_d
        upper = lower + luczak_rodl
    except OverflowError as exc:
        raise DomainError(f"c_d={c_d} makes k^c_d = {k}^{c_d} too large for a float") from exc
    if math.isinf(upper):
        raise DomainError(f"pattern size k={k} and c_d={c_d} make 2^((k-1)/2) + k^c_d too large")
    return BoundsReport(
        pattern_size=k,
        max_degree=delta,
        c=float(c),
        c_d=float(c_d),
        chvatal=chvatal,
        luczak_rodl=luczak_rodl,
        incompressible_lower=lower,
        incompressible_upper=upper,
    )


def _power_at_least(k: int, e: int, bits: int) -> bool:
    """Whether k^e >= 2^bits, for k >= 1.

    Binary powering on mantissas of ``e.bit_length() + 64`` bits brackets
    k^e between lo 2^shift (rounded down) and hi 2^shift (rounded up); and
    m 2^shift >= 2^bits iff bitlen(m) + shift > bits.  The exact power is
    formed only when the bracket straddles 2^bits.
    """
    keep = e.bit_length() + 64
    lo = hi = 1
    shift = 0
    for bit in bin(e)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi = lo * k, hi * k
        drop = max(hi.bit_length() - keep, 0)
        lo, hi, shift = lo >> drop, -(-hi >> drop), shift + drop
    if lo.bit_length() + shift > bits:
        return True
    if hi.bit_length() + shift <= bits:
        return False
    return (k**e).bit_length() > bits


def poly_exp_crossover_level(c_d: int | float | Fraction) -> int | None:
    """Largest gasket level whose vertex count k satisfies k^c_d >= 2^((k-1)/2).

    Above the returned level the polynomial host bound k^c_d can never reach
    the exponential lower bound, so only finitely many levels are compatible.
    Comparisons are exact: with c_d = p/q the test is k^(2p) >= 2^(q(k-1)).
    Bit lengths decide most levels; a level whose q(k-1) falls between the
    two bit-length bounds is decided by a bracket on the top bits of k^(2p)
    (``_power_at_least``).  Terminates because the exponential side
    eventually dominates; the scan stops once failure is certain by a
    doubling margin that only grows with the level, and a c_d whose scan
    would pass ``sierpinski.COUNT_LEVEL_MAX`` raises ResourceLimitError.
    """
    c_d = check_real(c_d, "c_d")
    try:
        frac = Fraction(c_d)
    except (ValueError, OverflowError):
        raise DomainError(f"c_d must be a finite number, got {c_d}") from None
    if frac <= 0:
        raise DomainError(f"c_d must be positive, got {shown(c_d, str)}")
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
        elif rhs_bits <= lhs_bits_cap - 2 * p or _power_at_least(k, 2 * p, rhs_bits):
            best = level  # k^(2p) >= 2^(2p (bitlen(k) - 1)) decides without the power
        level += 1
