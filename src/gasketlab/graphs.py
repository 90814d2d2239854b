"""Labeled simple graphs and their canonical edge-bit encoding.

A graph on n vertices is labeled 1..n.  Its canonical encoding is the
C(n,2)-bit string whose position ``pos(i, j)`` (1-based) carries the
presence bit of edge {i, j}, with pairs in lexicographic order
(1,2), (1,3), ..., (1,n), (2,3), ...  The position formula is normative:

    pos(i, j) = sum_{t=1}^{i-1} (n - t) + (j - i)      for 1 <= i < j <= n

so encodings are bit-exact across implementations.  Row i of the encoding
(the pairs (i, j), j > i) is the contiguous slice of n - i bits starting at
pos(i, i+1); ``encode``, ``decode`` and ``gnp_sample`` work one row at a
time, and build graphs straight from neighbour lists valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import ceil, comb
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .rng import WordStream, check_seed

__all__ = [
    "LabeledGraph",
    "EdgeBitString",
    "pos",
    "pair_at",
    "as_subset",
    "encode",
    "decode",
    "induced_subgraph",
    "is_ordered_occurrence",
    "connected_components",
    "disjoint_union",
    "gnp_sample",
]


def pos(i: int, j: int, n: int) -> int:
    """1-based bit position of pair (i, j), i < j, in the canonical order."""
    if not (1 <= i < j <= n):
        raise DomainError(f"pos requires 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i)


def pair_at(position: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pos`."""
    total = comb(n, 2)
    if not (1 <= position <= total):
        raise DomainError(
            f"position must be in [1, C(n,2)] = [1, {total}], got {position}"
        )
    i = 1
    remaining = position
    while remaining > n - i:
        remaining -= n - i
        i += 1
    return i, i + remaining


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable simple undirected graph on vertices 1..n."""

    n: int
    adj: tuple[frozenset[int], ...]  # index 0 unused

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "LabeledGraph":
        if n < 0:
            raise DomainError(f"vertex count must be >= 0, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n + 1)]
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise DomainError(f"self-loop {{{i},{j}}} not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DomainError(
                    f"edge {{{i},{j}}} out of range for vertex labels 1..{n}"
                )
            nbrs[i].add(j)
            nbrs[j].add(i)
        return LabeledGraph(n, tuple(frozenset(s) for s in nbrs))

    @staticmethod
    def complete(n: int) -> "LabeledGraph":
        return LabeledGraph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )

    @staticmethod
    def empty(n: int) -> "LabeledGraph":
        return LabeledGraph.from_edges(n, [])

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        if not (1 <= v <= self.n):
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError(f"pair ({i},{j}) out of range for 1..{self.n}")
        return j in self.adj[i]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j), i < j, in canonical pos order."""
        for i in range(1, self.n + 1):
            for j in sorted(self.adj[i]):
                if j > i:
                    yield (i, j)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree_multiset(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for v in self.vertices():
            d = len(self.adj[v])
            counts[d] = counts.get(d, 0) + 1
        return counts

    def row_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit v-1 for vertex v); index 0 unused.

        Only sensible for small n; used by the exhaustive search kernels.
        """
        masks = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            m = 0
            for u in self.adj[v]:
                m |= 1 << (u - 1)
            masks[v] = m
        return masks


@dataclass(frozen=True)
class EdgeBitString:
    """Canonical C(n,2)-bit encoding of a labeled graph, as '0'/'1' text."""

    n: int
    bits: str

    def __post_init__(self) -> None:
        expected = comb(self.n, 2)
        if len(self.bits) != expected:
            raise DomainError(
                f"bit string for n={self.n} must have length C(n,2)={expected}, "
                f"got {len(self.bits)}"
            )
        _ascii_bits(self.bits)


def _from_neighbours(n: int, nbrs: Sequence[Iterable[int]]) -> LabeledGraph:
    """Graph from per-vertex neighbour collections (index 0 empty) that are
    symmetric, loop-free and within 1..n by construction; nothing is checked."""
    return LabeledGraph(n, tuple(map(frozenset, nbrs)))


def _add_side(nbrs: list[list[int]], v: int, side: Iterable[int]) -> None:
    """Join ``v`` to every vertex of ``side`` in the neighbour lists, both
    ways; ``side`` holds vertices all above, or all below, v."""
    side = list(side)
    nbrs[v] += side
    for u in side:
        nbrs[u].append(v)


# '0'/'1' text to 0/1 flag bytes, so that itertools.compress picks the 1s
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _ascii_bits(text: str, what: str = "bit string") -> bytes:
    """``text`` as ASCII bytes; DomainError unless every character is 0 or 1."""
    raw = text.encode("ascii") if text.isascii() else b"?"
    if raw.translate(None, b"01"):
        raise DomainError(f"{what} may contain only '0' and '1'")
    return raw


def encode(g: LabeledGraph) -> EdgeBitString:
    """Canonical bit-string encoding; exact inverse of :func:`decode`.

    Row i is a bytearray of n - i '0's with a '1' set per higher neighbour.
    """
    rows = []
    for i in range(1, g.n + 1):
        row = bytearray(b"0") * (g.n - i)
        for j in g.adj[i]:
            if j > i:
                row[j - i - 1] = 49  # ord("1")
        rows.append(row)
    return EdgeBitString(g.n, b"".join(rows).decode("ascii"))


def decode(bits: EdgeBitString | str, n: int) -> LabeledGraph:
    """Graph whose canonical encoding is ``bits``; row i (the slice of pairs
    (i, j), j > i) yields its higher neighbours in one ``compress``."""
    text = bits.bits if isinstance(bits, EdgeBitString) else bits
    if n < 0:
        raise DomainError(f"decode needs n >= 0 vertices, got {n}")
    expected = comb(n, 2)
    if len(text) != expected:
        raise DomainError(
            f"decode(n={n}) expects C(n,2)={expected} bits, got {len(text)}"
        )
    flags = _ascii_bits(text).translate(_FLAGS)
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    start = 0
    for i in range(1, n):
        _add_side(nbrs, i, compress(range(i + 1, n + 1), flags[start : start + n - i]))
        start += n - i
    return _from_neighbours(n, nbrs)


def as_subset(members: Iterable[int], n: int, *, nonempty: bool = False) -> tuple[int, ...]:
    """Validate and normalize a vertex subset to a sorted tuple."""
    sub = tuple(sorted(int(v) for v in members))
    if nonempty and not sub:
        raise DomainError("subset must be nonempty")
    for a, b in zip(sub, sub[1:]):
        if a == b:
            raise DomainError(f"subset has duplicate vertex {a}")
    if sub and not (1 <= sub[0] and sub[-1] <= n):
        raise DomainError(f"subset {sub} has vertices outside 1..{n}")
    return sub


def induced_subgraph(g: LabeledGraph, subset: Iterable[int]) -> LabeledGraph:
    """Subgraph induced by ``subset``, relabeled 1..|subset| by rank."""
    sub = as_subset(subset, g.n)
    rank = {v: t + 1 for t, v in enumerate(sub)}
    edges = []
    for a_idx, v in enumerate(sub):
        row = g.adj[v]
        for u in sub[a_idx + 1 :]:
            if u in row:
                edges.append((rank[v], rank[u]))
    return LabeledGraph.from_edges(len(sub), edges)


def is_ordered_occurrence(
    g: LabeledGraph, subset: Iterable[int], pattern: LabeledGraph
) -> bool:
    """True iff ``subset`` induces exactly ``pattern`` after rank relabeling."""
    sub = as_subset(subset, g.n)
    if len(sub) != pattern.n:
        raise DomainError(
            f"subset size {len(sub)} must equal pattern size {pattern.n}"
        )
    return induced_subgraph(g, sub) == pattern


def connected_components(g: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components, members sorted, components by smallest member."""
    seen = [False] * (g.n + 1)
    components = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        components.append(tuple(sorted(comp)))
    return tuple(components)


def disjoint_union(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """g1 on labels 1..n1, g2 shifted to n1+1..n1+n2, no additional edges."""
    shift = g1.n
    edges = list(g1.edges())
    edges.extend((i + shift, j + shift) for i, j in g2.edges())
    return LabeledGraph.from_edges(g1.n + g2.n, edges)


def gnp_sample(n: int, p: float | Fraction, seed: int) -> LabeledGraph:
    """Erdos-Renyi G(n, p) sample, deterministic in (n, p, seed).

    One 53-bit uniform is consumed per potential edge, in canonical pos
    order; the edge is present iff the uniform is < p.  Row i draws its
    n - i words at once and tests each against the exact integer threshold
    ``uniform < p  <=>  word < ceil(p * 2^53) << 11``, for float and
    ``Fraction`` p alike.
    """
    if n < 0:
        raise DomainError(f"vertex count must be >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    check_seed(seed)
    below = (ceil(Fraction(p) * (1 << 53)) << 11).__gt__
    stream = WordStream(seed, domain=b"gasketlab-gnp")
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n):
        _add_side(nbrs, i, compress(range(i + 1, n + 1), map(below, stream.words(n - i))))
    return _from_neighbours(n, nbrs)
