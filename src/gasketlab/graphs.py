"""Labeled simple graphs and their canonical edge-bit encoding.

A graph on n vertices is labeled 1..n.  Its canonical encoding is the
C(n,2)-bit string whose position ``pos(i, j)`` (1-based) carries the
presence bit of edge {i, j}, with pairs in lexicographic order
(1,2), (1,3), ..., (1,n), (2,3), ...  The position formula is normative:

    pos(i, j) = sum_{t=1}^{i-1} (n - t) + (j - i)      for 1 <= i < j <= n

so encodings are bit-exact across implementations.  Row i of the encoding
(the pairs (i, j), j > i) is the contiguous slice of n - i bits starting at
pos(i, i+1).  ``decode`` and ``gnp_sample`` hold the encoding as C(n,2)
0/1 flag bytes in pos order.  They lay them out as the upper triangle of an
n x n square of 0/1 bytes and build every neighbour set from that square's
row v OR its column v (a strided slice), so no Python code runs per edge.
The graph they return keeps those flag bytes (not a dataclass field, so
``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never see them).
Only this module knows the layout: ``encode`` and ``io.to_graph6`` read
``_canonical_flags``, ``io.from_graph6`` keeps the flags of the lower square
it reads through ``_from_lower_square``, planting keeps a host's flags with
``_with_host_flags``, and it and the two-part codec walk a subset's
``_inside_positions``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import comb, isqrt
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import (
    DomainError, Record, ResourceLimitError, check_instance, check_int, check_iterable, check_real,
    shown,
)
from .rng import WordStream, uniform_cut

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
    i, j, n = check_int(i, "i"), check_int(j, "j"), check_int(n, "n")
    if not (1 <= i < j <= n):
        raise DomainError(
            f"pos requires 1 <= i < j <= n, got i={shown(i)}, j={shown(j)}, n={shown(n)}"
        )
    return (i - 1) * n - i * (i - 1) // 2 + (j - i)


def pair_at(position: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pos`, in O(1) big-integer operations.

    The rows after row i hold C(n - i, 2) positions, so row i is n - t for
    the largest t with C(t, 2) <= C(n, 2) - position, which is
    (1 + isqrt(1 + 8 (C(n, 2) - position))) // 2.
    """
    n = check_int(n, "vertex count n")
    if n < 0:
        raise DomainError(f"pair_at needs n >= 0 vertices, got {shown(n)}")
    position = check_int(position, "position", 1, comb(n, 2))
    i = n - (1 + isqrt(1 + 8 * (comb(n, 2) - position))) // 2
    return i, position - (i - 1) * n + i * (i - 1) // 2 + i


class LabeledGraph(Record):
    """Immutable simple undirected graph on vertices 1..n.  Its constructors
    refuse n (for ``complete``, C(n, 2)) over ``GRAPH_SIZE_MAX`` at once."""

    n: int
    adj: tuple[frozenset[int], ...]  # index 0 unused
    _flags = None  # canonical 0/1 flag bytes, kept by _with_flags; not a field

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "LabeledGraph":
        n = check_int(n, "vertex count", 0)
        if n > GRAPH_SIZE_MAX:
            raise ResourceLimitError(
                f"graph of n={shown(n)} vertices exceeds the cap GRAPH_SIZE_MAX = {GRAPH_SIZE_MAX}"
            )
        nbrs: list[set[int]] = [set() for _ in range(n + 1)]
        for e in edges:
            try:
                a, b = e
                if a is True or a is False or b is True or b is False:
                    raise TypeError  # a bool is not a label
                i, j = index(a), index(b)
            except (TypeError, ValueError):
                raise DomainError(f"edge {shown(e)} must be a pair of integer labels") from None
            if i == j:
                raise DomainError(f"self-loop {{{shown(i)},{shown(j)}}} not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DomainError(
                    f"edge {{{shown(i)},{shown(j)}}} out of range for vertex labels 1..{n}"
                )
            nbrs[i].add(j)
            nbrs[j].add(i)
        return LabeledGraph(n, tuple(frozenset(s) for s in nbrs))

    @staticmethod
    def complete(n: int) -> "LabeledGraph":
        n = check_int(n, "vertex count", 0)
        if comb(n, 2) > GRAPH_SIZE_MAX:  # n past the cap has more pairs than that
            raise ResourceLimitError(
                f"complete graph on n={shown(n)} vertices has more than "
                f"GRAPH_SIZE_MAX = {GRAPH_SIZE_MAX} pairs"
            )
        return LabeledGraph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )

    @staticmethod
    def empty(n: int) -> "LabeledGraph":
        return LabeledGraph.from_edges(n, [])

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[check_int(v, "vertex", 1, self.n)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, i: int, j: int) -> bool:
        return check_int(j, "vertex", 1, self.n) in self.neighbors(i)

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


class EdgeBitString(Record):
    """Canonical C(n,2)-bit encoding of a labeled graph, as '0'/'1' text."""

    n: int
    bits: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "vertex count", 0))
        check_instance(self.bits, str, "bits")
        expected = comb(self.n, 2)
        if len(self.bits) != expected:
            raise DomainError(
                f"bit string for n={shown(self.n)} must have length C(n,2)={shown(expected)}, "
                f"got {len(self.bits)}"
            )
        _ascii_bits(self.bits)


def _from_square(n: int, square: bytes) -> LabeledGraph:
    """Graph from an n x n square of 0/1 bytes, row-major, that flags each
    edge {i, j} once: at (i, j) or at (j, i), never both, never on the
    diagonal.  Vertex v's neighbours are the OR of row v and column v, the
    column read by a strided slice; the flags are 0/1, so OR-ing them as
    big integers is a bytewise OR.  The sets share one int object per
    label, drawn from one tuple."""
    labels = tuple(range(1, n + 1))
    adj = [frozenset()]
    for r in range(n):
        flags = int.from_bytes(square[r * n : r * n + n], "big") | int.from_bytes(
            square[r::n], "big"
        )
        adj.append(frozenset(compress(labels, flags.to_bytes(n, "big"))))
    return LabeledGraph(n, tuple(adj))


def _from_lower_square(n: int, square: bytes) -> LabeledGraph:
    """Graph from an n x n square of 0/1 bytes that flags each edge {i, j},
    i < j, at (j, i) only, keeping its canonical flags: row i of the
    canonical order is column i of the square below the diagonal, one
    strided slice."""
    flags = b"".join([square[(i + 1) * n + i :: n] for i in range(n)])
    return _with_flags(_from_square(n, square), flags)


def _with_flags(g: LabeledGraph, flags: bytes) -> LabeledGraph:
    """``g``, now keeping ``flags``: its canonical C(n, 2) 0/1 flag bytes in
    pos order, which the caller built ``g.adj`` from or to agree with."""
    object.__setattr__(g, "_flags", flags)
    return g


def _canonical_flags(g: LabeledGraph) -> bytes:
    """The canonical C(n, 2) 0/1 flag bytes of ``g`` in pos order: the kept
    ones, or else, not kept, zeros with a 1 set at each edge's position, so
    the Python work is O(n + m) and no zero pair is visited."""
    if g._flags is not None:
        return g._flags
    n, adj = g.n, g.adj
    flags = bytearray(comb(n, 2))
    start = 0  # the 0-based position of (i, i + 1); (i, j) is at start - i - 1 + j
    for i in range(1, n + 1):
        for j in adj[i]:
            if j > i:
                flags[start - i - 1 + j] = 1
        start += n - i
    return bytes(flags)


def _inside_positions(sub: tuple[int, ...], n: int) -> Iterator[tuple[int, int, int]]:
    """(s, t, pos(sub[s], sub[t]) - 1) for s < t: the C(k, 2) 0-based
    canonical positions inside the sorted subset, in ascending order."""
    for s, a in enumerate(sub):
        base = (a - 1) * n - a * (a - 1) // 2 - a - 1  # pos(a, b) - 1 - b
        for t in range(s + 1, len(sub)):
            yield s, t, base + sub[t]


def _with_host_flags(g: LabeledGraph, host: LabeledGraph, sub: tuple[int, ...]) -> LabeledGraph:
    """``g``, equal to ``host`` outside the sorted subset, keeping ``host``'s
    flags with the positions inside read off ``g``; if ``host`` keeps none,
    ``g`` as it is, so a 10^5-vertex host never builds its C(n, 2) flags."""
    if host._flags is None:
        return g
    flags = bytearray(host._flags)
    for s, t, at in _inside_positions(sub, g.n):
        flags[at] = sub[t] in g.adj[sub[s]]
    return _with_flags(g, bytes(flags))


def _upper_square(n: int, flags: bytes) -> bytes:
    """The canonical order's C(n, 2) flags laid out as the upper triangle of
    an n x n square: row i is i zero bytes, then the flags of (i, i+1..n)."""
    rows = []
    start = 0
    for i in range(1, n + 1):
        rows += (bytes(i), flags[start : start + n - i])
        start += n - i
    return b"".join(rows)


# '0'/'1' text to 0/1 flag bytes, so that itertools.compress picks the 1s,
# and back
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _ascii_bits(text: str, what: str = "bit string") -> bytes:
    """``text`` as ASCII bytes; DomainError unless every character is 0 or 1."""
    raw = text.encode("ascii") if text.isascii() else b"?"
    if raw.translate(None, b"01"):
        raise DomainError(f"{what} may contain only '0' and '1'")
    return raw


def encode(g: LabeledGraph) -> EdgeBitString:
    """Canonical bit-string encoding; exact inverse of :func:`decode`: one
    ``translate`` of the graph's canonical flags into '0'/'1' text."""
    flags = _canonical_flags(check_graph(g, "graph"))
    return EdgeBitString(g.n, flags.translate(_TEXT).decode("ascii"))


def decode(bits: EdgeBitString | str, n: int) -> LabeledGraph:
    """Graph whose canonical encoding is ``bits``, built from the upper
    square of its flags, which it keeps."""
    text = bits.bits if isinstance(bits, EdgeBitString) else bits
    if not isinstance(text, str):
        raise DomainError(f"bits must be an EdgeBitString or a str, got {type(bits).__name__}")
    n = check_int(n, "vertex count n")
    if n < 0:
        raise DomainError(f"decode needs n >= 0 vertices, got {shown(n)}")
    expected = comb(n, 2)
    if len(text) != expected:
        raise DomainError(
            f"decode(n={shown(n)}) expects C(n,2)={shown(expected)} bits, got {len(text)}"
        )
    flags = _ascii_bits(text).translate(_FLAGS)
    return _with_flags(_from_square(n, _upper_square(n, flags)), flags)


def as_subset(members: Iterable[int], n: int, *, nonempty: bool = False) -> tuple[int, ...]:
    """Validate and normalize a vertex subset to a sorted tuple."""
    labels = []
    for v in check_iterable(members, "subset"):
        try:
            labels.append(check_int(v, "subset label"))
        except DomainError:
            raise DomainError(f"subset label {shown(v)} is not an integer") from None
    sub = tuple(sorted(labels))
    if nonempty and not sub:
        raise DomainError("subset must be nonempty")
    for a, b in zip(sub, sub[1:]):
        if a == b:
            raise DomainError(f"subset has duplicate vertex {shown(a)}")
    if sub and not (1 <= sub[0] and sub[-1] <= n):
        raise DomainError(f"subset {shown(sub, str)} has vertices outside 1..{n}")
    return sub


def check_graph(value, name: str) -> LabeledGraph:
    """``value`` unchanged if it is a :class:`LabeledGraph`."""
    return check_instance(value, LabeledGraph, name)


def _refuse_isolated(g: LabeledGraph, vertices: Iterable[int], consequence: str) -> None:
    """Raise DomainError naming the first of ``vertices`` with no neighbour."""
    for v in vertices:
        if not g.adj[v]:
            raise DomainError(f"vertex {v} is isolated; {consequence}")


def _needs(rows, r: Fraction) -> list[int]:
    """Per neighbour set in ``rows``, of size deg, the fewest of those
    neighbours that make a fraction of at least r, ceil(r deg): where a
    diffusion best response turns to A, and a close-knit singleton's slack
    turns nonnegative.

    Exact: a/deg >= p/q  <=>  a*q >= p*deg  <=>  a >= ceil(p*deg/q).
    """
    p, q = r.numerator, r.denominator
    return [-(-p * len(row) // q) for row in rows]


def induced_subgraph(g: LabeledGraph, subset: Iterable[int]) -> LabeledGraph:
    """Subgraph induced by ``subset``, relabeled 1..|subset| by rank."""
    sub = as_subset(subset, check_graph(g, "graph").n)
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
    sub = as_subset(subset, check_graph(g, "graph").n)
    if len(sub) != check_graph(pattern, "pattern").n:
        raise DomainError(
            f"subset size {len(sub)} must equal pattern size {pattern.n}"
        )
    return induced_subgraph(g, sub) == pattern


def connected_components(g: LabeledGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components, members sorted, components by smallest member."""
    seen = [False] * (check_graph(g, "graph").n + 1)
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
    check_graph(g2, "g2")
    shift = check_graph(g1, "g1").n
    edges = list(g1.edges())
    edges.extend((i + shift, j + shift) for i, j in g2.edges())
    return LabeledGraph.from_edges(g1.n + g2.n, edges)


def _below(data: bytes, cut: int) -> bytes:
    """One 0/1 flag per 8-byte big-endian word of ``data``: 1 iff word < cut.

    A 256-entry table on the words' first bytes decides every word whose
    first byte differs from cut's; a tie (about one word in 256) is decided
    exactly by comparing all eight bytes.
    """
    if cut >= 1 << 64:
        return b"\x01" * (len(data) // 8)
    key = cut.to_bytes(8, "big")
    first = key[0]
    flags = data[::8].translate(b"\x01" * first + b"\x02" + bytes(255 - first))
    out = bytearray(flags)
    t = flags.find(2)
    while t >= 0:
        out[t] = data[8 * t : 8 * t + 8] < key
        t = flags.find(2, t + 1)
    return bytes(out)


GRAPH_SIZE_MAX = 1 << 20  # the most vertices (complete: pairs) a constructor makes
GNP_VERTEX_MAX = 4096  # the largest n gnp_sample draws; see its docstring


def gnp_sample(n: int, p: float | Fraction, seed: int) -> LabeledGraph:
    """Erdos-Renyi G(n, p) sample, deterministic in (n, p, seed).

    One 53-bit uniform is consumed per potential edge, in canonical pos
    order; the edge is present iff the uniform is < p.  All C(n, 2) words
    are drawn as bytes at once and each is tested against the exact integer
    threshold ``rng.uniform_cut(p)``, for float and ``Fraction`` p alike.
    The sample keeps those C(n, 2) flags.  The words, the digests and the
    neighbour sets are all held at once, so n is checked against
    ``GNP_VERTEX_MAX`` before anything is hashed and a larger n raises
    :class:`ResourceLimitError`: G(4096, 1/2) takes about 3.6 s at 560 MiB
    peak RSS (CPython 3.11, x86-64), and G(10^5, 1/2) would hash 1.25e9
    blocks into about 80 GB of digests.
    """
    n = check_int(n, "vertex count", 0)
    if n > GNP_VERTEX_MAX:
        raise ResourceLimitError(
            f"G(n, p) sample of n={shown(n)} vertices exceeds the cap "
            f"GNP_VERTEX_MAX = {GNP_VERTEX_MAX}"
        )
    if not 0.0 <= check_real(p, "edge probability") <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {shown(p, str)}")
    cut = uniform_cut(p)
    stream = WordStream(seed, domain=b"gasketlab-gnp")
    flags = _below(stream.word_bytes(comb(n, 2)), cut)
    return _with_flags(_from_square(n, _upper_square(n, flags)), flags)
