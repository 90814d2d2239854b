"""The induced-embedding kernel, and isomorphism and automorphism search for
small graphs on it.

The kernel filters candidates in the style of Ullmann and VF2, with the
forward checking of Haralick and Elliott (1980).  Pattern vertices are
placed in a connectivity order, and each position keeps a host bitmask of
candidates: the vertices of high enough degree, narrowed as each earlier
position is placed to the neighbours or the other non-neighbours of its
image, and to the vertices above that image where the plan says so.  The
search backs up as soon as some later position has no candidate left.  The
last position's mask is handed out whole, so a caller expands it, counts
it or takes its lowest bit instead of the kernel walking it bit by bit.
Twins of the pattern (vertices with the same open or the same closed
neighbourhood) are interchangeable, so each is placed above its latest
twin's image and each image set is reached once per ordering of the other
vertices, not once per permutation of the twins.
:mod:`gasketlab.ramsey` builds its occurrence plans on this kernel.

An isomorphism is an induced embedding between graphs with equal degree
multisets.  The search is complete (no heuristics that can miss).  Every
permutation inside a twin class is an automorphism, so the automorphism
count is the number of embeddings found times the product of the twin
classes' factorials.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from typing import Iterator

from .errors import DomainError
from .graphs import LabeledGraph, check_graph

__all__ = ["is_isomorphic", "find_isomorphism", "automorphism_count"]

AUT_MAX_VERTICES = 10


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
    masks = {
        d: sum(1 << b for b, e in enumerate(degrees) if e >= d)
        for d in {len(pattern.adj[v]) for v in order}
    }
    return [masks[len(pattern.adj[v])] for v in order]


def _plan(pattern: LabeledGraph, root: int | None = None, pairs=()) -> tuple:
    """(order, ahead): the placement order of the pattern vertices and, per
    position t, each later position u with the ``kind`` of mask that
    placing t narrows it by (see :func:`_masks`): bit 0 set if the two are
    not adjacent, bit 1 set if u's image must lie above t's, as it must
    when t holds u's latest earlier twin or (t, u) is in ``pairs``.

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
    pairs = {*pairs}
    for u, v in enumerate(order):  # the latest earlier twin, if any
        pairs.update([(t, u) for t, w in enumerate(order[:u]) if key[w] == key[v]][-1:])
    ahead = tuple(
        tuple(
            (u, (order[u] not in adj[v]) + 2 * ((t, u) in pairs))
            for u in range(t + 1, len(order))
        )
        for t, v in enumerate(order)
    )
    return tuple(order), ahead


def _masks(rows: list[int]) -> list[tuple[int, int, int, int]]:
    """Per host bit b with neighbour bitmask ``rows[b]``, the masks that
    placing b narrows a later position by, indexed by the plan's kind:
    b's neighbours, its non-neighbours other than b, and each of those
    above b."""
    out = []
    for b, row in enumerate(rows):
        apart, above = ~(row | 1 << b), -2 << b
        out.append((row, apart, row & above, apart & above))
    return out


def _embeddings(masks, searches) -> Iterator[tuple[list[int], int]]:
    """Induced embeddings of planned patterns of one size k into a host,
    depth first with forward checking.

    ``masks`` is :func:`_masks` of the host; each search is a plan's
    ``ahead`` and, per position, the host bits ``allowed`` there.  Placing
    bit b at position t narrows every later position's candidates by
    ``masks[b]`` as ``ahead[t]`` says, and the search backs up as soon as
    one is empty.  Each yield is (image, last): the host bits of the first
    k - 1 positions (a reused list) and the last position's candidate mask,
    whose bits in ascending order complete the embeddings in lexicographic
    order; the empty pattern gives ([], 1).  One set of per-depth arrays
    serves every search.  With the plans of ``ramsey._root_plans``, pinned
    as ``ramsey.find_induced_occurrences`` pins them, every copy is found
    exactly once.
    """
    image = pool = depth = None
    for ahead, allowed in searches:
        k = len(allowed)
        if image is None:
            image = [0] * (k - 1)
            pool = [0] * (k - 1)  # candidates of each position not tried yet
            depth = [[0] * k for _ in range(k)]  # depth[t][u]: u's candidates once t is next
        if k < 2:  # nothing to place before the last position
            if not k or allowed[0]:
                yield image, allowed[0] if k else 1
            continue
        depth[0][:] = allowed
        pool[0] = allowed[0]
        t = 0
        while t >= 0:
            c = pool[t]
            if not c:  # position t is exhausted: back up one position
                t -= 1
                continue
            low = c & -c
            pool[t] = c ^ low
            b = image[t] = low.bit_length() - 1
            prev, cur, sel = depth[t], depth[t + 1], masks[b]
            for u, kind in ahead[t]:
                c = prev[u] & sel[kind]
                if not c:  # a later position has no candidate left
                    break
                cur[u] = c
            else:
                if t + 2 < k:
                    t += 1
                    pool[t] = cur[t]
                else:
                    yield image, cur[t + 1]


def _first(image: list[int], last: int) -> list[int]:
    """The first embedding of a batch the kernel yields: ``image`` and the
    lowest bit of ``last``."""
    return [*image, (last & -last).bit_length() - 1]


def _isomorphisms(a: LabeledGraph, b: LabeledGraph) -> Iterator[tuple[tuple, list[int], int]]:
    """Isomorphisms a -> b with a's twins in increasing image order, as
    (order, image, last): image[t] is the 0-based image of vertex order[t]
    for all but the last (the list is reused between yields), and each bit
    of ``last`` an image of the last vertex.  Every isomorphism is one of
    these followed by a permutation inside a's twin classes."""
    if a.degree_multiset() == b.degree_multiset():
        order, ahead = _plan(a)
        masks = _masks(b.row_masks()[1:])
        for image, last in _embeddings(masks, [(ahead, _allowed(b, a, order))]):
            yield order, image, last


def find_isomorphism(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...] | None:
    """A bijection p with p[i-1] = image of vertex i, or None.

    Edge-preserving both ways: {i,j} in a  iff  {p(i),p(j)} in b.
    """
    check_graph(a, "graph a")
    check_graph(b, "graph b")
    for order, image, last in _isomorphisms(a, b):
        image = _first(image, last)
        return tuple(image[order.index(v)] + 1 for v in a.vertices())
    return None


def is_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    return find_isomorphism(a, b) is not None


def automorphism_count(g: LabeledGraph) -> int:
    """Order of the automorphism group, by complete search (n <= AUT_MAX_VERTICES)."""
    if check_graph(g, "graph").n > AUT_MAX_VERTICES:
        raise DomainError(
            f"automorphism search is limited to {AUT_MAX_VERTICES} vertices, got {g.n}"
        )
    twin_orders = prod(factorial(size) for size in Counter(_twin_keys(g)[1:]).values())
    return sum(last.bit_count() for *_, last in _isomorphisms(g, g)) * twin_orders
