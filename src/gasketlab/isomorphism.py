"""The induced-embedding kernel, and isomorphism and automorphism search for
small graphs on it.

The kernel filters candidates in the style of Ullmann and VF2.  Pattern
vertices are placed in a connectivity order; the candidates for each
position form a host bitmask: the vertices of high enough degree, adjacent
to the images of the placed neighbours, non-adjacent to the images of the
placed non-neighbours, not used yet, and above the images of the earlier
positions its plan names.  Twins of the pattern (vertices with the same
open or the same closed neighbourhood) are interchangeable, so each is
placed above its latest twin's image and each image set is reached once per
ordering of the other vertices, not once per permutation of the twins.
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


def _plan(pattern: LabeledGraph, root: int | None = None):
    """(order, steps): the placement order of the pattern vertices and, per
    position, the earlier positions of its neighbours, of its
    non-neighbours, and of those whose images must be lower: its latest
    twin's, if any.

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
            [q for q, u in enumerate(order[:t]) if key[u] == key[v]][-1:],
        )
        for t, v in enumerate(order)
    ]
    return order, steps


def _embeddings(rows: list[int], steps, allowed: list[int]) -> Iterator[list[int]]:
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


def _isomorphisms(a: LabeledGraph, b: LabeledGraph) -> Iterator[tuple[list[int], list[int]]]:
    """Isomorphisms a -> b with a's twins in increasing image order, as
    (order, image): image[t] is the 0-based image of vertex order[t], and
    the list is reused between yields.  Every isomorphism is one of these
    followed by a permutation inside a's twin classes."""
    if a.degree_multiset() == b.degree_multiset():
        order, steps = _plan(a)
        for image in _embeddings(b.row_masks()[1:], steps, _allowed(b, a, order)):
            yield order, image


def find_isomorphism(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...] | None:
    """A bijection p with p[i-1] = image of vertex i, or None.

    Edge-preserving both ways: {i,j} in a  iff  {p(i),p(j)} in b.
    """
    check_graph(a, "graph a")
    check_graph(b, "graph b")
    for order, image in _isomorphisms(a, b):
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
    return sum(1 for _ in _isomorphisms(g, g)) * twin_orders
