"""Isomorphism and automorphism search for small graphs.

Both run on the induced-embedding kernel of :mod:`gasketlab.ramsey`: an
isomorphism is an induced embedding between graphs with equal degree
multisets.  The search is complete (no heuristics that can miss).  The kernel places twins
(vertices with one open or one closed neighbourhood) in increasing image
order, and every permutation inside a twin class is an automorphism, so
the automorphism count is the number of embeddings found times the product
of the twin classes' factorials.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

from .errors import DomainError
from .graphs import LabeledGraph
from .ramsey import _isomorphisms, _twin_keys

__all__ = ["is_isomorphic", "find_isomorphism", "automorphism_count"]

AUT_MAX_VERTICES = 10


def find_isomorphism(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...] | None:
    """A bijection p with p[i-1] = image of vertex i, or None.

    Edge-preserving both ways: {i,j} in a  iff  {p(i),p(j)} in b.
    """
    for order, image in _isomorphisms(a, b):
        return tuple(image[order.index(v)] + 1 for v in a.vertices())
    return None


def is_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    return find_isomorphism(a, b) is not None


def automorphism_count(g: LabeledGraph) -> int:
    """Order of the automorphism group, by complete search (n <= AUT_MAX_VERTICES)."""
    if g.n > AUT_MAX_VERTICES:
        raise DomainError(
            f"automorphism search is limited to {AUT_MAX_VERTICES} vertices, got {g.n}"
        )
    twin_orders = prod(factorial(size) for size in Counter(_twin_keys(g)[1:]).values())
    return sum(1 for _ in _isomorphisms(g, g)) * twin_orders
