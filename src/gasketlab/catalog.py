"""Named graph shorthands shared by the CLI, demos, and tests."""

from __future__ import annotations

import re
from math import comb

from .errors import DomainError, check_instance
from .graphs import LabeledGraph
from .io import JSON_VERTEX_MAX
from . import sierpinski

__all__ = ["named_graph", "NAMED_PATTERNS"]

NAMED_PATTERNS = "K<n> (complete), S<l> (gasket), P<n> (path), C<n> (cycle), E<n> (edgeless)"


class UnknownGraphName(DomainError):
    """The name matches none of ``NAMED_PATTERNS``."""


def named_graph(name: str) -> LabeledGraph:
    """K5, S3, P3, C5, E2 and friends; raises DomainError for anything else.

    The size is checked before anything is built: at most ``JSON_VERTEX_MAX``
    vertices for E, P and C, and as many edges for K; S has its level cap.
    """
    m = re.fullmatch(r"([KSPCE])0*(\d+)", check_instance(name, str, "graph name").strip())
    if not m:
        raise UnknownGraphName(
            f"unknown graph name {name!r}; expected one of {NAMED_PATTERNS}"
        )
    kind, digits = m.group(1), m.group(2)
    if len(digits) > len(str(JSON_VERTEX_MAX)):  # over every cap; int() refuses 4301+ digits
        raise DomainError(f"graph name {kind}<n> with a {len(digits)}-digit n is too large")
    value = int(digits)
    size, unit = (comb(value, 2), "edges") if kind == "K" else (value, "vertices")
    if kind != "S" and size > JSON_VERTEX_MAX:
        raise DomainError(f"graph {name!r} has {size} {unit}, over the cap {JSON_VERTEX_MAX}")
    if kind == "K":
        return LabeledGraph.complete(value)
    if kind == "S":
        return sierpinski.build(value).graph
    if kind == "E":
        return LabeledGraph.empty(value)
    if kind == "P":
        if value < 1:
            raise DomainError("path needs at least 1 vertex")
        return LabeledGraph.from_edges(value, [(i, i + 1) for i in range(1, value)])
    if value < 3:
        raise DomainError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, value)] + [(1, value)]
    return LabeledGraph.from_edges(value, edges)
