"""Sierpinski gasket graphs with canonical lattice coordinates.

Level 1 is a triangle at coordinates (0,0), (1,0), (1,1) on the triangular
lattice (row, col), col <= row.  Level l places three level-(l-1) copies at
offsets (0,0), (R',0), (R',R') with R' = 2^(l-2) (the row span of the
smaller gasket); coinciding coordinates are the shared corner vertices, so
deduplicating points realizes the corner identification.  Labels 1..n_l are
assigned by sorting coordinates by (row, col) ascending: top to bottom,
left to right.

Closed forms: n_l = (3/2)(3^(l-1) + 1) vertices and m_l = 3^l edges; for
l > 1 the three outer corners have degree 2 and every other vertex degree 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError, check_instance, check_int
from .graphs import LabeledGraph

__all__ = [
    "SierpinskiGraph",
    "build",
    "vertex_count",
    "edge_count",
    "corners",
    "subgaskets",
    "elementary_triangles",
]

MAX_LEVEL_DEFAULT = 12
# The counts take levels up to here: 3^level then has about 15,850 bits.
COUNT_LEVEL_MAX = 10_000

Coord = tuple[int, int]


def vertex_count(level: int) -> int:
    """n_l for a level in 1..COUNT_LEVEL_MAX; a level past the cap raises
    ResourceLimitError before any power of 3 is formed."""
    level = _check_level(level)
    return 3 * (3 ** (level - 1) + 1) // 2


def edge_count(level: int) -> int:
    """m_l for a level in 1..COUNT_LEVEL_MAX, refused past the cap as in
    :func:`vertex_count`."""
    level = _check_level(level)
    return 3**level


def _check_level(level: int, max_level: int | None = None) -> int:
    """The level as an int; reject a level below 1, one above
    ``max_level`` if that is given, and one above COUNT_LEVEL_MAX."""
    level = check_int(level, "gasket level", 1)
    if max_level is not None and level > max_level:
        raise ResourceLimitError(
            f"gasket level {level} exceeds the configured maximum {max_level}; "
            "raise max_level to override"
        )
    if level > COUNT_LEVEL_MAX:
        raise ResourceLimitError(
            f"gasket level {level} exceeds the cap COUNT_LEVEL_MAX = {COUNT_LEVEL_MAX}"
        )
    return level


@dataclass(frozen=True)
class SierpinskiGraph:
    level: int
    graph: LabeledGraph
    coords: dict[int, Coord]  # label -> (row, col)
    corner_labels: tuple[int, int, int]


def build(level: int, max_level: int = MAX_LEVEL_DEFAULT) -> SierpinskiGraph:
    """Construct the level-``level`` gasket graph with canonical labels."""
    level = _check_level(level, max_level)
    coord_edges = _coord_edges(level)
    points = sorted({p for e in coord_edges for p in e})
    label = {p: t + 1 for t, p in enumerate(points)}
    graph = LabeledGraph.from_edges(
        len(points), [(label[a], label[b]) for a, b in coord_edges]
    )
    span = 2 ** (level - 1)
    corner_labels = (label[(0, 0)], label[(span, 0)], label[(span, span)])
    coords = {label[p]: p for p in points}
    return SierpinskiGraph(level, graph, coords, corner_labels)


def corners(s: SierpinskiGraph) -> tuple[int, int, int]:
    """Labels of the three outer corners (degree 2 for level > 1)."""
    return check_instance(s, SierpinskiGraph, "gasket").corner_labels


def _collect_offsets(level: int, target: int, r0: int, c0: int, out: list[Coord]) -> None:
    if level == target:
        out.append((r0, c0))
        return
    span = 2 ** (level - 2)
    _collect_offsets(level - 1, target, r0, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0 + span, out)


def _coord_edges(level: int) -> list[tuple[Coord, Coord]]:
    """Edges of the triangles at the level-1 offsets, in recursion order."""
    offsets: list[Coord] = []
    _collect_offsets(level, 1, 0, 0, offsets)
    edges = []
    for r0, c0 in offsets:
        a, b, c = (r0, c0), (r0 + 1, c0), (r0 + 1, c0 + 1)
        edges += [(a, b), (a, c), (b, c)]
    return edges


def _coord_points(level: int) -> list[Coord]:
    return sorted({p for e in _coord_edges(level) for p in e})


def subgaskets(s: SierpinskiGraph, sub_level: int) -> list[tuple[int, ...]]:
    """The 3^(l-j) canonical level-j sub-gasket vertex sets, in recursion
    order (top copy, then lower-left, then lower-right)."""
    check_instance(s, SierpinskiGraph, "gasket")
    sub_level = check_int(sub_level, "sub-gasket level", 1, s.level)
    offsets: list[Coord] = []
    _collect_offsets(s.level, sub_level, 0, 0, offsets)
    template = _coord_points(sub_level)
    label = {coord: v for v, coord in s.coords.items()}
    subsets = []
    for r0, c0 in offsets:
        subsets.append(tuple(sorted(label[(r0 + r, c0 + c)] for r, c in template)))
    return subsets


def elementary_triangles(s: SierpinskiGraph) -> list[tuple[int, ...]]:
    """The level-1 sub-gaskets; every vertex lies in at least one."""
    return subgaskets(s, 1)
